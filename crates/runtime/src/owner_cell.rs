//! [`OwnerCell`]: the one home of per-thread state that only its owning
//! thread touches.
//!
//! The analyses keep their hot per-thread state in blocks that only the
//! owning thread writes (ICD's log and elision table, Octet's stamp table,
//! the checkers' transaction trackers); the few words another thread reads
//! or writes are atomics kept beside the cell, in the head of the same
//! slot. Every such block in the workspace is an `OwnerCell`, so the
//! argument that makes it sound is written once, here.

use std::cell::UnsafeCell;

/// A value accessed by one thread at a time, padded to its own 128-byte
/// block (two cache lines: adjacent-line prefetch pairs them) so that no
/// word another thread reads or writes shares a block with it.
///
/// # Contract
///
/// No two accesses through [`OwnerCell::get`] are ever concurrent. An
/// access comes from the cell's owning thread, or from a thread that
/// happens-after the owner's last access (one that joined it). No `&mut`
/// that `get` returned may be alive across another `get` on the same cell:
/// in particular, a hook does not hold its borrow across a call that can
/// reach the same thread's hooks again (a coordination sink, a nested
/// hook) — it takes what it needs out of the cell first, or passes the
/// borrow down.
#[repr(align(128))]
pub struct OwnerCell<T>(UnsafeCell<T>);

// SAFETY: `get`'s contract orders every access to the value after the
// previous one (same thread, or happens-after it), so sharing the cell
// never lets two threads touch the value at once. `T: Send` because the
// value is then used, and dropped, by whichever thread holds it.
unsafe impl<T: Send> Sync for OwnerCell<T> {}

impl<T> OwnerCell<T> {
    /// Wraps `value`.
    pub const fn new(value: T) -> Self {
        OwnerCell(UnsafeCell::new(value))
    }

    /// The owner's exclusive borrow of the value.
    ///
    /// # Safety
    ///
    /// The caller keeps the type's contract: it runs on the owning thread
    /// (or happens-after its last access), and no other borrow from this
    /// cell is alive.
    #[allow(clippy::mut_from_ref)]
    #[inline(always)]
    pub unsafe fn get(&self) -> &mut T {
        &mut *self.0.get()
    }
}

impl<T> std::fmt::Debug for OwnerCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The value belongs to its owner: a debug print must not read it.
        f.debug_struct("OwnerCell").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_cell_fills_its_own_128_byte_block() {
        assert_eq!(std::mem::align_of::<OwnerCell<u8>>(), 128);
        assert_eq!(std::mem::size_of::<OwnerCell<u8>>(), 128);
        assert_eq!(std::mem::size_of::<OwnerCell<[u8; 129]>>(), 256);
    }

    /// The cell is `Sync`: another thread may own it, and the thread that
    /// joined the owner reads what it left.
    #[test]
    fn a_joining_thread_reads_the_owners_value() {
        let cell = OwnerCell::new(0u64);
        std::thread::scope(|s| {
            s.spawn(|| {
                // SAFETY: the spawned thread is the cell's only user until
                // the scope joins it.
                *unsafe { cell.get() } += 41;
            });
        });
        // SAFETY: the scope joined the owner: this access happens-after.
        assert_eq!(*unsafe { cell.get() } + 1, 42);
    }
}
