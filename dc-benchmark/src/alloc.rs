//! A counting global allocator: live bytes and their high-water mark.
//!
//! `single_run_peak_heap_mb` is the paper's log-retention cost seen from
//! outside: how far the heap rises above its level at the start of one
//! execution. Two relaxed atomic operations per allocation; every
//! configuration pays them alike.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator with live-byte accounting.
#[derive(Debug)]
pub struct Counting;

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are only read and written atomically
// and never influence what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded with the caller's layout.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded with the caller's layout.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded with the caller's pointer, layout and size.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Marks the start of an execution: the high-water mark falls back to the
/// current level, which is returned.
pub fn reset_peak() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// The high-water mark since the last [`reset_peak`].
pub fn peak() -> usize {
    PEAK.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn high_water_mark_resets_per_run() {
        // Other tests allocate concurrently, so assert only what a 64 MiB
        // buffer must dominate.
        const BIG: usize = 64 << 20;
        let base = reset_peak();
        let buffer = vec![1u8; BIG];
        std::hint::black_box(&buffer);
        assert!(peak() >= base + BIG / 2, "the buffer raised the mark");
        drop(buffer);
        assert!(peak() >= base + BIG / 2, "the mark outlives the buffer");
        let base = reset_peak();
        assert!(peak() < base + BIG / 2, "reset drops the mark to the level");
        let small = vec![1u8; 1 << 20];
        std::hint::black_box(&small);
        assert!(
            peak() < base + BIG / 2,
            "a new run starts from the new level"
        );
    }
}
