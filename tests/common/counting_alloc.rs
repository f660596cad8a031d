//! The counting global allocator of the allocation tests: every allocator
//! call (`alloc` or `realloc`) is counted once for the calling thread and
//! once for the process, and the bytes it adds (a `realloc`'s growth, none
//! for a shrink) are counted for the calling thread. A test crate includes
//! this file with
//!
//! ```text
//! #[path = "<relative path to>/tests/common/counting_alloc.rs"]
//! mod counting_alloc;
//! ```
//!
//! and reads [`allocations`] or [`allocated_bytes`] (this thread) or
//! [`process_allocations`] (every thread) around the code it measures.

#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

thread_local! {
    // const-init: a lazily-initialized thread_local would itself allocate
    // on first use, recursing into the allocator under measurement.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
}

static PROCESS_ALLOCS: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
    THREAD_BYTES.with(|c| c.set(c.get() + bytes as u64));
    PROCESS_ALLOCS.fetch_add(1, Ordering::Relaxed);
}

// SAFETY: forwards every call to `System` unchanged; counting allocates
// nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocator calls this thread made so far.
pub fn allocations() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Bytes this thread's allocator calls added so far (frees not subtracted).
pub fn allocated_bytes() -> u64 {
    THREAD_BYTES.with(Cell::get)
}

/// Allocator calls every thread made so far.
pub fn process_allocations() -> u64 {
    PROCESS_ALLOCS.load(Ordering::SeqCst)
}
