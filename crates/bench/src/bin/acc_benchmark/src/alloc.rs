//! A counting wrapper around the system allocator.
//!
//! Counters are per thread, so a measurement on one thread is not
//! disturbed by another (the test harness runs tests on parallel
//! threads; the benchmark itself is single-threaded). Every allocation
//! and reallocation counts as one allocation of its new size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The process allocator: [`System`] plus per-thread counting.
pub struct Counting;

thread_local! {
    // `const` initialisation and `Copy` contents: no lazy registration
    // and no destructor, so touching these never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn record(size: usize) {
    // `try_with` fails only while the thread's TLS is being torn down;
    // those allocations go uncounted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + size as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// const-initialised thread-locals and never allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller guarantees `layout` has non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: the caller guarantees `ptr`/`layout` describe a live
        // block from this allocator and `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation count and requested bytes on this thread so far.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocations and reallocations.
    pub allocs: u64,
    /// Bytes requested by them.
    pub bytes: u64,
}

impl AllocSnapshot {
    /// The counters now.
    pub fn now() -> AllocSnapshot {
        AllocSnapshot {
            allocs: ALLOCS.with(Cell::get),
            bytes: BYTES.with(Cell::get),
        }
    }

    /// What was allocated between `self` and `later`.
    pub fn until(self, later: AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocs: later.allocs - self.allocs,
            bytes: later.bytes - self.bytes,
        }
    }
}
