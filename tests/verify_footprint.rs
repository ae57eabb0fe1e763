//! A verified run's heap footprint against an unverified one's.
//!
//! The serial oracles borrow what the finished drivers hold, so turning
//! `verify` on may add at most one working copy to a run's peak live
//! heap: the keys once for a sort, one expected vector for a
//! collective. This binary counts every allocation with its own global
//! allocator, so the comparison is exact and deterministic (bytes, not
//! RSS); it holds one test so nothing else allocates meanwhile.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use acc::coll::{Algorithm, CollectiveOp};
use acc::core::cluster::{ClusterSpec, Technology};
use acc::core::RunRequest;

/// Live heap bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's layout and
// pointer unchanged; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grow(new_size);
        }
        new
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Peak live heap bytes while `req` executes, above the live bytes
/// before it.
fn peak_of(req: RunRequest) -> usize {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let outcome = req.execute();
    assert!(!outcome.is_hung(), "the run completed");
    drop(outcome);
    PEAK.load(Relaxed) - base
}

/// What verification may add on top of one copy of the run's data:
/// the oracles' per-rank bookkeeping.
const SLACK: usize = 64 << 10;

/// Run `req` on `spec` unverified, then verified, and compare peaks.
fn assert_within_one_copy(req: impl Fn(ClusterSpec) -> RunRequest, spec: ClusterSpec, copy: usize) {
    let label = format!(
        "{:?} on {} at p={}",
        req(spec.clone()).workload,
        spec.technology.label(),
        spec.p
    );
    let unverified = peak_of(req(ClusterSpec {
        verify: false,
        ..spec.clone()
    }));
    let verified = peak_of(req(spec));
    assert!(
        verified <= unverified + copy + SLACK,
        "{label}: verified peak {verified} B, unverified {unverified} B, \
         allowed one {copy} B copy + {SLACK} B"
    );
}

#[test]
fn verified_runs_peak_within_one_copy_of_unverified_runs() {
    const KEYS: u64 = 1 << 18;
    for tech in [Technology::InicIdeal, Technology::GigabitTcp] {
        let sort = |spec| RunRequest::sort(spec, KEYS);
        assert_within_one_copy(sort, ClusterSpec::new(8, tech), KEYS as usize * 4);
    }
    const ELEMS: usize = 1 << 14;
    let allreduce =
        |spec| RunRequest::collective(spec, CollectiveOp::AllReduce, Algorithm::Ring, ELEMS);
    assert_within_one_copy(
        allreduce,
        ClusterSpec::new(16, Technology::GigabitTcp),
        ELEMS * 8,
    );
}
