//! The future-event list: a hierarchical timing wheel with a pooled
//! event slab, plus the original binary heap kept as a cross-check
//! oracle.
//!
//! # Why a wheel
//!
//! The engine's hot path is `push` + `pop` once per simulated event.
//! A `BinaryHeap` pays `O(log n)` comparisons *and* moves a ~40-byte
//! `ScheduledEvent` through the heap array on every sift — and the std
//! heap's sift machinery alone costs ~10 ns per push/pop pair even at
//! depth 1 on this class of host. The [`TimingWheel`] replaces it with
//! two zones sized for how simulations actually schedule:
//!
//! * **near zone** — a sorted ring ([`VecDeque`]) of imminent events
//!   ordered by the packed 128-bit key `time << 64 | seq`, payloads
//!   held inline. `pop` is `pop_front`; an insert is a plain
//!   `push_back` whenever the new event sorts last, which is the
//!   overwhelmingly common case (self-timers, same-instant fan-out
//!   bursts, and FIFO port drains all arrive in key order).
//! * **wheel zone** — 8 levels × 64 slots of slab indices into an
//!   event pool (a free-list, so slots are recycled instead of
//!   reallocated and only 4-byte indices move between buckets). Level
//!   `l` buckets by bits `[13+6l, 19+6l)` of the picosecond timestamp:
//!   level 0 slots are 2^13 ps ≈ 8.2 ns wide, level 7 spans cover
//!   2^61 ps ≈ 26 simulated days. An overflow bucket holds the (rare)
//!   events beyond the top level's horizon, e.g. "never"-sentinel
//!   timers.
//!
//! # Exact order preservation
//!
//! Every queue in this module pops in strictly increasing `(time, seq)`
//! order, where `seq` is the monotone insertion counter. The wheel's
//! invariant: every wheel event's level-0 slot is strictly after
//! `base`'s, so every wheel event is strictly later than every near
//! event, and the sorted near ring always holds the global minimum at
//! its front. When the near ring drains, `TimingWheel::settle`
//! advances `base` to the earliest occupied slot *start* across all
//! levels (never past a pending event) and cascades that slot down one
//! level — re-bucketed by the same rules — until the near ring is
//! populated again. Within a wheel slot, order is irrelevant: events
//! only ever reach the near ring, whose sorted insert re-establishes
//! exact `(time, seq)` order. Ties at the same timestamp therefore pop
//! in insertion order, exactly as the old heap did.
//!
//! # The oracle
//!
//! [`HeapQueue`] is the original `BinaryHeap` implementation behind the
//! same API. [`EventQueue`] runs the wheel in release builds; in debug
//! builds (and whenever [`EventQueue::set_oracle`] arms it) every push
//! is mirrored into a shadow `HeapQueue` and every pop is cross-checked
//! against it, so the entire test suite doubles as a wheel-vs-heap
//! equivalence proof on every run.

use std::any::Any;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::component::ComponentId;
use crate::time::SimTime;

/// An event scheduled for delivery to a component.
///
/// The payload is type-erased; each domain crate defines its own message
/// enums and downcasts in its `Component::handle` implementation. This
/// mirrors how real buses carry opaque transactions that endpoints decode.
pub struct ScheduledEvent {
    /// Delivery instant.
    pub time: SimTime,
    /// Monotone insertion sequence number; breaks time ties so execution
    /// order is independent of queue internals.
    pub seq: u64,
    /// Destination component.
    pub target: ComponentId,
    /// Opaque message payload.
    pub payload: Box<dyn Any>,
}

impl PartialEq for ScheduledEvent {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for ScheduledEvent {}

impl PartialOrd for ScheduledEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ScheduledEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq)
        // pops first. Same-time events deliver in scheduling order, which
        // is what a causally-ordered hardware bus would do.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The original `BinaryHeap` future-event list, kept as the reference
/// implementation: property tests drive it in lockstep with the wheel,
/// and [`EventQueue`]'s debug oracle shadows every operation through it.
#[derive(Default)]
pub struct HeapQueue {
    heap: BinaryHeap<ScheduledEvent>,
    next_seq: u64,
}

impl HeapQueue {
    /// Create an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty queue with room for `capacity` pending events.
    pub fn with_capacity(capacity: usize) -> Self {
        HeapQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
        }
    }

    /// Schedule `payload` for `target` at absolute instant `time`.
    pub fn push(&mut self, time: SimTime, target: ComponentId, payload: Box<dyn Any>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(ScheduledEvent {
            time,
            seq,
            target,
            payload,
        });
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<ScheduledEvent> {
        self.heap.pop()
    }

    /// Peek at the delivery time of the earliest event.
    pub fn next_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Peek at the delivery time and target of the earliest event.
    pub fn peek_head(&self) -> Option<(SimTime, ComponentId)> {
        self.heap.peek().map(|e| (e.time, e.target))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever scheduled.
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Current backing-store capacity (diagnostics).
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }
}

// ---------------------------------------------------------------------
// Timing wheel
// ---------------------------------------------------------------------

/// log2 of the slot count per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels; level 7 slots are 2^55 ps wide, so the wheel horizon is
/// 2^61 ps (~26 simulated days) past `base`. Farther events overflow.
const LEVELS: usize = 8;
/// log2 of the level-0 slot width in picoseconds (8.192 ns). Fine enough
/// that a slot rarely holds more than one protocol timestep; coarse
/// enough that 8 levels cover every scenario horizon.
const SHIFT0: u32 = 13;
/// Free-list terminator / "no slot" marker.
const NIL: u32 = u32::MAX;

/// Level `l` bucket shift.
#[inline]
const fn level_shift(level: usize) -> u32 {
    SHIFT0 + SLOT_BITS * level as u32
}

/// Packed near-ring key: exact `(time, seq)` order in one comparison.
#[inline]
const fn near_key(time_ps: u64, seq: u64) -> u128 {
    ((time_ps as u128) << 64) | seq as u128
}

/// An imminent event, payload inline: events in the near ring never
/// touch the pool, so the hot immediate-delivery path (push straight to
/// near, pop from near) does no slab bookkeeping at all.
struct NearEvent {
    key: u128,
    target: ComponentId,
    payload: Box<dyn Any>,
}

/// One pooled event slot. `payload: None` marks a free slot whose
/// `next_free` threads the free list.
struct PoolSlot {
    time_ps: u64,
    seq: u64,
    target: ComponentId,
    payload: Option<Box<dyn Any>>,
    next_free: u32,
}

/// Hierarchical timing-wheel future-event list with a slab event pool.
///
/// See the module docs for the design and the ordering argument. The
/// API is identical to [`HeapQueue`]; the two are interchangeable and
/// pop every sequence in the same exact `(time, seq)` order.
pub struct TimingWheel {
    /// Near zone: imminent events sorted ascending by key; front pops
    /// next. Sorted-insert cost is O(1) for in-order arrivals (the
    /// common case) and bounded by the ring length otherwise.
    // acc-lint: allow(R9, reason = "holds only the imminent time window: settle() refills it one wheel slot at a time, so occupancy tracks events within a single slot horizon, not the whole future-event list")
    near: VecDeque<NearEvent>,
    /// Event pool for wheel/overflow events; free slots are threaded
    /// through `free_head`.
    pool: Vec<PoolSlot>,
    free_head: u32,
    /// Wheel zone: slab indices bucketed by timestamp bits.
    levels: Box<[[Vec<u32>; SLOTS]; LEVELS]>,
    /// Per-level slot-occupancy bitmaps (bit `s` = slot `s` non-empty).
    occupied: [u64; LEVELS],
    /// Wheel origin: all wheel events have a level-0 slot strictly after
    /// `base`'s; all near events have one at or before it. Never past a
    /// pending event, monotonically non-decreasing while non-empty.
    base: u64,
    /// Events beyond the top level's horizon, and the min time among them.
    overflow: Vec<u32>,
    overflow_min: u64,
    len: usize,
    next_seq: u64,
}

impl Default for TimingWheel {
    fn default() -> Self {
        Self::new()
    }
}

impl TimingWheel {
    /// Create an empty wheel.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Create an empty wheel whose near ring holds `capacity` imminent
    /// events before reallocating.
    pub fn with_capacity(capacity: usize) -> Self {
        TimingWheel {
            near: VecDeque::with_capacity(capacity),
            pool: Vec::new(),
            free_head: NIL,
            levels: Box::new(std::array::from_fn(|_| std::array::from_fn(|_| Vec::new()))),
            occupied: [0; LEVELS],
            base: 0,
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            len: 0,
            next_seq: 0,
        }
    }

    /// Current near-ring capacity (diagnostics and pre-sizing tests).
    pub fn capacity(&self) -> usize {
        self.near.capacity()
    }

    /// Current event-pool capacity (pool-recycling diagnostics).
    pub fn pool_capacity(&self) -> usize {
        self.pool.capacity()
    }

    /// Insert into the sorted near ring. In-order arrivals (`key`
    /// sorting last) are a plain `push_back`.
    #[inline]
    fn near_insert(&mut self, ev: NearEvent) {
        match self.near.back() {
            Some(back) if back.key > ev.key => {
                let mut lo = 0usize;
                let mut hi = self.near.len();
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if self.near[mid].key < ev.key {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                self.near.insert(lo, ev);
            }
            _ => self.near.push_back(ev),
        }
    }

    #[inline]
    fn alloc_slot(
        &mut self,
        time_ps: u64,
        seq: u64,
        target: ComponentId,
        payload: Box<dyn Any>,
    ) -> u32 {
        let idx = self.free_head;
        if idx != NIL {
            let slot = &mut self.pool[idx as usize];
            self.free_head = slot.next_free;
            slot.time_ps = time_ps;
            slot.seq = seq;
            slot.target = target;
            slot.payload = Some(payload);
            idx
        } else {
            let idx = self.pool.len();
            debug_assert!(idx < NIL as usize, "event pool exceeds u32 indices");
            self.pool.push(PoolSlot {
                time_ps,
                seq,
                target,
                payload: Some(payload),
                next_free: NIL,
            });
            idx as u32
        }
    }

    /// Schedule `payload` for `target` at absolute instant `time`.
    #[inline]
    pub fn push(&mut self, time: SimTime, target: ComponentId, payload: Box<dyn Any>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let t = time.as_ps();
        if self.len == 0 {
            // Empty queue: re-anchor the wheel so the event lands in the
            // near ring directly.
            self.base = t;
        }
        self.len += 1;
        if (t >> SHIFT0) <= (self.base >> SHIFT0) {
            // In (or before) the current level-0 slot: competes for the
            // next pop. Payload rides in the ring; no pool slot needed.
            self.near_insert(NearEvent {
                key: near_key(t, seq),
                target,
                payload,
            });
        } else {
            let idx = self.alloc_slot(t, seq, target, payload);
            self.route_wheelward(idx);
        }
    }

    /// Bucket pooled entry `idx` into a wheel level or the overflow
    /// list. Caller guarantees its level-0 slot is after `base`'s.
    #[inline]
    fn route_wheelward(&mut self, idx: u32) {
        let t = self.pool[idx as usize].time_ps;
        let base = self.base;
        for level in 0..LEVELS {
            let shift = level_shift(level);
            let delta = (t >> shift) - (base >> shift);
            if delta < SLOTS as u64 {
                let slot_idx = ((t >> shift) & (SLOTS as u64 - 1)) as usize;
                self.levels[level][slot_idx].push(idx);
                self.occupied[level] |= 1 << slot_idx;
                return;
            }
        }
        self.overflow_min = self.overflow_min.min(t);
        self.overflow.push(idx);
    }

    /// Move pooled entry `idx` into the near ring, freeing its slot.
    fn pool_to_near(&mut self, idx: u32) {
        let slot = &mut self.pool[idx as usize];
        let payload = slot
            .payload
            .take()
            .expect("timing wheel: routed entry points at a free pool slot");
        let ev = NearEvent {
            key: near_key(slot.time_ps, slot.seq),
            target: slot.target,
            payload,
        };
        slot.next_free = self.free_head;
        self.free_head = idx;
        self.near_insert(ev);
    }

    /// Re-bucket pooled entry `idx` after `base` advanced: near ring if
    /// it is now imminent, else back into the wheel/overflow.
    fn route(&mut self, idx: u32) {
        let t = self.pool[idx as usize].time_ps;
        if (t >> SHIFT0) <= (self.base >> SHIFT0) {
            self.pool_to_near(idx);
        } else {
            self.route_wheelward(idx);
        }
    }

    /// Remove and return the earliest event, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<ScheduledEvent> {
        let ev = self.near.pop_front()?;
        self.len -= 1;
        let out = ScheduledEvent {
            time: SimTime::from_ps((ev.key >> 64) as u64),
            seq: ev.key as u64,
            target: ev.target,
            payload: ev.payload,
        };
        if self.near.is_empty() && self.len > 0 {
            self.settle();
        }
        Some(out)
    }

    /// Refill the near ring from the wheel: advance `base` to the
    /// earliest occupied slot start (never past a pending event) and
    /// cascade that slot down one level, repeating until the near ring
    /// is non-empty. Called only when events remain and near is empty.
    fn settle(&mut self) {
        while self.near.is_empty() {
            // Earliest occupied slot start per level; the global minimum
            // bounds every pending event's time from below.
            let mut best: Option<(u64, usize)> = None;
            for level in 0..LEVELS {
                if self.occupied[level] == 0 {
                    continue;
                }
                let shift = level_shift(level);
                let cur = self.base >> shift;
                // Occupied slots all lie in the 64-slot window starting
                // at `cur`, so a rotated-bitmap scan (inclusive of `cur`:
                // cascades can leave events in the current slot) finds
                // the earliest unambiguously.
                let rot = self.occupied[level].rotate_right((cur & 63) as u32);
                let dist = u64::from(rot.trailing_zeros());
                let start = (cur + dist) << shift;
                if best.is_none_or(|(s, _)| start < s) {
                    best = Some((start, level));
                }
            }
            // Overflow participates in the minimum: its events must be
            // re-bucketed before `base` may advance past them.
            if !self.overflow.is_empty() && best.is_none_or(|(s, _)| self.overflow_min <= s) {
                self.base = self.overflow_min;
                self.overflow_min = u64::MAX;
                let mut items = std::mem::take(&mut self.overflow);
                for idx in items.drain(..) {
                    self.route(idx);
                }
                // route() may have re-overflowed events still beyond the
                // new horizon; fold them into the recycled Vec.
                items.append(&mut self.overflow);
                self.overflow = items;
                continue;
            }
            let Some((start, _)) = best else {
                return; // genuinely empty (len bookkeeping keeps this unreachable)
            };
            self.base = start;
            // Cascade *every* level's slot that starts exactly at the new
            // base, highest level first: a coarse slot starting here can
            // hold events earlier than a fine slot starting here, and
            // they all must reach the near ring together before any pop.
            for level in (0..LEVELS).rev() {
                let shift = level_shift(level);
                let cur = self.base >> shift;
                let slot_idx = (cur & 63) as usize;
                if self.occupied[level] & (1 << slot_idx) == 0 || (cur << shift) != start {
                    continue;
                }
                self.occupied[level] &= !(1 << slot_idx);
                let mut events = std::mem::take(&mut self.levels[level][slot_idx]);
                if level == 0 {
                    for idx in events.drain(..) {
                        self.pool_to_near(idx);
                    }
                } else {
                    for idx in events.drain(..) {
                        self.route(idx);
                    }
                }
                self.levels[level][slot_idx] = events; // recycle capacity
            }
        }
    }

    /// Peek at the delivery time of the earliest event.
    #[inline]
    pub fn next_time(&self) -> Option<SimTime> {
        self.near
            .front()
            .map(|ev| SimTime::from_ps((ev.key >> 64) as u64))
    }

    /// Peek at the delivery time and target of the earliest event
    /// (liveness diagnostics: "who was the queue head waiting on").
    pub fn peek_head(&self) -> Option<(SimTime, ComponentId)> {
        self.near
            .front()
            .map(|ev| (SimTime::from_ps((ev.key >> 64) as u64), ev.target))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events ever scheduled (diagnostics).
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }
}

// ---------------------------------------------------------------------
// Facade
// ---------------------------------------------------------------------

/// Deterministic future-event list: the [`TimingWheel`], optionally
/// shadowed by a [`HeapQueue`] oracle that cross-checks every pop.
///
/// Debug builds arm the oracle by default, so `cargo test` exercises
/// every scenario through *both* schedulers and asserts they agree on
/// the full `(time, seq, target)` pop sequence. Release builds (golden
/// regeneration, benches, campaigns) run the wheel alone.
pub struct EventQueue {
    wheel: TimingWheel,
    oracle: Option<Box<HeapQueue>>,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// Create an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Create an empty queue with room for `capacity` imminent events
    /// before the near ring reallocates. Scenario engines pre-size with
    /// this so the first burst of scheduling does not pay repeated
    /// grow-and-copy cycles.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            wheel: TimingWheel::with_capacity(capacity),
            oracle: if cfg!(debug_assertions) {
                Some(Box::new(HeapQueue::with_capacity(capacity)))
            } else {
                None
            },
        }
    }

    /// Arm or disarm the heap oracle. With the oracle armed, every push
    /// is mirrored and every pop asserted identical across the two
    /// schedulers. Must be toggled while the queue is empty.
    pub fn set_oracle(&mut self, on: bool) {
        assert!(
            self.wheel.is_empty(),
            "EventQueue oracle toggled with events pending"
        );
        self.oracle = if on {
            Some(Box::new(HeapQueue::new()))
        } else {
            None
        };
    }

    /// Whether the cross-check oracle is armed.
    pub fn oracle_enabled(&self) -> bool {
        self.oracle.is_some()
    }

    /// Current near-ring capacity (diagnostics and pre-sizing tests).
    pub fn capacity(&self) -> usize {
        self.wheel.capacity()
    }

    /// Schedule `payload` for `target` at absolute instant `time`.
    #[inline]
    pub fn push(&mut self, time: SimTime, target: ComponentId, payload: Box<dyn Any>) {
        if self.oracle.is_none() {
            return self.wheel.push(time, target, payload);
        }
        self.push_mirrored(time, target, payload);
    }

    /// Push with the oracle armed: mirror into the shadow heap.
    #[cold]
    fn push_mirrored(&mut self, time: SimTime, target: ComponentId, payload: Box<dyn Any>) {
        // The oracle tracks (time, seq, target) only; payloads are not
        // duplicable, so it carries an empty one.
        self.oracle
            .as_mut()
            .expect("EventQueue push_mirrored called with no oracle")
            .push(time, target, Box::new(()));
        self.wheel.push(time, target, payload);
    }

    /// Remove and return the earliest event, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<ScheduledEvent> {
        if self.oracle.is_none() {
            return self.wheel.pop();
        }
        self.pop_cross_checked()
    }

    /// Pop with the oracle armed: pop both schedulers and assert they
    /// agree on `(time, seq, target)`.
    #[cold]
    fn pop_cross_checked(&mut self) -> Option<ScheduledEvent> {
        let got = self.wheel.pop();
        let want = self
            .oracle
            .as_mut()
            .expect("EventQueue pop_cross_checked called with no oracle")
            .pop();
        let got_key = got.as_ref().map(|e| (e.time, e.seq, e.target));
        let want_key = want.as_ref().map(|e| (e.time, e.seq, e.target));
        assert!(
            got_key == want_key,
            "timing wheel diverged from heap oracle: wheel popped {got_key:?}, \
             oracle expected {want_key:?}"
        );
        got
    }

    /// Peek at the delivery time of the earliest event.
    #[inline]
    pub fn next_time(&self) -> Option<SimTime> {
        self.wheel.next_time()
    }

    /// Peek at the delivery time and target of the earliest event
    /// (liveness diagnostics: "who was the queue head waiting on").
    pub fn peek_head(&self) -> Option<(SimTime, ComponentId)> {
        self.wheel.peek_head()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel.len()
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.wheel.is_empty()
    }

    /// Total number of events ever scheduled (diagnostics).
    pub fn scheduled_total(&self) -> u64 {
        self.wheel.scheduled_total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn id(n: usize) -> ComponentId {
        ComponentId::from_raw(n)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        let t = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
        q.push(t(5), id(0), Box::new(5u32));
        q.push(t(1), id(0), Box::new(1u32));
        q.push(t(3), id(0), Box::new(3u32));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| *e.payload.downcast::<u32>().unwrap())
            .collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.push(SimTime::ZERO, id(0), Box::new(i));
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| *e.payload.downcast::<u32>().unwrap())
            .collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn next_time_tracks_head() {
        let mut q = EventQueue::new();
        assert_eq!(q.next_time(), None);
        q.push(SimTime::from_ps(10), id(1), Box::new(()));
        q.push(SimTime::from_ps(2), id(1), Box::new(()));
        assert_eq!(q.next_time(), Some(SimTime::from_ps(2)));
        q.pop();
        assert_eq!(q.next_time(), Some(SimTime::from_ps(10)));
    }

    #[test]
    fn counts_scheduled_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::ZERO, id(0), Box::new(()));
        q.push(SimTime::ZERO, id(0), Box::new(()));
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn out_of_order_near_inserts_stay_sorted() {
        // Same level-0 slot, descending arrival order: exercises the
        // sorted-insert slow path of the near ring.
        let mut q = EventQueue::new();
        for ps in (0..64u64).rev() {
            q.push(SimTime::from_ps(ps), id(0), Box::new(ps));
        }
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| *e.payload.downcast::<u64>().unwrap())
            .collect();
        assert_eq!(popped, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn wide_time_spread_pops_sorted() {
        // Cover every wheel level plus the overflow bucket: spreads from
        // picoseconds to beyond the 2^61 ps horizon.
        let mut q = EventQueue::new();
        let times: Vec<u64> = (0..60u32)
            .map(|i| 1u64.checked_shl(i).unwrap_or(u64::MAX))
            .chain([0, 5, u64::MAX, 1 << 62, (1 << 62) + 1])
            .collect();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_ps(t), id(i % 3), Box::new(t));
        }
        let mut sorted = times.clone();
        sorted.sort_unstable();
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| *e.payload.downcast::<u64>().unwrap())
            .collect();
        assert_eq!(popped, sorted);
    }

    #[test]
    fn interleaved_push_pop_preserves_order() {
        // Schedule-as-you-go, like a component chain: each pop triggers
        // a push slightly in the future, crossing slot boundaries.
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, id(0), Box::new(0u64));
        let mut last = None;
        let mut popped = 0u64;
        while let Some(ev) = q.pop() {
            let t = ev.time.as_ps();
            assert!(last.is_none_or(|l| l <= t), "time went backwards");
            last = Some(t);
            popped += 1;
            if popped < 1000 {
                // Variable stride: crosses level-0 and level-1 slots.
                q.push(
                    SimTime::from_ps(t + 1 + (popped % 7) * 4096),
                    id(0),
                    Box::new(popped),
                );
            }
        }
        assert_eq!(popped, 1000);
    }

    #[test]
    fn pool_recycles_slots() {
        let mut q = TimingWheel::new();
        for round in 0..10u64 {
            // Spread each round across many level-0 slots so events pass
            // through the wheel (and thus the pool), then drain fully.
            for i in 0..100u64 {
                q.push(
                    SimTime::from_ps(round * 10_000_000 + i * 100_000),
                    id(0),
                    Box::new(i),
                );
            }
            for _ in 0..100 {
                q.pop();
            }
        }
        // Steady-state churn must not grow the pool past one round's
        // worth of live events.
        assert!(
            q.pool_capacity() <= 128,
            "pool grew to {} slots for 100 live events",
            q.pool_capacity()
        );
    }

    #[test]
    fn oracle_toggles_and_shadows() {
        let mut q = EventQueue::new();
        q.set_oracle(true);
        assert!(q.oracle_enabled());
        for i in 0..50u64 {
            q.push(SimTime::from_ps(i * 3 % 17), id(0), Box::new(i));
        }
        while q.pop().is_some() {}
        q.set_oracle(false);
        assert!(!q.oracle_enabled());
    }

    #[test]
    #[should_panic(expected = "oracle toggled with events pending")]
    fn oracle_toggle_rejected_when_nonempty() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, id(0), Box::new(()));
        q.set_oracle(true);
    }
}
