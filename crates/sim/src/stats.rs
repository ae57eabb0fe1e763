//! Statistics collection: counters and gauges.
//!
//! Keys are `(scope, name)` string pairs — scope is usually a component
//! name such as `"nic3"` or `"switch"`. Cheap enough for simulation-rate
//! updates (per-frame sites bump through a [`CounterHandle`]); values are
//! pulled after a run for report generation.

use std::collections::BTreeMap;

/// A monotonically increasing event counter.
///
/// Arithmetic saturates at `u64::MAX`: a counter that a very long soak
/// drives past 2⁶⁴ pegs at the ceiling instead of panicking in debug
/// builds (or silently wrapping in release, which would corrupt the
/// conservation checks built on these values).
#[derive(Default, Debug, Clone)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// Increment by one.
    pub fn inc(&mut self) {
        self.value = self.value.saturating_add(1);
    }

    /// Increment by `n`.
    pub fn add(&mut self, n: u64) {
        self.value = self.value.saturating_add(n);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value
    }
}

/// A last-writer-wins instantaneous value.
#[derive(Default, Debug, Clone)]
pub struct Gauge {
    value: f64,
    /// `None` until the first `set` — a zero default would misreport
    /// the maximum of a gauge that only ever held negative values.
    max_seen: Option<f64>,
}

impl Gauge {
    /// Set the current value, tracking the maximum ever seen.
    pub fn set(&mut self, v: f64) {
        self.value = v;
        if self.max_seen.is_none_or(|m| v > m) {
            self.max_seen = Some(v);
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        self.value
    }

    /// Maximum value ever set (0.0 if never set, matching `get`).
    pub fn max(&self) -> f64 {
        self.max_seen.unwrap_or(0.0)
    }
}

/// A two-level `scope → name → T` map. Lookups borrow both keys as
/// `&str`, so an existing entry is found with **zero allocations**; only
/// creating one allocates its key strings. Iteration order equals that
/// of a flat `(scope, name)`-keyed map.
type Scoped<T> = BTreeMap<String, BTreeMap<String, T>>;

/// Fetch or create the entry at `(scope, name)`, building it with `make`.
fn scoped_entry<'m, T>(
    map: &'m mut Scoped<T>,
    scope: &str,
    name: &str,
    make: impl FnOnce() -> T,
) -> &'m mut T {
    if !map.contains_key(scope) {
        map.insert(scope.to_owned(), BTreeMap::new());
    }
    let scoped = map.get_mut(scope).expect("scope just ensured");
    if !scoped.contains_key(name) {
        scoped.insert(name.to_owned(), make());
    }
    scoped.get_mut(name).expect("entry just ensured")
}

/// Read the entry at `(scope, name)` without creating it.
fn scoped_get<'m, T>(map: &'m Scoped<T>, scope: &str, name: &str) -> Option<&'m T> {
    map.get(scope).and_then(|scoped| scoped.get(name))
}

/// Iterate `((scope, name), entry)` in sorted key order.
fn scoped_iter<T>(map: &Scoped<T>) -> impl Iterator<Item = ((&str, &str), &T)> {
    map.iter().flat_map(|(scope, scoped)| {
        scoped
            .iter()
            .map(move |(name, v)| ((scope.as_str(), name.as_str()), v))
    })
}

/// Index of a counter in [`StatsRegistry`]'s counter storage.
#[derive(Clone, Copy, Debug)]
struct CounterId(u32);

/// One call site's handle on a counter: resolved by name on the site's
/// first use, then a plain index into the registry. Per-frame sites keep
/// one in their component and bump through
/// [`StatsRegistry::counter_by`]; the counter is still created (and
/// appears in [`StatsRegistry::counters`]) exactly when it first moves.
///
/// A handle belongs to the registry that resolved it — a component lives
/// in one simulation, so its handles do too.
#[derive(Default, Debug, Clone, Copy)]
pub struct CounterHandle(Option<CounterId>);

/// Registry of all metrics, keyed by `(scope, name)`.
///
/// Counters live in one `Vec`, indexed through a two-level name index
/// (`scope → name → id`): cold paths look them up by name with a pair
/// of `&str` lookups and **zero allocations** once the counter exists,
/// and per-frame paths skip the lookup entirely through a
/// [`CounterHandle`]. Gauges use the same borrowed-key two-level map.
///
/// Every mutable accessor bumps a [change count](Self::changes); reads
/// never do. An observer that sees the count unchanged knows no metric
/// was touched in between.
#[derive(Default)]
pub struct StatsRegistry {
    counter_index: Scoped<CounterId>,
    counters: Vec<Counter>,
    gauges: Scoped<Gauge>,
    changes: u64,
}

impl StatsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many times a mutable accessor ([`counter`](Self::counter),
    /// [`counter_by`](Self::counter_by), [`gauge`](Self::gauge)) was
    /// called. Equal counts at two instants mean every counter and gauge
    /// is unchanged.
    pub fn changes(&self) -> u64 {
        self.changes
    }

    /// The id of the counter `(scope, name)`, creating it at zero.
    fn intern(&mut self, scope: &str, name: &str) -> CounterId {
        let counters = &mut self.counters;
        *scoped_entry(&mut self.counter_index, scope, name, || {
            let id = u32::try_from(counters.len()).expect("fewer than 2^32 counters");
            counters.push(Counter::default());
            CounterId(id)
        })
    }

    /// Fetch or create a counter. Allocation-free after the counter's
    /// first use.
    pub fn counter(&mut self, scope: &str, name: &str) -> &mut Counter {
        self.changes += 1;
        let id = self.intern(scope, name);
        &mut self.counters[id.0 as usize]
    }

    /// Fetch or create a counter through a call site's `handle`. The
    /// name is looked up only on the handle's first use; afterwards
    /// `(scope, name)` are ignored and the counter is one index away.
    pub fn counter_by(
        &mut self,
        handle: &mut CounterHandle,
        scope: &str,
        name: &str,
    ) -> &mut Counter {
        self.changes += 1;
        let id = match handle.0 {
            Some(id) => id,
            None => *handle.0.insert(self.intern(scope, name)),
        };
        &mut self.counters[id.0 as usize]
    }

    /// Fetch or create a gauge. Allocation-free after the gauge's first
    /// use.
    pub fn gauge(&mut self, scope: &str, name: &str) -> &mut Gauge {
        self.changes += 1;
        scoped_entry(&mut self.gauges, scope, name, Gauge::default)
    }

    /// Read a counter value if it exists.
    pub fn counter_value(&self, scope: &str, name: &str) -> Option<u64> {
        scoped_get(&self.counter_index, scope, name).map(|id| self.counters[id.0 as usize].get())
    }

    /// Read a gauge value if it exists.
    pub fn gauge_value(&self, scope: &str, name: &str) -> Option<f64> {
        scoped_get(&self.gauges, scope, name).map(Gauge::get)
    }

    /// Read a gauge's maximum-ever value if it exists.
    pub fn gauge_max(&self, scope: &str, name: &str) -> Option<f64> {
        scoped_get(&self.gauges, scope, name).map(Gauge::max)
    }

    /// Iterate all counters in deterministic (sorted key) order.
    pub fn counters(&self) -> impl Iterator<Item = ((&str, &str), u64)> {
        scoped_iter(&self.counter_index).map(|(key, id)| (key, self.counters[id.0 as usize].get()))
    }

    /// Render every metric as a sorted text block (debugging, goldens).
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for ((scope, name), v) in self.counters() {
            let _ = writeln!(out, "counter {scope}.{name} = {v}");
        }
        for ((scope, name), g) in scoped_iter(&self.gauges) {
            let _ = writeln!(
                out,
                "gauge   {scope}.{name} = {} (max {})",
                g.get(),
                g.max()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut reg = StatsRegistry::new();
        reg.counter("nic0", "frames_tx").inc();
        reg.counter("nic0", "frames_tx").add(4);
        assert_eq!(reg.counter_value("nic0", "frames_tx"), Some(5));
        assert_eq!(reg.counter_value("nic0", "missing"), None);
    }

    #[test]
    fn counter_saturates_instead_of_overflowing() {
        // Regression: `inc`/`add` used unchecked `+=`, so a long soak
        // that pushed a counter past u64::MAX panicked in debug builds.
        let mut c = Counter::default();
        c.add(u64::MAX - 1);
        c.inc();
        assert_eq!(c.get(), u64::MAX);
        c.inc();
        assert_eq!(c.get(), u64::MAX, "inc saturates at the ceiling");
        c.add(1 << 40);
        assert_eq!(c.get(), u64::MAX, "add saturates at the ceiling");
    }

    #[test]
    fn counters_iterate_sorted_by_scope_then_name() {
        let mut reg = StatsRegistry::new();
        reg.counter("b", "y").inc();
        reg.counter("a", "z").inc();
        reg.counter("a", "x").add(2);
        let keys: Vec<(&str, &str)> = reg.counters().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![("a", "x"), ("a", "z"), ("b", "y")]);
    }

    #[test]
    fn gauge_tracks_max() {
        let mut reg = StatsRegistry::new();
        let g = reg.gauge("switch", "queue_depth");
        g.set(3.0);
        g.set(10.0);
        g.set(2.0);
        assert_eq!(g.get(), 2.0);
        assert_eq!(g.max(), 10.0);
    }

    #[test]
    fn gauge_max_of_negative_values_is_negative() {
        // Regression: `max_seen` used to default to 0.0, so a gauge
        // that only ever held negative values reported max 0.0.
        let mut reg = StatsRegistry::new();
        let g = reg.gauge("host", "clock_skew");
        g.set(-5.0);
        g.set(-2.0);
        g.set(-9.0);
        assert_eq!(g.get(), -9.0);
        assert_eq!(g.max(), -2.0);
    }

    #[test]
    fn every_mutable_accessor_moves_the_change_count() {
        let mut reg = StatsRegistry::new();
        let mut handle = CounterHandle::default();
        let mut last = reg.changes();
        let mut moved = |reg: &StatsRegistry, what: &str| {
            assert!(reg.changes() > last, "{what} must move the change count");
            last = reg.changes();
        };
        reg.counter("nic0", "frames_tx").inc();
        moved(&reg, "counter (create)");
        reg.counter("nic0", "frames_tx").inc();
        moved(&reg, "counter (existing)");
        reg.counter_by(&mut handle, "nic0", "frames_rx").inc();
        moved(&reg, "counter_by (resolving)");
        reg.counter_by(&mut handle, "nic0", "frames_rx").add(3);
        moved(&reg, "counter_by (resolved)");
        reg.gauge("nic0", "depth").set(1.0);
        moved(&reg, "gauge (create)");
        reg.gauge("nic0", "depth").set(1.0);
        moved(&reg, "gauge (existing)");
    }

    #[test]
    fn reads_neither_move_the_change_count_nor_create_entries() {
        let mut reg = StatsRegistry::new();
        reg.counter("nic0", "frames_tx").inc();
        reg.gauge("nic0", "depth").set(2.0);
        let before = reg.changes();
        let dump = reg.dump();
        for scope in ["nic0", "nic1"] {
            for name in ["frames_tx", "depth", "missing"] {
                let _ = reg.counter_value(scope, name);
                let _ = reg.gauge_value(scope, name);
                let _ = reg.gauge_max(scope, name);
            }
        }
        assert_eq!(reg.counters().count(), 1);
        assert_eq!(reg.counter_value("nic1", "frames_tx"), None);
        assert_eq!(reg.gauge_value("nic0", "frames_tx"), None);
        assert_eq!(
            reg.changes(),
            before,
            "reads must not move the change count"
        );
        assert_eq!(reg.dump(), dump, "reads must not create entries");
    }

    #[test]
    fn handle_counters_match_string_counters() {
        let mut by_name = StatsRegistry::new();
        let mut by_handle = StatsRegistry::new();
        let (mut fwd, mut frames_in) = (CounterHandle::default(), CounterHandle::default());
        for _ in 0..3 {
            by_name.counter("sw1", "frames_in").inc();
            by_handle
                .counter_by(&mut frames_in, "sw1", "frames_in")
                .inc();
        }
        by_name.counter("sw0", "frames_fwd").add(2);
        by_handle.counter_by(&mut fwd, "sw0", "frames_fwd").add(2);
        // A cold string-path bump lands on the handle's counter.
        by_name.counter("sw1", "frames_in").inc();
        by_handle.counter("sw1", "frames_in").inc();
        assert_eq!(by_handle.counter_value("sw1", "frames_in"), Some(4));
        assert_eq!(
            by_handle.counters().collect::<Vec<_>>(),
            by_name.counters().collect::<Vec<_>>()
        );
        assert_eq!(by_handle.dump(), by_name.dump());
        // An unused handle creates nothing.
        let _unused = CounterHandle::default();
        assert_eq!(by_handle.counters().count(), 2);
    }

    #[test]
    fn dump_is_deterministic_and_sorted() {
        let mut reg = StatsRegistry::new();
        reg.counter("b", "x").inc();
        reg.counter("a", "y").add(2);
        let d = reg.dump();
        let a_pos = d.find("a.y").unwrap();
        let b_pos = d.find("b.x").unwrap();
        assert!(a_pos < b_pos);
    }
}
