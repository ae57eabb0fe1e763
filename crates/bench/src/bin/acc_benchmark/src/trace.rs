//! In-memory span recording for the traced phase.
//!
//! Spans are opened and closed around calls into each layer by the
//! benchmark's own code, kept in a `Vec`, and written once at exit as
//! Chrome trace-event JSON (complete `"ph": "X"` events, which Perfetto
//! and `chrome://tracing` load). Each event carries its span id and its
//! parent's id in `args`, so the tree survives the export.

use std::time::Instant;

use crate::json;

/// One closed (or still open) span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Dotted name; the part before the first dot is the layer.
    pub name: String,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 while open).
    pub dur_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Records a tree of spans on one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("trace shorter than 584 years")
    }

    /// Run `f` inside a span named `name`, nested under the span open
    /// at the time of the call.
    pub fn span<R>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            dur_ns: 0,
            parent,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].dur_ns = self.now_ns() - start_ns;
        out
    }

    /// Durations (ns) of every span called `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64)
            .collect()
    }

    /// Per span: its duration minus the time its direct children
    /// cover. Children on one thread run one after another inside
    /// their parent, so the part they cover is the sum of their
    /// durations.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns;
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.dur_ns - c)
            .collect()
    }

    /// The spans as a Chrome trace-event document.
    pub fn to_chrome_json(&self) -> String {
        let self_ns = self.self_ns();
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let layer = s.name.split('.').next().unwrap_or(&s.name);
            let parent = s.parent.map_or(-1, |p| p as i64);
            out.push_str(&format!(
                "{{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
                 \"ts\": {}, \"dur\": {}, \"args\": {{\"id\": {i}, \"parent\": {parent}, \
                 \"self_us\": {}}}}}{}\n",
                json::quote(&s.name),
                json::quote(layer),
                json::number(s.start_ns as f64 / 1e3),
                json::number(s.dur_ns as f64 / 1e3),
                json::number(self_ns[i] as f64 / 1e3),
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    fn spin(n: u64) -> u64 {
        (0..n).fold(0u64, |a, b| black_box(a.wrapping_add(b)))
    }

    fn sample_tree() -> Tracer {
        let mut t = Tracer::new();
        t.span("core.pass", |t| {
            t.span("core.cell.a", |t| {
                spin(10_000);
                t.span("algos.inner", |_| spin(10_000));
            });
            spin(5_000);
            t.span("core.cell.b", |_| spin(10_000));
        });
        t.span("net.route", |_| spin(1_000));
        t
    }

    #[test]
    fn spans_are_well_nested() {
        let t = sample_tree();
        let spans = &t.spans;
        assert_eq!(spans.len(), 5);
        for s in spans {
            if let Some(p) = s.parent {
                let parent = &spans[p];
                assert!(s.start_ns >= parent.start_ns, "{} starts early", s.name);
                assert!(
                    s.start_ns + s.dur_ns <= parent.start_ns + parent.dur_ns,
                    "{} outlives {}",
                    s.name,
                    parent.name
                );
            }
        }
        // Siblings do not overlap.
        let (a, b) = (&spans[1], &spans[3]);
        assert_eq!((a.parent, b.parent), (Some(0), Some(0)));
        assert!(a.start_ns + a.dur_ns <= b.start_ns);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[4].parent, None);
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let t = sample_tree();
        let spans = &t.spans;
        let self_ns = t.self_ns();
        assert_eq!(
            self_ns[0],
            spans[0].dur_ns - spans[1].dur_ns - spans[3].dur_ns
        );
        assert_eq!(self_ns[1], spans[1].dur_ns - spans[2].dur_ns);
        for leaf in [2, 3, 4] {
            assert_eq!(self_ns[leaf], spans[leaf].dur_ns);
        }
        let total_self: u64 = self_ns[..4].iter().sum();
        assert_eq!(total_self, spans[0].dur_ns, "self times partition the root");
    }

    #[test]
    fn chrome_export_is_loadable_json() {
        let t = sample_tree();
        let doc = json::parse(&t.to_chrome_json()).expect("trace is valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(json::Json::as_array)
            .expect("traceEvents array");
        assert_eq!(events.len(), 5);
        for e in events {
            assert_eq!(e.get("ph").and_then(json::Json::as_str), Some("X"));
            assert!(e.get("args").and_then(|a| a.get("parent")).is_some());
        }
        assert_eq!(
            events[2].get("cat").and_then(json::Json::as_str),
            Some("algos")
        );
    }
}
