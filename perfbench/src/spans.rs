//! Benchmark-side spans: a name, a start, an end and a parent, kept in
//! memory and written out once when the traced run ends.
//!
//! A span's self time is its duration minus the part of its interval
//! that its child spans cover (overlapping children are counted once).

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`SpanLog`].
pub type SpanId = usize;

/// One recorded interval, in nanoseconds since the log's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An append-only list of spans sharing one wall-clock epoch.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`SpanLog::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.push(name, parent, start_ns, start_ns)
    }

    /// Closes a span opened by [`SpanLog::begin`].
    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Appends a span with explicit bounds (tests, or intervals timed
    /// elsewhere).
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the union of its
    /// direct children's intervals, clipped to its own.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(cursor);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                s.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Sum of the self times of every span called `name`, in seconds.
    pub fn self_secs(&self, name: &str) -> f64 {
        let selfs = self.self_times_ns();
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns)
            .sum::<u64>() as f64
            / 1e9
    }

    /// How many spans are called `name`.
    #[cfg(test)]
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// The whole log as JSON, one object per span.
    pub fn to_json(&self) -> String {
        let selfs = self.self_times_ns();
        let mut out = String::from("[\n");
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"self_ns\": {self_ns}}}",
                s.name, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut log = SpanLog::new();
        let root = log.push("root", None, 0, 100);
        let a = log.push("a", Some(root), 10, 40);
        log.push("a.inner", Some(a), 15, 25);
        log.push("b", Some(root), 50, 60);
        let selfs = log.self_times_ns();
        assert_eq!(selfs, vec![60, 20, 10, 10]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(selfs.iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let mut log = SpanLog::new();
        let root = log.push("root", None, 0, 100);
        log.push("x", Some(root), 10, 50);
        log.push("y", Some(root), 30, 70);
        log.push("z", Some(root), 90, 130); // runs past the parent's end
        assert_eq!(log.self_times_ns()[0], 100 - 60 - 10);
    }

    #[test]
    fn self_secs_sums_spans_by_name() {
        let mut log = SpanLog::new();
        let root = log.push("replay", None, 0, 1_000_000_000);
        log.push("flush", Some(root), 0, 250_000_000);
        log.push("flush", Some(root), 500_000_000, 750_000_000);
        assert!((log.self_secs("flush") - 0.5).abs() < 1e-12);
        assert!((log.self_secs("replay") - 0.5).abs() < 1e-12);
        assert_eq!(log.count("flush"), 2);
        assert_eq!(log.self_secs("absent"), 0.0);
    }

    #[test]
    fn live_spans_nest_in_time() {
        let mut log = SpanLog::new();
        let outer = log.begin("outer", None);
        let v = log.time("inner", Some(outer), || std::hint::black_box(41) + 1);
        log.end(outer);
        assert_eq!(v, 42);
        let s = log.spans();
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert!(log.to_json().contains("\"name\": \"inner\", \"parent\": 0"));
    }
}
