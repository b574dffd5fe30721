//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions; nothing inside the program under test is
//! instrumented. Recording only pushes to a vector, and the spans are
//! written out once, when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Spans of one request share this id.
    pub request: u64,
}

/// Span recorder; a disabled recorder records nothing and costs nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Records a span over `[start, end]` and returns its index (`None`
    /// when tracing is off).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Share of the total time of the spans named `root` that their direct
    /// children cover (`None` without such spans).
    pub fn child_coverage(&self, root: &str) -> Option<f64> {
        let is_root = |i: usize| self.spans[i].name == root;
        let len = |s: &Span| s.end_ns.saturating_sub(s.start_ns) as f64;
        let total: f64 = self.spans.iter().filter(|s| s.name == root).map(len).sum();
        let covered: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_some_and(is_root))
            .map(len)
            .sum();
        (total > 0.0).then(|| covered / total)
    }

    /// The spans as a JSON array, one span per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}{sep}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.record("x", now, now, None, 1), None);
        assert_eq!(t.len(), 0);
        assert_eq!(t.to_json(), "[\n]");
    }

    #[test]
    fn spans_keep_parent_and_request() {
        let mut t = Tracer::new(true);
        let a = Instant::now();
        let b = Instant::now();
        let root = t.record("request", a, b, None, 7);
        let child = t.record("layer", a, b, root, 7);
        assert_eq!((root, child), (Some(0), Some(1)));
        let json = t.to_json();
        assert!(json.contains("\"name\": \"layer\""));
        assert!(json.contains("\"parent\": 0, \"request\": 7"));
    }

    #[test]
    fn child_coverage_is_the_share_of_root_time_in_children() {
        let mut t = Tracer::new(true);
        let at = |ms: u64| t.origin + std::time::Duration::from_millis(ms);
        let (a, b, c, d) = (at(10), at(20), at(26), at(30));
        let root = t.record("serve.request", a, d, None, 1);
        t.record("serve.queue", b, c, root, 1);
        t.record("serve.service", c, d, root, 1);
        t.record("other", a, d, None, 2);
        let share = t.child_coverage("serve.request").unwrap();
        assert!((share - 0.5).abs() < 1e-12, "{share}");
        assert_eq!(t.child_coverage("missing"), None);
    }
}
