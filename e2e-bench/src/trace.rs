//! Spans recorded around the benchmark's calls into the program.
//!
//! A span has a name, a start, an end and the span that was open when
//! it began (its parent). Spans stay in memory; the per-layer report is
//! computed from them when the run ends. A span's self time is its
//! duration minus the time its children cover. Nothing here runs inside
//! the program: every span wraps a call to a public function.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer and operation, e.g. `fleet.drain`.
    pub name: &'static str,
    /// Seconds since the tracer's origin.
    pub start: f64,
    /// Seconds since the tracer's origin.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Span recorder. A disabled tracer records nothing and costs one branch
/// per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// What one span name accumulated.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub count: usize,
    /// Summed duration, seconds.
    pub total: f64,
    /// Summed self time, seconds.
    pub self_time: f64,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Open a span; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now();
        let i = self.open.pop().expect("end() without a matching begin()");
        self.spans[i].end = now;
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Durations, in seconds, of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_time = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.secs();
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total += s.secs();
            t.self_time += s.secs() - child_time[i];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(secs: f64) {
        let t = Instant::now();
        while t.elapsed().as_secs_f64() < secs {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new(true);
        tr.begin("root");
        tr.time("a", || spin(0.002));
        tr.time("b", || spin(0.003));
        spin(0.001);
        tr.end();
        let totals = tr.totals();
        let root = &totals["root"];
        let (a, b) = (&totals["a"], &totals["b"]);
        assert_eq!((root.count, a.count, b.count), (1, 1, 1));
        assert!((root.self_time - (root.total - a.total - b.total)).abs() < 1e-12);
        assert!(root.self_time >= 0.001 && root.self_time < root.total);
        // Leaves have no children: self time is their duration.
        assert_eq!(a.self_time, a.total);
        let self_sum: f64 = totals.values().map(|t| t.self_time).sum();
        assert!(
            (self_sum - root.total).abs() < 1e-12,
            "self times tile the root"
        );
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_runs_the_work() {
        let mut tr = Tracer::new(false);
        let v = tr.time("x", || 41 + 1);
        assert_eq!(v, 42);
        tr.begin("y");
        tr.end();
        assert!(tr.totals().is_empty());
    }

    #[test]
    fn durations_are_per_name() {
        let mut tr = Tracer::new(true);
        for _ in 0..3 {
            tr.time("d", || spin(0.0005));
        }
        tr.time("e", || ());
        assert_eq!(tr.durations("d").len(), 3);
        assert!(tr.durations("d").iter().all(|&d| d >= 0.0005));
        assert_eq!(tr.durations("e").len(), 1);
    }
}
