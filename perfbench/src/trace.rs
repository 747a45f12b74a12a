//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around the public calls each
//! layer exposes (nothing inside the simulator is instrumented). A
//! span's layer is its name up to the first `.`, so `delta.run` belongs
//! to `delta`. Spans are kept in memory and written out once, when the
//! run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval.
#[derive(Debug)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created; 0 while open.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The job the span belongs to.
    pub job: usize,
    /// The traced pass the span belongs to.
    pub pass: usize,
}

impl Span {
    /// The layer: the name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans against one clock.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: usize,
    pass: usize,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
            pass: 0,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Tags the spans opened from now on.
    pub fn set_context(&mut self, pass: usize, job: usize) {
        self.pass = pass;
        self.job = job;
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            job: self.job,
            pass: self.pass,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        let now = self.now_ns();
        let i = self.open.pop().expect("close without a matching open");
        self.spans[i].end_ns = now;
    }

    /// Closes every span opened since `depth` spans were open — the
    /// recovery after a traced call panicked inside its span.
    pub fn close_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.close();
        }
    }

    /// Number of open spans.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    /// Per-name inclusive seconds and per-layer self seconds of one
    /// pass. A span's self time is its duration minus its children's.
    pub fn totals(
        &self,
        pass: usize,
    ) -> (BTreeMap<&'static str, f64>, BTreeMap<&'static str, f64>) {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in self.spans.iter().filter(|s| s.pass == pass) {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut inclusive = BTreeMap::new();
        let mut own = BTreeMap::new();
        for (i, s) in self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.pass == pass)
        {
            *inclusive.entry(s.name).or_insert(0.0) += s.duration_ns() as f64 * 1e-9;
            *own.entry(s.layer()).or_insert(0.0) +=
                s.duration_ns().saturating_sub(child_ns[i]) as f64 * 1e-9;
        }
        (inclusive, own)
    }

    /// All spans as a JSON array, one object per line.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\": \"{}\", \"pass\": {}, \"job\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                    s.name, s.pass, s.job, s.start_ns, s.end_ns
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        t.open("harness.job");
        t.span("delta.run", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.close();
        let (inclusive, own) = t.totals(0);
        let job = inclusive["harness.job"];
        let run = inclusive["delta.run"];
        assert!(run >= 0.005 && job >= run);
        assert!((own["harness"] - (job - run)).abs() < 1e-9);
        assert!((own["delta"] - run).abs() < 1e-9);
        assert_eq!(t.spans[1].parent, Some(0));
    }
}
