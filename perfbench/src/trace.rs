//! In-memory span recorder for the traced run.
//!
//! The benchmark opens one span around each call it makes into a layer,
//! plus its own step spans (`setup`, `job`, `map`, `check`, `simulate`).
//! Names are `/`-separated paths from the workload root, as in
//! `paper8/job/map/portfolio.solve`; the leaf of a layer-call span is
//! `<crate>.<call>`. Each span carries its job id and its parent. With
//! tracing off every method returns at once.

use std::io::Write;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub job: Option<u64>,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// The last path component, e.g. `noc-sim.run`.
    pub fn leaf(&self) -> &str {
        self.name.rsplit('/').next().unwrap_or(&self.name)
    }

    /// The crate a layer-call span enters (`noc-sim` for `noc-sim.run`);
    /// `None` for the benchmark's own step spans.
    pub fn layer(&self) -> Option<&str> {
        self.leaf().split_once('.').map(|(layer, _)| layer)
    }

    pub fn interval(&self) -> (u64, u64) {
        (self.start_ns, self.end_ns)
    }

    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    on: bool,
    root: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder rooted at `root` (the workload name).
    pub fn new(on: bool, root: &str) -> Self {
        Tracer {
            on,
            root: root.to_string(),
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switch recording on or off between jobs (never inside a span).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "tracing toggled inside a span");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a child of the innermost open span.
    pub fn enter(&mut self, leaf: &str, job: Option<u64>) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied();
        let (prefix, parent_job) = match parent {
            Some(p) => (&self.spans[p].name, self.spans[p].job),
            None => (&self.root, None),
        };
        let name = format!("{prefix}/{leaf}");
        let job = job.or(parent_job);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            job,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        let idx = self.open.pop().expect("exit matches an enter");
        self.spans[idx].end_ns = end;
    }

    /// Close every open span, including any a panic left open.
    pub fn close_all(&mut self) {
        while !self.open.is_empty() {
            self.exit();
        }
    }

    /// Run `f` inside a span named `leaf`.
    pub fn call<T>(&mut self, leaf: &str, f: impl FnOnce() -> T) -> T {
        self.enter(leaf, None);
        let out = f();
        self.exit();
        out
    }

    /// Every recorded span, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as JSON lines.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let job = s.job.map_or("null".to_string(), |j| j.to_string());
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"job\":{job},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_by_path_and_inherit_the_job() {
        let mut t = Tracer::new(true, "paper8");
        t.enter("job", Some(3));
        t.enter("map", None);
        t.call("obm-core.sss", || ());
        t.exit();
        t.exit();
        let names: Vec<&str> = t.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "paper8/job",
                "paper8/job/map",
                "paper8/job/map/obm-core.sss"
            ]
        );
        let leaf = &t.spans()[2];
        assert_eq!(leaf.job, Some(3));
        assert_eq!(leaf.parent, Some(1));
        assert_eq!(leaf.layer(), Some("obm-core"));
        assert_eq!(t.spans()[1].layer(), None);
        assert!(leaf.start_ns >= t.spans()[1].start_ns && leaf.end_ns <= t.spans()[1].end_ns);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false, "paper8");
        t.enter("job", Some(0));
        assert_eq!(t.call("noc-sim.run", || 7), 7);
        t.exit();
        assert!(t.spans().is_empty());
    }
}
