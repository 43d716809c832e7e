//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a layer: name, start, end, the span
//! that was open when it began (its parent) and the operation it belongs
//! to. Spans are recorded by the benchmark around the engine's public
//! calls, kept in memory, and written once when the run ends. A layer's
//! self time is its spans' duration minus the part their child spans
//! cover. With the recorder off every call is a no-op, so the untraced
//! run pays only a branch per call site.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u64,
    /// Work items the span covered (e.g. geometry tests in one call).
    pub count: u64,
}

impl Span {
    pub fn ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Switch recording on or off (the traced run leaves every other
    /// repetition untraced, for the tracing overhead).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "spans still open");
        self.on = on;
    }

    /// Start the next operation: spans begun from now on share its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; returns the nesting depth to restore with
    /// [`close_to`](Tracer::close_to) after a caught panic.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let depth = self.open.len();
        if self.on {
            let start_ns = self.now_ns();
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
                op: self.op,
                count: 0,
            });
            self.open.push((self.spans.len() - 1) as u32);
        }
        depth
    }

    /// Close the innermost open span, recording `count` work items.
    pub fn end_with(&mut self, count: u64) {
        if self.on {
            let end_ns = self.now_ns();
            let i = self.open.pop().expect("end() without begin()") as usize;
            self.spans[i].end_ns = end_ns;
            self.spans[i].count = count;
        }
    }

    pub fn end(&mut self) {
        self.end_with(0);
    }

    /// Close spans left open by an operation that panicked.
    pub fn close_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.end();
        }
    }

    /// Time `f` as one leaf span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let r = f();
        self.end();
        r
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ns of every span named `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.named(name).map(Span::ns).collect()
    }

    /// Total duration (ns) and total count of the spans named `name`.
    pub fn totals(&self, name: &str) -> (f64, u64) {
        self.named(name)
            .fold((0.0, 0), |(t, c), s| (t + s.ns(), c + s.count))
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    fn child_ns(&self) -> Vec<f64> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p as usize] += s.ns();
            }
        }
        child
    }

    /// Self time in ns per layer, where a span's layer is its name up to
    /// the last dot (`core.query.filter` → `core.query`).
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let child = self.child_ns();
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            let layer = s.name.rsplit_once('.').map_or(s.name, |(l, _)| l);
            *out.entry(layer).or_insert(0.0) += (s.ns() - c).max(0.0);
        }
        out
    }

    /// Share of the operations' time that no layer span accounts for:
    /// the self time of the root `op.*` spans over their duration.
    pub fn unaccounted_share(&self) -> f64 {
        let child = self.child_ns();
        let (mut own, mut total) = (0.0, 0.0);
        for (s, c) in self.spans.iter().zip(child) {
            if s.parent.is_none() && s.name.starts_with("op.") {
                own += (s.ns() - c).max(0.0);
                total += s.ns();
            }
        }
        if total > 0.0 {
            own / total
        } else {
            0.0
        }
    }

    /// Write every span as one tab-separated line.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tname\top\tparent\tstart_ns\tend_ns\tcount")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, i64::from);
            writeln!(
                w,
                "{i}\t{}\t{}\t{parent}\t{}\t{}\t{}",
                s.name, s.op, s.start_ns, s.end_ns, s.count
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.next_op();
        t.begin("op.window");
        t.time("core.query.filter", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end();
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 1);
        let by_layer = t.self_ns_by_layer();
        assert!(by_layer["core.query"] >= 2e6);
        assert!(by_layer["op"] < spans[0].ns());
        assert!(t.unaccounted_share() < 1.0);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let d = t.begin("op.window");
        t.begin("x");
        t.close_to(d);
        assert!(t.spans().is_empty());
    }
}
