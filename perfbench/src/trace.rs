//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a layer: its name, start and end (ns
//! since the run's epoch), the span that caused it, and the request it
//! belongs to. Spans stay in memory while the workload runs and are
//! written out once, after the run. A span's self time is its duration
//! minus the time its child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::common::Samples;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
    pub thread: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's recorder. Threads record independently and are merged
/// with [`Trace::absorb`] after they are joined.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(epoch: Instant, thread: u32) -> Self {
        Self {
            epoch,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span; the innermost open span becomes its parent.
    pub fn open(&mut self, name: &'static str, request: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
            thread: self.thread,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span; returns
    /// its duration in ns.
    pub fn close(&mut self, id: usize) -> u64 {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        let span = &mut self.spans[id];
        span.end_ns = self.epoch.elapsed().as_nanos() as u64;
        span.dur_ns()
    }

    /// Times `f` as a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, request);
        let out = f();
        self.close(id);
        out
    }
}

/// Every span of a run, merged from the per-thread recorders.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    pub fn absorb(&mut self, rec: Recorder) {
        assert!(rec.open.is_empty(), "recorder still has open spans");
        let base = self.spans.len();
        self.spans.extend(rec.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span (duration minus its children's).
    fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Durations of the spans named `name`.
    pub fn durations(&self, name: &str) -> Samples {
        let mut out = Samples::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            out.push_ns(s.dur_ns());
        }
        out
    }

    /// Per-request difference `outer - inner` between the span named
    /// `outer` and the span named `inner` of the same request (each
    /// request is expected to carry one of each).
    pub fn difference(&self, outer: &str, inner: &str) -> Samples {
        let mut by_req: BTreeMap<(u32, u64), (Option<u64>, Option<u64>)> = BTreeMap::new();
        for s in &self.spans {
            let e = by_req.entry((s.thread, s.request)).or_default();
            if s.name == outer {
                e.0 = Some(s.dur_ns());
            } else if s.name == inner {
                e.1 = Some(s.dur_ns());
            }
        }
        let mut out = Samples::default();
        for (o, i) in by_req.into_values() {
            if let (Some(o), Some(i)) = (o, i) {
                out.push_ns(o.saturating_sub(i));
            }
        }
        out
    }

    /// One line per span name: count, median duration, median self time.
    pub fn summary(&self) -> Vec<String> {
        let selfs = self.self_ns();
        let mut by_name: BTreeMap<&str, (Samples, Samples)> = BTreeMap::new();
        for (s, &own) in self.spans.iter().zip(&selfs) {
            let e = by_name.entry(s.name).or_default();
            e.0.push_ns(s.dur_ns());
            e.1.push_ns(own);
        }
        by_name
            .into_iter()
            .map(|(name, (mut dur, mut own))| {
                format!(
                    "span {name:<28} n {:>7}  p50 {:>12.3} us  self p50 {:>12.3} us",
                    dur.len(),
                    dur.pct_us(50.0),
                    own.pct_us(50.0)
                )
            })
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let selfs = self.self_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, own)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}, \"parent\": {parent}, \"request\": {}, \"thread\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request, s.thread
            )?;
        }
        out.flush()
    }
}
