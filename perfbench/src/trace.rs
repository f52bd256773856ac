//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's side of each call into a layer:
//! name, start, end, parent span and the solve or request they belong to.
//! They stay in memory until the run ends, then go out as Chrome trace-event
//! JSON, which Perfetto and `chrome://tracing` open.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub id: u64,
}

/// The recorder. Spans nest strictly: `end` closes the innermost open span.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    id: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            id: 0,
        }
    }

    /// Tags the spans opened from now on with solve/request `id`.
    pub fn set_id(&mut self, id: u64) {
        self.id = id;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) -> usize {
        let index = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            id: self.id,
        });
        self.open.push(index);
        index
    }

    /// Closes span `index`, which must be the innermost open span, and
    /// returns its duration in nanoseconds.
    pub fn end(&mut self, index: usize) -> u64 {
        let top = self.open.pop();
        assert_eq!(top, Some(index), "spans must close innermost first");
        let end = self.now();
        let span = &mut self.spans[index];
        span.end = end;
        end - span.start
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: span durations minus the part of them that
    /// child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start, span.end));
            }
        }
        let mut layers: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (span, kids) in self.spans.iter().zip(&mut children) {
            let covered = covered_ns(kids, span.start, span.end);
            *layers.entry(span.name).or_default() += (span.end - span.start) - covered;
        }
        layers
    }

    /// Writes every span as a Chrome trace-event `X` (complete) event.
    pub fn write_chrome(&self, path: &Path) -> io::Result<()> {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (index, span) in self.spans.iter().enumerate() {
            if index > 0 {
                out.push_str(",\n");
            }
            let parent = span.parent.map_or(-1, |p| p as i64);
            write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"span\":{index},\"parent\":{parent},\"id\":{}}}}}",
                span.name,
                span.start as f64 / 1e3,
                (span.end - span.start) as f64 / 1e3,
                span.id
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Length of the union of `intervals`, clipped to `[start, end)`.
fn covered_ns(intervals: &mut [(u64, u64)], start: u64, end: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let s = s.max(reach);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let wall = Instant::now();
        let mut t = Tracer::new();
        let root = t.begin("root");
        let child = t.begin("child");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(child);
        t.end(root);
        let layers = t.self_times();
        let root_ns = t.spans()[0].end - t.spans()[0].start;
        assert_eq!(root_ns, layers["root"] + layers["child"]);
        assert!(layers["child"] >= 2_000_000);
        assert!(root_ns <= wall.elapsed().as_nanos() as u64);
    }

    #[test]
    fn union_of_overlapping_intervals() {
        let mut iv = [(5, 8), (0, 3), (2, 4)];
        assert_eq!(covered_ns(&mut iv, 0, 10), 7);
        assert_eq!(covered_ns(&mut iv, 1, 6), 4);
    }
}
