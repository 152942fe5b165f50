//! In-memory spans around every call the benchmark makes into a layer.
//!
//! Spans are recorded from the benchmark's own files, never from inside the
//! program; they are kept in memory and written as JSON lines when the run
//! ends. A layer's self time is its span minus the part its children cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.operation`, e.g. `vm.fault_in`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Benchmark round the span belongs to (the request identifier: all
    /// spans of one round share it).
    pub round: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. A disabled tracer records nothing and costs one branch
/// per call, so the untraced run shares the traced run's code path.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    round: u64,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            round: 0,
        }
    }

    /// Sets the round stamped on subsequent spans.
    pub fn set_round(&mut self, round: u64) {
        self.round = round;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under whichever span is
    /// open; `f` receives the tracer to open children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.timed(name, f).0
    }

    /// [`Tracer::span`] that also returns how many milliseconds `f` took —
    /// measured whether or not the tracer records, so a stage is timed the
    /// same way in traced and untraced runs.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let start_ns = self.now();
        let index = self.spans.len();
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.stack.last().copied(),
                round: self.round,
            });
            self.stack.push(index);
        }
        let out = f(self);
        let end_ns = self.now();
        if self.enabled {
            self.stack.pop();
            self.spans[index].end_ns = end_ns;
        }
        (out, (end_ns - start_ns) as f64 / 1e6)
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-span self time: duration minus the children's durations
    /// (children of one parent never overlap: the benchmark is one thread).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.ns());
            }
        }
        own
    }

    /// Writes one JSON object per span to `path`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the file cannot be written.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let own = self.self_ns();
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{parent},\"round\":{}}}",
                span.name, span.start_ns, span.end_ns, own[i], span.round
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new(true);
        t.set_round(3);
        t.span("outer", |t| {
            t.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("b", |t| t.span("c", |_| ()));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.round == 3));
        let own = t.self_ns();
        assert_eq!(own[0], spans[0].ns() - spans[1].ns() - spans[2].ns());
        assert!(own[1] >= 2_000_000);
    }

    #[test]
    fn a_disabled_tracer_records_nothing_but_still_times() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |t| t.span("y", |_| 5)), 5);
        let ((), ms) = t.timed("z", |_| {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert!(ms >= 2.0);
        assert!(t.spans().is_empty());
    }
}
