//! In-memory span recording for the traced benchmark run.
//!
//! A span has a name, start and end (nanoseconds since the recorder was
//! created), the id of the span that was open when it began, and the id of
//! the pair it belongs to. Spans are kept in memory and written out once, at
//! the end of the run, so recording costs two clock reads and a push.
//!
//! A span's *self time* is its duration minus the time covered by its
//! direct children; children never overlap because the traced walk is
//! single-threaded.

use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `qcec.functional.aligned`.
    pub name: String,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Pair (or chain) the span belongs to.
    pub pair: usize,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans around calls, or only runs them when disabled.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder; `enabled == false` makes [`span`](Self::span) a plain
    /// call, which is the untraced side of the overhead comparison.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for `pair`.
    pub fn span<T>(&mut self, name: &str, pair: usize, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            pair,
        });
        self.open.push(index);
        let value = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        value
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in nanoseconds, indexed like
    /// [`spans`](Self::spans).
    pub fn self_times(&self) -> Vec<u64> {
        let mut self_ns: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                self_ns[parent] = self_ns[parent].saturating_sub(span.duration_ns());
            }
        }
        self_ns
    }

    /// Writes the spans as JSON lines.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"pair\":{}}}",
                span.name, span.start_ns, span.end_ns, span.pair
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut recorder = Recorder::new(true);
        recorder.span("outer", 0, |r| {
            r.span("inner", 0, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let spans = recorder.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let self_ns = recorder.self_times();
        assert_eq!(self_ns[0] + spans[1].duration_ns(), spans[0].duration_ns());
        assert!(self_ns[1] >= 5_000_000);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut recorder = Recorder::new(false);
        assert_eq!(recorder.span("outer", 0, |_| 7), 7);
        assert!(recorder.spans().is_empty());
    }
}
