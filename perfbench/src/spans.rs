//! In-memory span log: every span the traced run records is kept here and
//! written out once, when the run ends.

use std::io::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Layer-qualified name, e.g. `dataflow.forward`.
    pub name: &'static str,
    /// Start, microseconds since the log's origin.
    pub start_us: u64,
    /// End, microseconds since the log's origin (equal to `start_us`
    /// while open).
    pub end_us: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Query the span belongs to (`u64::MAX` for set-up spans).
    pub query: u64,
}

impl SpanRec {
    /// Duration in microseconds.
    pub fn micros(&self) -> u64 {
        self.end_us - self.start_us
    }
}

/// Marker for set-up spans, which belong to no query.
pub const NO_QUERY: u64 = u64::MAX;

/// An append-only span log. A disabled log records nothing and costs one
/// branch per call, so untraced code paths can share the traced ones.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    enabled: bool,
    spans: Vec<SpanRec>,
}

impl SpanLog {
    /// A log; `enabled = false` gives the no-op log.
    pub fn new(enabled: bool) -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Opens a span and returns its id (meaningless when disabled).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, query: u64) -> usize {
        if !self.enabled {
            return 0;
        }
        let now = self.now_us();
        self.spans.push(SpanRec {
            name,
            start_us: now,
            end_us: now,
            parent,
            query,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: usize) {
        if self.enabled {
            self.spans[id].end_us = self.now_us();
        }
    }

    /// All recorded spans, in opening order.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Writes the log as JSON lines.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of the failed create or write.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let query = if s.query == NO_QUERY {
                "null".to_string()
            } else {
                s.query.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{parent},\"query\":{query}}}",
                s.name, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close() {
        let mut log = SpanLog::new(true);
        let root = log.open("core.solve", None, 0);
        let kid = log.open("dataflow.forward", Some(root), 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        log.close(kid);
        log.close(root);
        let spans = log.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[1].micros() >= 2000);
        assert!(spans[0].micros() >= spans[1].micros());
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(false);
        let id = log.open("x", None, 0);
        log.close(id);
        assert!(log.spans().is_empty());
    }
}
