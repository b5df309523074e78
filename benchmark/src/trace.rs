//! Client-side spans, recorded from the benchmark's own files around the
//! calls into each layer: kept in memory, written out once at exit.

use std::io::Write;
use std::path::Path;

/// One request in this many is traced (`submit` and `inflight` spans).
pub const SAMPLE_EVERY: u64 = 64;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Spans of one request share this identifier; 0 when not a request.
    pub req: u64,
}

/// An in-memory span sink; disabled, `push` is one untaken branch.
#[derive(Debug, Default)]
pub struct Tracer {
    pub enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            spans: Vec::new(),
        }
    }

    /// Record a span and return its id (0 when disabled).
    pub fn push(&mut self, parent: u64, name: &'static str, start: u64, end: u64, req: u64) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            req,
        });
        id
    }

    /// Set the end of a span that was pushed open (a request's root span,
    /// closed when its reply arrives).
    pub fn close(&mut self, id: u64, end: u64) {
        if let Some(span) = (id as usize)
            .checked_sub(1)
            .and_then(|i| self.spans.get_mut(i))
        {
            span.end_ns = end;
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// One JSON object per line; replaces any previous trace of the workload.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"req\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}
