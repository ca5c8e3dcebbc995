//! In-memory spans recorded by the benchmark around its calls into
//! each layer. Spans of one document share its id; a span's parent is
//! the span that caused it (the per-document rung span for a session
//! frame). Nothing is written until the run ends.

use std::io::Write;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Document id shared by every span of one document.
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
}

/// A span recorder. When disabled, `open` and `close` read no clock.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            enabled: false,
            origin,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its handle (`NO_PARENT` when disabled).
    pub fn open(&mut self, id: u32, name: &'static str, parent: u32) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, handle: u32) {
        if handle != NO_PARENT {
            let end = self.now_ns();
            self.spans[handle as usize].end_ns = end;
        }
    }

    /// Record a span whose times were taken elsewhere (the loopback
    /// generator stamps due, send and completion times on two threads).
    pub fn record(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total and self time per span name, in first-seen order. Self
    /// time is the span's duration minus the part its children cover;
    /// children of one parent run one after another, so their
    /// durations add up without overlap.
    pub fn totals(&self) -> Vec<(&'static str, u64, u64)> {
        let mut self_ns: Vec<i128> = self
            .spans
            .iter()
            .map(|s| i128::from(s.end_ns - s.start_ns))
            .collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                self_ns[s.parent as usize] -= i128::from(s.end_ns - s.start_ns);
            }
        }
        let mut out: Vec<(&'static str, u64, u64)> = Vec::new();
        for (s, own) in self.spans.iter().zip(self_ns) {
            let dur = s.end_ns - s.start_ns;
            let own = own.max(0) as u64;
            match out.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(row) => {
                    row.1 += dur;
                    row.2 += own;
                }
                None => out.push((s.name, dur, own)),
            }
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"span\":{i},\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}
