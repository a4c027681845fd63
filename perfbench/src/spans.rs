//! In-memory spans for the traced run, written out when the run ends.
//!
//! A span is a name, a start and an end (ns since the tracer's epoch), the
//! span that caused it (0 for a root) and the wire request id it belongs to
//! (0 when none). Spans are recorded from the benchmark's own code around
//! its calls into each layer; nothing inside the program is instrumented.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: usize,
    pub request: u64,
}

/// A span recorder; disabled recorders keep nothing.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, on: bool) -> Tracer {
        Tracer { epoch, on, spans: Vec::new() }
    }

    /// Records a span and returns its id (1-based; 0 when disabled).
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: usize,
        request: u64,
    ) -> usize {
        if !self.on {
            return 0;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span { name, start_ns: ns(start), end_ns: ns(end), parent, request });
        self.spans.len()
    }

    /// Sets the end of a span recorded before its end was known.
    pub fn close(&mut self, id: usize, end: Instant) {
        if id > 0 {
            self.spans[id - 1].end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        }
    }

    /// Appends another tracer's spans, re-basing their parent ids.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != 0 {
                s.parent += base;
            }
            s
        }));
    }

    /// Writes the spans as tab-separated lines:
    /// `id parent request name start_ns end_ns`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                i + 1,
                s.parent,
                s.request,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_nest_and_merge() {
        let t0 = Instant::now();
        let at = |us| t0 + Duration::from_micros(us);
        let mut a = Tracer::new(t0, true);
        let root = a.span("window", at(0), at(100), 0, 0);
        a.span("load.batch", at(10), at(30), root, 7);
        let mut b = Tracer::new(t0, true);
        let probe = b.span("probe", at(5), at(50), 0, 9);
        b.span("probe.push", at(5), at(20), probe, 9);
        a.absorb(b);
        assert_eq!(a.spans.len(), 4);
        assert_eq!(a.spans[3].parent, 3, "child re-based onto its merged parent");
        assert_eq!((a.spans[1].start_ns, a.spans[1].end_ns), (10_000, 30_000));
        let mut off = Tracer::new(t0, false);
        assert_eq!(off.span("x", at(0), at(1), 0, 0), 0);
        assert!(off.spans.is_empty());
    }
}
