//! Spans around the calls the harness makes into each layer.  One root
//! span per op, one child per library or DSP call; kept in a preallocated
//! vector and written out after the window.  The untraced run uses
//! [`NoProbe`], which compiles to the bare calls.

use std::io::Write;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    Op,
    GetTimeCall,
    PlayCall,
    RecordCall,
    Decode,
    Resample,
    Pack,
}

impl SpanKind {
    /// The child kinds, each reported as `<name>_us`.
    pub const CHILDREN: [SpanKind; 6] = [
        SpanKind::GetTimeCall,
        SpanKind::PlayCall,
        SpanKind::RecordCall,
        SpanKind::Decode,
        SpanKind::Resample,
        SpanKind::Pack,
    ];

    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Op => "op",
            SpanKind::GetTimeCall => "client.get_time_call",
            SpanKind::PlayCall => "client.play_call",
            SpanKind::RecordCall => "client.record_call",
            SpanKind::Decode => "client.decode",
            SpanKind::Resample => "client.resample",
            SpanKind::Pack => "client.pack",
        }
    }
}

/// What the timed loop calls around an op and around each call it makes.
pub trait Probe {
    fn begin_op(&mut self, start_ns: u64);
    fn end_op(&mut self, end_ns: u64);
    fn span<T>(&mut self, kind: SpanKind, f: impl FnOnce() -> T) -> T;
    /// The recorded spans, if this probe records any.
    fn into_spans(self) -> Option<SpanProbe>;
}

pub struct NoProbe;

impl Probe for NoProbe {
    fn begin_op(&mut self, _start_ns: u64) {}
    fn end_op(&mut self, _end_ns: u64) {}
    fn span<T>(&mut self, _kind: SpanKind, f: impl FnOnce() -> T) -> T {
        f()
    }
    fn into_spans(self) -> Option<SpanProbe> {
        None
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Span {
    kind: SpanKind,
    /// Op number; the spans of one op share it.
    op: u32,
    /// Index of the span that caused this one.
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

pub struct SpanProbe {
    anchor: Instant,
    spans: Vec<Span>,
    root: u32,
    op: u32,
    pub dropped: u64,
}

impl SpanProbe {
    /// `anchor` is the instant span times count from (the window start);
    /// `capacity` spans are reserved up front and later ones are counted
    /// in `dropped` instead of growing the vector inside the window.
    pub fn new(anchor: Instant, capacity: usize) -> SpanProbe {
        SpanProbe {
            anchor,
            spans: Vec::with_capacity(capacity),
            root: NO_PARENT,
            op: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, span: Span) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return NO_PARENT;
        }
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Median duration in µs per child kind, and the median root self time
    /// (root duration minus what its children cover) as the last element.
    pub fn p50_us(&self) -> (Vec<(SpanKind, Option<f64>)>, Option<f64>) {
        let mut root_self: Vec<u64> = Vec::new();
        let mut root_slot = vec![usize::MAX; self.spans.len()];
        let mut by_kind: Vec<Vec<u64>> = vec![Vec::new(); SpanKind::CHILDREN.len()];
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            if s.kind == SpanKind::Op {
                root_slot[i] = root_self.len();
                root_self.push(dur);
            } else {
                if let Some(k) = SpanKind::CHILDREN.iter().position(|&k| k == s.kind) {
                    by_kind[k].push(dur);
                }
                if let Some(&slot) = root_slot.get(s.parent as usize) {
                    if slot != usize::MAX {
                        root_self[slot] = root_self[slot].saturating_sub(dur);
                    }
                }
            }
        }
        let p50 = |v: &mut Vec<u64>| {
            v.sort_unstable();
            crate::stats::percentile(v, 500).map(|ns| ns as f64 / 1e3)
        };
        let kinds = SpanKind::CHILDREN
            .iter()
            .zip(by_kind.iter_mut())
            .map(|(&k, v)| (k, p50(v)))
            .collect();
        (kinds, p50(&mut root_self))
    }

    /// Writes the spans as tab-separated text, one per line; `parent` is
    /// the line index (0-based, after the header) of the causing span.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "name\top\tparent\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.kind.name(),
                s.op,
                parent,
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(())
    }
}

impl Probe for SpanProbe {
    fn begin_op(&mut self, start_ns: u64) {
        self.root = self.push(Span {
            kind: SpanKind::Op,
            op: self.op,
            parent: NO_PARENT,
            start_ns,
            end_ns: start_ns,
        });
    }

    fn end_op(&mut self, end_ns: u64) {
        if let Some(root) = self.spans.get_mut(self.root as usize) {
            root.end_ns = end_ns;
        }
        self.op = self.op.wrapping_add(1);
    }

    fn span<T>(&mut self, kind: SpanKind, f: impl FnOnce() -> T) -> T {
        let start_ns = self.anchor.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.anchor.elapsed().as_nanos() as u64;
        self.push(Span {
            kind,
            op: self.op,
            parent: self.root,
            start_ns,
            end_ns,
        });
        out
    }

    fn into_spans(self) -> Option<SpanProbe> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut p = SpanProbe::new(Instant::now(), 16);
        for op in 0..3u64 {
            p.begin_op(op * 1_000_000);
            p.spans.push(Span {
                kind: SpanKind::RecordCall,
                op: p.op,
                parent: p.root,
                start_ns: op * 1_000_000 + 100,
                end_ns: op * 1_000_000 + 40_100,
            });
            p.spans.push(Span {
                kind: SpanKind::Resample,
                op: p.op,
                parent: p.root,
                start_ns: op * 1_000_000 + 50_000,
                end_ns: op * 1_000_000 + 150_000,
            });
            p.end_op(op * 1_000_000 + 200_000);
        }
        let (kinds, harness) = p.p50_us();
        let get = |k: SpanKind| kinds.iter().find(|(kk, _)| *kk == k).and_then(|(_, v)| *v);
        assert_eq!(get(SpanKind::RecordCall), Some(40.0));
        assert_eq!(get(SpanKind::Resample), Some(100.0));
        assert_eq!(get(SpanKind::PlayCall), None);
        assert_eq!(harness, Some(60.0));
        assert_eq!(p.spans.len(), 9);
    }

    #[test]
    fn spans_beyond_capacity_are_counted_not_stored() {
        let mut p = SpanProbe::new(Instant::now(), 2);
        p.begin_op(0);
        assert_eq!(p.span(SpanKind::Pack, || 7), 7);
        p.span(SpanKind::Pack, || ());
        p.end_op(10);
        assert_eq!((p.spans.len(), p.dropped), (2, 1));
    }

    #[test]
    fn tsv_names_parents_by_line() {
        let mut p = SpanProbe::new(Instant::now(), 4);
        p.begin_op(5);
        p.span(SpanKind::GetTimeCall, || ());
        p.end_op(900_000_000);
        let mut text = Vec::new();
        p.write_tsv(&mut text).expect("writes");
        let text = String::from_utf8(text).expect("is text");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "name\top\tparent\tstart_ns\tend_ns");
        assert_eq!(lines[1], "op\t0\t-1\t5\t900000000");
        assert!(lines[2].starts_with("client.get_time_call\t0\t0\t"));
    }
}
