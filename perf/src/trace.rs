//! Benchmark-owned spans. The traced run wraps each call into a layer's
//! public function in a span; nothing inside `crates/*` is timed. Spans stay
//! in memory and are written out once the workload ends.

use crate::json::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed interval. `span_id` is the span's index + 1 so that 0 can mean
/// "no parent"; spans of one op share `trace_id` (the op's number).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub trace_id: u32,
    pub span_id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer (crate) a span belongs to: the part of its name before the
    /// dot. The root span of an op, `op`, is the benchmark's own loop.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A count recorded at a span boundary (rows out, bytes shipped, …).
#[derive(Debug, Clone, PartialEq)]
pub struct Count {
    pub span_id: u32,
    pub name: &'static str,
    pub value: u64,
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    pub counts: Vec<Count>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its id for [`end`](Self::end) and as a parent.
    pub fn begin(&mut self, trace_id: u32, parent: u32, name: &'static str) -> u32 {
        let span_id = self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            trace_id,
            span_id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        span_id
    }

    pub fn end(&mut self, span_id: u32) {
        self.spans[span_id as usize - 1].end_ns = self.now_ns();
    }

    pub fn count(&mut self, span_id: u32, name: &'static str, value: u64) {
        self.counts.push(Count {
            span_id,
            name,
            value,
        });
    }

    /// One JSON object per span, counts attached to the span they belong to.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut counts: BTreeMap<u32, Vec<(String, Json)>> = BTreeMap::new();
        for c in &self.counts {
            counts
                .entry(c.span_id)
                .or_default()
                .push((c.name.to_string(), Json::Num(c.value as f64)));
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let mut fields = vec![
                ("trace_id", Json::Num(s.trace_id as f64)),
                ("span_id", Json::Num(s.span_id as f64)),
                ("parent", Json::Num(s.parent as f64)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
            ];
            if let Some(c) = counts.remove(&s.span_id) {
                fields.push(("counts", Json::Obj(c)));
            }
            writeln!(out, "{}", Json::obj(fields).render())?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its child spans cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.span_id) else {
                return s.duration_ns();
            };
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Summed self time per layer, in nanoseconds.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut layers = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *layers.entry(s.layer()).or_insert(0) += own;
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(span_id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            trace_id: 1,
            span_id,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let spans = vec![
            span(1, 0, "op", 0, 100),
            span(2, 1, "parser.parse", 10, 30),
            span(3, 1, "core.convert", 40, 90),
            span(4, 3, "core.cbo", 50, 70),
            // overlaps span 4 inside the same parent: counted once
            span(5, 3, "core.cbo", 60, 80),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 20, 20, 20]);
        let layers = layer_self_ns(&spans);
        assert_eq!(layers["op"], 30);
        assert_eq!(layers["parser"], 20);
        assert_eq!(layers["core"], 60);
        // self times of a tree add up to the root's duration when children nest
        let nested = &spans[..4];
        assert_eq!(self_times(nested).iter().sum::<u64>(), 100);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span(1, 0, "op", 10, 20), span(2, 1, "exec.execute", 5, 15)];
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn tracer_links_spans_and_counts() {
        let mut tr = Tracer::default();
        let op = tr.begin(7, 0, "op");
        let child = tr.begin(7, op, "exec.execute");
        tr.count(child, "rows_out", 3);
        tr.end(child);
        tr.end(op);
        assert_eq!((tr.spans[1].parent, tr.spans[1].trace_id), (op, 7));
        assert!(tr.spans[0].end_ns >= tr.spans[1].end_ns);
        assert_eq!(tr.counts[0].span_id, child);
    }
}
