//! Spans the benchmark records around its own calls into each layer.
//!
//! One trace per request (`trace_id` = request id). Spans are kept in
//! memory while a traced segment runs and written out afterwards, so
//! the cost of tracing is a few `Instant::now()` calls and a `Vec` push
//! per request — and that cost is itself reported
//! (`client.trace_overhead_pct`).

use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// Span id of a request's root span; children name it as `parent`.
pub const ROOT: u8 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub trace_id: u64,
    pub span: u8,
    /// 0 for the root span.
    pub parent: u8,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Nanoseconds since the first call in this process.
pub fn stamp(at: Instant) -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    at.saturating_duration_since(epoch).as_nanos() as u64
}

/// Checks that every trace has exactly one root and every other span
/// lies inside its parent; returns the number of traces.
pub fn check_nesting(spans: &[Span]) -> Result<usize, String> {
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.trace_id, s.parent, s.span));
    let mut traces = 0;
    for trace in sorted.chunk_by(|a, b| a.trace_id == b.trace_id) {
        let id = trace[0].trace_id;
        let (root, children) = match trace {
            [root, children @ ..] if root.parent == 0 && root.span == ROOT => (root, children),
            _ => return Err(format!("trace {id} has no root span")),
        };
        for s in children {
            if s.parent != ROOT {
                return Err(format!(
                    "trace {id}: span {} has parent {}",
                    s.span, s.parent
                ));
            }
            if s.start_ns < root.start_ns || s.end_ns > root.end_ns || s.end_ns < s.start_ns {
                return Err(format!("trace {id}: span {:?} leaves its parent", s.name));
            }
        }
        traces += 1;
    }
    Ok(traces)
}

/// One JSON object per span per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 128);
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"trace_id\":{},\"span\":{},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.trace_id, s.span, s.parent, s.layer, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace_id: u64, span: u8, parent: u8, start_ns: u64, end_ns: u64) -> Span {
        Span {
            trace_id,
            span,
            parent,
            layer: "client",
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nesting_accepts_children_inside_and_rejects_the_rest() {
        let good = [
            span(7, 2, ROOT, 12, 15),
            span(7, ROOT, 0, 10, 20),
            span(8, ROOT, 0, 11, 30),
            span(8, 3, ROOT, 20, 30),
        ];
        assert_eq!(check_nesting(&good), Ok(2));
        let escapes = [span(7, ROOT, 0, 10, 20), span(7, 2, ROOT, 12, 21)];
        assert!(check_nesting(&escapes).is_err());
        let orphan = [span(9, 2, ROOT, 1, 2)];
        assert!(check_nesting(&orphan).is_err());
        let two_roots = [span(9, ROOT, 0, 1, 2), span(9, ROOT, 0, 1, 2)];
        assert!(check_nesting(&two_roots).is_err());
    }

    #[test]
    fn jsonl_has_one_line_per_span_with_every_field() {
        let text = to_jsonl(&[span(7, ROOT, 0, 10, 20), span(7, 2, ROOT, 12, 15)]);
        assert_eq!(text.lines().count(), 2);
        assert_eq!(
            text.lines().next(),
            Some(
                "{\"trace_id\":7,\"span\":1,\"parent\":0,\"layer\":\"client\",\
                 \"name\":\"x\",\"start_ns\":10,\"end_ns\":20}"
            )
        );
    }
}
