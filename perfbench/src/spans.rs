//! In-memory spans recorded around the calls into each layer, and the fold
//! that turns one submission's span tree into per-layer self times.

use crate::json::Json;
use std::collections::BTreeMap;

/// Layer name the fold charges a root span's own time to: time inside a
/// submission that no child span covers.
pub const UNATTRIBUTED: &str = "unattributed";

/// One timed interval. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the parent span in the same tree; `None` for the root.
    pub parent: Option<usize>,
    /// Submission the span belongs to; every span of one tree shares it.
    pub submission: u64,
}

/// Per-layer self times of one span tree whose first span is the root and
/// whose parents precede their children.
///
/// Every instant of the root's interval is charged to exactly one layer: to
/// the deepest spans active at that instant, split equally when several of
/// them overlap (two workers running work orders of one query at once). The
/// root's own share is reported as [`UNATTRIBUTED`]. The values therefore
/// sum to the root's duration.
pub fn fold(tree: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    let Some(root) = tree.first() else {
        return out;
    };
    let mut depth = vec![0usize; tree.len()];
    // (time, +1 open / -1 close, span)
    let mut events = Vec::with_capacity(2 * tree.len());
    for (i, s) in tree.iter().enumerate() {
        if let Some(p) = s.parent {
            assert!(p < i, "span parents must precede their children");
            depth[i] = depth[p] + 1;
        }
        let start = s.start.clamp(root.start, root.end);
        let end = s.end.clamp(start, root.end);
        events.push((start, 1i8, i));
        events.push((end, -1i8, i));
    }
    // Closes before opens at one instant, so back-to-back spans never
    // count as overlapping.
    events.sort_by_key(|&(t, d, _)| (t, d));
    let max_depth = depth.iter().copied().max().unwrap_or(0);
    let mut active: Vec<BTreeMap<&'static str, usize>> = vec![BTreeMap::new(); max_depth + 1];
    let mut active_at = vec![0usize; max_depth + 1];
    let mut prev = root.start;
    for (t, delta, i) in events {
        if t > prev {
            if let Some(d) = (0..=max_depth).rev().find(|&d| active_at[d] > 0) {
                let share = (t - prev) as f64 / active_at[d] as f64;
                for (&name, &n) in &active[d] {
                    let layer = if d == 0 { UNATTRIBUTED } else { name };
                    *out.entry(layer).or_insert(0.0) += share * n as f64;
                }
            }
            prev = t;
        }
        let d = depth[i];
        let slot = active[d].entry(tree[i].name).or_insert(0);
        if delta > 0 {
            *slot += 1;
            active_at[d] += 1;
        } else {
            *slot -= 1;
            active_at[d] -= 1;
            if *slot == 0 {
                active[d].remove(tree[i].name);
            }
        }
    }
    out
}

/// Spans kept for writing out at the end of the run, up to a cap past
/// which further spans are counted but dropped.
#[derive(Debug)]
pub struct SpanLog {
    spans: Vec<Span>,
    cap: usize,
    dropped: usize,
}

impl SpanLog {
    pub fn new(cap: usize) -> Self {
        SpanLog {
            spans: Vec::new(),
            cap,
            dropped: 0,
        }
    }

    /// Keep `tree`, rebasing its parent indices into the log; a tree that
    /// does not fit whole is dropped whole.
    pub fn keep(&mut self, tree: &[Span]) {
        if self.spans.len() + tree.len() > self.cap {
            self.dropped += tree.len();
            return;
        }
        let base = self.spans.len();
        self.spans.extend(tree.iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s.clone()
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// The kept spans as a JSON array; parents are indices into it.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("start_us", Json::Num(s.start as f64 / 1e3)),
                        ("end_us", Json::Num(s.end as f64 / 1e3)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                        ),
                        ("submission", Json::Int(s.submission)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            submission: 7,
        }
    }

    fn total(m: &BTreeMap<&'static str, f64>) -> f64 {
        m.values().sum()
    }

    #[test]
    fn nested_spans_fold_to_self_times_and_a_residual() {
        // query [0,100): parse [0,10), engine [20,90) holding two
        // sequential work orders [30,50) and [50,80).
        let tree = [
            span("query", 0, 100, None),
            span("sql.parse", 0, 10, Some(0)),
            span("engine", 20, 90, Some(0)),
            span("ops.select", 30, 50, Some(2)),
            span("ops.probe", 50, 80, Some(2)),
        ];
        let m = fold(&tree);
        assert_eq!(m["sql.parse"], 10.0);
        assert_eq!(m["engine"], 20.0);
        assert_eq!(m["ops.select"], 20.0);
        assert_eq!(m["ops.probe"], 30.0);
        assert_eq!(m[UNATTRIBUTED], 20.0);
        assert_eq!(total(&m), 100.0);
    }

    #[test]
    fn overlapping_siblings_split_the_shared_interval() {
        // Two workers: select [10,30) and probe [20,40) inside engine
        // [0,50). The overlap [20,30) is split between them.
        let tree = [
            span("query", 0, 50, None),
            span("engine", 0, 50, Some(0)),
            span("ops.select", 10, 30, Some(1)),
            span("ops.probe", 20, 40, Some(1)),
        ];
        let m = fold(&tree);
        assert_eq!(m["ops.select"], 15.0);
        assert_eq!(m["ops.probe"], 15.0);
        assert_eq!(m["engine"], 20.0);
        assert!(!m.contains_key(UNATTRIBUTED));
        assert_eq!(total(&m), 50.0);
    }

    #[test]
    fn children_are_clamped_to_the_root() {
        let tree = [
            span("query", 100, 200, None),
            span("engine", 90, 210, Some(0)),
        ];
        let m = fold(&tree);
        assert_eq!(m["engine"], 100.0);
        assert_eq!(total(&m), 100.0);
    }

    #[test]
    fn a_lone_root_is_all_unattributed() {
        let m = fold(&[span("query", 5, 12, None)]);
        assert_eq!(m[UNATTRIBUTED], 7.0);
        assert!(fold(&[]).is_empty());
    }

    #[test]
    fn span_log_rebases_parents_and_caps() {
        let tree = [span("query", 0, 3, None), span("engine", 1, 2, Some(0))];
        let mut log = SpanLog::new(3);
        log.keep(&tree);
        log.keep(&tree);
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 2);
        let mut log = SpanLog::new(4);
        log.keep(&tree);
        log.keep(&tree);
        assert_eq!(log.spans[3].parent, Some(2));
        assert_eq!(
            log.to_json().render(),
            "[{\"name\":\"query\",\"start_us\":0,\"end_us\":0.003,\"parent\":null,\"submission\":7},\
             {\"name\":\"engine\",\"start_us\":0.001,\"end_us\":0.002,\"parent\":0,\"submission\":7},\
             {\"name\":\"query\",\"start_us\":0,\"end_us\":0.003,\"parent\":null,\"submission\":7},\
             {\"name\":\"engine\",\"start_us\":0.001,\"end_us\":0.002,\"parent\":2,\"submission\":7}]"
        );
    }
}
