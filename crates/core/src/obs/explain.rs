//! `EXPLAIN ANALYZE`: the executed plan annotated with measured statistics.
//!
//! [`ExplainAnalyze::build`] is a pure fold of a [`QueryPlan`] and the
//! [`QueryMetrics`] its execution produced — per-operator rows, bytes, work
//! orders, wall time and per-edge UoT occupancy summaries, shaped as the
//! plan tree. It is computed for every engine/service execution (the inputs
//! already exist; the fold is a few allocations) and attached to
//! [`QueryResult::explain`](crate::engine::QueryResult::explain).
//! [`ExplainAnalyze::render`] turns it into the annotated tree text that the
//! SQL statement `EXPLAIN ANALYZE <stmt>` returns as its result rows.

use crate::metrics::{EdgeMetrics, QueryMetrics};
use crate::plan::{OpId, QueryPlan, Source};
use std::sync::Arc;
use std::time::Duration;
use uot_storage::{BlockFormat, DataType, Schema, StorageBlock, Value};

/// One operator of the executed plan, annotated with measured statistics.
#[derive(Debug, Clone)]
pub struct OpExplain {
    /// Operator id in the plan.
    pub id: OpId,
    /// Display name.
    pub name: String,
    /// Kind label ("select", "probe", ...).
    pub kind: String,
    /// Work orders executed.
    pub work_orders: usize,
    /// Input blocks consumed via transfer edges.
    pub input_blocks: usize,
    /// Input rows consumed via transfer edges.
    pub input_rows: usize,
    /// Output blocks produced.
    pub produced_blocks: usize,
    /// Output rows produced.
    pub produced_rows: usize,
    /// Output bytes produced.
    pub produced_bytes: usize,
    /// Summed work-order execution time.
    pub total_task_time: Duration,
    /// Longest single work order.
    pub max_task_time: Duration,
    /// Rows pruned by LIP filters at this operator.
    pub lip_pruned_rows: usize,
    /// Measured statistics of the operator's outgoing transfer edge.
    pub edge: EdgeMetrics,
    /// Upstream operators feeding this one (stream source first, then
    /// blocking dependencies such as a probe's build side).
    pub children: Vec<OpId>,
}

/// The executed plan tree annotated with measured per-operator and per-edge
/// statistics.
#[derive(Debug, Clone)]
pub struct ExplainAnalyze {
    /// Root (sink) operator of the plan.
    pub root: OpId,
    /// Per-operator annotations, indexed by [`OpId`].
    pub ops: Vec<OpExplain>,
    /// End-to-end wall time.
    pub wall_time: Duration,
    /// Rows in the query result.
    pub result_rows: usize,
    /// Workers the query ran with.
    pub workers: usize,
    /// Stream pipelines executed as fused loops.
    pub fused_pipelines: usize,
    /// Blocks evicted to the disk spill tier.
    pub spill_events: usize,
    /// Bytes written to the disk spill tier.
    pub spilled_bytes: usize,
    /// Peak bytes of temporary storage.
    pub peak_temp_bytes: usize,
}

impl ExplainAnalyze {
    /// Annotate `plan` with the measured statistics in `metrics`. Pure: no
    /// execution state is touched, so this runs on every query at negligible
    /// cost.
    pub fn build(plan: &QueryPlan, metrics: &QueryMetrics) -> ExplainAnalyze {
        let ops = plan
            .ops()
            .iter()
            .enumerate()
            .map(|(id, op)| {
                let m = metrics.ops.get(id);
                let mut children = Vec::new();
                if let Source::Op(p) = op.kind.stream_source() {
                    children.push(*p);
                }
                children.extend(op.kind.blocking_deps());
                OpExplain {
                    id,
                    name: op.name.clone(),
                    kind: op.kind.kind_label().to_string(),
                    work_orders: m.map_or(0, |m| m.work_orders),
                    input_blocks: m.map_or(0, |m| m.input_blocks),
                    input_rows: m.map_or(0, |m| m.input_rows),
                    produced_blocks: m.map_or(0, |m| m.produced_blocks),
                    produced_rows: m.map_or(0, |m| m.produced_rows),
                    produced_bytes: m.map_or(0, |m| m.produced_bytes),
                    total_task_time: m.map_or(Duration::ZERO, |m| m.total_task_time),
                    max_task_time: m.map_or(Duration::ZERO, |m| m.max_task_time()),
                    lip_pruned_rows: m.map_or(0, |m| m.lip_pruned_rows),
                    edge: metrics.edges.get(id).cloned().unwrap_or_default(),
                    children,
                }
            })
            .collect();
        ExplainAnalyze {
            root: plan.sink(),
            ops,
            wall_time: metrics.wall_time,
            result_rows: metrics.result_rows,
            workers: metrics.workers,
            fused_pipelines: metrics.fused_pipelines,
            spill_events: metrics.spill_events,
            spilled_bytes: metrics.spilled_bytes,
            peak_temp_bytes: metrics.peak_temp_bytes,
        }
    }

    /// The annotated plan tree as text, one operator per line pair
    /// (`-> name [kind] ...` plus an edge line when the operator's output
    /// crossed a staged transfer edge).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "wall {:.3} ms, {} rows, {} workers",
            self.wall_time.as_secs_f64() * 1e3,
            self.result_rows,
            self.workers
        ));
        if self.fused_pipelines > 0 {
            out.push_str(&format!(", {} fused pipelines", self.fused_pipelines));
        }
        if self.spill_events > 0 {
            out.push_str(&format!(
                ", {} spills ({} B)",
                self.spill_events, self.spilled_bytes
            ));
        }
        out.push_str(&format!(", peak temp {} B\n", self.peak_temp_bytes));
        self.render_op(self.root, 0, &mut out);
        out
    }

    fn render_op(&self, id: OpId, depth: usize, out: &mut String) {
        let op = &self.ops[id];
        let pad = "  ".repeat(depth);
        out.push_str(&format!(
            "{pad}-> {} [{}] work_orders={} in={} blk/{} rows out={} blk/{} rows/{} B time {:.3} ms (max {:.3} ms)",
            op.name,
            op.kind,
            op.work_orders,
            op.input_blocks,
            op.input_rows,
            op.produced_blocks,
            op.produced_rows,
            op.produced_bytes,
            op.total_task_time.as_secs_f64() * 1e3,
            op.max_task_time.as_secs_f64() * 1e3,
        ));
        if op.lip_pruned_rows > 0 {
            out.push_str(&format!(" lip_pruned={}", op.lip_pruned_rows));
        }
        out.push('\n');
        let e = &op.edge;
        if e.flushes + e.partial_flushes > 0 {
            let threshold = if e.threshold == usize::MAX {
                "table".to_string()
            } else {
                e.threshold.to_string()
            };
            let consumer = e
                .consumer
                .map(|c| self.ops[c].name.clone())
                .unwrap_or_else(|| "sink".into());
            out.push_str(&format!(
                "{pad}   edge -> {consumer}: uot={threshold} blk, {} flushes (+{} partial), \
                 {} blk/{} rows/{} B, staged max {} mean {:.1} over {} holds\n",
                e.flushes,
                e.partial_flushes,
                e.blocks,
                e.rows,
                e.bytes,
                e.max_staged,
                e.mean_staged(),
                e.stalls,
            ));
        }
        for &c in &op.children {
            self.render_op(c, depth + 1, out);
        }
    }

    /// The rendered tree as a one-column result table — what the SQL front
    /// door returns for `EXPLAIN ANALYZE <stmt>` in place of the statement's
    /// own rows (the real execution's metrics stay attached).
    pub fn result_blocks(&self) -> (Arc<Schema>, Vec<Arc<StorageBlock>>) {
        let text = self.render();
        let lines: Vec<&str> = text.lines().collect();
        let width = lines.iter().map(|l| l.len()).max().unwrap_or(1).max(1);
        let schema =
            Schema::from_pairs(&[("plan", DataType::Char(width.min(u16::MAX as usize) as u16))]);
        // One generously sized block; `append_row` growing past capacity
        // would split, so size for the whole rendering.
        let cap = (width + 16) * (lines.len() + 1);
        let mut block = StorageBlock::new(schema.clone(), BlockFormat::Row, cap)
            .expect("explain block allocation");
        for line in &lines {
            let ok = block
                .append_row(&[Value::Str((*line).to_string())])
                .expect("explain row append");
            debug_assert!(ok, "explain block sized for all lines");
        }
        (schema, vec![Arc::new(block)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::OperatorMetrics;
    use crate::plan::PlanBuilder;
    use uot_expr::{cmp, col, lit, AggSpec, CmpOp};
    use uot_storage::{Table, TableBuilder};

    fn table(name: &str, rows: i32) -> Arc<Table> {
        let s = Schema::from_pairs(&[("k", DataType::Int32), ("v", DataType::Float64)]);
        let mut tb = TableBuilder::new(name, s, BlockFormat::Column, 256);
        for i in 0..rows {
            tb.append(&[Value::I32(i), Value::F64(i as f64)]).unwrap();
        }
        Arc::new(tb.finish())
    }

    fn plan() -> QueryPlan {
        let t = table("t", 64);
        let mut b = PlanBuilder::new();
        let sel = b
            .select(
                Source::Table(t),
                cmp(col(0), CmpOp::Lt, lit(1000i32)),
                vec![col(1)],
                &["v"],
            )
            .unwrap();
        let agg = b
            .aggregate(Source::Op(sel), vec![], vec![AggSpec::count_star()], &["n"])
            .unwrap();
        b.build(agg).unwrap()
    }

    fn metrics_for(plan: &QueryPlan) -> QueryMetrics {
        let mut m = QueryMetrics {
            ops: plan
                .ops()
                .iter()
                .map(|op| OperatorMetrics {
                    name: op.name.clone(),
                    kind: op.kind.kind_label().to_string(),
                    work_orders: 2,
                    produced_blocks: 2,
                    produced_rows: 64,
                    produced_bytes: 512,
                    input_blocks: 1,
                    input_rows: 64,
                    ..Default::default()
                })
                .collect(),
            edges: vec![EdgeMetrics::default(); plan.len()],
            result_rows: 1,
            workers: 2,
            wall_time: Duration::from_millis(3),
            ..Default::default()
        };
        m.edges[0] = EdgeMetrics {
            consumer: Some(1),
            threshold: 4,
            stalls: 3,
            max_staged: 3,
            sum_staged: 6,
            flushes: 1,
            partial_flushes: 1,
            blocks: 2,
            rows: 64,
            bytes: 512,
        };
        m
    }

    #[test]
    fn build_and_render_annotated_tree() {
        let plan = plan();
        let metrics = metrics_for(&plan);
        let ex = ExplainAnalyze::build(&plan, &metrics);
        assert_eq!(ex.root, plan.sink());
        assert_eq!(ex.ops.len(), plan.len());
        // The aggregate's child is the select.
        assert_eq!(ex.ops[ex.root].children, vec![0]);
        let text = ex.render();
        assert!(text.contains("wall 3.000 ms, 1 rows, 2 workers"), "{text}");
        assert!(text.contains("[aggregate]"), "{text}");
        assert!(text.contains("[select]"), "{text}");
        assert!(text.contains("edge ->"), "{text}");
        assert!(text.contains("uot=4 blk"), "{text}");
        assert!(
            text.contains("staged max 3 mean 2.0 over 3 holds"),
            "{text}"
        );
        // The child renders indented under its consumer.
        let sel_line = text.lines().find(|l| l.contains("[select]")).unwrap();
        assert!(sel_line.starts_with("  ->"), "{sel_line}");
    }

    #[test]
    fn result_blocks_carry_the_rendering() {
        let plan = plan();
        let ex = ExplainAnalyze::build(&plan, &metrics_for(&plan));
        let (schema, blocks) = ex.result_blocks();
        assert_eq!(schema.len(), 1);
        let rows: usize = blocks.iter().map(|b| b.num_rows()).sum();
        assert_eq!(rows, ex.render().lines().count());
    }
}
