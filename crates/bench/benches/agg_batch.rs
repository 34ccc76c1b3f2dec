//! Scalar vs vectorized hash aggregation throughput.
//!
//! Drives the aggregate operator end to end (argument evaluation, key
//! extraction, grouping, accumulator updates, finalize merge, sort and
//! emit) through both implementations — the retained per-block `HashMap` +
//! `AggState` reference (`execute_block_scalar` / `execute_finalize_scalar`)
//! and the vectorized group-table pipeline (`execute_block` /
//! `execute_finalize`) — on two TPC-H shapes over 600K rows in 128 KB
//! column blocks:
//!
//! * Q18 shape: `SUM(Float64)` grouped by one `Int64` key, 150K groups of
//!   4 consecutive rows (lineitem is clustered by order key);
//! * Q1 shape: two `Char(1)` keys, 4 groups, 4 `SUM` + 3 `AVG` + `COUNT(*)`.
//!
//! ns/iter divides by 600K for ns per input row.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use uot_core::ops::aggregate;
use uot_core::state::ExecContext;
use uot_core::{PlanBuilder, QueryPlan, Source};
use uot_expr::{col, lit, AggSpec};
use uot_storage::{
    BlockFormat, BlockPool, DataType, MemoryTracker, Schema, Table, TableBuilder, Value,
};

const ROWS: i64 = 600_000;

/// Lineitem-like columns: order key, return flag, line status, quantity,
/// extended price, discount, tax.
fn lineitem() -> Arc<Table> {
    let s = Schema::from_pairs(&[
        ("orderkey", DataType::Int64),
        ("returnflag", DataType::Char(1)),
        ("linestatus", DataType::Char(1)),
        ("quantity", DataType::Float64),
        ("extendedprice", DataType::Float64),
        ("discount", DataType::Float64),
        ("tax", DataType::Float64),
    ]);
    let mut tb = TableBuilder::new("lineitem", s, BlockFormat::Column, 128 * 1024);
    for i in 0..ROWS {
        let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        tb.append(&[
            Value::I64(i / 4 * 4 + 1),
            Value::Str(["A", "N", "R"][(h % 3) as usize].into()),
            Value::Str(["F", "O"][((h >> 8) % 2) as usize].into()),
            Value::F64((1 + (h >> 16) % 50) as f64),
            Value::F64((90_000 + (h >> 24) % 10_400_000) as f64 / 100.0),
            Value::F64(((h >> 40) % 11) as f64 / 100.0),
            Value::F64(((h >> 48) % 9) as f64 / 100.0),
        ])
        .unwrap();
    }
    Arc::new(tb.finish())
}

/// Builds an aggregate plan over the lineitem-like table; returns it and
/// the aggregate's operator id.
type Shape = fn(&Arc<Table>) -> (QueryPlan, usize);

fn q18_shape(t: &Arc<Table>) -> (QueryPlan, usize) {
    let mut pb = PlanBuilder::new();
    let a = pb
        .aggregate(
            Source::Table(t.clone()),
            vec![0],
            vec![AggSpec::sum(col(3))],
            &["sum_qty"],
        )
        .unwrap();
    (pb.build(a).unwrap(), a)
}

fn q1_shape(t: &Arc<Table>) -> (QueryPlan, usize) {
    let disc_price = col(4).mul(lit(1.0).sub(col(5)));
    let charge = disc_price.clone().mul(lit(1.0).add(col(6)));
    let mut pb = PlanBuilder::new();
    let a = pb
        .aggregate(
            Source::Table(t.clone()),
            vec![1, 2],
            vec![
                AggSpec::sum(col(3)),
                AggSpec::sum(col(4)),
                AggSpec::sum(disc_price),
                AggSpec::sum(charge),
                AggSpec::avg(col(3)),
                AggSpec::avg(col(4)),
                AggSpec::avg(col(5)),
                AggSpec::count_star(),
            ],
            &[
                "sum_qty",
                "sum_base_price",
                "sum_disc_price",
                "sum_charge",
                "avg_qty",
                "avg_price",
                "avg_disc",
                "count_order",
            ],
        )
        .unwrap();
    (pb.build(a).unwrap(), a)
}

/// Aggregate every block of `t` and finalize; returns the output row count.
fn run(ctx: &ExecContext, a: usize, t: &Table, scalar: bool) -> usize {
    for blk in t.blocks() {
        if scalar {
            aggregate::execute_block_scalar(ctx, a, &blk.clone()).unwrap();
        } else {
            aggregate::execute_block(ctx, a, &blk.clone()).unwrap();
        }
    }
    let out = if scalar {
        aggregate::execute_finalize_scalar(ctx, a).unwrap()
    } else {
        aggregate::execute_finalize(ctx, a).unwrap()
    };
    out.iter()
        .chain(&ctx.output(a).flush())
        .map(|b| b.num_rows())
        .sum()
}

fn bench_agg_paths(c: &mut Criterion) {
    let t = lineitem();
    let shapes: [(&str, Shape); 2] = [("q18_shape", q18_shape), ("q1_shape", q1_shape)];
    for (label, shape) in shapes {
        let (plan, a) = shape(&t);
        let plan = Arc::new(plan);
        let ctx = ExecContext::new(
            plan,
            BlockPool::new(MemoryTracker::new()),
            BlockFormat::Row,
            128 * 1024,
            1,
        )
        .unwrap();
        let mut g = c.benchmark_group(format!("agg_{label}"));
        g.sample_size(10);
        g.bench_function("scalar", |bench| {
            bench.iter(|| black_box(run(&ctx, a, &t, true)))
        });
        g.bench_function("vectorized", |bench| {
            bench.iter(|| black_box(run(&ctx, a, &t, false)))
        });
        g.finish();
    }
}

criterion_group!(benches, bench_agg_paths);
criterion_main!(benches);
