//! Property tests for vectorized hash aggregation: the group-table pipeline
//! (KeyExtractor → find-or-insert group ids → columnar accumulators →
//! per-worker table merge → key-sorted emit) must be indistinguishable from
//! the retained per-block `HashMap` + `AggState` scalar reference.
//!
//! Randomized tables with 0–3 group columns (`Int32`, `Int64`, `Date`,
//! `Char`, including key sets wider than 16 bytes), all six aggregate
//! functions over int, date and float arguments, and float values chosen to
//! stress the compact exact sum (subnormals, ±1e300, ±0.0, ±inf, NaN,
//! catastrophic cancellation) are aggregated by both implementations. The
//! emitted rows must be byte-identical, in the same order and the same
//! number of output blocks; `Engine` serial and parallel(2) must return
//! byte-identical sorted rows. Integer `SUM` overflow must be detected the
//! same way however the rows are split into blocks.

use proptest::prelude::*;
use std::sync::Arc;
use uot_core::ops::aggregate::{self, GroupTable};
use uot_core::plan::OperatorKind;
use uot_core::state::ExecContext;
use uot_core::{Engine, EngineConfig, EngineError, PlanBuilder, QueryPlan, Source};
use uot_expr::{col, AggSpec};
use uot_storage::{
    BlockFormat, BlockPool, DataType, MemoryTracker, Schema, StorageBlock, Table, TableBuilder,
    Value,
};

/// Output block size for every path, small enough that results span
/// several blocks.
const OUT_BLOCK_BYTES: usize = 512;

/// Columns: four group-key candidates, then the aggregate arguments.
fn schema() -> Arc<Schema> {
    Schema::from_pairs(&[
        ("g32", DataType::Int32),
        ("g64", DataType::Int64),
        ("gd", DataType::Date),
        ("gc", DataType::Char(12)),
        ("a32", DataType::Int32),
        ("a64", DataType::Int64),
        ("ad", DataType::Date),
        ("af", DataType::Float64),
    ])
}

/// One generated row: key seeds for the four key columns, then arguments.
type Row = (u32, u32, u32, u32, i32, i64, i32, f64);

#[derive(Debug, Clone)]
struct AggCase {
    rows: Vec<Row>,
    group_by: Vec<usize>,
    rows_per_block: usize,
    format: BlockFormat,
    /// Group tables the vectorized path deals blocks over.
    tables: usize,
}

/// Floats that stress the compact sum's window and the MIN/MAX rules.
fn arb_f64() -> impl Strategy<Value = f64> {
    let cents = || (-1.0e5f64..1.0e5).prop_map(|v| (v * 100.0).round() / 100.0);
    prop_oneof![
        cents(),
        cents(),
        cents(),
        (1u64..1 << 20).prop_map(f64::from_bits),
        prop_oneof![Just(1e300), Just(-1e300), Just(0.0), Just(-0.0)],
        prop_oneof![Just(f64::INFINITY), Just(f64::NEG_INFINITY), Just(f64::NAN)],
        -1e-300f64..1e-300,
    ]
}

fn arb_row(domain: u32) -> impl Strategy<Value = Row> {
    (
        (0..domain, 0..domain, 0..domain, 0..domain),
        (
            -1_000_000i32..1_000_000,
            -1_000_000_000_000_000i64..1_000_000_000_000_000,
            7000i32..12000,
            arb_f64(),
        ),
    )
        .prop_map(|((k0, k1, k2, k3), (a32, a64, ad, af))| (k0, k1, k2, k3, a32, a64, ad, af))
}

fn arb_case() -> impl Strategy<Value = AggCase> {
    let group_by = prop_oneof![
        Just(vec![]),
        Just(vec![0]),
        Just(vec![1]),
        Just(vec![2]),
        Just(vec![3]),
        Just(vec![0, 2]),
        Just(vec![3, 0]),
        Just(vec![1, 3]),
        Just(vec![2, 1, 3]),
    ];
    let domain = prop_oneof![Just(1u32), Just(2), Just(7), Just(300)];
    (domain, group_by, 1usize..40, any::<bool>(), 1usize..4).prop_flat_map(
        |(domain, group_by, rows_per_block, row_format, tables)| {
            proptest::collection::vec(arb_row(domain), 0..240).prop_map(move |rows| AggCase {
                rows,
                group_by: group_by.clone(),
                rows_per_block,
                tables,
                format: if row_format {
                    BlockFormat::Row
                } else {
                    BlockFormat::Column
                },
            })
        },
    )
}

fn table(case: &AggCase) -> Arc<Table> {
    let s = schema();
    let tuple = s.tuple_width();
    let mut tb = TableBuilder::new("t", s, case.format, case.rows_per_block * tuple);
    for &(k0, k1, k2, k3, a32, a64, ad, af) in &case.rows {
        tb.append(&[
            Value::I32(k0 as i32 - 3),
            Value::I64((k1 as i64 - 150) * 1_000_000_007),
            Value::Date(8000 + k2 as i32),
            // Keys of differing lengths, including the empty string and
            // values with trailing whitespace that a `Value` round trip trims.
            Value::Str(match k3 {
                0 => String::new(),
                k if k % 5 == 4 => format!("{k}\t"),
                k => "k".repeat(k as usize % 4) + &k.to_string(),
            }),
            Value::I32(a32),
            Value::I64(a64),
            Value::Date(ad),
            Value::F64(af),
        ])
        .unwrap();
    }
    Arc::new(tb.finish())
}

/// Every aggregate function over every argument type it accepts.
fn all_aggs() -> (Vec<AggSpec>, Vec<&'static str>) {
    let aggs = vec![
        AggSpec::count_star(),
        AggSpec::count(col(7)),
        AggSpec::sum(col(4)),
        AggSpec::sum(col(5)),
        AggSpec::sum(col(7)),
        AggSpec::min(col(4)),
        AggSpec::max(col(5)),
        AggSpec::min(col(6)),
        AggSpec::max(col(6)),
        AggSpec::min(col(7)),
        AggSpec::max(col(7)),
        AggSpec::avg(col(4)),
        AggSpec::avg(col(5)),
        AggSpec::avg(col(7)),
    ];
    let names = vec![
        "n", "nf", "s32", "s64", "sf", "mn32", "mx64", "mnd", "mxd", "mnf", "mxf", "av32", "av64",
        "avf",
    ];
    (aggs, names)
}

fn plan(
    t: &Arc<Table>,
    group_by: Vec<usize>,
    aggs: Vec<AggSpec>,
    names: &[&str],
) -> (QueryPlan, usize) {
    let mut pb = PlanBuilder::new();
    let a = pb
        .aggregate(Source::Table(t.clone()), group_by, aggs, names)
        .unwrap();
    (pb.build(a).unwrap(), a)
}

/// Every row of `block` rendered from its stored bytes, so equality is
/// byte identity: floats by bit pattern (NaN equals itself, -0.0 differs
/// from 0.0) and `Char` fields with their padding.
fn raw_rows(block: &StorageBlock) -> Vec<Vec<String>> {
    let schema = block.schema();
    (0..block.num_rows())
        .map(|r| {
            (0..schema.len())
                .map(|c| match schema.dtype(c) {
                    DataType::Int32 => format!("i{}", block.i32_at(r, c)),
                    DataType::Date => format!("d{}", block.date_at(r, c)),
                    DataType::Int64 => format!("l{}", block.i64_at(r, c)),
                    DataType::Float64 => format!("f{:016x}", block.f64_at(r, c).to_bits()),
                    DataType::Char(_) => format!("c{:?}", block.char_at(r, c)),
                })
                .collect()
        })
        .collect()
}

/// How to drive the aggregate by hand.
#[derive(Debug, Clone, Copy)]
enum Path {
    /// The scalar reference (one partial per block).
    Scalar,
    /// The vectorized pipeline, with blocks dealt round-robin over this
    /// many group tables — what that many concurrently running work orders
    /// would leave for finalize to merge.
    Vectorized { tables: usize },
}

/// Drive the aggregate's work orders by hand through one implementation.
/// Returns the emitted rows in output order and the number of output blocks.
fn run_by_hand(
    plan: &Arc<QueryPlan>,
    a: usize,
    t: &Arc<Table>,
    path: Path,
) -> Result<(Vec<Vec<String>>, usize), EngineError> {
    let pool = BlockPool::new(MemoryTracker::new());
    let ctx = ExecContext::new(plan.clone(), pool, BlockFormat::Row, OUT_BLOCK_BYTES, 4)?;
    let (group_by, aggs) = match &plan.op(a).kind {
        OperatorKind::Aggregate { group_by, aggs, .. } => (group_by, aggs),
        _ => unreachable!("plans here end in an aggregate"),
    };
    let free_list = &ctx.runtimes[a].agg_tables;
    if let Path::Vectorized { tables } = path {
        for _ in 0..tables {
            let table = GroupTable::new(&plan.input_schema(a), group_by, aggs)?;
            free_list.lock().push(table);
        }
    }
    for blk in t.blocks() {
        match path {
            Path::Scalar => aggregate::execute_block_scalar(&ctx, a, &blk.clone())?,
            Path::Vectorized { .. } => {
                let out = aggregate::execute_block(&ctx, a, &blk.clone())?;
                // The next block goes to the next table.
                free_list.lock().rotate_right(1);
                out
            }
        };
    }
    let scalar = matches!(path, Path::Scalar);
    let mut blocks = if scalar {
        aggregate::execute_finalize_scalar(&ctx, a)?
    } else {
        aggregate::execute_finalize(&ctx, a)?
    };
    blocks.extend(ctx.output(a).flush());
    let rows = blocks.iter().flat_map(raw_rows).collect();
    Ok((rows, blocks.len()))
}

fn engine_config(parallel: bool) -> EngineConfig {
    let base = if parallel {
        EngineConfig::parallel(2)
    } else {
        EngineConfig::serial()
    };
    EngineConfig {
        temp_format: BlockFormat::Row,
        ..base
    }
    .with_block_bytes(OUT_BLOCK_BYTES)
}

/// Run through `Engine`; sorted byte-identity rows and the block count.
fn run_engine(plan: &QueryPlan, parallel: bool) -> Result<(Vec<Vec<String>>, usize), EngineError> {
    let result = Engine::new(engine_config(parallel)).execute(plan.clone())?;
    let mut rows: Vec<Vec<String>> = result.blocks.iter().flat_map(|b| raw_rows(b)).collect();
    rows.sort();
    Ok((rows, result.blocks.len()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The vectorized aggregate emits exactly the scalar reference's rows,
    /// in the same order and the same number of blocks, and both engine
    /// drivers agree with it.
    #[test]
    fn vectorized_aggregate_matches_scalar_reference(case in arb_case()) {
        let t = table(&case);
        let (aggs, names) = all_aggs();
        let (plan, a) = plan(&t, case.group_by.clone(), aggs, &names);
        let plan = Arc::new(plan);
        let (scalar_rows, scalar_blocks) = run_by_hand(&plan, a, &t, Path::Scalar).unwrap();
        let vectorized = Path::Vectorized { tables: case.tables };
        let (vector_rows, vector_blocks) = run_by_hand(&plan, a, &t, vectorized).unwrap();
        prop_assert_eq!(&vector_rows, &scalar_rows, "group by {:?}", case.group_by);
        prop_assert_eq!(vector_blocks, scalar_blocks);

        // Not vacuous: one row per distinct key (one for a scalar aggregate).
        let mut keys: Vec<Vec<String>> = scalar_rows
            .iter()
            .map(|r| r[..case.group_by.len()].to_vec())
            .collect();
        keys.dedup();
        prop_assert_eq!(keys.len(), scalar_rows.len());
        if case.group_by.is_empty() {
            prop_assert_eq!(scalar_rows.len(), 1);
        }

        let mut sorted = scalar_rows.clone();
        sorted.sort();
        for parallel in [false, true] {
            let (rows, blocks) = run_engine(&plan, parallel).unwrap();
            prop_assert_eq!(&rows, &sorted, "engine parallel={}", parallel);
            prop_assert_eq!(blocks, scalar_blocks, "engine parallel={}", parallel);
        }
    }
}

/// `SUM(Int64)` over `values` split into blocks of `per_block` rows, by
/// every path: the result, or the error's operator name.
fn int_sum_everywhere(values: &[i64], per_block: usize) -> Vec<Result<Vec<String>, String>> {
    let s = Schema::from_pairs(&[("g", DataType::Int32), ("v", DataType::Int64)]);
    let tuple = s.tuple_width();
    let mut tb = TableBuilder::new("t", s, BlockFormat::Column, per_block * tuple);
    for &v in values {
        tb.append(&[Value::I32(1), Value::I64(v)]).unwrap();
    }
    let t = Arc::new(tb.finish());
    let mut out = Vec::new();
    for group_by in [vec![], vec![0]] {
        let (plan, a) = plan(&t, group_by, vec![AggSpec::sum(col(1))], &["s"]);
        let name = plan.op(a).name.clone();
        let plan = Arc::new(plan);
        let outcome = |r: Result<Vec<Vec<String>>, EngineError>| match r {
            Ok(rows) => Ok(rows.concat()),
            Err(EngineError::Overflow { op, .. }) if op == name => Err(op),
            Err(other) => panic!("unexpected error {other}"),
        };
        for path in [Path::Scalar, Path::Vectorized { tables: 2 }] {
            out.push(outcome(run_by_hand(&plan, a, &t, path).map(|r| r.0)));
        }
        for parallel in [false, true] {
            out.push(outcome(run_engine(&plan, parallel).map(|r| r.0)));
        }
    }
    out
}

/// Integer sums accumulate exactly: `[i64::MAX, 1, -1]` sums to `i64::MAX`
/// in every order and blocking (no wrap in release, no panic in debug), and
/// a total beyond `Int64` fails with an error naming the aggregate in every
/// order and blocking.
#[test]
fn int_sum_overflow_is_partition_invariant() {
    let orders = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    for (values, expect_ok) in [([i64::MAX, 1, -1], true), ([i64::MAX, 1, 1], false)] {
        let mut seen = None;
        for order in orders {
            let permuted: Vec<i64> = order.iter().map(|&i| values[i]).collect();
            for per_block in 1..=3 {
                for outcome in int_sum_everywhere(&permuted, per_block) {
                    assert_eq!(outcome.is_ok(), expect_ok, "{permuted:?} / {per_block}");
                    if let Ok(row) = &outcome {
                        assert!(row.contains(&format!("l{}", i64::MAX)));
                    }
                    match &seen {
                        None => seen = Some(outcome.map(|r| r.last().cloned())),
                        Some(s) => assert_eq!(s, &outcome.map(|r| r.last().cloned())),
                    }
                }
            }
        }
    }
}
