//! One query lifecycle, three drivers: the same plans run on `Engine` in
//! serial mode, on `Engine` with a one-worker pool, and on a one-worker
//! `QueryService`, under three memory settings — no budget, a budget that
//! trips with `DegradePolicy::Off`, and the same budget with
//! `DegradePolicy::Spill`. With one worker all three follow the same
//! dispatch sequence, so results, failures and every scheduling count must
//! agree exactly, and the service's tracker must drain to zero. Unbudgeted,
//! each driver also runs traced, and the traces must agree too.

use std::sync::Arc;
use uot_core::{
    DegradePolicy, Engine, EngineConfig, EngineError, ExecOptions, JoinType, PlanBuilder,
    QueryPlan, QueryResult, QueryService, ServiceConfig, SortKey, Source, TraceEventKind, Uot,
};
use uot_expr::{cmp, col, lit, AggSpec, CmpOp, Predicate};
use uot_storage::{BlockFormat, DataType, Schema, Table, TableBuilder, Value};

/// 96-byte temporary blocks: producers emit many small blocks, so staging,
/// transfers and the budget all come into play on tiny tables.
const BLOCK_BYTES: usize = 96;
/// Reservation of an unbudgeted service query: far beyond any plan here.
const ROOMY: usize = 16 << 20;

fn table(name: &str, n: i32) -> Arc<Table> {
    let s = Schema::from_pairs(&[("k", DataType::Int32), ("v", DataType::Float64)]);
    let mut tb = TableBuilder::new(name, s, BlockFormat::Column, 96);
    for i in 0..n {
        tb.append(&[Value::I32(i % 250), Value::F64(i as f64 * 0.5)])
            .unwrap();
    }
    Arc::new(tb.finish())
}

fn plans() -> Vec<(&'static str, QueryPlan)> {
    let dim = table("dim", 200);
    let fact = table("fact", 600);
    let mut out = Vec::new();

    // Select -> probe -> aggregate: the fusable shape.
    let mut pb = PlanBuilder::new();
    let b = pb
        .build_hash(Source::Table(dim.clone()), vec![0], vec![1])
        .unwrap();
    let s = pb
        .filter(
            Source::Table(fact.clone()),
            cmp(col(0), CmpOp::Lt, lit(150i32)),
        )
        .unwrap();
    let p = pb
        .probe(Source::Op(s), b, vec![0], vec![0], vec![0], JoinType::Inner)
        .unwrap();
    let a = pb
        .aggregate(
            Source::Op(p),
            vec![0],
            vec![AggSpec::count_star(), AggSpec::sum(col(1))],
            &["n", "s"],
        )
        .unwrap();
    out.push(("select_probe_agg", pb.build(a).unwrap()));

    // A join whose build side dwarfs the budget: the grace-join shape.
    let mut pb = PlanBuilder::new();
    let b = pb
        .build_hash(Source::Table(dim.clone()), vec![0], vec![1])
        .unwrap();
    let p = pb
        .probe(
            Source::Table(fact.clone()),
            b,
            vec![0],
            vec![0, 1],
            vec![0],
            JoinType::Inner,
        )
        .unwrap();
    out.push(("big_join", pb.build(p).unwrap()));

    // Pass-through filter into a top-k sort: bulk-collected sort input.
    let mut pb = PlanBuilder::new();
    let s = pb
        .filter(Source::Table(fact.clone()), Predicate::True)
        .unwrap();
    let so = pb
        .sort(Source::Op(s), vec![SortKey::desc(1)], Some(20))
        .unwrap();
    out.push(("filter_sort", pb.build(so).unwrap()));

    // Nested-loops join over a materialized inner side, then a limit.
    let small = table("small", 40);
    let mut pb = PlanBuilder::new();
    let inner = pb
        .filter(
            Source::Table(small.clone()),
            cmp(col(0), CmpOp::Lt, lit(10i32)),
        )
        .unwrap();
    let j = pb
        .nested_loops(
            Source::Table(small),
            inner,
            vec![(0, CmpOp::Eq, 0)],
            vec![0],
            vec![1],
        )
        .unwrap();
    let l = pb.limit(Source::Op(j), 7).unwrap();
    out.push(("nlj_limit", pb.build(l).unwrap()));
    out
}

#[derive(Clone, Copy, Debug)]
enum Memory {
    Unbounded,
    Off(usize),
    Spill(usize),
}

impl Memory {
    fn budget(self) -> Option<usize> {
        match self {
            Memory::Unbounded => None,
            Memory::Off(b) | Memory::Spill(b) => Some(b),
        }
    }

    fn degrade(self) -> DegradePolicy {
        match self {
            Memory::Spill(_) => DegradePolicy::Spill,
            _ => DegradePolicy::Off,
        }
    }
}

/// Everything a driver must reproduce exactly.
#[derive(Debug, PartialEq)]
enum Outcome {
    Done {
        rows: Vec<Vec<Value>>,
        work_orders: Vec<usize>,
        edge_blocks: Vec<usize>,
        pool_created: usize,
        pool_reused: usize,
        peak_temp_bytes: usize,
        fused: usize,
        staged: usize,
        spill_events: usize,
    },
    Failed {
        variant: String,
        op: Option<String>,
    },
}

fn outcome(result: Result<QueryResult, EngineError>) -> Outcome {
    match result {
        Ok(r) => {
            let m = &r.metrics;
            Outcome::Done {
                rows: r.sorted_rows(),
                work_orders: m.ops.iter().map(|o| o.work_orders).collect(),
                edge_blocks: m.edges.iter().map(|e| e.blocks).collect(),
                pool_created: m.pool.created,
                pool_reused: m.pool.reused,
                peak_temp_bytes: m.peak_temp_bytes,
                fused: m.fused_pipelines,
                staged: m.staged_pipelines,
                spill_events: m.spill_events,
            }
        }
        Err(e) => {
            let op = match &e {
                EngineError::BudgetExceeded { op, .. } | EngineError::WorkOrderPanic { op, .. } => {
                    Some(op.clone())
                }
                _ => None,
            };
            let debug = format!("{e:?}");
            let variant = debug
                .split(|c: char| !c.is_alphanumeric())
                .next()
                .unwrap_or_default()
                .to_string();
            Outcome::Failed { variant, op }
        }
    }
}

/// Per-kind event counts of a traced run: work orders dispatched and
/// finished, and edge flushes. Every driver's sink keeps every event.
fn trace_counts(result: Result<QueryResult, EngineError>) -> [usize; 3] {
    let trace = result.unwrap().trace.expect("a traced run returns a trace");
    assert_eq!(trace.dropped, 0, "trace sink dropped events");
    [
        trace.count(|k| matches!(k, TraceEventKind::WorkOrderDispatched { .. })),
        trace.count(|k| matches!(k, TraceEventKind::WorkOrderFinished { .. })),
        trace.count(|k| matches!(k, TraceEventKind::TransferFlushed { .. })),
    ]
}

fn engine(base: EngineConfig, memory: Memory) -> Engine {
    Engine::new(
        base.with_block_bytes(BLOCK_BYTES)
            .with_uot(Uot::Table)
            .with_memory_budget(memory.budget())
            .with_degrade(memory.degrade()),
    )
}

#[test]
fn engine_serial_engine_pool_and_service_agree() {
    let svc = QueryService::start(ServiceConfig {
        workers: 1,
        memory_budget: 64 << 20,
        default_reservation: ROOMY,
        block_bytes: BLOCK_BYTES,
        default_uot: Uot::Table,
        ..Default::default()
    })
    .unwrap();
    let (mut fused, mut tripped, mut spilled) = (0, 0, 0);
    for memory in [Memory::Unbounded, Memory::Off(4096), Memory::Spill(4096)] {
        for (name, plan) in plans() {
            let label = format!("{name} {memory:?}");
            let serial = outcome(engine(EngineConfig::serial(), memory).execute(plan.clone()));
            let pooled = outcome(engine(EngineConfig::parallel(1), memory).execute(plan.clone()));
            let opts = ExecOptions::default()
                .with_reservation(memory.budget().unwrap_or(ROOMY))
                .with_degrade(memory.degrade());
            if let Memory::Unbounded = memory {
                let serial = engine(EngineConfig::serial().traced(), memory).execute(plan.clone());
                let pooled =
                    engine(EngineConfig::parallel(1).traced(), memory).execute(plan.clone());
                let service = svc.submit_with(plan.clone(), opts.clone().traced());
                let serial = trace_counts(serial);
                assert!(serial[0] > 0, "{label}: traced run dispatched nothing");
                assert_eq!(
                    serial,
                    trace_counts(pooled),
                    "{label}: traced serial vs pool"
                );
                assert_eq!(
                    serial,
                    trace_counts(service.unwrap().wait()),
                    "{label}: traced serial vs service"
                );
            }
            let service = outcome(svc.submit_with(plan, opts).unwrap().wait());
            assert_eq!(serial, pooled, "{label}: Engine serial vs pool");
            assert_eq!(serial, service, "{label}: Engine serial vs service");
            assert_eq!(svc.memory_in_use(), 0, "{label}: service tracker drains");
            match &serial {
                Outcome::Done {
                    fused: f,
                    spill_events: s,
                    ..
                } => {
                    fused += *f;
                    spilled += *s;
                }
                Outcome::Failed { variant, op } => {
                    assert_eq!(variant, "BudgetExceeded", "{label}");
                    assert!(op.as_ref().is_some_and(|op| !op.is_empty()), "{label}");
                    tripped += 1;
                }
            }
        }
    }
    // The matrix exercises what it claims to: fused pipelines, a budget
    // that trips without spill, and spill traffic with it.
    assert!(fused > 0, "no plan fused");
    assert!(tripped > 0, "no budget tripped under DegradePolicy::Off");
    assert!(spilled > 0, "no plan spilled under DegradePolicy::Spill");
    svc.shutdown();
}
