//! Driving a workload: set-up, the reference answers, and the timed loop.
//!
//! Every submission goes through the public API — `Engine::execute_sql` or
//! `QueryService::submit_sql` untraced; `parse` → `bind` → `lower` →
//! `Engine::execute` or `QueryService::submit_with` traced — and every
//! result is compared with the reference answer before it counts.

use crate::spans::{fold, Span, SpanLog};
use crate::spec::OP_KINDS;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use uot::engine::{
    DegradePolicy, Engine, EngineConfig, EngineError, FusionPolicy, HubSnapshot, MetricsHub,
    QueryPlan, QueryResult, QueryService, ServiceConfig,
};
use uot::storage::{Catalog, Value};
use uot::tpch::{all_queries, build_query, sql_text, QueryId, TpchConfig, TpchDb};

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 3;
/// Passes every run makes at least, so a traced run has both kinds.
const MIN_PASSES: usize = 2;
/// Spans kept in memory for the span file; the fold sees every span.
const SPAN_CAP: usize = 100_000;

/// How a workload is configured. The sizes are the workload's definition:
/// changing one makes a different benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub scale_factor: f64,
    pub block_bytes: usize,
    pub system: SystemKind,
}

#[derive(Debug, Clone, Copy)]
pub enum SystemKind {
    /// One serial `Engine`; passes walk the 14 queries in TPC-H order.
    Engine {
        fusion: FusionPolicy,
        budget: Option<usize>,
        degrade: DegradePolicy,
    },
    /// A `QueryService` fed by closed-loop clients, each walking the 14
    /// queries from its own seeded offset.
    Service { workers: usize, clients: usize },
}

pub fn config(workload: &str) -> Option<Config> {
    let serial = |fusion, budget, degrade| SystemKind::Engine {
        fusion,
        budget,
        degrade,
    };
    Some(match workload {
        "tpch-fused" => Config {
            scale_factor: 0.1,
            block_bytes: 128 << 10,
            system: serial(FusionPolicy::Auto, None, DegradePolicy::Off),
        },
        "tpch-staged" => Config {
            scale_factor: 0.05,
            block_bytes: 8 << 10,
            system: serial(FusionPolicy::Never, None, DegradePolicy::Off),
        },
        "service-mix" => Config {
            scale_factor: 0.05,
            block_bytes: 128 << 10,
            system: SystemKind::Service {
                workers: 2,
                clients: 2,
            },
        },
        "spill-tight" => Config {
            scale_factor: 0.05,
            block_bytes: 32 << 10,
            system: serial(FusionPolicy::Auto, Some(4 << 20), DegradePolicy::Spill),
        },
        _ => return None,
    })
}

/// Exact per-submission counts. On a serial engine they are a pure function
/// of the data, so they must repeat on every pass.
#[derive(Debug, Default)]
pub struct Counts {
    pub work_orders: u64,
    pub op_work_orders: [u64; OP_KINDS.len()],
    pub transfers: u64,
    pub edge_blocks: u64,
    pub edge_bytes: u64,
    pub edge_stalls: u64,
    pub edge_sum_staged: u64,
    pub pool_created: u64,
    pub pool_reused: u64,
    pub peak_temp_bytes: u64,
    pub hash_table_bytes: u64,
    pub spill_events: u64,
    pub spilled_bytes: u64,
    pub respill_depth: u64,
    pub fused: u64,
    pub staged: u64,
    pub rows_out: u64,
    pub result_rows: u64,
}

/// What one successful submission reports about itself.
#[derive(Debug)]
pub struct QueryStats {
    pub counts: Counts,
    pub wall: Duration,
    pub task_total: Duration,
    pub op_time: [Duration; OP_KINDS.len()],
    pub plan_cache_hit: Option<bool>,
    /// parse, bind, lower (traced submissions only).
    pub compile: Option<[Duration; 3]>,
}

#[derive(Debug)]
pub enum Outcome {
    Ok(Box<QueryStats>),
    /// The engine returned an error. `budget` marks `BudgetExceeded`.
    Failed {
        error: String,
        budget: bool,
    },
    /// The engine returned rows that differ from the reference.
    Mismatch,
}

#[derive(Debug)]
pub struct Sample {
    pub query: usize,
    pub latency: Duration,
    pub traced: bool,
    pub outcome: Outcome,
}

impl Sample {
    pub fn stats(&self) -> Option<&QueryStats> {
        match &self.outcome {
            Outcome::Ok(s) => Some(s),
            _ => None,
        }
    }

    /// The outcome with timings dropped, for the determinism check.
    fn signature(&self) -> String {
        match &self.outcome {
            Outcome::Ok(s) => format!("{:?}", s.counts),
            Outcome::Failed { error, .. } => format!("failed: {error}"),
            Outcome::Mismatch => "mismatch".to_string(),
        }
    }
}

/// Everything a run measured.
#[derive(Debug)]
pub struct RunData {
    pub setup_secs: Vec<f64>,
    pub reference_secs: f64,
    /// Submissions made during set-up (checked, not timed).
    pub setup_samples: Vec<Sample>,
    /// Submissions of the timed loop.
    pub samples: Vec<Sample>,
    pub window: Duration,
    /// Per-layer self times summed over traced submissions, nanoseconds.
    pub span_totals: BTreeMap<&'static str, f64>,
    /// Root span durations summed over traced submissions, nanoseconds.
    pub span_wall: f64,
    pub spans: SpanLog,
    /// Hub snapshots around the timed loop (traced runs, or a service).
    pub hub: Option<(HubSnapshot, HubSnapshot)>,
    pub serial: bool,
}

impl RunData {
    /// Compare every submission of each query with the first one. On a
    /// serial engine their counts and failures must be identical.
    pub fn determinism(&self) -> Result<(), String> {
        if !self.serial {
            return Ok(());
        }
        let mut first: BTreeMap<usize, String> = BTreeMap::new();
        for s in self.setup_samples.iter().chain(&self.samples) {
            let sig = s.signature();
            let want = first.entry(s.query).or_insert_with(|| sig.clone());
            if *want != sig {
                return Err(format!(
                    "{} did not repeat: first {want}, later {sig}",
                    QUERIES[s.query].label()
                ));
            }
        }
        Ok(())
    }

    /// FNV-1a over each query's first outcome signature: equal across two
    /// runs with one seed when the counts repeat.
    pub fn fingerprint(&self) -> u64 {
        let mut seen = BTreeMap::new();
        for s in self.setup_samples.iter().chain(&self.samples) {
            seen.entry(s.query).or_insert_with(|| s.signature());
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for sig in seen.values() {
            for b in sig.bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }
}

pub const QUERIES: [QueryId; 14] = [
    QueryId::Q1,
    QueryId::Q3,
    QueryId::Q4,
    QueryId::Q5,
    QueryId::Q6,
    QueryId::Q7,
    QueryId::Q8,
    QueryId::Q9,
    QueryId::Q10,
    QueryId::Q12,
    QueryId::Q14,
    QueryId::Q17,
    QueryId::Q18,
    QueryId::Q19,
];

enum System {
    Engine(Engine),
    Service(Box<QueryService>),
}

impl System {
    fn start(cfg: &Config, db: &TpchDb, hub: Option<Arc<MetricsHub>>) -> System {
        match cfg.system {
            SystemKind::Engine {
                fusion,
                budget,
                degrade,
            } => {
                let mut ec = EngineConfig::serial()
                    .with_block_bytes(cfg.block_bytes)
                    .with_fusion(fusion)
                    .with_memory_budget(budget)
                    .with_degrade(degrade);
                if let Some(hub) = hub {
                    ec = ec.with_hub(hub);
                }
                System::Engine(Engine::new(ec).with_catalog(db.catalog().clone()))
            }
            SystemKind::Service { workers, .. } => System::Service(Box::new(
                QueryService::start(ServiceConfig {
                    workers,
                    block_bytes: cfg.block_bytes,
                    catalog: db.catalog().clone(),
                    ..ServiceConfig::default()
                })
                .expect("a valid service configuration"),
            )),
        }
    }

    fn run_sql(&self, sql: &str) -> Result<QueryResult, EngineError> {
        match self {
            System::Engine(e) => e.execute_sql(sql),
            System::Service(s) => s.submit_sql(sql)?.wait(),
        }
    }

    fn run_plan(&self, plan: QueryPlan) -> Result<QueryResult, EngineError> {
        match self {
            System::Engine(e) => e.execute(plan),
            System::Service(s) => s.submit_with(plan, Default::default())?.wait(),
        }
    }
}

/// Where traced submissions leave their spans, for the whole run.
struct Sinks {
    epoch: Instant,
    next_submission: AtomicU64,
    spans: Mutex<SpanLog>,
    /// Folded self time per layer and root span time, nanoseconds.
    totals: Mutex<(BTreeMap<&'static str, f64>, f64)>,
}

/// What submissions share: the system, its catalog, the reference answers
/// and the span sinks.
struct Ctx<'a> {
    system: &'a System,
    catalog: &'a Catalog,
    reference: &'a [Vec<Vec<Value>>],
    sinks: &'a Sinks,
}

impl Ctx<'_> {
    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.sinks.epoch).as_nanos())
            .expect("run shorter than 584 years")
    }

    fn submit(&self, query: usize, traced: bool) -> Sample {
        let sql = sql_text(QUERIES[query]);
        let (latency, result, compile) = if traced {
            self.submit_traced(sql)
        } else {
            let t0 = Instant::now();
            let result = self.system.run_sql(sql);
            (t0.elapsed(), result, None)
        };
        let outcome = match result {
            Err(e) => Outcome::Failed {
                budget: matches!(e, EngineError::BudgetExceeded { .. }),
                error: e.to_string(),
            },
            Ok(r) if r.sorted_rows() != self.reference[query] => Outcome::Mismatch,
            Ok(r) => Outcome::Ok(Box::new(QueryStats {
                compile,
                ..stats(&r)
            })),
        };
        Sample {
            query,
            latency,
            traced,
            outcome,
        }
    }

    /// Drive the layers one call at a time, recording a span around each,
    /// then hang one span per work order under the engine span.
    #[allow(clippy::type_complexity)]
    fn submit_traced(
        &self,
        sql: &str,
    ) -> (
        Duration,
        Result<QueryResult, EngineError>,
        Option<[Duration; 3]>,
    ) {
        let submission = self.sinks.next_submission.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let ast = uot::sql::parse(sql).expect("TPC-H SQL text parses");
        let t1 = Instant::now();
        let logical = uot::sql::bind(&ast, self.catalog).expect("TPC-H SQL text binds");
        let t2 = Instant::now();
        let plan = uot::engine::lower(&logical).expect("TPC-H SQL text lowers");
        let t3 = Instant::now();
        let result = self.system.run_plan(plan);
        let t4 = Instant::now();

        let [n0, n1, n2, n3, n4] = [t0, t1, t2, t3, t4].map(|t| self.ns(t));
        let span = |name, start, end, parent| Span {
            name,
            start,
            end,
            parent,
            submission,
        };
        let mut tree = vec![
            span("query", n0, n4, None),
            span("sql.parse", n0, n1, Some(0)),
            span("sql.bind", n1, n2, Some(0)),
            span("sql.lower", n2, n3, Some(0)),
            span("engine", n3, n4, Some(0)),
        ];
        if let Ok(r) = &result {
            // Task times count from the engine's own start, which precedes
            // the return by the query's wall time.
            let origin = n4.saturating_sub(r.metrics.wall_time.as_nanos() as u64);
            for t in &r.metrics.tasks {
                let start = (origin + t.start.as_nanos() as u64).clamp(n3, n4);
                let end = (origin + t.end.as_nanos() as u64).clamp(start, n4);
                tree.push(span(
                    op_span_name(&r.metrics.ops[t.op].kind),
                    start,
                    end,
                    Some(4),
                ));
            }
        }
        let folded = fold(&tree);
        {
            let mut totals = self.sinks.totals.lock().expect("span totals lock");
            for (layer, ns) in folded {
                *totals.0.entry(layer).or_insert(0.0) += ns;
            }
            totals.1 += (n4 - n0) as f64;
        }
        self.sinks.spans.lock().expect("span log lock").keep(&tree);
        (t4 - t0, result, Some([t1 - t0, t2 - t1, t3 - t2]))
    }
}

fn op_span_name(kind: &str) -> &'static str {
    const NAMES: [&str; OP_KINDS.len()] = [
        "ops.select",
        "ops.probe",
        "ops.build",
        "ops.aggregate",
        "ops.sort",
        "ops.nlj",
        "ops.limit",
    ];
    NAMES[op_index(kind)]
}

fn op_index(kind: &str) -> usize {
    OP_KINDS
        .iter()
        .position(|k| *k == kind)
        .unwrap_or_else(|| panic!("operator kind {kind:?} is missing from spec::OP_KINDS"))
}

fn stats(r: &QueryResult) -> QueryStats {
    let m = &r.metrics;
    let mut c = Counts::default();
    let mut op_time = [Duration::ZERO; OP_KINDS.len()];
    for op in &m.ops {
        let k = op_index(&op.kind);
        c.op_work_orders[k] += op.work_orders as u64;
        op_time[k] += op.total_task_time;
        c.work_orders += op.work_orders as u64;
        c.rows_out += op.produced_rows as u64;
    }
    for e in &m.edges {
        c.transfers += (e.flushes + e.partial_flushes) as u64;
        c.edge_blocks += e.blocks as u64;
        c.edge_bytes += e.bytes as u64;
        c.edge_stalls += e.stalls as u64;
        c.edge_sum_staged += e.sum_staged as u64;
    }
    c.pool_created = m.pool.created as u64;
    c.pool_reused = m.pool.reused as u64;
    c.peak_temp_bytes = m.peak_temp_bytes as u64;
    c.hash_table_bytes = m.hash_table_bytes.iter().map(|(_, b)| *b as u64).sum();
    c.spill_events = m.spill_events as u64;
    c.spilled_bytes = m.spilled_bytes as u64;
    c.respill_depth = m.respill_depth as u64;
    c.fused = m.fused_pipelines as u64;
    c.staged = m.staged_pipelines as u64;
    c.result_rows = m.result_rows as u64;
    QueryStats {
        counts: c,
        wall: m.wall_time,
        task_total: m.tasks.iter().map(|t| t.duration()).sum(),
        op_time,
        plan_cache_hit: m
            .plan_cache
            .map(|o| o == uot::engine::PlanCacheOutcome::Hit),
        compile: None,
    }
}

/// The reference answers: each query's hand-built plan on a serial,
/// staged, unbudgeted engine.
fn reference(db: &TpchDb) -> Vec<Vec<Vec<Value>>> {
    let engine = Engine::new(EngineConfig::serial().with_fusion(FusionPolicy::Never));
    assert_eq!(
        all_queries(),
        QUERIES,
        "the benchmark runs every TPC-H query"
    );
    QUERIES
        .iter()
        .map(|&q| {
            let plan = build_query(q, db).expect("hand-built plan");
            engine
                .execute(plan)
                .unwrap_or_else(|e| panic!("reference run of {} failed: {e}", q.label()))
                .sorted_rows()
        })
        .collect()
}

/// Start offset of `client` in the 14-query walk: a base taken from the
/// seed, with the clients spaced evenly around the walk, so every seed
/// pairs the same queries and only rotates where the walk starts.
pub fn client_offset(seed: u64, client: usize, clients: usize) -> usize {
    // splitmix64
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    let n = QUERIES.len();
    (z as usize % n + client * n / clients) % n
}

pub fn run(cfg: &Config, seed: u64, seconds: u64, trace: bool) -> RunData {
    let tpch = TpchConfig {
        scale_factor: cfg.scale_factor,
        block_bytes: cfg.block_bytes,
        seed,
        ..TpchConfig::default()
    };
    let serial = matches!(cfg.system, SystemKind::Engine { .. });
    // The hub feeds per-layer counters; untraced serial runs keep the
    // default observer-free path a user gets.
    let engine_hub = (trace && serial).then(|| Arc::new(MetricsHub::new()));
    let sinks = Sinks {
        epoch: Instant::now(),
        next_submission: AtomicU64::new(0),
        spans: Mutex::new(SpanLog::new(SPAN_CAP)),
        totals: Mutex::new((BTreeMap::new(), 0.0)),
    };

    let mut setup_secs = Vec::new();
    let mut setup_samples = Vec::new();
    let mut reference_secs = 0.0;
    let mut answers = Vec::new();
    let mut current: Option<(TpchDb, System)> = None;
    let reps = if trace { 1 } else { SETUP_REPS };
    for _ in 0..reps {
        drop(current.take());
        let t = Instant::now();
        let db = TpchDb::generate(tpch);
        let generate_secs = t.elapsed().as_secs_f64();
        if answers.is_empty() {
            let t = Instant::now();
            answers = reference(&db);
            reference_secs = t.elapsed().as_secs_f64();
        }
        let t = Instant::now();
        let system = System::start(cfg, &db, engine_hub.clone());
        let ctx = Ctx {
            system: &system,
            catalog: db.catalog(),
            reference: &answers,
            sinks: &sinks,
        };
        // The first pass compiles every text into the plan cache.
        setup_samples.extend((0..QUERIES.len()).map(|q| ctx.submit(q, false)));
        setup_secs.push(generate_secs + t.elapsed().as_secs_f64());
        current = Some((db, system));
    }
    let (db, system) = current.expect("at least one set-up");
    let hub_snapshot = |s: &System| match s {
        System::Service(svc) => Some(svc.hub_snapshot()),
        System::Engine(_) => engine_hub.as_ref().map(|h| h.snapshot()),
    };
    let hub_before = hub_snapshot(&system);
    let ctx = Ctx {
        system: &system,
        catalog: db.catalog(),
        reference: &answers,
        sinks: &sinks,
    };
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    // Walks the 14 queries from `offset` until the time is up, finishing
    // whole passes; odd passes are traced in a traced run.
    let client = |offset: usize| {
        let mut out = Vec::new();
        let mut i = 0;
        while i < MIN_PASSES * QUERIES.len()
            || start.elapsed() < budget
            || (serial && i % QUERIES.len() != 0)
        {
            let traced = trace && (i / QUERIES.len()) % 2 == 1;
            out.push(ctx.submit((offset + i) % QUERIES.len(), traced));
            i += 1;
        }
        out
    };
    let samples = match cfg.system {
        SystemKind::Engine { .. } => client(0),
        SystemKind::Service { clients, .. } => std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let client = &client;
                    s.spawn(move || client(client_offset(seed, c, clients)))
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread"))
                .collect()
        }),
    };
    let window = start.elapsed();
    let hub = hub_before.zip(hub_snapshot(&system));
    if let System::Service(svc) = system {
        svc.shutdown();
    }
    let (span_totals, span_wall) = sinks.totals.into_inner().expect("span totals lock");
    RunData {
        setup_secs,
        reference_secs,
        setup_samples,
        samples,
        window,
        span_totals,
        span_wall,
        spans: sinks.spans.into_inner().expect("span log lock"),
        hub,
        serial,
    }
}
