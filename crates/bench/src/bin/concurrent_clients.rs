//! Concurrent-clients benchmark: N closed-loop clients firing a mixed TPC-H
//! workload at one [`QueryService`] through the SQL front door — one shared
//! worker pool, one shared memory budget, one shared plan cache — reporting
//! per-query latency (p50/p99), throughput, the compile-vs-cached
//! latency split for the two UoT extremes the paper contrasts everywhere,
//! and how many stream pipelines ran fused (push-based, UoT -> 0) versus
//! staged through transfer edges.
//!
//! Every client submits SQL text (`uot_tpch::sql_text`), so repeated rounds
//! of the same statement exercise the service-wide [`PlanCache`]: the first
//! submission of each statement compiles (a cache miss), every later one
//! reuses the compiled physical plan (a hit). Submitting pre-built plans per
//! iteration — what this benchmark used to do — would rebuild identical
//! plans `clients x rounds` times and never touch the cache.
//!
//! ```text
//! cargo run --release -p uot-bench --bin concurrent_clients [-- --smoke]
//! ```
//!
//! Knobs (same conventions as the rest of the harness): `UOT_SF`,
//! `UOT_WORKERS`, plus `UOT_CLIENTS` (default 4) and `UOT_ROUNDS` (queries
//! per client, default 5). `--smoke` forces a tiny, CI-friendly
//! configuration (4 clients x 2 rounds at SF 0.005) and keeps the hard
//! assertions: every query succeeds, the plan cache records hits, and the
//! shared pool tracker returns to exactly 0 bytes after all queries drain.

use std::time::{Duration, Instant};
use uot_bench::{ms, workers, ReportTable};
use uot_core::obs::hub::bucket_index;
use uot_core::{
    DegradePolicy, ExecOptions, HubHistogram, PlanCacheOutcome, QueryService, ServiceConfig, Uot,
};
use uot_storage::BlockFormat;
use uot_tpch::{sql_text, QueryId as TpchQuery, TpchConfig, TpchDb};

/// The mixed workload: scan-heavy aggregation, a shallow and a deep probe
/// pipeline, a semi join and a disjunctive join — one of each plan shape.
const MIX: [TpchQuery; 5] = [
    TpchQuery::Q1,
    TpchQuery::Q3,
    TpchQuery::Q6,
    TpchQuery::Q12,
    TpchQuery::Q19,
];

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
        .max(1)
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let ix = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[ix]
}

struct RunStats {
    p50: Duration,
    p99: Duration,
    qps: f64,
    queries: usize,
    /// Latencies of submissions that compiled (plan-cache misses).
    compiled: Vec<Duration>,
    /// Latencies of submissions served from the plan cache.
    cached: Vec<Duration>,
    /// Stream pipelines executed as fused push-based loops, summed over
    /// every submission.
    fused_pipelines: usize,
    /// Stream pipelines executed via staged transfer edges, summed over
    /// every submission.
    staged_pipelines: usize,
    /// Bytes written to the disk spill tier, summed over every submission.
    spilled_bytes: usize,
    /// Submissions that degraded instead of failing their budget: spilled
    /// to disk.
    degraded_queries: usize,
}

/// Drive `clients` closed-loop clients for `rounds` rounds each against one
/// service; every client walks the mix starting at its own offset so distinct
/// plan shapes are in flight simultaneously. Each submission is SQL text and
/// records whether its plan came from the shared cache.
/// One submission's contribution to the report.
struct Sample {
    latency: Duration,
    outcome: PlanCacheOutcome,
    fused: usize,
    staged: usize,
    spilled_bytes: usize,
    degraded: bool,
}

fn drive(service: &QueryService, clients: usize, rounds: usize, opts: &ExecOptions) -> RunStats {
    let started = Instant::now();
    let samples: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let opts = opts.clone();
                s.spawn(move || {
                    let mut lat = Vec::with_capacity(rounds);
                    for r in 0..rounds {
                        let q = MIX[(c + r) % MIX.len()];
                        let t0 = Instant::now();
                        let handle = service
                            .submit_sql_with(sql_text(q), opts.clone())
                            .expect("service accepts");
                        let result = handle
                            .wait()
                            .unwrap_or_else(|e| panic!("client {c} {} failed: {e}", q.label()));
                        assert!(result.num_rows() > 0, "{} returned no rows", q.label());
                        let outcome = result
                            .metrics
                            .plan_cache
                            .expect("SQL submissions always report a cache outcome");
                        lat.push(Sample {
                            latency: t0.elapsed(),
                            outcome,
                            fused: result.metrics.fused_pipelines,
                            staged: result.metrics.staged_pipelines,
                            spilled_bytes: result.metrics.spilled_bytes,
                            degraded: result.metrics.spill_events > 0,
                        });
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = started.elapsed();
    let mut sorted: Vec<Duration> = samples.iter().map(|s| s.latency).collect();
    sorted.sort_unstable();
    let mut compiled: Vec<Duration> = samples
        .iter()
        .filter(|s| s.outcome == PlanCacheOutcome::Miss)
        .map(|s| s.latency)
        .collect();
    let mut cached: Vec<Duration> = samples
        .iter()
        .filter(|s| s.outcome == PlanCacheOutcome::Hit)
        .map(|s| s.latency)
        .collect();
    compiled.sort_unstable();
    cached.sort_unstable();
    RunStats {
        p50: percentile(&sorted, 0.50),
        p99: percentile(&sorted, 0.99),
        qps: sorted.len() as f64 / wall.as_secs_f64().max(1e-9),
        queries: sorted.len(),
        compiled,
        cached,
        fused_pipelines: samples.iter().map(|s| s.fused).sum(),
        staged_pipelines: samples.iter().map(|s| s.staged).sum(),
        spilled_bytes: samples.iter().map(|s| s.spilled_bytes).sum(),
        degraded_queries: samples.iter().filter(|s| s.degraded).count(),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sf = if smoke {
        0.005
    } else {
        std::env::var("UOT_SF")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0.02)
    };
    let clients = if smoke {
        4
    } else {
        env_usize("UOT_CLIENTS", 4)
    };
    let rounds = if smoke { 2 } else { env_usize("UOT_ROUNDS", 5) };
    let block_bytes = 32 * 1024;

    println!(
        "concurrent clients: {clients} clients x {rounds} rounds (SQL front door), SF {sf}, \
         {} workers{}",
        workers(),
        if smoke { " [smoke]" } else { "" }
    );
    let db = TpchDb::generate(
        TpchConfig::scale(sf)
            .with_block_bytes(block_bytes)
            .with_format(BlockFormat::Column),
    );

    let mut table = ReportTable::new(
        "Concurrent clients: mixed TPC-H SQL through one QueryService",
        &[
            "uot",
            "queries",
            "p50 ms",
            "p99 ms",
            "hub p50 ms",
            "hub p99 ms",
            "qps",
            "compiled",
            "hit",
            "p50 compile ms",
            "p50 cached ms",
            "fused",
            "staged",
            "spilled B",
            "degraded",
        ],
    );
    // The third row re-runs the low-UoT mix with DegradePolicy::Spill and a
    // reservation 16x below the comfortable default: queries that outgrow it
    // degrade to their per-query disk tier (the `spilled B` / `degraded`
    // columns) instead of failing admission-sized. The reservation must still
    // cover the non-evictable floor — in-flight transferred blocks and hash
    // table shards — so at smoke scale the spill columns may legitimately
    // read zero; `tpch_spill` is the harness that forces them nonzero.
    let configs = [
        ("low (1 block)", Uot::LOW, 16usize << 20, DegradePolicy::Off),
        ("high (table)", Uot::Table, 16 << 20, DegradePolicy::Off),
        ("low + spill", Uot::LOW, 1 << 20, DegradePolicy::Spill),
    ];
    for (label, uot, reservation, degrade) in configs {
        let service = QueryService::start(ServiceConfig {
            workers: workers(),
            block_bytes,
            default_uot: uot,
            memory_budget: 256 << 20,
            default_reservation: reservation,
            degrade,
            catalog: db.catalog().clone(),
            ..Default::default()
        })
        .expect("service starts");

        let stats = drive(&service, clients, rounds, &ExecOptions::default());

        // Cross-check the hand-rolled percentiles against the service's
        // always-on MetricsHub histogram. The hub measures submit-to-finalize
        // on the scheduler thread and its log-bucketed histogram reports each
        // quantile as its bucket's upper bound, so the two figures must land
        // in the same (or an adjacent) bucket — both use the same
        // round((n-1)*q) rank rule.
        let snap = service.hub_snapshot();
        let latency = snap.histogram(HubHistogram::QueryLatencyUs);
        assert_eq!(latency.count, stats.queries as u64);
        let hub_p50 = latency.quantile(0.50);
        let hub_p99 = latency.quantile(0.99);
        for (name, hub, hand) in [("p50", hub_p50, stats.p50), ("p99", hub_p99, stats.p99)] {
            let (a, b) = (bucket_index(hub), bucket_index(hand.as_micros() as u64));
            assert!(
                a.abs_diff(b) <= 1,
                "{label} {name}: hub bucket {a} ({hub} us) vs client bucket {b} ({} us)",
                hand.as_micros()
            );
        }

        // Cache-effectiveness invariants: each distinct statement compiles at
        // most a handful of times (racing first submissions may duplicate a
        // compile), and with more submissions than statements there must be
        // hits.
        let cache = service.plan_cache_stats();
        // Clients c..c+rounds walk a contiguous window of the mix, so the
        // distinct-statement count is known exactly.
        let distinct = MIX.len().min(clients + rounds - 1);
        assert_eq!(cache.entries, distinct);
        assert!(
            cache.hits > 0,
            "expected plan-cache hits with {} submissions over {distinct} statements",
            stats.queries
        );
        assert_eq!(cache.hits + cache.misses, stats.queries as u64);
        assert_eq!(stats.cached.len() + stats.compiled.len(), stats.queries);

        // The load-bearing invariant: with every query drained, no query's
        // temporary memory is still charged to the shared budget.
        let in_use = service.memory_in_use();
        assert_eq!(
            in_use, 0,
            "pool tracker must return to 0 after all queries drain (got {in_use} bytes)"
        );
        service.shutdown();

        table.row(vec![
            label.to_string(),
            stats.queries.to_string(),
            ms(stats.p50),
            ms(stats.p99),
            format!("{:.2}", hub_p50 as f64 / 1e3),
            format!("{:.2}", hub_p99 as f64 / 1e3),
            format!("{:.1}", stats.qps),
            stats.compiled.len().to_string(),
            format!("{:.0}%", 100.0 * cache.hit_rate()),
            ms(percentile(&stats.compiled, 0.50)),
            ms(percentile(&stats.cached, 0.50)),
            stats.fused_pipelines.to_string(),
            stats.staged_pipelines.to_string(),
            stats.spilled_bytes.to_string(),
            format!("{}/{}", stats.degraded_queries, stats.queries),
        ]);
    }
    table.emit();
    println!("pool tracker returned to 0 bytes after both runs: OK");

    // Contrast point: the same total work submitted one query at a time
    // (admission serialized by a budget that fits exactly one reservation).
    let serialized = QueryService::start(ServiceConfig {
        workers: workers(),
        block_bytes,
        default_uot: Uot::LOW,
        memory_budget: 16 << 20,
        default_reservation: 16 << 20,
        catalog: db.catalog().clone(),
        ..Default::default()
    })
    .expect("service starts");
    let t0 = Instant::now();
    let handles: Vec<_> = (0..clients * rounds)
        .map(|i| {
            serialized
                .submit_sql_with(sql_text(MIX[i % MIX.len()]), ExecOptions::default())
                .expect("service accepts")
        })
        .collect();
    for h in handles {
        h.wait().expect("serialized query runs");
    }
    let serial_wall = t0.elapsed();
    assert_eq!(serialized.memory_in_use(), 0);
    assert!(serialized.plan_cache_stats().hits > 0);
    println!(
        "admission-serialized reference (budget = one reservation): {} queries in {} ms \
         ({:.1} qps)",
        clients * rounds,
        ms(serial_wall),
        (clients * rounds) as f64 / serial_wall.as_secs_f64().max(1e-9)
    );
}
