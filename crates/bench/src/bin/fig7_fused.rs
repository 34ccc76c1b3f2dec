//! Fig. 7 extension: fused pipelines (UoT -> 0) vs the best static UoT.
//!
//! For every Fig. 7 TPC-H query and block size this measures the staged
//! path at both UoT extremes ([`FusionPolicy::Never`]), the fused push-based
//! fast path at the same extremes ([`FusionPolicy::Always`] — fused chains
//! stage nothing internally, the extreme only governs the remaining staged
//! edges such as build sides), and the cost-model decision
//! ([`FusionPolicy::Auto`]). Three invariants are asserted per
//! configuration, not just reported:
//!
//! * the fused run actually fused (`fused_pipelines` matches the planned
//!   chain count and is nonzero),
//! * a traced run shows **zero** `EdgeStaged`/`TransferFlushed` events whose
//!   producer sits inside a fused region (only chain tails and staged
//!   pipelines may touch a transfer edge), and
//! * fused and staged runs return byte-identical results
//!   (`sorted_rows()` equality is exact: aggregates use `ExactF64Sum`).
//!
//! ```text
//! cargo run --release -p uot-bench --bin fig7_fused [-- results/fig7_fused.json] [--smoke]
//! ```
//!
//! `--smoke` shrinks to SF 0.005 / one block size / 2 runs for CI while
//! keeping every assertion.

use uot_bench::{
    block_sizes, engine_config, measure_query, ms, runs, scale_factor, uot_extremes, workers,
    ReportTable,
};
use uot_core::{fusion::plan_fusion, Engine, FusionPolicy, TraceEventKind, Uot};
use uot_storage::BlockFormat;
use uot_tpch::{all_queries, build_query, TpchConfig, TpchDb};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sf = if smoke { 0.005 } else { scale_factor() };
    let sizes = if smoke {
        vec![("32KB", 32 * 1024)]
    } else {
        block_sizes()
    };
    let n_runs = if smoke { 2 } else { runs() };

    println!(
        "fig7_fused: fused vs best static UoT, SF {sf}, {} workers, {} runs{}",
        workers(),
        n_runs,
        if smoke { " [smoke]" } else { "" }
    );
    let mut table = ReportTable::new(
        "Fig. 7 extension: fused pipelines (UoT -> 0) vs best static UoT (ms), column store",
        &[
            "query",
            "block size",
            "staged low",
            "staged high",
            "fused low",
            "fused high",
            "auto",
            "fused/best-staged",
            "fused pipes",
        ],
    );

    // (query label, best staged secs, best fused secs) per row, for the
    // per-query win summary below.
    let mut outcomes: Vec<(String, f64, f64)> = Vec::new();

    for (bs_label, bs) in sizes {
        let db = TpchDb::generate(
            TpchConfig::scale(sf)
                .with_block_bytes(bs)
                .with_format(BlockFormat::Column),
        );
        for q in all_queries() {
            let plan = build_query(q, &db).expect("plan builds");

            let mut staged = Vec::new();
            let mut fused = Vec::new();
            let mut staged_low_result = None;
            for (i, (_, uot)) in uot_extremes().iter().enumerate() {
                let never = engine_config(bs, *uot, workers()).with_fusion(FusionPolicy::Never);
                let (t, r) = measure_query(&plan, &never, n_runs);
                assert_eq!(
                    r.metrics.fused_pipelines,
                    0,
                    "{}: Never must not fuse",
                    q.label()
                );
                staged.push(t);
                if i == 0 {
                    staged_low_result = Some(r);
                }

                let always = engine_config(bs, *uot, workers()).with_fusion(FusionPolicy::Always);
                let (t, _) = measure_query(&plan, &always, n_runs);
                fused.push(t);
            }
            let auto = engine_config(bs, Uot::LOW, workers()).with_fusion(FusionPolicy::Auto);
            let (auto_t, _) = measure_query(&plan, &auto, n_runs);

            // One traced run proves the fused fast path stages nothing
            // inside any fused region and returns the staged answer.
            let traced = Engine::new(
                engine_config(bs, Uot::LOW, workers())
                    .with_fusion(FusionPolicy::Always)
                    .traced(),
            )
            .execute(plan.clone().with_uniform_uot(Uot::LOW))
            .expect("traced fused run");
            let membership = plan_fusion(&plan, FusionPolicy::Always, workers(), bs, Uot::LOW);
            assert!(
                membership.fused_count() > 0,
                "{}: expected at least one fusible pipeline",
                q.label()
            );
            assert_eq!(
                traced.metrics.fused_pipelines,
                membership.fused_count(),
                "{}: engine fused a different chain set than planned",
                q.label()
            );
            let interior_staged = traced
                .trace
                .as_ref()
                .expect("tracing was enabled")
                .events
                .iter()
                .filter(|e| {
                    let producer = match e.kind {
                        TraceEventKind::EdgeStaged { producer, .. }
                        | TraceEventKind::TransferFlushed { producer, .. } => producer,
                        _ => return false,
                    };
                    // Interior = any chain member except the tail (the tail
                    // owns the chain's real output edge).
                    membership.head_of_member(producer).is_some()
                        && membership.chain_for_tail(producer).is_none()
                })
                .count();
            assert_eq!(
                interior_staged,
                0,
                "{}: {interior_staged} blocks staged inside fused regions",
                q.label()
            );
            assert_eq!(
                traced.sorted_rows(),
                staged_low_result.expect("staged low ran").sorted_rows(),
                "{}: fused and staged answers differ",
                q.label()
            );

            let best_staged = staged.iter().min().copied().expect("two extremes");
            let best_fused = fused.iter().min().copied().expect("two extremes");
            outcomes.push((
                q.label(),
                best_staged.as_secs_f64(),
                best_fused.as_secs_f64(),
            ));
            table.row(vec![
                q.label(),
                bs_label.to_string(),
                ms(staged[0]),
                ms(staged[1]),
                ms(fused[0]),
                ms(fused[1]),
                ms(auto_t),
                format!(
                    "{:.2}",
                    best_fused.as_secs_f64() / best_staged.as_secs_f64().max(1e-12)
                ),
                traced.metrics.fused_pipelines.to_string(),
            ]);
        }
    }
    table.emit();

    // Per-query verdict: sum each query's best-staged and best-fused times
    // across block sizes; fused "matches or beats" within 2% noise.
    let mut queries: Vec<String> = outcomes.iter().map(|(q, _, _)| q.clone()).collect();
    queries.sort();
    queries.dedup();
    let wins = queries
        .iter()
        .filter(|q| {
            let (s, f) = outcomes
                .iter()
                .filter(|(oq, _, _)| oq == *q)
                .fold((0.0, 0.0), |(s, f), (_, os, of)| (s + os, f + of));
            f <= s * 1.02
        })
        .count();
    println!(
        "fused matched or beat the best static UoT on {wins} of {} queries",
        queries.len()
    );
    println!("zero blocks staged inside fused regions (trace verified): OK");
    println!("fused == staged results on every query (ExactF64Sum byte identity): OK");
}
