//! Turning a run's samples into the named metrics.

use crate::run::{QueryStats, RunData, Sample, QUERIES};
use crate::spans::UNATTRIBUTED;
use crate::spec::{OP_KINDS, SPAN_LAYERS};
use crate::stats::{geomean, median, tail};
use uot::engine::{HubCounter, HubHistogram};

/// A metric value with its unit and an optional note printed beside it.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        note: String::new(),
    }
}

const MB: f64 = 1e6;

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Σ over queries of the median of `f` over that query's successful
/// samples: the value of one 14-query pass, robust to outlier passes.
fn per_pass<'a>(
    samples: impl Iterator<Item = &'a Sample>,
    f: impl Fn(&Sample, &QueryStats) -> f64,
) -> f64 {
    let mut by_query = vec![Vec::new(); QUERIES.len()];
    for s in samples {
        if let Some(st) = s.stats() {
            by_query[s.query].push(f(s, st));
        }
    }
    by_query.iter().filter_map(|v| median(v)).sum()
}

/// Submissions of the timed loop that counted as successes.
fn ok(data: &RunData) -> impl Iterator<Item = &Sample> {
    data.samples.iter().filter(|s| s.stats().is_some())
}

pub fn end_to_end(data: &RunData) -> Result<Vec<Metric>, String> {
    let attempted = data.samples.len() as f64;
    let ok_count = ok(data).count() as f64;
    let latencies: Vec<f64> = ok(data).map(|s| ms(s.latency)).collect();
    let p50 = median(&latencies).ok_or("no successful submission")?;
    let tail = tail(&latencies).ok_or("too few successful submissions for a tail")?;
    let per_query: Vec<f64> = (0..QUERIES.len())
        .filter_map(|q| {
            let v: Vec<f64> = ok(data)
                .filter(|s| s.query == q)
                .map(|s| ms(s.latency))
                .collect();
            median(&v)
        })
        .collect();
    let geo = geomean(&per_query).ok_or("no per-query median")?;
    let peak = per_pass(data.samples.iter(), |_, st| {
        st.counts.peak_temp_bytes as f64
    }) / MB;
    let mut m = vec![
        metric("setup_s", median(&data.setup_secs).ok_or("no set-up")?, "s"),
        metric("qps", ok_count / data.window.as_secs_f64(), "1/s"),
        metric("latency_p50_ms", p50, "ms"),
        metric("latency_tail_ms", tail.value, "ms"),
        metric("geomean_ms", geo, "ms"),
        metric("peak_temp_mb", peak, "MB"),
        metric("success_share", ok_count / attempted, "ratio"),
    ];
    m[3].note = format!("p{:.2} of {} samples", tail.percentile, tail.samples);
    m[4].note = format!("over {} queries' medians", per_query.len());
    m[0].note = format!("median of {} set-ups", data.setup_secs.len());
    Ok(m)
}

pub fn per_layer(data: &RunData) -> Result<Vec<Metric>, String> {
    let untraced = || ok(data).filter(|s| !s.traced);
    let traced = || ok(data).filter(|s| s.traced);
    let pass = |f: &dyn Fn(&Sample, &QueryStats) -> f64| per_pass(untraced(), f);
    let mut out = Vec::new();
    let mut push = |name: &str, value: f64, unit| out.push(metric(name, value, unit));

    let n = QUERIES.len() as f64;
    for (i, layer) in ["sql.parse_us", "sql.bind_us", "sql.lower_us"]
        .iter()
        .enumerate()
    {
        let us = per_pass(traced(), |_, st| {
            st.compile.expect("traced samples time compilation")[i].as_secs_f64() * 1e6
        });
        push(layer, us / n, "us");
    }
    let cached: Vec<bool> = untraced()
        .filter_map(|s| s.stats()?.plan_cache_hit)
        .collect();
    push(
        "sql.plan_cache_hit_ratio",
        cached.iter().filter(|&&h| h).count() as f64 / cached.len().max(1) as f64,
        "ratio",
    );
    let outside: Vec<f64> = untraced()
        .map(|s| {
            s.latency
                .saturating_sub(s.stats().expect("ok sample").wall)
                .as_secs_f64()
                * 1e6
        })
        .collect();
    push("engine.frontdoor_us", median(&outside).unwrap_or(0.0), "us");

    let self_ms = pass(&|_, st| ms(st.wall.saturating_sub(st.task_total)));
    let work_orders = pass(&|_, st| st.counts.work_orders as f64);
    push("scheduler.self_ms", self_ms, "ms");
    push("scheduler.work_orders", work_orders, "count");
    push(
        "scheduler.ns_per_work_order",
        if work_orders > 0.0 {
            self_ms * 1e6 / work_orders
        } else {
            0.0
        },
        "ns",
    );
    push(
        "edge.transfers",
        pass(&|_, st| st.counts.transfers as f64),
        "count",
    );
    push(
        "edge.blocks",
        pass(&|_, st| st.counts.edge_blocks as f64),
        "count",
    );
    push(
        "edge.mb",
        pass(&|_, st| st.counts.edge_bytes as f64) / MB,
        "MB",
    );
    let stalls = pass(&|_, st| st.counts.edge_stalls as f64);
    let staged = pass(&|_, st| st.counts.edge_sum_staged as f64);
    push(
        "edge.mean_staged",
        if stalls > 0.0 { staged / stalls } else { 0.0 },
        "blocks",
    );
    push(
        "fusion.fused",
        pass(&|_, st| st.counts.fused as f64),
        "count",
    );
    push(
        "fusion.staged",
        pass(&|_, st| st.counts.staged as f64),
        "count",
    );
    for (k, kind) in OP_KINDS.iter().enumerate() {
        push(
            &format!("ops.{kind}_ms"),
            pass(&|_, st| ms(st.op_time[k])),
            "ms",
        );
        push(
            &format!("ops.{kind}_work_orders"),
            pass(&|_, st| st.counts.op_work_orders[k] as f64),
            "count",
        );
    }
    push(
        "ops.rows_out",
        pass(&|_, st| st.counts.rows_out as f64),
        "count",
    );
    push(
        "hash_table.mb",
        pass(&|_, st| st.counts.hash_table_bytes as f64) / MB,
        "MB",
    );
    let created = pass(&|_, st| st.counts.pool_created as f64);
    let reused = pass(&|_, st| st.counts.pool_reused as f64);
    push("pool.created", created, "count");
    push("pool.reused", reused, "count");
    push(
        "pool.reuse_ratio",
        if created + reused > 0.0 {
            reused / (created + reused)
        } else {
            0.0
        },
        "ratio",
    );
    push(
        "spill.events",
        pass(&|_, st| st.counts.spill_events as f64),
        "count",
    );
    push(
        "spill.written_mb",
        pass(&|_, st| st.counts.spilled_bytes as f64) / MB,
        "MB",
    );
    let (before, after) = data.hub.as_ref().ok_or("a traced run records a hub")?;
    let restored = after.counter(HubCounter::SpillRestoredBytes)
        - before.counter(HubCounter::SpillRestoredBytes);
    // Traced and untraced passes run the same plans, so the hub's total
    // over the loop divides evenly into passes.
    let passes = data.samples.len() as f64 / n;
    push("spill.restored_mb", restored as f64 / passes / MB, "MB");
    push(
        "spill.respill_depth",
        ok(data)
            .map(|s| s.stats().expect("ok sample").counts.respill_depth)
            .max()
            .unwrap_or(0) as f64,
        "count",
    );
    push(
        "service.admission_wait_p50_us",
        after.histogram(HubHistogram::AdmissionWaitUs).quantile(0.5) as f64,
        "us",
    );
    push(
        "service.work_order_p50_us",
        after
            .histogram(HubHistogram::WorkOrderServiceUs)
            .quantile(0.5) as f64,
        "us",
    );
    push(
        "service.outside_engine_ms",
        pass(&|s, st| ms(s.latency.saturating_sub(st.wall))),
        "ms",
    );

    // Span self times, per 14-query pass of traced submissions.
    let traced_passes = data.samples.iter().filter(|s| s.traced).count() as f64 / n;
    if traced_passes == 0.0 {
        return Err("a traced run has traced passes".into());
    }
    let per_traced_pass = |ns: f64| ns / traced_passes / 1e6;
    let mut parts = 0.0;
    let mut span = |layer: &str, out: &mut Vec<Metric>| {
        let ns = data.span_totals.get(layer).copied().unwrap_or(0.0);
        parts += ns;
        out.push(metric(
            &format!("span.{layer}_ms"),
            per_traced_pass(ns),
            "ms",
        ));
    };
    for layer in SPAN_LAYERS {
        span(layer, &mut out);
    }
    for kind in OP_KINDS {
        span(&format!("ops.{kind}"), &mut out);
    }
    span(UNATTRIBUTED, &mut out);
    if (parts - data.span_wall).abs() > 1e-6 * data.span_wall.max(1.0) {
        return Err(format!(
            "span parts sum to {parts} ns, not the wall {} ns",
            data.span_wall
        ));
    }
    out.push(metric(
        "span.wall_ms",
        per_traced_pass(data.span_wall),
        "ms",
    ));
    let untraced_pass = per_pass(untraced(), |s, _| ms(s.latency));
    let traced_pass = per_pass(traced(), |s, _| ms(s.latency));
    out.push(metric(
        "span.overhead_pct",
        (traced_pass / untraced_pass - 1.0) * 100.0,
        "%",
    ));
    Ok(out)
}
