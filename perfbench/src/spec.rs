//! What the benchmark measures: its workloads and metrics. `BENCHMARK.json`
//! at the repository root is [`manifest`] rendered, and a test keeps the
//! two in step.

use crate::json::Json;

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 20;

/// The program and arguments a run is started with, from the repository
/// root; the run's own flags follow them.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--quiet",
    "--release",
    "--offline",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "tpch-fused",
        why: "default user path: Engine, serial, fusion Auto, SF 0.1, 128 KB blocks; \
              operator kernels are 99% of wall, so kernel changes show here",
    },
    Workload {
        name: "tpch-staged",
        why: "most transfer-heavy staged spectrum point: fusion Never, UoT 1 block of 8 KB, SF 0.05; \
              exercises scheduler dispatch, transfer edges and the block pool",
    },
    Workload {
        name: "service-mix",
        why: "QueryService, 2 workers, 2 closed-loop clients, SF 0.05: admission, cross-query \
              dispatch, shared pool and hub, the second scheduler loop",
    },
    Workload {
        name: "spill-tight",
        why: "Engine with DegradePolicy::Spill under a 4 MB budget, 32 KB blocks, SF 0.05: the only \
              workload where the disk tier, eviction and grace join work",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "qps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_tail_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "geomean_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_temp_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.1,
    },
    EndToEnd {
        name: "success_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.05,
    },
];

pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metric this one should move, and the workload it
    /// should move it on.
    pub moves: &'static str,
    pub on: &'static str,
}

/// Operator kinds `ops.*` reports, as `OperatorKind::kind_label` names them.
pub const OP_KINDS: [&str; 7] = [
    "select",
    "probe",
    "build",
    "aggregate",
    "sort",
    "nlj",
    "limit",
];

/// Layers a traced submission's span tree is folded into, besides
/// `ops.<kind>` and `unattributed`.
pub const SPAN_LAYERS: [&str; 4] = ["sql.parse", "sql.bind", "sql.lower", "engine"];

pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let m = |name: &str, unit, better, moves, on| PerLayer {
        name: name.to_string(),
        unit,
        better,
        moves,
        on,
    };
    let mut v = vec![
        m("sql.parse_us", "us", Lower, "latency_p50_ms", "service-mix"),
        m("sql.bind_us", "us", Lower, "latency_p50_ms", "service-mix"),
        m("sql.lower_us", "us", Lower, "latency_p50_ms", "service-mix"),
        m(
            "sql.plan_cache_hit_ratio",
            "ratio",
            Higher,
            "latency_p50_ms",
            "service-mix",
        ),
        m(
            "engine.frontdoor_us",
            "us",
            Lower,
            "latency_p50_ms",
            "tpch-fused",
        ),
        m("scheduler.self_ms", "ms", Lower, "qps", "tpch-staged"),
        m(
            "scheduler.work_orders",
            "count",
            Lower,
            "geomean_ms",
            "tpch-staged",
        ),
        m(
            "scheduler.ns_per_work_order",
            "ns",
            Lower,
            "qps",
            "tpch-staged",
        ),
        m(
            "edge.transfers",
            "count",
            Lower,
            "peak_temp_mb",
            "tpch-staged",
        ),
        m("edge.blocks", "count", Lower, "peak_temp_mb", "tpch-staged"),
        m("edge.mb", "MB", Lower, "peak_temp_mb", "tpch-staged"),
        m(
            "edge.mean_staged",
            "blocks",
            Lower,
            "peak_temp_mb",
            "tpch-staged",
        ),
        m("fusion.fused", "count", Higher, "geomean_ms", "tpch-fused"),
        m("fusion.staged", "count", Lower, "geomean_ms", "tpch-fused"),
    ];
    for kind in OP_KINDS {
        v.push(m(
            &format!("ops.{kind}_ms"),
            "ms",
            Lower,
            "geomean_ms",
            "tpch-fused",
        ));
        v.push(m(
            &format!("ops.{kind}_work_orders"),
            "count",
            Lower,
            "latency_tail_ms",
            "tpch-fused",
        ));
    }
    v.extend([
        m("ops.rows_out", "count", Lower, "geomean_ms", "tpch-fused"),
        m("hash_table.mb", "MB", Lower, "peak_temp_mb", "tpch-fused"),
        m(
            "pool.created",
            "count",
            Lower,
            "peak_temp_mb",
            "tpch-staged",
        ),
        m("pool.reused", "count", Higher, "qps", "tpch-staged"),
        m("pool.reuse_ratio", "ratio", Higher, "qps", "tpch-staged"),
        m("spill.events", "count", Lower, "qps", "spill-tight"),
        m("spill.written_mb", "MB", Lower, "qps", "spill-tight"),
        m("spill.restored_mb", "MB", Lower, "qps", "spill-tight"),
        m(
            "spill.respill_depth",
            "count",
            Lower,
            "success_share",
            "spill-tight",
        ),
        m(
            "service.admission_wait_p50_us",
            "us",
            Lower,
            "latency_p50_ms",
            "service-mix",
        ),
        m(
            "service.work_order_p50_us",
            "us",
            Lower,
            "qps",
            "service-mix",
        ),
        m(
            "service.outside_engine_ms",
            "ms",
            Lower,
            "latency_p50_ms",
            "service-mix",
        ),
    ]);
    for layer in SPAN_LAYERS {
        v.push(m(
            &format!("span.{layer}_ms"),
            "ms",
            Lower,
            "latency_p50_ms",
            "service-mix",
        ));
    }
    for kind in OP_KINDS {
        v.push(m(
            &format!("span.ops.{kind}_ms"),
            "ms",
            Lower,
            "geomean_ms",
            "tpch-fused",
        ));
    }
    v.extend([
        m(
            "span.unattributed_ms",
            "ms",
            Lower,
            "latency_p50_ms",
            "service-mix",
        ),
        m("span.wall_ms", "ms", Lower, "geomean_ms", "tpch-fused"),
        m(
            "span.overhead_pct",
            "%",
            Lower,
            "latency_p50_ms",
            "tpch-fused",
        ),
    ]);
    v
}

/// `BENCHMARK.json`: exactly the keys its format allows, in its order.
pub fn manifest() -> Json {
    let better = |b: Better| Json::str(b.as_str());
    Json::obj([
        (
            "command",
            Json::Arr(COMMAND.iter().map(|s| Json::str(s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("perfbench")])),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|e| {
                        Json::obj([
                            ("name", Json::str(e.name)),
                            ("unit", Json::str(e.unit)),
                            ("better", better(e.better)),
                            ("bound", Json::Num(e.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .iter()
                    .map(|p| {
                        Json::obj([
                            ("name", Json::str(&p.name)),
                            ("unit", Json::str(p.unit)),
                            ("better", better(p.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn committed_manifest_is_the_writer_output() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest().render_pretty(),
            "regenerate with `perfbench --manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn manifest_has_exactly_the_format_keys_and_limits() {
        let Json::Obj(top) = manifest() else {
            panic!("manifest is an object")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|a| a.len() <= 200));
        assert!((1..=60).contains(&RUN_SECONDS));
        // A full measurement (4 + 22 runs per workload) must end within
        // 3420 s, leaving about 10 s per run for set-up and two builds.
        assert!((4 + 22 * WORKLOADS.len() as u64) * (RUN_SECONDS + 10) <= 3000);
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&per_layer().len()));
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name.to_string()));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for e in &END_TO_END {
            assert!(valid_name(e.name) && valid_unit(e.unit) && seen.insert(e.name.to_string()));
            assert!(e.bound > 0.0 && e.bound <= 0.25);
        }
        let setup = END_TO_END
            .iter()
            .find(|e| e.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|e| e.bound <= setup.bound));
        for p in per_layer() {
            assert!(valid_name(&p.name) && valid_unit(p.unit), "{}", p.name);
            assert!(seen.insert(p.name.clone()), "duplicate {}", p.name);
            assert!(END_TO_END.iter().any(|e| e.name == p.moves), "{}", p.name);
            assert!(WORKLOADS.iter().any(|w| w.name == p.on), "{}", p.name);
        }
        assert!(manifest().render_pretty().len() <= 64 * 1024);
    }
}
