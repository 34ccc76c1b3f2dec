//! The repository benchmark: the 14 TPC-H SQL texts through `Engine` and
//! `QueryService`, checked against reference answers, reported as the
//! end-to-end and per-layer metrics `BENCHMARK.json` names.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload tpch-fused --seed 1 --seconds 20 --trace 0
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --manifest
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A wrong result, an
//! unexpected error or counts that do not repeat on a serial workload make
//! the exit code non-zero.

mod json;
mod report;
mod run;
mod spans;
mod spec;
mod stats;

use json::Json;
use report::Metric;
use run::{Outcome, RunData, QUERIES};
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    workload: &'static spec::Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1> | --manifest";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        if flag == "--manifest" {
            return Ok(None);
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    spec::WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? == 1),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(spec::RUN_SECONDS),
        trace: trace.unwrap_or(false),
    }))
}

/// Time two fixed loops that do not touch the program, in ms: integer
/// arithmetic in registers, and random reads over a 64 MB table. Together
/// they read how fast the host runs at that moment, for the CPU and for
/// the memory system other tenants share.
fn drift_probe() -> (f64, f64) {
    let t = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in 0..10_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    std::hint::black_box(x);
    let alu = t.elapsed().as_secs_f64() * 1e3;

    let table: Vec<u64> = (0..1u64 << 23).collect();
    let mask = table.len() as u64 - 1;
    let t = Instant::now();
    let mut sum = 0u64;
    for i in 0..2_000_000u64 {
        sum =
            sum.wrapping_add(table[(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 20 & mask) as usize]);
    }
    std::hint::black_box(sum);
    (alu, t.elapsed().as_secs_f64() * 1e3)
}

/// Peak resident memory of this process, from `/proc` where it exists.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn print_metrics(metrics: &[Metric], layers: Option<&[spec::PerLayer]>) {
    for m in metrics {
        let moves = layers
            .and_then(|ls| ls.iter().find(|l| l.name == m.name))
            .map(|l| format!("  [moves {} on {}]", l.moves, l.on))
            .unwrap_or_default();
        let mut note = if m.note.is_empty() {
            String::new()
        } else {
            format!("  ({})", m.note)
        };
        if m.name.starts_with("ops.") || m.name.starts_with("span.ops.") {
            note.push_str(
                "  (under fusion Auto a fused chain's time and work orders go to its head)",
            );
        }
        println!(
            "  {:<32} {:>14.4} {:<6}{note}{moves}",
            m.name, m.value, m.unit
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(a)) => a,
        Ok(None) => {
            print!("{}", spec::manifest().render_pretty());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Spill files go under the benchmark's own directory, not the system's
    // temp dir. Set before any thread starts.
    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let tmp = out_dir.join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("creating {}: {e}", tmp.display());
        return ExitCode::from(2);
    }
    std::env::set_var("TMPDIR", &tmp);

    let name = args.workload.name;
    let cfg = run::config(name).expect("every listed workload has a configuration");
    println!(
        "perfbench {name}: seed {} seconds {} trace {} | SF {} blocks {} KB {:?}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        cfg.scale_factor,
        cfg.block_bytes >> 10,
        cfg.system
    );
    let drift_start = drift_probe();
    let data = run::run(&cfg, args.seed, args.seconds, args.trace);
    let drift_end = drift_probe();
    println!(
        "drift probe (host speed, not a metric): cpu loop {:.2} ms at start, {:.2} ms at end; \
         memory loop {:.2} ms at start, {:.2} ms at end",
        drift_start.0, drift_end.0, drift_start.1, drift_end.1
    );
    if let Some(mb) = peak_rss_mb() {
        println!("peak resident memory {mb:.0} MiB");
    }
    report(&args, &data, &out_dir)
}

fn report(args: &Args, data: &RunData, out_dir: &std::path::Path) -> ExitCode {
    let attempted = data.samples.len();
    let failed: Vec<_> = data
        .samples
        .iter()
        .filter(|s| s.stats().is_none())
        .collect();
    let mismatches = data
        .setup_samples
        .iter()
        .chain(&data.samples)
        .filter(|s| matches!(s.outcome, Outcome::Mismatch))
        .count();
    let unexpected: Vec<&str> = data
        .setup_samples
        .iter()
        .chain(&data.samples)
        .filter_map(|s| match &s.outcome {
            Outcome::Failed {
                error,
                budget: false,
            } => Some(error.as_str()),
            _ => None,
        })
        .collect();
    let mut failing: Vec<String> = failed.iter().map(|s| QUERIES[s.query].label()).collect();
    failing.sort();
    failing.dedup();
    println!(
        "set-up {:?} s (reference answers {:.3} s); timed window {:.3} s",
        data.setup_secs,
        data.reference_secs,
        data.window.as_secs_f64()
    );
    println!(
        "submissions: {attempted} attempted, {} failed, failed_share {:.4}{}; {} set-up submissions also checked",
        failed.len(),
        failed.len() as f64 / attempted as f64,
        if failing.is_empty() { String::new() } else { format!(" ({})", failing.join(", ")) },
        data.setup_samples.len()
    );
    for s in failed.iter().take(2) {
        if let Outcome::Failed { error, .. } = &s.outcome {
            println!("  e.g. {}: {error}", QUERIES[s.query].label());
        }
    }
    if data.serial {
        let passes: Vec<f64> = data
            .samples
            .chunks(QUERIES.len())
            .map(|p| p.iter().map(|s| s.latency.as_secs_f64()).sum())
            .collect();
        println!(
            "pass seconds: {}",
            passes
                .iter()
                .map(|p| format!("{p:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        println!(
            "counts fingerprint {:016x} (equal across runs with one seed)",
            data.fingerprint()
        );
    }
    let per_query: Vec<String> = QUERIES
        .iter()
        .enumerate()
        .filter_map(|(q, id)| {
            let ms: Vec<f64> = data
                .samples
                .iter()
                .filter(|s| s.query == q && s.stats().is_some())
                .map(|s| s.latency.as_secs_f64() * 1e3)
                .collect();
            let (lo, hi) = ms
                .iter()
                .fold((f64::MAX, 0f64), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            Some(format!(
                "{} {:.1} [{lo:.1}..{hi:.1}]",
                id.label(),
                stats::median(&ms)?
            ))
        })
        .collect();
    println!("per-query median ms [min..max]: {}", per_query.join(", "));

    let mut correct = true;
    if mismatches > 0 {
        eprintln!("OUTPUT CHECK FAILED: {mismatches} results differ from the reference answers");
        correct = false;
    }
    if !unexpected.is_empty() {
        eprintln!(
            "UNEXPECTED ERRORS ({}): {}",
            unexpected.len(),
            unexpected[0]
        );
        correct = false;
    }
    if let Err(e) = data.determinism() {
        eprintln!("DETERMINISM CHECK FAILED: {e}");
        return ExitCode::from(3);
    }

    let metrics = if args.trace {
        let path = out_dir.join(format!(
            "spans-{}-seed{}.json",
            args.workload.name, args.seed
        ));
        if let Err(e) = std::fs::write(&path, data.spans.to_json().render()) {
            eprintln!("writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!(
            "spans: {} kept in {}, {} dropped past the cap; every traced submission is folded",
            data.spans.len(),
            path.display(),
            data.spans.dropped()
        );
        match report::per_layer(data) {
            Ok(m) => {
                println!("per-layer metrics, per 14-query pass unless the unit says otherwise:");
                print_metrics(&m, Some(&spec::per_layer()));
                m
            }
            Err(e) => {
                eprintln!("per-layer report failed: {e}");
                return ExitCode::from(3);
            }
        }
    } else {
        match report::end_to_end(data) {
            Ok(m) => {
                println!("end-to-end metrics:");
                print_metrics(&m, None);
                m
            }
            Err(e) => {
                eprintln!("end-to-end report failed: {e}");
                return ExitCode::from(3);
            }
        }
    };
    let expected: Vec<String> = if args.trace {
        spec::per_layer().into_iter().map(|p| p.name).collect()
    } else {
        spec::END_TO_END
            .iter()
            .map(|e| e.name.to_string())
            .collect()
    };
    let names: Vec<&String> = metrics.iter().map(|m| &m.name).collect();
    assert_eq!(
        names,
        expected.iter().collect::<Vec<_>>(),
        "reported metrics follow the spec"
    );

    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted as u64)),
        ("failed", Json::Int(failed.len() as u64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.clone(),
                            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
