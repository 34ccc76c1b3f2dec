//! Live service telemetry, end to end: a [`QueryService`] with the HTTP
//! introspection endpoint enabled serves real Prometheus text and a live
//! query table *while queries are in flight*, the always-on hub counters
//! reconcile with what was submitted, the watchdog flags deadline-threatened
//! queries, `EXPLAIN ANALYZE` works through the service front door, and a
//! client dripping its request one byte at a time cannot stall the endpoint.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use uot_core::{
    ExecOptions, FaultKind, FaultPlan, FaultSite, HubCounter, Injection, QueryService,
    ServiceConfig, TraceEventKind, Uot, WatchdogConfig,
};
use uot_storage::{BlockFormat, Catalog, DataType, Schema, TableBuilder, Value};

fn catalog() -> Arc<Catalog> {
    let c = Catalog::new();
    let s = Schema::from_pairs(&[("k", DataType::Int32), ("v", DataType::Float64)]);
    let mut tb = TableBuilder::new("fact", s, BlockFormat::Column, 2 * 1024);
    for i in 0..4000 {
        tb.append(&[Value::I32(i % 50), Value::F64(i as f64 * 0.5)])
            .unwrap();
    }
    c.register(tb.finish()).unwrap();
    c
}

const QUERY: &str = "SELECT k, COUNT(*) AS n, SUM(v) AS s FROM fact GROUP BY k ORDER BY k";

fn get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut s = TcpStream::connect(addr).expect("connect to introspection endpoint");
    write!(s, "GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).unwrap();
    let (head, body) = resp.split_once("\r\n\r\n").expect("full http response");
    (head.to_string(), body.to_string())
}

/// Every line of a Prometheus exposition is a comment or `name[{labels}] value`,
/// each family declares HELP and TYPE exactly once, and counter families end
/// in `_total`.
fn assert_prometheus_conformant(body: &str) {
    use std::collections::HashMap;
    let mut type_of: HashMap<&str, &str> = HashMap::new();
    let mut help_seen: HashMap<&str, usize> = HashMap::new();
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let (name, ty) = (it.next().unwrap(), it.next().unwrap());
            assert!(
                type_of.insert(name, ty).is_none(),
                "duplicate TYPE for {name}"
            );
            assert!(
                matches!(ty, "counter" | "gauge" | "histogram"),
                "unknown type {ty}"
            );
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().unwrap();
            *help_seen.entry(name).or_insert(0) += 1;
            continue;
        }
        assert!(!line.starts_with('#'), "unknown comment form: {line}");
        // Sample line: name or name{labels}, then a float value.
        let (series, value) = line.rsplit_once(' ').expect("sample has a value");
        let name = series.split('{').next().unwrap();
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name in: {line}"
        );
        assert!(value.parse::<f64>().is_ok(), "bad sample value: {line}");
    }
    for (name, count) in help_seen {
        assert_eq!(count, 1, "HELP repeated for {name}");
    }
    // Counter families use the _total suffix convention.
    for (name, ty) in type_of {
        if ty == "counter" {
            assert!(name.ends_with("_total"), "counter {name} missing _total");
        }
    }
}

#[test]
fn introspection_endpoint_serves_live_data_midflight() {
    let service = QueryService::start(ServiceConfig {
        workers: 2,
        catalog: catalog(),
        http_port: Some(0),
        ..Default::default()
    })
    .unwrap();
    let addr = service.http_addr().expect("endpoint bound");

    let (head, body) = get(addr, "/healthz");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(body, "ok\n");

    // Hold one query in flight with an injected work-order delay, then catch
    // it live on both routes.
    let faults = FaultPlan::new(vec![Injection {
        site: FaultSite::WorkOrderExec,
        kind: FaultKind::Delay(Duration::from_millis(400)),
        nth: 1,
    }]);
    let slow = service
        .submit_sql_with(
            QUERY,
            ExecOptions {
                faults: Some(Arc::new(faults)),
                ..Default::default()
            },
        )
        .unwrap();

    let deadline = Instant::now() + Duration::from_secs(5);
    let mut caught_live = false;
    while Instant::now() < deadline {
        let (_, queries) = get(addr, "/queries");
        if queries.contains("running") {
            let (_, metrics) = get(addr, "/metrics");
            let active = metrics
                .lines()
                .find_map(|l| l.strip_prefix("uot_service_active_queries "))
                .expect("active gauge present")
                .parse::<f64>()
                .unwrap();
            assert!(active >= 1.0, "query in flight but gauge says {active}");
            caught_live = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(caught_live, "never observed the delayed query on /queries");
    slow.wait().unwrap();

    // A burst of ordinary traffic, then reconcile the scraped counters.
    let handles: Vec<_> = (0..6).map(|_| service.submit_sql(QUERY).unwrap()).collect();
    for h in handles {
        h.wait().unwrap();
    }

    let (_, body) = get(addr, "/metrics");
    assert_prometheus_conformant(&body);
    let counter = |name: &str| -> f64 {
        body.lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")))
            .unwrap_or_else(|| panic!("{name} missing from /metrics"))
            .parse()
            .unwrap()
    };
    assert_eq!(counter("uot_hub_queries_submitted_total"), 7.0);
    assert_eq!(counter("uot_hub_queries_completed_total"), 7.0);
    assert_eq!(counter("uot_hub_queries_failed_total"), 0.0);
    assert!(counter("uot_hub_work_orders_total") > 0.0);
    assert!(counter("uot_hub_rows_produced_total") > 0.0);
    assert_eq!(counter("uot_service_active_queries"), 0.0);
    // The latency histogram saw exactly one observation per query.
    let hist_count = body
        .lines()
        .find_map(|l| l.strip_prefix("uot_hub_query_latency_us_count "))
        .expect("histogram count present")
        .parse::<f64>()
        .unwrap();
    assert_eq!(hist_count, 7.0);

    // The drained registry renders an empty live table.
    let (_, queries) = get(addr, "/queries");
    assert!(!queries.contains("running"), "{queries}");

    service.shutdown();
}

#[test]
fn watchdog_flags_deadline_threatened_queries() {
    let service = QueryService::start(ServiceConfig {
        workers: 1,
        catalog: catalog(),
        watchdog: WatchdogConfig {
            enabled: true,
            poll_interval: Duration::from_millis(5),
            // Effectively disable stall detection; this test pins the
            // deadline side.
            stall_timeout: Duration::from_secs(3600),
            deadline_fraction: 0.01,
        },
        ..Default::default()
    })
    .unwrap();

    // A generous deadline the query will comfortably meet, but whose 1%
    // threshold (20 ms) the injected 300 ms delay sails past — the watchdog
    // must flag it without the deadline enforcement cancelling it.
    let faults = FaultPlan::new(vec![Injection {
        site: FaultSite::WorkOrderExec,
        kind: FaultKind::Delay(Duration::from_millis(300)),
        nth: 1,
    }]);
    let result = service
        .submit_sql_with(
            QUERY,
            ExecOptions {
                deadline: Some(Duration::from_secs(2)),
                faults: Some(Arc::new(faults)),
                trace: true,
                ..Default::default()
            },
        )
        .unwrap()
        .wait()
        .expect("query completes despite the watchdog flag");

    assert_eq!(
        service.hub_snapshot().counter(HubCounter::WatchdogDeadline),
        1,
        "exactly one deadline flag for one threatened query"
    );
    let trace = result.trace.expect("tracing was requested");
    let flags = trace.count(|k| matches!(k, TraceEventKind::Watchdog { .. }));
    assert_eq!(flags, 1, "the flag is also a structured trace event");

    service.shutdown();
}

#[test]
fn watchdog_flags_stalled_edges() {
    let service = QueryService::start(ServiceConfig {
        workers: 1,
        catalog: catalog(),
        // Small temporaries: the select emits a block per work order, so the
        // edge really holds occupancy while the worker is frozen.
        block_bytes: 2 * 1024,
        watchdog: WatchdogConfig {
            enabled: true,
            poll_interval: Duration::from_millis(5),
            stall_timeout: Duration::from_millis(50),
            deadline_fraction: 0.8,
        },
        ..Default::default()
    })
    .unwrap();

    // A streaming select feeding a sort, with a huge UoT so the edge keeps
    // staging (never reaching the threshold), while the injected delay
    // freezes the single worker for 400 ms with blocks already held on the
    // edge. The watchdog must notice the untouched occupancy. (An aggregate
    // would not do: it is blocking, so its only block stages right before
    // the partial flush and there is no held-occupancy window.)
    let faults = FaultPlan::new(vec![Injection {
        site: FaultSite::WorkOrderExec,
        kind: FaultKind::Delay(Duration::from_millis(400)),
        nth: 4,
    }]);
    service
        .submit_sql_with(
            "SELECT k, v FROM fact WHERE k < 40 ORDER BY k",
            ExecOptions {
                uot: Some(Uot::Blocks(10_000)),
                // Keep the chain on the staged path: a fused pipeline has no
                // edge occupancy for the watchdog to watch.
                fusion: Some(uot_core::FusionPolicy::Never),
                faults: Some(Arc::new(faults)),
                ..Default::default()
            },
        )
        .unwrap()
        .wait()
        .unwrap();

    assert!(
        service
            .hub_snapshot()
            .counter(HubCounter::WatchdogStalledEdges)
            >= 1,
        "the frozen staged edge was never flagged"
    );

    service.shutdown();
}

#[test]
fn service_explain_analyze_returns_the_annotated_tree() {
    let service = QueryService::start(ServiceConfig {
        workers: 2,
        catalog: catalog(),
        ..Default::default()
    })
    .unwrap();

    let plain = service.submit_sql(QUERY).unwrap().wait().unwrap();
    let explained = service
        .submit_sql(&format!("explain analyze {QUERY}"))
        .unwrap()
        .wait()
        .unwrap();

    let ex = explained.explain.as_ref().expect("explain attached");
    assert_eq!(ex.result_rows, plain.metrics.result_rows);
    assert_eq!(explained.metrics.result_rows, plain.metrics.result_rows);

    // The visible rows are the annotated tree, one line per row.
    assert_eq!(explained.schema.len(), 1);
    let rows: usize = explained.blocks.iter().map(|b| b.num_rows()).sum();
    assert_eq!(rows, ex.render().lines().count());
    // And the plain run's rows are real data, not the rendering.
    assert!(plain.schema.len() > 1);

    service.shutdown();
}

#[test]
fn slow_client_cannot_stall_the_endpoint() {
    let svc = QueryService::start(ServiceConfig {
        workers: 1,
        http_port: Some(0),
        ..Default::default()
    })
    .unwrap();
    let addr = svc.http_addr().expect("endpoint bound");
    // A client that drips one byte every 100 ms and never finishes its
    // request head, for up to 10 s or until the server hangs up.
    let mut slow = TcpStream::connect(addr).unwrap();
    slow.write_all(b"G").unwrap();
    let dripper = std::thread::spawn(move || {
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(100));
            if slow.write_all(b"E").is_err() {
                break;
            }
        }
    });
    // Let the accept thread pick up the slow connection first.
    std::thread::sleep(Duration::from_millis(150));
    let asked = Instant::now();
    let (head, body) = get(addr, "/healthz");
    let waited = asked.elapsed();
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(body, "ok\n");
    assert!(
        waited < Duration::from_secs(2),
        "/healthz waited {waited:?} behind a drip-feeding client"
    );
    dripper.join().unwrap();
    svc.shutdown();
}
