//! Observability: trace-recording observers and exporters.
//!
//! This module turns the [`SchedulerObserver`](crate::scheduler::SchedulerObserver)
//! seam plus the raw event capture in [`crate::trace`] into the instrument
//! the paper's methodology assumes:
//!
//! * [`TracingObserver`] — records every scheduler event into a
//!   [`TraceSink`](crate::trace::TraceSink).
//! * [`CompositeObserver`] — fans events out to two observers, so tracing
//!   composes with the default
//!   [`MetricsObserver`](crate::scheduler::MetricsObserver) without giving up
//!   [`QueryMetrics`](crate::metrics::QueryMetrics).
//! * [`chrome`] — Chrome `trace_event` JSON for `chrome://tracing` /
//!   [Perfetto](https://ui.perfetto.dev) flamegraph-style timelines.
//! * [`prometheus`] — Prometheus text exposition of the live
//!   [`MetricsHub`] (what the service's `/metrics` endpoint serves).
//! * [`timeline`] — per-edge UoT-occupancy timelines and per-operator task
//!   time distributions: the Fig. 3 / Fig. 5-shaped data of the paper.
//!
//! The trace exporters are pure functions over a frozen
//! [`Trace`](crate::trace::Trace); nothing here runs on the execution fast
//! path.

pub mod chrome;
pub mod explain;
pub mod http;
pub mod hub;
pub mod live;
pub mod observer;
pub mod prometheus;
pub mod timeline;

pub use chrome::{chrome_trace_json, merged_chrome_trace_json};
pub use explain::ExplainAnalyze;
pub use http::{IntrospectionServer, ServerState};
pub use hub::{HistogramSnapshot, HubCounter, HubHistogram, HubObserver, HubSnapshot, MetricsHub};
pub use live::{LiveQuery, LiveRegistry, WatchdogConfig};
pub use observer::{CompositeObserver, TracingObserver};
pub use prometheus::prometheus_from_hub;
pub use timeline::{operator_task_times, operator_time_shares, uot_timelines, EdgeTimeline};
