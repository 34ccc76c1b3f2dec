//! The multi-query service: one worker pool, one memory budget, many
//! concurrent queries.
//!
//! The [`Engine`](crate::engine::Engine) spins up a fresh scheduler and
//! worker pool per query — the right shape for studying one query's UoT
//! behaviour, the wrong shape for a server. [`QueryService`] is the
//! long-lived form: a single scheduler thread multiplexes every admitted
//! query over a shared pool of worker threads, and every dispatched
//! [`WorkOrder`](crate::work_order::WorkOrder), pool allocation, metric and
//! trace event carries the query's [`QueryId`]. Setup, the per-query
//! dispatch record and teardown are the same code the
//! [`Engine`](crate::engine::Engine) runs a single query with; the service
//! adds admission, round-robin dispatch, the hub, the live registry, the
//! watchdog and the HTTP endpoint.
//!
//! Three mechanisms keep tenants honest:
//!
//! * **Admission control** — each query reserves a slice of the global
//!   memory budget before it runs. While the sum of active reservations
//!   would exceed the budget, new queries wait in a FIFO admission queue
//!   (bounded by [`ServiceConfig::max_queued`]); a reservation that can
//!   never fit is rejected immediately with
//!   [`EngineError::AdmissionRejected`].
//! * **Per-query budgets** — an admitted query allocates from its own
//!   [`BlockPool`](uot_storage::BlockPool) whose [`MemoryTracker`] is parented on the service-wide
//!   tracker, so a query that outgrows its reservation fails alone with
//!   [`EngineError::BudgetExceeded`] (naming its [`QueryId`]) while the
//!   global gauge stays exact.
//! * **Fair dispatch** — ready work is drawn round-robin across active
//!   queries, one work order per query per turn, so a block-rich scan
//!   cannot starve a short probe. Within one query the per-operator
//!   policy (critical-first, downstream-first, FIFO) is unchanged.
//!
//! Cancellation ([`QueryHandle::cancel`]) and per-query deadlines tear down
//! exactly one query — its staged blocks, parked bytes and pool free lists
//! drain back to the global tracker — while sibling queries keep running.

use crate::cancel::CancellationToken;
use crate::engine::{prepare, EngineConfig, PreparedQuery, QueryResult};
use crate::error::EngineError;
use crate::exec_options::ExecOptions;
use crate::fault::FaultPlan;
use crate::obs::hub::{HubCounter, HubHistogram};
use crate::obs::{
    HubSnapshot, IntrospectionServer, LiveRegistry, MetricsHub, ServerState, WatchdogConfig,
};
use crate::plan::QueryPlan;
use crate::query_id::QueryId;
use crate::scheduler::{worker_loop, Completion, ExecMode, ToWorker};
use crate::uot::Uot;
use crate::Result;
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use uot_sql::{CacheStats, PlanCache, PlanCacheOutcome};
use uot_storage::{Catalog, MemoryTracker};

/// Service-wide configuration: the shared worker pool, the global memory
/// budget admission control carves reservations from, and the per-query
/// execution defaults (block size, UoT, degradation).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads shared by every admitted query.
    pub workers: usize,
    /// Global budget in bytes for temporary memory across *all* queries.
    pub memory_budget: usize,
    /// Reservation for queries that do not set
    /// [`ExecOptions::reservation`].
    pub default_reservation: usize,
    /// Admission-queue depth: submissions past it are rejected with
    /// [`EngineError::AdmissionRejected`] instead of queueing.
    pub max_queued: usize,
    /// Size of temporary storage blocks in bytes.
    pub block_bytes: usize,
    /// Default unit of transfer for every edge without an override.
    pub default_uot: Uot,
    /// Default budget-degradation policy (per-query override via
    /// [`ExecOptions::degrade`]).
    /// [`DegradePolicy::Spill`](crate::engine::DegradePolicy::Spill) arms a
    /// per-query disk spill tier against the query's own reservation, so a
    /// query that outgrows it degrades to out-of-core execution instead of
    /// failing with [`EngineError::BudgetExceeded`].
    pub degrade: crate::engine::DegradePolicy,
    /// Catalog [`QueryService::submit_sql`] resolves table names against
    /// (empty by default; plan-based submissions never consult it).
    pub catalog: Arc<Catalog>,
    /// HTTP introspection endpoint: `Some(port)` binds `127.0.0.1:port`
    /// (0 = ephemeral, see [`QueryService::http_addr`]) serving `/metrics`,
    /// `/queries` and `/healthz`. `None` (the default) runs no server.
    pub http_port: Option<u16>,
    /// The watchdog thread flagging stalled edges and deadline-threatened
    /// queries (enabled by default; it costs one registry scan per
    /// [`WatchdogConfig::poll_interval`]).
    pub watchdog: WatchdogConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            memory_budget: 256 << 20,
            default_reservation: 16 << 20,
            max_queued: 64,
            block_bytes: 128 * 1024,
            default_uot: Uot::LOW,
            degrade: crate::engine::DegradePolicy::Off,
            catalog: Catalog::new(),
            http_port: None,
            watchdog: WatchdogConfig::default(),
        }
    }
}

impl ServiceConfig {
    fn validate(&self) -> Result<()> {
        self.query_defaults()
            .scheduler()
            .validate(None, self.block_bytes)?;
        if self.memory_budget == 0 {
            return Err(EngineError::Config(
                "memory_budget=0 would reject every admission".into(),
            ));
        }
        if self.default_reservation == 0 || self.default_reservation > self.memory_budget {
            return Err(EngineError::Config(format!(
                "default_reservation={} must be in 1..={} (the global budget)",
                self.default_reservation, self.memory_budget
            )));
        }
        // A zero poll interval spins the watchdog thread; a NaN fraction
        // never flags a query, a non-positive one flags every query at once.
        let wd = &self.watchdog;
        let fraction_ok = wd.deadline_fraction > 0.0 && wd.deadline_fraction <= 1.0;
        if wd.enabled && (wd.poll_interval.is_zero() || !fraction_ok) {
            return Err(EngineError::Config(format!(
                "watchdog needs poll_interval > 0 and deadline_fraction in (0, 1] \
                 (got {:?}, {})",
                wd.poll_interval, wd.deadline_fraction
            )));
        }
        Ok(())
    }

    /// The per-query defaults every submission's [`ExecOptions`] layer over
    /// (see [`EngineConfig::resolve`]): each query runs on the shared pool
    /// against its reservation as its budget.
    fn query_defaults(&self) -> EngineConfig {
        EngineConfig {
            block_bytes: self.block_bytes,
            default_uot: self.default_uot,
            mode: ExecMode::Parallel {
                workers: self.workers,
            },
            memory_budget: Some(self.default_reservation),
            degrade: self.degrade,
            ..EngineConfig::default()
        }
    }
}

/// A submitted query: cancel it, or wait for its result.
#[derive(Debug)]
pub struct QueryHandle {
    id: QueryId,
    token: CancellationToken,
    rx: Receiver<Result<QueryResult>>,
}

impl QueryHandle {
    /// The service-assigned id of this query.
    pub fn id(&self) -> QueryId {
        self.id
    }

    /// Cancel this query (cooperative: it stops at the next cancellation
    /// point and yields [`EngineError::Cancelled`]). Sibling queries are
    /// unaffected.
    pub fn cancel(&self) {
        self.token.cancel();
    }

    /// The cancellation token governing this query.
    pub fn token(&self) -> CancellationToken {
        self.token.clone()
    }

    /// The result if the query already finished (`None` while running).
    pub fn try_wait(&self) -> Option<Result<QueryResult>> {
        self.rx.try_recv()
    }

    /// Block until the query finishes.
    pub fn wait(self) -> Result<QueryResult> {
        self.rx.recv().unwrap_or(Err(EngineError::ServiceShutdown))
    }
}

/// One query as submitted, before admission.
struct Submission {
    id: QueryId,
    plan: QueryPlan,
    /// The service defaults with this submission's options layered on.
    cfg: EngineConfig,
    faults: Option<Arc<FaultPlan>>,
    token: CancellationToken,
    reply: Sender<Result<QueryResult>>,
    reservation: usize,
    /// Plan-cache outcome when the query arrived as SQL (`None` for
    /// pre-built plans); stamped onto the final metrics.
    cache: Option<PlanCacheOutcome>,
    /// Submission time — the hub's latency and admission-wait histograms
    /// both count from here.
    submitted: Instant,
    /// `EXPLAIN ANALYZE` submission: deliver the rendered plan tree as the
    /// result rows instead of the statement's own output.
    explain: bool,
}

/// Everything the scheduler thread multiplexes over one channel — no
/// `select!` needed: submissions, completions and shutdown arrive in order.
enum ToService {
    Submit(Box<Submission>),
    Done(Box<Completion>),
    Shutdown,
}

impl From<Completion> for ToService {
    fn from(done: Completion) -> Self {
        ToService::Done(Box::new(done))
    }
}

/// A long-lived, multi-query execution service (see the module docs).
///
/// Dropping the service shuts it down gracefully: active queries drain,
/// queued submissions are rejected with [`EngineError::ServiceShutdown`],
/// and all threads are joined.
#[derive(Debug)]
pub struct QueryService {
    to_service: Sender<ToService>,
    scheduler: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    next_id: AtomicU64,
    tracker: Arc<MemoryTracker>,
    config: ServiceConfig,
    /// Per-query defaults submissions layer their options over.
    defaults: EngineConfig,
    /// Compiled plans shared by every [`QueryService::submit_sql`] client,
    /// keyed by normalized SQL text.
    plan_cache: PlanCache<QueryPlan>,
    /// Always-on live metrics, shared with every query's observer stack.
    hub: Arc<MetricsHub>,
    /// Live registry behind `/queries` and the watchdog.
    registry: Arc<LiveRegistry>,
    /// The HTTP introspection endpoint, when configured.
    http: Option<IntrospectionServer>,
    watchdog: Option<std::thread::JoinHandle<()>>,
    watchdog_stop: Arc<AtomicBool>,
}

impl QueryService {
    /// Start the service: one scheduler thread plus
    /// [`ServiceConfig::workers`] worker threads. An invalid configuration
    /// (no workers, an empty budget or reservation, an enabled watchdog with
    /// a zero poll interval or a deadline fraction outside `(0, 1]`) fails
    /// with [`EngineError::Config`].
    pub fn start(config: ServiceConfig) -> Result<Self> {
        config.validate()?;
        let tracker = MemoryTracker::new();
        let hub = Arc::new(MetricsHub::new());
        let registry = Arc::new(LiveRegistry::new());
        let (to_service, service_rx) = crossbeam::channel::unbounded::<ToService>();
        let (work_tx, work_rx) = crossbeam::channel::unbounded::<ToWorker>();
        let mut workers = Vec::with_capacity(config.workers);
        for worker in 0..config.workers {
            let (work_rx, done_tx) = (work_rx.clone(), to_service.clone());
            workers.push(std::thread::spawn(move || {
                worker_loop(worker, work_rx, done_tx)
            }));
        }
        let loop_state = SchedulerLoop {
            memory_budget: config.memory_budget,
            max_queued: config.max_queued,
            tracker: tracker.clone(),
            work_tx,
            free_slots: config.workers,
            active: HashMap::new(),
            order: VecDeque::new(),
            pending: VecDeque::new(),
            reserved: 0,
            draining: false,
            hub: hub.clone(),
            registry: registry.clone(),
        };
        let scheduler = std::thread::spawn(move || loop_state.run(service_rx));
        let http = match config.http_port {
            None => None,
            Some(port) => Some(
                IntrospectionServer::start(
                    port,
                    Arc::new(ServerState {
                        hub: hub.clone(),
                        registry: registry.clone(),
                        tracker: tracker.clone(),
                        started: Instant::now(),
                    }),
                )
                .map_err(|e| {
                    EngineError::Config(format!("introspection endpoint bind failed: {e}"))
                })?,
            ),
        };
        let watchdog_stop = Arc::new(AtomicBool::new(false));
        let watchdog = if config.watchdog.enabled {
            let (stop, hub, registry, wd) = (
                watchdog_stop.clone(),
                hub.clone(),
                registry.clone(),
                config.watchdog,
            );
            Some(
                std::thread::Builder::new()
                    .name("uot-watchdog".into())
                    .spawn(move || {
                        while !stop.load(Ordering::Relaxed) {
                            std::thread::sleep(wd.poll_interval);
                            registry.watchdog_pass(&hub, wd.stall_timeout, wd.deadline_fraction);
                        }
                    })
                    .expect("spawn watchdog thread"),
            )
        } else {
            None
        };
        Ok(QueryService {
            to_service,
            scheduler: Some(scheduler),
            workers,
            next_id: AtomicU64::new(1),
            tracker,
            defaults: EngineConfig {
                hub: Some(hub.clone()),
                ..config.query_defaults()
            },
            config,
            plan_cache: PlanCache::new(),
            hub,
            registry,
            http,
            watchdog,
            watchdog_stop,
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The service-wide memory tracker every per-query pool parents on.
    /// `current_bytes()` is the global pool occupancy across all queries;
    /// it returns to 0 whenever no query holds temporary memory.
    pub fn tracker(&self) -> &Arc<MemoryTracker> {
        &self.tracker
    }

    /// Bytes of temporary memory currently held across all queries.
    pub fn memory_in_use(&self) -> usize {
        self.tracker.current_bytes()
    }

    /// The always-on live metrics hub (counters + histograms across every
    /// query this service has run).
    pub fn hub(&self) -> &Arc<MetricsHub> {
        &self.hub
    }

    /// A consistent-enough point-in-time copy of the hub (see
    /// [`MetricsHub::snapshot`]).
    pub fn hub_snapshot(&self) -> HubSnapshot {
        self.hub.snapshot()
    }

    /// The live query registry (`/queries` reads it; tests can too).
    pub fn registry(&self) -> &Arc<LiveRegistry> {
        &self.registry
    }

    /// Bound address of the HTTP introspection endpoint — the actual port
    /// when [`ServiceConfig::http_port`] was `Some(0)`; `None` when no
    /// endpoint was configured.
    pub fn http_addr(&self) -> Option<std::net::SocketAddr> {
        self.http.as_ref().map(|s| s.addr())
    }

    /// Submit a SQL statement with default [`ExecOptions`] — the primary
    /// front door: compile (or fetch from the plan cache), then run.
    pub fn submit_sql(&self, sql: &str) -> Result<QueryHandle> {
        self.submit_sql_with(sql, ExecOptions::default())
    }

    /// Submit a SQL statement with per-query [`ExecOptions`].
    ///
    /// Compilation happens on the calling thread against
    /// [`ServiceConfig::catalog`], memoized in the service-wide plan cache;
    /// frontend failures return [`EngineError::Sql`] immediately instead of
    /// through the handle. [`QueryMetrics::plan_cache`](crate::metrics::QueryMetrics::plan_cache)
    /// on the result records whether this submission hit the cache.
    /// `EXPLAIN ANALYZE <stmt>` submissions execute the inner statement
    /// normally (same plan cache, same options) and deliver the rendered
    /// [`ExplainAnalyze`](crate::obs::ExplainAnalyze) tree as the result
    /// rows; the real metrics, trace and [`QueryResult::explain`] stay
    /// attached.
    pub fn submit_sql_with(&self, sql: &str, opts: ExecOptions) -> Result<QueryHandle> {
        let (plan, outcome, explain) =
            crate::sql::compile_cached(sql, &self.config.catalog, &self.plan_cache)?;
        self.submit_inner(plan, opts, Some(outcome), explain)
    }

    /// Counters of the shared SQL plan cache.
    pub fn plan_cache_stats(&self) -> CacheStats {
        self.plan_cache.stats()
    }

    /// Submit a pre-built `plan` with default [`ExecOptions`] (escape hatch
    /// for plans SQL cannot express; [`QueryService::submit_sql`] is the
    /// primary API).
    pub fn submit(&self, plan: QueryPlan) -> Result<QueryHandle> {
        self.submit_with(plan, ExecOptions::default())
    }

    /// Submit a pre-built `plan`. Returns immediately with a [`QueryHandle`];
    /// admission (or rejection), execution and teardown happen on the service
    /// threads, and the outcome is delivered through [`QueryHandle::wait`].
    pub fn submit_with(&self, plan: QueryPlan, opts: ExecOptions) -> Result<QueryHandle> {
        self.submit_inner(plan, opts, None, false)
    }

    fn submit_inner(
        &self,
        plan: QueryPlan,
        opts: ExecOptions,
        cache: Option<PlanCacheOutcome>,
        explain: bool,
    ) -> Result<QueryHandle> {
        let id = QueryId::new(self.next_id.fetch_add(1, Ordering::Relaxed));
        let token = CancellationToken::new();
        let (reply_tx, reply_rx) = crossbeam::channel::unbounded();
        let (cfg, plan) = self.defaults.resolve(plan, &opts);
        let reservation = opts.reservation.unwrap_or(self.config.default_reservation);
        self.hub.add(HubCounter::QueriesSubmitted, 1);
        let sub = Submission {
            id,
            plan,
            cfg,
            faults: opts.faults,
            token: token.clone(),
            reply: reply_tx,
            reservation,
            cache,
            submitted: Instant::now(),
            explain,
        };
        self.to_service
            .send(ToService::Submit(Box::new(sub)))
            .map_err(|_| EngineError::ServiceShutdown)?;
        Ok(QueryHandle {
            id,
            token,
            rx: reply_rx,
        })
    }

    /// Shut down gracefully: drain active queries, reject queued ones, join
    /// every thread. (Dropping the service does the same.)
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let _ = self.to_service.send(ToService::Shutdown);
        if let Some(h) = self.scheduler.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        self.watchdog_stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.watchdog.take() {
            let _ = h.join();
        }
        if let Some(mut server) = self.http.take() {
            server.shutdown();
        }
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Scheduler-thread state of one admitted query.
struct ActiveQuery {
    query: PreparedQuery,
    reply: Sender<Result<QueryResult>>,
    reservation: usize,
    /// Plan-cache outcome for SQL submissions, stamped onto the metrics.
    cache: Option<PlanCacheOutcome>,
    /// Submission time (the hub's end-to-end latency histogram).
    submitted: Instant,
    /// Deliver the rendered `EXPLAIN ANALYZE` tree as the result rows.
    explain: bool,
}

/// The scheduler thread's event loop.
struct SchedulerLoop {
    /// Global budget reservations are carved from.
    memory_budget: usize,
    /// Admission-queue depth.
    max_queued: usize,
    tracker: Arc<MemoryTracker>,
    work_tx: Sender<ToWorker>,
    free_slots: usize,
    active: HashMap<QueryId, ActiveQuery>,
    /// Round-robin dispatch ring over active queries.
    order: VecDeque<QueryId>,
    /// FIFO admission queue (reservations that do not currently fit).
    pending: VecDeque<Box<Submission>>,
    /// Sum of active reservations, ≤ `memory_budget`.
    reserved: usize,
    draining: bool,
    /// The service's always-on metrics hub.
    hub: Arc<MetricsHub>,
    /// The service's live query registry.
    registry: Arc<LiveRegistry>,
}

impl SchedulerLoop {
    fn run(mut self, rx: Receiver<ToService>) {
        loop {
            self.check_deadlines();
            // Sweep before dispatching: finalizing a drained query may admit
            // a queued one, whose first work orders dispatch this same turn.
            self.sweep_finished();
            self.dispatch();
            if self.draining && self.active.is_empty() {
                self.admit_pending(); // draining: rejects everything queued
                break;
            }
            let msg = match self.next_deadline() {
                None => match rx.recv() {
                    Ok(m) => m,
                    Err(_) => break,
                },
                Some(remaining) => match rx.recv_timeout(remaining) {
                    Ok(m) => m,
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => break,
                },
            };
            match msg {
                ToService::Submit(sub) => self.handle_submit(sub),
                ToService::Done(c) => self.handle_done(*c),
                ToService::Shutdown => self.draining = true,
            }
        }
        // `work_tx` drops here; idle workers see the hangup and exit.
    }

    /// Nearest deadline among active, not-yet-cancelled queries — the recv
    /// timeout that guarantees deadlines fire while the service is idle.
    fn next_deadline(&self) -> Option<Duration> {
        self.active
            .values()
            .filter_map(|q| q.query.run.until_deadline())
            .min()
    }

    fn check_deadlines(&self) {
        for q in self.active.values() {
            q.query.run.check_deadline();
            if q.query.run.ctx.cancel.is_cancelled() {
                if let Some(live) = &q.query.live {
                    live.set_cancelling();
                }
            }
        }
    }

    /// Fill free worker slots round-robin: one work order per query per
    /// pass, so every active query makes progress each turn.
    fn dispatch(&mut self) {
        while self.free_slots > 0 && !self.order.is_empty() {
            let mut dispatched_any = false;
            for _ in 0..self.order.len() {
                if self.free_slots == 0 {
                    break;
                }
                let id = self.order.pop_front().expect("ring is non-empty");
                self.order.push_back(id);
                let Some(q) = self.active.get_mut(&id) else {
                    continue;
                };
                // A failed or cancelled query stops dispatching; its
                // in-flight completions still drain through `handle_done`.
                if !q.query.run.dispatch_to(&self.work_tx) {
                    continue;
                }
                self.free_slots -= 1;
                dispatched_any = true;
            }
            if !dispatched_any {
                break;
            }
        }
    }

    fn handle_done(&mut self, done: Completion) {
        self.free_slots += 1;
        // The query must still be active: finalization requires in-flight
        // work to have drained. Defensive skip if it somehow is not.
        if let Some(q) = self.active.get_mut(&done.query()) {
            q.query.run.on_done(done);
        }
    }

    fn handle_submit(&mut self, sub: Box<Submission>) {
        if self.draining {
            self.hub.add(HubCounter::QueriesFailed, 1);
            let _ = sub.reply.send(Err(EngineError::ServiceShutdown));
            return;
        }
        if let Err(e) = sub.cfg.validate(&sub.plan) {
            self.hub.add(HubCounter::QueriesFailed, 1);
            let _ = sub.reply.send(Err(e));
            return;
        }
        if sub.reservation == 0 || sub.reservation > self.memory_budget {
            self.hub.add(HubCounter::AdmissionRejected, 1);
            let _ = sub.reply.send(Err(EngineError::AdmissionRejected {
                query: sub.id,
                reservation: sub.reservation,
                budget: self.memory_budget,
                reason: "reservation can never fit the global budget".into(),
            }));
            return;
        }
        // FIFO admission: no queue-jumping past an earlier waiter even if
        // this reservation would fit right now.
        if self.pending.is_empty() && self.reserved + sub.reservation <= self.memory_budget {
            self.activate(*sub);
        } else if self.pending.len() < self.max_queued {
            self.hub.add(HubCounter::AdmissionQueued, 1);
            self.registry.enqueue(sub.id, sub.reservation);
            self.pending.push_back(sub);
        } else {
            self.hub.add(HubCounter::AdmissionRejected, 1);
            let _ = sub.reply.send(Err(EngineError::AdmissionRejected {
                query: sub.id,
                reservation: sub.reservation,
                budget: self.memory_budget,
                reason: format!("admission queue full ({} queued)", self.pending.len()),
            }));
        }
    }

    /// Admit queued submissions in FIFO order while their reservations fit
    /// (on draining: reject them all).
    fn admit_pending(&mut self) {
        while let Some(front) = self.pending.front() {
            if self.draining {
                let sub = self.pending.pop_front().expect("front exists");
                self.registry.remove(sub.id);
                let _ = sub.reply.send(Err(EngineError::ServiceShutdown));
                continue;
            }
            if self.reserved + front.reservation > self.memory_budget {
                break;
            }
            let sub = self.pending.pop_front().expect("front exists");
            self.activate(*sub);
        }
    }

    /// Carve the query's reservation out of the global budget and set the
    /// query up through the shared [`prepare`] path.
    fn activate(&mut self, sub: Submission) {
        let Submission {
            id,
            plan,
            cfg,
            faults,
            token,
            reply,
            reservation,
            cache,
            submitted,
            explain,
        } = sub;
        self.hub.record(
            HubHistogram::AdmissionWaitUs,
            submitted.elapsed().as_micros() as u64,
        );
        // The per-query tracker mirrors into the service tracker (charged
        // against the *global* budget first), and the per-query pool caps
        // this query at its own reservation.
        let tracker = MemoryTracker::with_parent(self.tracker.clone(), self.memory_budget);
        let query = match prepare(&cfg, plan, tracker, id, token, faults, true) {
            Ok(query) => query,
            Err(e) => {
                self.registry.remove(id);
                self.hub.add(HubCounter::QueriesFailed, 1);
                let _ = reply.send(Err(e));
                return;
            }
        };
        self.reserved += reservation;
        self.order.push_back(id);
        if let Some(live) = &query.live {
            self.registry.admit(live.clone());
        }
        self.active.insert(
            id,
            ActiveQuery {
                query,
                reply,
                reservation,
                cache,
                submitted,
                explain,
            },
        );
    }

    /// Finalize every query whose in-flight work has drained and that is
    /// finished, failed, cancelled or stalled.
    fn sweep_finished(&mut self) {
        let done: Vec<QueryId> = self
            .active
            .iter()
            .filter(|(_, q)| q.query.run.is_settled())
            .map(|(&id, _)| id)
            .collect();
        for id in done {
            self.finalize(id);
        }
    }

    /// Tear down one query through the shared [`PreparedQuery::finish`] —
    /// the same contract as a standalone run: metrics are captured, then
    /// every byte it charged drains back through its parented tracker to the
    /// service tracker, on success and error paths alike. Its reservation is
    /// released and queued admissions retried.
    fn finalize(&mut self, id: QueryId) {
        let Some(q) = self.active.remove(&id) else {
            return;
        };
        self.order.retain(|&x| x != id);
        self.registry.remove(id);
        let result = q.query.finish(q.submitted).map(|mut r| {
            r.metrics.plan_cache = q.cache;
            // An EXPLAIN ANALYZE submission delivers the rendered tree as
            // its rows; everything measured stays attached.
            if q.explain {
                r.into_explain_rows()
            } else {
                r
            }
        });
        let _ = q.reply.send(result);
        self.reserved -= q.reservation;
        self.admit_pending();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{JoinType, PlanBuilder, Source};
    use uot_expr::{cmp, col, lit, AggSpec, CmpOp};
    use uot_storage::{BlockFormat, DataType, Schema, Table, TableBuilder, Value};

    fn table(name: &str, n: i32) -> Arc<Table> {
        let s = Schema::from_pairs(&[("k", DataType::Int32), ("v", DataType::Float64)]);
        let mut tb = TableBuilder::new(name, s, BlockFormat::Column, 96);
        for i in 0..n {
            tb.append(&[Value::I32(i), Value::F64(i as f64 * 2.0)])
                .unwrap();
        }
        Arc::new(tb.finish())
    }

    fn join_agg_plan(rows: i32) -> QueryPlan {
        let dim = table("dim", 20);
        let fact = table("fact", rows);
        let mut pb = PlanBuilder::new();
        let b = pb.build_hash(Source::Table(dim), vec![0], vec![1]).unwrap();
        let s = pb
            .filter(Source::Table(fact), cmp(col(0), CmpOp::Lt, lit(100i32)))
            .unwrap();
        let p = pb
            .probe(Source::Op(s), b, vec![0], vec![0], vec![0], JoinType::Inner)
            .unwrap();
        let a = pb
            .aggregate(
                Source::Op(p),
                vec![],
                vec![AggSpec::count_star(), AggSpec::sum(col(1))],
                &["n", "s"],
            )
            .unwrap();
        pb.build(a).unwrap()
    }

    fn small_service(workers: usize) -> QueryService {
        QueryService::start(ServiceConfig {
            workers,
            memory_budget: 64 << 20,
            default_reservation: 8 << 20,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn two_concurrent_queries_complete_and_pool_drains() {
        let svc = small_service(4);
        let h1 = svc.submit(join_agg_plan(200)).unwrap();
        let h2 = svc.submit(join_agg_plan(400)).unwrap();
        assert_ne!(h1.id(), h2.id());
        let r1 = h1.wait().unwrap();
        let r2 = h2.wait().unwrap();
        assert_eq!(r1.rows()[0][0], Value::I64(20));
        assert_eq!(r2.rows()[0][0], Value::I64(20));
        assert_eq!(r1.metrics.query.raw(), 1);
        assert_eq!(r2.metrics.query.raw(), 2);
        assert_eq!(svc.memory_in_use(), 0, "global pool must drain");
        svc.shutdown();
    }

    #[test]
    fn admission_queues_until_a_reservation_frees() {
        // Budget fits exactly one reservation: the second query queues and
        // still completes once the first finishes.
        let svc = QueryService::start(ServiceConfig {
            workers: 2,
            memory_budget: 8 << 20,
            default_reservation: 8 << 20,
            ..Default::default()
        })
        .unwrap();
        let h1 = svc.submit(join_agg_plan(300)).unwrap();
        let h2 = svc.submit(join_agg_plan(300)).unwrap();
        assert_eq!(h1.wait().unwrap().rows()[0][0], Value::I64(20));
        assert_eq!(h2.wait().unwrap().rows()[0][0], Value::I64(20));
        assert_eq!(svc.memory_in_use(), 0);
    }

    #[test]
    fn impossible_reservation_is_rejected() {
        let svc = small_service(2);
        let err = svc
            .submit_with(
                join_agg_plan(50),
                ExecOptions::default().with_reservation(usize::MAX),
            )
            .unwrap()
            .wait()
            .unwrap_err();
        match err {
            EngineError::AdmissionRejected { query, reason, .. } => {
                assert_eq!(query.raw(), 1);
                assert!(reason.contains("never fit"), "{reason}");
            }
            other => panic!("expected AdmissionRejected, got {other}"),
        }
        assert_eq!(svc.memory_in_use(), 0);
    }

    #[test]
    fn full_admission_queue_rejects() {
        let svc = QueryService::start(ServiceConfig {
            workers: 1,
            memory_budget: 1 << 20,
            default_reservation: 1 << 20,
            max_queued: 0,
            ..Default::default()
        })
        .unwrap();
        // First admits; with a zero-depth queue the second must be rejected
        // while the first still holds the whole budget.
        let h1 = svc.submit(join_agg_plan(2000)).unwrap();
        let h2 = svc.submit(join_agg_plan(50)).unwrap();
        let e2 = h2.wait().unwrap_err();
        assert!(matches!(e2, EngineError::AdmissionRejected { .. }), "{e2}");
        h1.wait().unwrap();
        assert_eq!(svc.memory_in_use(), 0);
    }

    #[test]
    fn cancelling_one_query_leaves_siblings_running() {
        let svc = small_service(2);
        let victim = svc.submit(join_agg_plan(4000)).unwrap();
        let survivor = svc.submit(join_agg_plan(200)).unwrap();
        victim.cancel();
        let r = survivor.wait().unwrap();
        assert_eq!(r.rows()[0][0], Value::I64(20));
        match victim.wait() {
            Err(EngineError::Cancelled { .. }) => {}
            Err(other) => panic!("expected Cancelled, got {other}"),
            // Tiny race: the victim may have finished before the cancel
            // landed; that is a legal outcome too.
            Ok(r) => assert_eq!(r.rows()[0][0], Value::I64(20)),
        }
        assert_eq!(svc.memory_in_use(), 0, "teardown must drain the victim");
    }

    #[test]
    fn handle_cancel_stops_mid_query() {
        // A 400x400 nested-loops cross product: long enough that the cancel
        // below always lands before the join finishes.
        let t = table("cancel_t", 400);
        let mut pb = PlanBuilder::new();
        let inner = pb
            .filter(Source::Table(t.clone()), cmp(col(0), CmpOp::Ge, lit(0i32)))
            .unwrap();
        let j = pb
            .nested_loops(Source::Table(t), inner, vec![], vec![0], vec![0])
            .unwrap();
        let svc = small_service(1);
        let handle = svc.submit(pb.build(j).unwrap()).unwrap();
        handle.cancel();
        match handle.wait() {
            Err(EngineError::Cancelled { after, .. }) => assert!(after > Duration::ZERO),
            Err(other) => panic!("expected Cancelled, got {other}"),
            Ok(r) => panic!(
                "query finished despite cancellation ({} rows)",
                r.num_rows()
            ),
        }
        assert_eq!(svc.memory_in_use(), 0, "teardown must drain the query");
    }

    #[test]
    fn per_query_deadline_fires_while_siblings_survive() {
        let svc = small_service(2);
        let doomed = svc
            .submit_with(
                join_agg_plan(4000),
                ExecOptions::default().with_deadline(Duration::ZERO),
            )
            .unwrap();
        let survivor = svc.submit(join_agg_plan(200)).unwrap();
        let e = doomed.wait().unwrap_err();
        assert!(matches!(e, EngineError::Cancelled { .. }), "{e}");
        assert_eq!(survivor.wait().unwrap().rows()[0][0], Value::I64(20));
        assert_eq!(svc.memory_in_use(), 0);
    }

    #[test]
    fn per_query_budget_fails_only_the_offender() {
        let svc = QueryService::start(ServiceConfig {
            workers: 2,
            memory_budget: 64 << 20,
            default_reservation: 8 << 20,
            default_uot: Uot::Table,
            block_bytes: 96,
            ..Default::default()
        })
        .unwrap();
        // A tiny reservation the Table-UoT staging must overflow. Fusion
        // off: the overflow relies on staging a fused pipeline would bypass.
        let offender = svc
            .submit_with(
                join_agg_plan(2000),
                ExecOptions::default()
                    .with_reservation(600)
                    .with_fusion(crate::fusion::FusionPolicy::Never),
            )
            .unwrap();
        let sibling = svc.submit(join_agg_plan(200)).unwrap();
        let err = offender.wait().unwrap_err();
        match &err {
            EngineError::BudgetExceeded {
                query,
                budget,
                global_budget,
                ..
            } => {
                assert_eq!(query.raw(), 1);
                assert_eq!(*budget, 600);
                assert_eq!(*global_budget, 64 << 20);
            }
            other => panic!("expected BudgetExceeded, got {other}"),
        }
        assert_eq!(sibling.wait().unwrap().rows()[0][0], Value::I64(20));
        assert_eq!(svc.memory_in_use(), 0);
    }

    /// A filter whose Table-UoT staging dwarfs a small reservation, feeding
    /// an aggregate (the spill-friendly consumer: streaming work orders hold
    /// no output blocks, so the flushed transfer drains as it is consumed).
    fn select_agg_plan(rows: i32) -> QueryPlan {
        let fact = table("fact", rows);
        let mut pb = PlanBuilder::new();
        let s = pb
            .filter(Source::Table(fact), cmp(col(0), CmpOp::Lt, lit(100i32)))
            .unwrap();
        let a = pb
            .aggregate(Source::Op(s), vec![], vec![AggSpec::count_star()], &["n"])
            .unwrap();
        pb.build(a).unwrap()
    }

    #[test]
    fn spill_lets_an_overcommitted_query_complete() {
        // A 600-byte reservation the Table-UoT staging must overflow — the
        // same wall per_query_budget_fails_only_the_offender hits — but with
        // DegradePolicy::Spill the staged blocks evict to this query's disk
        // tier and the query completes, while an unrelated sibling runs
        // untouched on its own reservation.
        let svc = QueryService::start(ServiceConfig {
            workers: 2,
            memory_budget: 64 << 20,
            default_reservation: 8 << 20,
            default_uot: Uot::Table,
            block_bytes: 96,
            ..Default::default()
        })
        .unwrap();
        let spilled = svc
            .submit_with(
                select_agg_plan(2000),
                ExecOptions::default()
                    .with_reservation(600)
                    .with_fusion(crate::fusion::FusionPolicy::Never)
                    .with_degrade(crate::engine::DegradePolicy::Spill),
            )
            .unwrap();
        let sibling = svc.submit(join_agg_plan(200)).unwrap();
        let r = spilled.wait().unwrap();
        assert_eq!(r.rows()[0][0], Value::I64(100));
        assert!(
            r.metrics.spill_events > 0,
            "a 600-byte reservation under Table UoT must evict staged blocks"
        );
        assert_eq!(sibling.wait().unwrap().rows()[0][0], Value::I64(20));
        assert_eq!(svc.memory_in_use(), 0, "resident bytes must drain");
        svc.shutdown();
    }

    #[test]
    fn traced_query_stamps_its_id() {
        let svc = small_service(2);
        let h = svc
            .submit_with(join_agg_plan(100), ExecOptions::default().traced())
            .unwrap();
        let id = h.id();
        let r = h.wait().unwrap();
        let trace = r.trace.expect("tracing was requested");
        assert_eq!(trace.query, id);
        assert!(!trace.events.is_empty());
    }

    #[test]
    fn shutdown_rejects_queued_and_later_submissions() {
        let svc = QueryService::start(ServiceConfig {
            workers: 1,
            memory_budget: 1 << 20,
            default_reservation: 1 << 20,
            ..Default::default()
        })
        .unwrap();
        let h1 = svc.submit(join_agg_plan(1000)).unwrap();
        let h2 = svc.submit(join_agg_plan(50)).unwrap(); // queued behind h1
        drop(svc); // graceful: drains h1, rejects h2
        assert!(h1.wait().is_ok());
        assert!(matches!(
            h2.wait().unwrap_err(),
            EngineError::ServiceShutdown | EngineError::AdmissionRejected { .. }
        ));
    }

    #[test]
    fn invalid_config_is_rejected_at_start() {
        assert!(QueryService::start(ServiceConfig {
            workers: 0,
            ..Default::default()
        })
        .is_err());
        assert!(QueryService::start(ServiceConfig {
            default_reservation: 0,
            ..Default::default()
        })
        .is_err());
        let watchdog = WatchdogConfig::default();
        for bad in [
            WatchdogConfig {
                poll_interval: Duration::ZERO,
                ..watchdog
            },
            WatchdogConfig {
                deadline_fraction: f64::NAN,
                ..watchdog
            },
            WatchdogConfig {
                deadline_fraction: -0.5,
                ..watchdog
            },
            WatchdogConfig {
                deadline_fraction: 0.0,
                ..watchdog
            },
            WatchdogConfig {
                deadline_fraction: 1.5,
                ..watchdog
            },
        ] {
            assert!(
                matches!(
                    QueryService::start(ServiceConfig {
                        watchdog: bad,
                        ..Default::default()
                    }),
                    Err(EngineError::Config(_))
                ),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn undersized_blocks_are_rejected_per_query() {
        let svc = QueryService::start(ServiceConfig {
            block_bytes: 8,
            workers: 1,
            ..Default::default()
        })
        .unwrap();
        let err = svc.submit(join_agg_plan(10)).unwrap().wait().unwrap_err();
        assert!(matches!(err, EngineError::Config(_)), "{err}");
    }
}
