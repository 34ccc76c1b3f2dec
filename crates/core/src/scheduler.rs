//! The work-order scheduler: where the UoT takes effect.
//!
//! The scheduler is the component the paper actually studies. It tracks block
//! production per operator and **stages** each producer's completed output
//! blocks on its outgoing [`TransferEdge`]. Only when the staged count
//! reaches the edge's [`Uot`] threshold are the blocks *transferred* — turned
//! into consumer work orders (or collected, for blocking consumers). When a
//! producer finishes, any partially accumulated UoT flushes (Section III-B).
//!
//! Figure 2 of the paper falls directly out of this mechanism: with
//! `Uot::Blocks(1)` producer and consumer work orders interleave; with
//! `Uot::Table` the schedule degenerates to operator-at-a-time.
//!
//! Three layers:
//!
//! * [`SchedulerCore`] — the synchronous state machine: per-operator state,
//!   transfer edges, and an indexed [`ReadyQueue`] that picks the next work
//!   order in O(log #ops) without scanning (per-operator FIFOs plus an
//!   ordered index of dispatchable operators). Topology questions ("who
//!   depends on this operator?") are answered by the plan's precomputed
//!   [`PlanTopology`] instead of rescanning operator definitions.
//! * [`SchedulerObserver`] — a hook receiving dispatch/completion/transfer
//!   events. [`MetricsObserver`] (the default) records the `QueryMetrics`
//!   the paper's figures are made of; [`NoopObserver`] runs the machine bare.
//! * [`run_query`] — the one driver, parameterized over the observer stack
//!   and [`ExecMode`]: inline execution for determinism, or a scheduler
//!   thread with a worker pool (Quickstep's two thread kinds). Its pieces —
//!   the per-query in-flight record, the worker body and the completion
//!   handler — are the same ones the
//!   [`QueryService`](crate::service::QueryService) scheduler thread
//!   multiplexes across queries. [`run`] is the convenience wrapper with
//!   default metrics and a plain error.

use crate::edge::{TransferAction, TransferEdge};
use crate::error::EngineError;
use crate::fault::{FaultKind, FaultSite};
use crate::metrics::{EdgeMetrics, OperatorMetrics, QueryMetrics, TaskRecord};
use crate::ops::execute_work_order_contained;
use crate::plan::{OpId, OperatorKind, QueryPlan};
use crate::state::ExecContext;
use crate::topology::Dependent;
use crate::uot::Uot;
use crate::work_order::{WorkKind, WorkOrder};
use crate::Result;
use crossbeam::channel::Sender;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;
use uot_storage::{SpillSlot, StorageBlock};

/// How work orders are driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// One thread, deterministic work-order order. For tests and debugging.
    Serial,
    /// Scheduler thread plus `workers` worker threads (the Quickstep model).
    Parallel {
        /// Number of worker threads.
        workers: usize,
    },
}

impl ExecMode {
    /// Worker-thread count this mode runs with (serial counts as one; a
    /// parallel pool is clamped to at least one thread).
    pub fn workers(self) -> usize {
        match self {
            ExecMode::Serial => 1,
            ExecMode::Parallel { workers } => workers.max(1),
        }
    }
}

/// Scheduler knobs.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerConfig {
    /// Execution mode: inline on the caller, or a worker pool.
    pub mode: ExecMode,
    /// UoT for edges without a per-operator override.
    pub default_uot: Uot,
    /// Optional wall-clock deadline. When it passes, the scheduler cancels
    /// the query's [`crate::cancel::CancellationToken`] at the next dispatch
    /// and the query yields [`EngineError::Cancelled`].
    pub deadline: Option<Duration>,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            mode: ExecMode::Serial,
            default_uot: Uot::LOW,
            deadline: None,
        }
    }
}

impl SchedulerConfig {
    /// The one up-front check every front door runs before a query starts.
    /// It catches mistakes that would otherwise surface as confusing
    /// mid-query failures: a worker pool of zero threads, or temporary
    /// blocks of `block_bytes` too small to hold one output tuple of some
    /// operator of `plan`. Without a plan only the settings are checked.
    pub fn validate(&self, plan: Option<&QueryPlan>, block_bytes: usize) -> Result<()> {
        if let ExecMode::Parallel { workers: 0 } = self.mode {
            return Err(EngineError::Config(
                "parallel mode requires at least 1 worker (got workers=0)".into(),
            ));
        }
        for (id, op) in plan.into_iter().flat_map(QueryPlan::ops).enumerate() {
            // Builds materialize into hash tables, not pool blocks; every
            // other operator writes output tuples into `block_bytes`-sized
            // temporaries and needs room for at least one tuple.
            if matches!(op.kind, OperatorKind::BuildHash { .. }) {
                continue;
            }
            let width = op.out_schema.tuple_width();
            if width > block_bytes {
                return Err(EngineError::Config(format!(
                    "block_bytes={block_bytes} cannot hold one {width}-byte tuple of op{id} ({})",
                    op.name
                )));
            }
        }
        Ok(())
    }
}

/// Observer of scheduler events. All methods default to no-ops; implement
/// the ones you care about. The default engine path records metrics through
/// [`MetricsObserver`]; benchmarks can run the bare machine with
/// [`NoopObserver`]; the tracing path composes
/// [`TracingObserver`](crate::obs::TracingObserver) on top via
/// [`CompositeObserver`](crate::obs::CompositeObserver).
///
/// Events that would cost something to summarize (flush sizes in bytes)
/// hand the observer the block slice itself, so [`NoopObserver`] pays
/// nothing: an observer that wants bytes sums them, one that doesn't never
/// looks.
pub trait SchedulerObserver {
    /// A work order was handed to a worker.
    fn work_order_dispatched(&mut self, _wo: &WorkOrder) {}
    /// A work order finished executing.
    fn work_order_completed(&mut self, _wo: &WorkOrder, _record: TaskRecord) {}
    /// An operator produced output blocks (completed or flushed). `bytes`
    /// is their summed allocated size.
    fn blocks_produced(&mut self, _op: OpId, _blocks: usize, _rows: usize, _bytes: usize) {}
    /// Blocks were transferred to an operator's input. The observer gets the
    /// block slice itself so it can sum rows/bytes only if it wants them.
    fn blocks_transferred(&mut self, _op: OpId, _blocks: &[Arc<StorageBlock>]) {}
    /// A transfer edge accumulated output below its UoT threshold; `staged`
    /// is the occupancy after staging.
    fn edge_staged(&mut self, _producer: OpId, _consumer: OpId, _staged: usize, _threshold: usize) {
    }
    /// A transfer edge moved blocks to its consumer — a threshold-triggered
    /// transfer (`partial == false`) or the end-of-producer flush of a
    /// partial accumulation (`partial == true`). `blocks` is the **actual**
    /// transferred set, observed after any injected fault at the flush site
    /// ran, never the pre-fault staging level.
    fn transfer_flushed(
        &mut self,
        _producer: OpId,
        _consumer: OpId,
        _blocks: &[Arc<StorageBlock>],
        _partial: bool,
    ) {
    }
    /// An operator finished completely.
    fn operator_finished(&mut self, _op: OpId) {}
}

/// Access to the [`MetricsObserver`] inside an observer stack — what the
/// drivers need to assemble [`QueryMetrics`] no matter how many tracing or
/// custom layers are composed around it.
pub trait MetricsCarrier {
    /// The metrics-accumulating layer.
    fn metrics(&mut self) -> &mut MetricsObserver;
}

/// Observer that ignores every event (bare scheduling, e.g. microbenchmarks).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopObserver;

impl SchedulerObserver for NoopObserver {}

/// An observer layer that may be absent: `None` ignores every event at the
/// cost of one branch, so traced and untraced, hub and hub-less queries all
/// share one concrete observer stack (and one [`SchedulerCore`] type).
impl<O: SchedulerObserver> SchedulerObserver for Option<O> {
    fn work_order_dispatched(&mut self, wo: &WorkOrder) {
        if let Some(o) = self {
            o.work_order_dispatched(wo);
        }
    }

    fn work_order_completed(&mut self, wo: &WorkOrder, record: TaskRecord) {
        if let Some(o) = self {
            o.work_order_completed(wo, record);
        }
    }

    fn blocks_produced(&mut self, op: OpId, blocks: usize, rows: usize, bytes: usize) {
        if let Some(o) = self {
            o.blocks_produced(op, blocks, rows, bytes);
        }
    }

    fn blocks_transferred(&mut self, op: OpId, blocks: &[Arc<StorageBlock>]) {
        if let Some(o) = self {
            o.blocks_transferred(op, blocks);
        }
    }

    fn edge_staged(&mut self, producer: OpId, consumer: OpId, staged: usize, threshold: usize) {
        if let Some(o) = self {
            o.edge_staged(producer, consumer, staged, threshold);
        }
    }

    fn transfer_flushed(
        &mut self,
        producer: OpId,
        consumer: OpId,
        blocks: &[Arc<StorageBlock>],
        partial: bool,
    ) {
        if let Some(o) = self {
            o.transfer_flushed(producer, consumer, blocks, partial);
        }
    }

    fn operator_finished(&mut self, op: OpId) {
        if let Some(o) = self {
            o.operator_finished(op);
        }
    }
}

/// The default observer: accumulates the per-operator and per-task metrics
/// that [`QueryMetrics`] reports.
#[derive(Debug)]
pub struct MetricsObserver {
    op_metrics: Vec<OperatorMetrics>,
    edge_metrics: Vec<EdgeMetrics>,
    tasks: Vec<TaskRecord>,
}

impl MetricsObserver {
    /// Metrics storage shaped for `plan`.
    pub fn new(plan: &QueryPlan) -> Self {
        MetricsObserver {
            op_metrics: plan
                .ops()
                .iter()
                .map(|op| OperatorMetrics {
                    name: op.name.clone(),
                    kind: op.kind.kind_label().to_string(),
                    ..Default::default()
                })
                .collect(),
            edge_metrics: vec![EdgeMetrics::default(); plan.len()],
            tasks: Vec::new(),
        }
    }
}

impl MetricsCarrier for MetricsObserver {
    fn metrics(&mut self) -> &mut MetricsObserver {
        self
    }
}

impl SchedulerObserver for MetricsObserver {
    fn work_order_completed(&mut self, wo: &WorkOrder, record: TaskRecord) {
        let m = &mut self.op_metrics[wo.op];
        m.work_orders += 1;
        let d = record.duration();
        m.total_task_time += d;
        m.task_times.push(d);
        self.tasks.push(record);
    }

    fn blocks_produced(&mut self, op: OpId, blocks: usize, rows: usize, bytes: usize) {
        self.op_metrics[op].produced_blocks += blocks;
        self.op_metrics[op].produced_rows += rows;
        self.op_metrics[op].produced_bytes += bytes;
    }

    fn blocks_transferred(&mut self, op: OpId, blocks: &[Arc<StorageBlock>]) {
        self.op_metrics[op].input_blocks += blocks.len();
        self.op_metrics[op].input_rows += blocks.iter().map(|b| b.num_rows()).sum::<usize>();
    }

    fn edge_staged(&mut self, producer: OpId, consumer: OpId, staged: usize, threshold: usize) {
        let e = &mut self.edge_metrics[producer];
        e.consumer = Some(consumer);
        e.threshold = threshold;
        e.stalls += 1;
        e.max_staged = e.max_staged.max(staged);
        e.sum_staged += staged;
    }

    fn transfer_flushed(
        &mut self,
        producer: OpId,
        consumer: OpId,
        blocks: &[Arc<StorageBlock>],
        partial: bool,
    ) {
        let e = &mut self.edge_metrics[producer];
        e.consumer = Some(consumer);
        if partial {
            e.partial_flushes += 1;
        } else {
            e.flushes += 1;
        }
        e.blocks += blocks.len();
        e.rows += blocks.iter().map(|b| b.num_rows()).sum::<usize>();
        e.bytes += blocks.iter().map(|b| b.allocated_bytes()).sum::<usize>();
    }
}

/// Indexed dispatch: per-operator FIFO queues plus an ordered set of
/// operators that currently have dispatchable work.
///
/// Policy: among operators with queued work, pick the **critical** ones
/// first (blocking prerequisites and their stream feeders), then the most
/// **downstream** (highest id; plans are built bottom-up so id order is
/// topological), FIFO within an operator. The
/// `BTreeSet<(bool, OpId)>` makes that `last()`, so a pop costs O(log #ops)
/// instead of a scan of every ready work order.
#[derive(Debug)]
struct ReadyQueue {
    per_op: Vec<VecDeque<WorkOrder>>,
    /// `(critical, op)` for every op with queued work.
    dispatchable: BTreeSet<(bool, OpId)>,
    critical: Vec<bool>,
    len: usize,
}

impl ReadyQueue {
    fn new(critical: Vec<bool>) -> Self {
        ReadyQueue {
            per_op: (0..critical.len()).map(|_| VecDeque::new()).collect(),
            dispatchable: BTreeSet::new(),
            critical,
            len: 0,
        }
    }

    fn push(&mut self, wo: WorkOrder) {
        let op = wo.op;
        self.per_op[op].push_back(wo);
        self.len += 1;
        self.dispatchable.insert((self.critical[op], op));
    }

    fn pop(&mut self) -> Option<WorkOrder> {
        let &key @ (_, op) = self.dispatchable.last()?;
        let wo = self.per_op[op].pop_front().expect("indexed op has work");
        self.len -= 1;
        if self.per_op[op].is_empty() {
            self.dispatchable.remove(&key);
        }
        Some(wo)
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Remove and return every queued work order (teardown path).
    fn drain(&mut self) -> Vec<WorkOrder> {
        self.dispatchable.clear();
        self.len = 0;
        self.per_op.iter_mut().flat_map(|q| q.drain(..)).collect()
    }
}

/// Scheduler-side state of one operator. (Staging and collected-byte
/// accounting live on the operator's outgoing [`TransferEdge`].)
#[derive(Debug, Default)]
struct OpState {
    /// Unfinished scheduling dependencies (build side, NLJ inner side, LIP
    /// filter sources). The operator is startable at zero.
    waiting_on: usize,
    /// The streamed producer has finished (base tables count as finished).
    producer_finished: bool,
    /// Blocks transferred but held because the op is not startable yet.
    pending: VecDeque<Arc<StorageBlock>>,
    /// Work orders created and not yet completed.
    outstanding: usize,
    /// The finalize work order has been dispatched (agg/sort).
    finalize_dispatched: bool,
    /// This operator is completely done.
    finished: bool,
}

/// The synchronous scheduling state machine.
pub struct SchedulerCore<O: SchedulerObserver = MetricsObserver> {
    ctx: Arc<ExecContext>,
    states: Vec<OpState>,
    /// Outgoing data edge of each operator, indexed by producer id.
    edges: Vec<TransferEdge>,
    queue: ReadyQueue,
    result_blocks: Vec<Arc<StorageBlock>>,
    observer: O,
    seq: usize,
    unfinished: usize,
}

impl SchedulerCore<MetricsObserver> {
    /// Set up scheduling state with metrics recording and enqueue the
    /// initial work (base-table blocks are all available at query start).
    pub fn new(ctx: Arc<ExecContext>, config: SchedulerConfig) -> Self {
        let observer = MetricsObserver::new(&ctx.plan);
        SchedulerCore::with_observer(ctx, config, observer)
    }
}

impl<O: SchedulerObserver + MetricsCarrier> SchedulerCore<O> {
    /// Tear down into results + metrics. Runs on the success *and* error
    /// paths (the error path discards the blocks and keeps the metrics as
    /// [`FailedQuery::partial_metrics`]); either way, every byte the query
    /// charged to the [`uot_storage::MemoryTracker`] is released so
    /// `current_bytes()` returns to its pre-query value.
    pub(crate) fn into_results(
        mut self,
        wall_time: Duration,
        workers: usize,
    ) -> (Vec<Arc<StorageBlock>>, QueryMetrics) {
        let mut tasks = std::mem::take(&mut self.observer.metrics().tasks);
        tasks.sort_by_key(|t| t.start);
        let mut op_metrics = std::mem::take(&mut self.observer.metrics().op_metrics);
        let edge_metrics = std::mem::take(&mut self.observer.metrics().edge_metrics);
        for (m, rt) in op_metrics.iter_mut().zip(&self.ctx.runtimes) {
            m.lip_pruned_rows = rt.lip_pruned.load(std::sync::atomic::Ordering::Relaxed);
        }
        let result_rows = self.result_blocks.iter().map(|b| b.num_rows()).sum();
        let hash_table_bytes = self
            .ctx
            .runtimes
            .iter()
            .enumerate()
            .filter_map(|(id, rt)| rt.hash_table.as_ref().map(|ht| (id, ht.memory_bytes())))
            .collect();
        // Metrics (pool stats, peak) are captured *before* the release below
        // so teardown bookkeeping does not pollute them.
        let spill = self
            .ctx
            .pool
            .spill_store()
            .map(|s| s.stats())
            .unwrap_or_default();
        let metrics = QueryMetrics {
            query: self.ctx.query,
            wall_time,
            ops: op_metrics,
            edges: edge_metrics,
            tasks,
            peak_temp_bytes: self.ctx.pool.tracker().peak_bytes(),
            pool: self.ctx.pool.stats(),
            hash_table_bytes,
            result_rows,
            workers,
            plan_cache: None,
            fused_pipelines: self.ctx.fusion.fused_count(),
            staged_pipelines: self.ctx.fusion.staged_count(),
            spill_events: spill.spill_events,
            spilled_bytes: spill.spilled_bytes,
            respill_depth: spill.respill_depth,
        };
        self.release_resources();
        (self.result_blocks, metrics)
    }
}

impl<O: SchedulerObserver> SchedulerCore<O> {
    /// Set up scheduling state with a custom observer.
    pub fn with_observer(ctx: Arc<ExecContext>, config: SchedulerConfig, observer: O) -> Self {
        let plan = ctx.plan.clone();
        let topo = plan.topology();
        let n = plan.len();
        let default_uot = config.default_uot.normalized();
        let uot_of = |id: OpId| -> Uot { plan.op(id).uot.unwrap_or(default_uot) };
        let edges = (0..n)
            .map(|p| {
                match topo.consumer_of(p) {
                    None => TransferEdge::sink(),
                    Some(c) if topo.materialization_target(p) == Some(c) => {
                        TransferEdge::materialize(c)
                    }
                    Some(c) => TransferEdge::stream(c, uot_of(c)),
                }
                .owned_by(ctx.query)
            })
            .collect();
        let states = (0..n)
            .map(|id| OpState {
                waiting_on: topo.initial_waits(id),
                producer_finished: topo.stream_parent(id).is_none(),
                ..Default::default()
            })
            .collect();
        let queue = ReadyQueue::new(topo.critical_flags().to_vec());
        let mut core = SchedulerCore {
            ctx,
            states,
            edges,
            queue,
            result_blocks: Vec::new(),
            observer,
            seq: 0,
            unfinished: n,
        };
        // Feed base-table blocks.
        for id in 0..n {
            if let crate::plan::Source::Table(t) = plan.op(id).kind.stream_source() {
                let blocks: Vec<Arc<StorageBlock>> = t.blocks().to_vec();
                core.transfer_in(id, blocks);
            }
        }
        // Operators with no input at all may already be completable.
        for id in 0..n {
            // invariant: nothing has produced output yet, so no edge has
            // staged blocks and the TransferFlush fault site cannot fire.
            core.check_completion(id)
                .expect("no staged blocks at construction");
        }
        core
    }

    /// The plan being scheduled.
    fn plan(&self) -> &QueryPlan {
        &self.ctx.plan
    }

    /// True when every operator has finished.
    pub fn all_finished(&self) -> bool {
        self.unfinished == 0
    }

    /// Number of work orders waiting in the ready queues.
    pub fn ready_len(&self) -> usize {
        self.queue.len()
    }

    /// Scheduling waits gating operator `op`'s stream input. For a fused-
    /// chain head this sums `waiting_on` across every chain member: the head
    /// must not start pushing batches until all build sides and LIP filter
    /// sources the chain probes against are finished. Everywhere else it is
    /// just the operator's own count.
    fn chain_waits(&self, op: OpId) -> usize {
        match self.ctx.fusion.chain_for_head(op) {
            Some(chain) => chain.ops.iter().map(|&m| self.states[m].waiting_on).sum(),
            None => self.states[op].waiting_on,
        }
    }

    /// Blocks staged on operator `op`'s input edge (its stream producer's
    /// outgoing edge).
    fn staged_into(&self, op: OpId) -> usize {
        self.plan()
            .topology()
            .stream_parent(op)
            .map_or(0, |p| self.edges[p].staged_len())
    }

    /// Describe every unfinished operator and its blocking state — the body
    /// of the stall diagnostic. Empty when all operators finished.
    pub fn stall_report(&self) -> String {
        let mut parts = Vec::new();
        for (id, st) in self.states.iter().enumerate() {
            if st.finished {
                continue;
            }
            parts.push(format!(
                "op{} ({}): waiting_on={} staged={} pending={} outstanding={}{}",
                id,
                self.plan().op(id).name,
                st.waiting_on,
                self.staged_into(id),
                st.pending.len(),
                st.outstanding,
                if st.producer_finished {
                    ""
                } else {
                    " producer-unfinished"
                },
            ));
        }
        parts.join("; ")
    }

    /// The stall error the driver raises when work runs out with operators
    /// still unfinished.
    pub(crate) fn stall_error(&self) -> EngineError {
        EngineError::Internal(format!(
            "scheduler stalled with unfinished operators: {}",
            self.stall_report()
        ))
    }

    /// Pop the next dispatchable work order.
    ///
    /// Policy: **downstream-first** — among eligible work orders, prefer the
    /// operator furthest down the plan (highest id; plans are built bottom-
    /// up, so id order is topological), with blocking prerequisites
    /// (critical operators) ahead of everything. Transferred blocks are
    /// consumed while still warm and intermediate memory drains promptly;
    /// with a low UoT this yields exactly the interleaved schedules of the
    /// paper's Fig. 2, while a high UoT degenerates to operator-at-a-time
    /// regardless.
    pub fn next_work_order(&mut self) -> Option<WorkOrder> {
        let wo = self.queue.pop()?;
        self.observer.work_order_dispatched(&wo);
        Some(wo)
    }

    /// Handle a completed work order.
    pub fn on_complete(
        &mut self,
        wo: &WorkOrder,
        produced: Vec<StorageBlock>,
        record: TaskRecord,
    ) -> Result<()> {
        self.states[wo.op].outstanding -= 1;
        // A consumed intermediate block dies here (each block feeds exactly
        // one stream work order): release its bytes so `peak_temp_bytes`
        // reflects what is actually live. Base-table blocks were never
        // charged to the tracker and stay untouched.
        if let WorkKind::Stream { block } = &wo.kind {
            if self.plan().topology().stream_parent(wo.op).is_some() {
                let bytes = block.allocated_bytes();
                self.ctx.pool.tracker().free(bytes);
                self.ctx
                    .trace_event(|| crate::trace::TraceEventKind::PoolFree {
                        bytes,
                        in_use: self.ctx.pool.tracker().current_bytes(),
                    });
            }
        }
        self.observer.work_order_completed(wo, record);
        // A fused chain's output leaves from its *tail*: the blocks skip every
        // interior edge and land directly on the tail's outgoing edge.
        let route = match (&wo.kind, self.ctx.fusion.chain_for_head(wo.op)) {
            (WorkKind::Stream { .. }, Some(chain)) => chain.tail(),
            _ => wo.op,
        };
        self.route_output(route, produced)?;
        self.check_completion(wo.op)
    }

    /// Handle a *failed* (or cancelled) work order: release the bytes
    /// charged to its input block, without routing any output. The
    /// operator stays unfinished; teardown via [`Self::release_resources`]
    /// reclaims everything else.
    pub fn on_error(&mut self, wo: &WorkOrder) {
        let bytes = match &wo.kind {
            WorkKind::Stream { block } if self.plan().topology().stream_parent(wo.op).is_some() => {
                block.allocated_bytes()
            }
            _ => 0,
        };
        self.fail_in_flight(wo.op, bytes);
    }

    /// Like [`Self::on_error`] for a work order whose body was lost (e.g. a
    /// worker died holding it); `input_bytes` is what its stream input block
    /// had charged to the tracker (0 for base-table input).
    pub fn fail_in_flight(&mut self, op: OpId, input_bytes: usize) {
        self.states[op].outstanding -= 1;
        if input_bytes > 0 {
            self.ctx.pool.tracker().free(input_bytes);
        }
    }

    /// Route blocks produced by `producer` along its transfer edge: straight
    /// to the result set (sink), parked at the producer (NLJ materialization
    /// bypass), or staged against the consumer edge's UoT threshold.
    ///
    /// Fallible: staged slots may have been evicted to the spill tier, and
    /// faulting them back in at transfer time can hit a disk error (or an
    /// injected `SpillRead` fault).
    fn route_output(&mut self, producer: OpId, produced: Vec<StorageBlock>) -> Result<()> {
        if produced.is_empty() {
            return Ok(());
        }
        self.observer.blocks_produced(
            producer,
            produced.len(),
            produced.iter().map(|b| b.num_rows()).sum(),
            produced.iter().map(|b| b.allocated_bytes()).sum(),
        );
        let blocks: Vec<Arc<StorageBlock>> = produced.into_iter().map(Arc::new).collect();
        match self.edges[producer].stage(blocks, producer) {
            TransferAction::Hold(fresh) => {
                // Newly staged slots are cold until the edge flushes: offer
                // them to the pool as eviction victims, then report the new
                // occupancy for UoT-occupancy timelines.
                for slot in &fresh {
                    self.ctx.pool.register_victim(slot);
                }
                let edge = &self.edges[producer];
                if let Some(consumer) = edge.consumer() {
                    self.observer.edge_staged(
                        producer,
                        consumer,
                        edge.staged_len(),
                        edge.threshold_blocks(),
                    );
                }
            }
            TransferAction::Emit(blocks) => self.result_blocks.extend(blocks),
            TransferAction::Transfer(slots) => {
                let consumer = self.edges[producer].consumer().expect("stream edge");
                let blocks = self.resolve_slots(slots)?;
                self.observer
                    .transfer_flushed(producer, consumer, &blocks, false);
                self.transfer_in(consumer, blocks);
            }
            TransferAction::Materialize(blocks) => {
                // The NLJ reads the inner relation from its producing
                // operator's `collected` list; the bytes are charged to the
                // edge and released when the join finishes.
                self.edges[producer]
                    .add_collected(blocks.iter().map(|b| b.allocated_bytes()).sum::<usize>());
                self.ctx.runtimes[producer].collected.lock().extend(blocks);
            }
        }
        Ok(())
    }

    /// Turn staged slots back into blocks, faulting spilled ones in. On
    /// failure, every block already resolved and every slot not yet resolved
    /// is released so teardown accounting stays exact.
    fn resolve_slots(&self, slots: Vec<Arc<SpillSlot>>) -> Result<Vec<Arc<StorageBlock>>> {
        let store = self.ctx.pool.spill_store();
        let tracker = self.ctx.pool.tracker();
        let mut blocks = Vec::with_capacity(slots.len());
        let mut iter = slots.into_iter();
        while let Some(slot) = iter.next() {
            match slot.take(store.as_deref()) {
                Ok(b) => blocks.push(b),
                Err(e) => {
                    for b in &blocks {
                        tracker.free(b.allocated_bytes());
                    }
                    for rest in iter {
                        rest.discard(tracker, store.as_deref());
                    }
                    return Err(e.into());
                }
            }
        }
        Ok(blocks)
    }

    /// Deliver transferred blocks to `op`: collected for sorts, queued for
    /// non-startable operators, otherwise one stream work order per block.
    fn transfer_in(&mut self, op: OpId, blocks: Vec<Arc<StorageBlock>>) {
        if blocks.is_empty() {
            return;
        }
        self.observer.blocks_transferred(op, &blocks);
        if matches!(self.plan().op(op).kind, OperatorKind::Sort { .. }) {
            // Sort input parks in bulk; intermediate (tracked) blocks are
            // charged to the incoming edge until the sort finishes.
            if let Some(parent) = self.plan().topology().stream_parent(op) {
                self.edges[parent]
                    .add_collected(blocks.iter().map(|b| b.allocated_bytes()).sum::<usize>());
            }
            self.ctx.runtimes[op].collected.lock().extend(blocks);
            return;
        }
        if self.chain_waits(op) > 0 {
            self.states[op].pending.extend(blocks);
            return;
        }
        for b in blocks {
            self.push_stream_work(op, b);
        }
    }

    fn push_stream_work(&mut self, op: OpId, block: Arc<StorageBlock>) {
        let wo = WorkOrder {
            query: self.ctx.query,
            op,
            kind: WorkKind::Stream { block },
            seq: self.seq,
        };
        self.seq += 1;
        self.states[op].outstanding += 1;
        self.queue.push(wo);
    }

    /// Decide whether `op` can finish (or needs its finalize step), and
    /// cascade the consequences downstream.
    fn check_completion(&mut self, op: OpId) -> Result<()> {
        let st = &self.states[op];
        if st.finished
            || st.waiting_on > 0
            || !st.producer_finished
            || !st.pending.is_empty()
            || st.outstanding > 0
            || self.staged_into(op) > 0
        {
            return Ok(());
        }
        let is_grace_probe = matches!(self.plan().op(op).kind, OperatorKind::Probe { .. })
            && self.ctx.grace.contains_key(&op);
        let needs_finalize = matches!(
            self.plan().op(op).kind,
            OperatorKind::Aggregate { .. } | OperatorKind::Sort { .. }
        ) || is_grace_probe;
        if needs_finalize && !self.states[op].finalize_dispatched {
            self.states[op].finalize_dispatched = true;
            self.states[op].outstanding += 1;
            let kind = if is_grace_probe {
                WorkKind::FinalizeJoin
            } else if matches!(self.plan().op(op).kind, OperatorKind::Sort { .. }) {
                WorkKind::FinalizeSort
            } else {
                WorkKind::FinalizeAggregate
            };
            let wo = WorkOrder {
                query: self.ctx.query,
                op,
                kind,
                seq: self.seq,
            };
            self.seq += 1;
            self.queue.push(wo);
            return Ok(());
        }
        // Flush partially filled output blocks, route them, mark finished.
        if self.ctx.runtimes[op].output.is_some() {
            let flushed = self.ctx.output(op).flush();
            self.route_output(op, flushed)?;
        }
        // A finished build's hash table now has its final size: fold it into
        // the temporary-memory accounting so peak footprints include |H_i|
        // (the Section VI comparison).
        if let Some(ht) = &self.ctx.runtimes[op].hash_table {
            ht.sync_tracker(self.ctx.pool.tracker());
        }
        // Blocks parked for this operator's bulk consumption (sort input,
        // NLJ inner side) die with it: release the bytes charged to its
        // incoming edges.
        let mut parked = 0;
        if let Some(parent) = self.plan().topology().stream_parent(op) {
            parked += self.edges[parent].take_collected();
        }
        for dep in self.plan().op(op).kind.blocking_deps() {
            parked += self.edges[dep].take_collected();
        }
        if parked > 0 {
            self.ctx.pool.tracker().free(parked);
        }
        self.states[op].finished = true;
        self.unfinished -= 1;
        // A fused chain is complete when its tail finishes; its accumulated
        // per-batch stats become one trace event for the whole pipeline.
        if let Some(chain) = self.ctx.fusion.chain_for_tail(op) {
            self.ctx.trace_event(|| {
                use std::sync::atomic::Ordering::Relaxed;
                crate::trace::TraceEventKind::PipelineFused {
                    pipeline: chain.id,
                    head: chain.head(),
                    tail: chain.tail(),
                    ops: chain.ops.len(),
                    batches: chain.stats.batches.load(Relaxed),
                    rows: chain.stats.rows.load(Relaxed),
                    elapsed_us: chain.stats.elapsed_ns.load(Relaxed) / 1000,
                }
            });
        }
        self.observer.operator_finished(op);
        self.on_producer_finished(op)
    }

    /// Propagate an operator's completion to its consumer and to every
    /// operator waiting on it as a scheduling dependency (probes, NLJs, LIP
    /// readers) — an indexed lookup, not a plan scan.
    fn on_producer_finished(&mut self, producer: OpId) -> Result<()> {
        // Release every dependent waiting on this op (a build can unblock
        // its probe *and* several LIP selects at once).
        let dependents: Vec<Dependent> = self.plan().topology().dependents_of(producer).to_vec();
        for Dependent { op, multiplicity } in dependents {
            self.states[op].waiting_on = self.states[op].waiting_on.saturating_sub(multiplicity);
            if self.states[op].waiting_on == 0 {
                // Blocks gated on this dependency are parked at `op` itself
                // or, when `op` sits inside a fused chain, at the chain's
                // head — and release only once *every* member's waits clear.
                let gate = self.ctx.fusion.head_of_member(op).unwrap_or(op);
                if self.chain_waits(gate) == 0 {
                    let pending: Vec<Arc<StorageBlock>> =
                        std::mem::take(&mut self.states[gate].pending).into();
                    for b in pending {
                        self.push_stream_work(gate, b);
                    }
                }
                self.check_completion(op)?;
            }
        }

        let Some(consumer) = self.edges[producer].consumer() else {
            return Ok(());
        };
        // Flush any partial UoT accumulation on the outgoing edge.
        let staged = self.edges[producer].flush();
        if !staged.is_empty() {
            // The `transfer_flush` fault site fires here (only when a flush
            // actually moves blocks). On injection the popped slots are
            // released before erroring so teardown accounting stays exact.
            if let Err(e) = self.transfer_fault(producer) {
                let store = self.ctx.pool.spill_store();
                for slot in &staged {
                    slot.discard(self.ctx.pool.tracker(), store.as_deref());
                }
                return Err(e);
            }
            let blocks = self.resolve_slots(staged)?;
            // Observed *after* the fault site ran: the event carries the
            // block count/bytes that actually moved (a delayed flush still
            // transfers everything; an erroring one never reaches here), not
            // the pre-fault staging level.
            self.observer
                .transfer_flushed(producer, consumer, &blocks, true);
            self.transfer_in(consumer, blocks);
        }

        // Stream edge: mark the consumer's producer done.
        if self.plan().topology().stream_parent(consumer) == Some(producer) {
            self.states[consumer].producer_finished = true;
        }
        self.check_completion(consumer)
    }

    /// Check the `transfer_flush` fault site. The scheduler thread has no
    /// containment boundary, so an injected `Panic` here degrades to an
    /// error rather than unwinding the whole driver. `producer` is the
    /// flushing operator, recorded as the fault's attribution in the trace.
    ///
    /// The error carries the same operator/query/occupancy attribution as a
    /// budget trip on the operator allocation path (`requested: 0` is the
    /// injected-fault convention — no real allocation was asked for), so
    /// callers and diagnostics never need to special-case where a budget
    /// failure surfaced.
    fn transfer_fault(&self, producer: OpId) -> Result<()> {
        match self.ctx.faults.check(FaultSite::TransferFlush) {
            None => Ok(()),
            Some(kind @ (FaultKind::Panic | FaultKind::Error)) => {
                self.ctx
                    .trace_event(|| crate::trace::TraceEventKind::FaultInjected {
                        site: FaultSite::TransferFlush,
                        kind,
                        op: producer,
                    });
                let tracker = self.ctx.pool.tracker();
                let in_use = tracker.current_bytes();
                let budget = self.ctx.pool.budget().unwrap_or(0);
                let (global_in_use, global_budget) =
                    tracker.parent_usage().unwrap_or((in_use, budget));
                Err(EngineError::BudgetExceeded {
                    op: self.plan().op(producer).name.clone(),
                    query: self.ctx.query,
                    requested: 0,
                    in_use,
                    budget,
                    global_in_use,
                    global_budget,
                })
            }
            Some(kind @ FaultKind::Delay(d)) => {
                self.ctx
                    .trace_event(|| crate::trace::TraceEventKind::FaultInjected {
                        site: FaultSite::TransferFlush,
                        kind,
                        op: producer,
                    });
                std::thread::sleep(d);
                Ok(())
            }
        }
    }

    /// Release every byte the query still holds against the memory tracker:
    /// queued and pending work, staged transfers, parked bulk input, output
    /// partials, hash tables, result blocks (whose ownership passes to the
    /// caller) and the pool's free lists. After this, `current_bytes()` is
    /// back at its pre-query value on both success and error paths.
    fn release_resources(&mut self) {
        let plan = self.ctx.plan.clone();
        let topo = plan.topology();
        let tracker = self.ctx.pool.tracker().clone();
        // Queued work orders never ran: their stream inputs were charged at
        // checkout (base-table blocks never are).
        for wo in self.queue.drain() {
            if let WorkKind::Stream { block } = &wo.kind {
                if topo.stream_parent(wo.op).is_some() {
                    tracker.free(block.allocated_bytes());
                }
            }
        }
        for (id, st) in self.states.iter_mut().enumerate() {
            let pending = std::mem::take(&mut st.pending);
            if topo.stream_parent(id).is_some() {
                for b in pending {
                    tracker.free(b.allocated_bytes());
                }
            }
        }
        let store = self.ctx.pool.spill_store();
        for edge in &mut self.edges {
            // Staged slots hold operator outputs — always charged (resident)
            // or spilled (a temp file to delete); discard handles both.
            for slot in edge.flush() {
                slot.discard(&tracker, store.as_deref());
            }
            // Idempotent: already 0 for edges drained by check_completion.
            let parked = edge.take_collected();
            if parked > 0 {
                tracker.free(parked);
            }
        }
        // Grace-join partitions that never reached (or only partially
        // reached) the finalize step: open buffers are pool blocks, spilled
        // runs are temp files. Each state is keyed twice (build + probe op);
        // tear it down once, from the probe key.
        for (key, grace) in &self.ctx.grace {
            if *key != grace.probe_op {
                continue;
            }
            for side in [&grace.build, &grace.probe] {
                let mut side = side.lock();
                for open in side.open.iter_mut() {
                    if let Some(b) = open.take() {
                        self.ctx.pool.discard(b);
                    }
                }
                for part in side.spilled.iter_mut() {
                    for h in part.drain(..) {
                        if let Some(store) = &store {
                            store.discard(h);
                        }
                    }
                }
            }
        }
        for rt in &self.ctx.runtimes {
            if let Some(out) = &rt.output {
                for b in out.flush() {
                    self.ctx.pool.discard(b);
                }
            }
            if let Some(ht) = &rt.hash_table {
                ht.release_tracker(&tracker);
            }
            rt.collected.lock().clear();
        }
        let result_bytes: usize = self.result_blocks.iter().map(|b| b.allocated_bytes()).sum();
        if result_bytes > 0 {
            tracker.free(result_bytes);
        }
        self.ctx.pool.drain_free_lists();
    }
}

/// A query that failed, with whatever metrics had accumulated before the
/// failure — panic containment and teardown still record the work orders
/// that *did* complete.
#[derive(Debug)]
pub struct FailedQuery {
    /// The first error the query hit.
    pub error: EngineError,
    /// Metrics for the work completed before the failure.
    pub partial_metrics: QueryMetrics,
}

/// Execute `ctx`'s plan under `config.mode` with the default metrics
/// observer, surfacing only the error on failure — the common path for
/// engine internals, tests and examples.
pub fn run(
    ctx: Arc<ExecContext>,
    config: SchedulerConfig,
) -> Result<(Vec<Arc<StorageBlock>>, QueryMetrics)> {
    let observer = MetricsObserver::new(&ctx.plan);
    run_query(ctx, config, observer).map_err(|f| f.error)
}

/// The one query driver. Executes `ctx`'s plan under [`SchedulerConfig::mode`]
/// with a caller-supplied observer stack — any composition that still carries
/// a [`MetricsObserver`], e.g.
/// [`CompositeObserver`](crate::obs::CompositeObserver) layering a
/// [`TracingObserver`](crate::obs::TracingObserver) on top.
///
/// On failure the partial metrics survive as [`FailedQuery::partial_metrics`]:
/// after the first error, dispatch stops but every in-flight completion is
/// drained so completed work orders keep their metrics and charged bytes are
/// released. Error precedence: the first work-order error, else a tripped
/// cancellation token (deadline or external cancel), else a stall diagnostic
/// naming every unfinished operator.
pub fn run_query<O: SchedulerObserver + MetricsCarrier>(
    ctx: Arc<ExecContext>,
    config: SchedulerConfig,
    observer: O,
) -> std::result::Result<(Vec<Arc<StorageBlock>>, QueryMetrics), Box<FailedQuery>> {
    if let Err(error) = config.validate(Some(&ctx.plan), ctx.block_bytes) {
        return Err(Box::new(FailedQuery {
            error,
            partial_metrics: QueryMetrics::default(),
        }));
    }
    let mut run = QueryRun::new(ctx, config, observer);
    run.drive(config.mode);
    run.finish()
}

/// Work handed to a worker: the owning query's context travels with the
/// order, so one worker body serves a single query's scoped pool and the
/// service's shared pool alike.
pub(crate) struct ToWorker(pub(crate) Arc<ExecContext>, pub(crate) WorkOrder);

/// A work order's outcome, reported back to whoever dispatched it.
pub(crate) struct Completion {
    wo: WorkOrder,
    worker: usize,
    start: Duration,
    end: Duration,
    produced: Result<Vec<StorageBlock>>,
}

impl Completion {
    /// The query the work order belonged to.
    pub(crate) fn query(&self) -> crate::query_id::QueryId {
        self.wo.query
    }
}

/// Execute one work order on the calling thread, timed against its query's
/// start. Contained: a panicking work order becomes a `WorkOrderPanic`
/// outcome instead of unwinding the thread (and with it a whole pool).
fn execute(ctx: &ExecContext, wo: WorkOrder, worker: usize) -> Completion {
    let start = ctx.elapsed();
    let produced = execute_work_order_contained(ctx, &wo);
    Completion {
        wo,
        worker,
        start,
        end: ctx.elapsed(),
        produced,
    }
}

/// The worker body of every pool: run work orders until the dispatcher
/// hangs up, reporting each outcome as a `M` (a bare [`Completion`] for a
/// single query's pool, the service's event type for the shared one).
pub(crate) fn worker_loop<M: From<Completion>>(
    worker: usize,
    work: crossbeam::channel::Receiver<ToWorker>,
    done: Sender<M>,
) {
    while let Ok(ToWorker(ctx, wo)) = work.recv() {
        if done.send(execute(&ctx, wo, worker).into()).is_err() {
            break;
        }
    }
}

/// One query in flight: its scheduling core plus the dispatch bookkeeping
/// every driver shares — the work orders out on workers, the completed
/// count, the first error and the deadline. [`run_query`] drives one of
/// these; the service's scheduler thread round-robins over many.
pub(crate) struct QueryRun<O: SchedulerObserver + MetricsCarrier> {
    pub(crate) ctx: Arc<ExecContext>,
    core: SchedulerCore<O>,
    workers: usize,
    /// Deadline relative to the context's start.
    deadline: Option<Duration>,
    /// seq -> (op, bytes its stream input charged) for pooled work orders:
    /// enough to release resources and name operators even if the work
    /// order body is lost.
    in_flight: HashMap<usize, (OpId, usize)>,
    completed: usize,
    first_error: Option<EngineError>,
}

impl<O: SchedulerObserver + MetricsCarrier> QueryRun<O> {
    /// Set up scheduling state for `ctx` (see [`SchedulerCore::with_observer`]).
    pub(crate) fn new(ctx: Arc<ExecContext>, config: SchedulerConfig, observer: O) -> Self {
        QueryRun {
            core: SchedulerCore::with_observer(ctx.clone(), config, observer),
            ctx,
            workers: config.mode.workers(),
            deadline: config.deadline,
            in_flight: HashMap::new(),
            completed: 0,
            first_error: None,
        }
    }

    /// Trip the cancellation token once the deadline has passed; every
    /// later work order then fails fast with `Cancelled`.
    pub(crate) fn check_deadline(&self) {
        if let Some(d) = self.deadline {
            if self.ctx.elapsed() >= d {
                self.ctx.cancel.cancel();
            }
        }
    }

    /// Time left until the deadline fires (`None`: no deadline, or the
    /// query is already cancelled).
    pub(crate) fn until_deadline(&self) -> Option<Duration> {
        let d = self.deadline?;
        (!self.ctx.cancel.is_cancelled()).then(|| d.saturating_sub(self.ctx.elapsed()))
    }

    /// The next work order to run, unless the query already failed or was
    /// cancelled (its in-flight completions still drain).
    fn next(&mut self) -> Option<WorkOrder> {
        self.check_deadline();
        if self.first_error.is_some() || self.ctx.cancel.is_cancelled() {
            return None;
        }
        self.core.next_work_order()
    }

    /// Run the next work order inline on the calling thread — no in-flight
    /// entry, no channel. `false` when there was nothing to run.
    fn run_inline(&mut self) -> bool {
        match self.next() {
            Some(wo) => {
                let done = execute(&self.ctx, wo, 0);
                self.complete(done);
                true
            }
            None => false,
        }
    }

    /// Hand the next work order to a worker pool. `false` when nothing was
    /// sent.
    pub(crate) fn dispatch_to(&mut self, work: &Sender<ToWorker>) -> bool {
        let Some(wo) = self.next() else {
            return false;
        };
        let charged = match &wo.kind {
            WorkKind::Stream { block }
                if self.ctx.plan.topology().stream_parent(wo.op).is_some() =>
            {
                block.allocated_bytes()
            }
            _ => 0,
        };
        let (seq, op) = (wo.seq, wo.op);
        self.in_flight.insert(seq, (op, charged));
        if work.send(ToWorker(self.ctx.clone(), wo)).is_err() {
            self.in_flight.remove(&seq);
            self.core.fail_in_flight(op, charged);
            self.fail(EngineError::Internal(
                "worker pool hung up unexpectedly".into(),
            ));
            return false;
        }
        true
    }

    /// A pooled work order came back.
    pub(crate) fn on_done(&mut self, done: Completion) {
        self.in_flight.remove(&done.wo.seq);
        self.complete(done);
    }

    /// The one completion handler, for inline and pooled work orders alike.
    fn complete(&mut self, done: Completion) {
        match done.produced {
            Ok(produced) => {
                self.completed += 1;
                let record = TaskRecord {
                    op: done.wo.op,
                    worker: done.worker,
                    start: done.start,
                    end: done.end,
                };
                if let Err(e) = self.core.on_complete(&done.wo, produced, record) {
                    self.fail(e);
                }
            }
            Err(e) => {
                self.core.on_error(&done.wo);
                self.fail(e);
            }
        }
    }

    /// Record `e` unless an earlier error already took precedence.
    fn fail(&mut self, e: EngineError) {
        self.first_error.get_or_insert(e);
    }

    /// Every pooled worker exited with work still out: release what the
    /// lost work orders held and name the stranded operators (mirrors the
    /// stall diagnostic).
    fn workers_lost(&mut self) {
        let mut ops: Vec<String> = self
            .in_flight
            .values()
            .map(|&(op, _)| format!("op{} ({})", op, self.ctx.plan.op(op).name))
            .collect();
        ops.sort();
        ops.dedup();
        let detail = EngineError::Internal(format!(
            "all workers exited early with {} work orders in flight on {}",
            self.in_flight.len(),
            ops.join(", "),
        ));
        for (_, (op, bytes)) in self.in_flight.drain() {
            self.core.fail_in_flight(op, bytes);
        }
        self.fail(detail);
    }

    /// Nothing is in flight and nothing more will be dispatched: the query
    /// finished, failed, was cancelled or ran out of ready work.
    pub(crate) fn is_settled(&self) -> bool {
        self.in_flight.is_empty()
            && (self.first_error.is_some()
                || self.ctx.cancel.is_cancelled()
                || self.core.all_finished()
                || self.core.ready_len() == 0)
    }

    /// Run the query to completion on this thread: inline for
    /// [`ExecMode::Serial`] (deterministic), or as the scheduler of a scoped
    /// pool of `mode.workers()` threads — the Quickstep threading model.
    pub(crate) fn drive(&mut self, mode: ExecMode) {
        if mode == ExecMode::Serial {
            while self.run_inline() {}
            return;
        }
        let workers = mode.workers();
        let (work_tx, work_rx) = crossbeam::channel::unbounded::<ToWorker>();
        let (done_tx, done_rx) = crossbeam::channel::unbounded::<Completion>();
        std::thread::scope(|scope| {
            for worker in 0..workers {
                let (work_rx, done_tx) = (work_rx.clone(), done_tx.clone());
                scope.spawn(move || worker_loop(worker, work_rx, done_tx));
            }
            drop(done_tx); // the scheduler holds only the receiver
            let mut free_slots = workers;
            loop {
                while free_slots > 0 && self.dispatch_to(&work_tx) {
                    free_slots -= 1;
                }
                if self.in_flight.is_empty() {
                    break;
                }
                match done_rx.recv() {
                    Ok(done) => {
                        free_slots += 1;
                        self.on_done(done);
                    }
                    Err(_) => {
                        self.workers_lost();
                        break;
                    }
                }
            }
            drop(work_tx); // stop the workers
        });
    }

    /// Settle the outcome and tear down. Error precedence: the first
    /// work-order error, else a tripped token, else a stall diagnostic. A
    /// `Cancelled` raised inside an operator (which cannot see driver-level
    /// counters) is rewritten with the authoritative wall time and
    /// completed-work-order count.
    pub(crate) fn finish(
        mut self,
    ) -> std::result::Result<(Vec<Arc<StorageBlock>>, QueryMetrics), Box<FailedQuery>> {
        let mut error = self.first_error.take();
        if error.is_none() && self.ctx.cancel.is_cancelled() {
            error = Some(EngineError::Cancelled {
                after: Duration::ZERO,
                completed_work_orders: 0,
            });
        }
        if error.is_none() && !self.core.all_finished() {
            error = Some(self.core.stall_error());
        }
        let wall = self.ctx.elapsed();
        let (blocks, metrics) = self.core.into_results(wall, self.workers);
        match error {
            None => Ok((blocks, metrics)),
            Some(e) => Err(Box::new(FailedQuery {
                error: match e {
                    EngineError::Cancelled { .. } => EngineError::Cancelled {
                        after: wall,
                        completed_work_orders: self.completed,
                    },
                    other => other,
                },
                partial_metrics: metrics,
            })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::execute_work_order;
    use crate::plan::{JoinType, PlanBuilder, SortKey, Source};
    use crate::state::ExecContext;
    use uot_expr::{cmp, col, lit, AggSpec, CmpOp, Predicate};
    use uot_storage::{
        BlockFormat, BlockPool, DataType, MemoryTracker, Schema, Table, TableBuilder, Value,
    };

    fn table(name: &str, n: i32, rows_per_block: usize) -> Arc<Table> {
        let s = Schema::from_pairs(&[("k", DataType::Int32), ("v", DataType::Float64)]);
        let mut tb = TableBuilder::new(name, s, BlockFormat::Column, rows_per_block * 12);
        for i in 0..n {
            tb.append(&[Value::I32(i), Value::F64(i as f64)]).unwrap();
        }
        Arc::new(tb.finish())
    }

    fn ctx_for(plan: QueryPlan) -> Arc<ExecContext> {
        Arc::new(
            ExecContext::new(
                Arc::new(plan),
                BlockPool::new(MemoryTracker::new()),
                BlockFormat::Row,
                // Small temp blocks (8 x 12-byte tuples) so producers emit
                // multiple full blocks and UoT effects are visible.
                96,
                8,
            )
            .unwrap(),
        )
    }

    fn select_probe_plan(uot: Uot) -> QueryPlan {
        let dim = table("dim2", 10, 4);
        let fact = table("fact2", 100, 8);
        let mut pb = PlanBuilder::new();
        let b = pb.build_hash(Source::Table(dim), vec![0], vec![1]).unwrap();
        let s = pb
            .filter(Source::Table(fact), cmp(col(0), CmpOp::Lt, lit(50i32)))
            .unwrap();
        let p = pb
            .probe(
                Source::Op(s),
                b,
                vec![0],
                vec![0, 1],
                vec![0],
                JoinType::Inner,
            )
            .unwrap();
        pb.build(p).unwrap().with_uniform_uot(uot)
    }

    fn rows_of(blocks: &[Arc<StorageBlock>]) -> Vec<Vec<Value>> {
        let mut rows: Vec<Vec<Value>> = blocks.iter().flat_map(|b| b.all_rows()).collect();
        rows.sort_by(|a, b| crate::ops::aggregate::cmp_value_rows(a, b));
        rows
    }

    // Thin shims over the collapsed driver, keeping the historical test
    // bodies readable: `run_serial` forces inline mode, `run_parallel`
    // keeps the configured pool (defaulting to two workers).

    fn run_serial(
        ctx: Arc<ExecContext>,
        config: SchedulerConfig,
    ) -> Result<(Vec<Arc<StorageBlock>>, QueryMetrics)> {
        run(
            ctx,
            SchedulerConfig {
                mode: ExecMode::Serial,
                ..config
            },
        )
    }

    fn run_serial_detailed(
        ctx: Arc<ExecContext>,
        config: SchedulerConfig,
    ) -> std::result::Result<(Vec<Arc<StorageBlock>>, QueryMetrics), Box<FailedQuery>> {
        let observer = MetricsObserver::new(&ctx.plan);
        run_query(
            ctx,
            SchedulerConfig {
                mode: ExecMode::Serial,
                ..config
            },
            observer,
        )
    }

    fn run_parallel(
        ctx: Arc<ExecContext>,
        config: SchedulerConfig,
    ) -> Result<(Vec<Arc<StorageBlock>>, QueryMetrics)> {
        let mode = match config.mode {
            ExecMode::Parallel { .. } => config.mode,
            ExecMode::Serial => ExecMode::Parallel { workers: 2 },
        };
        run(ctx, SchedulerConfig { mode, ..config })
    }

    #[test]
    fn serial_select_probe_all_uots_agree() {
        let mut reference: Option<Vec<Vec<Value>>> = None;
        for uot in [Uot::Blocks(1), Uot::Blocks(2), Uot::Blocks(4), Uot::Table] {
            let ctx = ctx_for(select_probe_plan(uot));
            let (blocks, metrics) = run_serial(
                ctx,
                SchedulerConfig {
                    default_uot: uot,
                    ..Default::default()
                },
            )
            .unwrap();
            let rows = rows_of(&blocks);
            // fact keys < 50 that match dim keys 0..10: 10 rows
            assert_eq!(rows.len(), 10, "{uot}");
            assert_eq!(metrics.result_rows, 10);
            match &reference {
                None => reference = Some(rows),
                Some(r) => assert_eq!(&rows, r, "{uot}"),
            }
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let ctx = ctx_for(select_probe_plan(Uot::Blocks(1)));
        let (blocks_s, _) = run_serial(ctx, SchedulerConfig::default()).unwrap();
        for workers in [2, 4] {
            let ctx = ctx_for(select_probe_plan(Uot::Blocks(1)));
            let (blocks_p, metrics) = run_parallel(
                ctx,
                SchedulerConfig {
                    mode: ExecMode::Parallel { workers },
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(rows_of(&blocks_p), rows_of(&blocks_s));
            assert_eq!(metrics.workers, workers);
        }
    }

    #[test]
    fn uot_controls_schedule_interleaving() {
        // With UoT=1 the probe starts before the select finishes (interleaved
        // sequence numbers); with UoT=Table every select task precedes every
        // probe task.
        let ctx = ctx_for(select_probe_plan(Uot::Table));
        let (_, m) = run_serial(
            ctx,
            SchedulerConfig {
                default_uot: Uot::Table,
                ..Default::default()
            },
        )
        .unwrap();
        // task log is chronological; find op ids: 0=build,1=select,2=probe
        let order: Vec<usize> = m.tasks.iter().map(|t| t.op).collect();
        let last_select = order.iter().rposition(|&o| o == 1).unwrap();
        let first_probe = order.iter().position(|&o| o == 2).unwrap();
        assert!(
            last_select < first_probe,
            "high UoT must not interleave: {order:?}"
        );

        let ctx = ctx_for(select_probe_plan(Uot::Blocks(1)));
        let (_, m) = run_serial(
            ctx,
            SchedulerConfig {
                default_uot: Uot::Blocks(1),
                ..Default::default()
            },
        )
        .unwrap();
        let order: Vec<usize> = m.tasks.iter().map(|t| t.op).collect();
        let last_select = order.iter().rposition(|&o| o == 1).unwrap();
        let first_probe = order.iter().position(|&o| o == 2).unwrap();
        assert!(
            first_probe < last_select,
            "low UoT must interleave: {order:?}"
        );
    }

    #[test]
    fn aggregation_pipeline() {
        let t = table("t3", 50, 8);
        let mut pb = PlanBuilder::new();
        let s = pb
            .filter(Source::Table(t), cmp(col(0), CmpOp::Ge, lit(10i32)))
            .unwrap();
        let a = pb
            .aggregate(
                Source::Op(s),
                vec![],
                vec![AggSpec::count_star(), AggSpec::sum(col(1))],
                &["n", "s"],
            )
            .unwrap();
        let plan = pb.build(a).unwrap();
        for uot in [Uot::Blocks(1), Uot::Table] {
            let ctx = ctx_for(plan.clone().with_uniform_uot(uot));
            let (blocks, _) = run_serial(ctx, SchedulerConfig::default()).unwrap();
            let rows = rows_of(&blocks);
            assert_eq!(rows.len(), 1);
            assert_eq!(rows[0][0], Value::I64(40));
            let expect: f64 = (10..50).map(|i| i as f64).sum();
            assert!((rows[0][1].as_f64() - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn sort_pipeline() {
        let t = table("t4", 30, 4);
        let mut pb = PlanBuilder::new();
        let s = pb
            .filter(Source::Table(t), cmp(col(0), CmpOp::Lt, lit(10i32)))
            .unwrap();
        let so = pb
            .sort(Source::Op(s), vec![SortKey::desc(0)], Some(3))
            .unwrap();
        let plan = pb.build(so).unwrap();
        let ctx = ctx_for(plan);
        let (blocks, _) = run_parallel(
            ctx,
            SchedulerConfig {
                mode: ExecMode::Parallel { workers: 3 },
                ..Default::default()
            },
        )
        .unwrap();
        let rows: Vec<Vec<Value>> = blocks.iter().flat_map(|b| b.all_rows()).collect();
        let ks: Vec<i32> = rows.iter().map(|r| r[0].as_i32()).collect();
        assert_eq!(ks, vec![9, 8, 7]);
    }

    #[test]
    fn empty_base_table_cascades() {
        let t = table("empty", 0, 4);
        let mut pb = PlanBuilder::new();
        let s = pb
            .filter(Source::Table(t.clone()), Predicate::True)
            .unwrap();
        let a = pb
            .aggregate(Source::Op(s), vec![], vec![AggSpec::count_star()], &["n"])
            .unwrap();
        let plan = pb.build(a).unwrap();
        let ctx = ctx_for(plan);
        let (blocks, _) = run_serial(ctx, SchedulerConfig::default()).unwrap();
        let rows = rows_of(&blocks);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::I64(0));
    }

    #[test]
    fn probe_waits_for_build() {
        // With UoT=1 probe input arrives before the build finishes; the
        // scheduler must hold those blocks. Validated by correctness (all
        // matches found) plus the task log (no probe before last build).
        let ctx = ctx_for(select_probe_plan(Uot::Blocks(1)));
        let (_, m) = run_serial(ctx, SchedulerConfig::default()).unwrap();
        let order: Vec<usize> = m.tasks.iter().map(|t| t.op).collect();
        let last_build = order.iter().rposition(|&o| o == 0).unwrap();
        let first_probe = order.iter().position(|&o| o == 2).unwrap();
        assert!(last_build < first_probe, "{order:?}");
    }

    #[test]
    fn nested_loops_through_scheduler() {
        let t = table("t5", 6, 2);
        let mut pb = PlanBuilder::new();
        let inner = pb
            .filter(Source::Table(t.clone()), cmp(col(0), CmpOp::Lt, lit(3i32)))
            .unwrap();
        let j = pb
            .nested_loops(
                Source::Table(t),
                inner,
                vec![(0, CmpOp::Eq, 0)],
                vec![0],
                vec![1],
            )
            .unwrap();
        let plan = pb.build(j).unwrap();
        let ctx = ctx_for(plan);
        let (blocks, _) = run_parallel(
            ctx,
            SchedulerConfig {
                mode: ExecMode::Parallel { workers: 2 },
                ..Default::default()
            },
        )
        .unwrap();
        let rows = rows_of(&blocks);
        assert_eq!(rows.len(), 3);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r[0], Value::I32(i as i32));
            assert_eq!(r[1], Value::F64(i as f64));
        }
    }

    #[test]
    fn limit_through_scheduler() {
        let t = table("t6", 40, 4);
        let mut pb = PlanBuilder::new();
        let s = pb.filter(Source::Table(t), Predicate::True).unwrap();
        let l = pb.limit(Source::Op(s), 11).unwrap();
        let plan = pb.build(l).unwrap();
        let ctx = ctx_for(plan);
        let (blocks, m) = run_serial(ctx, SchedulerConfig::default()).unwrap();
        assert_eq!(m.result_rows, 11);
        assert_eq!(rows_of(&blocks).len(), 11);
    }

    #[test]
    fn metrics_account_for_all_work() {
        let ctx = ctx_for(select_probe_plan(Uot::Blocks(1)));
        let (_, m) = run_serial(ctx, SchedulerConfig::default()).unwrap();
        // fact2: 100 rows, 8 per block -> 13 select work orders;
        // dim2: 10 rows, 4 per block -> 3 build work orders.
        assert_eq!(m.ops[1].work_orders, 13);
        assert_eq!(m.ops[0].work_orders, 3);
        assert!(m.ops[2].work_orders >= 1);
        assert_eq!(
            m.tasks.len(),
            m.ops.iter().map(|o| o.work_orders).sum::<usize>()
        );
        assert!(m.peak_temp_bytes > 0);
        assert!(!m.hash_table_bytes.is_empty());
        let dom = m.dominant_operators();
        assert_eq!(dom.len(), 3);
    }

    #[test]
    fn intermediate_uot_produces_partial_flush() {
        // 13 select output blocks with UoT=4: probe receives 3 transfers of 4
        // plus a final flush. All rows must still arrive.
        let plan = select_probe_plan(Uot::Blocks(4));
        let ctx = ctx_for(plan);
        let (blocks, m) = run_serial(
            ctx,
            SchedulerConfig {
                default_uot: Uot::Blocks(4),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(rows_of(&blocks).len(), 10);
        assert!(m.ops[2].input_blocks >= 1);
    }

    // --- new coverage: indexed dispatch, observer hook, stall diagnostics ---

    fn stream_wo(op: OpId, seq: usize) -> WorkOrder {
        let s = Schema::from_pairs(&[("k", DataType::Int32)]);
        let b = StorageBlock::new(s, BlockFormat::Row, 64).unwrap();
        WorkOrder {
            query: crate::query_id::QueryId::SOLO,
            op,
            kind: WorkKind::Stream { block: Arc::new(b) },
            seq,
        }
    }

    #[test]
    fn ready_queue_prefers_critical_then_downstream_then_fifo() {
        // ops: 0 critical, 1 and 2 ordinary.
        let mut q = ReadyQueue::new(vec![true, false, false]);
        q.push(stream_wo(1, 0));
        q.push(stream_wo(2, 1));
        q.push(stream_wo(0, 2));
        q.push(stream_wo(2, 3));
        assert_eq!(q.len(), 4);
        // critical op 0 first, then downstream op 2 FIFO, then op 1.
        let order: Vec<(OpId, usize)> = std::iter::from_fn(|| q.pop())
            .map(|wo| (wo.op, wo.seq))
            .collect();
        assert_eq!(order, vec![(0, 2), (2, 1), (2, 3), (1, 0)]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn noop_observer_drives_bare_machine() {
        let ctx = ctx_for(select_probe_plan(Uot::Blocks(1)));
        let mut core =
            SchedulerCore::with_observer(ctx.clone(), SchedulerConfig::default(), NoopObserver);
        let mut executed = 0usize;
        while let Some(wo) = core.next_work_order() {
            let produced = execute_work_order(&ctx, &wo).unwrap();
            executed += 1;
            core.on_complete(
                &wo,
                produced,
                TaskRecord {
                    op: wo.op,
                    worker: 0,
                    start: Duration::ZERO,
                    end: Duration::ZERO,
                },
            )
            .unwrap();
        }
        assert!(core.all_finished());
        assert!(executed >= 16, "3 build + 13 select + probes");
    }

    #[test]
    fn custom_observer_sees_dispatch_and_finish_events() {
        #[derive(Default)]
        struct Counting {
            dispatched: usize,
            completed: usize,
            finished_ops: Vec<OpId>,
        }
        impl SchedulerObserver for Counting {
            fn work_order_dispatched(&mut self, _wo: &WorkOrder) {
                self.dispatched += 1;
            }
            fn work_order_completed(&mut self, _wo: &WorkOrder, _r: TaskRecord) {
                self.completed += 1;
            }
            fn operator_finished(&mut self, op: OpId) {
                self.finished_ops.push(op);
            }
        }
        let ctx = ctx_for(select_probe_plan(Uot::Blocks(1)));
        let mut core = SchedulerCore::with_observer(
            ctx.clone(),
            SchedulerConfig::default(),
            Counting::default(),
        );
        while let Some(wo) = core.next_work_order() {
            let produced = execute_work_order(&ctx, &wo).unwrap();
            core.on_complete(
                &wo,
                produced,
                TaskRecord {
                    op: wo.op,
                    worker: 0,
                    start: Duration::ZERO,
                    end: Duration::ZERO,
                },
            )
            .unwrap();
        }
        assert!(core.all_finished());
        assert_eq!(core.observer.dispatched, core.observer.completed);
        assert_eq!(core.observer.finished_ops, vec![0, 1, 2]);
    }

    #[test]
    fn stall_report_names_operators_and_state() {
        // Freshly constructed: the build has queued work (outstanding > 0)
        // and the probe waits on it.
        let ctx = ctx_for(select_probe_plan(Uot::Blocks(1)));
        let core = SchedulerCore::new(ctx, SchedulerConfig::default());
        let report = core.stall_report();
        assert!(report.contains("op0"), "{report}");
        assert!(report.contains("op2"), "{report}");
        assert!(report.contains("waiting_on=1"), "{report}");
        assert!(report.contains("outstanding="), "{report}");
        let err = core.stall_error();
        let msg = err.to_string();
        assert!(msg.contains("scheduler stalled"), "{msg}");
        assert!(msg.contains("op2"), "{msg}");
    }

    #[test]
    fn dropping_work_orders_stalls_with_diagnostics() {
        // Simulate a lost work order: pop everything without completing.
        let ctx = ctx_for(select_probe_plan(Uot::Blocks(1)));
        let mut core = SchedulerCore::new(ctx, SchedulerConfig::default());
        while core.next_work_order().is_some() {}
        assert!(!core.all_finished());
        let report = core.stall_report();
        assert!(report.contains("outstanding="), "{report}");
    }

    // --- hardening: validation, cancellation, teardown accounting ---

    #[test]
    fn tracker_returns_to_baseline_after_success() {
        for uot in [Uot::Blocks(1), Uot::Blocks(4), Uot::Table] {
            let ctx = ctx_for(select_probe_plan(uot));
            let tracker = ctx.pool.tracker().clone();
            let (blocks, _) = run_serial(
                ctx,
                SchedulerConfig {
                    default_uot: uot,
                    ..Default::default()
                },
            )
            .unwrap();
            assert!(!blocks.is_empty());
            assert_eq!(tracker.current_bytes(), 0, "{uot}");
        }
    }

    #[test]
    fn cancellation_before_start_yields_cancelled_with_counts() {
        let ctx = ctx_for(select_probe_plan(Uot::Blocks(1)));
        let tracker = ctx.pool.tracker().clone();
        ctx.cancel.cancel();
        let failed = run_serial_detailed(ctx, SchedulerConfig::default()).unwrap_err();
        match failed.error {
            EngineError::Cancelled {
                completed_work_orders,
                ..
            } => assert_eq!(completed_work_orders, 0),
            other => panic!("expected Cancelled, got {other}"),
        }
        assert_eq!(tracker.current_bytes(), 0);
    }

    #[test]
    fn expired_deadline_cancels_both_drivers() {
        for parallel in [false, true] {
            let ctx = ctx_for(select_probe_plan(Uot::Blocks(1)));
            let tracker = ctx.pool.tracker().clone();
            let config = SchedulerConfig {
                mode: if parallel {
                    ExecMode::Parallel { workers: 2 }
                } else {
                    ExecMode::Serial
                },
                deadline: Some(Duration::ZERO),
                ..Default::default()
            };
            let err = run(ctx, config).unwrap_err();
            assert!(
                matches!(err, EngineError::Cancelled { .. }),
                "parallel={parallel}: {err}"
            );
            assert_eq!(tracker.current_bytes(), 0, "parallel={parallel}");
        }
    }

    #[test]
    fn error_path_preserves_completed_task_metrics() {
        // Inject a panic into the 5th work order; the first 4 completions
        // must still be visible in the partial metrics.
        let ctx = ctx_for(select_probe_plan(Uot::Blocks(1)));
        let ctx = Arc::new(
            Arc::try_unwrap(ctx)
                .unwrap_or_else(|_| panic!("sole owner"))
                .with_faults(Arc::new(crate::fault::FaultPlan::new(vec![
                    crate::fault::Injection {
                        site: FaultSite::WorkOrderExec,
                        kind: FaultKind::Panic,
                        nth: 5,
                    },
                ]))),
        );
        let tracker = ctx.pool.tracker().clone();
        let failed = run_serial_detailed(ctx, SchedulerConfig::default()).unwrap_err();
        assert!(
            matches!(failed.error, EngineError::WorkOrderPanic { .. }),
            "{}",
            failed.error
        );
        let done: usize = failed
            .partial_metrics
            .ops
            .iter()
            .map(|o| o.work_orders)
            .sum();
        assert_eq!(done, 4, "completions before the injected panic");
        assert_eq!(tracker.current_bytes(), 0, "error path must not leak");
    }
}
