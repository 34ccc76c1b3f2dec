//! Shared runtime state for one executing query.
//!
//! Work orders run on worker threads and only touch this state plus their
//! input block; all scheduling decisions stay in the scheduler thread. The
//! state is therefore limited to thread-safe structures: output buffers,
//! shared join hash tables, aggregate group tables, collected block lists
//! (sort input / nested-loops inner side) and the limit counter.

use crate::bloom::BloomFilter;
use crate::cancel::CancellationToken;
use crate::error::EngineError;
use crate::fault::FaultPlan;
use crate::hash_table::{JoinHashTable, ProbeMatch};
use crate::ops::aggregate::GroupTable;
use crate::output::OutputBuffer;
use crate::plan::{OperatorKind, QueryPlan, Source};
use crate::Result;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::AtomicI64;
use std::sync::Arc;
use std::time::Instant;
use uot_expr::AggState;
use uot_storage::{
    hash_key::FxBuildHasher, BlockFormat, BlockPool, HashKey, KeyBatch, KeyExtractor,
    SpilledHandle, StorageBlock, Value,
};

/// One side (build or probe) of a grace hash join, partitioned by hash radix.
///
/// Each partition has at most one *open* block accumulating rows in memory;
/// full blocks are spilled to disk immediately, so the resident footprint of
/// a grace side is bounded by `nparts × block_bytes` regardless of input
/// size.
#[derive(Debug, Default)]
pub struct GraceSide {
    /// Per-partition open (partially filled) block, if any.
    pub open: Vec<Option<StorageBlock>>,
    /// Per-partition spilled full blocks.
    pub spilled: Vec<Vec<SpilledHandle>>,
}

impl GraceSide {
    /// Empty side with `nparts` partitions.
    pub fn with_parts(nparts: usize) -> Self {
        GraceSide {
            open: (0..nparts).map(|_| None).collect(),
            spilled: (0..nparts).map(|_| Vec::new()).collect(),
        }
    }
}

/// Shared state of one grace (partitioned, out-of-core) hash join.
///
/// Present in [`ExecContext::grace`] — keyed by **both** the build and the
/// probe operator id — when [`ExecContext::plan_grace`] decided the build
/// side will not fit the memory budget. The build and probe operators then
/// partition their inputs into [`GraceSide`]s instead of building/probing a
/// monolithic hash table, and a `FinalizeJoin` work order joins the
/// partitions one at a time.
#[derive(Debug)]
pub struct GraceJoinState {
    /// The `BuildHash` operator feeding this join.
    pub build_op: usize,
    /// The `Probe` operator.
    pub probe_op: usize,
    /// Partition count (power of two).
    pub nparts: usize,
    /// Partitioned build input.
    pub build: Mutex<GraceSide>,
    /// Partitioned probe input.
    pub probe: Mutex<GraceSide>,
}

impl GraceJoinState {
    /// Partition index for a 64-bit key hash. Uses bits 32.. so it stays
    /// disjoint from both the hash table's shard bits (top 16) and its
    /// in-shard slot bits (bottom), making sub-partitioning on deeper bits
    /// meaningful during recursive respill.
    pub fn partition_of(&self, hash: u64) -> usize {
        (hash >> 32) as usize & (self.nparts - 1)
    }
}

/// One group's accumulated state in the scalar reference aggregation
/// ([`crate::ops::aggregate::execute_block_scalar`]).
#[derive(Debug, Clone)]
pub struct GroupEntry {
    /// The grouping-column values (materialized once per group).
    pub group_vals: Vec<Value>,
    /// One accumulator per aggregate.
    pub states: Vec<AggState>,
}

/// A per-block partial of the scalar reference aggregation.
#[derive(Debug, Default)]
pub struct AggPartial {
    /// Group key → accumulated entry.
    pub groups: HashMap<HashKey, GroupEntry, FxBuildHasher>,
}

/// Runtime state attached to one operator.
#[derive(Debug)]
pub struct OpRuntime {
    /// Output staging (absent for `BuildHash`, which produces a hash table).
    pub output: Option<OutputBuffer>,
    /// The hash table (only for `BuildHash`).
    pub hash_table: Option<Arc<JoinHashTable>>,
    /// LIP Bloom filter over the build keys — present only when some select
    /// references this build via a [`crate::plan::LipFilter`].
    pub bloom: Option<Arc<BloomFilter>>,
    /// Rows dropped by LIP filters at this select (metrics).
    pub lip_pruned: std::sync::atomic::AtomicUsize,
    /// Free list of group tables (only for `Aggregate`): a stream work
    /// order checks one out and puts it back, so there is one table per
    /// concurrently running work order; finalize merges them all.
    pub agg_tables: Mutex<Vec<GroupTable>>,
    /// Per-block partials of the scalar reference aggregation.
    pub agg_partials: Mutex<Vec<AggPartial>>,
    /// Collected input blocks: the sort input, or the materialized inner
    /// side of a nested-loops join.
    pub collected: Mutex<Vec<Arc<StorageBlock>>>,
    /// Remaining row budget (only for `Limit`).
    pub limit_remaining: AtomicI64,
}

/// Reusable per-work-order buffers for the batched key pipeline. Checked out
/// of the [`ExecContext`] pool at work-order start (one lock op) and returned
/// at the end, so per-block extraction and probing never allocate in steady
/// state.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Extracted keys + hashes for the current block.
    pub keys: KeyBatch,
    /// Resolved probe matches (inner joins).
    pub matches: Vec<ProbeMatch>,
    /// Per-row existence flags (semi/anti joins).
    pub exists: Vec<bool>,
    /// Selected row indices (semi/anti output, LIP survivors).
    pub rows: Vec<u32>,
    /// One group id per row of the current block (hash aggregation).
    pub group_ids: Vec<u32>,
}

/// One group of LIP filters sharing a key-column set: keys are extracted and
/// hashed once per block, then every Bloom filter in the group probes the
/// same hash vector.
#[derive(Debug)]
pub struct LipGroup {
    /// Extractor over the select's input schema for the shared key columns.
    pub extractor: KeyExtractor,
    /// The `BuildHash` operators whose Bloom filters consume these keys.
    pub builds: Vec<usize>,
}

/// Everything a worker needs to execute any work order of the query.
#[derive(Debug)]
pub struct ExecContext {
    /// The plan being executed.
    pub plan: Arc<QueryPlan>,
    /// The global temporary-block pool.
    pub pool: Arc<BlockPool>,
    /// Per-operator runtime state, indexed by `OpId`.
    pub runtimes: Vec<OpRuntime>,
    /// Format of temporary blocks (the paper: row store regardless of base
    /// table format; configurable here).
    pub temp_format: BlockFormat,
    /// Capacity of temporary blocks in bytes (grace-join partition buffers
    /// check out blocks of this size).
    pub block_bytes: usize,
    /// Shard count for join hash tables (grace partitions build their
    /// per-partition tables with the same setting).
    pub hash_table_shards: usize,
    /// Per-operator key extractor, compiled once at context build: build
    /// keys, probe keys, or group-by keys depending on the operator kind.
    extractors: Vec<Option<KeyExtractor>>,
    /// Per-select LIP filters grouped by distinct key-column set.
    pub lip_groups: Vec<Vec<LipGroup>>,
    /// Pool of reusable [`Scratch`] buffers (≤ one per concurrent worker).
    scratch: Mutex<Vec<Scratch>>,
    /// Cooperative cancellation flag, checked between blocks by loop
    /// operators and at every scheduler dispatch.
    pub cancel: CancellationToken,
    /// Fault-injection registry (empty outside chaos tests).
    pub faults: Arc<FaultPlan>,
    /// Trace sink, when structured tracing is enabled for this query.
    /// `None` (the default) keeps every `trace_event` call a single branch.
    pub trace: Option<Arc<crate::trace::TraceSink>>,
    /// Which query this context belongs to: [`QueryId::SOLO`] for standalone
    /// `Engine` runs, a service-assigned id under a `QueryService`.
    pub query: crate::query_id::QueryId,
    /// Per-query fusion plan: which pipelines run as fused push-based loops.
    /// The default (empty) state fuses nothing — every direct-context test
    /// and staged run keeps the historical path.
    pub fusion: crate::fusion::FusionState,
    /// Grace hash-join state, keyed by both the build and the probe operator
    /// id. Empty unless [`plan_grace`](Self::plan_grace) decided some build
    /// side exceeds the memory budget.
    pub grace: HashMap<usize, Arc<GraceJoinState>>,
    /// Query start, for the `after` field of cancellation errors.
    started: Instant,
}

impl ExecContext {
    /// Allocate runtime state for `plan`.
    pub fn new(
        plan: Arc<QueryPlan>,
        pool: Arc<BlockPool>,
        temp_format: BlockFormat,
        block_bytes: usize,
        hash_table_shards: usize,
    ) -> Result<Self> {
        // Which builds need a Bloom filter (referenced by some select's LIP
        // list), and a capacity estimate from the upstream base table.
        let mut needs_bloom = vec![false; plan.len()];
        for op in plan.ops() {
            if let OperatorKind::Select { lip, .. } = &op.kind {
                for l in lip {
                    needs_bloom[l.build] = true;
                }
            }
        }
        let estimated_rows = |mut id: usize| -> usize {
            loop {
                match plan.op(id).kind.stream_source() {
                    Source::Table(t) => return t.num_rows().max(16),
                    Source::Op(src) => id = *src,
                }
            }
        };
        // Compile key extractors once per operator: the batched pipeline's
        // single dispatch per block replaces one dispatch per row.
        let mut extractors = Vec::with_capacity(plan.len());
        let mut lip_groups: Vec<Vec<LipGroup>> = Vec::with_capacity(plan.len());
        for (id, op) in plan.ops().iter().enumerate() {
            let key_cols: Option<&[usize]> = match &op.kind {
                OperatorKind::BuildHash { key_cols, .. } => Some(key_cols),
                OperatorKind::Probe { probe_key_cols, .. } => Some(probe_key_cols),
                OperatorKind::Aggregate { group_by, .. } if !group_by.is_empty() => Some(group_by),
                _ => None,
            };
            extractors.push(match key_cols {
                Some(cols) => Some(KeyExtractor::compile(&plan.input_schema(id), cols)?),
                None => None,
            });
            let mut groups: Vec<LipGroup> = Vec::new();
            let mut group_cols: Vec<&[usize]> = Vec::new();
            if let OperatorKind::Select { lip, .. } = &op.kind {
                for l in lip {
                    match group_cols.iter().position(|c| *c == l.key_cols.as_slice()) {
                        Some(i) => groups[i].builds.push(l.build),
                        None => {
                            group_cols.push(&l.key_cols);
                            groups.push(LipGroup {
                                extractor: KeyExtractor::compile(
                                    &plan.input_schema(id),
                                    &l.key_cols,
                                )?,
                                builds: vec![l.build],
                            });
                        }
                    }
                }
            }
            lip_groups.push(groups);
        }
        let mut runtimes = Vec::with_capacity(plan.len());
        for (id, op) in plan.ops().iter().enumerate() {
            let (output, hash_table) = match &op.kind {
                OperatorKind::BuildHash { .. } => (
                    None,
                    Some(Arc::new(JoinHashTable::new(
                        op.out_schema.clone(),
                        hash_table_shards,
                    ))),
                ),
                _ => (
                    Some(OutputBuffer::new(
                        op.out_schema.clone(),
                        temp_format,
                        block_bytes,
                    )),
                    None,
                ),
            };
            let limit_remaining = match &op.kind {
                OperatorKind::Limit { n, .. } => AtomicI64::new(*n as i64),
                _ => AtomicI64::new(0),
            };
            let bloom = (needs_bloom[id])
                .then(|| Arc::new(BloomFilter::with_capacity(estimated_rows(id), 0.01)));
            runtimes.push(OpRuntime {
                output,
                hash_table,
                bloom,
                lip_pruned: std::sync::atomic::AtomicUsize::new(0),
                agg_tables: Mutex::new(Vec::new()),
                agg_partials: Mutex::new(Vec::new()),
                collected: Mutex::new(Vec::new()),
                limit_remaining,
            });
        }
        Ok(ExecContext {
            plan,
            pool,
            runtimes,
            temp_format,
            block_bytes,
            hash_table_shards,
            extractors,
            lip_groups,
            scratch: Mutex::new(Vec::new()),
            cancel: CancellationToken::new(),
            faults: Arc::new(FaultPlan::empty()),
            trace: None,
            query: crate::query_id::QueryId::SOLO,
            fusion: crate::fusion::FusionState::default(),
            grace: HashMap::new(),
            started: Instant::now(),
        })
    }

    /// Decide which hash joins must run as grace (partitioned, out-of-core)
    /// joins under `budget` bytes of memory. Called once before execution
    /// when the spill tier is enabled.
    ///
    /// The build-side size estimate walks the build's stream source down to
    /// its base table and assumes every row survives with 2× expansion for
    /// hash-table overhead — deliberately pessimistic, since choosing grace
    /// for a join that would have fit costs one extra disk round-trip while
    /// the opposite choice aborts the query. A join goes grace when its
    /// estimate exceeds half the budget; the partition count doubles until a
    /// single partition's share fits a quarter of the budget (capped at 64).
    pub fn plan_grace(&mut self, budget: usize) {
        for (id, op) in self.plan.ops().iter().enumerate() {
            let OperatorKind::Probe { build, .. } = &op.kind else {
                continue;
            };
            let build_op = *build;
            let mut src = self.plan.op(build_op).kind.stream_source();
            let base_rows = loop {
                match src {
                    Source::Table(t) => break t.num_rows(),
                    Source::Op(s) => src = self.plan.op(*s).kind.stream_source(),
                }
            };
            let width = self.plan.input_schema(build_op).tuple_width().max(8);
            let est = base_rows * width * 2;
            if est <= budget / 2 {
                continue;
            }
            let mut nparts = 2usize;
            while est / nparts > budget / 4 && nparts < 64 {
                nparts *= 2;
            }
            let state = Arc::new(GraceJoinState {
                build_op,
                probe_op: id,
                nparts,
                build: Mutex::new(GraceSide::with_parts(nparts)),
                probe: Mutex::new(GraceSide::with_parts(nparts)),
            });
            self.grace.insert(build_op, state.clone());
            self.grace.insert(id, state);
        }
    }

    /// Attribute this context to `query` (builder-style; the service sets
    /// its assigned id so every error, metric and trace carries it).
    pub fn with_query(mut self, query: crate::query_id::QueryId) -> Self {
        self.query = query;
        self
    }

    /// Attach a shared cancellation token (builder-style; the default token
    /// is private to this context and can only be tripped through it).
    pub fn with_cancellation(mut self, token: CancellationToken) -> Self {
        self.cancel = token;
        self
    }

    /// Attach a fault-injection plan (builder-style; chaos tests only).
    pub fn with_faults(mut self, faults: Arc<FaultPlan>) -> Self {
        self.faults = faults;
        self
    }

    /// Attach a fusion plan (builder-style): chains recorded in it execute
    /// as fused push-based loops instead of staged transfers.
    pub fn with_fusion(mut self, fusion: crate::fusion::FusionState) -> Self {
        self.fusion = fusion;
        self
    }

    /// Attach a trace sink (builder-style): every scheduler and work-order
    /// event is recorded into it until the context is dropped.
    pub fn with_trace(mut self, sink: Arc<crate::trace::TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Record a trace event if a sink is installed. The closure keeps event
    /// construction (byte sums, gauge reads) off the untraced fast path.
    #[inline]
    pub fn trace_event(&self, f: impl FnOnce() -> crate::trace::TraceEventKind) {
        if let Some(sink) = &self.trace {
            sink.record(f());
        }
    }

    /// Between-blocks cancellation check for block-loop operators.
    ///
    /// The returned error's `completed_work_orders` is a placeholder (0):
    /// only the driver knows the authoritative count and rewrites the error
    /// before surfacing it.
    pub fn check_cancelled(&self) -> Result<()> {
        if self.cancel.is_cancelled() {
            Err(EngineError::Cancelled {
                after: self.started.elapsed(),
                completed_work_orders: 0,
            })
        } else {
            Ok(())
        }
    }

    /// Wall time since this context was created (query start).
    pub fn elapsed(&self) -> std::time::Duration {
        self.started.elapsed()
    }

    /// The compiled key extractor for operator `id` (panics when `id` has no
    /// keyed kind — plan validation guarantees builds/probes/grouped
    /// aggregates always have one).
    pub fn key_extractor(&self, id: usize) -> &KeyExtractor {
        // invariant: `new` compiles an extractor for every keyed kind (build,
        // probe, grouped aggregate) and only those kinds' work orders call
        // this — no user input reaches it with a keyless operator.
        self.extractors[id]
            .as_ref()
            .expect("operator kind has key columns")
    }

    /// Check a [`Scratch`] out of the pool (or allocate a fresh one).
    pub fn take_scratch(&self) -> Scratch {
        self.scratch.lock().pop().unwrap_or_default()
    }

    /// Return a [`Scratch`] for reuse by later work orders.
    pub fn put_scratch(&self, s: Scratch) {
        self.scratch.lock().push(s);
    }

    /// The hash table of build operator `id` (panics if `id` is not a build —
    /// plan validation guarantees probes only reference builds).
    pub fn hash_table(&self, id: usize) -> &Arc<JoinHashTable> {
        // invariant: PlanBuilder::probe rejects a non-build `build` reference
        // up front, and `new` allocates a hash table for every BuildHash op.
        self.runtimes[id]
            .hash_table
            .as_ref()
            .expect("plan validation guarantees a hash table here")
    }

    /// The output buffer of operator `id` (panics for builds).
    pub fn output(&self, id: usize) -> &OutputBuffer {
        // invariant: `new` gives every non-build operator an output buffer,
        // and builds produce hash tables, never blocks — no work-order path
        // asks a build for its output buffer.
        self.runtimes[id]
            .output
            .as_ref()
            .expect("operator produces blocks")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{PlanBuilder, Source};
    use uot_storage::{DataType, MemoryTracker, Schema, Table, TableBuilder};

    fn table() -> Arc<Table> {
        let s = Schema::from_pairs(&[("k", DataType::Int32)]);
        let mut tb = TableBuilder::new("t", s, BlockFormat::Column, 64);
        tb.append(&[Value::I32(1)]).unwrap();
        Arc::new(tb.finish())
    }

    #[test]
    fn context_allocates_per_op_state() {
        let t = table();
        let mut pb = PlanBuilder::new();
        let b = pb
            .build_hash(Source::Table(t.clone()), vec![0], vec![0])
            .unwrap();
        let p = pb
            .probe(
                Source::Table(t),
                b,
                vec![0],
                vec![0],
                vec![0],
                crate::plan::JoinType::Inner,
            )
            .unwrap();
        let plan = Arc::new(pb.build(p).unwrap());
        let pool = BlockPool::new(MemoryTracker::new());
        let ctx = ExecContext::new(plan, pool, BlockFormat::Row, 1024, 4).unwrap();
        assert!(ctx.runtimes[b].hash_table.is_some());
        assert!(ctx.runtimes[b].output.is_none());
        assert!(ctx.runtimes[p].output.is_some());
        assert!(ctx.runtimes[p].hash_table.is_none());
        // accessors
        let _ = ctx.hash_table(b);
        let _ = ctx.output(p);
    }

    #[test]
    fn limit_budget_initialized() {
        let t = table();
        let mut pb = PlanBuilder::new();
        let l = pb.limit(Source::Table(t), 7).unwrap();
        let plan = Arc::new(pb.build(l).unwrap());
        let pool = BlockPool::new(MemoryTracker::new());
        let ctx = ExecContext::new(plan, pool, BlockFormat::Row, 1024, 4).unwrap();
        assert_eq!(
            ctx.runtimes[l]
                .limit_remaining
                .load(std::sync::atomic::Ordering::Relaxed),
            7
        );
    }
}
