//! Work-order execution: one module per physical operator.
//!
//! [`execute_work_order`] is the single entry point workers call; it
//! dispatches on the operator kind and the work kind and returns the
//! **completed** output blocks the work order produced (partially filled
//! blocks stay in the operator's [`OutputBuffer`](crate::output::OutputBuffer)
//! for the next work order, per the paper's block-pool discipline).

pub mod aggregate;
pub mod build;
pub mod builders;
pub mod grace;
pub mod limit;
pub mod nlj;
pub mod probe;
pub mod select;
pub mod sort;

use crate::error::EngineError;
use crate::fault::{FaultKind, FaultSite};
use crate::plan::OperatorKind;
use crate::state::ExecContext;
use crate::work_order::{WorkKind, WorkOrder};
use crate::Result;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use uot_storage::{StorageBlock, StorageError, Value};

/// Consult the context's [`FaultPlan`](crate::fault::FaultPlan) at `site`:
/// no-op for the (default) empty plan; otherwise panic, fail, or stall as
/// scheduled. Injected panics carry an "injected" marker in their payload so
/// chaos tests can tell them from genuine bugs.
pub(crate) fn apply_fault(ctx: &ExecContext, site: FaultSite, op: usize) -> Result<()> {
    match ctx.faults.check(site) {
        None => Ok(()),
        Some(kind @ FaultKind::Panic) => {
            ctx.trace_event(|| crate::trace::TraceEventKind::FaultInjected { site, kind, op });
            panic!("injected fault at {site:?}")
        }
        // An injected error models an allocation failure; zeroed fields mark
        // it as synthetic.
        Some(kind @ FaultKind::Error) => {
            ctx.trace_event(|| crate::trace::TraceEventKind::FaultInjected { site, kind, op });
            Err(EngineError::Storage(StorageError::BudgetExceeded {
                requested: 0,
                in_use: 0,
                budget: 0,
                global_in_use: 0,
                global_budget: 0,
            }))
        }
        Some(kind @ FaultKind::Delay(d)) => {
            ctx.trace_event(|| crate::trace::TraceEventKind::FaultInjected { site, kind, op });
            std::thread::sleep(d);
            Ok(())
        }
    }
}

/// Execute one work order with panic containment: a panicking operator
/// becomes [`EngineError::WorkOrderPanic`] naming the operator, and a
/// [`StorageError::BudgetExceeded`] bubbling out of the operator is wrapped
/// into [`EngineError::BudgetExceeded`] naming the operator that hit the
/// wall. Both drivers call this, so worker threads and the process always
/// survive a failing work order.
pub fn execute_work_order_contained(
    ctx: &ExecContext,
    wo: &WorkOrder,
) -> Result<Vec<StorageBlock>> {
    // `ExecContext` is shared behind `Arc` and every interior-mutable piece
    // of it is lock- or atomic-guarded (parking_lot locks do not poison), so
    // observing state after a contained panic is safe: at worst a partial's
    // rows are lost, and teardown releases its memory either way.
    let result = match std::panic::catch_unwind(AssertUnwindSafe(|| execute_work_order(ctx, wo))) {
        Ok(result) => attach_op_context(ctx, wo.op, result),
        Err(payload) => {
            // A panic inside a fused loop is attributed to the whole
            // pipeline: the chain label names every member, since the
            // faulting operator could be any of them.
            let fused = matches!(wo.kind, WorkKind::Stream { .. })
                .then(|| ctx.fusion.chain_for_head(wo.op))
                .flatten();
            let (op_name, kind) = match fused {
                Some(chain) => (chain.label.clone(), "fused-pipeline".to_string()),
                None => {
                    let op = ctx.plan.op(wo.op);
                    (op.name.clone(), op.kind.kind_label().to_string())
                }
            };
            Err(EngineError::WorkOrderPanic {
                op: op_name,
                kind,
                payload: panic_payload_message(payload.as_ref()),
            })
        }
    };
    match &result {
        Err(EngineError::WorkOrderPanic { .. }) => {
            ctx.trace_event(|| crate::trace::TraceEventKind::WorkOrderPanicked {
                seq: wo.seq,
                op: wo.op,
            });
        }
        Err(EngineError::Cancelled { .. }) => {
            ctx.trace_event(|| crate::trace::TraceEventKind::WorkOrderCancelled {
                seq: wo.seq,
                op: wo.op,
            });
        }
        Err(_) => {
            ctx.trace_event(|| crate::trace::TraceEventKind::WorkOrderFailed {
                seq: wo.seq,
                op: wo.op,
            });
        }
        Ok(_) => {}
    }
    result
}

/// Downcast a panic payload to a human-readable message.
fn panic_payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Name the responsible operator on errors that need it (budget failures).
fn attach_op_context(
    ctx: &ExecContext,
    op: usize,
    result: Result<Vec<StorageBlock>>,
) -> Result<Vec<StorageBlock>> {
    match result {
        Err(EngineError::Storage(StorageError::BudgetExceeded {
            requested,
            in_use,
            budget,
            global_in_use,
            global_budget,
        })) => Err(EngineError::BudgetExceeded {
            op: ctx.plan.op(op).name.clone(),
            query: ctx.query,
            requested,
            in_use,
            budget,
            global_in_use,
            global_budget,
        }),
        other => other,
    }
}

/// Execute one work order, returning the completed blocks it emitted.
pub fn execute_work_order(ctx: &ExecContext, wo: &WorkOrder) -> Result<Vec<StorageBlock>> {
    ctx.check_cancelled()?;
    apply_fault(ctx, FaultSite::WorkOrderExec, wo.op)?;
    // A stream work order on a fused-chain head pushes its block through the
    // whole chain in one loop; the staged per-operator path is bypassed.
    if let WorkKind::Stream { block } = &wo.kind {
        if let Some(chain) = ctx.fusion.chain_for_head(wo.op) {
            return crate::fusion::execute_fused(ctx, chain, block);
        }
    }
    let op = ctx.plan.op(wo.op);
    match (&op.kind, &wo.kind) {
        (OperatorKind::Select { .. }, WorkKind::Stream { block }) => {
            select::execute(ctx, wo.op, block)
        }
        (OperatorKind::BuildHash { .. }, WorkKind::Stream { block }) => {
            build::execute(ctx, wo.op, block)
        }
        (OperatorKind::Probe { .. }, WorkKind::Stream { block }) => {
            probe::execute(ctx, wo.op, block)
        }
        (OperatorKind::Probe { .. }, WorkKind::FinalizeJoin) => grace::finalize(ctx, wo.op),
        (OperatorKind::Aggregate { .. }, WorkKind::Stream { block }) => {
            aggregate::execute_block(ctx, wo.op, block)
        }
        (OperatorKind::Aggregate { .. }, WorkKind::FinalizeAggregate) => {
            aggregate::execute_finalize(ctx, wo.op)
        }
        (OperatorKind::Sort { .. }, WorkKind::FinalizeSort) => sort::execute(ctx, wo.op),
        (OperatorKind::NestedLoops { .. }, WorkKind::Stream { block }) => {
            nlj::execute(ctx, wo.op, block)
        }
        (OperatorKind::Limit { .. }, WorkKind::Stream { block }) => {
            limit::execute(ctx, wo.op, block)
        }
        (kind, work) => Err(EngineError::Internal(format!(
            "work order {work:?} does not match operator kind {}",
            kind.kind_label()
        ))),
    }
}

/// Route an operator's materialized output through its
/// [`OutputBuffer`](crate::output::OutputBuffer) — the single choke point
/// for fresh output allocations, where `pool_alloc` faults inject.
pub(crate) fn write_output(
    ctx: &ExecContext,
    op: usize,
    virt: &StorageBlock,
) -> Result<Vec<StorageBlock>> {
    apply_fault(ctx, FaultSite::PoolAlloc, op)?;
    let before = traced_in_use(ctx);
    let out = ctx.output(op).write_rows(virt, &ctx.pool)?;
    trace_alloc(ctx, op, before);
    Ok(out)
}

/// Tracker bytes in use right now — read only when a trace sink is installed
/// (the untraced fast path must not touch the shared atomic).
fn traced_in_use(ctx: &ExecContext) -> Option<usize> {
    ctx.trace
        .is_some()
        .then(|| ctx.pool.tracker().current_bytes())
}

/// Record a [`PoolAlloc`](crate::trace::TraceEventKind::PoolAlloc) event for
/// any net growth of tracked bytes since `before` (a `traced_in_use` probe).
fn trace_alloc(ctx: &ExecContext, op: usize, before: Option<usize>) {
    let Some(before) = before else { return };
    let in_use = ctx.pool.tracker().current_bytes();
    if in_use > before {
        ctx.trace_event(|| crate::trace::TraceEventKind::PoolAlloc {
            op,
            bytes: in_use - before,
            in_use,
            budget: ctx.pool.budget().unwrap_or(usize::MAX),
        });
    }
}

/// Append value rows (slow path: sort results) to the operator's output
/// buffer, returning completed blocks.
pub(crate) fn emit_value_rows(
    ctx: &ExecContext,
    op: usize,
    rows: impl Iterator<Item = Vec<Value>>,
) -> Result<Vec<StorageBlock>> {
    emit_rows(ctx, op, rows, |block, row| Ok(block.append_row(row)?))
}

/// Append every row of `src` (a virtual block of the operator's output
/// schema) to the operator's output buffer with typed copies, returning
/// completed blocks: the same blocks [`emit_value_rows`] produces for the
/// same rows.
pub(crate) fn emit_block_rows(
    ctx: &ExecContext,
    op: usize,
    src: &StorageBlock,
) -> Result<Vec<StorageBlock>> {
    let cols: Vec<usize> = (0..src.schema().len()).collect();
    emit_rows(ctx, op, 0..src.num_rows(), |block, &row| {
        Ok(block.append_projected(src, row, &cols))
    })
}

/// The shared emit loop of the finalize operators: check a block out only
/// when a row needs one, rotate it out when full (honoring cancellation
/// between blocks), and put a trailing partial block back. On a failed
/// checkout, append or cancellation check, every block this call holds is
/// discarded so the tracker does not leak bytes on error paths.
fn emit_rows<R>(
    ctx: &ExecContext,
    op: usize,
    rows: impl Iterator<Item = R>,
    mut append: impl FnMut(&mut StorageBlock, &R) -> Result<bool>,
) -> Result<Vec<StorageBlock>> {
    apply_fault(ctx, FaultSite::PoolAlloc, op)?;
    let before = traced_in_use(ctx);
    let out = ctx.output(op);
    let mut completed = Vec::new();
    let mut cur: Option<StorageBlock> = None;
    let result = (|| -> Result<()> {
        for row in rows {
            loop {
                let block = match &mut cur {
                    Some(b) => b,
                    None => {
                        cur = Some(out.checkout(&ctx.pool)?);
                        cur.as_mut().expect("just set")
                    }
                };
                let appended = append(block, &row)?;
                // Rotate a full block out: it filled up with this row, or
                // was full before it.
                if !appended || block.is_full() {
                    completed.push(cur.take().expect("present"));
                    ctx.check_cancelled()?;
                }
                if appended {
                    break;
                }
            }
        }
        Ok(())
    })();
    match result {
        Ok(()) => {
            if let Some(b) = cur {
                out.put_back(b, &ctx.pool);
            }
            trace_alloc(ctx, op, before);
            Ok(completed)
        }
        Err(e) => {
            for b in completed {
                ctx.pool.discard(b);
            }
            if let Some(b) = cur {
                ctx.pool.discard(b);
            }
            Err(e)
        }
    }
}

/// Decode `block` rows `rows` fully into values (sort/test helper).
pub(crate) fn rows_to_values(block: &Arc<StorageBlock>) -> Vec<Vec<Value>> {
    block.all_rows()
}
