//! Error type for the engine.

use crate::query_id::QueryId;
use std::fmt;
use std::time::Duration;
use uot_expr::ExprError;
use uot_sql::PlanError;
use uot_storage::StorageError;

/// Errors raised while building or executing query plans.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// Storage-layer failure.
    Storage(StorageError),
    /// Expression-layer failure.
    Expr(ExprError),
    /// SQL frontend failure: the statement did not lex, parse or bind.
    /// Carries the span-bearing [`PlanError`]; render a caret diagnostic
    /// with [`PlanError::snippet`] against the original text.
    Sql(PlanError),
    /// A plan referenced an operator id that does not exist (or is not
    /// upstream of the referencing operator).
    InvalidOperatorRef {
        /// The offending reference.
        referenced: usize,
        /// The operator doing the referencing.
        by: usize,
    },
    /// Structural plan problem (e.g. an operator output consumed twice, or
    /// the sink has a consumer).
    InvalidPlan(String),
    /// Invalid engine configuration for the plan being executed (zero
    /// workers, a block size too small to hold one tuple, ...). Raised by
    /// up-front validation before any work order runs.
    Config(String),
    /// A work order panicked. The panic was contained by the executing
    /// driver (the process and the other worker threads survive) and turned
    /// into this error.
    WorkOrderPanic {
        /// Display name of the operator whose work order panicked.
        op: String,
        /// Operator kind label ("select", "probe", ...).
        kind: String,
        /// The downcast panic message ("<non-string panic payload>" when the
        /// payload was neither `&str` nor `String`).
        payload: String,
    },
    /// The query was cancelled — either via a
    /// [`CancellationToken`](crate::CancellationToken) or because the
    /// scheduler's deadline elapsed.
    Cancelled {
        /// Wall time from query start until cancellation was observed.
        after: Duration,
        /// Work orders that had fully completed by then.
        completed_work_orders: usize,
    },
    /// An allocation pushed the pool past its memory budget. Wraps the
    /// storage-level [`StorageError::BudgetExceeded`] with the operator that
    /// asked for the allocation and the query it was working for, plus the
    /// process-wide occupancy so cross-query contention is diagnosable.
    BudgetExceeded {
        /// Display name of the operator that hit the wall.
        op: String,
        /// The query the allocation was charged to.
        query: QueryId,
        /// Bytes the allocation asked for.
        requested: usize,
        /// Bytes charged to this query's tracker at the time.
        in_use: usize,
        /// This query's budget (its reservation under a service) in bytes.
        budget: usize,
        /// Bytes charged process-wide (equals `in_use` outside a service).
        global_in_use: usize,
        /// The process-wide budget (equals `budget` outside a service).
        global_budget: usize,
    },
    /// The service refused to admit a query: its reservation can never fit
    /// the global budget, or the admission queue is full.
    AdmissionRejected {
        /// The query that was turned away.
        query: QueryId,
        /// The reservation it asked for, in bytes.
        reservation: usize,
        /// The service's global memory budget in bytes.
        budget: usize,
        /// Why admission failed.
        reason: String,
    },
    /// An aggregate's integer result does not fit its output type (an
    /// integer `SUM` beyond `Int64`).
    Overflow {
        /// Display name of the aggregate operator.
        op: String,
        /// What overflowed.
        detail: String,
    },
    /// The service was shut down before this query could run to completion.
    ServiceShutdown,
    /// Execution-time invariant violation.
    Internal(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Storage(e) => write!(f, "storage error: {e}"),
            EngineError::Expr(e) => write!(f, "expression error: {e}"),
            EngineError::Sql(e) => write!(f, "sql error: {e}"),
            EngineError::InvalidOperatorRef { referenced, by } => {
                write!(f, "operator {by} references invalid operator {referenced}")
            }
            EngineError::InvalidPlan(msg) => write!(f, "invalid plan: {msg}"),
            EngineError::Config(msg) => write!(f, "invalid engine configuration: {msg}"),
            EngineError::WorkOrderPanic { op, kind, payload } => {
                write!(f, "work order panicked in {kind} operator {op}: {payload}")
            }
            EngineError::Cancelled {
                after,
                completed_work_orders,
            } => write!(
                f,
                "query cancelled after {after:?} ({completed_work_orders} work orders completed)"
            ),
            EngineError::BudgetExceeded {
                op,
                query,
                requested,
                in_use,
                budget,
                global_in_use,
                global_budget,
            } => {
                write!(
                    f,
                    "memory budget exceeded at operator {op} ({query}): requested {requested} \
                     bytes with {in_use} of {budget} in use"
                )?;
                if (global_in_use, global_budget) != (in_use, budget) {
                    write!(f, " (global: {global_in_use} of {global_budget})")?;
                }
                Ok(())
            }
            EngineError::AdmissionRejected {
                query,
                reservation,
                budget,
                reason,
            } => write!(
                f,
                "admission rejected for {query}: reservation {reservation} bytes \
                 against a {budget}-byte global budget ({reason})"
            ),
            EngineError::ServiceShutdown => {
                write!(f, "query service shut down before the query completed")
            }
            EngineError::Overflow { op, detail } => {
                write!(f, "aggregate operator {op}: {detail}")
            }
            EngineError::Internal(msg) => write!(f, "internal engine error: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<StorageError> for EngineError {
    fn from(e: StorageError) -> Self {
        EngineError::Storage(e)
    }
}

impl From<ExprError> for EngineError {
    fn from(e: ExprError) -> Self {
        EngineError::Expr(e)
    }
}

impl From<PlanError> for EngineError {
    fn from(e: PlanError) -> Self {
        EngineError::Sql(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        let e: EngineError = StorageError::TableNotFound("t".into()).into();
        assert!(matches!(e, EngineError::Storage(_)));
        let e: EngineError = ExprError::ColumnOutOfRange { index: 1, len: 0 }.into();
        assert!(matches!(e, EngineError::Expr(_)));
        let e: EngineError =
            PlanError::spanless(uot_sql::PlanErrorKind::Parse, "dangling FROM").into();
        assert!(matches!(e, EngineError::Sql(_)));
        assert!(e.to_string().contains("sql error"));
        assert!(e.to_string().contains("dangling FROM"));
    }

    #[test]
    fn display() {
        let e = EngineError::InvalidOperatorRef {
            referenced: 3,
            by: 5,
        };
        assert!(e.to_string().contains('3'));
        assert!(e.to_string().contains('5'));
        assert!(EngineError::InvalidPlan("no sink".into())
            .to_string()
            .contains("no sink"));
        let e = EngineError::Config("workers must be >= 1".into());
        assert!(e.to_string().contains("invalid engine configuration"));
        assert!(e.to_string().contains("workers must be >= 1"));
    }

    #[test]
    fn hardening_variant_display() {
        let e = EngineError::WorkOrderPanic {
            op: "probe(t)".into(),
            kind: "probe".into(),
            payload: "boom".into(),
        };
        assert!(e.to_string().contains("probe(t)"));
        assert!(e.to_string().contains("boom"));

        let e = EngineError::Cancelled {
            after: Duration::from_millis(12),
            completed_work_orders: 3,
        };
        assert!(e.to_string().contains("cancelled"));
        assert!(e.to_string().contains('3'));

        let e = EngineError::BudgetExceeded {
            op: "sort(t)".into(),
            query: QueryId::SOLO,
            requested: 4096,
            in_use: 100,
            budget: 2048,
            global_in_use: 100,
            global_budget: 2048,
        };
        assert!(e.to_string().contains("sort(t)"));
        assert!(e.to_string().contains("q0"));
        assert!(e.to_string().contains("4096"));
        assert!(e.to_string().contains("2048"));
        assert!(!e.to_string().contains("global")); // solo run: no noise

        let e = EngineError::BudgetExceeded {
            op: "probe(t)".into(),
            query: QueryId::new(4),
            requested: 4096,
            in_use: 100,
            budget: 1 << 20,
            global_in_use: 900_000,
            global_budget: 1 << 20,
        };
        assert!(e.to_string().contains("q4"));
        assert!(e.to_string().contains("global: 900000"));
    }

    #[test]
    fn service_variant_display() {
        let e = EngineError::AdmissionRejected {
            query: QueryId::new(9),
            reservation: 1 << 30,
            budget: 1 << 20,
            reason: "reservation exceeds the global budget".into(),
        };
        assert!(e.to_string().contains("q9"));
        assert!(e
            .to_string()
            .contains("reservation exceeds the global budget"));
        assert!(EngineError::ServiceShutdown
            .to_string()
            .contains("shut down"));
    }
}
