//! # uot-expr
//!
//! Expression evaluation for the UoT query engine: scalar expressions,
//! boolean predicates and aggregate functions.
//!
//! Evaluation is **vectorized** in the MonetDB/Vectorwise tradition the paper
//! builds on: a predicate maps a whole storage block to a selection
//! [`Bitmap`](uot_storage::Bitmap); a scalar expression maps the selected rows
//! of a block to one typed [`ColumnData`](uot_storage::ColumnData) vector.
//! Column-store blocks take slice-based fast paths; row-store blocks fall
//! back to strided per-row reads, which is exactly the access-pattern
//! difference the paper's storage-format experiments measure.

pub mod aggregate;
pub mod error;
pub mod exact_sum;
pub mod predicate;
pub mod scalar;

pub use aggregate::{float_extreme, int_sum_result, AggFunc, AggSpec, AggState};
pub use error::ExprError;
pub use exact_sum::{CompactF64Sum, ExactF64Sum};
pub use predicate::{between_half_open, cmp, CmpOp, Predicate};
pub use scalar::{col, gather_all, gather_column, gather_from, lit, BinOp, ScalarExpr};

/// Result alias for expression evaluation.
pub type Result<T> = std::result::Result<T, ExprError>;
