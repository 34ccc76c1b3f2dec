//! Error type for expression evaluation.

use std::fmt;
use uot_storage::StorageError;

/// Errors raised while type-checking or evaluating expressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExprError {
    /// An operand had a type the operator cannot handle.
    InvalidType {
        /// Where the problem was found.
        context: &'static str,
        /// Offending type name.
        found: String,
    },
    /// Two operands had incompatible types.
    Incompatible {
        /// Left operand's type.
        left: String,
        /// Right operand's type.
        right: String,
        /// What was being attempted.
        context: &'static str,
    },
    /// A column index was out of bounds for the input schema.
    ColumnOutOfRange {
        /// Index requested.
        index: usize,
        /// Schema arity.
        len: usize,
    },
    /// An integer result does not fit its output type.
    Overflow {
        /// What overflowed.
        context: &'static str,
    },
    /// An underlying storage error.
    Storage(StorageError),
}

impl fmt::Display for ExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExprError::InvalidType { context, found } => {
                write!(f, "invalid type in {context}: {found}")
            }
            ExprError::Incompatible {
                left,
                right,
                context,
            } => write!(f, "incompatible types in {context}: {left} vs {right}"),
            ExprError::ColumnOutOfRange { index, len } => {
                write!(f, "column {index} out of range ({len} columns)")
            }
            ExprError::Overflow { context } => write!(f, "arithmetic overflow in {context}"),
            ExprError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for ExprError {}

impl From<StorageError> for ExprError {
    fn from(e: StorageError) -> Self {
        ExprError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_context() {
        let e = ExprError::InvalidType {
            context: "addition",
            found: "Char(4)".into(),
        };
        assert!(e.to_string().contains("addition"));
        assert!(e.to_string().contains("Char(4)"));
    }

    #[test]
    fn storage_errors_convert() {
        let s = StorageError::TableNotFound("x".into());
        let e: ExprError = s.into();
        assert!(matches!(e, ExprError::Storage(_)));
    }
}
