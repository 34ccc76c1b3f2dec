//! The Unit of Transfer: the paper's central abstraction.

use std::fmt;

/// How many producer output blocks accumulate before they are transferred to
/// the consumer operator (Section III-B of the paper).
///
/// * `Blocks(1)` — transfer every block the moment it is full: the schedule
///   interleaves producer and consumer work orders, i.e. what the literature
///   loosely calls *pipelining*.
/// * `Blocks(n)` — transfer in groups of `n`: the middle of the spectrum.
/// * `Table` — hold everything until the producer finishes: the consumer only
///   starts afterwards, i.e. what the literature loosely calls *blocking* or
///   *full materialization*.
///
/// Partially accumulated groups are always flushed when the producer
/// finishes, matching the paper ("partially filled blocks are scheduled for
/// data transfer at the end of the operator's execution").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Uot {
    /// Transfer whenever `n` blocks have accumulated (`n >= 1`).
    Blocks(usize),
    /// Transfer only when the whole intermediate table has been produced.
    Table,
}

impl Uot {
    /// The low extreme of the spectrum: one block.
    pub const LOW: Uot = Uot::Blocks(1);
    /// The high extreme of the spectrum: the whole table.
    pub const HIGH: Uot = Uot::Table;

    /// Canonical form: `Blocks(0)` (a meaningless zero threshold) becomes
    /// `Blocks(1)`. Applied by the plan builder so the engine never sees a
    /// degenerate value.
    #[inline]
    pub fn normalized(self) -> Uot {
        match self {
            Uot::Blocks(n) => Uot::Blocks(n.max(1)),
            Uot::Table => Uot::Table,
        }
    }

    /// The accumulation threshold in blocks; `usize::MAX` for [`Uot::Table`].
    #[inline]
    pub fn threshold_blocks(self) -> usize {
        match self {
            Uot::Blocks(n) => n.max(1),
            Uot::Table => usize::MAX,
        }
    }

    /// Short label used in experiment output ("uot=1", "uot=table").
    pub fn label(self) -> String {
        match self {
            Uot::Blocks(n) => format!("uot={}", n.max(1)),
            Uot::Table => "uot=table".to_string(),
        }
    }

    /// True if this is the pipelining extreme.
    pub fn is_low(self) -> bool {
        matches!(self, Uot::Blocks(n) if n <= 1)
    }

    /// True if this is the blocking extreme.
    pub fn is_high(self) -> bool {
        matches!(self, Uot::Table)
    }
}

impl fmt::Display for Uot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds() {
        assert_eq!(Uot::Blocks(1).threshold_blocks(), 1);
        assert_eq!(Uot::Blocks(4).threshold_blocks(), 4);
        // zero normalizes to one — a zero threshold is meaningless
        assert_eq!(Uot::Blocks(0).threshold_blocks(), 1);
        assert_eq!(Uot::Table.threshold_blocks(), usize::MAX);
    }

    #[test]
    fn normalization() {
        assert_eq!(Uot::Blocks(0).normalized(), Uot::Blocks(1));
        assert_eq!(Uot::Blocks(3).normalized(), Uot::Blocks(3));
        assert_eq!(Uot::Table.normalized(), Uot::Table);
    }

    #[test]
    fn extremes() {
        assert!(Uot::LOW.is_low());
        assert!(!Uot::LOW.is_high());
        assert!(Uot::HIGH.is_high());
        assert!(!Uot::Blocks(2).is_low());
    }

    #[test]
    fn labels() {
        assert_eq!(Uot::Blocks(1).label(), "uot=1");
        assert_eq!(Uot::Blocks(0).label(), "uot=1");
        assert_eq!(Uot::Table.to_string(), "uot=table");
    }
}
