//! Property tests for expression evaluation:
//! * vectorized evaluation agrees with the row-at-a-time reference,
//! * predicate bitmaps agree with per-row evaluation,
//! * aggregate merge is order-insensitive (parallel partials are sound),
//! * the compact exact sum equals the superaccumulator bit for bit under
//!   any add/merge tree.

use proptest::prelude::*;
use std::sync::Arc;
use uot_expr::{
    cmp, col, lit, AggSpec, BinOp, CmpOp, CompactF64Sum, ExactF64Sum, Predicate, ScalarExpr,
};
use uot_storage::{BlockFormat, DataType, Schema, StorageBlock, Value};

fn schema() -> Arc<Schema> {
    Schema::from_pairs(&[
        ("a", DataType::Int32),
        ("b", DataType::Float64),
        ("c", DataType::Int64),
        ("d", DataType::Date),
    ])
}

fn block(rows: &[(i32, f64, i64, i32)], format: BlockFormat) -> StorageBlock {
    let mut b = StorageBlock::new(schema(), format, 1 << 20).unwrap();
    for &(a, bb, c, d) in rows {
        b.append_row(&[Value::I32(a), Value::F64(bb), Value::I64(c), Value::Date(d)])
            .unwrap();
    }
    b
}

fn arb_rows() -> impl Strategy<Value = Vec<(i32, f64, i64, i32)>> {
    proptest::collection::vec(
        (
            -100i32..100,
            -100.0f64..100.0,
            -1000i64..1000,
            -5000i32..5000,
        ),
        1..60,
    )
}

/// Numeric expressions over columns a (i32), b (f64), c (i64).
fn arb_expr() -> impl Strategy<Value = ScalarExpr> {
    let leaf = prop_oneof![
        Just(col(0)),
        Just(col(1)),
        Just(col(2)),
        (-50i32..50).prop_map(lit),
        (-50.0f64..50.0).prop_map(lit),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        (
            inner.clone(),
            inner,
            prop_oneof![Just(BinOp::Add), Just(BinOp::Sub), Just(BinOp::Mul)],
        )
            .prop_map(|(l, r, op)| l.bin(op, r))
    })
}

fn arb_pred() -> impl Strategy<Value = Predicate> {
    let op = prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ];
    let leaf = (arb_expr(), op, arb_expr()).prop_map(|(l, o, r)| cmp(l, o, r));
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(|p| p.negate()),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn vectorized_matches_row_eval(
        rows in arb_rows(),
        expr in arb_expr(),
        fmt in prop_oneof![Just(BlockFormat::Row), Just(BlockFormat::Column)],
    ) {
        let b = block(&rows, fmt);
        let vec = expr.eval_all(&b).unwrap();
        for r in 0..b.num_rows() {
            let scalar = expr.eval_row(&b, r).unwrap();
            match (&vec, &scalar) {
                (uot_storage::ColumnData::I64(v), Value::I64(s)) => {
                    prop_assert_eq!(v[r], *s)
                }
                (uot_storage::ColumnData::F64(v), Value::F64(s)) => {
                    prop_assert!((v[r] - s).abs() <= 1e-9 * s.abs().max(1.0))
                }
                (uot_storage::ColumnData::I32(v), Value::I32(s)) => {
                    prop_assert_eq!(v[r], *s)
                }
                other => prop_assert!(false, "type mismatch {other:?}"),
            }
        }
    }

    #[test]
    fn gather_is_a_subset_of_eval_all(
        rows in arb_rows(),
        expr in arb_expr(),
    ) {
        let b = block(&rows, BlockFormat::Column);
        let all = expr.eval_all(&b).unwrap();
        let idx: Vec<usize> = (0..b.num_rows()).step_by(2).collect();
        let sub = expr.eval_gather(&b, &idx).unwrap();
        prop_assert_eq!(sub.len(), idx.len());
        for (j, &r) in idx.iter().enumerate() {
            match (&all, &sub) {
                (uot_storage::ColumnData::I64(a), uot_storage::ColumnData::I64(s)) => {
                    prop_assert_eq!(a[r], s[j])
                }
                (uot_storage::ColumnData::F64(a), uot_storage::ColumnData::F64(s)) => {
                    prop_assert_eq!(a[r].to_bits(), s[j].to_bits())
                }
                (uot_storage::ColumnData::I32(a), uot_storage::ColumnData::I32(s)) => {
                    prop_assert_eq!(a[r], s[j])
                }
                other => prop_assert!(false, "type mismatch {other:?}"),
            }
        }
    }

    #[test]
    fn predicates_agree_across_formats(
        rows in arb_rows(),
        pred in arb_pred(),
    ) {
        let r = block(&rows, BlockFormat::Row);
        let c = block(&rows, BlockFormat::Column);
        let bm_r = pred.eval(&r).unwrap();
        let bm_c = pred.eval(&c).unwrap();
        prop_assert_eq!(
            bm_r.iter_ones().collect::<Vec<_>>(),
            bm_c.iter_ones().collect::<Vec<_>>()
        );
    }

    #[test]
    fn demorgan_holds(rows in arb_rows(), p in arb_pred(), q in arb_pred()) {
        let b = block(&rows, BlockFormat::Column);
        // !(p && q) == !p || !q
        let lhs = p.clone().and(q.clone()).negate().eval(&b).unwrap();
        let rhs = p.negate().or(q.negate()).eval(&b).unwrap();
        prop_assert_eq!(
            lhs.iter_ones().collect::<Vec<_>>(),
            rhs.iter_ones().collect::<Vec<_>>()
        );
    }

    #[test]
    fn aggregate_merge_is_partition_invariant(
        rows in arb_rows(),
        split in 0usize..60,
    ) {
        let b = block(&rows, BlockFormat::Column);
        let s = schema();
        let split = split.min(rows.len());
        for spec in [
            AggSpec::sum(col(2)),
            AggSpec::min(col(0)),
            AggSpec::max(col(0)),
            AggSpec::avg(col(1)),
            AggSpec::count_star(),
        ] {
            // whole-input state
            let mut whole = spec.init_state(&s).unwrap();
            if spec.func == uot_expr::AggFunc::CountStar {
                whole.update_count(rows.len());
            } else {
                let data = spec.arg.as_ref().unwrap().eval_all(&b).unwrap();
                whole.update_column(&data).unwrap();
            }
            // split into two partials and merge
            let idx_a: Vec<usize> = (0..split).collect();
            let idx_b: Vec<usize> = (split..rows.len()).collect();
            let mut pa = spec.init_state(&s).unwrap();
            let mut pb = spec.init_state(&s).unwrap();
            if spec.func == uot_expr::AggFunc::CountStar {
                pa.update_count(idx_a.len());
                pb.update_count(idx_b.len());
            } else {
                let arg = spec.arg.as_ref().unwrap();
                if !idx_a.is_empty() {
                    pa.update_column(&arg.eval_gather(&b, &idx_a).unwrap()).unwrap();
                }
                if !idx_b.is_empty() {
                    pb.update_column(&arg.eval_gather(&b, &idx_b).unwrap()).unwrap();
                }
            }
            pa.merge(&pb);
            match (whole.finalize().unwrap(), pa.finalize().unwrap()) {
                (Value::F64(w), Value::F64(m)) => {
                    prop_assert!((w - m).abs() <= 1e-9 * w.abs().max(1.0))
                }
                (w, m) => prop_assert_eq!(w, m),
            }
        }
    }
}

/// Floats that stress the compact sum's window: subnormals, values near
/// the range ends, signed zeros, non-finites, cancelling pairs and
/// ordinary prices.
fn arb_stress_f64() -> impl Strategy<Value = f64> {
    let cents = || (-1.0e6f64..1.0e6).prop_map(|v| (v * 100.0).round() / 100.0);
    prop_oneof![
        cents(),
        cents(),
        cents(),
        (1u64..1 << 20).prop_map(f64::from_bits),
        (1u64..1 << 52).prop_map(|b| -f64::from_bits(b)),
        prop_oneof![Just(1e300), Just(-1e300), Just(f64::MAX), Just(-f64::MAX)],
        -1e-300f64..1e-300,
        prop_oneof![Just(0.0), Just(-0.0)],
        prop_oneof![Just(f64::INFINITY), Just(f64::NEG_INFINITY), Just(f64::NAN)],
        any::<u64>().prop_map(f64::from_bits),
        (-60i32..60, any::<bool>()).prop_map(|(e, neg)| {
            let v = 2f64.powi(e) * 1.000_000_000_1;
            if neg {
                -v
            } else {
                v
            }
        }),
    ]
}

fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Leaves of random sizes are summed by both accumulators, then merged
    /// pairwise in a random order. Every intermediate and the root must
    /// agree bit for bit, and the root must equal a flat sum in reverse
    /// order (the result is a function of the multiset alone).
    #[test]
    fn compact_sum_matches_exact_sum_under_any_merge_tree(
        vals in proptest::collection::vec(arb_stress_f64(), 0..120),
        cuts in proptest::collection::vec(0usize..120, 0..8),
        picks in proptest::collection::vec(any::<usize>(), 0..16),
        cancel in any::<bool>(),
    ) {
        let mut vals = vals;
        if cancel {
            // Catastrophic cancellation: every value also appears negated,
            // except the first, which must survive exactly.
            let neg: Vec<f64> = vals.iter().skip(1).map(|v| -v).collect();
            vals.extend(neg);
        }
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(vals.len())).collect();
        cuts.push(0);
        cuts.push(vals.len());
        cuts.sort_unstable();
        let mut parts: Vec<(CompactF64Sum, ExactF64Sum)> = cuts
            .windows(2)
            .map(|w| {
                let mut c = CompactF64Sum::new();
                let mut e = ExactF64Sum::new();
                for &v in &vals[w[0]..w[1]] {
                    c.add(v);
                    e.add(v);
                }
                (c, e)
            })
            .collect();
        for (c, e) in &parts {
            prop_assert!(same_bits(c.value(), e.value()), "leaf {} vs {}", c.value(), e.value());
        }
        let mut picks = picks.into_iter().cycle();
        while parts.len() > 1 {
            let i = picks.next().unwrap_or(0) % parts.len();
            let (c, e) = parts.swap_remove(i);
            let j = picks.next().unwrap_or(0) % parts.len();
            parts[j].0.merge(&c);
            parts[j].1.merge(&e);
            prop_assert!(
                same_bits(parts[j].0.value(), parts[j].1.value()),
                "merge {} vs {}", parts[j].0.value(), parts[j].1.value()
            );
        }
        let mut flat = ExactF64Sum::new();
        for &v in vals.iter().rev() {
            flat.add(v);
        }
        let root = parts.pop().map(|p| p.0.value()).unwrap_or(0.0);
        prop_assert!(same_bits(root, flat.value()), "root {} vs flat {}", root, flat.value());
    }
}
