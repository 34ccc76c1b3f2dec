//! Exact, order-invariant `f64` summation.
//!
//! Parallel aggregation sums per-block partials whose boundaries depend on
//! upstream blocking (block size, row width, UoT, degree of parallelism).
//! Naive `f64` accumulation rounds after every add, so the same multiset of
//! inputs can produce different low-order bits under different groupings —
//! which would make query results depend on physical plan shape. [`ExactF64Sum`]
//! removes that dependence: it accumulates into a wide fixed-point register
//! (a Kulisch-style superaccumulator) covering the entire `f64` exponent
//! range, so every intermediate add is exact and [`ExactF64Sum::value`]
//! returns the *correctly rounded* sum of the inputs — a pure function of the
//! input multiset, independent of add order, partial boundaries, and merge
//! shape.
//!
//! Layout: the register holds bit positions for weights `2^-1074 ..= 2^1021`
//! (the full double range) plus 64 bits of carry headroom, as 68 limbs of 32
//! value bits each stored in `i64`. Each add splits the 53-bit significand
//! across at most three limbs; limbs absorb signed contributions and are
//! carry-normalized lazily, so the hot path is three integer adds.
//!
//! The register is 544 bytes, too large to keep one per group in a hash
//! aggregation. [`CompactF64Sum`] keeps the same contract in 32 bytes: a
//! 127-bit fixed-point window (`i128` at a per-sum exponent) that holds the
//! exact sum while the inputs' exponents stay close together — sums of
//! prices, quantities and discounts always do — and widens on demand to a
//! boxed [`ExactF64Sum`] when an add or merge would not fit.

/// Number of 32-bit limbs: ceil(2098 value bits / 32) = 66, plus 2 for carry
/// headroom when many maximal values accumulate before normalization.
const LIMBS: usize = 68;
/// Value bits per limb.
const LIMB_BITS: u32 = 32;
const LIMB_MASK: u64 = (1 << LIMB_BITS) - 1;
/// Normalize after this many unnormalized adds. Each add contributes less
/// than `2^32` per limb, so limb magnitude stays below `2^(32+28) = 2^60`,
/// and merging two accumulators stays below `i64::MAX`.
const NORM_INTERVAL: u32 = 1 << 28;

/// The non-finite inputs seen so far, as flags. IEEE rules decide the
/// result (any NaN poisons the sum, infinities of one sign saturate,
/// opposing infinities yield NaN); keeping flags instead of a running `f64`
/// makes even the NaN bit pattern independent of add order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct NonFinite(u8);

impl NonFinite {
    const NAN: u8 = 1;
    const POS_INF: u8 = 2;
    const NEG_INF: u8 = 4;

    #[inline]
    fn add(&mut self, v: f64) {
        self.0 |= if v.is_nan() {
            Self::NAN
        } else if v > 0.0 {
            Self::POS_INF
        } else {
            Self::NEG_INF
        };
    }

    #[inline]
    fn merge(&mut self, other: NonFinite) {
        self.0 |= other.0;
    }

    /// The sum's value when a non-finite input decides it.
    #[inline]
    fn value(self) -> Option<f64> {
        match self.0 {
            0 => None,
            Self::POS_INF => Some(f64::INFINITY),
            Self::NEG_INF => Some(f64::NEG_INFINITY),
            _ => Some(f64::NAN),
        }
    }
}

/// Split a finite, non-zero `v` into its sign, 53-bit significand and the
/// register bit position of the significand's least bit (position 0 carries
/// weight `2^-1074`).
#[inline]
fn decompose(v: f64) -> (bool, u64, u32) {
    let bits = v.to_bits();
    let negative = (bits >> 63) != 0;
    let biased = ((bits >> 52) & 0x7ff) as u32;
    let frac = bits & ((1u64 << 52) - 1);
    if biased == 0 {
        (negative, frac, 0)
    } else {
        (negative, frac | (1 << 52), biased - 1)
    }
}

/// An exact accumulator for `f64` addition.
///
/// `add` and `merge` are associative and commutative over the represented
/// value; `value()` rounds once (to nearest, ties to even). Non-finite
/// inputs follow IEEE semantics: any NaN poisons the sum (the result is
/// always `f64::NAN`), infinities of one sign saturate, and opposing
/// infinities yield NaN.
#[derive(Debug, Clone)]
pub struct ExactF64Sum {
    limbs: [i64; LIMBS],
    /// Non-finite inputs seen, if any.
    non_finite: NonFinite,
    /// Adds since the last carry normalization.
    pending: u32,
}

impl Default for ExactF64Sum {
    fn default() -> Self {
        Self::new()
    }
}

impl PartialEq for ExactF64Sum {
    fn eq(&self, other: &Self) -> bool {
        // Compare the represented value, not the (normalization-dependent)
        // limb contents.
        let mut a = self.clone();
        let mut b = other.clone();
        a.normalize();
        b.normalize();
        a.limbs == b.limbs && a.non_finite == b.non_finite
    }
}

impl ExactF64Sum {
    /// The empty sum (value `0.0`).
    pub fn new() -> Self {
        ExactF64Sum {
            limbs: [0; LIMBS],
            non_finite: NonFinite::default(),
            pending: 0,
        }
    }

    /// Add one value. Exact for all finite inputs.
    #[inline]
    pub fn add(&mut self, v: f64) {
        if !v.is_finite() {
            self.non_finite.add(v);
            return;
        }
        if v == 0.0 {
            return;
        }
        let (negative, sig, pos) = decompose(v);
        let limb = (pos >> 5) as usize;
        let shift = pos & 31;
        let wide = (sig as u128) << shift; // at most 53 + 31 = 84 bits
        let c0 = (wide as u64 & LIMB_MASK) as i64;
        let c1 = ((wide >> LIMB_BITS) as u64 & LIMB_MASK) as i64;
        let c2 = ((wide >> (2 * LIMB_BITS)) as u64 & LIMB_MASK) as i64;
        if negative {
            self.limbs[limb] -= c0;
            self.limbs[limb + 1] -= c1;
            self.limbs[limb + 2] -= c2;
        } else {
            self.limbs[limb] += c0;
            self.limbs[limb + 1] += c1;
            self.limbs[limb + 2] += c2;
        }
        self.pending += 1;
        if self.pending >= NORM_INTERVAL {
            self.normalize();
        }
    }

    /// Add the fixed-point value `acc × 2^(lsb − 1074)` exactly (a
    /// [`CompactF64Sum`] window; its magnitude is the exact sum of finite
    /// inputs, so it fits the register wherever those inputs did).
    fn add_fixed(&mut self, acc: i128, lsb: u32) {
        let negative = acc < 0;
        let mut mag = acc.unsigned_abs();
        let mut limb = (lsb >> 5) as usize;
        let shift = lsb & 31;
        while mag != 0 {
            let wide = ((mag as u64) & LIMB_MASK) << shift; // at most 63 bits
            let c0 = (wide & LIMB_MASK) as i64;
            let c1 = (wide >> LIMB_BITS) as i64;
            if negative {
                self.limbs[limb] -= c0;
            } else {
                self.limbs[limb] += c0;
            }
            if c1 != 0 {
                if negative {
                    self.limbs[limb + 1] -= c1;
                } else {
                    self.limbs[limb + 1] += c1;
                }
            }
            mag >>= LIMB_BITS;
            limb += 1;
        }
        // Each limb took at most two sub-2^32 contributions.
        self.pending += 2;
        if self.pending >= NORM_INTERVAL {
            self.normalize();
        }
    }

    /// Fold another accumulator in. Exact; order-invariant.
    pub fn merge(&mut self, other: &ExactF64Sum) {
        self.non_finite.merge(other.non_finite);
        if self.pending.saturating_add(other.pending) >= NORM_INTERVAL {
            self.normalize();
        }
        if other.pending >= NORM_INTERVAL / 2 {
            let mut o = other.clone();
            o.normalize();
            for (a, b) in self.limbs.iter_mut().zip(&o.limbs) {
                *a += b;
            }
            self.pending += 1;
        } else {
            for (a, b) in self.limbs.iter_mut().zip(&other.limbs) {
                *a += b;
            }
            self.pending += other.pending.max(1);
        }
    }

    /// Carry-propagate so every limb is in `[0, 2^32)` (two's-complement at
    /// the top for negative totals).
    fn normalize(&mut self) {
        let mut carry: i64 = 0;
        for l in &mut self.limbs {
            let t = *l + carry;
            let lo = t & LIMB_MASK as i64; // t mod 2^32, non-negative
            carry = (t - lo) >> LIMB_BITS;
            *l = lo;
        }
        // A leftover carry of -1 marks a negative total (two's complement
        // wrap); fold it back so the sign check in `value` sees it.
        if carry == -1 {
            self.limbs[LIMBS - 1] += -1i64 << LIMB_BITS;
        } else {
            debug_assert!(carry == 0, "superaccumulator overflow");
        }
        self.pending = 0;
    }

    /// The correctly rounded (nearest, ties to even) value of the sum.
    pub fn value(&self) -> f64 {
        if let Some(nf) = self.non_finite.value() {
            return nf;
        }
        let mut acc = self.clone();
        acc.normalize();
        // Detect sign: after normalization all limbs are in [0, 2^32) except
        // a possible negative top limb marking a negative total.
        let negative = acc.limbs[LIMBS - 1] < 0;
        let mut mag: [u64; LIMBS] = [0; LIMBS];
        if negative {
            // Two's-complement negate to get the magnitude.
            let mut carry: u64 = 1;
            for (m, &l) in mag.iter_mut().zip(&acc.limbs) {
                let t = (!(l as u64) & LIMB_MASK) + carry;
                *m = t & LIMB_MASK;
                carry = t >> LIMB_BITS;
            }
        } else {
            for (m, &l) in mag.iter_mut().zip(&acc.limbs) {
                *m = l as u64;
            }
        }
        // Most significant set bit position (register coordinates).
        let top = match (0..LIMBS).rev().find(|&i| mag[i] != 0) {
            None => return 0.0,
            Some(i) => i as i64 * 32 + (63 - mag[i].leading_zeros() as i64),
        };
        // Take the 53-bit window [lsb, top]; positions below 0 don't exist
        // (the register's unit is exactly the smallest subnormal).
        let lsb = (top - 52).max(0);
        let mut mantissa: u64 = 0;
        for p in (lsb..=top).rev() {
            mantissa = (mantissa << 1) | bit(&mag, p);
        }
        // Round to nearest, ties to even.
        if lsb > 0 {
            let guard = bit(&mag, lsb - 1) != 0;
            if guard {
                let sticky = (0..lsb - 1).any(|p| bit(&mag, p) != 0);
                if sticky || (mantissa & 1) == 1 {
                    mantissa += 1;
                }
            }
        }
        let mut exp = lsb - 1074; // weight of the mantissa's LSB
        if mantissa == (1 << 53) {
            mantissa >>= 1;
            exp += 1;
        }
        if exp > 971 {
            // Beyond f64 range: the true sum overflows.
            return if negative {
                f64::NEG_INFINITY
            } else {
                f64::INFINITY
            };
        }
        // mantissa * 2^exp, assembled exactly (both factors and the result
        // are representable; split the scale to stay in normal range).
        let m = mantissa as f64;
        let v = if exp >= -1022 {
            m * pow2(exp as i32)
        } else {
            (m * pow2((exp + 1022) as i32)) * pow2(-1022)
        };
        if negative {
            -v
        } else {
            v
        }
    }
}

/// An exact `f64` accumulator with [`ExactF64Sum`]'s contract in 32 bytes.
///
/// While the running sum fits, it is held as `acc × 2^(lsb − 1074)`: an
/// `i128` integer at a per-sum exponent, lowered on demand (by shifting
/// `acc` left) to take a smaller input. An add or merge that would overflow
/// the window moves the sum into a boxed [`ExactF64Sum`] for good. Both
/// representations are exact, so `value()` is the correctly rounded sum of
/// the input multiset — bit-identical to an [`ExactF64Sum`] fed the same
/// values under any order, partition or merge tree.
#[derive(Debug, Clone, Default)]
pub struct CompactF64Sum {
    /// The exact sum of the finite inputs, in units of `2^(lsb − 1074)`,
    /// while `wide` is `None`.
    acc: i128,
    /// Register bit position of `acc`'s unit.
    lsb: u32,
    /// Non-finite inputs seen, if any.
    non_finite: NonFinite,
    /// The superaccumulator, once the window overflowed.
    wide: Option<Box<ExactF64Sum>>,
}

impl CompactF64Sum {
    /// The empty sum (value `0.0`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one value. Exact for all finite inputs.
    #[inline]
    pub fn add(&mut self, v: f64) {
        if !v.is_finite() {
            self.non_finite.add(v);
            return;
        }
        if v == 0.0 {
            return;
        }
        if let Some(w) = &mut self.wide {
            w.add(v);
            return;
        }
        let (negative, sig, pos) = decompose(v);
        let x = if negative {
            -(sig as i128)
        } else {
            sig as i128
        };
        // Fast path: no larger than 2^74 times the window's unit, so the
        // shifted 53-bit significand stays below 2^127.
        if pos >= self.lsb && pos - self.lsb <= 74 {
            if let Some(s) = self.acc.checked_add(x << (pos - self.lsb)) {
                self.acc = s;
                return;
            }
        }
        self.add_fixed(x, pos);
    }

    /// Add `x × 2^(pos − 1074)` to the window, widening if it cannot hold
    /// the result.
    fn add_fixed(&mut self, x: i128, pos: u32) {
        if let Some(w) = &mut self.wide {
            w.add_fixed(x, pos);
            return;
        }
        if self.acc == 0 {
            self.acc = x;
            self.lsb = pos;
            return;
        }
        // Align both terms at the lower exponent.
        let fitted = if pos >= self.lsb {
            shl_checked(x, pos - self.lsb).and_then(|y| self.acc.checked_add(y))
        } else {
            let lowered = shl_checked(self.acc, self.lsb - pos).and_then(|a| a.checked_add(x));
            if lowered.is_some() {
                self.lsb = pos;
            }
            lowered
        };
        match fitted {
            Some(s) => self.acc = s,
            None => {
                let mut w = Box::new(ExactF64Sum::new());
                w.add_fixed(self.acc, self.lsb);
                w.add_fixed(x, pos);
                self.acc = 0;
                self.wide = Some(w);
            }
        }
    }

    /// Fold another accumulator in. Exact; order-invariant.
    pub fn merge(&mut self, other: &CompactF64Sum) {
        self.non_finite.merge(other.non_finite);
        match (&mut self.wide, &other.wide) {
            (_, None) => {
                if other.acc != 0 {
                    self.add_fixed(other.acc, other.lsb);
                }
            }
            (Some(w), Some(o)) => w.merge(o),
            (None, Some(o)) => {
                let mut w = o.clone();
                if self.acc != 0 {
                    w.add_fixed(self.acc, self.lsb);
                }
                self.acc = 0;
                self.wide = Some(w);
            }
        }
    }

    /// The correctly rounded (nearest, ties to even) value of the sum.
    pub fn value(&self) -> f64 {
        if let Some(nf) = self.non_finite.value() {
            return nf;
        }
        if let Some(w) = &self.wide {
            return w.value();
        }
        if self.acc == 0 {
            return 0.0;
        }
        let top = 127 - self.acc.unsigned_abs().leading_zeros() as i32;
        let e = self.lsb as i32 - 1074;
        if top + e >= -1022 && top + e < 1023 {
            // The result is a normal double: rounding `acc` to 53 bits
            // (`as` rounds to nearest, ties to even) and scaling by a power
            // of two is exact, so this is the correctly rounded sum.
            let m = self.acc as f64;
            if e >= -1022 {
                m * pow2(e)
            } else {
                m * pow2(e + 1022) * pow2(-1022)
            }
        } else {
            // Subnormal or overflowing results round in the register.
            let mut w = ExactF64Sum::new();
            w.add_fixed(self.acc, self.lsb);
            w.value()
        }
    }
}

/// `x << d` when the shifted value still fits an `i128`.
#[inline]
fn shl_checked(x: i128, d: u32) -> Option<i128> {
    (x.unsigned_abs().leading_zeros() > d).then(|| x << d)
}

#[inline]
fn bit(mag: &[u64; LIMBS], p: i64) -> u64 {
    (mag[(p >> 5) as usize] >> (p & 31)) & 1
}

/// `2^e` for `e` in the normal exponent range, constructed exactly.
#[inline]
fn pow2(e: i32) -> f64 {
    debug_assert!((-1022..=1023).contains(&e));
    f64::from_bits(((e + 1023) as u64) << 52)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum(vals: &[f64]) -> f64 {
        let mut s = ExactF64Sum::new();
        for &v in vals {
            s.add(v);
        }
        s.value()
    }

    #[test]
    fn empty_and_zero() {
        assert_eq!(sum(&[]), 0.0);
        assert_eq!(sum(&[0.0, -0.0]), 0.0);
    }

    #[test]
    fn exact_small_integers() {
        assert_eq!(sum(&[1.0, 2.0, 3.0]), 6.0);
        assert_eq!(sum(&[-1.0, -2.0, 3.0]), 0.0);
    }

    #[test]
    fn catastrophic_cancellation_is_exact() {
        // Naive summation loses the 1.0 entirely.
        assert_eq!(sum(&[1e100, 1.0, -1e100]), 1.0);
        assert_eq!(sum(&[1.0, 1e100, -1e100]), 1.0);
        assert_eq!(
            sum(&[f64::MAX, f64::MIN_POSITIVE, -f64::MAX]),
            f64::MIN_POSITIVE
        );
    }

    #[test]
    fn order_and_blocking_invariant() {
        let vals: Vec<f64> = (0..1000)
            .map(|i| {
                ((i * 2654435761u64 as i64) as f64) * 1.0e-3 * if i % 2 == 0 { 1.0 } else { -1.0 }
            })
            .chain((0..100).map(|i| (i as f64) * 1e15))
            .chain((0..100).map(|i| (i as f64) * 1e-15))
            .collect();
        let forward = sum(&vals);
        let mut rev = vals.clone();
        rev.reverse();
        assert_eq!(forward.to_bits(), sum(&rev).to_bits());

        // Arbitrary partial boundaries + merge must not change the bits.
        for chunk in [1, 3, 7, 64, 999] {
            let mut total = ExactF64Sum::new();
            for part in vals.chunks(chunk) {
                let mut p = ExactF64Sum::new();
                for &v in part {
                    p.add(v);
                }
                total.merge(&p);
            }
            assert_eq!(forward.to_bits(), total.value().to_bits(), "chunk {chunk}");
        }
    }

    #[test]
    fn correctly_rounded_where_naive_drifts() {
        // ulp(1e16) = 2, so naive accumulation absorbs each lone 1.0
        // (1e16 + 1 ties back down to 1e16); the true sum 1e16 + 2 is
        // representable and the exact sum must return it.
        let vals = [1e16, 1.0, 1.0];
        let naive: f64 = vals.iter().sum();
        assert_eq!(naive, 1e16, "test premise: naive summation drifts");
        assert_eq!(sum(&vals), 1e16 + 2.0);
    }

    #[test]
    fn negative_totals() {
        assert_eq!(sum(&[1.0, -3.5]), -2.5);
        assert_eq!(sum(&[-1e-300, -1e300, 1e300]), -1e-300);
    }

    #[test]
    fn subnormals() {
        let tiny = f64::from_bits(1); // smallest subnormal
        assert_eq!(sum(&[tiny, tiny]).to_bits(), f64::from_bits(2).to_bits());
        assert_eq!(sum(&[tiny, -tiny]), 0.0);
        assert_eq!(
            sum(&[f64::MIN_POSITIVE, -tiny]).to_bits(),
            f64::MIN_POSITIVE.to_bits() - 1
        );
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert_eq!(sum(&[f64::MAX, f64::MAX]), f64::INFINITY);
        assert_eq!(sum(&[-f64::MAX, -f64::MAX]), f64::NEG_INFINITY);
        // ...but cancelling back down recovers the exact finite value.
        assert_eq!(sum(&[f64::MAX, f64::MAX, -f64::MAX]), f64::MAX);
    }

    #[test]
    fn non_finite_inputs_follow_ieee() {
        assert_eq!(sum(&[1.0, f64::INFINITY]), f64::INFINITY);
        assert_eq!(sum(&[f64::NEG_INFINITY, 5.0]), f64::NEG_INFINITY);
        assert!(sum(&[f64::INFINITY, f64::NEG_INFINITY]).is_nan());
        assert!(sum(&[f64::NAN, 1.0]).is_nan());
    }

    #[test]
    fn many_adds_trigger_normalization_safely() {
        let mut s = ExactF64Sum::new();
        // Keep this fast but force several normalize cycles via merge.
        let mut part = ExactF64Sum::new();
        for i in 0..10_000 {
            part.add(i as f64 * 1e10);
        }
        for _ in 0..4 {
            s.merge(&part);
        }
        let expect: f64 = 4.0 * (0..10_000u64).map(|i| i as f64 * 1e10).sum::<f64>();
        // The naive reference is exact here (sums of multiples of 1e10 stay
        // well under 2^53 * ulp scale)... verify against the accumulator's own
        // order-invariance instead of bit-asserting the naive fold.
        assert!((s.value() - expect).abs() <= expect * 1e-15);
        let mut rev = ExactF64Sum::new();
        for i in (0..10_000).rev() {
            for _ in 0..4 {
                rev.add(i as f64 * 1e10);
            }
        }
        assert_eq!(s.value().to_bits(), rev.value().to_bits());
    }

    #[test]
    fn equality_is_value_equality() {
        let mut a = ExactF64Sum::new();
        a.add(1.5);
        a.add(2.5);
        let mut b = ExactF64Sum::new();
        b.add(4.0);
        assert_eq!(a, b);
        b.add(1e-30);
        assert_ne!(a, b);
    }

    fn compact(vals: &[f64]) -> CompactF64Sum {
        let mut s = CompactF64Sum::new();
        for &v in vals {
            s.add(v);
        }
        s
    }

    #[test]
    fn compact_is_small() {
        assert!(std::mem::size_of::<CompactF64Sum>() <= 32);
    }

    #[test]
    fn compact_matches_exact_in_the_window() {
        let vals: Vec<f64> = (0..5000).map(|i| (i as f64) * 0.01 - 17.25).collect();
        let c = compact(&vals);
        assert!(c.wide.is_none(), "prices stay in the narrow window");
        assert_eq!(c.value().to_bits(), sum(&vals).to_bits());
    }

    #[test]
    fn compact_widens_on_demand_and_stays_exact() {
        let vals = [1e300, 1.0, -1e300, 1e-300];
        let c = compact(&vals);
        assert!(c.wide.is_some(), "a 2000-binade spread cannot fit 127 bits");
        assert_eq!(c.value().to_bits(), sum(&vals).to_bits());
        assert_eq!(c.value(), 1.0);
    }

    #[test]
    fn compact_widens_when_the_window_fills() {
        // 1.0 and 2^74 are 74 binades apart: each 2^74 fills 127 bits of
        // the window, so the second one overflows it.
        let big = 2f64.powi(74);
        let vals = [1.0, big, big, 1.0, -big];
        let mut c = CompactF64Sum::new();
        c.add(vals[0]);
        c.add(vals[1]);
        assert!(c.wide.is_none());
        c.add(vals[2]);
        assert!(c.wide.is_some());
        c.add(vals[3]);
        c.add(vals[4]);
        assert_eq!(c.value().to_bits(), sum(&vals).to_bits());
        assert_eq!(c.value(), big + 2.0);
    }

    #[test]
    fn compact_edge_results_round_in_the_register() {
        let tiny = f64::from_bits(1);
        for vals in [
            vec![tiny, tiny, tiny],
            vec![f64::MIN_POSITIVE, -tiny],
            vec![f64::MAX, f64::MAX],
            vec![f64::MAX, f64::MAX, -f64::MAX],
            vec![-f64::MAX, -f64::MAX],
            vec![1e16, 1.0, 1.0],
            vec![0.0, -0.0],
        ] {
            assert_eq!(
                compact(&vals).value().to_bits(),
                sum(&vals).to_bits(),
                "{vals:?}"
            );
        }
    }

    #[test]
    fn compact_merge_of_narrow_and_wide() {
        let narrow = compact(&[1.5, 2.25]);
        let wide = compact(&[1e200, -1e200, 1e-200]);
        let mut a = narrow.clone();
        a.merge(&wide);
        let mut b = wide.clone();
        b.merge(&narrow);
        let expect = sum(&[1.5, 2.25, 1e200, -1e200, 1e-200]);
        assert_eq!(a.value().to_bits(), expect.to_bits());
        assert_eq!(b.value().to_bits(), expect.to_bits());
    }

    #[test]
    fn non_finite_results_do_not_depend_on_order() {
        let a = sum(&[f64::INFINITY, f64::NEG_INFINITY, f64::NAN]);
        let b = sum(&[f64::NAN, f64::NEG_INFINITY, f64::INFINITY]);
        assert_eq!(a.to_bits(), f64::NAN.to_bits());
        assert_eq!(b.to_bits(), f64::NAN.to_bits());
        assert_eq!(
            compact(&[f64::NEG_INFINITY, 1.0]).value(),
            f64::NEG_INFINITY
        );
    }
}
