//! Order statistics the report is made of.

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The tail of a latency sample: the highest percentile that still has at
/// least [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// The percentile it stands for, `100 * (n - TAIL_BEYOND) / n`.
    pub percentile: f64,
    /// Sample count `n`.
    pub samples: usize,
}

/// Samples that must lie strictly beyond the reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The tail of `values`; `None` when fewer than `TAIL_BEYOND + 1` samples
/// exist, since no percentile then has enough samples beyond it.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Tail {
        value: v[n - 1 - TAIL_BEYOND],
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        samples: n,
    })
}

/// Geometric mean of strictly positive `values`; `None` when empty or when
/// a value is not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return None;
    }
    let mean_ln = values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64;
    Some(mean_ln.exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None);
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.value, 1.0);
        assert_eq!(t.samples, 11);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);

        // 200 shuffled samples 1..=200: the tail is 190, p95 of 200.
        let mut v: Vec<f64> = (1..=200).map(f64::from).collect();
        v.reverse();
        v.swap(3, 150);
        let t = tail(&v).unwrap();
        assert_eq!(t.value, 190.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        assert!((t.percentile - 95.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_is_the_power_mean() {
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert!((geomean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]).unwrap() - 5.0).abs() < 1e-12);
        // A 2x regression on one of four queries moves the geomean by
        // 2^(1/4), whichever query it is.
        let base = geomean(&[1.0, 10.0, 100.0, 1000.0]).unwrap();
        let small = geomean(&[2.0, 10.0, 100.0, 1000.0]).unwrap();
        let large = geomean(&[1.0, 10.0, 100.0, 2000.0]).unwrap();
        assert!((small / base - 2f64.powf(0.25)).abs() < 1e-12);
        assert!((large / base - 2f64.powf(0.25)).abs() < 1e-12);
    }
}
