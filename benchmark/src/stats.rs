//! Order statistics for timing samples: median, quartiles and
//! tail percentiles that refuse to be read off too few samples.

/// The median of `values` (mean of the two middle values for even
/// counts). `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the "exclusive"
/// method), so the spreads printed here are the ones the acceptance
/// check computes. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The `percent`-th percentile (nearest rank) of `values`, refused
/// unless at least ten samples lie beyond it — p90 therefore needs 100
/// samples, p99 needs 1 000.
pub fn tail_percentile(values: &[f64], percent: usize) -> Result<f64, String> {
    assert!(percent < 100, "a percentile is below 100");
    let v = sorted(values);
    let n = v.len();
    let rank = (n * percent).div_ceil(100);
    let beyond = n - rank;
    if beyond < 10 {
        return Err(format!(
            "p{percent} refused: {n} samples leave {beyond} beyond it, 10 are needed"
        ));
    }
    Ok(v[rank.max(1) - 1])
}

/// Median with its quartiles and sample count — what every timing in
/// the reports is printed as.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Spread {
    /// Summarises `values`; with a single value the quartiles collapse
    /// onto it.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice: every caller measures at least once.
    pub fn of(values: &[f64]) -> Spread {
        let median = median(values).expect("at least one sample");
        let (q1, q3) = quartiles(values).unwrap_or((median, median));
        Spread {
            median,
            q1,
            q3,
            n: values.len(),
        }
    }

    /// Inter-quartile distance as a share of the median.
    pub fn relative_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        assert_eq!(
            quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]),
            Some((15.0, 120.0))
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn p90_is_refused_below_one_hundred_samples() {
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        let err = tail_percentile(&ninety_nine, 90).unwrap_err();
        assert!(err.contains("99 samples"), "{err}");
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred, 90), Ok(90.0));
        assert!(tail_percentile(&hundred, 99).is_err());
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&thousand, 99), Ok(990.0));
    }

    #[test]
    fn spread_collapses_for_one_sample_and_reports_relative_iqr() {
        let one = Spread::of(&[2.0]);
        assert_eq!((one.q1, one.median, one.q3, one.n), (2.0, 2.0, 2.0, 1));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Spread::of(&ten);
        assert_eq!(s.median, 5.5);
        assert!((s.relative_iqr() - 1.0).abs() < 1e-12);
    }
}
