//! A fixed-memory latency histogram with log-spaced buckets, for
//! percentile reporting (mean latency alone hides the convoy/tail
//! behaviour that distinguishes switching disciplines).

use ringmesh_snap::{Codec, Snap, SnapError};

/// Histogram over non-negative values with logarithmically spaced
/// buckets: 16 sub-buckets per octave, covering `[1, 2^40)` with a
/// relative resolution of about 4.5%.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    underflow: u64,
}

const SUB: usize = 16;
const OCTAVES: usize = 40;

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; SUB * OCTAVES],
            total: 0,
            underflow: 0,
        }
    }

    /// Bucket index for `value`, or `None` for anything below 1 (sub-
    /// unit, zero, negative, NaN) — those belong in the underflow
    /// count. Without the guard a value in (0, 1) has a negative
    /// octave whose `as usize` cast saturates to 0, silently landing
    /// it in a genuine low bucket instead.
    fn bucket(value: f64) -> Option<usize> {
        if value.is_nan() || value < 1.0 {
            return None;
        }
        // value in [2^o, 2^(o+1)) maps to octave o, sub-bucket by the
        // fractional part of log2.
        let log = value.log2();
        let octave = log.floor();
        let sub = ((log - octave) * SUB as f64) as usize;
        let idx = octave as usize * SUB + sub.min(SUB - 1);
        Some(idx.min(SUB * OCTAVES - 1))
    }

    /// Representative (geometric-mean) value of bucket `idx`.
    fn bucket_value(idx: usize) -> f64 {
        let octave = (idx / SUB) as f64;
        let sub = (idx % SUB) as f64;
        2f64.powf(octave + (sub + 0.5) / SUB as f64)
    }

    /// Records one observation. Values below 1 count as 1.
    pub fn record(&mut self, value: f64) {
        self.total += 1;
        match Self::bucket(value) {
            Some(idx) => self.counts[idx] += 1,
            None => self.underflow += 1,
        }
    }

    /// Number of recorded observations.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The value at quantile `q ∈ [0, 1]` (to bucket resolution);
    /// `None` on an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0,1]");
        if self.total == 0 {
            return None;
        }
        let rank = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = self.underflow;
        if rank <= seen {
            return Some(1.0);
        }
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_value(idx));
            }
        }
        Some(Self::bucket_value(SUB * OCTAVES - 1))
    }

    /// Convenience: the median, 95th and 99th percentiles.
    pub fn p50_p95_p99(&self) -> Option<(f64, f64, f64)> {
        Some((
            self.quantile(0.50)?,
            self.quantile(0.95)?,
            self.quantile(0.99)?,
        ))
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Snap for Histogram {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        c.fixed(&mut self.counts, "histogram bucket count")?;
        self.total.snap(c)?;
        self.underflow.snap(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn single_value_is_every_quantile() {
        let mut h = Histogram::new();
        h.record(100.0);
        for q in [0.01, 0.5, 0.99] {
            let v = h.quantile(q).unwrap();
            assert!((v / 100.0 - 1.0).abs() < 0.05, "q={q}: {v}");
        }
    }

    #[test]
    fn quantiles_of_uniform_ramp() {
        let mut h = Histogram::new();
        for i in 1..=10_000 {
            h.record(f64::from(i));
        }
        let p50 = h.quantile(0.5).unwrap();
        let p95 = h.quantile(0.95).unwrap();
        assert!((p50 / 5_000.0 - 1.0).abs() < 0.06, "p50={p50}");
        assert!((p95 / 9_500.0 - 1.0).abs() < 0.06, "p95={p95}");
    }

    #[test]
    fn bucket_resolution_is_within_5_percent() {
        let mut h = Histogram::new();
        h.record(123.0);
        let v = h.quantile(0.5).unwrap();
        assert!((v / 123.0 - 1.0).abs() < 0.05, "{v}");
    }

    #[test]
    fn tiny_values_clamp_to_one() {
        let mut h = Histogram::new();
        h.record(0.25);
        assert_eq!(h.quantile(0.5), Some(1.0));
    }

    #[test]
    fn subunit_values_never_reach_a_real_bucket() {
        // (0,1) has a negative log2 octave; an unguarded `as usize`
        // cast would saturate it to octave 0 and count the value as if
        // it were in [1, 2).
        assert_eq!(Histogram::bucket(0.5), None);
        assert_eq!(Histogram::bucket(0.999), None);
        assert_eq!(Histogram::bucket(0.0), None);
        assert_eq!(Histogram::bucket(-3.0), None);
        assert_eq!(Histogram::bucket(f64::NAN), None);
        assert_eq!(Histogram::bucket(1.0), Some(0));
    }

    #[test]
    fn subunit_observations_count_as_underflow() {
        let mut h = Histogram::new();
        for _ in 0..9 {
            h.record(0.6);
        }
        h.record(64.0);
        // Nine of ten observations are underflow: the median must be
        // the underflow representative (1.0), not a (0,1)-misbucketed
        // value, and the tail must still see the real observation.
        assert_eq!(h.quantile(0.5), Some(1.0));
        let p99 = h.quantile(0.99).unwrap();
        assert!((p99 / 64.0 - 1.0).abs() < 0.05, "p99={p99}");
    }

    #[test]
    fn monotone_in_q() {
        let mut h = Histogram::new();
        for i in 1..1000 {
            h.record(f64::from(i * i % 977 + 1));
        }
        let mut last = 0.0;
        for q in [0.1, 0.3, 0.5, 0.7, 0.9, 0.99] {
            let v = h.quantile(q).unwrap();
            assert!(v >= last);
            last = v;
        }
    }
}
