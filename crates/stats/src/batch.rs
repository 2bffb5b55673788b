//! The batch means method of output analysis.

use ringmesh_snap::{Codec, Snap, SnapError};

use crate::Summary;

/// Batch-means collector for a steady-state simulation measure.
///
/// Simulated time is divided into a warm-up interval (the paper's
/// discarded first batch) followed by `batches` batches of
/// `batch_cycles` cycles each. Observations recorded during warm-up are
/// dropped; each batch contributes the mean of its observations, and
/// [`summary`](BatchMeans::summary) reports statistics *across* batch
/// means, which are approximately independent for long enough batches.
#[derive(Debug, Clone)]
pub struct BatchMeans {
    warmup: u64,
    batch_cycles: u64,
    batches: usize,
    sums: Vec<f64>,
    counts: Vec<u64>,
}

impl BatchMeans {
    /// Creates a collector with a `warmup`-cycle discarded prefix
    /// followed by `batches` batches of `batch_cycles` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `batch_cycles` or `batches` is zero.
    pub fn new(warmup: u64, batch_cycles: u64, batches: usize) -> Self {
        assert!(batch_cycles > 0, "batch length must be positive");
        assert!(batches > 0, "need at least one batch");
        BatchMeans {
            warmup,
            batch_cycles,
            batches,
            sums: vec![0.0; batches],
            counts: vec![0; batches],
        }
    }

    /// End of the measurement horizon: `warmup + batches × batch_cycles`.
    pub fn horizon(&self) -> u64 {
        self.warmup + self.batch_cycles * self.batches as u64
    }

    /// Warm-up length in cycles.
    pub fn warmup(&self) -> u64 {
        self.warmup
    }

    /// Records an observation with timestamp `now` (e.g. a completed
    /// transaction's latency). Observations before the warm-up ends or
    /// after the horizon are ignored.
    pub fn record(&mut self, now: u64, value: f64) {
        if now < self.warmup {
            return;
        }
        let idx = ((now - self.warmup) / self.batch_cycles) as usize;
        if idx < self.batches {
            self.sums[idx] += value;
            self.counts[idx] += 1;
        }
    }

    /// Whether the measurement horizon has elapsed at time `now`.
    pub fn is_complete(&self, now: u64) -> bool {
        now >= self.horizon()
    }

    /// Per-batch means, skipping batches with no observations.
    pub fn batch_means(&self) -> Vec<f64> {
        self.sums
            .iter()
            .zip(&self.counts)
            .filter(|&(_, &c)| c > 0)
            .map(|(&s, &c)| s / c as f64)
            .collect()
    }

    /// Total number of observations recorded inside the horizon.
    pub fn observations(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean observation rate per cycle over the measurement horizon
    /// (e.g. completed transactions per cycle — system throughput).
    pub fn rate_per_cycle(&self) -> f64 {
        self.observations() as f64 / (self.batch_cycles * self.batches as u64) as f64
    }

    /// Summary across batch means.
    pub fn summary(&self) -> Summary {
        Summary::of(&self.batch_means())
    }
}

/// The plan (warm-up, batch length, batch count), then the sums and
/// counts, one per batch.
impl Snap for BatchMeans {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        c.exact(self.warmup, "batch-means warm-up")?;
        c.exact(self.batch_cycles, "batch-means batch length")?;
        c.exact(self.batches, "batch-means batch count")?;
        self.sums.iter_mut().try_for_each(|s| s.snap(c))?;
        self.counts.iter_mut().try_for_each(|n| n.snap(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_discarded() {
        let mut bm = BatchMeans::new(100, 100, 2);
        bm.record(50, 1000.0); // warm-up, dropped
        bm.record(150, 10.0);
        bm.record(250, 20.0);
        assert_eq!(bm.batch_means(), vec![10.0, 20.0]);
        assert_eq!(bm.observations(), 2);
    }

    #[test]
    fn batch_boundaries() {
        let mut bm = BatchMeans::new(0, 10, 3);
        bm.record(0, 1.0); // batch 0
        bm.record(9, 3.0); // batch 0
        bm.record(10, 5.0); // batch 1
        bm.record(29, 7.0); // batch 2
        bm.record(30, 100.0); // beyond horizon, dropped
        assert_eq!(bm.batch_means(), vec![2.0, 5.0, 7.0]);
    }

    #[test]
    fn boundary_observations_land_in_the_right_batch() {
        // With a non-zero warm-up, the fencepost cycles: the last
        // warm-up cycle drops, the first measured cycle opens batch 0,
        // each batch is closed-open, and the horizon cycle drops.
        let mut bm = BatchMeans::new(100, 50, 2);
        bm.record(99, 1.0); // last warm-up cycle: dropped
        bm.record(100, 2.0); // first measured cycle: batch 0
        bm.record(149, 4.0); // last cycle of batch 0
        bm.record(150, 8.0); // first cycle of batch 1
        bm.record(199, 16.0); // last measured cycle
        bm.record(200, 32.0); // horizon: dropped
        assert_eq!(bm.batch_means(), vec![3.0, 12.0]);
        assert_eq!(bm.observations(), 4);
        assert!(!bm.is_complete(199));
        assert!(bm.is_complete(200));
    }

    #[test]
    fn empty_batches_are_skipped_in_summary() {
        let mut bm = BatchMeans::new(0, 10, 3);
        bm.record(5, 4.0);
        bm.record(25, 8.0); // batch 1 gets nothing
        assert_eq!(bm.batch_means(), vec![4.0, 8.0]);
        let s = bm.summary();
        assert_eq!(s.n, 2);
        assert!((s.mean - 6.0).abs() < 1e-12);
    }

    #[test]
    fn empty_batches_skipped() {
        let mut bm = BatchMeans::new(0, 10, 3);
        bm.record(25, 4.0); // only batch 2
        assert_eq!(bm.batch_means(), vec![4.0]);
        let s = bm.summary();
        assert_eq!(s.n, 1);
        assert_eq!(s.mean, 4.0);
    }

    #[test]
    fn horizon_and_completion() {
        let bm = BatchMeans::new(100, 50, 4);
        assert_eq!(bm.horizon(), 300);
        assert!(!bm.is_complete(299));
        assert!(bm.is_complete(300));
    }

    #[test]
    fn throughput_rate() {
        let mut bm = BatchMeans::new(0, 100, 2);
        for t in 0..200 {
            if t % 4 == 0 {
                bm.record(t, 1.0);
            }
        }
        assert!((bm.rate_per_cycle() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn summary_across_batches() {
        let mut bm = BatchMeans::new(0, 10, 4);
        for (i, v) in [10.0, 12.0, 8.0, 10.0].iter().enumerate() {
            bm.record(i as u64 * 10, *v);
        }
        let s = bm.summary();
        assert_eq!(s.n, 4);
        assert_eq!(s.mean, 10.0);
    }
}
