//! Parameter-sweep helpers: run a list of configurations and collect a
//! labelled series of `(system size, metric)` points.
//!
//! Sweep points are independent simulations — each owns its own seeded
//! RNG — so [`run_series`] and [`run_points`] fan them across a
//! [`WorkerPool`] (sized by `RINGMESH_THREADS`, default: available
//! parallelism) while collecting results in input order. The output is
//! byte-identical to a serial run at any thread count.

use std::sync::OnceLock;

use ringmesh_engine::WorkerPool;
use ringmesh_stats::Series;

use crate::system::{run_config, RunError, RunResult};
use crate::SystemConfig;

/// Scale of an experiment run.
///
/// `Full` regenerates the paper's figures at publication quality;
/// `Quick` shrinks run lengths and sweep ranges so the entire harness
/// finishes in seconds (what `ringmesh figure` runs at unless
/// `RINGMESH_FULL=1` asks for full scale).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Batch-means run lengths for every simulation point.
    pub sim: crate::SimParams,
    /// Largest system size to sweep.
    pub max_pms: u32,
    /// Whether parameter lists should be thinned.
    pub quick: bool,
}

impl Scale {
    /// Publication-quality scale (the paper sweeps to 121/128 PMs).
    pub fn full() -> Self {
        Scale {
            sim: crate::SimParams::full(),
            max_pms: 128,
            quick: false,
        }
    }

    /// Fast scale for smoke tests and the default `ringmesh figure` run.
    pub fn quick() -> Self {
        Scale {
            sim: crate::SimParams::quick(),
            max_pms: 40,
            quick: true,
        }
    }

    /// `Scale::full()` if the `RINGMESH_FULL` environment variable is
    /// set (to anything but `0`), else `Scale::quick()`. The variable
    /// is read once per process and the decision cached.
    pub fn from_env() -> Self {
        static SCALE: OnceLock<Scale> = OnceLock::new();
        *SCALE.get_or_init(|| match std::env::var("RINGMESH_FULL") {
            Ok(v) if v != "0" => Scale::full(),
            _ => Scale::quick(),
        })
    }
}

/// Runs every `(x, config)` point and collects `metric` of each result
/// into a series. Points whose simulation stalls (a deadlocked
/// saturated configuration) are skipped with a warning on stderr rather
/// than aborting the sweep.
///
/// Points execute on [`WorkerPool::from_env`]; use
/// [`run_series_with`] to pin a pool explicitly.
pub fn run_series(
    label: impl Into<String>,
    points: Vec<(f64, SystemConfig)>,
    metric: impl Fn(&RunResult) -> f64,
) -> Series {
    run_series_with(&WorkerPool::from_env(), label, points, metric)
}

/// [`run_series`] on an explicit pool. Results are collected in input
/// order and are byte-identical for any thread count (every point owns
/// its own seeded RNG).
pub fn run_series_with(
    pool: &WorkerPool,
    label: impl Into<String>,
    points: Vec<(f64, SystemConfig)>,
    metric: impl Fn(&RunResult) -> f64,
) -> Series {
    let label = label.into();
    let results = pool.map(points, |_, (x, cfg)| {
        run_point(&label, cfg, x).map(|r| (x, r))
    });
    let mut series = Series::new(label);
    for (x, result) in results.into_iter().flatten() {
        series.push(x, metric(&result));
    }
    series
}

/// Runs one configuration; a deadlocked (finite-buffer) run is retried
/// twice with perturbed seeds before the point is skipped with a
/// warning — rare stalls are seed-dependent and a retry recovers the
/// measurement without biasing it. This is the single stall-retry
/// helper shared by [`run_series`] and [`run_points`]; `label` names
/// the sweep in skip warnings so interleaved parallel-run warnings stay
/// attributable to their series.
fn run_point(label: &str, cfg: SystemConfig, x: f64) -> Option<RunResult> {
    let desc = cfg.network.label();
    let seed = cfg.seed;
    for attempt in 0..3u64 {
        let c = cfg
            .clone()
            .with_seed(seed.wrapping_add(attempt * 0x9e37_79b9));
        match run_config(c) {
            Ok(result) => {
                if result.latency.n == 0 {
                    eprintln!("warning: [{label}] {desc} at x={x}: no completed transactions");
                    return None;
                }
                return Some(result);
            }
            Err(RunError::Stall(e)) => {
                eprintln!("warning: [{label}] {desc} at x={x} (attempt {attempt}): {e}");
            }
            Err(e) => {
                eprintln!("warning: [{label}] skipping {desc} at x={x}: {e}");
                return None;
            }
        }
    }
    None
}

/// Runs every point once and returns full results, for figures that
/// need several metrics (latency *and* utilization) from one sweep.
/// Executes on the default [`WorkerPool`] like [`run_series`].
pub fn run_points(points: Vec<(f64, SystemConfig)>) -> Vec<(f64, RunResult)> {
    run_points_with(&WorkerPool::from_env(), "sweep", points)
}

/// [`run_points`] on an explicit pool, with `label` naming the sweep in
/// skip warnings.
pub fn run_points_with(
    pool: &WorkerPool,
    label: &str,
    points: Vec<(f64, SystemConfig)>,
) -> Vec<(f64, RunResult)> {
    pool.map(points, |_, (x, cfg)| {
        run_point(label, cfg, x).map(|r| (x, r))
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Extracts a metric series from pre-computed results.
pub fn series_of(
    label: impl Into<String>,
    points: &[(f64, RunResult)],
    metric: impl Fn(&RunResult) -> f64,
) -> Series {
    let mut s = Series::new(label);
    for (x, r) in points {
        s.push(*x, metric(r));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetworkSpec, SystemConfig};
    use ringmesh_net::CacheLineSize;

    #[test]
    fn scale_from_env_defaults_quick() {
        // The test environment does not set RINGMESH_FULL.
        if std::env::var("RINGMESH_FULL").is_err() {
            assert!(Scale::from_env().quick);
            // Cached: a second call returns the same decision.
            assert_eq!(Scale::from_env(), Scale::from_env());
        }
    }

    fn mk(n: u32) -> SystemConfig {
        SystemConfig::new(
            NetworkSpec::ring(ringmesh_ring::RingSpec::single(n)),
            CacheLineSize::B32,
        )
        .with_sim(crate::SimParams {
            warmup: 200,
            batch_cycles: 200,
            batches: 3,
        })
    }

    #[test]
    fn run_series_collects_points() {
        let s = run_series("demo", vec![(2.0, mk(2)), (4.0, mk(4))], |r| {
            r.mean_latency()
        });
        assert_eq!(s.points.len(), 2);
        assert!(s.points.iter().all(|&(_, y)| y > 0.0));
    }

    #[test]
    fn explicit_pools_match_bitwise() {
        let points = |n: u32| (2..=n).map(|k| (f64::from(k), mk(k))).collect::<Vec<_>>();
        let serial = run_series_with(&WorkerPool::new(1), "det", points(5), |r| r.mean_latency());
        let pooled = run_series_with(&WorkerPool::new(4), "det", points(5), |r| r.mean_latency());
        let bits = |s: &Series| {
            s.points
                .iter()
                .map(|&(x, y)| (x.to_bits(), y.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&serial), bits(&pooled));
    }
}
