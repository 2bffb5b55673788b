//! Parameter-sweep helpers: run a list of configurations and collect a
//! labelled series of `(system size, metric)` points.
//!
//! Sweep points are independent simulations — each owns its own seeded
//! RNG — so [`run_points`] fans them across a [`WorkerPool`] (sized by `RINGMESH_THREADS`, default: available
//! parallelism) while collecting results in input order. The output is
//! byte-identical to a serial run at any thread count.

use std::sync::OnceLock;

use ringmesh_engine::WorkerPool;
use ringmesh_stats::Series;

use crate::system::{run_config, RunResult};
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

/// Runs every `(x, config)` point once on [`WorkerPool::from_env`] and
/// returns the full results, from which [`series_of`] draws one metric
/// per curve. A point whose simulation fails (a stalled saturated
/// configuration among them) or completes no transaction is left out
/// with a warning on stderr rather than aborting the sweep.
pub fn run_points(points: Vec<(f64, SystemConfig)>) -> Vec<(f64, RunResult)> {
    run_points_with(&WorkerPool::from_env(), "sweep", points)
}

/// [`run_points`] on an explicit pool. Each point runs once; one that
/// fails or completes no transaction is left out with a warning that
/// `label` attributes to its sweep (parallel runs interleave them).
/// Results are collected in input order and are bit-identical for any
/// thread count (every point owns its own seeded RNG).
pub fn run_points_with(
    pool: &WorkerPool,
    label: &str,
    points: Vec<(f64, SystemConfig)>,
) -> Vec<(f64, RunResult)> {
    let results = pool.map(points, |_, (x, cfg)| {
        let desc = cfg.network.label();
        match run_config(cfg) {
            Ok(r) if r.latency.n > 0 => Some((x, r)),
            Ok(_) => {
                eprintln!("warning: [{label}] {desc} at x={x}: no completed transactions");
                None
            }
            Err(e) => {
                eprintln!("warning: [{label}] skipping {desc} at x={x}: {e}");
                None
            }
        }
    });
    results.into_iter().flatten().collect()
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
    fn series_of_run_points_collects_points() {
        let results = run_points(vec![(2.0, mk(2)), (4.0, mk(4))]);
        let s = series_of("demo", &results, |r| r.mean_latency());
        assert_eq!(s.points.len(), 2);
        assert!(s.points.iter().all(|&(_, y)| y > 0.0));
    }

    #[test]
    fn explicit_pools_match_bitwise() {
        let points = |n: u32| (2..=n).map(|k| (f64::from(k), mk(k))).collect::<Vec<_>>();
        let run = |threads| {
            let results = run_points_with(&WorkerPool::new(threads), "det", points(5));
            series_of("det", &results, |r| r.mean_latency())
        };
        let (serial, pooled) = (run(1), run(4));
        let bits = |s: &Series| {
            s.points
                .iter()
                .map(|&(x, y)| (x.to_bits(), y.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&serial), bits(&pooled));
    }
}
