//! The parallel sweep executor's core guarantee: running the same
//! points on any number of worker threads yields byte-identical
//! results. Every sweep point owns its seeded RNG and the pool
//! collects results in input order, so thread count can only change
//! wall-clock time, never output. These tests pin that down across
//! both network families, on explicit pools and on the default one.

use ringmesh::{
    run_points, run_points_with, series_of, NetworkSpec, RunResult, SimParams, SystemConfig,
    WorkerPool,
};
use ringmesh_net::CacheLineSize;
use ringmesh_ring::RingSpec;

fn sim() -> SimParams {
    SimParams {
        warmup: 300,
        batch_cycles: 300,
        batches: 3,
    }
}

fn ring_points() -> Vec<(f64, SystemConfig)> {
    (2u32..=6)
        .map(|k| {
            let cfg = SystemConfig::new(NetworkSpec::ring(RingSpec::single(k)), CacheLineSize::B32)
                .with_sim(sim());
            (f64::from(k), cfg)
        })
        .collect()
}

fn mesh_points() -> Vec<(f64, SystemConfig)> {
    (2u32..=4)
        .map(|side| {
            let cfg =
                SystemConfig::new(NetworkSpec::mesh(side), CacheLineSize::B32).with_sim(sim());
            (f64::from(side * side), cfg)
        })
        .collect()
}

/// One metric of a sweep on `threads` workers, as a figure draws a
/// curve: [`series_of`] over [`run_points_with`].
fn series_on(
    threads: usize,
    points: Vec<(f64, SystemConfig)>,
    metric: fn(&RunResult) -> f64,
) -> ringmesh_stats::Series {
    let results = run_points_with(&WorkerPool::new(threads), "det", points);
    series_of("det", &results, metric)
}

/// `(x, y)` series points as raw IEEE-754 bits: equality here is the
/// byte-identity the executor promises, not an epsilon comparison.
fn series_bits(s: &ringmesh_stats::Series) -> Vec<(u64, u64)> {
    s.points
        .iter()
        .map(|&(x, y)| (x.to_bits(), y.to_bits()))
        .collect()
}

#[test]
fn ring_series_identical_across_thread_counts() {
    let runs: Vec<_> = [1usize, 2, 4]
        .iter()
        .map(|&n| series_on(n, ring_points(), RunResult::mean_latency))
        .collect();
    assert!(!runs[0].points.is_empty(), "sweep produced no points");
    for run in &runs[1..] {
        assert_eq!(series_bits(&runs[0]), series_bits(run));
    }
}

#[test]
fn mesh_results_identical_serial_vs_pooled() {
    let serial = run_points_with(&WorkerPool::new(1), "det-mesh", mesh_points());
    let pooled = run_points_with(&WorkerPool::new(4), "det-mesh", mesh_points());
    assert_eq!(serial.len(), pooled.len());
    assert!(!serial.is_empty(), "sweep produced no points");
    for ((xa, ra), (xb, rb)) in serial.iter().zip(&pooled) {
        assert_eq!(xa.to_bits(), xb.to_bits());
        assert_eq!(ra.mean_latency().to_bits(), rb.mean_latency().to_bits());
        assert_eq!(ra.throughput.to_bits(), rb.throughput.to_bits());
        assert_eq!(
            ra.utilization.overall.to_bits(),
            rb.utilization.overall.to_bits()
        );
    }
}

/// The default entry point (pool sized from `RINGMESH_THREADS` or the
/// host's parallelism) must be output-neutral too: whatever width it
/// picks, it matches explicit pools of one and four workers.
#[test]
fn default_pool_is_output_neutral() {
    let throughput = |r: &RunResult| r.throughput;
    let default = series_of("det", &run_points(ring_points()), throughput);
    for n in [1, 4] {
        let pinned = series_on(n, ring_points(), throughput);
        assert_eq!(series_bits(&default), series_bits(&pinned), "{n} workers");
    }
}
