//! Integration tests for the fault-injection subsystem: randomized
//! topology × fault-schedule sweeps with the conservation audit on,
//! bit-exact replay of faulty runs, and the graceful-failure path when
//! the retry layer is disabled.
//!
//! Like `proptests.rs`, the randomized cases are driven by the
//! simulator's own [`SimRng`] (no external property-testing crate in
//! the offline build environment), so every failure replays
//! bit-for-bit from the fixed seed.

use ringmesh::{
    FaultConfig, FaultPlan, FaultRunReport, NetworkSpec, RetryPolicy, RunError, SimParams, System,
    SystemConfig,
};
use ringmesh_engine::SimRng;
use ringmesh_net::CacheLineSize;
use ringmesh_workload::WorkloadParams;

fn short_sim() -> SimParams {
    SimParams {
        warmup: 800,
        batch_cycles: 800,
        batches: 3,
    }
}

/// A retry policy short enough that even a fully-blackholed slot cycles
/// through all attempts well inside the stall-watchdog horizon.
fn short_retry() -> RetryPolicy {
    RetryPolicy {
        timeout: 200,
        max_attempts: 3,
        backoff: 32,
    }
}

fn random_faults(rng: &mut SimRng, horizon: u64) -> FaultConfig {
    FaultConfig {
        seed: rng.uniform_usize(1 << 20) as u64,
        corrupt_prob: [0.0, 0.01, 0.05][rng.uniform_usize(3)],
        link_down_events: rng.uniform_usize(5) as u32,
        link_down_cycles: 50 + rng.uniform_usize(400) as u64,
        dead_nodes: rng.uniform_usize(3) as u32,
        horizon,
    }
}

/// Runs one faulty case; stalls are legitimate outcomes under heavy
/// faults, everything else must succeed with a clean conservation
/// audit.
fn check_case(network: NetworkSpec, faults: FaultConfig, seed: u64) {
    let label = network.label();
    let cfg = SystemConfig::new(network, CacheLineSize::B32)
        .with_sim(short_sim())
        .with_seed(seed);
    let plan = FaultPlan::new(faults).with_retry(short_retry());
    match System::new(cfg).unwrap().run_faulty(&plan) {
        Ok(report) => {
            assert!(
                report.violation.is_none(),
                "{label} faults={faults:?}: {:?}",
                report.violation
            );
            let (injected, delivered, dropped) = report.conservation;
            assert!(
                injected >= delivered + dropped,
                "{label}: {injected} < {delivered} + {dropped}"
            );
            assert_eq!(report.faults.drops.total(), dropped, "{label}");
        }
        Err(RunError::Stall(e)) => {
            eprintln!("accepted stall under faults: {label} faults={faults:?}: {e}");
        }
        Err(e) => panic!("{label} faults={faults:?}: {e}"),
    }
}

#[test]
fn random_ring_fault_schedules_conserve_packets() {
    let mut rng = SimRng::from_seed(0xFA01_0001);
    let specs = ["4", "2:3", "2:4", "2:2:3", "3:4"];
    for case in 0..20 {
        let spec = specs[rng.uniform_usize(specs.len())];
        let faults = random_faults(&mut rng, short_sim().horizon());
        check_case(
            NetworkSpec::ring(spec.parse().unwrap()),
            faults,
            0x5EED + case,
        );
    }
}

#[test]
fn random_mesh_fault_schedules_conserve_packets() {
    let mut rng = SimRng::from_seed(0xFA01_0002);
    for case in 0..20 {
        let side = 2 + rng.uniform_usize(3) as u32;
        let faults = random_faults(&mut rng, short_sim().horizon());
        check_case(NetworkSpec::mesh(side), faults, 0x5EED + case);
    }
}

/// Formats the replay-relevant surface of a report; two runs with the
/// same seeds must produce byte-identical summaries.
fn summary(r: &FaultRunReport) -> String {
    format!(
        "lat={:?} thru={} wl={:?} faults={:?} retry={:?} cons={:?}",
        r.result.latency, r.result.throughput, r.result.workload, r.faults, r.retry, r.conservation
    )
}

#[test]
fn faulty_runs_replay_byte_identically() {
    let mk = || {
        let cfg = SystemConfig::new(
            NetworkSpec::ring("2:4".parse().unwrap()),
            CacheLineSize::B64,
        )
        .with_sim(short_sim())
        .with_seed(99);
        let plan = FaultPlan::new(FaultConfig {
            seed: 21,
            corrupt_prob: 0.02,
            link_down_events: 3,
            link_down_cycles: 200,
            dead_nodes: 1,
            horizon: short_sim().horizon(),
        })
        .with_retry(short_retry());
        summary(&System::new(cfg).unwrap().run_faulty(&plan).unwrap())
    };
    assert_eq!(mk(), mk());
}

/// Without the retry layer, dropped transactions leak their outstanding
/// slots until the system-level watchdog reports the run as stalled —
/// the graceful-failure path scripts detect via the exit status.
#[test]
fn unprotected_fault_run_stalls_instead_of_hanging() {
    let cfg = SystemConfig::new(
        NetworkSpec::ring("2:4".parse().unwrap()),
        CacheLineSize::B32,
    )
    .with_workload(WorkloadParams::paper_baseline().with_region(1.0))
    .with_sim(short_sim())
    .with_seed(3);
    // Kill every IRI at cycle ~0: all cross-ring traffic is refused and,
    // with no retry layer, every refused transaction wedges a slot.
    let plan = FaultPlan::new(FaultConfig {
        seed: 5,
        corrupt_prob: 0.0,
        link_down_events: 0,
        link_down_cycles: 0,
        dead_nodes: u32::MAX,
        horizon: 1,
    })
    .without_retry();
    let r = System::new(cfg).unwrap().run_faulty(&plan);
    assert!(matches!(r, Err(RunError::Stall(_))), "got {r:?}");
}

/// The same schedule under the retry layer keeps the run alive: local
/// traffic completes, unreachable transactions are given up cleanly.
#[test]
fn retry_layer_keeps_faulty_run_alive() {
    let cfg = SystemConfig::new(
        NetworkSpec::ring("2:4".parse().unwrap()),
        CacheLineSize::B32,
    )
    .with_workload(WorkloadParams::paper_baseline().with_region(1.0))
    .with_sim(short_sim())
    .with_seed(3);
    let plan = FaultPlan::new(FaultConfig {
        seed: 5,
        corrupt_prob: 0.0,
        link_down_events: 0,
        link_down_cycles: 0,
        dead_nodes: u32::MAX,
        horizon: 1,
    })
    .with_retry(short_retry());
    let report = System::new(cfg).unwrap().run_faulty(&plan).unwrap();
    assert!(report.violation.is_none());
    assert!(report.retry.gave_up > 0, "cross-ring traffic must give up");
    assert!(
        report.result.workload.retired > 0,
        "local traffic must still complete"
    );
}
