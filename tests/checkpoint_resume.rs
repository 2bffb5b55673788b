//! Deterministic checkpoint/resume: an interrupted-and-resumed run must
//! fingerprint-match an uninterrupted one, bit for bit, on every
//! network model that supports snapshots (hierarchical ring, slotted
//! ring, mesh, hybrid mesh-of-rings — plain and hierarchical variants
//! of each family).

use ringmesh::{NetworkSpec, SimParams, SnapError, System, SystemConfig};
use ringmesh_net::CacheLineSize;

fn quick(network: NetworkSpec) -> SystemConfig {
    SystemConfig::new(network, CacheLineSize::B32)
        .with_sim(SimParams {
            warmup: 800,
            batch_cycles: 800,
            batches: 4,
        })
        .with_seed(41)
}

fn snapshot_networks() -> Vec<NetworkSpec> {
    vec![
        NetworkSpec::ring("6".parse().unwrap()),
        NetworkSpec::ring("2:2:3".parse().unwrap()),
        NetworkSpec::Ring {
            spec: "2:4".parse().unwrap(),
            speedup: 2,
        },
        NetworkSpec::SlottedRing {
            spec: "2:2:3".parse().unwrap(),
        },
        NetworkSpec::mesh(3),
        "hybrid:2x2:2".parse().expect("registry spec"),
    ]
}

fn uninterrupted(cfg: &SystemConfig) -> u64 {
    let mut sys = System::new(cfg.clone()).unwrap();
    let mut state = sys.begin();
    assert!(sys.run_to(&mut state, u64::MAX).unwrap());
    sys.finish(&state).fingerprint()
}

/// Runs to `stop`, checkpoints, restores into a *fresh* system, and
/// finishes there.
fn interrupted(cfg: &SystemConfig, stop: u64) -> u64 {
    let mut sys = System::new(cfg.clone()).unwrap();
    let mut state = sys.begin();
    assert!(
        !sys.run_to(&mut state, stop).unwrap(),
        "measurement must not complete before the checkpoint"
    );
    assert_eq!(sys.cycle(), stop);
    let bytes = sys.checkpoint(&state).unwrap();
    drop(sys);

    let mut resumed = System::new(cfg.clone()).unwrap();
    let mut rstate = resumed.begin();
    resumed.restore(&mut rstate, &bytes).unwrap();
    assert_eq!(resumed.cycle(), stop);
    assert!(resumed.run_to(&mut rstate, u64::MAX).unwrap());
    resumed.finish(&rstate).fingerprint()
}

#[test]
fn resumed_runs_match_uninterrupted_on_every_network() {
    for network in snapshot_networks() {
        let cfg = quick(network);
        let label = cfg.network.label();
        let clean = uninterrupted(&cfg);
        // Mid-warm-up, at the measurement boundary, and mid-measurement.
        for stop in [500, 800, 2_300] {
            let resumed = interrupted(&cfg, stop);
            assert_eq!(
                clean, resumed,
                "{label}: resume at cycle {stop} diverged from the uninterrupted run"
            );
        }
    }
}

#[test]
fn double_interruption_still_matches() {
    let cfg = quick(NetworkSpec::ring("2:2:3".parse().unwrap()));
    let clean = uninterrupted(&cfg);

    let mut sys = System::new(cfg.clone()).unwrap();
    let mut state = sys.begin();
    assert!(!sys.run_to(&mut state, 700).unwrap());
    let first = sys.checkpoint(&state).unwrap();

    let mut sys = System::new(cfg.clone()).unwrap();
    let mut state = sys.begin();
    sys.restore(&mut state, &first).unwrap();
    assert!(!sys.run_to(&mut state, 1_900).unwrap());
    let second = sys.checkpoint(&state).unwrap();

    let mut sys = System::new(cfg.clone()).unwrap();
    let mut state = sys.begin();
    sys.restore(&mut state, &second).unwrap();
    assert!(sys.run_to(&mut state, u64::MAX).unwrap());
    assert_eq!(clean, sys.finish(&state).fingerprint());
}

#[test]
fn checkpoint_rejects_wrong_config() {
    let cfg = quick(NetworkSpec::mesh(3));
    let mut sys = System::new(cfg.clone()).unwrap();
    let mut state = sys.begin();
    assert!(!sys.run_to(&mut state, 400).unwrap());
    let bytes = sys.checkpoint(&state).unwrap();

    // Same shape, different seed: the config fingerprint must not match.
    let other = cfg.with_seed(999);
    let mut wrong = System::new(other).unwrap();
    let mut wstate = wrong.begin();
    assert!(matches!(
        wrong.restore(&mut wstate, &bytes),
        Err(SnapError::Mismatch(_))
    ));
}

#[test]
fn truncated_checkpoint_is_an_error_not_a_panic() {
    for network in snapshot_networks() {
        let cfg = quick(network);
        let label = cfg.network.label();
        let mut sys = System::new(cfg.clone()).unwrap();
        let mut state = sys.begin();
        assert!(!sys.run_to(&mut state, 600).unwrap());
        let bytes = sys.checkpoint(&state).unwrap();
        // Every seventh prefix, so the cuts fall at every offset inside
        // an eight-byte word and inside every section, and the longest.
        for cut in (0..bytes.len()).step_by(7).chain([bytes.len() - 1]) {
            let mut fresh = System::new(cfg.clone()).unwrap();
            let mut fstate = fresh.begin();
            assert!(
                fresh.restore(&mut fstate, &bytes[..cut]).is_err(),
                "{label}: truncation at {cut} of {} must fail",
                bytes.len()
            );
        }
    }
}
