//! Deterministic checkpoint/resume: an interrupted-and-resumed run must
//! fingerprint-match an uninterrupted one, bit for bit, on every
//! network model that supports snapshots (hierarchical ring, slotted
//! ring, mesh, hybrid mesh-of-rings — plain and hierarchical variants
//! of each family).

use ringmesh::{NetworkSpec, SimParams, SnapError, System, SystemConfig};
use ringmesh_net::CacheLineSize;
use ringmesh_workload::WorkloadParams;

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
    assert!(
        resumed.checkpoint(&rstate).unwrap() == bytes,
        "{}: a checkpoint taken right after restore must be the bytes restored",
        cfg.network.label()
    );
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

/// Near zero load most mesh routers and ring stations sleep, so a
/// checkpoint is taken, and restored, while the kernels' worklists name
/// only a few of them: a resumed run must still match, whatever the
/// restore puts on the worklists.
#[test]
fn resumes_where_most_routers_sleep() {
    for spec in ["mesh:16", "ring:2:3:4:6", "hybrid:4x4:4"] {
        let mut light = WorkloadParams::paper_baseline();
        light.miss_rate = 0.002;
        let cfg = quick(spec.parse().expect("registry spec")).with_workload(light);
        let clean = uninterrupted(&cfg);
        for stop in [500, 1_201, 2_999] {
            assert_eq!(
                clean,
                interrupted(&cfg, stop),
                "{spec}: resume at cycle {stop} diverged from the uninterrupted run"
            );
        }
    }
}

/// Taking a checkpoint leaves the run it was taken from untouched: the
/// serve layer checkpoints a job periodically and keeps running it.
#[test]
fn checkpointing_leaves_the_run_unchanged() {
    for network in snapshot_networks() {
        let cfg = quick(network);
        let clean = uninterrupted(&cfg);
        let mut sys = System::new(cfg.clone()).unwrap();
        let mut state = sys.begin();
        for stop in [500, 800, 2_300] {
            assert!(!sys.run_to(&mut state, stop).unwrap());
            sys.checkpoint(&state).unwrap();
        }
        assert!(sys.run_to(&mut state, u64::MAX).unwrap());
        assert_eq!(
            clean,
            sys.finish(&state).fingerprint(),
            "{}",
            cfg.network.label()
        );
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

/// Single-byte corruption anywhere in a checkpoint is an `Ok` or an
/// `Err` from `restore`, never a panic. Each sampled byte is xor-ed with
/// 0x01, 0x80 and 0xff in turn; debug builds sample every seventh byte,
/// release builds every byte.
#[test]
fn corrupt_checkpoint_restore_never_panics() {
    let step = if cfg!(debug_assertions) { 7 } else { 1 };
    let (mut mutations, mut ok) = (0usize, 0usize);
    let mut panics = Vec::new();
    for network in snapshot_networks() {
        let cfg = quick(network);
        let label = cfg.network.label();
        let mut sys = System::new(cfg.clone()).unwrap();
        let mut state = sys.begin();
        assert!(!sys.run_to(&mut state, 1_200).unwrap());
        let bytes = sys.checkpoint(&state).unwrap();
        for at in (0..bytes.len()).step_by(step) {
            for mask in [0x01u8, 0x80, 0xff] {
                let mut bad = bytes.clone();
                bad[at] ^= mask;
                let mut fresh = System::new(cfg.clone()).unwrap();
                let mut fstate = fresh.begin();
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    fresh.restore(&mut fstate, &bad).is_ok()
                }));
                mutations += 1;
                match outcome {
                    Ok(restored) => ok += usize::from(restored),
                    Err(_) => panics.push(format!("{label}: byte {at} ^ {mask:#04x}")),
                }
            }
        }
    }
    eprintln!(
        "{mutations} mutations, {ok} restored as Ok, {} panicked",
        panics.len()
    );
    assert!(panics.is_empty(), "restore panicked on: {panics:#?}");
}

/// Offset of the `flits` field of the first live packet in a
/// checkpoint. The header (a length-prefixed magic, a `u16` version, a
/// length-prefixed kind), the config fingerprint and the cycle come
/// first; then the packet store's slots, a length and per slot an
/// `Option<Packet>`: a tag byte and, when live, txn (8 bytes), kind (1),
/// src (4), dst (4), flits (4) and injection cycle (8).
fn first_live_flits(bytes: &[u8]) -> usize {
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let mut at = 8 + word(0) + 2;
    at += 8 + word(at) + 16;
    let slots = word(at);
    at += 8;
    for _ in 0..slots {
        if bytes[at] == 1 {
            return at + 1 + 8 + 1 + 4 + 4;
        }
        at += 1;
    }
    panic!("no packet in flight");
}

/// A stored packet's length sizes every buffer it passes through: the
/// hybrid's elastic bridge queue once took a corrupt `flits` for a
/// worm of billions of flits and aborted on the allocation. A restore
/// refuses any length but its kind's.
#[test]
fn a_packet_of_the_wrong_length_is_corrupt() {
    let cfg = quick("hybrid:2x2:2".parse().expect("registry spec"));
    let mut sys = System::new(cfg.clone()).unwrap();
    let mut state = sys.begin();
    assert!(!sys.run_to(&mut state, 1_200).unwrap());
    let bytes = sys.checkpoint(&state).unwrap();
    let at = first_live_flits(&bytes);
    for raise in [1, 1 << 30] {
        let mut bad = bytes.clone();
        let flits = u32::from_le_bytes(bad[at..at + 4].try_into().unwrap()) + raise;
        bad[at..at + 4].copy_from_slice(&flits.to_le_bytes());
        let mut fresh = System::new(cfg.clone()).unwrap();
        let mut fstate = fresh.begin();
        match fresh.restore(&mut fstate, &bad) {
            Err(SnapError::Corrupt(msg)) => assert!(msg.contains("flits"), "{msg}"),
            other => panic!("flits + {raise}: {other:?}"),
        }
    }
}
