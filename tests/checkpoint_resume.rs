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

/// The benchmark's saturated shapes at its 64-byte lines — the
/// four-level ring at both clock rates and a 64-PM hybrid, whose
/// stations are busy and whose crossing queues are deep when the
/// checkpoint is taken: a resumed run must match the uninterrupted one.
#[test]
fn resumes_saturated_rings_at_64_byte_lines() {
    for spec in ["ring:2:3:4:6", "ring2x:2:3:4:6", "hybrid:4x4:4"] {
        let cfg = SystemConfig::new(spec.parse().expect("registry spec"), CacheLineSize::B64)
            .with_sim(SimParams {
                warmup: 600,
                batch_cycles: 600,
                batches: 3,
            })
            .with_seed(7);
        let clean = uninterrupted(&cfg);
        for stop in [701, 1_500] {
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

/// Single-byte corruption anywhere in a checkpoint is refused by
/// `restore`, or restores a state the network can run: every `Ok`
/// restore runs the 200 cycles to cycle 1 400, and nothing panics,
/// in `restore` or after it. Each sampled byte is xor-ed with 0x01,
/// 0x80 and 0xff in turn; release builds sample every byte, debug
/// builds every 37th (about eight seconds).
#[test]
fn corrupt_checkpoint_restore_never_panics() {
    let step = if cfg!(debug_assertions) { 37 } else { 1 };
    let mut panics = Vec::new();
    for network in snapshot_networks() {
        let cfg = quick(network);
        let label = cfg.network.label();
        let mut sys = System::new(cfg.clone()).unwrap();
        let mut state = sys.begin();
        assert!(!sys.run_to(&mut state, 1_200).unwrap());
        let bytes = sys.checkpoint(&state).unwrap();
        let (mut mutations, mut ok, before) = (0usize, 0usize, panics.len());
        for at in (0..bytes.len()).step_by(step) {
            for mask in [0x01u8, 0x80, 0xff] {
                let mut bad = bytes.clone();
                bad[at] ^= mask;
                let mut fresh = System::new(cfg.clone()).unwrap();
                let mut fstate = fresh.begin();
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let restored = fresh.restore(&mut fstate, &bad).is_ok();
                    // A stall is a typed error, not a panic.
                    if restored {
                        let _ = fresh.run_to(&mut fstate, 1_400);
                    }
                    restored
                }));
                mutations += 1;
                match outcome {
                    Ok(restored) => ok += usize::from(restored),
                    Err(_) => panics.push(format!("{label}: byte {at} ^ {mask:#04x}")),
                }
            }
        }
        eprintln!(
            "{label}: {mutations} mutations, {ok} restored as Ok, {} panicked",
            panics.len() - before
        );
    }
    assert!(
        panics.is_empty(),
        "restore or the run after it panicked on: {panics:#?}"
    );
}

/// Offset of the first live packet's record in a checkpoint, if any:
/// after the header (a length-prefixed magic, a `u16` version, a
/// length-prefixed kind), the config fingerprint and the cycle, the
/// packet store's slot count and per slot an `Option<Packet>`, a tag
/// byte and, when live, txn (8 bytes), kind (1), src (4), dst (4),
/// flits (4) and injection cycle (8).
fn first_live(bytes: &[u8]) -> Option<usize> {
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let mut at = 8 + word(0) + 2;
    at += 8 + word(at) + 16;
    let slots = word(at);
    at += 8;
    for _ in 0..slots {
        if bytes[at] == 1 {
            return Some(at + 1);
        }
        at += 1;
    }
    None
}

/// Only the census relates a response in flight to the processor it
/// returns to: sent to a PM with nothing outstanding, it would retire a
/// transaction that PM never issued (the processor panics). Here the
/// run's one transaction has its response in flight, and its
/// destination is moved to a third PM.
#[test]
fn a_response_to_a_pm_with_nothing_outstanding_is_corrupt() {
    let mut light = WorkloadParams::paper_baseline();
    light.miss_rate = 0.0005;
    let cfg = quick(NetworkSpec::ring("6".parse().unwrap())).with_workload(light);
    let mut sys = System::new(cfg.clone()).unwrap();
    let mut state = sys.begin();
    let (bytes, at) = loop {
        let next = sys.cycle() + 1;
        assert!(!sys.run_to(&mut state, next).unwrap());
        let bytes = sys.checkpoint(&state).unwrap();
        let response = |at: usize| matches!(bytes[at + 8], 1 | 3);
        if let Some(at) = first_live(&bytes).filter(|&at| response(at)) {
            break (bytes, at);
        }
    };
    let stats = sys.workload_stats();
    assert_eq!((stats.issued, stats.retired), (1, 0), "one transaction");
    let pm = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let (src, dst) = (pm(at + 9), pm(at + 13));
    let third = (0..6).find(|p| ![src, dst].contains(p)).unwrap();
    let mut bad = bytes.clone();
    bad[at + 13..at + 17].copy_from_slice(&third.to_le_bytes());
    let mut fresh = System::new(cfg).unwrap();
    let mut fstate = fresh.begin();
    match fresh.restore(&mut fstate, &bad) {
        Err(SnapError::Corrupt(msg)) => assert!(
            msg.contains(&format!(
                "processor {third}: 0 transactions outstanding, 1 in flight"
            )),
            "{msg}"
        ),
        other => panic!("{other:?}"),
    }
}

/// Offset of the `flits` field of the first live packet in a
/// checkpoint (see [`first_live`]).
fn first_live_flits(bytes: &[u8]) -> usize {
    first_live(bytes).expect("a packet in flight") + 8 + 1 + 4 + 4
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
