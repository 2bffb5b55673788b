//! Thread-contention stress tests for the serve layer's admission
//! primitives: [`AdmissionGate`] must never over-admit or leak capacity
//! under concurrent claim/release storms, and [`StopFlag`] must never
//! lose a set — every observer eventually sees shutdown, no matter how
//! the set races the reads.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use ringmesh_engine::{AdmissionGate, StopFlag};

/// Many threads hammer one gate; the observed in-flight count must
/// never exceed the limit, and when the dust settles every permit must
/// have been returned (no lost capacity, no phantom holders).
#[test]
fn gate_never_over_admits_under_contention() {
    const THREADS: usize = 16;
    const ROUNDS: usize = 2_000;
    const LIMIT: usize = 4;

    let gate = AdmissionGate::new(LIMIT);
    let admitted = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let peak = AtomicUsize::new(0);
    let barrier = Barrier::new(THREADS);

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (gate, admitted, shed, peak, barrier) = (&gate, &admitted, &shed, &peak, &barrier);
            s.spawn(move || {
                barrier.wait(); // maximal contention: everyone starts together
                for round in 0..ROUNDS {
                    match gate.try_enter() {
                        Some(_permit) => {
                            let seen = gate.in_flight();
                            assert!(
                                (1..=LIMIT).contains(&seen),
                                "thread {t} round {round}: in_flight {seen} outside [1, {LIMIT}]"
                            );
                            peak.fetch_max(seen, Ordering::Relaxed);
                            admitted.fetch_add(1, Ordering::Relaxed);
                            // Hold briefly so claims genuinely overlap.
                            if round % 64 == 0 {
                                std::thread::yield_now();
                            }
                        }
                        None => {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });

    assert_eq!(gate.in_flight(), 0, "every permit must be returned");
    assert!(
        admitted.load(Ordering::Relaxed) >= LIMIT as u64,
        "the gate must have admitted work"
    );
    // Full capacity is available again: no capacity was lost to races.
    let refill: Vec<_> = (0..LIMIT).map(|_| gate.try_enter().unwrap()).collect();
    assert!(gate.try_enter().is_none());
    drop(refill);
    assert_eq!(gate.in_flight(), 0);
    let _ = shed;
}

/// Interleaved claim/release across threads: capacity returned by a
/// drop is claimable by any other thread (no "lost wakeup" analogue
/// where freed capacity stays invisible). Whether the churners get
/// scheduled at all before the prober is done is up to the OS, so
/// nothing is asserted about their progress.
#[test]
fn released_capacity_is_always_reclaimable() {
    const LIMIT: usize = 2;
    let gate = AdmissionGate::new(LIMIT);
    let stop = AtomicBool::new(false);

    std::thread::scope(|s| {
        // Churners: grab and immediately release.
        for _ in 0..6 {
            let (gate, stop) = (&gate, &stop);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    drop(gate.try_enter());
                }
            });
        }
        // Prober: with churners constantly releasing, a bounded retry
        // loop must always reacquire — freed capacity never vanishes.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut reacquired = 0;
        while reacquired < 500 {
            assert!(
                Instant::now() < deadline,
                "released capacity became unclaimable (reacquired {reacquired} times)"
            );
            if let Some(p) = gate.try_enter() {
                reacquired += 1;
                drop(p);
            } else {
                std::thread::yield_now();
            }
        }
        stop.store(true, Ordering::Relaxed);
    });

    assert_eq!(gate.in_flight(), 0);
}

/// One setter races many readers; every reader must observe the stop
/// within a bounded spin once it is set (a reader that never sees the
/// flag would hang a session thread forever at shutdown).
#[test]
fn stop_flag_set_is_never_lost_across_threads() {
    const READERS: usize = 12;
    let stop = StopFlag::new();
    let observed = AtomicUsize::new(0);
    let barrier = Barrier::new(READERS + 1);

    std::thread::scope(|s| {
        for _ in 0..READERS {
            let flag = stop.clone();
            let (observed, barrier) = (&observed, &barrier);
            s.spawn(move || {
                barrier.wait();
                let deadline = Instant::now() + Duration::from_secs(10);
                while !flag.is_set() {
                    assert!(Instant::now() < deadline, "reader never observed the stop");
                    std::thread::yield_now();
                }
                observed.fetch_add(1, Ordering::SeqCst);
            });
        }
        barrier.wait();
        std::thread::yield_now();
        stop.set();
    });

    assert_eq!(observed.load(Ordering::SeqCst), READERS);
    assert!(stop.is_set(), "a set flag stays set");
}

/// Concurrent setters are idempotent: any number of threads may request
/// shutdown simultaneously and the flag lands set exactly the same way.
#[test]
fn concurrent_sets_are_idempotent() {
    let stop = StopFlag::new();
    std::thread::scope(|s| {
        for _ in 0..8 {
            let flag = stop.clone();
            s.spawn(move || {
                for _ in 0..1_000 {
                    flag.set();
                    assert!(flag.is_set());
                }
            });
        }
    });
    assert!(stop.is_set());
}
