//! End-to-end fleet tests over real sockets: registration policy,
//! dispatch-and-complete against a genuine worker, worker-death
//! re-dispatch, lease-expiry speculation, the serve window reaching the
//! worker, and the divergent-duplicate determinism check.
//!
//! Fake workers speak the wire protocol directly so failure modes
//! (dying mid-lease, never answering, double-completing a dispatch) can
//! be scripted exactly, and one scripted coordinator sends a worker a
//! line it cannot read; the other tests use the real [`run_worker`]
//! loop.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use ringmesh::StopFlag;
use ringmesh_serve::fleet::{
    code_hash, run_worker, CoordMsg, FleetOptions, FleetPool, RemoteEvent, RemoteOutcome,
    RemoteTask, WorkerExit, WorkerMsg,
};
use ringmesh_serve::json::Json;
use ringmesh_serve::{parse_job, result_payload, run_job, ResultCache, CODE_VERSION};
use ringmesh_snap::Fingerprint;

/// A small real job (mesh 3×3, two short batches) used wherever a
/// dispatch must actually simulate.
const JOB: &str = r#"{"op":"job","id":"t0","topology":"mesh:3","warmup":400,"batch_cycles":400,"batches":2,"cache_line":32}"#;

/// Quick-reacting options so death/backoff paths run in test time.
fn test_opts() -> FleetOptions {
    FleetOptions {
        lease_ms: 30_000,
        heartbeat_ms: 500,
    }
}

/// Builds the `RemoteTask` plus the payload a correct run must produce,
/// computed in-process exactly as the serve layer would.
fn task_and_expected(id: &str) -> (RemoteTask, String) {
    let spec = Json::parse(JOB).expect("job spec parses");
    let job = parse_job(&spec, id).expect("job spec is valid");
    let key = ResultCache::key(&job.cfg);
    let out = run_job(&job.cfg, 200, 0, None, None, &mut |_| {}).expect("local control run");
    let payload = result_payload(&job.cfg, &out.result, key);
    (RemoteTask { key, spec }, payload)
}

/// A scripted worker speaking the wire protocol directly.
struct FakeWorker {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl FakeWorker {
    /// Connects and registers, returning after the coordinator answers.
    fn register(addr: std::net::SocketAddr, code: u64, threads: u32) -> (FakeWorker, CoordMsg) {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut w = FakeWorker { stream, reader };
        w.send(&WorkerMsg::Register { code, threads });
        let answer = w.read_msg();
        (w, answer)
    }

    fn send(&mut self, msg: &WorkerMsg) {
        writeln!(self.stream, "{}", msg.encode()).expect("write to coordinator");
    }

    fn read_msg(&mut self) -> CoordMsg {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => panic!("coordinator closed the connection unexpectedly"),
            Ok(_) => CoordMsg::decode(line.trim_end())
                .unwrap_or_else(|| panic!("undecodable coordinator line: {line:?}")),
            Err(e) => panic!("read from coordinator: {e}"),
        }
    }

    /// Reads until a dispatch arrives, returning its id and key.
    fn await_dispatch(&mut self) -> (String, u64) {
        loop {
            if let CoordMsg::Dispatch { task, key, .. } = self.read_msg() {
                return (task, key);
            }
        }
    }
}

/// Spins until the pool sees `n` live workers (registration is async).
fn await_workers(pool: &FleetPool, n: usize) {
    for _ in 0..400 {
        if pool.live_workers() >= n {
            return;
        }
        thread::sleep(Duration::from_millis(10));
    }
    panic!("workers never registered");
}

#[test]
fn mismatched_code_hash_is_refused_with_both_hashes() {
    let pool = FleetPool::bind("127.0.0.1:0", test_opts()).expect("bind");
    let bogus = 0xdead_beef_0bad_cafe_u64;
    let (_w, answer) = FakeWorker::register(pool.local_addr(), bogus, 1);
    match answer {
        CoordMsg::Refused {
            reason,
            expect,
            got,
        } => {
            assert_eq!(reason, "code-version-mismatch");
            assert_eq!(expect, code_hash());
            assert_eq!(got, bogus);
        }
        other => panic!("expected refusal, got {other:?}"),
    }
    assert_eq!(pool.live_workers(), 0, "refused worker must not register");
}

#[test]
fn real_worker_runs_a_dispatch_and_the_payload_is_byte_identical_to_local() {
    let pool = FleetPool::bind("127.0.0.1:0", test_opts()).expect("bind");
    let addr = pool.local_addr().to_string();
    let stop = StopFlag::new();
    let worker_stop = stop.clone();
    let worker =
        thread::spawn(move || run_worker(&addr, 1, &worker_stop).expect("worker transport"));
    await_workers(&pool, 1);

    let (task, expected) = task_and_expected("t0");
    let mut events = Vec::new();
    let outcomes = pool.run_tasks(vec![task], 200, &StopFlag::new(), &mut |e| events.push(e));

    match &outcomes[..] {
        [RemoteOutcome::Done { payload }] => assert_eq!(
            payload, &expected,
            "remote payload must be byte-identical to the local control run"
        ),
        other => panic!("expected one Done outcome, got {other:?}"),
    }
    assert!(
        events
            .iter()
            .any(|e| matches!(e, RemoteEvent::Lease { task: 0, .. })),
        "a lease event must precede the result"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, RemoteEvent::Window { task: 0, .. })),
        "windowed progress must stream through the coordinator"
    );

    drop(pool); // says bye; the worker loop exits cleanly
    assert_eq!(worker.join().expect("worker thread"), WorkerExit::Done);
    stop.set();
}

#[test]
fn killed_worker_re_dispatches_to_a_survivor_with_a_typed_retry() {
    let pool = FleetPool::bind("127.0.0.1:0", test_opts()).expect("bind");
    let addr = pool.local_addr();

    // The doomed worker registers first (lower id wins the idle
    // tie-break, so it receives the dispatch), then dies holding it.
    let (mut doomed, answer) = FakeWorker::register(addr, code_hash(), 1);
    assert!(matches!(answer, CoordMsg::Welcome { worker: 0, .. }));
    let (died_tx, died_rx) = mpsc::channel();
    let killer = thread::spawn(move || {
        let (dispatch, _key) = doomed.await_dispatch();
        drop(doomed); // kill -9 equivalent: vanish mid-lease
        died_tx.send(dispatch).expect("report death");
    });

    let stop = StopFlag::new();
    let survivor_stop = stop.clone();
    let addr_str = addr.to_string();
    let survivor =
        thread::spawn(move || run_worker(&addr_str, 1, &survivor_stop).expect("worker transport"));
    await_workers(&pool, 2);

    let (task, expected) = task_and_expected("t0");
    let mut events = Vec::new();
    let outcomes = pool.run_tasks(vec![task], 200, &StopFlag::new(), &mut |e| events.push(e));

    let first_dispatch = died_rx.recv().expect("doomed worker saw the dispatch");
    assert_eq!(first_dispatch, "0:1", "attempt 1 goes to the doomed worker");
    killer.join().expect("killer thread");
    match &outcomes[..] {
        [RemoteOutcome::Done { payload }] => assert_eq!(
            payload, &expected,
            "the re-dispatched result must match the local control run"
        ),
        other => panic!("expected recovery to Done, got {other:?}"),
    }
    assert!(
        events.iter().any(|e| matches!(
            e,
            RemoteEvent::Retry { task: 0, reason, .. } if reason == "worker-death"
        )),
        "the re-enqueue must be visible as a typed worker-death retry: {events:?}"
    );
    let leases = events
        .iter()
        .filter(|e| matches!(e, RemoteEvent::Lease { .. }))
        .count();
    assert!(leases >= 2, "death must cost a second lease: {events:?}");

    drop(pool);
    assert_eq!(survivor.join().expect("survivor thread"), WorkerExit::Done);
    stop.set();
}

#[test]
fn byte_divergent_duplicate_results_are_a_determinism_violation() {
    let pool = FleetPool::bind("127.0.0.1:0", test_opts()).expect("bind");
    let (mut liar, answer) = FakeWorker::register(pool.local_addr(), code_hash(), 2);
    assert!(matches!(answer, CoordMsg::Welcome { .. }));

    // Two tasks: the liar double-completes the second with divergent
    // (but individually well-formed) payloads, then completes the first
    // so the batch is still live while the duplicate is processed.
    let spec = Json::parse(JOB).expect("job spec parses");
    let tasks: Vec<RemoteTask> = (0..2)
        .map(|i| RemoteTask {
            key: 0x1000 + i,
            spec: spec.clone(),
        })
        .collect();

    let liar_thread = thread::spawn(move || {
        let mut dispatches = Vec::new();
        while dispatches.len() < 2 {
            dispatches.push(liar.await_dispatch());
        }
        let done = |task: &str, key: u64, payload: &str| WorkerMsg::Done {
            task: task.to_string(),
            key,
            hash: Fingerprint::of(payload.as_bytes()),
            payload: payload.to_string(),
        };
        let (second, second_key) = dispatches
            .iter()
            .find(|(d, _)| d.starts_with("1:"))
            .expect("task 1 dispatched")
            .clone();
        let (first, first_key) = dispatches
            .iter()
            .find(|(d, _)| d.starts_with("0:"))
            .expect("task 0 dispatched")
            .clone();
        liar.send(&done(&second, second_key, r#"{"answer":1}"#));
        liar.send(&done(&second, second_key, r#"{"answer":2}"#));
        liar.send(&done(&first, first_key, r#"{"answer":3}"#));
        liar // keep the socket open until the batch settles
    });

    let mut events = Vec::new();
    let outcomes = pool.run_tasks(tasks, 200, &StopFlag::new(), &mut |e| events.push(e));

    assert!(
        matches!(&outcomes[0], RemoteOutcome::Done { payload } if payload == r#"{"answer":3}"#),
        "task 0 completes normally: {:?}",
        outcomes[0]
    );
    let a = Fingerprint::of(br#"{"answer":1}"#);
    let b = Fingerprint::of(br#"{"answer":2}"#);
    match &outcomes[1] {
        RemoteOutcome::Divergent { first, second } => {
            assert_eq!((*first, *second), (a, b), "both hashes must be reported");
        }
        other => panic!("byte-divergent duplicate must be Divergent, got {other:?}"),
    }
    drop(liar_thread.join().expect("liar thread"));
    drop(pool);
}

#[test]
fn a_message_that_straddles_a_read_tick_is_delivered_and_the_worker_kept() {
    let pool = FleetPool::bind("127.0.0.1:0", test_opts()).expect("bind");
    let (mut slow, answer) = FakeWorker::register(pool.local_addr(), code_hash(), 1);
    assert!(matches!(answer, CoordMsg::Welcome { .. }));
    await_workers(&pool, 1);

    let (task, expected) = task_and_expected("t0");
    let payload = expected.clone();
    let peer = thread::spawn(move || {
        let (dispatch, key) = slow.await_dispatch();
        // Each line in two halves, 300 ms apart: longer than the
        // coordinator's 250 ms read tick, so its read times out with
        // the first half already consumed.
        let mut send_split = |msg: WorkerMsg| {
            let line = format!("{}\n", msg.encode());
            let (head, tail) = line.as_bytes().split_at(line.len() / 2);
            slow.stream.write_all(head).expect("first half");
            thread::sleep(Duration::from_millis(300));
            slow.stream.write_all(tail).expect("second half");
        };
        send_split(WorkerMsg::Window {
            task: dispatch.clone(),
            cycle: 200,
            issued: 7,
            retired: 5,
        });
        send_split(WorkerMsg::Done {
            task: dispatch,
            key,
            hash: Fingerprint::of(payload.as_bytes()),
            payload,
        });
        slow // keep the socket open until the batch settles
    });

    let mut events = Vec::new();
    let outcomes = pool.run_tasks(vec![task], 200, &StopFlag::new(), &mut |e| events.push(e));
    match &outcomes[..] {
        [RemoteOutcome::Done { payload }] => assert_eq!(payload, &expected),
        other => panic!("the split `done` must be delivered whole, got {other:?}"),
    }
    assert!(
        events.iter().any(|e| matches!(
            e,
            RemoteEvent::Window {
                task: 0,
                cycle: 200,
                issued: 7,
                retired: 5
            }
        )),
        "the split `window` must be delivered whole: {events:?}"
    );
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, RemoteEvent::Retry { .. })),
        "a healthy worker must not be evicted as a broken peer: {events:?}"
    );
    assert_eq!(pool.live_workers(), 1, "the worker stays registered");
    drop(peer.join().expect("peer thread"));
    drop(pool);
}

#[test]
fn a_line_past_the_cap_drops_the_connection_and_reports_one_death() {
    // A heartbeat window far longer than the test: only the cap can
    // end this connection, not the peer's silence.
    let opts = FleetOptions {
        heartbeat_ms: 60_000,
        ..test_opts()
    };
    let pool = FleetPool::bind("127.0.0.1:0", opts).expect("bind");
    let (mut flooder, answer) = FakeWorker::register(pool.local_addr(), code_hash(), 1);
    assert!(matches!(answer, CoordMsg::Welcome { .. }));
    await_workers(&pool, 1);

    let peer = thread::spawn(move || {
        flooder.await_dispatch();
        // Never a newline. The coordinator closes on us once the cap is
        // passed, so the tail of the flood may fail to send.
        let chunk = vec![b'x'; 64 << 10];
        for _ in 0..(ringmesh_serve::MAX_LINE_BYTES / chunk.len() + 2) {
            if flooder.stream.write_all(&chunk).is_err() {
                break;
            }
        }
        flooder
    });

    let (task, _) = task_and_expected("t0");
    let mut events = Vec::new();
    let outcomes = pool.run_tasks(vec![task], 200, &StopFlag::new(), &mut |e| events.push(e));
    assert!(
        matches!(&outcomes[..], [RemoteOutcome::Unrun]),
        "no worker is left to run the task: {outcomes:?}"
    );
    let deaths = events
        .iter()
        .filter(|e| matches!(e, RemoteEvent::Retry { reason, .. } if reason == "worker-death"))
        .count();
    assert_eq!(deaths, 1, "the death is published exactly once: {events:?}");
    assert_eq!(pool.live_workers(), 0, "the flooding peer is dropped");
    drop(peer.join().expect("peer thread"));
    drop(pool);
}

#[test]
fn an_expired_lease_on_a_live_worker_is_speculated_onto_another() {
    // A short lease and a heartbeat window (3 × 2 s) far longer than
    // it: the silent holder is a straggler, not a death.
    let opts = FleetOptions {
        lease_ms: 200,
        heartbeat_ms: 2_000,
    };
    let pool = FleetPool::bind("127.0.0.1:0", opts).expect("bind");
    let addr = pool.local_addr();

    // The straggler registers first (lower id wins the idle tie-break,
    // so it receives the dispatch) and then never answers it.
    let (mut straggler, answer) = FakeWorker::register(addr, code_hash(), 1);
    assert!(matches!(answer, CoordMsg::Welcome { worker: 0, .. }));
    let held = thread::spawn(move || {
        let (dispatch, _key) = straggler.await_dispatch();
        loop {
            if let CoordMsg::Cancel { task } = straggler.read_msg() {
                return (dispatch, task);
            }
        }
    });

    let stop = StopFlag::new();
    let worker_stop = stop.clone();
    let addr_str = addr.to_string();
    let worker =
        thread::spawn(move || run_worker(&addr_str, 1, &worker_stop).expect("worker transport"));
    await_workers(&pool, 2);

    let (task, expected) = task_and_expected("t0");
    let mut events = Vec::new();
    let outcomes = pool.run_tasks(vec![task], 200, &StopFlag::new(), &mut |e| events.push(e));

    match &outcomes[..] {
        [RemoteOutcome::Done { payload }] => assert_eq!(
            payload, &expected,
            "the speculated result must match the local control run"
        ),
        other => panic!("expected the duplicate to finish, got {other:?}"),
    }
    assert!(
        events
            .iter()
            .any(|e| matches!(e, RemoteEvent::Speculate { task: 0, worker: 1 })),
        "lease expiry must speculate onto the other worker: {events:?}"
    );
    let (dispatch, canceled) = held.join().expect("straggler thread");
    assert_eq!(
        canceled, dispatch,
        "the straggler's dispatch is canceled once the duplicate wins"
    );

    drop(pool);
    assert_eq!(worker.join().expect("worker thread"), WorkerExit::Done);
    stop.set();
}

#[test]
fn the_window_passed_to_run_tasks_reaches_the_worker() {
    let pool = FleetPool::bind("127.0.0.1:0", test_opts()).expect("bind");
    let addr = pool.local_addr().to_string();
    let stop = StopFlag::new();
    let worker_stop = stop.clone();
    let worker =
        thread::spawn(move || run_worker(&addr, 1, &worker_stop).expect("worker transport"));
    await_workers(&pool, 1);

    // `JOB` runs 1 200 cycles: four 300-cycle windows. Any other
    // window length (the trace's 1 000, the old fleet default 4 000)
    // ends a window off the 300-cycle grid or leaves only one.
    let (task, _) = task_and_expected("t0");
    let mut cycles = Vec::new();
    let outcomes = pool.run_tasks(vec![task], 300, &StopFlag::new(), &mut |e| {
        if let RemoteEvent::Window { cycle, .. } = e {
            cycles.push(cycle);
        }
    });
    assert!(
        matches!(&outcomes[..], [RemoteOutcome::Done { .. }]),
        "{outcomes:?}"
    );
    assert!(cycles.len() >= 2, "windows: {cycles:?}");
    assert!(
        cycles[..cycles.len() - 1].iter().all(|c| c % 300 == 0),
        "every window but the last ends on the 300-cycle grid: {cycles:?}"
    );

    drop(pool);
    assert_eq!(worker.join().expect("worker thread"), WorkerExit::Done);
    stop.set();
}

#[test]
fn a_worker_that_cannot_read_its_coordinator_ends_the_session_at_once() {
    // A scripted coordinator: it welcomes the worker with a heartbeat
    // cadence far longer than the test, then sends a dispatch this build
    // cannot decode (one from a build with another wire format).
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("address").to_string();
    let (exit_tx, exit_rx) = mpsc::channel();
    let worker = thread::spawn(move || {
        let exit = run_worker(&addr, 1, &StopFlag::new()).map_err(|e| e.kind());
        exit_tx.send(exit).expect("report the exit");
    });
    let (mut coordinator, _) = listener.accept().expect("accept");
    let mut line = String::new();
    BufReader::new(coordinator.try_clone().expect("clone"))
        .read_line(&mut line)
        .expect("register line");
    assert!(matches!(
        WorkerMsg::decode(line.trim_end()),
        Some(WorkerMsg::Register { .. })
    ));
    let welcome = CoordMsg::Welcome {
        worker: 0,
        heartbeat_ms: 60_000,
    };
    writeln!(coordinator, "{}", welcome.encode()).expect("welcome");
    writeln!(coordinator, r#"{{"ev":"dispatch","task":"0:1"}}"#).expect("dispatch");

    // Heartbeating on while it runs nothing would hold the job's lease
    // until it expired, and forever with no other worker to speculate on.
    let exit = exit_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("the worker ends its session instead of heartbeating on");
    assert_eq!(exit, Err(io::ErrorKind::InvalidData));
    worker.join().expect("worker thread");
}

#[test]
fn a_worker_offering_the_hash_of_the_code_version_alone_is_refused() {
    // The hash a build without the protocol version in its handshake
    // offers: same crate version, unknown wire format.
    let pool = FleetPool::bind("127.0.0.1:0", test_opts()).expect("bind");
    let unversioned = Fingerprint::of(CODE_VERSION.as_bytes());
    let (_w, answer) = FakeWorker::register(pool.local_addr(), unversioned, 1);
    match answer {
        CoordMsg::Refused { reason, got, .. } => {
            assert_eq!(reason, "code-version-mismatch");
            assert_eq!(got, unversioned);
        }
        other => panic!("expected refusal, got {other:?}"),
    }
    assert_eq!(pool.live_workers(), 0);
}

/// Answers every dispatch with `answer` until the coordinator says
/// goodbye or hangs up.
fn serve_fake(mut w: FakeWorker, answer: impl Fn(String, u64) -> WorkerMsg) {
    let mut line = String::new();
    while matches!(w.reader.read_line(&mut line), Ok(n) if n > 0) {
        match CoordMsg::decode(line.trim_end()) {
            Some(CoordMsg::Dispatch { task, key, .. }) => w.send(&answer(task, key)),
            Some(CoordMsg::Bye) | None => return,
            Some(_) => {}
        }
        line.clear();
    }
}

#[test]
fn a_failed_attempt_is_retried_on_a_worker_that_has_not_run_the_task() {
    let pool = FleetPool::bind("127.0.0.1:0", test_opts()).expect("bind");
    let addr = pool.local_addr();
    // Worker 0 fails whatever it is given; worker 1 completes it. Both
    // are idle when the retry is dispatched, and ties go to the lower id.
    let (broken, answer) = FakeWorker::register(addr, code_hash(), 1);
    assert!(matches!(answer, CoordMsg::Welcome { worker: 0, .. }));
    let (healthy, answer) = FakeWorker::register(addr, code_hash(), 1);
    assert!(matches!(answer, CoordMsg::Welcome { worker: 1, .. }));
    await_workers(&pool, 2);
    let payload = r#"{"answer":1}"#;
    let peers = [
        thread::spawn(move || {
            serve_fake(broken, |task, _| WorkerMsg::Fail {
                task,
                reason: "this machine is broken".into(),
            })
        }),
        thread::spawn(move || {
            serve_fake(healthy, |task, key| WorkerMsg::Done {
                task,
                key,
                hash: Fingerprint::of(payload.as_bytes()),
                payload: payload.into(),
            })
        }),
    ];

    let task = RemoteTask {
        key: 0x2000,
        spec: Json::parse(JOB).expect("job spec parses"),
    };
    let mut events = Vec::new();
    let outcomes = pool.run_tasks(vec![task], 200, &StopFlag::new(), &mut |e| events.push(e));
    let leases: Vec<(u64, u32)> = events
        .iter()
        .filter_map(|e| match e {
            RemoteEvent::Lease {
                worker, attempt, ..
            } => Some((*worker, *attempt)),
            _ => None,
        })
        .collect();
    assert_eq!(leases, [(0, 1), (1, 2)], "{events:?}");
    assert!(
        matches!(&outcomes[..], [RemoteOutcome::Done { payload: p }] if p == payload),
        "{outcomes:?}"
    );
    drop(pool);
    for peer in peers {
        peer.join().expect("fake worker");
    }
}

#[test]
fn a_lease_on_a_worker_that_heartbeats_and_never_answers_is_handed_back() {
    let opts = FleetOptions {
        lease_ms: 50,
        heartbeat_ms: 200,
    };
    let pool = FleetPool::bind("127.0.0.1:0", opts).expect("bind");
    let (mut mute, answer) = FakeWorker::register(pool.local_addr(), code_hash(), 1);
    assert!(matches!(answer, CoordMsg::Welcome { .. }));
    await_workers(&pool, 1);
    let mut beat = mute.stream.try_clone().expect("clone");
    let heart = thread::spawn(move || {
        let line = format!("{}\n", WorkerMsg::Heartbeat.encode());
        while beat.write_all(line.as_bytes()).is_ok() {
            thread::sleep(Duration::from_millis(50));
        }
    });
    // Reads dispatches and cancels, and answers none of them.
    let reader = thread::spawn(move || {
        while mute
            .reader
            .read_line(&mut String::new())
            .is_ok_and(|n| n > 0)
        {}
    });

    // The coordinator runs on its own thread so a batch that never ends
    // fails the test instead of hanging it.
    let (done_tx, done_rx) = mpsc::channel();
    thread::spawn(move || {
        let (task, _) = task_and_expected("t0");
        let mut events = Vec::new();
        let outcomes = pool.run_tasks(vec![task], 200, &StopFlag::new(), &mut |e| events.push(e));
        let _ = done_tx.send((outcomes, events));
        // Dropping the pool says bye and closes the mute worker's socket.
    });
    let (outcomes, events) = done_rx
        .recv_timeout(Duration::from_secs(3))
        .expect("the batch ends though its only worker never answers");
    assert!(
        matches!(&outcomes[..], [RemoteOutcome::Unrun]),
        "{outcomes:?}"
    );
    assert!(
        events.iter().any(|e| matches!(
            e,
            RemoteEvent::Retry { task: 0, reason, .. } if reason == "lease-expired"
        )),
        "the silent lease is handed back as a typed retry: {events:?}"
    );
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, RemoteEvent::Retry { reason, .. } if reason == "worker-death")),
        "the worker heartbeats, so it is not dead: {events:?}"
    );
    reader.join().expect("reader thread");
    heart.join().expect("heartbeat thread");
}
