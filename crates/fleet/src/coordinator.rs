//! The fleet coordinator: a TCP registry of remote workers and a
//! lease-based dispatcher implementing [`RemoteRunner`] for the serve
//! layer.
//!
//! # Dispatch discipline
//!
//! Every attempt to run a task is a **lease**: a time-bounded claim on
//! one worker, renewed implicitly by progress. The dispatcher reacts to
//! exactly three kinds of trouble, all through the same re-enqueue
//! path:
//!
//! - **Worker death** — socket EOF or a missed-heartbeat window. All
//!   leases on the dead worker re-enqueue with capped exponential
//!   backoff ([`Backoff`]).
//! - **Lease expiry with a live worker** — the long-tail straggler
//!   case. The task is speculatively duplicated onto another worker
//!   (once); the original keeps running and the first completed result
//!   wins.
//! - **Reported failure** — the worker ran the job and it failed
//!   intrinsically. One retry on (ideally) another worker; a second
//!   failure is accepted as the task's deterministic outcome.
//!
//! Duplicate completions are deduplicated by FNV content hash. Equal
//! hashes are the expected case (the simulator is deterministic);
//! byte-different payloads for one content key are a **hard determinism
//! violation** surfaced as [`RemoteOutcome::Divergent`] — that means a
//! broken worker or a mixed build, and silently picking one answer
//! would poison the content-addressed cache forever.
//!
//! The coordinator never trusts a worker's claims: every `done` is
//! re-hashed on receipt, and the worker's independently computed
//! content key must match the dispatched one.

use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use ringmesh::StopFlag;
use ringmesh_engine::{Backoff, Lease};
use ringmesh_serve::wire::{self, LineReader, LineWriter, MAX_LINE_BYTES};
use ringmesh_serve::{RemoteEvent, RemoteOutcome, RemoteRunner, RemoteTask};
use ringmesh_snap::{hex64, Fingerprint};

use crate::protocol::{code_hash, CoordMsg, WorkerMsg};

/// How often the dispatch loop wakes when no worker messages arrive.
const DISPATCH_TICK: Duration = Duration::from_millis(25);

/// How often a blocked worker-socket read wakes to poll the stop flag.
const READ_TICK: Duration = Duration::from_millis(250);

/// A worker misses its heartbeat window after this many cadences.
const HEARTBEAT_GRACE: u32 = 3;

/// Coordinator tuning knobs.
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Lease duration granted per dispatch, in milliseconds. A task
    /// still running at expiry (with a live worker) is speculated, not
    /// killed.
    pub lease_ms: u64,
    /// Heartbeat cadence prescribed to workers, in milliseconds; a
    /// worker silent for [`HEARTBEAT_GRACE`] cadences is declared dead.
    pub heartbeat_ms: u64,
    /// Most dispatch attempts per task before the coordinator hands the
    /// task back unrun (the server then falls back to local execution).
    pub max_attempts: u32,
    /// Base re-dispatch backoff, in milliseconds (doubles per attempt).
    pub backoff_base_ms: u64,
    /// Backoff ceiling, in milliseconds.
    pub backoff_cap_ms: u64,
    /// Progress-window length (cycles) workers report at.
    pub window_cycles: u64,
}

impl Default for FleetOptions {
    fn default() -> Self {
        FleetOptions {
            lease_ms: 30_000,
            heartbeat_ms: 2_000,
            max_attempts: 4,
            backoff_base_ms: 250,
            backoff_cap_ms: 5_000,
            window_cycles: 4_000,
        }
    }
}

/// One registered, live worker as the coordinator sees it.
#[derive(Debug)]
struct WorkerHandle {
    /// Write half (reads happen on the per-connection reader thread).
    out: LineWriter<TcpStream>,
    /// Last message of any kind (heartbeats included).
    last_seen: Instant,
    /// Concurrent dispatches the worker advertised.
    threads: u32,
    /// Dispatches currently leased to this worker.
    in_flight: u32,
}

/// A worker-origin event forwarded from a reader thread to the
/// dispatch loop.
#[derive(Debug)]
enum Msg {
    /// A protocol message from a registered worker.
    From(u64, WorkerMsg),
    /// The worker's connection ended (EOF, error, or eviction).
    Died(u64),
    /// A new worker registered (wakes the dispatcher to use it).
    Joined,
}

/// Shared coordinator state: the worker registry plus the bus to
/// whichever batch is currently dispatching.
#[derive(Debug)]
struct Inner {
    opts: FleetOptions,
    workers: Mutex<HashMap<u64, WorkerHandle>>,
    next_worker: AtomicU64,
    /// Live only while a batch runs; reader threads forward into it.
    bus: Mutex<Option<Sender<Msg>>>,
    /// Coordinator-wide shutdown (set on drop).
    stop: StopFlag,
}

impl Inner {
    fn workers_lock(&self) -> MutexGuard<'_, HashMap<u64, WorkerHandle>> {
        self.workers.lock().expect("worker registry poisoned")
    }

    /// Forwards a message to the running batch, if any.
    fn publish(&self, msg: Msg) {
        if let Some(tx) = &*self.bus.lock().expect("bus poisoned") {
            let _ = tx.send(msg);
        }
    }

    /// Sends one message to a worker; on failure the worker is evicted
    /// (its reader thread will also notice the dead socket).
    fn send_to(&self, worker: u64, msg: &CoordMsg) -> bool {
        let mut workers = self.workers_lock();
        let Some(handle) = workers.get_mut(&worker) else {
            return false;
        };
        let ok = handle.out.line(msg.encode()).is_ok();
        if !ok {
            let _ = handle.out.get_ref().shutdown(Shutdown::Both);
            workers.remove(&worker);
            drop(workers);
            self.publish(Msg::Died(worker));
        }
        ok
    }

    /// Evicts workers that have missed their heartbeat window,
    /// reporting each as dead to the running batch.
    fn evict_silent_workers(&self) {
        let deadline = Duration::from_millis(self.opts.heartbeat_ms) * HEARTBEAT_GRACE;
        let dead: Vec<u64> = {
            let mut workers = self.workers_lock();
            let ids: Vec<u64> = workers
                .iter()
                .filter(|(_, h)| h.last_seen.elapsed() > deadline)
                .map(|(&id, _)| id)
                .collect();
            for id in &ids {
                if let Some(h) = workers.remove(id) {
                    let _ = h.out.get_ref().shutdown(Shutdown::Both);
                }
            }
            ids
        };
        for id in dead {
            eprintln!("ringmesh fleet: worker {id} missed heartbeats; evicted");
            self.publish(Msg::Died(id));
        }
    }
}

/// A TCP worker fleet implementing [`RemoteRunner`].
///
/// Binding spawns an accept thread; each accepted connection gets a
/// reader thread that performs the registration handshake (refusing
/// code-version mismatches with a typed [`CoordMsg::Refused`]) and then
/// forwards worker messages to the active batch. Dropping the pool
/// stops the accept loop, says [`CoordMsg::Bye`] to every worker, and
/// closes the sockets.
#[derive(Debug)]
pub struct FleetPool {
    inner: Arc<Inner>,
    addr: std::net::SocketAddr,
    /// One fleet batch at a time; a second concurrent batch is handed
    /// back unrun and the server falls back to its local pool.
    batch: Mutex<()>,
}

impl FleetPool {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts accepting workers.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(addr: &str, opts: FleetOptions) -> io::Result<FleetPool> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        eprintln!("ringmesh fleet: listening on {addr}");
        listener.set_nonblocking(true)?;
        let inner = Arc::new(Inner {
            opts,
            workers: Mutex::new(HashMap::new()),
            next_worker: AtomicU64::new(0),
            bus: Mutex::new(None),
            stop: StopFlag::new(),
        });
        let accept_inner = Arc::clone(&inner);
        std::thread::spawn(move || accept_loop(&listener, &accept_inner));
        Ok(FleetPool {
            inner,
            addr,
            batch: Mutex::new(()),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }
}

impl Drop for FleetPool {
    fn drop(&mut self) {
        self.inner.stop.set();
        let mut workers = self.inner.workers_lock();
        for (_, mut h) in workers.drain() {
            let _ = h.out.line(CoordMsg::Bye.encode());
            let _ = h.out.get_ref().shutdown(Shutdown::Both);
        }
    }
}

/// Accepts connections until the pool is dropped, spawning one reader
/// thread per connection.
fn accept_loop(listener: &TcpListener, inner: &Arc<Inner>) {
    loop {
        if inner.stop.is_set() {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let inner = Arc::clone(inner);
                std::thread::spawn(move || {
                    if let Err(e) = serve_worker(stream, &inner) {
                        eprintln!("ringmesh fleet: worker connection: {e}");
                    }
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(DISPATCH_TICK);
            }
            Err(e) => {
                eprintln!("ringmesh fleet: accept: {e}");
                return;
            }
        }
    }
}

/// Handshakes and then pumps one worker connection: registration,
/// liveness bookkeeping, message forwarding, death reporting.
fn serve_worker(stream: TcpStream, inner: &Arc<Inner>) -> io::Result<()> {
    wire::prepare(&stream, READ_TICK, Some(Duration::from_secs(5)))?;
    let mut reader = LineReader::new(BufReader::new(stream.try_clone()?), MAX_LINE_BYTES);
    let mut out = LineWriter::new(stream);

    // Handshake: the first line must be a `register` with our exact
    // code hash; anything else draws a typed refusal and a close.
    let Some(line) = reader.next_message(|| !inner.stop.is_set())? else {
        return Ok(()); // gave up before registering
    };
    let Some(WorkerMsg::Register { code, threads }) = WorkerMsg::decode(&line) else {
        let _ = out.line(
            CoordMsg::Refused {
                reason: "expected register".into(),
                expect: code_hash(),
                got: 0,
            }
            .encode(),
        );
        return Ok(());
    };
    if code != code_hash() {
        out.line(
            CoordMsg::Refused {
                reason: "code-version-mismatch".into(),
                expect: code_hash(),
                got: code,
            }
            .encode(),
        )?;
        eprintln!(
            "ringmesh fleet: refused worker with code hash {} (want {})",
            hex64(code),
            hex64(code_hash())
        );
        return Ok(());
    }

    let id = inner.next_worker.fetch_add(1, Ordering::SeqCst);
    out.line(
        CoordMsg::Welcome {
            worker: id,
            heartbeat_ms: inner.opts.heartbeat_ms,
        }
        .encode(),
    )?;
    inner.workers_lock().insert(
        id,
        WorkerHandle {
            out,
            last_seen: Instant::now(),
            threads: threads.max(1),
            in_flight: 0,
        },
    );
    eprintln!("ringmesh fleet: worker {id} registered ({threads} threads)");
    inner.publish(Msg::Joined);

    // Pump messages until EOF, a broken peer (transport error, an
    // oversized or undecodable line), stop, or eviction.
    let registered = || !inner.stop.is_set() && inner.workers_lock().contains_key(&id);
    while let Ok(Some(line)) = reader.next_message(registered) {
        match inner.workers_lock().get_mut(&id) {
            Some(h) => h.last_seen = Instant::now(),
            None => return Ok(()), // evicted; Died already published
        }
        match WorkerMsg::decode(&line) {
            Some(WorkerMsg::Heartbeat) => {}
            Some(msg) => inner.publish(Msg::From(id, msg)),
            None => break,
        }
    }
    // Whoever takes the worker out of the registry reports its death,
    // so an eviction that got here first is not reported twice.
    if inner.workers_lock().remove(&id).is_some() {
        eprintln!("ringmesh fleet: worker {id} disconnected");
        inner.publish(Msg::Died(id));
    }
    Ok(())
}

/// One outstanding lease: which worker, which dispatch id, until when.
#[derive(Debug)]
struct LeaseRec {
    worker: u64,
    dispatch: String,
    lease: Lease,
}

/// Dispatch-side state of one task.
#[derive(Debug)]
struct TaskState {
    outcome: Option<RemoteOutcome>,
    /// Content hash of the first accepted payload (for dedupe).
    first_hash: Option<u64>,
    /// Dispatch attempts started (1-based on the wire).
    attempts: u32,
    /// Intrinsic failures reported by workers.
    fails: u32,
    /// Waiting to be (re-)dispatched.
    queued: bool,
    /// Earliest next dispatch (backoff gate).
    next_try: Instant,
    /// Outstanding leases (two during speculation).
    leases: Vec<LeaseRec>,
    /// A straggler is only speculated once.
    speculated: bool,
}

impl TaskState {
    fn terminal(&self) -> bool {
        self.outcome.is_some()
    }
}

impl RemoteRunner for FleetPool {
    fn live_workers(&self) -> usize {
        self.inner.evict_silent_workers();
        self.inner.workers_lock().len()
    }

    fn run_tasks(
        &self,
        tasks: Vec<RemoteTask>,
        stop: &StopFlag,
        events: &mut dyn FnMut(RemoteEvent),
    ) -> Vec<RemoteOutcome> {
        // One fleet batch at a time; a concurrent second batch is
        // handed back unrun (the server falls back to its local pool).
        let Ok(_guard) = self.batch.try_lock() else {
            return tasks.iter().map(|_| RemoteOutcome::Unrun).collect();
        };
        let (tx, rx) = mpsc::channel();
        *self.inner.bus.lock().expect("bus poisoned") = Some(tx);
        let outcomes = Dispatcher {
            inner: &self.inner,
            tasks: &tasks,
            events,
            states: tasks
                .iter()
                .map(|_| TaskState {
                    outcome: None,
                    first_hash: None,
                    attempts: 0,
                    fails: 0,
                    queued: true,
                    next_try: Instant::now(),
                    leases: Vec::new(),
                    speculated: false,
                })
                .collect(),
            dispatch_to_task: HashMap::new(),
            backoff: Backoff::new(
                Duration::from_millis(self.inner.opts.backoff_base_ms),
                Duration::from_millis(self.inner.opts.backoff_cap_ms),
            ),
        }
        .run(&rx, stop);
        *self.inner.bus.lock().expect("bus poisoned") = None;
        outcomes
    }
}

/// The per-batch dispatch loop, factored out of `run_tasks` for
/// readable helpers over the shared task-state table.
struct Dispatcher<'a> {
    inner: &'a Arc<Inner>,
    tasks: &'a [RemoteTask],
    events: &'a mut dyn FnMut(RemoteEvent),
    states: Vec<TaskState>,
    /// Dispatch id → task index, kept for the whole batch so results
    /// from superseded attempts still reach the dedupe check.
    dispatch_to_task: HashMap<String, usize>,
    backoff: Backoff,
}

impl Dispatcher<'_> {
    fn run(mut self, rx: &Receiver<Msg>, stop: &StopFlag) -> Vec<RemoteOutcome> {
        loop {
            if self.states.iter().all(TaskState::terminal) {
                break;
            }
            if stop.is_set() || self.inner.stop.is_set() {
                break;
            }
            // Drain worker messages (blocking briefly on the first).
            match rx.recv_timeout(DISPATCH_TICK) {
                Ok(msg) => {
                    self.handle(msg);
                    while let Ok(more) = rx.try_recv() {
                        self.handle(more);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
            self.inner.evict_silent_workers();
            self.sweep_leases();
            self.dispatch_queued();
            // A fleet with no workers and nothing in flight cannot make
            // progress: hand every unfinished task back to the server.
            if self.inner.workers_lock().is_empty()
                && self.states.iter().all(|s| s.leases.is_empty())
            {
                break;
            }
        }
        // Final drain: a duplicate completion racing the batch's last
        // result must still reach the divergence check.
        while let Ok(msg) = rx.try_recv() {
            self.handle(msg);
        }
        // Cancel whatever is still leased and hand back the outcomes
        // (unfinished tasks as Unrun — the server decides what's next).
        for state in &self.states {
            for lease in &state.leases {
                self.inner.send_to(
                    lease.worker,
                    &CoordMsg::Cancel {
                        task: lease.dispatch.clone(),
                    },
                );
            }
        }
        self.states
            .into_iter()
            .map(|s| s.outcome.unwrap_or(RemoteOutcome::Unrun))
            .collect()
    }

    fn handle(&mut self, msg: Msg) {
        match msg {
            Msg::Joined => {}
            Msg::Died(worker) => {
                for ti in 0..self.states.len() {
                    let lost = {
                        let state = &mut self.states[ti];
                        let (dead, alive): (Vec<LeaseRec>, Vec<LeaseRec>) =
                            std::mem::take(&mut state.leases)
                                .into_iter()
                                .partition(|l| l.worker == worker);
                        state.leases = alive;
                        !dead.is_empty()
                    };
                    if lost && !self.states[ti].terminal() {
                        self.requeue(ti, "worker-death");
                    }
                }
            }
            Msg::From(
                worker,
                WorkerMsg::Window {
                    task,
                    cycle,
                    issued,
                    retired,
                },
            ) => {
                let _ = worker;
                if let Some(&ti) = self.dispatch_to_task.get(&task) {
                    if !self.states[ti].terminal() {
                        (self.events)(RemoteEvent::Window {
                            task: ti,
                            cycle,
                            issued,
                            retired,
                        });
                    }
                }
            }
            Msg::From(
                worker,
                WorkerMsg::Done {
                    task,
                    key,
                    hash,
                    payload,
                },
            ) => self.handle_done(worker, &task, key, hash, payload),
            Msg::From(worker, WorkerMsg::Fail { task, reason }) => {
                let Some(&ti) = self.dispatch_to_task.get(&task) else {
                    return;
                };
                self.release_lease(ti, &task, worker);
                if self.states[ti].terminal() {
                    return;
                }
                self.states[ti].fails += 1;
                if self.states[ti].fails >= 2 {
                    // Two independent attempts agree the task itself is
                    // broken; accept that as its deterministic outcome.
                    self.states[ti].outcome = Some(RemoteOutcome::Failed(reason));
                    self.cancel_other_leases(ti);
                } else {
                    self.requeue(ti, "attempt-failed");
                }
            }
            Msg::From(_, WorkerMsg::Register { .. } | WorkerMsg::Heartbeat) => {}
        }
    }

    /// First result wins; a byte-divergent duplicate is a hard
    /// determinism violation. Claims are verified, never trusted: the
    /// payload is re-hashed and the worker's independently computed
    /// content key must match the dispatched one.
    fn handle_done(&mut self, worker: u64, task: &str, key: u64, hash: u64, payload: String) {
        let Some(&ti) = self.dispatch_to_task.get(task) else {
            return;
        };
        self.release_lease(ti, task, worker);
        let computed = Fingerprint::of(payload.as_bytes());
        if computed != hash || key != self.tasks[ti].key {
            // A corrupted line or a confused worker; the attempt is
            // worthless but the task is not — retry it.
            if !self.states[ti].terminal() {
                self.requeue(ti, "attempt-failed");
            }
            return;
        }
        match self.states[ti].first_hash {
            None => {
                self.states[ti].first_hash = Some(hash);
                self.states[ti].outcome = Some(RemoteOutcome::Done { payload });
                self.cancel_other_leases(ti);
            }
            Some(first) if first == hash => {} // duplicate agrees: dedupe
            Some(first) => {
                eprintln!(
                    "ringmesh fleet: determinism violation on key {}: {} vs {}",
                    hex64(self.tasks[ti].key),
                    hex64(first),
                    hex64(hash)
                );
                self.states[ti].outcome = Some(RemoteOutcome::Divergent {
                    first,
                    second: hash,
                });
            }
        }
    }

    /// Removes one lease record (if present) and returns the worker's
    /// in-flight slot.
    fn release_lease(&mut self, ti: usize, dispatch: &str, worker: u64) {
        let state = &mut self.states[ti];
        let before = state.leases.len();
        state.leases.retain(|l| l.dispatch != dispatch);
        if state.leases.len() < before {
            if let Some(h) = self.inner.workers_lock().get_mut(&worker) {
                h.in_flight = h.in_flight.saturating_sub(1);
            }
        }
    }

    /// Cancels every remaining lease of a task that just went terminal.
    fn cancel_other_leases(&mut self, ti: usize) {
        let leases = std::mem::take(&mut self.states[ti].leases);
        for l in leases {
            if let Some(h) = self.inner.workers_lock().get_mut(&l.worker) {
                h.in_flight = h.in_flight.saturating_sub(1);
            }
            self.inner
                .send_to(l.worker, &CoordMsg::Cancel { task: l.dispatch });
        }
    }

    /// Re-enqueues a non-terminal task with capped exponential backoff,
    /// or hands it back unrun once the attempt budget is spent.
    fn requeue(&mut self, ti: usize, reason: &str) {
        let max = self.inner.opts.max_attempts;
        let state = &mut self.states[ti];
        if state.queued || state.terminal() {
            return;
        }
        if state.attempts >= max {
            // Budget spent; leave it unfinished for the server's local
            // fallback rather than thrashing the fleet forever.
            state.outcome = Some(RemoteOutcome::Unrun);
            return;
        }
        let delay = self.backoff.delay_for(state.attempts.saturating_sub(1));
        state.queued = true;
        state.next_try = Instant::now() + delay;
        let attempt = state.attempts;
        (self.events)(RemoteEvent::Retry {
            task: ti,
            attempt,
            reason: reason.to_string(),
            backoff_ms: delay.as_millis() as u64,
        });
    }

    /// Expired leases on live workers mean stragglers: speculate each
    /// such task once onto a different worker, then renew so the sweep
    /// does not re-trigger every tick.
    fn sweep_leases(&mut self) {
        for ti in 0..self.states.len() {
            if self.states[ti].terminal() {
                continue;
            }
            let expired: Vec<(u64, String)> = self.states[ti]
                .leases
                .iter()
                .filter(|l| l.lease.expired())
                .map(|l| (l.worker, l.dispatch.clone()))
                .collect();
            if expired.is_empty() {
                continue;
            }
            let exclude: Vec<u64> = self.states[ti].leases.iter().map(|l| l.worker).collect();
            if !self.states[ti].speculated {
                if let Some(worker) = self.pick_worker(&exclude) {
                    self.states[ti].speculated = true;
                    (self.events)(RemoteEvent::Speculate { task: ti, worker });
                    self.dispatch_to(ti, worker);
                }
            }
            for lease in &mut self.states[ti].leases {
                if expired.iter().any(|(_, d)| *d == lease.dispatch) {
                    lease.lease.renew();
                }
            }
        }
    }

    /// Starts every queued task whose backoff has elapsed, while any
    /// worker has a free slot.
    fn dispatch_queued(&mut self) {
        let now = Instant::now();
        for ti in 0..self.states.len() {
            if !self.states[ti].queued || self.states[ti].next_try > now {
                continue;
            }
            // Prefer a worker that has not yet failed this task — on a
            // retry that means a different machine when one exists.
            let tried: Vec<u64> = self.states[ti].leases.iter().map(|l| l.worker).collect();
            let Some(worker) = self.pick_worker(&tried).or_else(|| self.pick_worker(&[])) else {
                continue; // no capacity yet; stay queued
            };
            self.states[ti].queued = false;
            self.dispatch_to(ti, worker);
        }
    }

    /// Leases task `ti` to `worker`: sends the dispatch, records the
    /// lease, emits the event. A send failure feeds back through the
    /// death path (the task re-queues).
    fn dispatch_to(&mut self, ti: usize, worker: u64) {
        let state = &mut self.states[ti];
        state.attempts += 1;
        let attempt = state.attempts;
        let dispatch = format!("{ti}:{attempt}");
        let lease_ms = self.inner.opts.lease_ms;
        let msg = CoordMsg::Dispatch {
            task: dispatch.clone(),
            key: self.tasks[ti].key,
            lease_ms,
            window: self.inner.opts.window_cycles,
            spec: self.tasks[ti].spec.clone(),
        };
        self.dispatch_to_task.insert(dispatch.clone(), ti);
        if let Some(h) = self.inner.workers_lock().get_mut(&worker) {
            h.in_flight += 1;
        }
        self.states[ti].leases.push(LeaseRec {
            worker,
            dispatch,
            lease: Lease::new(Duration::from_millis(lease_ms)),
        });
        if self.inner.send_to(worker, &msg) {
            (self.events)(RemoteEvent::Lease {
                task: ti,
                worker,
                attempt,
                lease_ms,
            });
        }
        // On send failure, send_to already evicted the worker and
        // published Died; the next handle() pass re-queues the task.
    }

    /// The live worker with the most free capacity (ties to the lowest
    /// id, for determinism), excluding `exclude`; `None` when every
    /// worker is saturated or excluded.
    fn pick_worker(&self, exclude: &[u64]) -> Option<u64> {
        self.inner
            .workers_lock()
            .iter()
            .filter(|(id, h)| !exclude.contains(id) && h.in_flight < h.threads)
            .map(|(&id, h)| (h.in_flight, id))
            .min()
            .map(|(_, id)| id)
    }
}
