//! The fleet coordinator: a TCP registry of remote workers and a
//! lease-based dispatcher the server runs a batch's misses through.
//!
//! Every decision is made by one plain state machine, `Schedule`, on a
//! virtual clock: `on(now_ms, input)` returns the actions an input calls
//! for. It does no I/O and reads no clock, so a test can drive any
//! schedule without waiting for it. The shell around it (one reader
//! thread per worker, and the caller of [`FleetPool::run_tasks`], which
//! ticks it every 25 ms) turns lines into inputs and actions into lines.
//!
//! # Dispatch discipline
//!
//! Every attempt to run a task is a **lease**: a time-bounded claim on
//! one worker. The schedule reacts to exactly three kinds of trouble:
//!
//! - **Worker death** — socket EOF or a missed-heartbeat window. The
//!   worker's leases are released.
//! - **Lease expiry** — a lease that saw a `window` since it was granted
//!   or last renewed renews. A silent one is a straggler: its task is
//!   duplicated once onto another worker with room, the original keeps
//!   running and the first completed result wins. Any other silent lease
//!   is cancelled.
//! - **Reported failure** — the worker ran the job and it failed
//!   intrinsically. A second failure is the task's outcome.
//!
//! A task left with no lease re-enqueues under capped exponential
//! backoff, for a worker that has not run it when one has room; after
//! `MAX_ATTEMPTS` (4) dispatches it is handed back unrun instead, and the
//! server runs it locally.
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

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, BufReader};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use ringmesh::StopFlag;
use ringmesh_snap::{hex64, Fingerprint};

use crate::json::Json;
use crate::protocol::{code_hash, CoordMsg, WorkerMsg};
use crate::wire::{self, LineReader, LineWriter, MAX_LINE_BYTES};

/// How often the accept loop polls, and how often a running batch ticks
/// the schedule when no worker line arrives.
const TICK: Duration = Duration::from_millis(25);

/// How often a blocked worker-socket read wakes to poll the stop flag.
const READ_TICK: Duration = Duration::from_millis(250);

/// A worker misses its heartbeat window after this many cadences.
const HEARTBEAT_GRACE: u64 = 3;

/// Most dispatches of one task; a task that needs another is handed
/// back unrun, for the server's local pool.
const MAX_ATTEMPTS: u32 = 4;

/// The first re-dispatch backoff, in milliseconds; it doubles with
/// every further attempt up to `BACKOFF_CAP_MS`.
const BACKOFF_BASE_MS: u64 = 250;

/// The longest re-dispatch backoff, in milliseconds.
const BACKOFF_CAP_MS: u64 = 5_000;

/// One unit of batch work offered to the fleet.
#[derive(Debug, Clone)]
pub struct RemoteTask {
    /// Content key of the job (canonical config + code version).
    pub key: u64,
    /// The wire-form job object, re-parseable by
    /// [`parse_job`](crate::parse_job) on the worker.
    pub spec: Json,
}

/// Dispatch-lifecycle and progress events streamed while remote tasks
/// run. `task` indexes the vector passed to [`FleetPool::run_tasks`].
#[derive(Debug, Clone)]
pub enum RemoteEvent {
    /// The task was leased to a worker for `lease_ms` (attempt is
    /// 1-based across re-dispatches).
    Lease {
        /// Index into the task vector.
        task: usize,
        /// Coordinator-assigned worker id.
        worker: u64,
        /// 1-based dispatch attempt.
        attempt: u32,
        /// Lease duration granted, in milliseconds.
        lease_ms: u64,
    },
    /// Windowed progress relayed from the worker computing the task.
    Window {
        /// Index into the task vector.
        task: usize,
        /// Network cycle at the end of the window.
        cycle: u64,
        /// Transactions issued during the window.
        issued: u64,
        /// Transactions retired during the window.
        retired: u64,
    },
    /// The task was left without a lease and re-enqueued; it waits
    /// `backoff_ms` before re-dispatch.
    Retry {
        /// Index into the task vector.
        task: usize,
        /// The attempt that just ended.
        attempt: u32,
        /// Why the attempt ended: `"worker-death"`, `"attempt-failed"`
        /// or `"lease-expired"` (a silent lease handed back).
        reason: String,
        /// Capped exponential backoff before the next dispatch.
        backoff_ms: u64,
    },
    /// A long-tail straggler was speculatively duplicated onto another
    /// worker; first completed result wins.
    Speculate {
        /// Index into the task vector.
        task: usize,
        /// The worker running the duplicate.
        worker: u64,
    },
}

/// Terminal outcome of one remote task, in task-vector order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RemoteOutcome {
    /// The task completed; `payload` is the canonical result JSON whose
    /// FNV content hash was verified against the worker's claim.
    Done {
        /// Canonical serialized result payload.
        payload: String,
    },
    /// Two completed attempts returned byte-different payloads — a hard
    /// determinism violation.
    Divergent {
        /// Content hash of the first completed payload.
        first: u64,
        /// Content hash of the disagreeing duplicate.
        second: u64,
    },
    /// Every dispatch attempt failed for a task-intrinsic reason (bad
    /// config, stall) — re-dispatching cannot help.
    Failed(String),
    /// The fleet could not complete the task (no live workers, stop
    /// requested, attempt budget spent); the server falls back to local
    /// execution or reports interruption.
    Unrun,
}

/// Coordinator deployment settings.
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Lease duration granted per dispatch, in milliseconds. A lease
    /// that saw no progress window by then is speculated or handed back.
    pub lease_ms: u64,
    /// Heartbeat cadence prescribed to workers, in milliseconds; a
    /// worker silent for `HEARTBEAT_GRACE` (3) cadences is declared dead.
    pub heartbeat_ms: u64,
}

impl Default for FleetOptions {
    fn default() -> Self {
        FleetOptions {
            lease_ms: 30_000,
            heartbeat_ms: 2_000,
        }
    }
}

/// The re-dispatch delay after `attempt` earlier failures (0-based):
/// `BACKOFF_BASE_MS * 2^attempt` capped at `BACKOFF_CAP_MS`. Never
/// overflows.
fn backoff_ms(attempt: u32) -> u64 {
    (BACKOFF_BASE_MS << attempt.min(5)).min(BACKOFF_CAP_MS)
}

/// What the schedule reacts to.
#[derive(Debug, Clone)]
enum Input {
    /// A worker passed the handshake, offering `threads` slots.
    Register { worker: u64, threads: u32 },
    /// A batch starts, its workers reporting every `window_cycles`. The
    /// wire names a dispatch `"task:attempt"`.
    Start(Vec<RemoteTask>, u64),
    /// A line from a worker. Any line proves it alive; a heartbeat does
    /// nothing else.
    From(u64, WorkerMsg),
    /// A worker's connection ended: EOF, a broken peer, a failed send.
    Died(u64),
    /// Time passed.
    Tick,
    /// The batch's caller stops it.
    Stop,
}

/// What the schedule asks the shell to do.
#[derive(Debug, Clone)]
enum Action {
    /// Send a worker a dispatch or a cancel.
    Send(u64, CoordMsg),
    /// Close the worker's connection.
    Evict(u64),
    /// Hand an event to the batch's caller.
    Event(RemoteEvent),
    /// Tell the operator.
    Log(String),
    /// The batch is over: one outcome per task, in task order.
    Finish(Vec<RemoteOutcome>),
}

/// A registered worker as the schedule sees it.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
struct Slot {
    /// Concurrent dispatches the worker advertised.
    threads: u32,
    /// Leases naming this worker.
    in_flight: u32,
    /// When its last line (heartbeats included) arrived.
    heard_ms: u64,
}

/// One outstanding lease.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Lease {
    worker: u64,
    attempt: u32,
    /// It has expired once `now_ms >= deadline_ms`.
    deadline_ms: u64,
    /// A `window` for it arrived since it was granted or last renewed.
    windowed: bool,
}

/// Dispatch-side state of one task.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
struct Task {
    outcome: Option<RemoteOutcome>,
    /// Dispatches started (the wire's attempts are 1-based).
    attempts: u32,
    /// Intrinsic failures reported by workers.
    fails: u32,
    /// Waiting to be (re-)dispatched, not before this time.
    queued_until: Option<u64>,
    /// Outstanding leases (two during speculation).
    leases: Vec<Lease>,
    /// Every worker the task was leased to; a retry prefers another.
    tried: Vec<u64>,
    /// A silent lease speculates its task only once.
    speculated: bool,
}

/// Every decision of the fleet, on a virtual clock (see the module
/// docs): worker slots, lease deadlines, backoff gates, speculation,
/// first-result-wins and the divergence check.
#[derive(Debug, Clone, Default)]
struct Schedule {
    lease_ms: u64,
    heartbeat_ms: u64,
    workers: BTreeMap<u64, Slot>,
    /// Between a batch's `Start` and its `Finish`.
    running: bool,
    batch: Vec<RemoteTask>,
    window_cycles: u64,
    /// One per task of `batch`.
    tasks: Vec<Task>,
    /// The actions of the input being handled.
    out: Vec<Action>,
}

impl Schedule {
    fn new(opts: &FleetOptions) -> Schedule {
        Schedule {
            lease_ms: opts.lease_ms.max(1),
            heartbeat_ms: opts.heartbeat_ms,
            ..Schedule::default()
        }
    }

    /// Reacts to `input` at `now_ms` and returns what to do, in order.
    /// Every input also settles what time has made due: silent workers,
    /// expired leases, queued tasks whose backoff has passed, and the
    /// batch's end.
    fn on(&mut self, now_ms: u64, input: Input) -> Vec<Action> {
        match input {
            Input::Register { worker, threads } => {
                let slot = self.workers.entry(worker).or_default();
                (slot.threads, slot.heard_ms) = (threads.max(1), now_ms);
                let line = format!("worker {worker} registered ({threads} threads)");
                self.out.push(Action::Log(line));
            }
            Input::Start(batch, window_cycles) => {
                self.tasks = vec![Task::default(); batch.len()];
                for task in &mut self.tasks {
                    task.queued_until = Some(now_ms);
                }
                (self.running, self.batch, self.window_cycles) = (true, batch, window_cycles);
            }
            Input::From(worker, msg) => {
                // A line from a worker already evicted is not heard.
                if let Some(slot) = self.workers.get_mut(&worker) {
                    slot.heard_ms = now_ms;
                    self.report(now_ms, msg);
                }
            }
            Input::Died(worker) => self.drop_worker(now_ms, worker, "disconnected"),
            Input::Stop if self.running => self.finish(),
            Input::Tick | Input::Stop => {}
        }
        self.expire(now_ms);
        self.dispatch_queued(now_ms);
        // A fleet with no workers and nothing in flight cannot make
        // progress: hand every unfinished task back to the server.
        let stuck = self.workers.is_empty() && self.tasks.iter().all(|t| t.leases.is_empty());
        if self.running && (stuck || self.tasks.iter().all(|t| t.outcome.is_some())) {
            self.finish();
        }
        std::mem::take(&mut self.out)
    }

    /// The task and attempt a wire dispatch id names, if this batch sent
    /// it (superseded attempts too: their results reach the dedupe check).
    fn dispatch_of(&self, id: &str) -> Option<(usize, u32)> {
        let (task, attempt) = id.split_once(':')?;
        let (task, attempt): (usize, u32) = (task.parse().ok()?, attempt.parse().ok()?);
        (attempt >= 1 && attempt <= self.tasks.get(task)?.attempts).then_some((task, attempt))
    }

    /// A worker's `window`, `done` or `fail` for one dispatch: first
    /// result wins, and claims are verified (see the module docs).
    fn report(&mut self, now_ms: u64, msg: WorkerMsg) {
        let (WorkerMsg::Window { task, .. }
        | WorkerMsg::Done { task, .. }
        | WorkerMsg::Fail { task, .. }) = &msg
        else {
            return;
        };
        let Some((ti, attempt)) = self.dispatch_of(task) else {
            return;
        };
        match msg {
            WorkerMsg::Window {
                cycle,
                issued,
                retired,
                ..
            } => {
                if let Some(lease) = self.lease(ti, attempt) {
                    lease.windowed = true;
                }
                if self.tasks[ti].outcome.is_none() {
                    let window = RemoteEvent::Window {
                        task: ti,
                        cycle,
                        issued,
                        retired,
                    };
                    self.out.push(Action::Event(window));
                }
            }
            WorkerMsg::Done {
                key, hash, payload, ..
            } => {
                self.release(ti, attempt);
                if Fingerprint::of(payload.as_bytes()) != hash || key != self.batch[ti].key {
                    // A corrupted line or a confused worker; the attempt
                    // is worthless but the task is not — retry it.
                    return self.requeue(now_ms, ti, "attempt-failed");
                }
                match &self.tasks[ti].outcome {
                    None => {
                        self.tasks[ti].outcome = Some(RemoteOutcome::Done { payload });
                        self.cancel_leases(ti);
                    }
                    Some(RemoteOutcome::Done { payload: first }) => {
                        let (first, second) = (Fingerprint::of(first.as_bytes()), hash);
                        if first != second {
                            let (k, a, b) = (hex64(key), hex64(first), hex64(second));
                            let line = format!("determinism violation on key {k}: {a} vs {b}");
                            self.out.push(Action::Log(line));
                            self.tasks[ti].outcome =
                                Some(RemoteOutcome::Divergent { first, second });
                        }
                    }
                    Some(_) => {} // the task already ended otherwise
                }
            }
            WorkerMsg::Fail { reason, .. } => {
                self.release(ti, attempt);
                let task = &mut self.tasks[ti];
                if task.outcome.is_some() {
                    return;
                }
                task.fails += 1;
                if task.fails < 2 {
                    return self.requeue(now_ms, ti, "attempt-failed");
                }
                // Two independent attempts agree the task itself is
                // broken; accept that as its deterministic outcome.
                task.outcome = Some(RemoteOutcome::Failed(reason));
                self.cancel_leases(ti);
            }
            WorkerMsg::Register { .. } | WorkerMsg::Heartbeat => {}
        }
    }

    fn lease(&mut self, ti: usize, attempt: u32) -> Option<&mut Lease> {
        self.tasks[ti]
            .leases
            .iter_mut()
            .find(|l| l.attempt == attempt)
    }

    /// Removes task `ti`'s lease of `attempt`, if it is still held, and
    /// frees its worker's slot.
    fn release(&mut self, ti: usize, attempt: u32) -> Option<Lease> {
        let leases = &mut self.tasks[ti].leases;
        let lease = leases.remove(leases.iter().position(|l| l.attempt == attempt)?);
        if let Some(slot) = self.workers.get_mut(&lease.worker) {
            slot.in_flight -= 1;
        }
        Some(lease)
    }

    /// Releases a lease and tells its worker to abandon it.
    fn cancel(&mut self, ti: usize, attempt: u32) {
        if let Some(lease) = self.release(ti, attempt) {
            let task = format!("{ti}:{attempt}");
            self.out
                .push(Action::Send(lease.worker, CoordMsg::Cancel { task }));
        }
    }

    fn cancel_leases(&mut self, ti: usize) {
        while let Some(attempt) = self.tasks[ti].leases.first().map(|l| l.attempt) {
            self.cancel(ti, attempt);
        }
    }

    /// Re-enqueues task `ti` once it holds no lease, with capped
    /// exponential backoff, or hands it back unrun once its attempt
    /// budget is spent.
    fn requeue(&mut self, now_ms: u64, ti: usize, reason: &str) {
        let task = &mut self.tasks[ti];
        if task.outcome.is_some() || task.queued_until.is_some() || !task.leases.is_empty() {
            return;
        }
        if task.attempts >= MAX_ATTEMPTS {
            // Budget spent; leave it unfinished for the server's local
            // fallback rather than thrashing the fleet forever.
            task.outcome = Some(RemoteOutcome::Unrun);
            return;
        }
        let backoff_ms = backoff_ms(task.attempts.saturating_sub(1));
        task.queued_until = Some(now_ms.saturating_add(backoff_ms));
        self.out.push(Action::Event(RemoteEvent::Retry {
            task: ti,
            attempt: task.attempts,
            reason: reason.to_string(),
            backoff_ms,
        }));
    }

    /// Forgets a worker and releases its leases.
    fn drop_worker(&mut self, now_ms: u64, worker: u64, why: &str) {
        if self.workers.remove(&worker).is_none() {
            return; // already gone: its death was reported once
        }
        self.out.push(Action::Log(format!("worker {worker} {why}")));
        self.out.push(Action::Evict(worker));
        for ti in 0..self.tasks.len() {
            let leases = &mut self.tasks[ti].leases;
            let held = leases.len();
            leases.retain(|l| l.worker != worker);
            if leases.len() < held {
                self.requeue(now_ms, ti, "worker-death");
            }
        }
    }

    /// Evicts the workers silent for a heartbeat grace, then settles
    /// every expired lease: one that saw a window renews; a silent one
    /// speculates its task onto another worker with room (once per task)
    /// and renews; any other silent one is cancelled.
    fn expire(&mut self, now_ms: u64) {
        let grace = self.heartbeat_ms.saturating_mul(HEARTBEAT_GRACE);
        let silent: Vec<u64> = (self.workers.iter())
            .filter(|(_, slot)| now_ms >= slot.heard_ms.saturating_add(grace))
            .map(|(&id, _)| id)
            .collect();
        for worker in silent {
            self.drop_worker(now_ms, worker, "missed heartbeats; evicted");
        }
        // Each pass renews, cancels or speculates (and renews) one expired
        // lease, and a new lease runs for `lease_ms` >= 1: this ends.
        let due = |t: &Task| t.leases.iter().find(|l| now_ms >= l.deadline_ms).cloned();
        for ti in 0..self.tasks.len() {
            while let Some(Lease {
                attempt, windowed, ..
            }) = due(&self.tasks[ti])
            {
                let holders: Vec<u64> = self.tasks[ti].leases.iter().map(|l| l.worker).collect();
                let spare = self.pick_worker(&holders).filter(|w| !holders.contains(w));
                let spare = spare.filter(|_| !windowed && !self.tasks[ti].speculated);
                if let Some(worker) = spare {
                    self.tasks[ti].speculated = true;
                    let speculate = RemoteEvent::Speculate { task: ti, worker };
                    self.out.push(Action::Event(speculate));
                    self.dispatch_to(now_ms, ti, worker);
                } else if !windowed {
                    self.cancel(ti, attempt);
                    self.requeue(now_ms, ti, "lease-expired");
                    continue;
                }
                let lease_ms = self.lease_ms;
                if let Some(lease) = self.lease(ti, attempt) {
                    (lease.deadline_ms, lease.windowed) = (now_ms.saturating_add(lease_ms), false);
                }
            }
        }
    }

    /// Starts every queued task whose backoff has passed, on a worker
    /// that has not run it when one has room.
    fn dispatch_queued(&mut self, now_ms: u64) {
        for ti in 0..self.tasks.len() {
            let task = &self.tasks[ti];
            if task.outcome.is_some() || task.queued_until.is_none_or(|at| at > now_ms) {
                continue;
            }
            let Some(worker) = self.pick_worker(&task.tried) else {
                return; // every worker is full
            };
            self.tasks[ti].queued_until = None;
            self.dispatch_to(now_ms, ti, worker);
        }
    }

    /// Leases task `ti` to `worker`.
    fn dispatch_to(&mut self, now_ms: u64, ti: usize, worker: u64) {
        let task = &mut self.tasks[ti];
        task.attempts += 1;
        let attempt = task.attempts;
        if !task.tried.contains(&worker) {
            task.tried.push(worker);
        }
        task.leases.push(Lease {
            worker,
            attempt,
            deadline_ms: now_ms.saturating_add(self.lease_ms),
            windowed: false,
        });
        if let Some(slot) = self.workers.get_mut(&worker) {
            slot.in_flight += 1;
        }
        let msg = CoordMsg::Dispatch {
            task: format!("{ti}:{attempt}"),
            key: self.batch[ti].key,
            window: self.window_cycles,
            spec: self.batch[ti].spec.clone(),
        };
        self.out.push(Action::Send(worker, msg));
        self.out.push(Action::Event(RemoteEvent::Lease {
            task: ti,
            worker,
            attempt,
            lease_ms: self.lease_ms,
        }));
    }

    /// A worker with room: outside `avoid` if one is, then the one with
    /// the most free capacity, ties to the lowest id (for determinism).
    fn pick_worker(&self, avoid: &[u64]) -> Option<u64> {
        (self.workers.iter())
            .filter(|(_, slot)| slot.in_flight < slot.threads)
            .min_by_key(|(id, slot)| (avoid.contains(id), slot.in_flight))
            .map(|(&id, _)| id)
    }

    /// Ends the batch: cancels what is still leased and hands back one
    /// outcome per task (unfinished ones as `Unrun`).
    fn finish(&mut self) {
        for ti in 0..self.tasks.len() {
            self.cancel_leases(ti);
        }
        let outcomes = (self.tasks.drain(..))
            .map(|t| t.outcome.unwrap_or(RemoteOutcome::Unrun))
            .collect();
        self.running = false;
        self.batch.clear();
        self.out.push(Action::Finish(outcomes));
    }
}

/// The shell's state, behind one lock: the schedule and its clock, the
/// registered workers' write halves, and the way to the running batch's
/// caller.
#[derive(Debug)]
struct Shell {
    /// Time zero of the schedule's clock.
    epoch: Instant,
    schedule: Schedule,
    next_worker: u64,
    lines: HashMap<u64, LineWriter<TcpStream>>,
    /// Events, then the outcomes, to the thread in `run_tasks`.
    caller: Option<Sender<Action>>,
}

impl Shell {
    /// Feeds `input` to the schedule and carries out the actions; a send
    /// that fails reports its worker dead. The clock is read under the
    /// lock, so inputs reach the schedule in time order.
    fn apply(&mut self, input: Input) {
        let now_ms = u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX);
        let mut actions = VecDeque::from(self.schedule.on(now_ms, input));
        while let Some(action) = actions.pop_front() {
            match action {
                Action::Send(worker, msg) => {
                    let out = self.lines.get_mut(&worker);
                    if out.is_none_or(|out| out.line(msg.encode()).is_err()) {
                        actions.extend(self.schedule.on(now_ms, Input::Died(worker)));
                    }
                }
                Action::Evict(worker) => {
                    if let Some(out) = self.lines.remove(&worker) {
                        let _ = out.get_ref().shutdown(Shutdown::Both);
                    }
                }
                Action::Log(line) => eprintln!("ringmesh fleet: {line}"),
                Action::Event(_) | Action::Finish(_) => {
                    if let Some(caller) = &self.caller {
                        let _ = caller.send(action);
                    }
                }
            }
        }
    }
}

/// Shared coordinator state.
#[derive(Debug)]
struct Inner {
    /// Coordinator-wide shutdown (set on drop).
    stop: StopFlag,
    shell: Mutex<Shell>,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, Shell> {
        self.shell.lock().expect("fleet state poisoned")
    }

    fn apply(&self, input: Input) {
        self.lock().apply(input);
    }
}

/// A TCP worker fleet.
///
/// Binding spawns an accept thread; each accepted connection gets a
/// reader thread that performs the registration handshake (refusing
/// code-version mismatches with a typed [`CoordMsg::Refused`]) and then
/// feeds the worker's lines to the schedule. Dropping the pool stops the
/// accept loop, says [`CoordMsg::Bye`] to every worker, and closes the
/// sockets.
#[derive(Debug)]
pub struct FleetPool {
    inner: Arc<Inner>,
    addr: std::net::SocketAddr,
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
        let shell = Shell {
            epoch: Instant::now(),
            schedule: Schedule::new(&opts),
            next_worker: 0,
            lines: HashMap::new(),
            caller: None,
        };
        let (stop, shell) = (StopFlag::new(), Mutex::new(shell));
        let inner = Arc::new(Inner { stop, shell });
        let accept_inner = Arc::clone(&inner);
        std::thread::spawn(move || accept_loop(&listener, &accept_inner));
        Ok(FleetPool { inner, addr })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Number of live, registered workers right now (silent ones are
    /// evicted first). The server routes a batch here only when this is
    /// non-zero.
    pub fn live_workers(&self) -> usize {
        self.inner.apply(Input::Tick);
        self.inner.lock().schedule.workers.len()
    }

    /// Runs `tasks` to terminal outcomes on the fleet, workers reporting
    /// progress every `window_cycles` cycles. Returns one outcome per
    /// task, **in input order**.
    ///
    /// Blocks the calling thread until every task is terminal. Every
    /// [`RemoteEvent`] reaches `events` on that thread. A task the fleet
    /// could not finish (no workers left, attempt budget spent, `stop`
    /// set, another batch already dispatching) comes back as
    /// [`RemoteOutcome::Unrun`], and the caller decides whether to run
    /// it locally or report it interrupted. Two *completed* attempts of
    /// one task that disagree on the payload are a **hard determinism
    /// violation** ([`RemoteOutcome::Divergent`]): the simulator
    /// promises one bit-exact result per content key, so divergence
    /// means a broken worker or a broken build.
    pub fn run_tasks(
        &self,
        tasks: Vec<RemoteTask>,
        window_cycles: u64,
        stop: &StopFlag,
        events: &mut dyn FnMut(RemoteEvent),
    ) -> Vec<RemoteOutcome> {
        let mut shell = self.inner.lock();
        if shell.schedule.running {
            // One fleet batch at a time: a second one is handed back
            // unrun and the server falls back to its local pool.
            return vec![RemoteOutcome::Unrun; tasks.len()];
        }
        let (caller, from_schedule) = mpsc::channel();
        shell.caller = Some(caller);
        shell.apply(Input::Start(tasks, window_cycles));
        drop(shell);
        loop {
            if stop.is_set() {
                self.inner.apply(Input::Stop);
            }
            match from_schedule.recv_timeout(TICK) {
                Ok(Action::Event(event)) => events(event),
                Ok(Action::Finish(outcomes)) => return outcomes,
                _ => self.inner.apply(Input::Tick),
            }
        }
    }
}

impl Drop for FleetPool {
    fn drop(&mut self) {
        self.inner.stop.set();
        if let Ok(mut shell) = self.inner.shell.lock() {
            for (_, mut out) in shell.lines.drain() {
                let _ = out.line(CoordMsg::Bye.encode());
                let _ = out.get_ref().shutdown(Shutdown::Both);
            }
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
                std::thread::sleep(TICK);
            }
            Err(e) => {
                eprintln!("ringmesh fleet: accept: {e}");
                return;
            }
        }
    }
}

/// Handshakes and then pumps one worker connection: registration, then
/// every line as an input, then the death.
fn serve_worker(stream: TcpStream, inner: &Inner) -> io::Result<()> {
    wire::prepare(&stream, READ_TICK, Some(Duration::from_secs(5)))?;
    let mut reader = LineReader::new(BufReader::new(stream.try_clone()?), MAX_LINE_BYTES);
    let mut out = LineWriter::new(stream);

    // Handshake: the first line must be a `register` with our exact
    // code hash; anything else draws a typed refusal and a close.
    let Some(line) = reader.next_message(|| !inner.stop.is_set())? else {
        return Ok(()); // gave up before registering
    };
    let (threads, refusal) = match WorkerMsg::decode(&line) {
        Some(WorkerMsg::Register { code, threads }) if code == code_hash() => (threads, None),
        Some(WorkerMsg::Register { code, .. }) => (0, Some(("code-version-mismatch", code))),
        _ => (0, Some(("expected register", 0))),
    };
    if let Some((reason, got)) = refusal {
        let expect = code_hash();
        let (got_hex, want_hex) = (hex64(got), hex64(expect));
        eprintln!(
            "ringmesh fleet: refused worker with code hash {got_hex} (want {want_hex}): {reason}"
        );
        let reason = reason.to_string();
        return out.line(
            CoordMsg::Refused {
                reason,
                expect,
                got,
            }
            .encode(),
        );
    }

    let mut shell = inner.lock();
    let worker = shell.next_worker;
    shell.next_worker += 1;
    let welcome = CoordMsg::Welcome {
        worker,
        heartbeat_ms: shell.schedule.heartbeat_ms,
    };
    out.line(welcome.encode())?;
    shell.lines.insert(worker, out);
    shell.apply(Input::Register { worker, threads });
    drop(shell);

    // Pump lines until EOF, a broken peer (transport error, an
    // oversized or undecodable line), stop, or eviction. The schedule
    // reports a death only for a worker it still has.
    let registered = || !inner.stop.is_set() && inner.lock().lines.contains_key(&worker);
    while let Ok(Some(line)) = reader.next_message(registered) {
        let Some(msg) = WorkerMsg::decode(&line) else {
            break;
        };
        inner.apply(Input::From(worker, msg));
    }
    inner.apply(Input::Died(worker));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_to_the_cap_and_stays_there() {
        let delays: Vec<u64> = (0..7).map(backoff_ms).collect();
        assert_eq!(delays, vec![250, 500, 1000, 2000, 4000, 5000, 5000]);
    }

    #[test]
    fn backoff_never_overflows_at_absurd_attempt_counts() {
        assert_eq!(backoff_ms(63), BACKOFF_CAP_MS);
        assert_eq!(backoff_ms(u32::MAX), BACKOFF_CAP_MS);
    }

    const LEASE_MS: u64 = 1_000;
    /// One heartbeat grace (three cadences) is three leases, so a lease
    /// can expire while its worker still counts as alive.
    const HEARTBEAT_MS: u64 = 1_000;
    const GRACE_MS: u64 = HEARTBEAT_MS * HEARTBEAT_GRACE;
    const KEYS: [u64; 2] = [0x10, 0x11];
    /// Every input sequence up to this length is enumerated.
    const DEPTH: usize = 6;
    /// Ticks of one lease within which any state ends its batch when
    /// workers only heartbeat: each of a task's `MAX_ATTEMPTS` dispatches
    /// holds a lease for at most three ticks (a window's renewal, a
    /// speculation's, the hand-back) and then waits out its backoff.
    const LIVENESS_TICKS: u64 = MAX_ATTEMPTS as u64 * (3 + BACKOFF_CAP_MS / LEASE_MS);

    /// The bounded alphabet: inputs from worker 0 or 1, each about the
    /// last dispatch that worker received, and two jumps of the clock.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        /// A result: `false` agrees with every other worker's, `true`
        /// diverges from it.
        Done(u64, bool),
        Fail(u64),
        Window(u64),
        Died(u64),
        Heard(u64),
        TickLease,
        TickGrace,
    }

    const ALPHABET: [Step; 14] = [
        Step::Done(0, false),
        Step::Done(1, false),
        Step::Done(0, true),
        Step::Done(1, true),
        Step::Fail(0),
        Step::Fail(1),
        Step::Window(0),
        Step::Window(1),
        Step::Died(0),
        Step::Died(1),
        Step::Heard(0),
        Step::Heard(1),
        Step::TickLease,
        Step::TickGrace,
    ];

    fn payload(ti: usize, diverge: bool) -> String {
        format!("{{\"task\":{ti},\"diverge\":{diverge}}}")
    }

    type Key = (
        (BTreeMap<u64, Slot>, bool, Vec<Task>),
        u64,
        [Option<(usize, u32)>; 2],
        BTreeMap<(usize, u32), u32>,
    );

    /// A schedule plus what the checks remember across steps.
    #[derive(Clone)]
    struct Node {
        schedule: Schedule,
        now_ms: u64,
        /// The last dispatch each worker received.
        last: [Option<(usize, u32)>; 2],
        /// Renewals without a window since the last windowed one, per
        /// lease.
        silent_renewals: BTreeMap<(usize, u32), u32>,
    }

    impl Node {
        /// Everything a node holds but the batch's specs, which never
        /// change.
        fn key(&self) -> Key {
            let s = &self.schedule;
            let schedule = (s.workers.clone(), s.running, s.tasks.clone());
            (
                schedule,
                self.now_ms,
                self.last,
                self.silent_renewals.clone(),
            )
        }

        /// Two one-thread workers and a two-task batch, both tasks leased.
        fn start() -> Node {
            let opts = FleetOptions {
                lease_ms: LEASE_MS,
                heartbeat_ms: HEARTBEAT_MS,
            };
            let mut node = Node {
                schedule: Schedule::new(&opts),
                now_ms: 0,
                last: [None; 2],
                silent_renewals: BTreeMap::new(),
            };
            for worker in 0..2 {
                node.step(0, Input::Register { worker, threads: 1 });
            }
            let spec = Json::Null;
            let batch = KEYS.map(|key| RemoteTask {
                key,
                spec: spec.clone(),
            });
            node.step(0, Input::Start(batch.to_vec(), 1));
            assert_eq!(node.last, [Some((0, 1)), Some((1, 1))]);
            node
        }

        /// The input `step` stands for here, with the clock's advance;
        /// `None` for a worker input about a dispatch it never received.
        fn input(&self, step: Step) -> Option<(u64, Input)> {
            let last = |w: u64| self.last[w as usize].map(|(ti, at)| (ti, format!("{ti}:{at}")));
            let (w, msg) = match step {
                Step::Done(w, diverge) => {
                    let (ti, task) = last(w)?;
                    let payload = payload(ti, diverge);
                    let hash = Fingerprint::of(payload.as_bytes());
                    let key = KEYS[ti];
                    (
                        w,
                        WorkerMsg::Done {
                            task,
                            key,
                            hash,
                            payload,
                        },
                    )
                }
                Step::Fail(w) => {
                    let reason = "bad spec".to_string();
                    (
                        w,
                        WorkerMsg::Fail {
                            task: last(w)?.1,
                            reason,
                        },
                    )
                }
                Step::Window(w) => {
                    let (cycle, issued, retired) = (1, 1, 1);
                    (
                        w,
                        WorkerMsg::Window {
                            task: last(w)?.1,
                            cycle,
                            issued,
                            retired,
                        },
                    )
                }
                Step::Heard(w) => (w, WorkerMsg::Heartbeat),
                Step::Died(w) => return Some((0, Input::Died(w))),
                Step::TickLease => return Some((LEASE_MS, Input::Tick)),
                Step::TickGrace => return Some((GRACE_MS, Input::Tick)),
            };
            Some((0, Input::From(w, msg)))
        }

        /// Applies one input and checks every invariant across it.
        fn step(&mut self, advance_ms: u64, input: Input) {
            let before = self.schedule.clone();
            self.now_ms += advance_ms;
            let actions = self.schedule.on(self.now_ms, input.clone());
            for action in &actions {
                if let Action::Send(worker, CoordMsg::Dispatch { task, .. }) = action {
                    self.last[*worker as usize] = self.schedule.dispatch_of(task);
                }
            }
            check_outcomes(&before, &self.schedule, &input, &actions);
            check_in_flight(&self.schedule);
            self.check_renewals(&before);
        }

        /// No lease is renewed twice without a window from its worker.
        fn check_renewals(&mut self, before: &Schedule) {
            for (ti, task) in self.schedule.tasks.iter().enumerate() {
                for lease in &task.leases {
                    let old = before.tasks.get(ti).map_or(&[][..], |t| &t.leases);
                    let Some(old) = old.iter().find(|l| l.attempt == lease.attempt) else {
                        continue;
                    };
                    if lease.deadline_ms > old.deadline_ms {
                        let n = self.silent_renewals.entry((ti, lease.attempt)).or_insert(0);
                        *n = if old.windowed { 0 } else { *n + 1 };
                        assert!(
                            *n <= 1,
                            "lease {ti}:{} renewed twice without a window",
                            lease.attempt
                        );
                    }
                }
            }
        }

        /// With workers that only heartbeat, ticking one lease at a time
        /// ends the batch within `LIVENESS_TICKS`.
        fn check_liveness(&self) {
            let mut node = self.clone();
            for _ in 0..LIVENESS_TICKS {
                if !node.schedule.running {
                    return;
                }
                let workers: Vec<u64> = node.schedule.workers.keys().copied().collect();
                for w in workers {
                    node.step(0, Input::From(w, WorkerMsg::Heartbeat));
                }
                node.step(LEASE_MS, Input::Tick);
            }
            assert!(
                !node.schedule.running,
                "the batch is still running {LIVENESS_TICKS} lease ticks on: {:?}",
                node.schedule.tasks
            );
        }
    }

    /// A task's outcome is set once and never changes, except that a
    /// diverging duplicate turns `Done` into `Divergent`; an agreeing
    /// duplicate is dropped; the batch finishes once, with the outcomes
    /// the tasks held.
    fn check_outcomes(before: &Schedule, after: &Schedule, input: &Input, actions: &[Action]) {
        let finished: Vec<&Vec<RemoteOutcome>> = (actions.iter())
            .filter_map(|a| match a {
                Action::Finish(outcomes) => Some(outcomes),
                _ => None,
            })
            .collect();
        let running = before.running || matches!(input, Input::Start(..));
        assert!(
            finished.len() <= 1 && (finished.is_empty() || running),
            "{actions:?}"
        );
        assert_eq!(after.running, running && finished.is_empty(), "{actions:?}");
        let outcome = |ti: usize| match finished.first() {
            Some(outcomes) => Some(outcomes[ti].clone()),
            None => after.tasks[ti].outcome.clone(),
        };
        for (ti, task) in before.tasks.iter().enumerate() {
            match (&task.outcome, outcome(ti)) {
                (None, _) => {}
                (
                    Some(RemoteOutcome::Done { payload }),
                    Some(RemoteOutcome::Divergent { first, .. }),
                ) if first == Fingerprint::of(payload.as_bytes()) => {}
                (Some(was), now) => {
                    assert_eq!(Some(was.clone()), now, "task {ti}'s outcome changed")
                }
            }
        }
        // A line from a worker already dropped is not heard at all.
        if let Input::From(worker, WorkerMsg::Done { task, hash, .. }) = input {
            let Some((ti, _)) = before
                .dispatch_of(task)
                .filter(|_| before.workers.contains_key(worker))
            else {
                return;
            };
            if let Some(RemoteOutcome::Done { payload: first }) = &before.tasks[ti].outcome {
                let first_hash = Fingerprint::of(first.as_bytes());
                let want = if first_hash == *hash {
                    RemoteOutcome::Done {
                        payload: first.clone(),
                    }
                } else {
                    RemoteOutcome::Divergent {
                        first: first_hash,
                        second: *hash,
                    }
                };
                assert_eq!(outcome(ti), Some(want), "a duplicate result for task {ti}");
            }
        }
    }

    /// Each worker's in-flight count equals the number of leases that
    /// name it.
    fn check_in_flight(schedule: &Schedule) {
        for (id, slot) in &schedule.workers {
            let leases = (schedule.tasks.iter())
                .flat_map(|t| &t.leases)
                .filter(|l| l.worker == *id)
                .count();
            assert_eq!(
                slot.in_flight as usize, leases,
                "worker {id}'s in-flight count"
            );
            assert!(slot.in_flight <= slot.threads);
        }
    }

    /// Depth-first over every input sequence; a node already explored to
    /// at least this depth is not explored again (the checks depend on
    /// nothing the node does not hold).
    fn explore(node: &Node, depth: usize, seen: &mut HashMap<Key, usize>) {
        let key = node.key();
        if seen.get(&key).is_some_and(|&d| d >= depth) {
            return;
        }
        if seen.insert(key, depth).is_none() {
            node.check_liveness();
        }
        if depth == 0 || !node.schedule.running {
            return;
        }
        for step in ALPHABET {
            if let Some((advance_ms, input)) = node.input(step) {
                let mut next = node.clone();
                next.step(advance_ms, input);
                explore(&next, depth - 1, seen);
            }
        }
    }

    #[test]
    fn every_short_schedule_of_two_workers_and_two_tasks_keeps_its_invariants() {
        let mut seen = HashMap::new();
        explore(&Node::start(), DEPTH, &mut seen);
        assert!(seen.len() > 1_000, "explored only {} states", seen.len());
    }
}
