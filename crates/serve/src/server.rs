//! The sweep-job server: line-delimited JSON over any byte stream,
//! hardened for concurrent clients and unclean deaths.
//!
//! One request per line, one or more event lines back. Ops:
//!
//! | request                         | events                                  |
//! |---------------------------------|-----------------------------------------|
//! | `{"op":"job", ...}`             | `accepted` (job queued for the batch)   |
//! | `{"op":"run"}`                  | `window`* / `result`* then one `batch`  |
//! | `{"op":"stats"}`                | `stats` (cache + robustness counters)   |
//! | `{"op":"quit"}`                 | `bye`, connection closes                |
//! | `{"op":"shutdown"}`             | `bye`, whole server winds down          |
//!
//! `run` answers cache hits instantly from the content-addressed store
//! and schedules the misses on the shared [`WorkerPool`] — or, when a
//! [`RemoteRunner`] fleet is attached and reports live workers, on the
//! fleet under journaled leases. `window` events stream as workers
//! progress (each tagged with the job id); fleet batches additionally
//! stream `lease`, `retry`, and `speculate` lifecycle events. `result`
//! events are emitted in job-submission order, and the closing `batch`
//! line carries hit/miss counters plus a combined fingerprint over all
//! results in submission order — two batches of identical jobs produce
//! byte-identical `result` data and equal batch fingerprints whether
//! computed, cached, or recovered from dead workers.
//!
//! # Robustness contract
//!
//! - **Concurrent clients.** [`Server::serve_tcp`] runs one session
//!   thread per connection over a shared cache, journal, and worker
//!   pool; concurrent submissions of the same job are answered with
//!   byte-identical payloads.
//! - **Admission control.** Connections beyond `max_clients` and `run`
//!   requests beyond `max_batches` are shed with a typed `busy` event —
//!   the server never silently queues unbounded work or hangs a client.
//!   A session's own job queue is bounded by [`MAX_PENDING_JOBS`].
//! - **Deadlines.** TCP sessions carry read/write deadlines; an idle or
//!   stuck peer is disconnected instead of pinning a thread forever.
//! - **Malformed input is survivable.** A line that fails to parse, an
//!   unknown op, invalid UTF-8, or a line longer than
//!   [`MAX_LINE_BYTES`] draws a typed `error` event and the session
//!   continues; nothing a client sends can wedge the server.
//! - **Crash safety.** Batches journal to an fsync'd WAL before
//!   simulating; a SIGKILL mid-batch is recovered at the next startup
//!   (resuming from checkpoints) and yields fingerprint-identical
//!   results. Graceful stops ([`Server::stop_handle`], SIGTERM in the
//!   CLI) flush checkpoints and the journal before exiting.

use std::cell::RefCell;
use std::fmt::Display;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use ringmesh::{AdmissionGate, RunResult, StopFlag, SystemConfig, WorkerPool};
use ringmesh_snap::{hex64, Fingerprint};
use ringmesh_stats::Histogram;
use ringmesh_trace::TraceConfig;

use crate::cache::ResultCache;
use crate::jobspec::{parse_job, JobSpec};
use crate::journal::{Journal, Recovery};
use crate::json::{obj, Json};
use crate::remote::{RemoteEvent, RemoteOutcome, RemoteRunner, RemoteTask};
use crate::runner::{run_job, JobError, WindowEvent};
use crate::wire::{self, LineRead, LineReader, LineWriter, MAX_LINE_BYTES};

/// Most jobs one session may queue before `run`; further `job` requests
/// draw a `busy` event until the queue drains. Bounds server memory
/// against a client that submits forever without running.
pub const MAX_PENDING_JOBS: usize = 4096;

/// How often a blocked TCP read wakes to poll the stop flag and the
/// idle deadline.
const POLL_TICK: Duration = Duration::from_secs(1);

/// What the `stats` event reports latencies for, in the order it lists
/// them.
#[derive(Debug, Clone, Copy)]
enum Stage {
    /// `job` line read → `accepted` written.
    Accept,
    /// `run` line read → `batch` written.
    Batch,
    /// One [`ResultCache::lookup_shared`], lock wait included.
    CacheLookup,
    /// One journal operation (fsync where it has one), lock wait
    /// included.
    Journal,
    /// One job simulated on the local pool.
    Simulate,
    /// One write to the client: an event line, or the held ones.
    Emit,
}

/// The `stats` member of each [`Stage`], indexed by `stage as usize`.
const STAGE_NAMES: [&str; 6] = [
    "accept",
    "batch",
    "cache_lookup",
    "journal",
    "simulate",
    "emit",
];

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Result-cache directory.
    pub cache_dir: PathBuf,
    /// Worker threads (`None` = the pool's default sizing).
    pub threads: Option<usize>,
    /// Fraction of cache hits to deterministically re-run and diff
    /// bit-for-bit against the stored payload (`--verify-cache`).
    pub verify_fraction: f64,
    /// Cycles between state checkpoints for in-flight jobs (0 = off).
    pub checkpoint_every: u64,
    /// Progress-window length in cycles; defaults to the ringmesh-trace
    /// sampling window so streamed stats line up with trace reports.
    pub window_cycles: u64,
    /// Completed-entry size budget in bytes; exceeding it evicts
    /// least-recently-touched entries at startup and after each batch
    /// (`None` = unbounded).
    pub cache_budget: Option<u64>,
    /// Concurrent TCP sessions admitted; further connections get a
    /// `busy` event and are closed.
    pub max_clients: usize,
    /// Concurrent running batches admitted across all sessions; further
    /// `run` requests get a `busy` event (jobs stay queued).
    pub max_batches: usize,
    /// TCP idle deadline: a session that sends nothing for this long is
    /// disconnected (`None` = never).
    pub read_deadline: Option<Duration>,
    /// TCP write deadline per event line; a peer that stops draining
    /// output errors the session instead of wedging a thread (`None` =
    /// never).
    pub write_deadline: Option<Duration>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            cache_dir: PathBuf::from(".ringmesh-cache"),
            threads: None,
            verify_fraction: 0.0,
            checkpoint_every: 0,
            window_cycles: TraceConfig::default().window_cycles,
            cache_budget: None,
            max_clients: 16,
            max_batches: 2,
            read_deadline: Some(Duration::from_secs(300)),
            write_deadline: Some(Duration::from_secs(30)),
        }
    }
}

/// How a serve session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeExit {
    /// Input ended or the client sent `quit`; a TCP server keeps
    /// accepting connections.
    Quit,
    /// The client sent `shutdown`; the whole server winds down.
    Shutdown,
    /// The server's stop flag was set (SIGTERM or another session's
    /// `shutdown`); checkpoints and journal were flushed first.
    Terminated,
    /// The session sat idle past its read deadline and was dropped.
    IdleTimeout,
}

/// A sweep-job server: shared result cache, durable batch journal, and
/// worker pool, serving any number of concurrent sessions.
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
}

/// Everything a session thread needs, behind one `Arc`.
#[derive(Debug)]
struct Shared {
    opts: ServeOptions,
    pool: WorkerPool,
    cache: Mutex<ResultCache>,
    journal: Mutex<Journal>,
    /// Bounds concurrent running batches (admission for `run`).
    batches: AdmissionGate,
    /// Bounds concurrent TCP sessions (admission at accept).
    clients: AdmissionGate,
    /// Cooperative shutdown: set by `shutdown`, SIGTERM, or tests.
    stop: StopFlag,
    /// Malformed request lines seen (drives `ExitStatus::Protocol`).
    protocol_errors: AtomicU64,
    /// Journaled jobs completed by startup recovery.
    recovered: AtomicU64,
    /// Optional worker fleet; batches with misses dispatch here while
    /// it reports live workers (set once via [`Server::set_remote`]).
    remote: OnceLock<Arc<dyn RemoteRunner>>,
    /// Duplicate remote runs that disagreed byte-for-byte — a broken
    /// worker or build (drives `ExitStatus::DeterminismViolation`).
    determinism_violations: AtomicU64,
    /// Microseconds spent per [`Stage`], every session's together.
    latencies: Mutex<[Histogram; STAGE_NAMES.len()]>,
}

/// One queued job and what the cache already knows about it.
#[derive(Debug)]
struct Pending {
    spec: JobSpec,
    /// The wire-form request object, journaled verbatim so a crashed
    /// batch can be replayed by a server that never saw the client.
    raw: Json,
    key: u64,
    cached: Option<String>,
}

/// What `run` decided to do with one pending job.
#[derive(Debug)]
enum Plan {
    /// Serve the stored payload as-is.
    Hit(String),
    /// Simulate (index into the work-item vector).
    Work(usize),
    /// Cache hit selected for verification: serve the stored payload,
    /// but also re-run (work index) and diff.
    Verify(String, usize),
    /// Same key as an earlier job in this batch; reuse its outcome.
    Alias(usize),
}

/// One planned simulation: everything either execution lane (local pool
/// or remote fleet) needs to run the job and label its events.
#[derive(Debug, Clone)]
struct WorkItem {
    /// Client-chosen job id (event labels only).
    id: String,
    cfg: SystemConfig,
    key: u64,
    /// Wire-form job object, re-parsed by remote workers.
    raw: Json,
}

/// Terminal outcome of one work item, lane-independent: the canonical
/// result payload plus whether the run resumed from a checkpoint.
type WorkOutcome = Result<(String, bool), JobError>;

impl Server {
    /// Opens the cache, replays the batch journal (completing any work
    /// a dead server left unfinished, resuming from checkpoints), runs
    /// a budget-eviction pass, and spins up the worker pool.
    ///
    /// # Errors
    ///
    /// Fails if the cache directory or journal cannot be prepared, or
    /// if recovery cannot write its results.
    pub fn new(opts: ServeOptions) -> io::Result<Server> {
        let cache = ResultCache::open(&opts.cache_dir)?;
        let (journal, recovery) = Journal::open(&opts.cache_dir)?;
        let pool = match opts.threads {
            Some(n) => WorkerPool::new(n),
            None => WorkerPool::default(),
        };
        let shared = Arc::new(Shared {
            batches: AdmissionGate::new(opts.max_batches),
            clients: AdmissionGate::new(opts.max_clients),
            opts,
            pool,
            cache: Mutex::new(cache),
            journal: Mutex::new(journal),
            stop: StopFlag::new(),
            protocol_errors: AtomicU64::new(0),
            recovered: AtomicU64::new(0),
            remote: OnceLock::new(),
            determinism_violations: AtomicU64::new(0),
            latencies: Mutex::default(),
        });
        if let Some(recovery) = recovery {
            shared.recover(recovery)?;
        }
        if let Some(budget) = shared.opts.cache_budget {
            shared.cache_lock().evict_to_budget(budget)?;
        }
        Ok(Server { shared })
    }

    /// A handle that requests graceful shutdown when set: sessions wind
    /// down at their next request boundary, in-flight jobs checkpoint
    /// at their next window, and the journal is flushed.
    pub fn stop_handle(&self) -> StopFlag {
        self.shared.stop.clone()
    }

    /// Serves one session: reads requests line by line from `input`,
    /// writes event lines to `out`, until EOF / `quit` / `shutdown` /
    /// stop / idle deadline.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors on the transport.
    pub fn serve<R: BufRead, W: Write>(&self, input: R, out: W) -> io::Result<ServeExit> {
        self.shared.session(BufReader::new(input), out)
    }

    /// Binds `addr` and serves connections concurrently (one thread per
    /// admitted session) until a client sends `shutdown` or
    /// [`stop_handle`](Self::stop_handle) is set. Connections beyond
    /// `max_clients` receive a `busy` event and are closed; admitted
    /// sessions get the configured read/write deadlines.
    ///
    /// # Errors
    ///
    /// Propagates bind/accept errors; per-connection transport errors
    /// end that session only.
    pub fn serve_tcp(&self, addr: &str) -> io::Result<()> {
        let listener = TcpListener::bind(addr)?;
        eprintln!("ringmesh serve: listening on {}", listener.local_addr()?);
        listener.set_nonblocking(true)?;
        let shared = &self.shared;
        let outcome = std::thread::scope(|s| -> io::Result<()> {
            loop {
                if shared.stop.is_set() {
                    return Ok(());
                }
                match listener.accept() {
                    Ok((stream, peer)) => match shared.clients.try_enter() {
                        Some(permit) => {
                            s.spawn(move || {
                                let _permit = permit;
                                if let Err(e) = shared.connection(stream) {
                                    eprintln!("ringmesh serve: session {peer}: {e}");
                                }
                            });
                        }
                        None => {
                            // Shed the connection with a typed reply
                            // rather than letting it queue invisibly.
                            let deadline = Some(Duration::from_secs(5));
                            let _ = wire::prepare(&stream, POLL_TICK, deadline);
                            let _ = LineWriter::new(stream)
                                .line(busy_event("connections", shared.clients.limit()));
                        }
                    },
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(25));
                    }
                    Err(e) => return Err(e),
                }
            }
        });
        // All sessions have joined; make the journal durable before the
        // process (typically) exits.
        let _ = self.shared.journaled(|j| j.sync());
        outcome
    }

    /// Cache hit/miss totals so far (hits, misses).
    pub fn cache_counters(&self) -> (u64, u64) {
        let cache = self.shared.cache_lock();
        (cache.hits, cache.misses)
    }

    /// Malformed request lines seen across all sessions (drives the
    /// CLI's `ExitStatus::Protocol` path).
    pub fn protocol_errors(&self) -> u64 {
        self.shared.protocol_errors.load(Ordering::SeqCst)
    }

    /// Journaled jobs completed by startup recovery.
    pub fn recovered_jobs(&self) -> u64 {
        self.shared.recovered.load(Ordering::SeqCst)
    }

    /// Attaches a worker fleet. From then on, any batch with cache
    /// misses is dispatched through `runner` whenever it reports live
    /// workers (falling back to the local pool otherwise, or for tasks
    /// the fleet hands back unrun). At most one fleet may be attached;
    /// later calls are ignored.
    pub fn set_remote(&self, runner: Arc<dyn RemoteRunner>) {
        let _ = self.shared.remote.set(runner);
    }

    /// Hard determinism violations observed so far: duplicate remote
    /// runs of one content key that returned byte-different payloads.
    /// Non-zero drives the CLI's `ExitStatus::DeterminismViolation`.
    pub fn determinism_violations(&self) -> u64 {
        self.shared.determinism_violations.load(Ordering::SeqCst)
    }

    /// Holds one batch admission slot; while the guard lives, one fewer
    /// concurrent `run` is admitted. Lets tests exercise the `busy`
    /// path deterministically.
    #[doc(hidden)]
    pub fn hold_batch_slot(&self) -> Option<impl Drop + '_> {
        self.shared.batches.try_enter()
    }
}

impl Shared {
    fn cache_lock(&self) -> MutexGuard<'_, ResultCache> {
        self.cache.lock().expect("cache lock poisoned")
    }

    /// Runs one journal operation under the lock, timed as
    /// [`Stage::Journal`].
    fn journaled<T>(&self, op: impl FnOnce(&mut Journal) -> io::Result<T>) -> io::Result<T> {
        let t0 = Instant::now();
        let done = op(&mut self.journal.lock().expect("journal lock poisoned"));
        self.record(Stage::Journal, t0);
        done
    }

    /// Configures deadlines on an accepted socket and runs a session
    /// over it.
    fn connection(&self, stream: TcpStream) -> io::Result<()> {
        // Short read timeout = the poll tick; the idle deadline is
        // enforced in the session loop so the stop flag is still
        // observed promptly under a long (or absent) deadline.
        wire::prepare(&stream, POLL_TICK, self.opts.write_deadline)?;
        let reader = BufReader::new(stream.try_clone()?);
        if self.session(reader, stream)? == ServeExit::Shutdown {
            self.stop.set();
        }
        Ok(())
    }

    /// One request/response session over arbitrary byte streams.
    ///
    /// Replies the session produces without waiting in between —
    /// `accepted`, cached `result`s, the `batch` summary — are held and
    /// leave in one write when it is about to wait: for input (no
    /// further request line is buffered) or for a simulation.
    fn session<R: Read, W: Write>(&self, input: BufReader<R>, out: W) -> io::Result<ServeExit> {
        let mut reader = LineReader::new(input, MAX_LINE_BYTES);
        let out = &mut LineWriter::new(out);
        let mut pending: Vec<Pending> = Vec::new();
        let mut next_id = 0usize;
        let mut last_activity = Instant::now();
        // The `job` or `run` just answered, its reply held: timed once
        // the reply is written, or is known to leave with the next one.
        let mut answered: Option<(Stage, Instant)> = None;
        let exit = loop {
            if !reader.has_line() {
                self.flush(out)?;
            }
            if let Some((stage, since)) = answered.take() {
                self.record(stage, since);
            }
            if self.stop.is_set() {
                self.emit(
                    out,
                    obj(vec![
                        ("event", Json::Str("bye".into())),
                        ("reason", Json::Str("shutdown".into())),
                    ]),
                )?;
                break ServeExit::Terminated;
            }
            let line = match reader.next_line()? {
                LineRead::TimedOut => {
                    if let Some(deadline) = self.opts.read_deadline {
                        if last_activity.elapsed() >= deadline {
                            break ServeExit::IdleTimeout;
                        }
                    }
                    continue;
                }
                LineRead::Eof => break ServeExit::Quit,
                LineRead::Oversized => {
                    last_activity = Instant::now();
                    self.protocol_error(
                        out,
                        None,
                        &format!("request line exceeds the {MAX_LINE_BYTES}-byte limit"),
                    )?;
                    continue;
                }
                LineRead::Line(bytes) => {
                    last_activity = Instant::now();
                    match String::from_utf8(bytes) {
                        Ok(s) => s,
                        Err(_) => {
                            self.protocol_error(out, None, "request line is not valid UTF-8")?;
                            continue;
                        }
                    }
                }
            };
            if line.trim().is_empty() {
                continue;
            }
            let req = match Json::parse(&line) {
                Ok(v) => v,
                Err(e) => {
                    self.protocol_error(out, None, &format!("bad request: {e}"))?;
                    continue;
                }
            };
            match req.get("op").and_then(Json::as_str) {
                Some("job") => {
                    if pending.len() >= MAX_PENDING_JOBS {
                        self.emit(out, busy_event("jobs", MAX_PENDING_JOBS))?;
                        continue;
                    }
                    let default_id = format!("job-{next_id}");
                    match parse_job(&req, &default_id) {
                        Ok(spec) => {
                            next_id += 1;
                            let key = ResultCache::key(&spec.cfg);
                            let t0 = Instant::now();
                            let cached =
                                ResultCache::lookup_shared(&self.cache, &self.opts.cache_dir, key);
                            self.record(Stage::CacheLookup, t0);
                            out.hold(obj(vec![
                                ("event", Json::Str("accepted".into())),
                                ("id", Json::Str(spec.id.clone())),
                                ("key", Json::Str(hex64(key))),
                                ("cached", Json::Bool(cached.is_some())),
                            ]))?;
                            answered = Some((Stage::Accept, last_activity));
                            pending.push(Pending {
                                spec,
                                raw: req,
                                key,
                                cached,
                            });
                        }
                        Err(e) => self.protocol_error(out, req.get("id"), &e)?,
                    }
                }
                Some("run") => match self.batches.try_enter() {
                    Some(_permit) => {
                        let batch = std::mem::take(&mut pending);
                        self.run_batch(batch, out)?;
                        answered = Some((Stage::Batch, last_activity));
                    }
                    None => self.emit(out, busy_event("batches", self.batches.limit()))?,
                },
                Some("stats") => {
                    let (hits, misses, entries, bytes, quarantined, evicted, suppressed) = {
                        let cache = self.cache_lock();
                        (
                            cache.hits,
                            cache.misses,
                            cache.entries(),
                            cache.entry_bytes(),
                            cache.quarantined,
                            cache.evicted,
                            cache.suppressed_stores,
                        )
                    };
                    let mut members = vec![
                        ("event", Json::Str("stats".into())),
                        ("cache_hits", Json::Num(hits as f64)),
                        ("cache_misses", Json::Num(misses as f64)),
                        ("cache_entries", Json::Num(entries as f64)),
                        ("cache_bytes", Json::Num(bytes as f64)),
                        ("quarantined", Json::Num(quarantined as f64)),
                        ("evicted", Json::Num(evicted as f64)),
                        ("suppressed_stores", Json::Num(suppressed as f64)),
                        (
                            "recovered",
                            Json::Num(self.recovered.load(Ordering::SeqCst) as f64),
                        ),
                        ("pending", Json::Num(pending.len() as f64)),
                        (
                            "batches_in_flight",
                            Json::Num(self.batches.in_flight() as f64),
                        ),
                        (
                            "fleet_workers",
                            Json::Num(self.remote.get().map_or(0, |r| r.live_workers()) as f64),
                        ),
                        (
                            "determinism_violations",
                            Json::Num(self.determinism_violations.load(Ordering::SeqCst) as f64),
                        ),
                    ];
                    members.extend(self.latency_members());
                    self.emit(out, obj(members))?;
                }
                Some("quit") => {
                    self.emit(out, obj(vec![("event", Json::Str("bye".into()))]))?;
                    break ServeExit::Quit;
                }
                Some("shutdown") => {
                    self.emit(out, obj(vec![("event", Json::Str("bye".into()))]))?;
                    break ServeExit::Shutdown;
                }
                other => {
                    let msg = match other {
                        Some(op) => format!("unknown op '{op}'"),
                        None => "missing 'op' field".to_string(),
                    };
                    self.protocol_error(out, None, &msg)?;
                }
            }
        };
        // Session boundary: make the journal durable whatever happens
        // to the process next.
        let _ = self.journaled(|j| j.sync());
        Ok(exit)
    }

    /// Emits a typed protocol `error` event and counts it toward the
    /// CLI's `ExitStatus::Protocol` path. The session always continues.
    fn protocol_error<W: Write>(
        &self,
        out: &mut LineWriter<W>,
        id: Option<&Json>,
        message: &str,
    ) -> io::Result<()> {
        self.protocol_errors.fetch_add(1, Ordering::SeqCst);
        self.emit(out, error_event(id, "protocol", message))
    }

    /// Completes journaled work a dead server left behind: re-runs each
    /// job (resuming from its checkpoint where one exists), stores the
    /// results, and closes the recovery batch.
    fn recover(&self, recovery: Recovery) -> io::Result<()> {
        let mut runnable: Vec<(u64, SystemConfig)> = Vec::new();
        for job in &recovery.jobs {
            match parse_job(&job.spec, "recovered") {
                // The key must still match: a code-version bump (or a
                // protocol change) means the journaled promise is from
                // another world — drop it and let clients resubmit.
                Ok(spec) if ResultCache::key(&spec.cfg) == job.key => {
                    runnable.push((job.key, spec.cfg));
                }
                _ => {
                    eprintln!(
                        "ringmesh serve: dropping unreplayable journal entry {}",
                        hex64(job.key)
                    );
                    self.journaled(|j| j.record_done(job.key))?;
                }
            }
        }
        if !runnable.is_empty() {
            eprintln!(
                "ringmesh serve: recovering {} journaled job(s) from an unclean shutdown",
                runnable.len()
            );
        }
        let window = self.opts.window_cycles.max(1);
        let outcomes = self.pool.map(runnable, |_, (key, cfg)| {
            let ckpt = ResultCache::checkpoint_path_in(&self.opts.cache_dir, key);
            let outcome = run_job(
                &cfg,
                window,
                self.opts.checkpoint_every,
                Some(&ckpt),
                Some(&self.stop),
                &mut |_| {},
            );
            (key, cfg, outcome)
        });
        let mut interrupted = false;
        for (key, cfg, outcome) in outcomes {
            match outcome {
                Ok(o) => {
                    let payload = result_payload(&cfg, &o.result, key);
                    self.cache_lock().store(key, &payload)?;
                    self.journaled(|j| j.record_done(key))?;
                    self.recovered.fetch_add(1, Ordering::SeqCst);
                }
                Err(JobError::Interrupted) => interrupted = true, // still pending; checkpointed
                Err(JobError::Failed(e)) => {
                    eprintln!("ringmesh serve: recovery of {} failed: {e}", hex64(key));
                    self.journaled(|j| j.record_done(key))?;
                }
            }
        }
        if !interrupted {
            self.journaled(|j| j.end_batch(recovery.batch))?;
        }
        Ok(())
    }

    /// Runs one batch: instant cache hits, misses on the local pool or
    /// the attached fleet, streamed windows and lifecycle events,
    /// journaled crash safety, results merged in submission order,
    /// closing summary.
    fn run_batch<W: Write>(&self, batch: Vec<Pending>, out: &mut LineWriter<W>) -> io::Result<()> {
        // Plan each job. Work items carry everything either lane needs.
        let mut plans: Vec<Plan> = Vec::with_capacity(batch.len());
        let mut work: Vec<WorkItem> = Vec::new();
        for p in &batch {
            let earlier = work.iter().position(|w| w.key == p.key);
            match (&p.cached, earlier) {
                (_, Some(w)) => plans.push(Plan::Alias(w)),
                (Some(payload), None) => {
                    if self.selected_for_verify(p.key) {
                        work.push(WorkItem {
                            id: p.spec.id.clone(),
                            cfg: p.spec.cfg.clone(),
                            key: p.key,
                            raw: p.raw.clone(),
                        });
                        plans.push(Plan::Verify(payload.clone(), work.len() - 1));
                    } else {
                        plans.push(Plan::Hit(payload.clone()));
                    }
                }
                (None, None) => {
                    work.push(WorkItem {
                        id: p.spec.id.clone(),
                        cfg: p.spec.cfg.clone(),
                        key: p.key,
                        raw: p.raw.clone(),
                    });
                    plans.push(Plan::Work(work.len() - 1));
                }
            }
        }

        // Journal the fresh computes (not verify re-runs — the cache
        // already holds their results) before any of them start: after
        // this fsync a SIGKILL anywhere in the batch is recoverable.
        let journaled: Vec<(u64, Json)> = batch
            .iter()
            .zip(&plans)
            .filter(|(_, plan)| matches!(plan, Plan::Work(_)))
            .map(|(p, _)| (p.key, p.raw.clone()))
            .collect();
        let journal_batch = if journaled.is_empty() {
            None
        } else {
            Some(self.journaled(|j| j.begin_batch(&journaled))?)
        };

        // Answer pure hits first, in submission order; they are on the
        // wire before the first miss starts to simulate.
        for (p, plan) in batch.iter().zip(&plans) {
            if let Plan::Hit(payload) = plan {
                self.emit_result(out, &p.spec.id, payload, true, false)?;
            }
        }
        if !work.is_empty() {
            self.flush(out)?;
        }

        // Simulate the rest: on the attached fleet when it has live
        // workers, on the local pool otherwise. Either lane streams
        // progress as it goes and returns one terminal outcome per work
        // item; result emission happens below in submission order, so
        // the client-visible stream is identical whichever lane ran the
        // work (and however many workers died along the way).
        let runner = self
            .remote
            .get()
            .filter(|r| !work.is_empty() && r.live_workers() > 0)
            .cloned();
        let outcomes: Vec<WorkOutcome> = match runner {
            Some(runner) => self.run_remote(&*runner, &work, out)?,
            None => self.run_local(&work, out),
        };

        // Post-run accounting in submission order: emit results, store
        // fresh ones, diff verified hits, fold the batch fingerprint.
        // Client writes are best-effort from here: a peer that vanished
        // mid-batch must not stop results from reaching the cache and
        // the journal (the work is already paid for).
        let mut write_err: Option<io::Error> = None;
        let mut best_effort = |r: io::Result<()>| {
            if let (Err(e), None) = (r, write_err.as_ref().map(|_| ())) {
                write_err = Some(e);
            }
        };
        let mut fp = Fingerprint::new();
        let mut hits = 0u64;
        let mut misses = 0u64;
        let mut verified = 0u64;
        let mut mismatches = 0u64;
        let mut errors = 0u64;
        let mut interrupted = 0u64;
        for (p, plan) in batch.iter().zip(&plans) {
            match plan {
                Plan::Hit(payload) => {
                    hits += 1;
                    fp.write_str(payload);
                }
                Plan::Work(w) => match &outcomes[*w] {
                    Ok((payload, resumed)) => {
                        misses += 1;
                        best_effort(self.emit_result(out, &p.spec.id, payload, false, *resumed));
                        let struck = {
                            let mut cache = self.cache_lock();
                            let struck = cache.struck_out(p.key).then(|| cache.strikes(p.key));
                            if let Err(e) = cache.store(p.key, payload) {
                                drop(cache);
                                best_effort(self.emit(
                                    out,
                                    error_event_str(
                                        &p.spec.id,
                                        "cache",
                                        &format!("cache store: {e}"),
                                    ),
                                ));
                            }
                            struck
                        };
                        if let Some(strikes) = struck {
                            best_effort(self.emit(out, warn_event(&p.spec.id, p.key, strikes)));
                        }
                        self.journaled(|j| j.record_done(p.key))?;
                        fp.write_str(payload);
                    }
                    Err(JobError::Interrupted) => {
                        interrupted += 1;
                        best_effort(self.emit(
                            out,
                            error_event_str(
                                &p.spec.id,
                                "interrupted",
                                "shutdown before completion; progress checkpointed — resubmit to resume",
                            ),
                        ));
                        fp.write_str("interrupted");
                    }
                    Err(JobError::Failed(e)) => {
                        errors += 1;
                        best_effort(self.emit(out, error_event_str(&p.spec.id, "run", e)));
                        self.journaled(|j| j.record_done(p.key))?;
                        fp.write_str(&format!("error:{e}"));
                    }
                },
                Plan::Verify(cached, w) => match &outcomes[*w] {
                    // A verification re-run is still a cache hit from
                    // the client's point of view — it serves the
                    // *stored* payload so hits stay byte-stable even
                    // when the entry turns out to be stale.
                    Ok((payload, _)) => {
                        hits += 1;
                        best_effort(self.emit_result(out, &p.spec.id, cached, true, false));
                        if payload == cached {
                            verified += 1;
                        } else {
                            mismatches += 1;
                            best_effort(self.emit(
                                out,
                                error_event_str(
                                    &p.spec.id,
                                    "cache",
                                    "cache verification mismatch: stored payload differs from re-run",
                                ),
                            ));
                            // Trust the fresh run over the stale entry.
                            let _ = self.cache_lock().store(p.key, payload);
                        }
                        fp.write_str(payload);
                    }
                    Err(JobError::Interrupted) => {
                        // Verification was cut short; the stored entry
                        // is still the answer.
                        hits += 1;
                        best_effort(self.emit_result(out, &p.spec.id, cached, true, false));
                        fp.write_str(cached);
                    }
                    Err(JobError::Failed(e)) => {
                        errors += 1;
                        fp.write_str(&format!("error:{e}"));
                    }
                },
                Plan::Alias(w) => match &outcomes[*w] {
                    Ok((payload, _)) => {
                        hits += 1; // answered from this batch's own work
                        best_effort(self.emit_result(out, &p.spec.id, payload, true, false));
                        fp.write_str(payload);
                    }
                    Err(JobError::Interrupted) => {
                        interrupted += 1;
                        best_effort(self.emit(
                            out,
                            error_event_str(
                                &p.spec.id,
                                "interrupted",
                                "shutdown before completion; progress checkpointed — resubmit to resume",
                            ),
                        ));
                        fp.write_str("interrupted");
                    }
                    Err(JobError::Failed(e)) => {
                        errors += 1;
                        best_effort(self.emit(out, error_event_str(&p.spec.id, "run", e)));
                        fp.write_str(&format!("error:{e}"));
                    }
                },
            }
        }
        {
            let mut cache = self.cache_lock();
            cache.hits += hits;
            cache.misses += misses;
        }
        if let Some(n) = journal_batch {
            if interrupted == 0 {
                self.journaled(|j| j.end_batch(n))?;
            }
        }
        if let Some(budget) = self.opts.cache_budget {
            self.cache_lock().evict_to_budget(budget)?;
        }

        let summary = out.hold(obj(vec![
            ("event", Json::Str("batch".into())),
            ("jobs", Json::Num(batch.len() as f64)),
            ("cache_hits", Json::Num(hits as f64)),
            ("cache_misses", Json::Num(misses as f64)),
            ("verified", Json::Num(verified as f64)),
            ("mismatches", Json::Num(mismatches as f64)),
            ("errors", Json::Num(errors as f64)),
            ("interrupted", Json::Num(interrupted as f64)),
            ("fingerprint", Json::Str(hex64(fp.finish()))),
        ]));
        match write_err {
            Some(e) => Err(e),
            None => summary,
        }
    }

    /// Runs work items on the local [`WorkerPool`], streaming `window`
    /// events as workers progress. Returns one terminal outcome per
    /// item; results and errors are emitted later, in submission order.
    fn run_local<W: Write>(&self, work: &[WorkItem], out: &mut LineWriter<W>) -> Vec<WorkOutcome> {
        let window = self.opts.window_cycles;
        let checkpoint_every = self.opts.checkpoint_every;
        let cache_dir = &self.opts.cache_dir;
        let stop = &self.stop;
        let sink = RefCell::new(out);
        self.pool.run_jobs(
            work.to_vec(),
            |_, item: WorkItem, progress| {
                let ckpt = ResultCache::checkpoint_path_in(cache_dir, item.key);
                let t0 = Instant::now();
                let outcome = run_job(
                    &item.cfg,
                    window,
                    checkpoint_every,
                    Some(&ckpt),
                    Some(stop),
                    progress,
                );
                self.record(Stage::Simulate, t0);
                let outcome = outcome?;
                Ok((
                    result_payload(&item.cfg, &outcome.result, item.key),
                    outcome.resumed,
                ))
            },
            |i, w: WindowEvent| {
                let _ = self.emit(&mut sink.borrow_mut(), window_event(&work[i].id, &w));
            },
            |_, _: &WorkOutcome| {},
        )
    }

    /// Dispatches work items to the attached fleet: relays its lease /
    /// window / retry / speculate lifecycle to the client, journals
    /// every lease grant for the post-mortem audit trail, counts
    /// determinism violations, and falls back to the local pool for any
    /// task the fleet hands back unrun (all workers died, retry budget
    /// drained) so a batch always reaches the same terminal outcomes a
    /// single-process server would produce.
    ///
    /// # Errors
    ///
    /// Propagates journal write failures; client writes are
    /// best-effort.
    fn run_remote<W: Write>(
        &self,
        runner: &dyn RemoteRunner,
        work: &[WorkItem],
        out: &mut LineWriter<W>,
    ) -> io::Result<Vec<WorkOutcome>> {
        let tasks: Vec<RemoteTask> = work
            .iter()
            .map(|w| RemoteTask {
                id: w.id.clone(),
                key: w.key,
                spec: w.raw.clone(),
            })
            .collect();
        let mut journal_err: Option<io::Error> = None;
        let raw = {
            let journal_err = &mut journal_err;
            let mut events = |ev: RemoteEvent| {
                let line = match ev {
                    RemoteEvent::Lease {
                        task,
                        worker,
                        attempt,
                        lease_ms,
                    } => {
                        let item = &work[task];
                        if let Err(e) =
                            self.journaled(|j| j.record_lease(item.key, worker, attempt, lease_ms))
                        {
                            journal_err.get_or_insert(e);
                        }
                        obj(vec![
                            ("event", Json::Str("lease".into())),
                            ("id", Json::Str(item.id.clone())),
                            ("worker", Json::Num(worker as f64)),
                            ("attempt", Json::Num(f64::from(attempt))),
                            ("lease_ms", Json::Num(lease_ms as f64)),
                        ])
                    }
                    RemoteEvent::Window {
                        task,
                        cycle,
                        issued,
                        retired,
                    } => window_event(
                        &work[task].id,
                        &WindowEvent {
                            cycle,
                            issued,
                            retired,
                        },
                    ),
                    RemoteEvent::Retry {
                        task,
                        attempt,
                        reason,
                        backoff_ms,
                    } => obj(vec![
                        ("event", Json::Str("retry".into())),
                        ("id", Json::Str(work[task].id.clone())),
                        ("attempt", Json::Num(f64::from(attempt))),
                        ("reason", Json::Str(reason)),
                        ("backoff_ms", Json::Num(backoff_ms as f64)),
                    ]),
                    RemoteEvent::Speculate { task, worker } => obj(vec![
                        ("event", Json::Str("speculate".into())),
                        ("id", Json::Str(work[task].id.clone())),
                        ("worker", Json::Num(worker as f64)),
                    ]),
                };
                let _ = self.emit(out, line);
            };
            runner.run_tasks(tasks, &self.stop, &mut events)
        };
        if let Some(e) = journal_err {
            return Err(e);
        }
        debug_assert_eq!(raw.len(), work.len(), "one outcome per task");
        let mut outcomes: Vec<Option<WorkOutcome>> = Vec::with_capacity(work.len());
        let mut fallback: Vec<usize> = Vec::new();
        for (i, o) in raw.into_iter().enumerate() {
            outcomes.push(match o {
                RemoteOutcome::Done { payload } => Some(Ok((payload, false))),
                RemoteOutcome::Failed(e) => Some(Err(JobError::Failed(e))),
                RemoteOutcome::Divergent { first, second } => {
                    self.determinism_violations.fetch_add(1, Ordering::SeqCst);
                    let msg = format!(
                        "determinism violation: duplicate runs of key {} returned \
                         different payloads ({} vs {})",
                        hex64(work[i].key),
                        hex64(first),
                        hex64(second)
                    );
                    eprintln!("ringmesh serve: {msg}");
                    Some(Err(JobError::Failed(msg)))
                }
                RemoteOutcome::Unrun if self.stop.is_set() => Some(Err(JobError::Interrupted)),
                RemoteOutcome::Unrun => {
                    fallback.push(i);
                    None
                }
            });
        }
        if !fallback.is_empty() {
            let _ = self.emit(
                out,
                obj(vec![
                    ("event", Json::Str("fallback".into())),
                    ("jobs", Json::Num(fallback.len() as f64)),
                    (
                        "reason",
                        Json::Str("fleet could not finish; running locally".into()),
                    ),
                ]),
            );
            let items: Vec<WorkItem> = fallback.iter().map(|&i| work[i].clone()).collect();
            let local = self.run_local(&items, out);
            for (slot, r) in fallback.into_iter().zip(local) {
                outcomes[slot] = Some(r);
            }
        }
        Ok(outcomes
            .into_iter()
            .map(|o| o.expect("every task reaches a terminal outcome"))
            .collect())
    }

    /// Adds the time since `since` to the histogram of `stage`.
    fn record(&self, stage: Stage, since: Instant) {
        let us = since.elapsed().as_secs_f64() * 1e6;
        self.latencies.lock().expect("latency lock poisoned")[stage as usize].record(us);
    }

    /// One `{p50, p90, p99, count}` member per [`Stage`], microseconds.
    fn latency_members(&self) -> Vec<(&'static str, Json)> {
        let latencies = self.latencies.lock().expect("latency lock poisoned");
        let summary = |h: &Histogram| {
            let q = |q| Json::Num(h.quantile(q).unwrap_or(0.0));
            obj(vec![
                ("p50", q(0.5)),
                ("p90", q(0.9)),
                ("p99", q(0.99)),
                ("count", Json::Num(h.len() as f64)),
            ])
        };
        STAGE_NAMES
            .iter()
            .zip(latencies.iter())
            .map(|(name, h)| (*name, summary(h)))
            .collect()
    }

    /// Writes one event line now, behind whatever is held (see
    /// [`wire`]: whole lines, one write).
    fn emit<W: Write>(&self, out: &mut LineWriter<W>, event: impl Display) -> io::Result<()> {
        let t0 = Instant::now();
        let written = out.line(event);
        self.record(Stage::Emit, t0);
        written
    }

    /// Writes out the held replies, if there are any.
    fn flush<W: Write>(&self, out: &mut LineWriter<W>) -> io::Result<()> {
        if !out.holds_lines() {
            return Ok(());
        }
        let t0 = Instant::now();
        let written = out.flush();
        self.record(Stage::Emit, t0);
        written
    }

    /// Writes a `result` event with the payload embedded under
    /// `"data"`. The payload is spliced in verbatim — it is already
    /// serialized JSON and must stay byte-identical between cached and
    /// fresh emission. A cached result is held (more of them, or the
    /// `batch` summary, follow at once); a computed one is written now.
    fn emit_result<W: Write>(
        &self,
        out: &mut LineWriter<W>,
        id: &str,
        payload: &str,
        cached: bool,
        resumed: bool,
    ) -> io::Result<()> {
        let head = obj(vec![
            ("event", Json::Str("result".into())),
            ("id", Json::Str(id.to_string())),
            ("cached", Json::Bool(cached)),
            ("resumed", Json::Bool(resumed)),
        ])
        .to_string();
        // head is "{...}"; replace the closing brace with ,"data":payload}.
        let head = &head[..head.len() - 1];
        let event = format_args!("{head},\"data\":{payload}}}");
        if cached {
            out.hold(event)
        } else {
            self.emit(out, event)
        }
    }

    /// Deterministic verification sampling: stable in the key, so the
    /// same job is either always or never re-checked at a given
    /// fraction.
    fn selected_for_verify(&self, key: u64) -> bool {
        let f = self.opts.verify_fraction.clamp(0.0, 1.0);
        (key % 10_000) < (f * 10_000.0) as u64
    }
}

/// The canonical result payload for one completed job. Deterministic by
/// construction (insertion-ordered members, shortest-round-trip floats)
/// so equal results serialize to byte-identical text — remote workers
/// build their payloads through this exact function, which is what lets
/// the coordinator hash-compare duplicate attempts byte for byte.
pub fn result_payload(cfg: &SystemConfig, r: &RunResult, key: u64) -> String {
    let mut members = vec![
        ("schema", Json::Str("ringmesh-serve/1".into())),
        ("key", Json::Str(hex64(key))),
        ("config", Json::Str(cfg.canonical())),
        ("network", Json::Str(cfg.network.label())),
        ("pms", Json::Num(r.pms as f64)),
        (
            "latency",
            obj(vec![
                ("mean", Json::Num(r.latency.mean)),
                ("ci95", Json::Num(r.latency.ci95)),
                ("std_dev", Json::Num(r.latency.std_dev)),
                ("min", Json::Num(r.latency.min)),
                ("max", Json::Num(r.latency.max)),
                ("batches", Json::Num(r.latency.n as f64)),
            ]),
        ),
    ];
    if let Some((p50, p95, p99)) = r.percentiles {
        members.push((
            "percentiles",
            obj(vec![
                ("p50", Json::Num(p50)),
                ("p95", Json::Num(p95)),
                ("p99", Json::Num(p99)),
            ]),
        ));
    }
    members.push(("throughput", Json::Num(r.throughput)));
    members.push(("utilization", Json::Num(r.utilization.overall)));
    members.push((
        "levels",
        Json::Arr(
            r.utilization
                .levels
                .iter()
                .map(|l| {
                    obj(vec![
                        ("label", Json::Str(l.label.clone())),
                        ("utilization", Json::Num(l.utilization)),
                    ])
                })
                .collect(),
        ),
    ));
    members.push(("issued", Json::Num(r.workload.issued as f64)));
    members.push(("retired", Json::Num(r.workload.retired as f64)));
    members.push(("fingerprint", Json::Str(hex64(r.fingerprint()))));
    obj(members).to_string()
}

/// Windowed-progress event for one job, identical whichever lane
/// (local pool or remote worker) produced the window.
fn window_event(id: &str, w: &WindowEvent) -> Json {
    obj(vec![
        ("event", Json::Str("window".into())),
        ("id", Json::Str(id.to_string())),
        ("cycle", Json::Num(w.cycle as f64)),
        ("issued", Json::Num(w.issued as f64)),
        ("retired", Json::Num(w.retired as f64)),
    ])
}

/// Non-fatal advisory: the key's cache slot keeps corrupting, so the
/// server stopped rewriting it and answers by recomputation.
fn warn_event(id: &str, key: u64, strikes: u32) -> Json {
    obj(vec![
        ("event", Json::Str("warn".into())),
        ("id", Json::Str(id.to_string())),
        ("code", Json::Str("cache-backoff".into())),
        (
            "message",
            Json::Str(format!(
                "cache slot for key {} quarantined {strikes} times; \
                 store suppressed, serving by recomputation",
                hex64(key)
            )),
        ),
    ])
}

/// Typed load-shedding event: `scope` names the saturated limit.
fn busy_event(scope: &str, limit: usize) -> Json {
    obj(vec![
        ("event", Json::Str("busy".into())),
        ("scope", Json::Str(scope.to_string())),
        ("limit", Json::Num(limit as f64)),
        ("retry", Json::Bool(true)),
    ])
}

fn error_event(id: Option<&Json>, code: &str, message: &str) -> Json {
    let mut members = vec![("event", Json::Str("error".into()))];
    if let Some(Json::Str(id)) = id {
        members.push(("id", Json::Str(id.clone())));
    }
    members.push(("code", Json::Str(code.to_string())));
    members.push(("message", Json::Str(message.to_string())));
    obj(members)
}

fn error_event_str(id: &str, code: &str, message: &str) -> Json {
    obj(vec![
        ("event", Json::Str("error".into())),
        ("id", Json::Str(id.to_string())),
        ("code", Json::Str(code.to_string())),
        ("message", Json::Str(message.to_string())),
    ])
}
