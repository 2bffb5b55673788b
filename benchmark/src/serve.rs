//! `serve_cold` and `serve_cached`: the spawned release binary driven
//! over TCP by closed-loop clients.
//!
//! Closed loop, stated: each client sends its next batch only after it
//! has read the previous batch's `batch` event. Clients set
//! `TCP_NODELAY`, send a whole batch in one `write`, and connect once
//! in set-up.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ringmesh_serve::json::Json;

use crate::clock::Clock;
use crate::inputs::{
    cached_keys, cold_batch, mix, serve_job_cycles, ServeJob, CACHED_BATCH_JOBS, CACHED_KEYS,
    SERVE_TOPOLOGIES,
};
use crate::layers::{self, Case, Scratch};
use crate::point::{check_spans, sim_metrics, snapshot_probe, traced_run, LoopTimes};
use crate::procfs;
use crate::report::{Better, Checks, Metric, Report};
use crate::stats::{median, tail_percentile};
use crate::trace::Trace;
use crate::Ctx;

/// Seconds of closed-loop traffic before the timed window opens.
const WARMUP_S: f64 = 1.0;

/// Longest a client waits for one event line before giving the server
/// up for hung.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// `job` -> `accepted` round trips behind `serve.client.accept_us`.
/// Few, because at the parent commit each one stalls 40 ms on the
/// socket.
const ACCEPT_PINGS: usize = 40;

/// Cached batches sent through stdin/stdout.
const STDIO_BATCHES: usize = 100;

/// A spawned `ringmesh serve`, killed and reaped when dropped, panic
/// or not.
struct ServerProc {
    child: Child,
    stderr: Option<JoinHandle<String>>,
}

impl ServerProc {
    /// Spawns `ringmesh serve` over `cache_dir` with `W` worker
    /// threads. With `listen`, waits for the `listening on` line and
    /// returns the address; without, the server talks on its pipes.
    fn spawn(
        bin: &Path,
        cache_dir: &Path,
        width: usize,
        listen: bool,
    ) -> Result<(ServerProc, Option<String>), String> {
        let mut cmd = Command::new(bin);
        cmd.arg("serve")
            .args(["--threads", &width.to_string()])
            .args(["--max-batches", "2"])
            .arg("--cache")
            .arg(cache_dir)
            .stderr(Stdio::piped());
        if listen {
            cmd.args(["--listen", "127.0.0.1:0"])
                .stdin(Stdio::null())
                .stdout(Stdio::null());
        } else {
            cmd.stdin(Stdio::piped()).stdout(Stdio::piped());
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut proc = ServerProc {
            child,
            stderr: None,
        };
        let mut addr = None;
        let mut seen = String::new();
        while listen && addr.is_none() {
            let mut line = String::new();
            match stderr.read_line(&mut line) {
                Ok(n) if n > 0 => {
                    addr = line
                        .trim()
                        .strip_prefix("ringmesh serve: listening on ")
                        .map(str::to_string);
                    seen.push_str(&line);
                }
                _ => return Err(format!("the server ended before listening: {seen}")),
            }
        }
        // Keep the pipe drained so the server can never block on it.
        proc.stderr = Some(std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = stderr.read_to_string(&mut rest);
            rest
        }));
        Ok((proc, addr))
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Waits for the server to end by itself; true when it exited 0.
    fn wait_clean(mut self) -> Result<bool, String> {
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for the server: {e}"))?;
        if let Some(t) = self.stderr.take() {
            let _ = t.join();
        }
        Ok(status.success())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // After `wait_clean` these are no-ops on a reaped child.
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(t) = self.stderr.take() {
            let _ = t.join();
        }
    }
}

/// One side of a conversation with the server: line in, lines out.
struct Conn<R, W> {
    reader: BufReader<R>,
    writer: W,
}

type TcpConn = Conn<TcpStream, TcpStream>;

fn connect(addr: &str) -> Result<TcpConn, String> {
    let e = |e: std::io::Error| format!("connecting to {addr}: {e}");
    let stream = TcpStream::connect(addr).map_err(e)?;
    stream.set_nodelay(true).map_err(e)?;
    stream.set_read_timeout(Some(READ_TIMEOUT)).map_err(e)?;
    Ok(Conn {
        reader: BufReader::new(stream.try_clone().map_err(e)?),
        writer: stream,
    })
}

/// When the parts of one request/response exchange happened.
#[derive(Debug, Clone, Copy)]
struct Stamps {
    send: Instant,
    sent: Instant,
    first: Instant,
    done: Instant,
}

impl Stamps {
    fn latency_s(&self) -> f64 {
        (self.done - self.send).as_secs_f64()
    }
}

impl<R: Read, W: Write> Conn<R, W> {
    fn send(&mut self, text: &str) -> Result<(), String> {
        self.writer
            .write_all(text.as_bytes())
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("writing to the server: {e}"))
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("the server closed the connection".into()),
            Ok(_) => Ok(line),
            Err(e) => Err(format!("reading from the server: {e}")),
        }
    }

    /// Sends `request` in one write and reads event lines through the
    /// one that starts with `last` (or a `busy` refusal of the `run`,
    /// after which nothing more would come).
    fn exchange(&mut self, request: &str, last: &str) -> Result<(Stamps, Vec<String>), String> {
        let send = Instant::now();
        self.send(request)?;
        let sent = Instant::now();
        let mut first = None;
        let mut lines = Vec::new();
        loop {
            let line = self.read_line()?;
            let now = Instant::now();
            first.get_or_insert(now);
            let end = line.starts_with(last)
                || (line.starts_with("{\"event\":\"busy\"") && line.contains("\"batches\""));
            lines.push(line);
            if end {
                let stamps = Stamps {
                    send,
                    sent,
                    first: first.expect("set on the first line"),
                    done: now,
                };
                return Ok((stamps, lines));
            }
        }
    }
}

const BATCH_EVENT: &str = "{\"event\":\"batch\"";

/// The request for one batch: its job lines, then `run`.
fn batch_request(jobs: &[ServeJob]) -> String {
    let mut text = String::new();
    for j in jobs {
        text.push_str(&j.line());
        text.push('\n');
    }
    text.push_str("{\"op\":\"run\"}\n");
    text
}

/// The value of a string member of an event line. Ids and digests hold
/// no escapes, so a scan is enough.
fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let at = line.find(&format!("\"{key}\":\""))? + key.len() + 4;
    Some(&line[at..at + line[at..].find('"')?])
}

/// The payload of a `result` line, exactly as the server spliced it in.
fn payload(line: &str) -> Option<&str> {
    let at = line.find(",\"data\":")? + 8;
    line.trim_end().strip_suffix('}').map(|l| &l[at..])
}

/// What a set of batches added up to.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    batches: u64,
    results: u64,
    windows: u64,
    busy: u64,
    errors: u64,
}

impl Tally {
    fn add(&mut self, o: Tally) {
        self.batches += o.batches;
        self.results += o.results;
        self.windows += o.windows;
        self.busy += o.busy;
        self.errors += o.errors;
    }
}

/// Checks the events of one batch against the jobs that were sent:
/// every job gets exactly one `result`, with the `cached` flag the
/// workload expects and — where the payload is known from set-up —
/// the same bytes; no `busy`, no `error`; the `batch` event's counts
/// add up. One check per job, one per batch.
fn check_batch(
    jobs: &[ServeJob],
    lines: &[String],
    cached: bool,
    known: Option<&HashMap<String, String>>,
    checks: &mut Checks,
) -> Tally {
    let mut tally = Tally {
        batches: 1,
        ..Tally::default()
    };
    let mut results: HashMap<&str, Vec<&str>> = HashMap::new();
    for line in lines {
        match str_field(line, "event") {
            Some("result") => {
                tally.results += 1;
                results
                    .entry(str_field(line, "id").unwrap_or(""))
                    .or_default()
                    .push(line);
            }
            Some("window") => tally.windows += 1,
            Some("busy") => tally.busy += 1,
            Some("error") => tally.errors += 1,
            _ => {}
        }
    }
    for job in jobs {
        let got = results.get(job.id.as_str()).map_or(&[][..], Vec::as_slice);
        let flag = format!("\"cached\":{cached}");
        let same_bytes = |line: &str| {
            known.is_none_or(|k| k.get(&job.key()).map(String::as_str) == payload(line))
        };
        let ok = got.len() == 1 && got[0].contains(&flag) && same_bytes(got[0]);
        checks.check(ok, || {
            format!(
                "job {}: {} result(s), wanted one with {flag}{}",
                job.id,
                got.len(),
                if known.is_some() {
                    " and the payload stored in set-up"
                } else {
                    ""
                }
            )
        });
    }
    let n = jobs.len() as u64;
    let (want_hits, want_misses) = if cached { (n, 0) } else { (0, n) };
    let summary = lines
        .last()
        .filter(|l| l.starts_with(BATCH_EVENT))
        .and_then(|l| Json::parse(l).ok());
    let count = |key: &str| summary.as_ref()?.get(key)?.as_u64();
    let ok = tally.busy == 0
        && tally.errors == 0
        && count("jobs") == Some(n)
        && count("cache_hits") == Some(want_hits)
        && count("cache_misses") == Some(want_misses)
        && count("errors") == Some(0);
    checks.check(ok, || {
        format!(
            "batch of {n}: {} busy, {} error event(s); batch event: {}",
            tally.busy,
            tally.errors,
            lines.last().map_or("none", |l| l.trim_end())
        )
    });
    tally
}

impl ServeJob {
    /// What identifies the job's result: kind and seed.
    fn key(&self) -> String {
        format!("{}#{}", self.topology, self.seed)
    }
}

/// The two workloads differ in what a batch is and in what they expect
/// of the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Cold,
    Cached,
}

impl Kind {
    fn of(name: &str) -> Kind {
        if name == "serve_cold" {
            Kind::Cold
        } else {
            Kind::Cached
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::Cold => "serve_cold",
            Kind::Cached => "serve_cached",
        }
    }

    /// Set-ups per run; the median is `setup_s` and the last one is
    /// measured on. A cold set-up is two milliseconds of process
    /// spawning and jitters accordingly, so many of those; storing 64
    /// keys takes a second, so few of these.
    fn setups(self, ctx: &Ctx) -> usize {
        match self {
            Kind::Cold => ctx.scaled(9, 1),
            Kind::Cached => ctx.scaled(3, 1),
        }
    }

    fn batch_jobs(self) -> usize {
        match self {
            Kind::Cold => SERVE_TOPOLOGIES.len(),
            Kind::Cached => CACHED_BATCH_JOBS,
        }
    }

    /// Batch `batch` of client `client`.
    fn batch(self, seed: u64, keys: &[ServeJob], client: u64, batch: u64) -> Vec<ServeJob> {
        match self {
            Kind::Cold => cold_batch(seed, client, batch),
            // Round-robin over the stored keys, the clients half the
            // ring apart.
            Kind::Cached => (0..CACHED_BATCH_JOBS)
                .map(|j| {
                    let at =
                        client as usize * (keys.len() / 2) + batch as usize * CACHED_BATCH_JOBS + j;
                    let key = &keys[at % keys.len()];
                    ServeJob {
                        id: format!("c{client}-b{batch}-j{j}"),
                        ..key.clone()
                    }
                })
                .collect(),
        }
    }
}

/// A server that is up, with its clients connected and — for
/// `serve_cached` — its 64 keys stored.
struct Session {
    kind: Kind,
    server: ServerProc,
    clients: Vec<TcpConn>,
    keys: Vec<ServeJob>,
    /// Payload of every stored key, by [`ServeJob::key`].
    stored: HashMap<String, String>,
    /// Owns (and in the end removes) the cache directory.
    cache: Scratch,
}

impl Session {
    /// Spawn -> `listening on` line -> clients connected (-> 64 keys
    /// stored): what `setup_s` times.
    fn start(kind: Kind, ctx: &Ctx, checks: &mut Checks) -> Result<Session, String> {
        let bin = ctx
            .ringmesh_bin
            .as_deref()
            .ok_or("the serve workloads need --ringmesh-bin (run.sh passes it)")?;
        let tag = if kind == Kind::Cold { "cold" } else { "cached" };
        let cache = Scratch::new(&ctx.out_dir, tag)?;
        let (server, addr) = ServerProc::spawn(bin, &cache.0, ctx.width, true)?;
        let addr = addr.expect("a listening server reports its address");
        let clients = (0..ctx.width.min(2))
            .map(|_| connect(&addr))
            .collect::<Result<Vec<_>, _>>()?;
        let mut session = Session {
            kind,
            server,
            clients,
            keys: Vec::new(),
            stored: HashMap::new(),
            cache,
        };
        if kind == Kind::Cached {
            session.keys = cached_keys(ctx.seed);
            session
                .keys
                .truncate(ctx.scaled(CACHED_KEYS, CACHED_BATCH_JOBS));
            for chunk in session.keys.chunks(CACHED_BATCH_JOBS) {
                let (_, lines) = session.clients[0].exchange(&batch_request(chunk), BATCH_EVENT)?;
                check_batch(chunk, &lines, false, None, checks);
                for job in chunk {
                    let line = lines.iter().find(|l| {
                        str_field(l, "event") == Some("result")
                            && str_field(l, "id") == Some(job.id.as_str())
                    });
                    if let Some(p) = line.and_then(|l| payload(l)) {
                        session.stored.insert(job.key(), p.to_string());
                    }
                }
            }
        }
        Ok(session)
    }

    /// Closed-loop traffic on every client until `until`. With `count`,
    /// batches whose `batch` event is read before `until` are checked
    /// into `checks` and returned with their time stamps; without, the
    /// traffic is warm-up. `next_batch` carries each client's batch
    /// counter from one call to the next, so `serve_cold` never repeats
    /// a job.
    fn drive(
        &mut self,
        seed: u64,
        next_batch: &mut [u64],
        count: bool,
        until: Instant,
        checks: &mut Checks,
    ) -> Result<Vec<ClientLog>, String> {
        let (kind, keys, stored) = (self.kind, &self.keys, &self.stored);
        let logs: Vec<Result<ClientLog, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(next_batch.iter_mut())
                .enumerate()
                .map(|(c, (conn, next))| {
                    s.spawn(move || {
                        let mut log = ClientLog::default();
                        while Instant::now() < until {
                            let jobs = kind.batch(seed, keys, c as u64, *next);
                            *next += 1;
                            let (stamps, lines) =
                                conn.exchange(&batch_request(&jobs), BATCH_EVENT)?;
                            if count && stamps.done <= until {
                                let known = (kind == Kind::Cached).then_some(stored);
                                let t = check_batch(
                                    &jobs,
                                    &lines,
                                    kind == Kind::Cached,
                                    known,
                                    &mut log.checks,
                                );
                                log.tally.add(t);
                                log.stamps.push(stamps);
                            }
                        }
                        Ok(log)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("a client thread panicked".into()))
                })
                .collect()
        });
        let mut logs = logs.into_iter().collect::<Result<Vec<_>, _>>()?;
        for log in &mut logs {
            checks.absorb(std::mem::take(&mut log.checks));
        }
        Ok(logs)
    }

    /// Ends the session the polite way: the other clients `quit`, the
    /// last one sends `shutdown`; checks that the server exits 0.
    fn finish(mut self, checks: &mut Checks) -> Result<Scratch, String> {
        let mut last = self.clients.pop().expect("at least one client");
        for mut c in self.clients.drain(..) {
            c.exchange("{\"op\":\"quit\"}\n", "{\"event\":\"bye\"")?;
        }
        last.exchange("{\"op\":\"shutdown\"}\n", "{\"event\":\"bye\"")?;
        drop(last);
        let clean = self.server.wait_clean()?;
        checks.check(clean, || "the server did not exit 0 on shutdown".into());
        Ok(self.cache)
    }
}

/// What one client saw inside the timed window.
#[derive(Debug, Default)]
struct ClientLog {
    stamps: Vec<Stamps>,
    tally: Tally,
    checks: Checks,
}

/// The timed window as the clients and `/proc` saw it.
#[derive(Debug)]
struct Window {
    logs: Vec<ClientLog>,
    /// Seconds batches were being issued for.
    seconds: f64,
    /// CPU seconds the server used over them.
    server_cpu_s: f64,
}

impl Window {
    /// Batch latencies in seconds, raw: under load the server keeps
    /// every core busy, and such sections are not converted (see
    /// `clock.rs`).
    fn latencies_s(&self) -> Vec<f64> {
        self.logs
            .iter()
            .flat_map(|l| l.stamps.iter().map(Stamps::latency_s))
            .collect()
    }

    fn tally(&self) -> Tally {
        let mut tally = Tally::default();
        self.logs.iter().for_each(|l| tally.add(l.tally));
        tally
    }
}

/// Warm-up, then a timed window of `seconds`.
fn measure(
    session: &mut Session,
    ctx: &Ctx,
    seconds: f64,
    checks: &mut Checks,
) -> Result<Window, String> {
    let mut next_batch = vec![0u64; session.clients.len()];
    let warm_until = Instant::now() + Duration::from_secs_f64(WARMUP_S / ctx.divisor as f64);
    session.drive(ctx.seed, &mut next_batch, false, warm_until, checks)?;
    let pid = Some(session.server.pid());
    let cpu0 = procfs::cpu_seconds(pid).unwrap_or(f64::NAN);
    let until = Instant::now() + Duration::from_secs_f64(seconds);
    let logs = session.drive(ctx.seed, &mut next_batch, true, until, checks)?;
    Ok(Window {
        logs,
        seconds,
        server_cpu_s: procfs::cpu_seconds(pid).unwrap_or(f64::NAN) - cpu0,
    })
}

/// The metrics a user of the service sees, from the timed window.
fn client_metrics(kind: Kind, window: &Window, report: &mut Report) {
    let latencies = window.latencies_s();
    if latencies.is_empty() {
        report.checks.check(false, || {
            "no batch completed inside the timed window".into()
        });
        return;
    }
    let clients = window.logs.len() as f64;
    let wall = Metric::median("wall_s", "s", Better::Lower, &latencies);
    // Closed loop, no think time: each client always has one batch
    // out, so work per second is batches out over the time one takes.
    report.add(
        "sim_cycles_per_s",
        "cycles/s",
        Better::Higher,
        clients * kind.batch_jobs() as f64 * serve_job_cycles() as f64 / wall.value,
    );
    report.add("latency_p50_ms", "ms", Better::Lower, wall.value * 1e3);
    report.push(wall);
    match tail_percentile(&latencies, 90) {
        Ok(p90) => report.add("latency_p90_ms", "ms", Better::Lower, p90 * 1e3),
        Err(refused) => report.notes.push(format!("latency_p90_ms: {refused}")),
    }
    report.add(
        "jobs_per_s",
        "jobs/s",
        Better::Higher,
        window.tally().results as f64 / window.seconds,
    );
    report.add(
        "serve.client.batches",
        "count",
        Better::Higher,
        latencies.len() as f64,
    );
}

/// One pass of the workload: end to end, or traced (with its trace).
pub fn pass(name: &str, traced: bool, ctx: &Ctx) -> Result<(Report, Option<Trace>), String> {
    if traced {
        self::traced(name, ctx).map(|(report, trace)| (report, Some(trace)))
    } else {
        end_to_end(name, ctx).map(|report| (report, None))
    }
}

/// The end-to-end pass.
fn end_to_end(name: &str, ctx: &Ctx) -> Result<Report, String> {
    let kind = Kind::of(name);
    let mut report = Report::new(kind.name(), ctx.seed, false);
    let mut setup = Vec::new();
    let mut session = None;
    for _ in 0..kind.setups(ctx) {
        if let Some(previous) = session.take() {
            Session::finish(previous, &mut report.checks)?;
        }
        let t0 = Instant::now();
        session = Some(Session::start(kind, ctx, &mut report.checks)?);
        setup.push(t0.elapsed().as_secs_f64());
    }
    let mut session = session.expect("at least one set-up");
    report.push(Metric::median("setup_s", "s", Better::Lower, &setup));
    let window = measure(&mut session, ctx, ctx.seconds, &mut report.checks)?;
    client_metrics(kind, &window, &mut report);
    report.add(
        "peak_rss_mb",
        "MB",
        Better::Lower,
        procfs::peak_rss_mb(Some(session.server.pid())).unwrap_or(f64::NAN),
    );
    session.finish(&mut report.checks)?;
    Ok(report)
}

/// Span per batch, with what the client was doing inside it.
fn batch_spans(logs: &[ClientLog], trace: &mut Trace) {
    for (c, log) in logs.iter().enumerate() {
        let lane = c as u32 + 1;
        for (id, s) in log.stamps.iter().enumerate() {
            let id = id as u64;
            let (send, sent) = (trace.ns(s.send), trace.ns(s.sent));
            let (first, done) = (trace.ns(s.first), trace.ns(s.done));
            let root = trace.push("serve.client.batch", send, done, None, id, lane);
            trace.push("serve.client.write", send, sent, Some(root), id, lane);
            trace.push(
                "serve.client.first_event_wait",
                sent,
                first,
                Some(root),
                id,
                lane,
            );
            trace.push("serve.client.stream", first, done, Some(root), id, lane);
        }
    }
}

/// Median microseconds (raw: two processes and, at the parent commit,
/// a timer are in every one) of `n` exchanges on `conn`, each built by
/// `request` and read through the line starting with `last`.
fn exchange_us<R: Read, W: Write>(
    conn: &mut Conn<R, W>,
    n: usize,
    last: &str,
    mut request: impl FnMut(usize) -> String,
    mut each: impl FnMut(usize, &[String], &mut Conn<R, W>) -> Result<(), String>,
) -> Result<f64, String> {
    let mut us = Vec::with_capacity(n);
    for i in 0..n {
        let (stamps, lines) = conn.exchange(&request(i), last)?;
        us.push(stamps.latency_s() * 1e6);
        each(i, &lines, conn)?;
    }
    Ok(median(&us).expect("at least one exchange"))
}

/// The traced pass: a shorter window with a span per batch, then the
/// process-level probes, then the layers in process.
fn traced(name: &str, ctx: &Ctx) -> Result<(Report, Trace), String> {
    let kind = Kind::of(name);
    let mut report = Report::new(kind.name(), ctx.seed, true);
    let mut trace = Trace::new();
    let mut session = Session::start(kind, ctx, &mut report.checks)?;
    let window = measure(&mut session, ctx, ctx.seconds * 0.4, &mut report.checks)?;
    batch_spans(&window.logs, &mut trace);

    let tally = window.tally();
    let latencies = window.latencies_s();
    let (cpu_s, wall_s) = (window.server_cpu_s, window.seconds);
    let jobs = tally.results.max(1) as f64;
    report.add(
        "serve.client.batches",
        "count",
        Better::Higher,
        tally.batches as f64,
    );
    report.add(
        "serve.client.jobs",
        "count",
        Better::Higher,
        tally.results as f64,
    );
    report.add(
        "serve.client.latency_p50_ms",
        "ms",
        Better::Lower,
        median(&latencies).unwrap_or(f64::NAN) * 1e3,
    );
    report.add(
        "serve.events.window_per_job",
        "ratio",
        Better::Exact,
        tally.windows as f64 / jobs,
    );
    report.add("serve.proc.cpu_s", "s", Better::Lower, cpu_s);
    report.add(
        "serve.proc.cpu_per_job_ms",
        "ms",
        Better::Lower,
        cpu_s * 1e3 / jobs,
    );
    report.add(
        "serve.proc.idle_frac",
        "ratio",
        Better::Lower,
        1.0 - cpu_s / (wall_s * ctx.width as f64),
    );
    report.add(
        "serve.busy_events",
        "count",
        Better::Exact,
        tally.busy as f64,
    );
    report.add(
        "serve.error_events",
        "count",
        Better::Exact,
        tally.errors as f64,
    );
    match tail_percentile(&latencies, 99) {
        Ok(p99) => report.add(
            "serve.client.latency_p99_ms",
            "ms",
            Better::Lower,
            p99 * 1e3,
        ),
        Err(refused) => report
            .notes
            .push(format!("serve.client.latency_p99_ms: {refused}")),
    }

    // Eight jobs whose results the server now holds: what the accept
    // ping-pong and the stdio batches are made of.
    let held: Vec<ServeJob> = match kind {
        Kind::Cold => [0, 1]
            .iter()
            .flat_map(|&b| cold_batch(ctx.seed, 0, b))
            .collect(),
        Kind::Cached => session.keys[..CACHED_BATCH_JOBS].to_vec(),
    };

    // `job` line -> `accepted`, one at a time; a `run` every eight
    // keeps the session's queue short.
    let accept_us = exchange_us(
        &mut session.clients[0],
        ctx.scaled(ACCEPT_PINGS, 2),
        "{\"event\":\"accepted\"",
        |i| format!("{}\n", held[i % held.len()].line()),
        |i, _, conn| {
            if (i + 1) % held.len() == 0 {
                conn.exchange("{\"op\":\"run\"}\n", BATCH_EVENT)?;
            }
            Ok(())
        },
    )?;
    report.add("serve.client.accept_us", "us", Better::Lower, accept_us);

    let (_, stats) = session.clients[0].exchange("{\"op\":\"stats\"}\n", "{\"event\":\"stats\"")?;
    let stats = Json::parse(stats.last().expect("the stats line"))
        .map_err(|e| format!("stats event: {e}"))?;
    for (name, key) in [
        ("serve.cache.entries", "cache_entries"),
        ("serve.cache.bytes", "cache_bytes"),
    ] {
        let v = stats.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
        report.add(name, "count", Better::Lower, v);
    }
    let cache = session.finish(&mut report.checks)?;

    // The same cached batch through the child's stdin and stdout: what
    // is left of the TCP latency once the socket is out of the way.
    let bin = ctx
        .ringmesh_bin
        .as_deref()
        .expect("checked in Session::start");
    let (mut server, _) = ServerProc::spawn(bin, &cache.0, ctx.width, false)?;
    let mut pipes: Conn<ChildStdout, ChildStdin> = Conn {
        reader: BufReader::new(server.child.stdout.take().expect("stdout is piped")),
        writer: server.child.stdin.take().expect("stdin is piped"),
    };
    let request = batch_request(&held);
    let checks = &mut report.checks;
    let stdio_us = exchange_us(
        &mut pipes,
        ctx.scaled(STDIO_BATCHES, 2),
        BATCH_EVENT,
        |_| request.clone(),
        |_, lines, _| {
            check_batch(&held, lines, true, None, checks);
            Ok(())
        },
    )?;
    pipes.exchange("{\"op\":\"quit\"}\n", "{\"event\":\"bye\"")?;
    drop(pipes);
    let clean = server.wait_clean()?;
    report
        .checks
        .check(clean, || "the stdio server did not exit 0 on quit".into());
    drop(cache);
    report.add("serve.stdio.cached_batch_us", "us", Better::Lower, stdio_us);

    // The simulator's layers under the service: the four job kinds once
    // each through the traced loop, then the service's own layers. All
    // single-threaded, so converted to the reference clock.
    let mut clock = Clock::new();
    let mut runs = Vec::new();
    let configs: Vec<_> = held[..4].iter().map(ServeJob::config).collect();
    clock.read();
    for (i, cfg) in configs.iter().enumerate() {
        let run = traced_run(cfg, &mut trace, i as u64).map_err(|e| e.to_string())?;
        clock.read();
        check_spans(&trace, &run, &mut report);
        runs.push((run, cfg));
    }
    let times = LoopTimes::of_every(&trace, &runs, &clock);
    let folded = LoopTimes::fold(&times, |v| v.iter().sum());
    folded.report(&mut report);
    let cases: Vec<Case> = runs
        .into_iter()
        .zip(&held)
        .map(|((run, cfg), job)| Case {
            line: job.line(),
            cfg: cfg.clone(),
            result: run.result,
        })
        .collect();
    let results: Vec<_> = cases.iter().map(|c| &c.result).collect();
    sim_metrics(&results, &mut report);
    let pairs: Vec<_> = cases.iter().map(|c| (&c.cfg, &c.result)).collect();
    snapshot_probe(&pairs, &mut clock, &mut report);
    report.sim_fingerprint = Some(
        cases
            .iter()
            .fold(0, |acc, c| mix(acc, c.result.fingerprint())),
    );
    layers::probe(&cases, ctx, &mut clock, &mut report)?;
    let plain_s = layers::runner_probe(&configs, ctx, &mut clock, &mut report)?;
    // The clients time both passes the same way; what tracing adds is
    // the loop's: the traced loop against `run_config`, same configs.
    report.add(
        "bench.timer_overhead_frac",
        "ratio",
        Better::Lower,
        (folded.new_s + folded.loop_s) / plain_s - 1.0,
    );
    Ok((report, trace))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_line(id: &str, cached: bool, data: &str) -> String {
        format!("{{\"event\":\"result\",\"id\":\"{id}\",\"cached\":{cached},\"resumed\":false,\"data\":{data}}}\n")
    }

    fn batch_line(jobs: u64, hits: u64, misses: u64) -> String {
        format!(
            "{{\"event\":\"batch\",\"jobs\":{jobs},\"cache_hits\":{hits},\"cache_misses\":{misses},\
             \"verified\":0,\"mismatches\":0,\"errors\":0,\"interrupted\":0,\"fingerprint\":\"00\"}}\n"
        )
    }

    #[test]
    fn event_lines_are_scanned_without_a_parser() {
        let line = result_line("c0-b1-j2", true, "{\"schema\":\"x\",\"pms\":36}");
        assert_eq!(str_field(&line, "event"), Some("result"));
        assert_eq!(str_field(&line, "id"), Some("c0-b1-j2"));
        assert_eq!(str_field(&line, "nope"), None);
        assert_eq!(payload(&line), Some("{\"schema\":\"x\",\"pms\":36}"));
        assert_eq!(payload("{\"event\":\"bye\"}\n"), None);
    }

    #[test]
    fn a_clean_batch_passes_every_check_and_each_defect_fails_one() {
        let jobs = cold_batch(1, 0, 0);
        let clean: Vec<String> = jobs
            .iter()
            .map(|j| result_line(&j.id, false, "{}"))
            .chain([batch_line(4, 0, 4)])
            .collect();
        let mut checks = Checks::default();
        let t = check_batch(&jobs, &clean, false, None, &mut checks);
        assert_eq!(
            (checks.attempted, checks.failed),
            (5, 0),
            "{:?}",
            checks.failures
        );
        assert_eq!((t.batches, t.results, t.busy, t.errors), (1, 4, 0, 0));

        // A job answered twice, and one answered from the cache.
        let mut twice = clean.clone();
        twice.insert(0, result_line(&jobs[0].id, false, "{}"));
        twice[2] = result_line(&jobs[1].id, true, "{}");
        let mut checks = Checks::default();
        check_batch(&jobs, &twice, false, None, &mut checks);
        assert_eq!(checks.failed, 2, "{:?}", checks.failures);

        // A busy event and wrong counts fail the batch check only.
        let mut busy = clean.clone();
        busy.insert(
            0,
            "{\"event\":\"busy\",\"scope\":\"jobs\",\"limit\":1,\"retry\":true}\n".into(),
        );
        *busy.last_mut().unwrap() = batch_line(4, 1, 3);
        let mut checks = Checks::default();
        check_batch(&jobs, &busy, false, None, &mut checks);
        assert_eq!(checks.failed, 1, "{:?}", checks.failures);
    }

    #[test]
    fn cached_payloads_must_be_the_bytes_stored_in_set_up() {
        let keys = cached_keys(1);
        let jobs = Kind::Cached.batch(1, &keys, 1, 3);
        assert_eq!(jobs.len(), CACHED_BATCH_JOBS);
        assert_eq!(jobs[0].key(), keys[(32 + 24) % CACHED_KEYS].key());
        let stored: HashMap<String, String> = jobs
            .iter()
            .map(|j| (j.key(), format!("{{\"seed\":{}}}", j.seed)))
            .collect();
        let mut lines: Vec<String> = jobs
            .iter()
            .map(|j| result_line(&j.id, true, &stored[&j.key()]))
            .collect();
        lines.push(batch_line(8, 8, 0));
        let mut checks = Checks::default();
        check_batch(&jobs, &lines, true, Some(&stored), &mut checks);
        assert_eq!(checks.failed, 0, "{:?}", checks.failures);
        lines[3] = result_line(&jobs[3].id, true, "{\"seed\":0}");
        let mut checks = Checks::default();
        check_batch(&jobs, &lines, true, Some(&stored), &mut checks);
        assert_eq!(checks.failed, 1, "{:?}", checks.failures);
    }
}
