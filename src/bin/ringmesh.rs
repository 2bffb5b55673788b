//! `ringmesh` command-line interface: run a single simulation point and
//! print its metrics, without writing any Rust.
//!
//! ```text
//! ringmesh --topology ring:2:3:4 --cache-line 128B --r 0.2 --t 4
//! ringmesh --topology mesh:6:1flit --cache-line 64B --format csv
//! ringmesh run --topology hybrid:4x4:4 --cache-line 64B
//! ringmesh figure all
//! ringmesh serve --cache .ringmesh-cache --verify-cache 0.1
//! ```
//!
//! Run `ringmesh --help` for the full flag list. Argument parsing is
//! hand-rolled to keep the dependency set to the crates the simulator
//! itself needs.

use std::io;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use ringmesh::figures::{EXPERIMENTS, RECORD_ROW};
use ringmesh::{
    run_config, ExitStatus, FaultConfig, FaultPlan, FaultRunReport, NetworkSpec, RetryPolicy,
    RunError, Scale, SimParams, System, SystemConfig, TraceConfig, DEFAULT_SEED,
};
use ringmesh_net::CacheLineSize;
use ringmesh_serve::fleet::{run_worker, FleetOptions, FleetPool, WorkerExit};
use ringmesh_serve::{ServeExit, ServeOptions, Server};
use ringmesh_workload::{MemoryParams, MissProcess, WorkloadParams};

const HELP: &str = "\
ringmesh — flit-level hierarchical-ring / mesh interconnect simulator

USAGE:
    ringmesh [run] <NETWORK> [OPTIONS]
    ringmesh trace <NETWORK> [OPTIONS] [TRACE OPTIONS]
    ringmesh faults <NETWORK> [OPTIONS] [FAULT OPTIONS]
    ringmesh figure <FIGURE>...
    ringmesh serve [SERVE OPTIONS]
    ringmesh worker --connect <ADDR> [WORKER OPTIONS]

The `trace` subcommand runs the same simulation with the observability
subsystem recording: it prints per-counter and per-gauge batch
summaries and link-utilization heatmaps, and can export the sampled
flit-event stream as Chrome trace-event JSON (open in Perfetto or
chrome://tracing). Every network traces, the slotted ring included
(packet and flit counters, in-flight gauge and inject/eject events; it
has no link heatmap and no per-hop events).

The `faults` subcommand runs the simulation under a deterministic,
seeded fault schedule (packet corruption, transient link-down
intervals, permanent router/IRI deaths) with an end-to-end retry layer
at the processors, and reports delivered throughput, drop accounting
and the packet-conservation audit. Same seeds replay bit-for-bit.

The `figure` subcommand regenerates the paper's tables and figures and
the studies beyond them, by name, printing the series each one plots.
Runs are quick-scale smoke sweeps unless RINGMESH_FULL is set; sweep
points fan out over RINGMESH_THREADS workers with identical output at
any thread count, and RINGMESH_CSV_DIR additionally writes every panel
of a figure as CSV.

The `serve` subcommand turns the simulator into a sweep-job server: it
reads line-delimited JSON requests on stdin (or accepts concurrent TCP
connections with --listen), schedules jobs on the worker pool, streams
windowed progress and result events, and answers repeated jobs
instantly from a content-addressed result cache keyed by the
canonicalized configuration plus the code version. In-flight jobs
periodically checkpoint their full simulation state next to their
cache entry, and every accepted batch appends to an fsync'd journal
before simulating — so a server killed mid-batch (even SIGKILL)
finishes the work at its next startup, resuming from checkpoints, with
fingerprint-identical results. Cache entries carry integrity footers
verified on every read: torn or tampered entries are quarantined and
transparently recomputed. Connections and batches beyond the admission
limits are shed with typed busy events; request lines longer than 1
MiB draw a typed error event and are skipped. SIGTERM/SIGINT wind the
server down gracefully: checkpoints and journal flushed, exit code 6.

With --fleet the server also coordinates a distributed worker fleet:
remote `ringmesh worker` processes register over TCP (refused unless
their hash of code and wire-protocol version matches exactly) and batch
cache-misses are dispatched to them under time-bounded leases. A lease
that saw no progress window when it expires is speculatively duplicated
onto another worker once (first-result-wins, deduped by content hash)
or else handed back. A job left without a lease (its worker died or
failed it, its lease was handed back) is re-dispatched with capped
exponential backoff, to a worker that has not run it when one is free;
after 4 dispatches the local pool runs it. Results merge in job
submission order, so a batch's output is byte-identical no matter how
many workers served it or died mid-flight. Byte-divergent duplicate
results for one content key are a hard determinism violation: the
batch fails and the server exits with code 7.

The `worker` subcommand is the other half: it connects to a serving
coordinator, registers with its code-version hash, heartbeats, and
runs dispatched jobs, streaming windowed progress and content-hashed
results back. Workers are stateless; kill -9 one mid-job and the
coordinator re-runs the job elsewhere with identical output.

Exit status: 0 success, 1 usage/config error, 2 simulation stall,
3 conservation violation, 4 I/O error, 5 protocol error,
6 interrupted by a graceful shutdown request, 7 determinism
violation (byte-divergent duplicate results in a worker fleet).

NETWORK (required):
    --topology <SPEC>      a registered topology by its spec string:
                           ring:2:3:4    hierarchical ring
                           ring2x:2:3:4  the same, global ring at 2x
                           slotted:2:3:4 slotted (non-blocking) ring
                           mesh:12[:1flit|:4flit|:cl]  square mesh and
                                         its buffers [default: 4flit]
                           hybrid:4x4:4  a 4x4 global mesh of 4-PM
                                         local rings

FIGURE (one or more, or `all` for every one in this order but `work`):
{EXPERIMENTS}

OPTIONS:
    --cache-line <SZ>      16B | 32B | 64B | 128B        [default: 64B]
    --r <R>                locality region fraction (0,1] [default: 1.0]
    --c <C>                cache miss rate (0,1]          [default: 0.04]
    --t <T>                outstanding transaction limit  [default: 4]
    --geometric            geometric (memoryless) miss intervals
    --mem-latency <N>      memory access latency, cycles  [default: 10]
    --warmup <N>           warm-up cycles                 [default: 4000]
    --batch <N>            cycles per batch               [default: 4000]
    --batches <N>          measured batches               [default: 8]
    --seed <N>             RNG seed                       [default: {SEED}]
    --format <F>           text | csv                     [default: text]
    -h, --help             print this help

TRACE OPTIONS (with the `trace` subcommand):
    --trace-out <PATH>     write Chrome trace-event JSON here
    --heatmap-csv <PATH>   write the link heatmap(s) as CSV here
    --window <N>           counter sampling window, cycles [default: 1000]
    --sample-every <N>     record events for 1 in N txns   [default: 16]

FAULT OPTIONS (with the `faults` subcommand):
    --corrupt <P>          per-packet corruption probability  [default: 0]
    --link-down <N>        transient link-down events         [default: 0]
    --link-down-cycles <N> cycles each link stays down        [default: 500]
    --kill-nodes <N>       routers/IRIs to fail-stop          [default: 0]
    --fault-seed <N>       fault-schedule seed                [default: 7]
    --timeout <N>          retry timeout, cycles              [default: 1000]
    --attempts <N>         max attempts (first issue incl.)   [default: 4]
    --backoff <N>          base retry backoff, cycles         [default: 64]
    --no-retry             disable the end-to-end retry layer

SERVE OPTIONS (with the `serve` subcommand):
    --listen <ADDR>        accept TCP connections on ADDR (e.g.
                           127.0.0.1:7077) instead of stdin/stdout
    --cache <DIR>          result-cache directory  [default: .ringmesh-cache]
    --threads <N>          worker threads          [default: host cores]
    --verify-cache <F>     deterministically re-run this fraction of
                           cache hits and diff bit-for-bit [default: 0]
    --checkpoint-every <N> checkpoint in-flight jobs every N cycles,
                           0 disables                 [default: 100000]
    --window <N>           progress window, cycles    [default: 1000]
    --cache-budget <BYTES> evict least-recently-touched cache entries
                           (deterministically) past this many bytes,
                           at startup and after each batch
    --max-clients <N>      concurrent TCP sessions admitted; excess
                           connections get a busy event  [default: 16]
    --max-batches <N>      concurrent running batches; excess run
                           requests get a busy event     [default: 2]
    --read-deadline <S>    drop TCP sessions idle this many seconds,
                           0 disables                 [default: 300]
    --write-deadline <S>   per-event TCP write deadline in seconds,
                           0 disables                 [default: 30]
    --fleet <ADDR>         accept remote workers on ADDR (e.g.
                           127.0.0.1:7078) and dispatch batch jobs to
                           them under time-bounded leases
    --lease <MS>           fleet lease per dispatch   [default: 30000]
    --heartbeat <MS>       fleet heartbeat cadence    [default: 2000]

WORKER OPTIONS (with the `worker` subcommand):
    --connect <ADDR>       coordinator to register with (required)
    --threads <N>          concurrent dispatches to run [default: 1]

ENVIRONMENT:
    RINGMESH_FULL          any value but 0: figure sweeps default to
                           publication scale (read once per process)
    RINGMESH_THREADS       worker threads for parameter sweeps
                           [default: available host parallelism]
    RINGMESH_CSV_DIR       directory `figure` also writes CSVs to
";

/// The registry's `name  title` rows: the FIGURE section of `--help`
/// and the list an unknown `figure` name draws.
fn experiment_list() -> String {
    EXPERIMENTS
        .iter()
        .map(|e| format!("    {:<22} {}\n", e.name, e.title))
        .collect()
}

struct Args(Vec<String>);

impl Args {
    fn take_flag(&mut self, name: &str) -> bool {
        if let Some(i) = self.0.iter().position(|a| a == name) {
            self.0.remove(i);
            true
        } else {
            false
        }
    }

    fn take_value(&mut self, name: &str) -> Result<Option<String>, String> {
        if let Some(i) = self.0.iter().position(|a| a == name) {
            if i + 1 >= self.0.len() {
                return Err(format!("{name} requires a value"));
            }
            let v = self.0.remove(i + 1);
            self.0.remove(i);
            Ok(Some(v))
        } else {
            Ok(None)
        }
    }

    fn take_parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.take_value(name)? {
            Some(v) => v
                .parse::<T>()
                .map(Some)
                .map_err(|e| format!("invalid value for {name}: {e}")),
            None => Ok(None),
        }
    }

    /// Whatever no `take_*` call claimed is an argument nobody knows.
    fn finish(&self) -> Result<(), String> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(format!("unrecognized arguments: {:?}", self.0))
        }
    }
}

fn build_config(args: &mut Args) -> Result<SystemConfig, String> {
    let network = args.take_parsed::<NetworkSpec>("--topology")?;
    let cache_line: CacheLineSize = args
        .take_value("--cache-line")?
        .as_deref()
        .unwrap_or("64B")
        .parse()?;
    let mut workload = WorkloadParams::paper_baseline();
    if let Some(r) = args.take_parsed::<f64>("--r")? {
        if !(r > 0.0 && r <= 1.0) {
            return Err(format!("--r must be in (0, 1], got {r}"));
        }
        workload = workload.with_region(r);
    }
    if let Some(c) = args.take_parsed::<f64>("--c")? {
        if !(c > 0.0 && c <= 1.0) {
            return Err(format!("--c must be in (0, 1], got {c}"));
        }
        workload.miss_rate = c;
    }
    if let Some(t) = args.take_parsed::<u32>("--t")? {
        if t == 0 {
            return Err("--t must be at least 1".into());
        }
        workload = workload.with_outstanding(t);
    }
    if args.take_flag("--geometric") {
        workload = workload.with_miss_process(MissProcess::Geometric);
    }
    let mut memory = MemoryParams::default();
    if let Some(l) = args.take_parsed::<u32>("--mem-latency")? {
        memory.latency = l;
    }
    let sim = SimParams {
        warmup: args.take_parsed("--warmup")?.unwrap_or(4_000),
        batch_cycles: args.take_parsed::<u64>("--batch")?.unwrap_or(4_000).max(1),
        batches: args.take_parsed::<usize>("--batches")?.unwrap_or(8).max(1),
    };
    let seed = args.take_parsed::<u64>("--seed")?;
    // Leftovers are reported before a missing `--topology`, so a flag
    // nobody knows is named as that instead of as "no network".
    args.finish()?;
    let network = network.ok_or(
        "--topology <SPEC> is required, e.g. ring:2:3:4 | mesh:12 | hybrid:4x4:4 (see --help)",
    )?;
    let mut cfg = SystemConfig::new(network, cache_line)
        .with_workload(workload)
        .with_sim(sim);
    cfg.memory = memory;
    if let Some(seed) = seed {
        cfg = cfg.with_seed(seed);
    }
    cfg.validate()?;
    Ok(cfg)
}

/// Options specific to the `trace` subcommand.
struct TraceOpts {
    out: Option<String>,
    heatmap_csv: Option<String>,
    cfg: TraceConfig,
}

fn parse_trace_opts(args: &mut Args) -> Result<TraceOpts, String> {
    let out = args.take_value("--trace-out")?;
    let heatmap_csv = args.take_value("--heatmap-csv")?;
    let window = args.take_parsed::<u64>("--window")?.unwrap_or(1_000).max(1);
    let sample_every = args
        .take_parsed::<u64>("--sample-every")?
        .unwrap_or(16)
        .max(1);
    Ok(TraceOpts {
        out,
        heatmap_csv,
        cfg: TraceConfig {
            window_cycles: window,
            sample_every,
            ..TraceConfig::default()
        },
    })
}

/// Options specific to the `faults` subcommand (the schedule horizon
/// comes from the simulation length, known only after `build_config`).
struct FaultOpts {
    corrupt: f64,
    link_down: u32,
    link_down_cycles: u64,
    kill_nodes: u32,
    seed: u64,
    retry: Option<RetryPolicy>,
}

fn parse_fault_opts(args: &mut Args) -> Result<FaultOpts, String> {
    let corrupt = args.take_parsed::<f64>("--corrupt")?.unwrap_or(0.0);
    if !(0.0..=1.0).contains(&corrupt) {
        return Err(format!("--corrupt must be in [0, 1], got {corrupt}"));
    }
    let retry = if args.take_flag("--no-retry") {
        None
    } else {
        let default = RetryPolicy::default();
        Some(RetryPolicy {
            timeout: args
                .take_parsed::<u64>("--timeout")?
                .unwrap_or(default.timeout)
                .max(1),
            max_attempts: args
                .take_parsed::<u32>("--attempts")?
                .unwrap_or(default.max_attempts)
                .max(1),
            backoff: args
                .take_parsed::<u64>("--backoff")?
                .unwrap_or(default.backoff),
        })
    };
    Ok(FaultOpts {
        corrupt,
        link_down: args.take_parsed::<u32>("--link-down")?.unwrap_or(0),
        link_down_cycles: args
            .take_parsed::<u64>("--link-down-cycles")?
            .unwrap_or(500),
        kill_nodes: args.take_parsed::<u32>("--kill-nodes")?.unwrap_or(0),
        seed: args.take_parsed::<u64>("--fault-seed")?.unwrap_or(7),
        retry,
    })
}

fn print_fault_report(report: &FaultRunReport, retry_enabled: bool) {
    let f = &report.faults;
    println!(
        "faults      : {} nodes killed, {} link-down events, {} packets corrupt-marked",
        f.nodes_killed, f.link_down_applied, f.corrupt_marked
    );
    println!(
        "drops       : {} total ({} corrupted, {} unreachable, {} dead-interface)",
        f.drops.total(),
        f.drops.corrupted,
        f.drops.unreachable,
        f.drops.dead_interface
    );
    if retry_enabled {
        let r = &report.retry;
        println!(
            "retry       : {} timeouts, {} retries, {} given up ({} dead-endpoint, {} stale responses)",
            r.timeouts, r.retries, r.gave_up, r.dead_drops, r.stale_responses
        );
    } else {
        println!("retry       : disabled");
    }
    let (injected, delivered, dropped) = report.conservation;
    let in_flight = injected - delivered - dropped;
    let verdict = if report.violation.is_none() {
        "ok"
    } else {
        "VIOLATED"
    };
    println!(
        "conservation: {injected} injected = {delivered} delivered + {dropped} dropped + {in_flight} in flight — {verdict}"
    );
}

fn run_faults(cfg: SystemConfig, opts: FaultOpts, format: &str) -> ExitCode {
    let label = cfg.network.label();
    let pms = cfg.network.num_pms();
    let plan = FaultPlan {
        faults: FaultConfig {
            seed: opts.seed,
            corrupt_prob: opts.corrupt,
            link_down_events: opts.link_down,
            link_down_cycles: opts.link_down_cycles,
            dead_nodes: opts.kill_nodes,
            horizon: cfg.sim.horizon(),
        },
        retry: opts.retry,
    };
    let sys = match System::new(cfg) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
    let report = match sys.run_faulty(&plan) {
        Ok(r) => r,
        Err(e) => return fail(&e),
    };
    print_result(format, &label, pms, &report.result);
    print_fault_report(&report, plan.retry.is_some());
    if let Some(v) = &report.violation {
        eprintln!("error: packet conservation violated: {v}");
        return ExitStatus::ConservationViolation.into();
    }
    ExitStatus::Success.into()
}

/// Prints `e` and maps it to the typed exit status, so scripts can tell
/// "the simulation deadlocked" from "bad arguments".
fn fail(e: &RunError) -> ExitCode {
    eprintln!("error: {e}");
    ExitStatus::from(e).into()
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitStatus::Usage.into()
}

fn print_result(format: &str, label: &str, pms: u32, r: &ringmesh::RunResult) {
    match format {
        "csv" => {
            println!("network,pms,latency,ci95,throughput,utilization");
            println!(
                "{label},{pms},{:.3},{:.3},{:.5},{:.4}",
                r.latency.mean, r.latency.ci95, r.throughput, r.utilization.overall
            );
        }
        _ => {
            println!("network     : {label} ({pms} PMs)");
            println!(
                "latency     : {:.1} ± {:.1} cycles (95% CI over {} batches)",
                r.latency.mean, r.latency.ci95, r.latency.n
            );
            if let Some((p50, p95, p99)) = r.percentiles {
                println!("percentiles : p50 {p50:.0}, p95 {p95:.0}, p99 {p99:.0} cycles");
            }
            println!("throughput  : {:.4} transactions/cycle", r.throughput);
            println!("utilization : {:.1}%", 100.0 * r.utilization.overall);
            for level in &r.utilization.levels {
                println!("  {:18}: {:.1}%", level.label, 100.0 * level.utilization);
            }
            println!(
                "workload    : {} issued, {} retired ({} local)",
                r.workload.issued, r.workload.retired, r.workload.local_retired
            );
        }
    }
}

fn run_trace(cfg: SystemConfig, opts: TraceOpts, format: &str) -> ExitCode {
    let label = cfg.network.label();
    let pms = cfg.network.num_pms();
    let sys = match System::new(cfg) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
    let (r, report) = match sys.run_traced(opts.cfg) {
        Ok(x) => x,
        Err(e) => return fail(&e),
    };
    print_result(format, &label, pms, &r);
    println!();
    print!("{}", report.to_text());
    if let Some(path) = opts.heatmap_csv {
        let mut csv = String::new();
        for map in &report.heatmaps {
            csv.push_str(&map.to_csv());
            csv.push('\n');
        }
        if let Err(e) = std::fs::write(&path, csv) {
            eprintln!("error: writing {path}: {e}");
            return ExitStatus::Io.into();
        }
        eprintln!("heatmap CSV written to {path}");
    }
    if let Some(path) = opts.out {
        if let Err(e) = std::fs::write(&path, report.chrome_trace_json()) {
            eprintln!("error: writing {path}: {e}");
            return ExitStatus::Io.into();
        }
        eprintln!(
            "Chrome trace written to {path} ({} events, {} dropped)",
            report.events.len(),
            report.events_dropped
        );
    }
    ExitStatus::Success.into()
}

/// `ringmesh figure <NAME>...`: runs the named rows of the experiment
/// registry in the order given (`all` is every row in registry order).
/// Every name is checked before anything runs.
fn run_figures(args: Args) -> ExitCode {
    let bad_name = |what: String| {
        usage_error(&format!(
            "{what}; give `all` or any of\n{}",
            experiment_list()
        ))
    };
    let mut picked = Vec::new();
    for name in &args.0 {
        match EXPERIMENTS.iter().find(|e| e.name == name) {
            Some(e) => picked.push(e),
            None if name == "all" => {
                picked.extend(EXPERIMENTS.iter().filter(|e| e.name != RECORD_ROW));
            }
            None => return bad_name(format!("unknown experiment {name:?}")),
        }
    }
    if picked.is_empty() {
        return bad_name("figure requires an experiment name".into());
    }
    let scale = Scale::from_env();
    for e in picked {
        let t0 = Instant::now();
        if e.name == RECORD_ROW {
            println!("ringmesh experiment {} at fixed lengths", e.name);
        } else {
            println!(
                "ringmesh experiment {} at {} scale (RINGMESH_FULL=1 for publication scale)",
                e.name,
                if scale.quick { "quick" } else { "full" }
            );
        }
        println!();
        (e.run)(scale);
        println!("[{} completed in {:.1?}]", e.name, t0.elapsed());
    }
    ExitStatus::Success.into()
}

/// Set from the signal handler; a bridge thread relays it onto the
/// server's stop flag (handlers must stay async-signal-safe, so the
/// handler itself only flips this atomic).
static STOP_REQUESTED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_stop_signal(_sig: i32) {
    STOP_REQUESTED.store(true, Ordering::SeqCst);
}

/// Routes SIGTERM and SIGINT into [`STOP_REQUESTED`]. Note libc's
/// `signal` implies SA_RESTART, so a stdin session blocked in a read
/// only notices at its next request boundary or EOF; TCP sessions poll
/// the flag every second.
#[cfg(unix)]
fn install_stop_signals() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_stop_signal);
        signal(SIGINT, on_stop_signal);
    }
}

#[cfg(not(unix))]
fn install_stop_signals() {}

/// A `--fleet` coordinator endpoint plus its deployment settings.
type FleetSpec = (String, FleetOptions);

fn run_serve(mut args: Args) -> ExitCode {
    let parsed = (|| -> Result<(Option<String>, Option<FleetSpec>, ServeOptions), String> {
        let listen = args.take_value("--listen")?;
        let fleet = args.take_value("--fleet")?;
        let fleet_defaults = FleetOptions::default();
        let fleet = fleet.map(|addr| -> Result<FleetSpec, String> {
            Ok((
                addr,
                FleetOptions {
                    lease_ms: args
                        .take_parsed::<u64>("--lease")?
                        .unwrap_or(fleet_defaults.lease_ms)
                        .max(1),
                    heartbeat_ms: args
                        .take_parsed::<u64>("--heartbeat")?
                        .unwrap_or(fleet_defaults.heartbeat_ms)
                        .max(10),
                },
            ))
        });
        let fleet = fleet.transpose()?;
        let cache_dir = args
            .take_value("--cache")?
            .unwrap_or_else(|| ".ringmesh-cache".into());
        let threads = args.take_parsed::<usize>("--threads")?;
        let verify = args.take_parsed::<f64>("--verify-cache")?.unwrap_or(0.0);
        if !(0.0..=1.0).contains(&verify) {
            return Err(format!("--verify-cache must be in [0, 1], got {verify}"));
        }
        let checkpoint_every = args
            .take_parsed::<u64>("--checkpoint-every")?
            .unwrap_or(100_000);
        let window = args
            .take_parsed::<u64>("--window")?
            .unwrap_or(TraceConfig::default().window_cycles)
            .max(1);
        let defaults = ServeOptions::default();
        let cache_budget = args.take_parsed::<u64>("--cache-budget")?;
        let max_clients = args
            .take_parsed::<usize>("--max-clients")?
            .unwrap_or(defaults.max_clients)
            .max(1);
        let max_batches = args
            .take_parsed::<usize>("--max-batches")?
            .unwrap_or(defaults.max_batches)
            .max(1);
        // 0 = no deadline, for debugging against a paused client.
        let secs = |v: Option<u64>, default: Option<Duration>| match v {
            Some(0) => None,
            Some(s) => Some(Duration::from_secs(s)),
            None => default,
        };
        let read_deadline = secs(
            args.take_parsed::<u64>("--read-deadline")?,
            defaults.read_deadline,
        );
        let write_deadline = secs(
            args.take_parsed::<u64>("--write-deadline")?,
            defaults.write_deadline,
        );
        args.finish()?;
        Ok((
            listen,
            fleet,
            ServeOptions {
                cache_dir: PathBuf::from(cache_dir),
                threads,
                verify_fraction: verify,
                checkpoint_every,
                window_cycles: window,
                cache_budget,
                max_clients,
                max_batches,
                read_deadline,
                write_deadline,
            },
        ))
    })();
    let (listen, fleet, opts) = match parsed {
        Ok(x) => x,
        Err(e) => return usage_error(&e),
    };
    let server = match Server::new(opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: opening result cache: {e}");
            return ExitStatus::Io.into();
        }
    };
    if let Some((addr, fleet_opts)) = fleet {
        match FleetPool::bind(&addr, fleet_opts) {
            Ok(pool) => server.set_fleet(pool),
            Err(e) => {
                eprintln!("error: binding fleet listener {addr}: {e}");
                return ExitStatus::Io.into();
            }
        }
    }

    install_stop_signals();
    let stop = server.stop_handle();
    std::thread::spawn(move || loop {
        if STOP_REQUESTED.load(Ordering::SeqCst) {
            stop.set();
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    });

    let outcome = match listen {
        Some(addr) => server.serve_tcp(&addr).map(|()| ServeExit::Shutdown),
        None => server.serve(io::stdin().lock(), io::stdout().lock()),
    };
    match outcome {
        Ok(exit) => {
            let (hits, misses) = server.cache_counters();
            eprintln!("ringmesh serve: {hits} cache hits, {misses} misses this session");
            if server.determinism_violations() > 0 {
                // Outranks every other outcome: the fleet produced
                // byte-divergent results for one content key, so nothing
                // this session reported should be trusted.
                ExitStatus::DeterminismViolation.into()
            } else if exit == ServeExit::Terminated || STOP_REQUESTED.load(Ordering::SeqCst) {
                ExitStatus::Interrupted.into()
            } else if server.protocol_errors() > 0 {
                // Every malformed line was answered and skipped; the
                // exit code still reports that the stream wasn't clean.
                ExitStatus::Protocol.into()
            } else {
                ExitStatus::Success.into()
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitStatus::Io.into()
        }
    }
}

/// `ringmesh worker --connect <host:port>`: join a serving
/// coordinator's fleet and run dispatched jobs until told goodbye.
fn run_worker_cmd(mut args: Args) -> ExitCode {
    let parsed = (|| -> Result<(String, u32), String> {
        let connect = args
            .take_value("--connect")?
            .ok_or_else(|| "worker requires --connect <host:port>".to_string())?;
        let threads = args.take_parsed::<u32>("--threads")?.unwrap_or(1).max(1);
        args.finish()?;
        Ok((connect, threads))
    })();
    let (connect, threads) = match parsed {
        Ok(x) => x,
        Err(e) => return usage_error(&e),
    };

    install_stop_signals();
    let stop = ringmesh::StopFlag::new();
    let bridge = stop.clone();
    std::thread::spawn(move || loop {
        if STOP_REQUESTED.load(Ordering::SeqCst) {
            bridge.set();
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    });

    match run_worker(&connect, threads, &stop) {
        Ok(WorkerExit::Done) => ExitStatus::Success.into(),
        // A refused registration is an operator problem (stale binary
        // pointed at a newer coordinator), not a transport failure.
        Ok(WorkerExit::Refused { .. }) => ExitStatus::Usage.into(),
        Ok(WorkerExit::Stopped) => ExitStatus::Interrupted.into(),
        Err(e) => {
            eprintln!("error: {e}");
            ExitStatus::Io.into()
        }
    }
}

fn main() -> ExitCode {
    let mut args = Args(std::env::args().skip(1).collect());
    if args.take_flag("--help") || args.take_flag("-h") || args.0.is_empty() {
        let help = HELP.replace("{EXPERIMENTS}\n", &experiment_list());
        print!("{}", help.replace("{SEED}", &DEFAULT_SEED.to_string()));
        return ExitStatus::Success.into();
    }
    if args.0.first().is_some_and(|a| a == "figure") {
        args.0.remove(0);
        return run_figures(args);
    }
    if args.0.first().is_some_and(|a| a == "serve") {
        args.0.remove(0);
        return run_serve(args);
    }
    if args.0.first().is_some_and(|a| a == "worker") {
        args.0.remove(0);
        return run_worker_cmd(args);
    }
    // `run` is the default subcommand; the explicit token is accepted
    // so scripts can spell every invocation uniformly.
    let tracing = args.0.first().is_some_and(|a| a == "trace");
    let faulting = args.0.first().is_some_and(|a| a == "faults");
    if tracing || faulting || args.0.first().is_some_and(|a| a == "run") {
        args.0.remove(0);
    }
    let format = match args.take_value("--format") {
        Ok(None) => "text".to_string(),
        Ok(Some(f)) if f == "text" || f == "csv" => f,
        Ok(Some(f)) => return usage_error(&format!("--format must be text or csv, got {f:?}")),
        Err(e) => return usage_error(&e),
    };
    let trace_opts = if tracing {
        match parse_trace_opts(&mut args) {
            Ok(o) => Some(o),
            Err(e) => return usage_error(&e),
        }
    } else {
        None
    };
    let fault_opts = if faulting {
        match parse_fault_opts(&mut args) {
            Ok(o) => Some(o),
            Err(e) => return usage_error(&e),
        }
    } else {
        None
    };
    let cfg = match build_config(&mut args) {
        Ok(cfg) => cfg,
        Err(e) => return usage_error(&e),
    };
    if let Some(opts) = trace_opts {
        return run_trace(cfg, opts, &format);
    }
    if let Some(opts) = fault_opts {
        return run_faults(cfg, opts, &format);
    }
    let label = cfg.network.label();
    let pms = cfg.network.num_pms();
    match run_config(cfg) {
        Ok(r) => {
            print_result(&format, &label, pms, &r);
            ExitStatus::Success.into()
        }
        Err(e) => fail(&e),
    }
}
