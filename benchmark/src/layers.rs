//! The service's layers called in process, one public function at a
//! time: `Json::parse`, `parse_job`, `ResultCache::{key,lookup,store}`,
//! `Journal::{begin_batch,record_done,end_batch}`, `result_payload`,
//! `Server::serve` over an in-memory cursor, and `run_job` against
//! `run_config`. Every workload's traced pass runs them on its own
//! configs, so the numbers exist beside every other layer's.

use std::fs;
use std::hint::black_box;
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ringmesh::{run_config, RunResult, SystemConfig};
use ringmesh_serve::json::Json;
use ringmesh_serve::{
    parse_job, result_payload, run_job, Journal, ResultCache, ServeOptions, Server,
};

use crate::clock::Clock;
use crate::report::{Better, Report};
use crate::stats::median;
use crate::Ctx;

/// Calls behind each median (fewer under `--smoke`, and when a call
/// syncs to disk and the time box closes first).
const CALLS: usize = 1_024;

/// Calls timed as one block, so that reading the clock is a small part
/// of what is timed.
const BLOCK: usize = 16;

/// Seconds the journal probe, whose every call syncs to disk, may take.
const JOURNAL_BUDGET_S: f64 = 0.75;

/// One job the probes are run on.
#[derive(Debug, Clone)]
pub struct Case {
    /// The request line that denotes `cfg`.
    pub line: String,
    pub cfg: SystemConfig,
    pub result: RunResult,
}

/// A directory under `out/` removed when its owner ends, panic or not.
/// Named `cache-*` so `run.sh`'s own clean-up catches a killed run.
#[derive(Debug)]
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn new(out_dir: &Path, tag: &str) -> Result<Scratch, String> {
        let dir = out_dir.join(format!("cache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Median microseconds (at the reference clock) per call of `f`, over
/// `calls` calls timed in blocks of [`BLOCK`].
fn call_us(clock: &mut Clock, calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let timed = clock.time(|| {
        let mut per_call = Vec::with_capacity(calls / BLOCK);
        for block in 0..calls / BLOCK {
            let t0 = Instant::now();
            for i in 0..BLOCK {
                f(block * BLOCK + i);
            }
            per_call.push(t0.elapsed().as_secs_f64() * 1e6 / BLOCK as f64);
        }
        median(&per_call).expect("at least one block")
    });
    timed.value / timed.slowness
}

fn io<T>(what: &str, r: std::io::Result<T>) -> Result<T, String> {
    r.map_err(|e| format!("{what}: {e}"))
}

/// Runs the in-process probes on `cases` and reports `serve.*`.
pub fn probe(
    cases: &[Case],
    ctx: &Ctx,
    clock: &mut Clock,
    report: &mut Report,
) -> Result<(), String> {
    assert!(!cases.is_empty(), "a workload has at least one config");
    let calls = ctx.scaled(CALLS, 4 * BLOCK);
    let pick = |i: usize| &cases[i % cases.len()];
    let parsed: Vec<Json> = cases
        .iter()
        .map(|c| Json::parse(&c.line).map_err(|e| format!("{}: {e}", c.line)))
        .collect::<Result<_, _>>()?;
    let keys: Vec<u64> = cases.iter().map(|c| ResultCache::key(&c.cfg)).collect();
    let payloads: Vec<String> = cases
        .iter()
        .zip(&keys)
        .map(|(c, &k)| result_payload(&c.cfg, &c.result, k))
        .collect();
    let mut us = |name, v| report.add(name, "us", Better::Lower, v);

    // Request line -> Json -> JobSpec -> key; RunResult -> payload.
    us(
        "serve.json.parse_us",
        call_us(clock, calls, |i| {
            let _ = black_box(Json::parse(black_box(&pick(i).line)));
        }),
    );
    us(
        "serve.jobspec.parse_us",
        call_us(clock, calls, |i| {
            let _ = black_box(parse_job(black_box(&parsed[i % parsed.len()]), "probe"));
        }),
    );
    us(
        "serve.cache.key_us",
        call_us(clock, calls, |i| {
            black_box(ResultCache::key(black_box(&pick(i).cfg)));
        }),
    );
    us(
        "serve.server.result_payload_us",
        call_us(clock, calls, |i| {
            let c = pick(i);
            black_box(result_payload(&c.cfg, &c.result, keys[i % keys.len()]));
        }),
    );

    // Cache: store, hit, miss. Distinct keys, so every store creates
    // its entry and every hit reads a different file.
    let scratch = Scratch::new(&ctx.out_dir, "layers")?;
    let mut cache = io("opening the probe cache", ResultCache::open(&scratch.0))?;
    let slot = |i: usize| keys[i % keys.len()] ^ ((i as u64) << 20);
    let mut stored = 0usize;
    us(
        "serve.cache.store_us",
        call_us(clock, calls, |i| {
            stored += usize::from(cache.store(slot(i), &payloads[i % payloads.len()]).is_ok());
        }),
    );
    let mut hits = 0usize;
    us(
        "serve.cache.lookup_hit_us",
        call_us(clock, calls, |i| {
            let want = Some(payloads[i % payloads.len()].as_str());
            hits += usize::from(cache.lookup(slot(i)).as_deref() == want);
        }),
    );
    let mut misses = 0usize;
    us(
        "serve.cache.lookup_miss_us",
        call_us(clock, calls, |i| {
            misses += usize::from(cache.lookup(!slot(i)).is_none());
        }),
    );
    drop(cache);

    // Journal: one batch of four jobs opened, settled and closed. Every
    // call syncs to disk, so the loop is time-boxed.
    let (mut journal, _) = io("opening the probe journal", Journal::open(&scratch.0))?;
    let batch: Vec<(u64, Json)> = (0..4)
        .map(|i| {
            (
                keys[i % keys.len()] ^ i as u64,
                parsed[i % parsed.len()].clone(),
            )
        })
        .collect();
    let (mut begin, mut done, mut end) = (Vec::new(), Vec::new(), Vec::new());
    let budget_s = JOURNAL_BUDGET_S / ctx.divisor as f64;
    let started = Instant::now();
    while begin.len() < 5 || (begin.len() < calls && started.elapsed().as_secs_f64() < budget_s) {
        let t0 = Instant::now();
        let id = io("Journal::begin_batch", journal.begin_batch(&batch))?;
        let t1 = Instant::now();
        for (key, _) in &batch {
            io("Journal::record_done", journal.record_done(*key))?;
        }
        let t2 = Instant::now();
        io("Journal::end_batch", journal.end_batch(id))?;
        let t3 = Instant::now();
        begin.push((t1 - t0).as_secs_f64() * 1e6);
        done.push((t2 - t1).as_secs_f64() * 1e6 / batch.len() as f64);
        end.push((t3 - t2).as_secs_f64() * 1e6);
    }
    drop(journal);
    for (name, samples) in [
        ("serve.journal.begin_batch_us", &begin),
        ("serve.journal.record_done_us", &done),
        ("serve.journal.end_batch_us", &end),
    ] {
        // Not converted: these wait for the disk, not for the core.
        us(name, median(samples).expect("five batches at least"));
    }

    // The whole session with no transport: cached batches of eight
    // through `Server::serve` over an in-memory cursor.
    let session = Scratch::new(&ctx.out_dir, "session")?;
    {
        let mut cache = io("opening the session cache", ResultCache::open(&session.0))?;
        for (key, payload) in keys.iter().zip(&payloads) {
            io("ResultCache::store", cache.store(*key, payload))?;
        }
    }
    let batches = calls / 8;
    let mut input = String::new();
    for b in 0..batches {
        for j in 0..8 {
            input.push_str(&pick(b * 8 + j).line);
            input.push('\n');
        }
        input.push_str("{\"op\":\"run\"}\n");
    }
    input.push_str("{\"op\":\"quit\"}\n");
    let server = io(
        "Server::new",
        Server::new(ServeOptions {
            cache_dir: session.0.clone(),
            threads: Some(1),
            ..ServeOptions::default()
        }),
    )?;
    let mut out = Vec::new();
    let timed = clock.time(|| server.serve(Cursor::new(input), &mut out));
    let session_s = timed.reference_s();
    io("Server::serve", timed.value)?;
    let out = String::from_utf8_lossy(&out);
    let served = out
        .lines()
        .filter(|l| l.starts_with("{\"event\":\"result\"") && l.contains("\"cached\":true"))
        .count();
    report.add(
        "serve.session.inproc_cached_jobs_per_s",
        "jobs/s",
        Better::Higher,
        served as f64 / session_s,
    );

    report.checks.check(
        stored == calls && hits == calls && misses == calls,
        || {
            format!(
                "cache probe: of {calls} payloads {stored} stored and {hits} read back; {misses} absent keys missed"
            )
        },
    );
    report.checks.check(served == batches * 8, || {
        format!(
            "in-process session served {served} cached results, {} were asked for",
            batches * 8
        )
    });
    for (c, j) in cases.iter().zip(&parsed) {
        report
            .checks
            .check(parse_job(j, "probe").is_ok_and(|s| s.cfg == c.cfg), || {
                format!("parse_job does not give back the config of: {}", c.line)
            });
    }
    Ok(())
}

/// `run_job` against `run_config` on the same configs: what windowed
/// progress costs, and what a checkpoint every 2 000 cycles adds.
/// Returns the seconds `run_config` took over all of `cfgs`.
pub fn runner_probe(
    cfgs: &[SystemConfig],
    ctx: &Ctx,
    clock: &mut Clock,
    report: &mut Report,
) -> Result<f64, String> {
    let scratch = Scratch::new(&ctx.out_dir, "runner")?;
    let ckpt = scratch.0.join("probe.ckpt");
    let (mut plain, mut windowed, mut checkpointed) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        let (mut a, mut b, mut c) = (0.0, 0.0, 0.0);
        for cfg in cfgs {
            let direct = clock.time(|| run_config(cfg.clone()));
            let job = clock.time(|| run_job(cfg, 1_000, 0, None, None, &mut |_| {}));
            let saved = clock.time(|| run_job(cfg, 1_000, 2_000, Some(&ckpt), None, &mut |_| {}));
            a += direct.reference_s();
            b += job.reference_s();
            c += saved.reference_s();
            let want = direct.value.map_err(|e| e.to_string())?.fingerprint();
            let job = job.value.map_err(|e| e.to_string())?;
            let saved = saved.value.map_err(|e| e.to_string())?;
            report.checks.check(
                job.result.fingerprint() == want && saved.result.fingerprint() == want,
                || {
                    format!(
                        "{}: run_job's result differs from run_config's",
                        cfg.network
                    )
                },
            );
        }
        plain.push(a);
        windowed.push(b);
        checkpointed.push(c);
    }
    let m = |v: &[f64]| median(v).expect("three rounds");
    report.add(
        "serve.runner.overhead_frac",
        "ratio",
        Better::Lower,
        m(&windowed) / m(&plain) - 1.0,
    );
    report.add(
        "serve.runner.checkpoint_overhead_frac",
        "ratio",
        Better::Lower,
        m(&checkpointed) / m(&plain) - 1.0,
    );
    Ok(m(&plain))
}
