//! `sweep_mixed`: what regenerating a figure costs. Sixty short,
//! independent points over all four network kernels go through
//! `WorkerPool::map`, so per-point construction, dynamic scheduling and
//! the straggler tail are all on the clock.

use std::thread::ThreadId;
use std::time::Instant;

use ringmesh::{run_config, RunError, RunResult, System, SystemConfig, WorkerPool};

use crate::clock::{raw_s, Clock, Section};
use crate::golden::{sweep_label, Entry};
use crate::inputs::{job_line, mix, sweep_points, SweepPoint, SWEEP_TOPOLOGIES};
use crate::layers::{self, Case};
use crate::point::{
    check_spans, end_to_end_metrics, kernel_threads_probe, sim_metrics, snapshot_probe, traced_run,
    LoopTimes,
};
use crate::report::{Better, Report};
use crate::trace::Trace;
use crate::Ctx;

const NAME: &str = "sweep_mixed";

/// Fewest repetitions of the whole map a median is taken over.
const MIN_REPS: usize = 3;

/// Points between two clock readings in the one-thread passes.
const CLOCK_EVERY: usize = 4;

/// Times set-up is done for `setup_s`.
const SETUP_REPS: usize = 5;

/// What has to exist before the first point can run: the point list,
/// and — once each, here on one thread — every point's `System`. The
/// map builds each system again on its worker; that one construction
/// per point is what work moved out of the run and into `System::new`
/// would show up in.
fn set_up(seed: u64, divisor: u64) -> Result<Vec<SweepPoint>, RunError> {
    let points = sweep_points(seed, divisor);
    for p in &points {
        std::hint::black_box(System::new(p.cfg.clone())?);
    }
    Ok(points)
}

/// One point as the `map` closure saw it.
struct Ran {
    result: RunResult,
    busy: Section,
    worker: ThreadId,
}

/// One pass of the whole sweep on `pool`: what each point yielded, in
/// point order, and the interval the `map` took.
fn map_once(pool: WorkerPool, points: &[SweepPoint]) -> Result<(Vec<Ran>, Section), RunError> {
    let t0 = Instant::now();
    let out = pool.map(points.to_vec(), |_, p| {
        let from = Instant::now();
        run_config(p.cfg).map(|result| Ran {
            result,
            busy: (from, Instant::now()),
            worker: std::thread::current().id(),
        })
    });
    let t1 = Instant::now();
    Ok((out.into_iter().collect::<Result<_, _>>()?, (t0, t1)))
}

fn entries(points: &[SweepPoint], ran: &[Ran]) -> Vec<Entry> {
    points
        .iter()
        .zip(ran)
        .enumerate()
        .map(|(i, (p, r))| Entry::of(sweep_label(i, &p.cfg.network.to_string()), &r.result))
        .collect()
}

/// One digest over the fingerprints of all points, in point order.
fn digest(entries: &[Entry]) -> u64 {
    entries.iter().fold(0, |acc, e| mix(acc, e.fingerprint))
}

/// Checks `got` point by point against the first repetition.
fn check_repeat(reference: &[Entry], got: &[Entry], rep: usize, report: &mut Report) {
    for (want, got) in reference.iter().zip(got) {
        report.checks.check(want == got, || {
            format!(
                "point {} differs between repetition 1 and {rep}",
                want.label
            )
        });
    }
}

fn total_cycles(points: &[SweepPoint]) -> f64 {
    points.iter().map(|p| p.cfg.sim.horizon() as f64).sum()
}

/// The end-to-end pass.
fn end_to_end(ctx: &Ctx) -> Result<Report, RunError> {
    let mut report = Report::new(NAME, ctx.seed, false);
    // Set-up runs on one thread and is converted to the reference
    // clock; the maps keep every core busy and are reported raw.
    let mut clock = Clock::new();
    let mut setups: Vec<Section> = Vec::new();
    clock.read();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        set_up(ctx.seed, ctx.divisor)?;
        setups.push((t0, Instant::now()));
        clock.read();
    }
    let points = sweep_points(ctx.seed, ctx.divisor);
    let pool = WorkerPool::new(ctx.width);

    let mut maps = Vec::new();
    let mut first: Option<Vec<Entry>> = None;
    let started = Instant::now();
    while maps.len() < MIN_REPS || started.elapsed().as_secs_f64() < ctx.seconds {
        let (ran, map) = map_once(pool, &points)?;
        maps.push(map);
        let got = entries(&points, &ran);
        match &first {
            Some(reference) => check_repeat(reference, &got, maps.len(), &mut report),
            None => first = Some(got),
        }
    }
    let first = first.expect("at least one repetition ran");
    if let Some(golden) = &ctx.golden {
        golden.check_sweep(&first, &mut report.checks);
    }
    report.sim_fingerprint = Some(digest(&first));
    let setups = clock.reference_samples(&setups, "setup_s", &mut report.notes);
    let maps_s: Vec<f64> = maps.iter().map(|&m| raw_s(m)).collect();
    end_to_end_metrics(&setups, &maps_s, total_cycles(&points), &mut report);
    Ok(report)
}

/// One pass of the workload: end to end, or traced (with its trace).
pub fn pass(traced: bool, ctx: &Ctx) -> Result<(Report, Option<Trace>), String> {
    if !traced {
        return Ok((end_to_end(ctx).map_err(|e| e.to_string())?, None));
    }
    let mut clock = Clock::new();
    let (mut report, trace, cases) =
        traced_simulator(ctx, &mut clock).map_err(|e| e.to_string())?;
    layers::probe(&cases, ctx, &mut clock, &mut report)?;
    Ok((report, Some(trace)))
}

/// The simulator's side of the traced pass: the `map` closure times
/// each point on `W` workers, a one-thread pass gives the pool's
/// speed-up, and a second one-thread pass runs every point through the
/// traced loop for the layer split. The service's layers are then
/// probed on the [`Case`]s returned.
fn traced_simulator(ctx: &Ctx, clock: &mut Clock) -> Result<(Report, Trace, Vec<Case>), RunError> {
    let mut report = Report::new(NAME, ctx.seed, true);
    let mut trace = Trace::new();
    let built = clock.time(|| set_up(ctx.seed, ctx.divisor));
    let build_s = built.reference_s();
    let points = built.value?;

    // The wide pass keeps every core busy and is taken raw. The serial
    // pass is what `WorkerPool::new(1).map` does — the points in order
    // on this thread — written out so that the clock can be read every
    // few points, and converted point by point.
    let (wide, wide_map) = map_once(WorkerPool::new(ctx.width), &points)?;
    let wide_s = raw_s(wide_map);
    let golden_entries = entries(&points, &wide);
    let mut serial: Vec<Section> = Vec::with_capacity(points.len());
    clock.read();
    for (i, p) in points.iter().enumerate() {
        let from = Instant::now();
        let result = run_config(p.cfg.clone())?;
        serial.push((from, Instant::now()));
        if i % CLOCK_EVERY == CLOCK_EVERY - 1 {
            clock.read();
        }
        report.checks.check(
            result.fingerprint() == golden_entries[i].fingerprint,
            || {
                format!(
                    "point {} differs between the wide and the serial pass",
                    golden_entries[i].label
                )
            },
        );
    }
    let serial_s: f64 = serial.iter().map(|&s| clock.lenient_s(s)).sum();
    if let Some(golden) = &ctx.golden {
        golden.check_sweep(&golden_entries, &mut report.checks);
    }
    report.sim_fingerprint = Some(digest(&golden_entries));

    // The wide pass on the trace: one lane per worker thread.
    let (from, to) = (trace.ns(wide_map.0), trace.ns(wide_map.1));
    let map_span = trace.push("engine.worker_pool.map", from, to, None, 0, 0);
    let mut workers: Vec<ThreadId> = Vec::new();
    for (i, r) in wide.iter().enumerate() {
        let lane = workers
            .iter()
            .position(|&w| w == r.worker)
            .unwrap_or_else(|| {
                workers.push(r.worker);
                workers.len() - 1
            });
        let (from, to) = (trace.ns(r.busy.0), trace.ns(r.busy.1));
        trace.push(
            "sweep.point",
            from,
            to,
            Some(map_span),
            i as u64,
            lane as u32 + 1,
        );
    }

    // Busy seconds share the map's conversion: one clock state, or its
    // mean, for the whole pass.
    let busy: Vec<f64> = wide
        .iter()
        .map(|r| {
            r.busy.1.duration_since(r.busy.0).as_secs_f64() * wide_s
                / wide_map.1.duration_since(wide_map.0).as_secs_f64()
        })
        .collect();
    report.add(
        "engine.worker_pool.threads",
        "count",
        Better::Exact,
        ctx.width as f64,
    );
    report.add(
        "engine.worker_pool.efficiency",
        "ratio",
        Better::Higher,
        busy.iter().sum::<f64>() / (ctx.width as f64 * wide_s),
    );
    // One worker at the reference clock against `W` as the wall clock
    // saw them: `W` busy cores clock lower than one, and the ratio pays
    // for that, as a user would.
    report.add(
        "engine.worker_pool.speedup",
        "ratio",
        Better::Higher,
        serial_s / wide_s,
    );
    report.add("sweep.build_s", "s", Better::Lower, build_s);
    for ((family, _), name) in SWEEP_TOPOLOGIES.iter().zip([
        "sweep.ring_busy_s",
        "sweep.slotted_busy_s",
        "sweep.mesh_busy_s",
        "sweep.hybrid_busy_s",
    ]) {
        let family_busy = points
            .iter()
            .zip(&busy)
            .filter(|(p, _)| p.family == *family)
            .map(|(_, b)| b)
            .sum();
        report.add(name, "s", Better::Lower, family_busy);
    }
    report.add(
        "sweep.slowest_point_s",
        "s",
        Better::Lower,
        busy.iter().copied().fold(0.0, f64::max),
    );
    report.add("sweep.points", "count", Better::Exact, points.len() as f64);
    report.add(
        "sweep.sim_cycles",
        "cycles",
        Better::Exact,
        total_cycles(&points),
    );

    // Every point once more through the traced loop, on this thread.
    let mut runs = Vec::with_capacity(points.len());
    for (i, p) in points.iter().enumerate() {
        let run = traced_run(&p.cfg, &mut trace, i as u64)?;
        if i % CLOCK_EVERY == CLOCK_EVERY - 1 {
            clock.read();
        }
        report.checks.check(
            run.result.fingerprint() == golden_entries[i].fingerprint,
            || {
                format!(
                    "traced loop does not reproduce System::run's fingerprint on point {}",
                    golden_entries[i].label
                )
            },
        );
        check_spans(&trace, &run, &mut report);
        runs.push((run, &p.cfg));
    }
    let times = LoopTimes::of_every(&trace, &runs, clock);
    let folded = LoopTimes::fold(&times, |v| v.iter().sum());
    folded.report(&mut report);
    report.add(
        "bench.timer_overhead_frac",
        "ratio",
        Better::Lower,
        (folded.new_s + folded.loop_s) / serial_s - 1.0,
    );
    sim_metrics(
        &wide.iter().map(|r| &r.result).collect::<Vec<_>>(),
        &mut report,
    );

    // Checkpoints and kernel threads on the largest point of each
    // family: a fourth full pass would buy no new layer.
    let per_family = points.len() / SWEEP_TOPOLOGIES.len();
    let largest: Vec<(&SystemConfig, &RunResult)> = (0..SWEEP_TOPOLOGIES.len())
        .map(|f| (f + 1) * per_family - 1)
        .map(|i| (&points[i].cfg, &wide[i].result))
        .collect();
    snapshot_probe(&largest, clock, &mut report);
    let mut cases = Vec::new();
    for (cfg, plain) in largest {
        kernel_threads_probe(cfg, plain, &mut report)?;
        cases.push(Case {
            line: job_line("probe", cfg),
            cfg: cfg.clone(),
            result: plain.clone(),
        });
    }
    Ok((report, trace, cases))
}
