//! The ringmesh benchmark harness. See README.md beside `Cargo.toml`.
//!
//! Two ways in:
//!
//! * `--workload NAME --trace 0|1` runs one pass of one workload in
//!   this process and ends with the driver's JSON line;
//! * without `--trace`, every workload (or the one named) runs in a
//!   child process of its own, and the records are merged into
//!   `out/results.json`.

mod clock;
mod compare;
mod contract;
mod golden;
mod inputs;
mod jsonw;
mod layers;
mod point;
mod procfs;
mod report;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use ringmesh_serve::json::Json;

use crate::contract::Contract;
use crate::golden::Golden;
use crate::inputs::{PointWorkload, DEFAULT_SEED, SMOKE_DIVISOR, WORKLOADS};
use crate::jsonw::J;
use crate::procfs::Host;

/// Everything one workload pass needs to know.
#[derive(Debug)]
pub struct Ctx {
    pub seed: u64,
    /// Seconds the pass measures for.
    pub seconds: f64,
    /// 1, or [`SMOKE_DIVISOR`]: divides every cycle count and window.
    pub divisor: u64,
    /// `W`: the most threads and connections the harness and the
    /// server it spawns may use.
    pub width: usize,
    pub out_dir: PathBuf,
    /// The release `ringmesh` binary, for the serve workloads.
    pub ringmesh_bin: Option<PathBuf>,
    /// Present when `seed` is the default seed.
    pub golden: Option<Golden>,
}

impl Ctx {
    /// `n` at this pass's size: divided by the smoke divisor, at least
    /// `floor`.
    pub fn scaled(&self, n: usize, floor: usize) -> usize {
        (n / self.divisor as usize).max(floor)
    }
}

fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Command-line arguments, taken out one flag at a time.
struct Args(Vec<String>);

impl Args {
    fn flag(&mut self, name: &str) -> bool {
        match self.0.iter().position(|a| a == name) {
            Some(i) => {
                self.0.remove(i);
                true
            }
            None => false,
        }
    }

    fn values<const N: usize>(&mut self, name: &str) -> Result<Option<[String; N]>, String> {
        let Some(i) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if i + N >= self.0.len() {
            return Err(format!("{name} needs {N} value(s)"));
        }
        let taken: Vec<String> = self.0.drain(i..=i + N).skip(1).collect();
        Ok(Some(taken.try_into().expect("N values drained")))
    }

    fn parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        match self.values::<1>(name)? {
            Some([v]) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{name}: cannot read '{v}'")),
            None => Ok(None),
        }
    }
}

const USAGE: &str = "\
usage: benchmark/run.sh [--seed N] [--workload NAME] [--traced] [--runs N]
                        [--seconds S] [--smoke] [--out FILE]
       benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
       benchmark/run.sh --compare A.json B.json
       benchmark/run.sh --bless
";

fn main() -> ExitCode {
    // Ambient settings must not leak into a measurement: not into this
    // process, and not into the children that inherit its environment.
    for var in [
        "RINGMESH_THREADS",
        "RINGMESH_KERNEL_THREADS",
        "RINGMESH_FULL",
    ] {
        std::env::remove_var(var);
    }
    ringmesh::set_kernel_threads(1);
    match run(Args(std::env::args().skip(1).collect())) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ringmesh-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(mut args: Args) -> Result<ExitCode, String> {
    if args.flag("--help") || args.flag("-h") {
        print!("{USAGE}");
        return Ok(ExitCode::SUCCESS);
    }
    let contract = Contract::load(&bench_dir().join("../BENCHMARK.json"))?;
    if let Some([a, b]) = args.values::<2>("--compare")? {
        return compare::run(Path::new(&a), Path::new(&b), &contract);
    }
    if args.flag("--bless") {
        Golden::bless(&bench_dir().join("golden.json"))?;
        println!("golden.json rewritten: a change to the benchmark, not to the program");
        return Ok(ExitCode::SUCCESS);
    }

    let smoke = args.flag("--smoke");
    let seed = args.parsed::<u64>("--seed")?.unwrap_or(DEFAULT_SEED);
    let seconds =
        args.parsed::<f64>("--seconds")?
            .unwrap_or(if smoke { 0.3 } else { contract.run_seconds });
    let workload = args.values::<1>("--workload")?.map(|[w]| w);
    let trace = args.parsed::<u8>("--trace")?;
    let traced = args.flag("--traced");
    let runs = args.parsed::<u64>("--runs")?.unwrap_or(1);
    let out = args.values::<1>("--out")?.map(|[p]| PathBuf::from(p));
    let ringmesh_bin = args
        .values::<1>("--ringmesh-bin")?
        .map(|[p]| PathBuf::from(p));
    if let Some(extra) = args.0.first() {
        return Err(format!("unknown argument '{extra}'\n{USAGE}"));
    }
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    if let Some(w) = &workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload '{w}' (one of: {})",
                WORKLOADS.join(", ")
            ));
        }
    }
    let out_dir = bench_dir().join("out");
    fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let divisor = if smoke { SMOKE_DIVISOR } else { 1 };

    match (workload, trace) {
        (Some(name), Some(trace)) => {
            let ctx = Ctx {
                seed,
                seconds,
                divisor,
                width: procfs::nproc().min(4),
                golden: if seed == DEFAULT_SEED {
                    Golden::load(&bench_dir().join("golden.json"), divisor)?
                } else {
                    None
                },
                out_dir,
                ringmesh_bin,
            };
            one_pass(&name, trace != 0, &ctx, &contract)
        }
        (_, Some(_)) => Err("--trace needs --workload".into()),
        (workload, None) => {
            let suite = Suite {
                seed,
                seconds,
                smoke,
                traced,
                runs,
                workloads: workload.map_or_else(
                    || WORKLOADS.iter().map(|w| w.to_string()).collect(),
                    |w| vec![w],
                ),
                out: out.unwrap_or_else(|| out_dir.join("results.json")),
                ringmesh_bin,
            };
            suite.run(&out_dir, &contract)
        }
    }
}

fn record_path(out_dir: &Path, workload: &str, traced: bool) -> PathBuf {
    let pass = if traced { "traced" } else { "e2e" };
    out_dir.join(format!("record-{workload}.{pass}.json"))
}

/// One pass of one workload in this process: prints a line per metric,
/// leaves the full record (and the trace) under `out/`, and ends with
/// the driver's JSON line.
fn one_pass(name: &str, traced: bool, ctx: &Ctx, contract: &Contract) -> Result<ExitCode, String> {
    let (mut report, trace) = match PointWorkload::by_name(name) {
        Some(w) => point::pass(w, traced, ctx)?,
        None if name == "sweep_mixed" => sweep::pass(traced, ctx)?,
        None => serve::pass(name, traced, ctx)?,
    };
    // Noise guard: a median whose own quartiles are wider than half the
    // metric's bound is worth a warning, never a failure.
    for m in &report.metrics {
        if let (Some(s), Some(bound)) = (m.spread, contract.bound(m.name)) {
            if s.relative_iqr() > bound / 2.0 {
                report.notes.push(format!(
                    "{} inter-quartile distance is {:.1} % of its median, over half its {:.0} % bound",
                    m.name,
                    s.relative_iqr() * 100.0,
                    bound * 100.0
                ));
            }
        }
    }
    report.print_lines();
    if let Some(trace) = &trace {
        let path = ctx.out_dir.join(format!("trace-{name}.json"));
        trace
            .write_chrome(&path, name)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "{name} trace {} spans -> {}",
            trace.spans.len(),
            path.display()
        );
    }
    let path = record_path(&ctx.out_dir, name, traced);
    fs::write(&path, format!("{}\n", report.to_json()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let names = if traced {
        &contract.per_layer
    } else {
        &contract.end_to_end
    };
    println!("{}", report.contract_line(names)?);
    Ok(ExitCode::SUCCESS)
}

/// A run of several workloads, each pass in a child process of its own
/// so that one workload's peak memory and caches are not the next's.
struct Suite {
    seed: u64,
    seconds: f64,
    smoke: bool,
    traced: bool,
    runs: u64,
    workloads: Vec<String>,
    out: PathBuf,
    ringmesh_bin: Option<PathBuf>,
}

impl Suite {
    fn run(&self, out_dir: &Path, contract: &Contract) -> Result<ExitCode, String> {
        let start = Host::read(out_dir);
        println!(
            "host: nproc={} cpu=\"{}\" kernel={} out_fs={} load_1min={}",
            start.nproc, start.cpu_model, start.kernel, start.out_fs, start.loadavg_1min
        );
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        // Each record parsed, and as the text the child left.
        let mut records: Vec<(Json, String)> = Vec::new();
        let mut failed_checks = 0u64;
        for run in 0..self.runs {
            for workload in &self.workloads {
                for traced in [false, true] {
                    if traced && !self.traced {
                        continue;
                    }
                    let record = self.child(&exe, workload, self.seed + run, traced, out_dir)?;
                    failed_checks += record.0.get("failed").and_then(Json::as_u64).unwrap_or(0);
                    records.push(record);
                }
            }
        }
        let end = Host::read(out_dir);
        println!("host: load_1min={} at end", end.loadavg_1min);

        let (parsed, texts): (Vec<Json>, Vec<String>) = records.into_iter().unzip();
        let summary = compare::summarize(&parsed, contract);
        let doc = J::obj([
            ("schema", J::str("ringmesh-benchmark/1")),
            ("seed", J::Num(self.seed as f64)),
            ("seconds", J::Num(self.seconds)),
            ("smoke", J::Bool(self.smoke)),
            (
                "host",
                J::obj([
                    ("nproc", J::Num(start.nproc as f64)),
                    ("cpu_model", J::str(&start.cpu_model)),
                    ("kernel", J::str(&start.kernel)),
                    ("out_fs", J::str(&start.out_fs)),
                    ("load_1min_start", J::Num(start.loadavg_1min)),
                    ("load_1min_end", J::Num(end.loadavg_1min)),
                ]),
            ),
            ("summary", summary),
            ("runs", J::Arr(texts.into_iter().map(J::Raw).collect())),
        ]);
        fs::write(&self.out, format!("{doc}\n"))
            .map_err(|e| format!("{}: {e}", self.out.display()))?;
        println!(
            "{} pass(es) recorded in {}; {failed_checks} correctness check(s) failed",
            parsed.len(),
            self.out.display()
        );
        // A failed check is a result (`failure_rate`), not a harness
        // error: the exit code stays 0.
        Ok(ExitCode::SUCCESS)
    }

    /// Runs one pass in a child and returns the record it left.
    fn child(
        &self,
        exe: &Path,
        workload: &str,
        seed: u64,
        traced: bool,
        out_dir: &Path,
    ) -> Result<(Json, String), String> {
        let record = record_path(out_dir, workload, traced);
        let _ = fs::remove_file(&record);
        let mut cmd = Command::new(exe);
        cmd.args(["--workload", workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &self.seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .stdin(Stdio::null());
        if self.smoke {
            cmd.arg("--smoke");
        }
        if let Some(bin) = &self.ringmesh_bin {
            cmd.arg("--ringmesh-bin").arg(bin);
        }
        let status = cmd
            .status()
            .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
        if !status.success() {
            return Err(format!(
                "{workload} ({}) ended with {status}",
                if traced { "traced" } else { "end to end" }
            ));
        }
        let text = fs::read_to_string(&record).map_err(|e| format!("{}: {e}", record.display()))?;
        let _ = fs::remove_file(&record);
        let parsed = Json::parse(&text).map_err(|e| format!("{}: {e}", record.display()))?;
        Ok((parsed, text.trim_end().to_string()))
    }
}
