//! The host-work record: how much the simulator did per simulated
//! cycle — station sides and routers stepped, flits moved and latched,
//! driver entries visited and read — for the benchmark's four point
//! workloads and a cost-vs-size curve of the four kernels. The counts
//! come from [`ringmesh_trace::Work`] and are deterministic per seed,
//! so `ringmesh figure work` writes the same [`FILE`] on every host: a
//! speed change states its count delta from it before any wall-clock.
//!
//! The record has fixed run lengths: it ignores `RINGMESH_FULL`.

use std::fmt::Write as _;

use ringmesh_net::CacheLineSize;
use ringmesh_trace::{TraceConfig, Work};
use ringmesh_workload::WorkloadParams;

use crate::{NetworkSpec, SimParams, System, SystemConfig, WorkerPool};

/// What the `work` row writes, in the current directory.
pub const FILE: &str = "BENCH_work.json";

/// The seed every point of the record runs at.
pub const SEED: u64 = 7;

/// The benchmark's four point workloads (`benchmark/src/inputs.rs`):
/// name, topology, `C`, and warm-up, batch length and batches.
const POINTS: [(&str, &str, f64, SimParams); 4] = [
    ("mesh_sat", "mesh:16", 0.04, sim(1_000, 1_000, 16)),
    ("mesh_light", "mesh:16", 0.002, sim(1_000, 1_000, 49)),
    ("mesh_big", "mesh:64", 0.04, sim(500, 500, 2)),
    ("ring_sat", "ring:2:3:4:6", 0.04, sim(1_000, 1_000, 124)),
];

/// The cost-vs-size curve: each kernel at 16, 64, 256, 1 024 and
/// 4 096 PMs, in rings of four PMs wherever the kernel has rings.
const CURVE: [(&str, [&str; 5]); 4] = [
    (
        "ring",
        [
            "ring:4:4",
            "ring:4:4:4",
            "ring:4:4:4:4",
            "ring:4:4:4:4:4",
            "ring:4:4:4:4:4:4",
        ],
    ),
    (
        "slotted",
        [
            "slotted:4:4",
            "slotted:4:4:4",
            "slotted:4:4:4:4",
            "slotted:4:4:4:4:4",
            "slotted:4:4:4:4:4:4",
        ],
    ),
    (
        "mesh",
        ["mesh:4", "mesh:8", "mesh:16", "mesh:32", "mesh:64"],
    ),
    (
        "hybrid",
        [
            "hybrid:2x2:4",
            "hybrid:4x4:4",
            "hybrid:8x8:4",
            "hybrid:16x16:4",
            "hybrid:32x32:4",
        ],
    ),
];

/// The curve's two loads: near idle and saturated.
const CURVE_LOADS: [f64; 2] = [0.002, 0.04];

/// The curve's run length per point.
const CURVE_SIM: SimParams = sim(500, 500, 2);

const fn sim(warmup: u64, batch_cycles: u64, batches: usize) -> SimParams {
    SimParams {
        warmup,
        batch_cycles,
        batches,
    }
}

/// One measured point: its label, topology, load and cycles, and the
/// run's totals by `Work as usize`.
struct Counted {
    label: String,
    topology: &'static str,
    miss_rate: f64,
    cycles: u64,
    totals: Vec<u64>,
}

impl Counted {
    fn per_cycle(&self, w: Work) -> f64 {
        self.totals[w as usize] as f64 / self.cycles.max(1) as f64
    }
}

/// Runs `topology` at `miss_rate` (64 B lines, R = 1, T = 4, seed
/// [`SEED`]) with a recording tracer that keeps no events, and returns
/// the run's host-work totals.
fn count(label: String, topology: &'static str, miss_rate: f64, sim: SimParams) -> Counted {
    let network: NetworkSpec = topology.parse().expect("work record topologies are valid");
    let mut workload = WorkloadParams::paper_baseline();
    workload.miss_rate = miss_rate;
    let cfg = SystemConfig::new(network, CacheLineSize::B64)
        .with_workload(workload)
        .with_sim(sim)
        .with_seed(SEED);
    let tcfg = TraceConfig {
        window_cycles: sim.horizon().max(1),
        sample_every: u64::MAX,
        event_capacity: 0,
    };
    let (_, report) = System::new(cfg)
        .and_then(|s| s.run_traced(tcfg))
        .unwrap_or_else(|e| panic!("work record: {topology} at C = {miss_rate}: {e}"));
    Counted {
        label,
        topology,
        miss_rate,
        cycles: report.cycles,
        totals: report.work,
    }
}

/// Every point of the record, points first, then the curve kernel by
/// kernel, size by size, load by load; run on the sweep pool, returned
/// in that order.
fn measure() -> Vec<Counted> {
    let mut jobs: Vec<(String, &'static str, f64, SimParams)> = POINTS
        .iter()
        .map(|&(name, topology, c, sim)| (name.to_string(), topology, c, sim))
        .collect();
    for (kernel, topologies) in CURVE {
        for topology in topologies {
            for c in CURVE_LOADS {
                jobs.push((kernel.to_string(), topology, c, CURVE_SIM));
            }
        }
    }
    WorkerPool::from_env().map(jobs, |_, (label, topology, c, sim)| {
        count(label, topology, c, sim)
    })
}

/// One point as a JSON object on one line: counts per cycle to three
/// decimals, every [`Work`] counter by name.
fn json_point(out: &mut String, key: &str, p: &Counted, pms: Option<u32>) {
    let _ = write!(out, "{{\"{key}\": \"{}\", ", p.label);
    if let Some(pms) = pms {
        let _ = write!(out, "\"pms\": {pms}, ");
    }
    let _ = write!(
        out,
        "\"topology\": \"{}\", \"c\": {}, \"cycles\": {}, \"per_cycle\": {{",
        p.topology, p.miss_rate, p.cycles
    );
    for (i, w) in Work::ALL.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{}\": {:.3}", w.name(), p.per_cycle(*w));
    }
    out.push_str("}}");
}

fn render(points: &[Counted]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "  \"what\": \"host work per simulated cycle: ringmesh figure work\",\n  \
         \"seed\": {SEED},\n  \"cache_line\": \"64B\",\n  \"r\": 1.0,\n  \"t\": 4,"
    );
    out.push_str("  \"points\": [\n");
    let (named, curve) = points.split_at(POINTS.len());
    for (i, p) in named.iter().enumerate() {
        out.push_str("    ");
        json_point(&mut out, "name", p, None);
        out.push_str(if i + 1 < named.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n  \"curve\": [\n");
    for (i, p) in curve.iter().enumerate() {
        let pms = [16, 64, 256, 1024, 4096][i / CURVE_LOADS.len() % 5];
        out.push_str("    ");
        json_point(&mut out, "kernel", p, Some(pms));
        out.push_str(if i + 1 < curve.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// The `work` row: measures the record, prints the point workloads'
/// counts as a table and writes the whole record to [`FILE`].
pub fn print_record() {
    let points = measure();
    // Written before anything is printed: a closed stdout ends the
    // process at its first print.
    let written = std::fs::write(FILE, render(&points));
    let mut t = ringmesh_stats::Table::new(
        format!("host work per simulated cycle (seed {SEED}, 64B, R=1, T=4)"),
        &[
            "workload",
            "ring sides",
            "mesh routers",
            "link flits",
            "fifo latches",
            "driver visits",
            "due examined",
        ],
    );
    for p in &points[..POINTS.len()] {
        let cell = |w| format!("{:.1}", p.per_cycle(w));
        t.push_row(vec![
            p.label.clone(),
            cell(Work::RingSides),
            cell(Work::MeshRouters),
            cell(Work::LinkFlits),
            cell(Work::FifoLatches),
            cell(Work::DriverVisits),
            cell(Work::DueExamined),
        ]);
    }
    println!("{}", t.to_markdown());
    match written {
        Ok(()) => println!("wrote {FILE}"),
        Err(e) => eprintln!("warning: could not write {FILE}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A point's counts are a function of its seed: two runs agree.
    #[test]
    fn counts_are_deterministic() {
        let a = count("a".into(), "hybrid:2x2:4", 0.04, sim(100, 100, 1));
        let b = count("b".into(), "hybrid:2x2:4", 0.04, sim(100, 100, 1));
        assert_eq!(a.totals, b.totals);
        assert_eq!(a.cycles, 200);
        assert!(a.per_cycle(Work::RingSides) > 0.0);
        assert!(a.per_cycle(Work::MeshRouters) > 0.0);
        assert!(a.per_cycle(Work::DriverVisits) > 0.0);
    }
}
