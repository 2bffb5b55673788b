//! The benchmark's inputs: seven workloads, owned here as constants so
//! that no change to a figure definition or a default in the program
//! can change what is measured. Everything that varies is derived from
//! `--seed`; the program only ever sees finished configs and job lines.

use ringmesh::{NetworkSpec, SimParams, SystemConfig};
use ringmesh_net::CacheLineSize;
use ringmesh_workload::WorkloadParams;

/// `--seed` when none is given ("RING").
pub const DEFAULT_SEED: u64 = 1_380_011_591;

// Every cycle count below is the issue's sizing times 0.25: the cap on
// the driver's run time (158 runs in 3 420 s) leaves ~10 s of measuring
// per run, and a median needs several repetitions inside it.

/// `--smoke` divides every cycle count and window by this.
pub const SMOKE_DIVISOR: u64 = 20;

/// The names, in the order they run.
pub const WORKLOADS: [&str; 7] = [
    "mesh_sat",
    "mesh_light",
    "mesh_big",
    "ring_sat",
    "sweep_mixed",
    "serve_cold",
    "serve_cached",
];

/// One simulation point repeated under the clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointWorkload {
    pub name: &'static str,
    pub topology: &'static str,
    /// `C`, misses per processor cycle.
    pub miss_rate: f64,
    pub warmup: u64,
    pub batch_cycles: u64,
    pub batches: usize,
}

/// 64 B lines, R = 1.0, T = 4 on all four; see README.md for why each
/// exists.
pub const POINTS: [PointWorkload; 4] = [
    PointWorkload {
        name: "mesh_sat",
        topology: "mesh:16",
        miss_rate: 0.04,
        warmup: 1_000,
        batch_cycles: 1_000,
        batches: 16,
    },
    PointWorkload {
        name: "mesh_light",
        topology: "mesh:16",
        miss_rate: 0.002,
        warmup: 1_000,
        batch_cycles: 1_000,
        batches: 49,
    },
    PointWorkload {
        name: "mesh_big",
        topology: "mesh:64",
        miss_rate: 0.04,
        warmup: 500,
        batch_cycles: 500,
        batches: 2,
    },
    PointWorkload {
        name: "ring_sat",
        topology: "ring:2:3:4:6",
        miss_rate: 0.04,
        warmup: 1_000,
        batch_cycles: 1_000,
        batches: 124,
    },
];

/// The four network families of `sweep_mixed` at 16, 36, 64, 100 and
/// 144 PMs. Ring and slotted shapes are what `topologies::best_spec`
/// chose for 64 B lines when the benchmark was written, frozen here.
pub const SWEEP_TOPOLOGIES: [(&str, [&str; 5]); 4] = [
    (
        "ring",
        [
            "ring:2:2:4",
            "ring:2:3:6",
            "ring:2:2:4:4",
            "ring:2:2:5:5",
            "ring:2:3:4:6",
        ],
    ),
    (
        "slotted",
        [
            "slotted:2:2:4",
            "slotted:2:3:6",
            "slotted:2:2:4:4",
            "slotted:2:2:5:5",
            "slotted:2:3:4:6",
        ],
    ),
    ("mesh", ["mesh:4", "mesh:6", "mesh:8", "mesh:10", "mesh:12"]),
    (
        "hybrid",
        [
            "hybrid:2x2:4",
            "hybrid:3x3:4",
            "hybrid:4x4:4",
            "hybrid:5x5:4",
            "hybrid:6x6:4",
        ],
    ),
];

/// Seeds per (family, size) pair of `sweep_mixed`.
pub const SWEEP_SEEDS: usize = 3;

/// `SimParams::full()` times 0.25.
const SWEEP_SIM: SimParams = SimParams {
    warmup: 1_000,
    batch_cycles: 1_000,
    batches: 8,
};

/// The four jobs of one `serve_cold` batch, and the four kinds the 64
/// `serve_cached` keys cycle through.
pub const SERVE_TOPOLOGIES: [&str; 4] = ["ring:3:3:6", "slotted:3:3:6", "mesh:6", "hybrid:3x3:4"];

/// Keys stored in set-up for `serve_cached`.
pub const CACHED_KEYS: usize = 64;

/// Jobs per `serve_cached` batch.
pub const CACHED_BATCH_JOBS: usize = 8;

/// Simulated cycles of one `"scale":"quick"` serve job.
pub fn serve_job_cycles() -> u64 {
    SimParams::quick().horizon()
}

/// splitmix64: the harness's own seed mixer, so generated inputs do not
/// depend on the program's RNG.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A simulation seed derived from `--seed`: 48 bits, so it survives the
/// trip through a JSON number exactly.
pub fn sim_seed(seed: u64, salt: u64) -> u64 {
    mix(seed, salt) & 0xFFFF_FFFF_FFFF
}

fn config(topology: &str, miss_rate: f64, sim: SimParams, seed: u64, divisor: u64) -> SystemConfig {
    let network: NetworkSpec = topology
        .parse()
        .expect("benchmark topology constants are valid specs");
    let mut workload = WorkloadParams::paper_baseline();
    workload.miss_rate = miss_rate;
    SystemConfig::new(network, CacheLineSize::B64)
        .with_workload(workload)
        .with_sim(SimParams {
            warmup: (sim.warmup / divisor).max(1),
            batch_cycles: (sim.batch_cycles / divisor).max(1),
            batches: sim.batches,
        })
        .with_seed(seed)
}

impl PointWorkload {
    pub fn by_name(name: &str) -> Option<&'static PointWorkload> {
        POINTS.iter().find(|p| p.name == name)
    }

    /// The one config this workload repeats; `divisor` shrinks the
    /// cycle counts (1, or [`SMOKE_DIVISOR`]).
    pub fn config(&self, seed: u64, divisor: u64) -> SystemConfig {
        let sim = SimParams {
            warmup: self.warmup,
            batch_cycles: self.batch_cycles,
            batches: self.batches,
        };
        // The salt is the workload's position, so two point workloads
        // never share a simulation seed.
        let salt = POINTS.iter().position(|p| p.name == self.name).unwrap_or(0) as u64;
        config(
            self.topology,
            self.miss_rate,
            sim,
            sim_seed(seed, salt),
            divisor,
        )
    }
}

/// One point of `sweep_mixed`.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    pub family: &'static str,
    pub cfg: SystemConfig,
}

/// The 60 points of `sweep_mixed`, family-major, then size, then seed.
pub fn sweep_points(seed: u64, divisor: u64) -> Vec<SweepPoint> {
    let mut points = Vec::with_capacity(SWEEP_TOPOLOGIES.len() * 5 * SWEEP_SEEDS);
    for (family, specs) in SWEEP_TOPOLOGIES {
        for spec in specs {
            for _ in 0..SWEEP_SEEDS {
                let salt = 0x5EE9_0000 + points.len() as u64;
                points.push(SweepPoint {
                    family,
                    cfg: config(spec, 0.04, SWEEP_SIM, sim_seed(seed, salt), divisor),
                });
            }
        }
    }
    points
}

/// The request line (no newline) that asks the service for exactly
/// `cfg`: every field the benchmark varies, spelled out.
pub fn job_line(id: &str, cfg: &SystemConfig) -> String {
    format!(
        "{{\"op\":\"job\",\"id\":\"{id}\",\"topology\":\"{}\",\"cache_line\":{},\"miss_rate\":{},\
         \"warmup\":{},\"batch_cycles\":{},\"batches\":{},\"seed\":{}}}",
        cfg.network,
        cfg.cache_line.bytes(),
        cfg.workload.miss_rate,
        cfg.sim.warmup,
        cfg.sim.batch_cycles,
        cfg.sim.batches,
        cfg.seed
    )
}

/// One serve job as sent on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeJob {
    pub id: String,
    pub topology: &'static str,
    pub seed: u64,
}

impl ServeJob {
    /// The request line (no newline).
    pub fn line(&self) -> String {
        format!(
            "{{\"op\":\"job\",\"id\":\"{}\",\"topology\":\"{}\",\"cache_line\":64,\"scale\":\"quick\",\"seed\":{}}}",
            self.id, self.topology, self.seed
        )
    }

    /// The config this job denotes, built without the program's parser
    /// (the in-process layer probes compare the two).
    pub fn config(&self) -> SystemConfig {
        config(self.topology, 0.04, SimParams::quick(), self.seed, 1)
    }
}

/// The `batch`-th never-seen batch of `serve_cold` client `client`:
/// one job per [`SERVE_TOPOLOGIES`] entry, seeds unique across clients
/// and batches.
pub fn cold_batch(seed: u64, client: u64, batch: u64) -> Vec<ServeJob> {
    SERVE_TOPOLOGIES
        .iter()
        .enumerate()
        .map(|(j, &topology)| ServeJob {
            id: format!("c{client}-b{batch}-j{j}"),
            topology,
            seed: sim_seed(
                seed,
                0xC01D_0000_0000 + (client << 32) + (batch << 4) + j as u64,
            ),
        })
        .collect()
}

/// The 64 jobs `serve_cached` stores in set-up: 16 seeds of each kind.
pub fn cached_keys(seed: u64) -> Vec<ServeJob> {
    (0..CACHED_KEYS)
        .map(|k| ServeJob {
            id: format!("k{k}"),
            topology: SERVE_TOPOLOGIES[k % SERVE_TOPOLOGIES.len()],
            seed: sim_seed(seed, 0xCAC4_ED00 + k as u64),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringmesh_serve::{json::Json, parse_job};
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(sweep_points(1, 1), sweep_points(1, 1));
        assert_ne!(sweep_points(1, 1), sweep_points(2, 1));
        assert_eq!(cold_batch(1, 0, 3), cold_batch(1, 0, 3));
        assert_ne!(cold_batch(1, 0, 3)[0].seed, cold_batch(2, 0, 3)[0].seed);
        let p = &POINTS[0];
        assert_eq!(p.config(5, 1), p.config(5, 1));
        assert_ne!(p.config(5, 1).seed, p.config(6, 1).seed);
    }

    #[test]
    fn every_constant_is_a_valid_config() {
        for p in &POINTS {
            p.config(DEFAULT_SEED, 1).validate().unwrap();
            p.config(DEFAULT_SEED, SMOKE_DIVISOR).validate().unwrap();
        }
        let points = sweep_points(DEFAULT_SEED, 1);
        assert_eq!(points.len(), 60);
        let sizes = [16, 36, 64, 100, 144];
        for (i, p) in points.iter().enumerate() {
            p.cfg.validate().unwrap();
            assert_eq!(
                p.cfg.network.num_pms(),
                sizes[(i / SWEEP_SEEDS) % 5],
                "{}",
                p.cfg.network
            );
        }
        let seeds: HashSet<u64> = points.iter().map(|p| p.cfg.seed).collect();
        assert_eq!(seeds.len(), 60, "every sweep point has its own seed");
    }

    #[test]
    fn job_lines_parse_to_the_configs_the_harness_expects() {
        let keys = cached_keys(DEFAULT_SEED);
        assert_eq!(keys.len(), CACHED_KEYS);
        for job in keys.iter().chain(&cold_batch(DEFAULT_SEED, 1, 9)) {
            let parsed = parse_job(&Json::parse(&job.line()).unwrap(), "x").unwrap();
            assert_eq!(parsed.id, job.id);
            assert_eq!(parsed.cfg, job.config());
        }
        assert_eq!(keys[5].config().sim.horizon(), serve_job_cycles());
    }

    #[test]
    fn spelled_out_job_lines_parse_to_the_same_config() {
        let configs = POINTS.iter().map(|p| p.config(DEFAULT_SEED, 1)).chain(
            sweep_points(DEFAULT_SEED, SMOKE_DIVISOR)
                .into_iter()
                .map(|p| p.cfg),
        );
        for cfg in configs {
            let line = job_line("probe", &cfg);
            let parsed = parse_job(&Json::parse(&line).unwrap(), "x").unwrap();
            assert_eq!(parsed.cfg, cfg, "{line}");
        }
    }

    #[test]
    fn cold_batches_never_repeat_a_job() {
        let mut seen = HashSet::new();
        for client in 0..4 {
            for batch in 0..500 {
                for job in cold_batch(DEFAULT_SEED, client, batch) {
                    assert!(seen.insert((job.topology, job.seed)), "{job:?} repeats");
                }
            }
        }
    }
}
