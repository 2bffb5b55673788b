//! Top-level system configuration.

use std::fmt;
use std::fmt::Write as _;
use std::str::FromStr;

use ringmesh_net::{BufferRegime, CacheLineSize, ConfigError};
use ringmesh_ring::RingSpec;
use ringmesh_snap::Fingerprint;
use ringmesh_workload::{MemoryParams, MissProcess, WorkloadParams};

/// Which interconnect to simulate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkSpec {
    /// A hierarchical ring with the given topology; `speedup` = 2 gives
    /// the §6 double-speed global ring.
    Ring {
        /// Hierarchy spec (e.g. `"2:3:4".parse()`).
        spec: RingSpec,
        /// Global-ring clock multiplier (1 or 2).
        speedup: u32,
    },
    /// A square `side × side` bi-directional mesh.
    Mesh {
        /// Mesh side length.
        side: u32,
        /// Router input buffer regime.
        buffers: BufferRegime,
    },
    /// A hierarchical ring with slotted (non-blocking) switching — the
    /// Hector/NUMAchine discipline the paper's footnote 3 mentions;
    /// provided as an extension for switching-technique comparisons.
    SlottedRing {
        /// Hierarchy spec.
        spec: RingSpec,
    },
    /// A hybrid Ring-Mesh: a `side × side` global wormhole mesh whose
    /// routers each carry one `local`-PM ring, bridged per router
    /// (the arXiv:1904.03428 crossover design).
    Hybrid {
        /// Global mesh side length.
        side: u32,
        /// PMs per local ring.
        local: u32,
    },
}

impl NetworkSpec {
    /// A normal-speed ring network.
    pub fn ring(spec: RingSpec) -> Self {
        NetworkSpec::Ring { spec, speedup: 1 }
    }

    /// A mesh with the paper's default 4-flit buffers.
    pub fn mesh(side: u32) -> Self {
        NetworkSpec::Mesh {
            side,
            buffers: BufferRegime::FourFlit,
        }
    }
}

/// Prints the canonical spec string (`ring:2:3:4`, `mesh:12`,
/// `hybrid:4x4:4`, …) — the exact inverse of [`FromStr`], used by the
/// CLI `--topology` flag, serve job keys and the config canonical
/// form. Aliases the parser accepts (`ring1x:`, `:4flit`) print in
/// their canonical form.
impl fmt::Display for NetworkSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkSpec::Ring { spec, speedup: 1 } => write!(f, "ring:{spec}"),
            NetworkSpec::Ring { spec, speedup } => write!(f, "ring{speedup}x:{spec}"),
            NetworkSpec::SlottedRing { spec } => write!(f, "slotted:{spec}"),
            NetworkSpec::Mesh { side, buffers } => {
                write!(f, "mesh:{side}")?;
                match buffers {
                    BufferRegime::FourFlit => Ok(()),
                    BufferRegime::OneFlit => f.write_str(":1flit"),
                    BufferRegime::CacheLine => f.write_str(":cl"),
                }
            }
            NetworkSpec::Hybrid { side, local } => write!(f, "hybrid:{side}x{side}:{local}"),
        }
    }
}

impl FromStr for NetworkSpec {
    type Err = ConfigError;

    /// Parses a topology spec string:
    ///
    /// * `ring:2:3:4` — hierarchical ring (normal-speed global ring)
    /// * `ring2x:2:3:4` — §6 double-speed global ring
    /// * `slotted:2:3:4` — slotted-ring switching
    /// * `mesh:12`, `mesh:12:1flit`, `mesh:12:cl` — square mesh with
    ///   4-flit (default), 1-flit or cache-line buffers
    /// * `hybrid:4x4:4` — 4×4 global mesh of 4-PM local rings
    fn from_str(s: &str) -> Result<Self, ConfigError> {
        let spec = Self::parse_shape(s)?;
        spec.check()?;
        Ok(spec)
    }
}

impl NetworkSpec {
    /// The syntax half of [`FromStr`]; [`check`](Self::check) then
    /// judges the numbers.
    fn parse_shape(s: &str) -> Result<Self, ConfigError> {
        let (head, rest) = s.split_once(':').ok_or_else(|| {
            ConfigError::Invalid(format!(
                "topology '{s}' must be '<kind>:<shape>' \
                 (e.g. ring:2:3:4, mesh:12, hybrid:4x4:4)"
            ))
        })?;
        match head {
            "ring" => Ok(NetworkSpec::Ring {
                spec: rest.parse()?,
                speedup: 1,
            }),
            "slotted" => Ok(NetworkSpec::SlottedRing {
                spec: rest.parse()?,
            }),
            "mesh" => {
                let (side_s, regime) = match rest.split_once(':') {
                    Some((a, b)) => (a, Some(b)),
                    None => (rest, None),
                };
                let side: u32 = side_s.parse().map_err(|_| {
                    ConfigError::Invalid(format!("mesh side '{side_s}' is not a number"))
                })?;
                let buffers = match regime {
                    None | Some("4flit") => BufferRegime::FourFlit,
                    Some("1flit") => BufferRegime::OneFlit,
                    Some("cl") => BufferRegime::CacheLine,
                    Some(other) => {
                        return Err(ConfigError::Invalid(format!(
                            "unknown mesh buffer regime '{other}' \
                             (expected 1flit, 4flit or cl)"
                        )))
                    }
                };
                Ok(NetworkSpec::Mesh { side, buffers })
            }
            "hybrid" => {
                let bad_shape = || {
                    ConfigError::Invalid(format!(
                        "hybrid topology '{s}' must be 'hybrid:<G>x<G>:<L>' \
                         (e.g. hybrid:4x4:4)"
                    ))
                };
                let (grid, local_s) = rest.split_once(':').ok_or_else(bad_shape)?;
                let (a, b) = grid.split_once('x').ok_or_else(bad_shape)?;
                let side: u32 = a.parse().map_err(|_| bad_shape())?;
                let side_b: u32 = b.parse().map_err(|_| bad_shape())?;
                if side != side_b {
                    return Err(ConfigError::Invalid(format!(
                        "hybrid global mesh must be square, got {a}x{b}"
                    )));
                }
                let local: u32 = local_s.parse().map_err(|_| bad_shape())?;
                Ok(NetworkSpec::Hybrid { side, local })
            }
            _ => {
                // ringNx:SPEC — global-ring clock multiplier.
                if let Some(n_s) = head.strip_prefix("ring").and_then(|t| t.strip_suffix('x')) {
                    let speedup: u32 = n_s.parse().map_err(|_| {
                        ConfigError::Invalid(format!(
                            "ring speedup '{n_s}' in '{head}' is not a number"
                        ))
                    })?;
                    return Ok(NetworkSpec::Ring {
                        spec: rest.parse()?,
                        speedup,
                    });
                }
                Err(ConfigError::Invalid(format!(
                    "unknown topology kind '{head}' \
                     (expected ring, ring2x, slotted, mesh or hybrid)"
                )))
            }
        }
    }
}

/// Simulation run lengths for the batch-means method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimParams {
    /// Warm-up cycles discarded (the paper's discarded first batch).
    pub warmup: u64,
    /// Cycles per measured batch.
    pub batch_cycles: u64,
    /// Number of measured batches.
    pub batches: usize,
}

impl SimParams {
    /// Full measurement quality: 4k warm-up + 8 × 4k batches.
    pub fn full() -> Self {
        SimParams {
            warmup: 4_000,
            batch_cycles: 4_000,
            batches: 8,
        }
    }

    /// Reduced lengths for smoke tests and quick sweeps.
    pub fn quick() -> Self {
        SimParams {
            warmup: 1_500,
            batch_cycles: 1_500,
            batches: 5,
        }
    }

    /// Total simulated cycles.
    pub fn horizon(&self) -> u64 {
        self.warmup + self.batch_cycles * self.batches as u64
    }
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams::full()
    }
}

/// The seed a [`SystemConfig`] starts with: "RING" in ASCII.
pub const DEFAULT_SEED: u64 = 0x5249_4E47;

/// Everything needed to run one simulation point.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// The interconnect under test.
    pub network: NetworkSpec,
    /// Cache line size (16/32/64/128 bytes).
    pub cache_line: CacheLineSize,
    /// M-MRP workload attributes (R, C, T, read fraction).
    pub workload: WorkloadParams,
    /// Memory-system timing.
    pub memory: MemoryParams,
    /// Batch-means run lengths.
    pub sim: SimParams,
    /// Root RNG seed; equal seeds replay bit-for-bit.
    pub seed: u64,
}

impl SystemConfig {
    /// A configuration with paper-default workload, memory and
    /// measurement parameters.
    pub fn new(network: NetworkSpec, cache_line: CacheLineSize) -> Self {
        SystemConfig {
            network,
            cache_line,
            workload: WorkloadParams::paper_baseline(),
            memory: MemoryParams::default(),
            sim: SimParams::default(),
            seed: DEFAULT_SEED,
        }
    }

    /// Returns the config with different workload parameters.
    pub fn with_workload(mut self, workload: WorkloadParams) -> Self {
        self.workload = workload;
        self
    }

    /// Returns the config with different measurement lengths.
    pub fn with_sim(mut self, sim: SimParams) -> Self {
        self.sim = sim;
        self
    }

    /// Returns the config with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// A canonical, versioned textual form covering *every* field that
    /// influences simulation output. Two configs with equal canonical
    /// strings produce bit-identical runs; floats are rendered as their
    /// raw IEEE-754 bits so "equal" means exactly equal. This is the
    /// identity behind checkpoint validation and the serve result
    /// cache.
    pub fn canonical(&self) -> String {
        let mut s = String::from("ringmesh-config/2");
        let _ = write!(s, "|net={}", self.network);
        let _ = write!(s, "|cl={}", self.cache_line.bytes());
        let w = &self.workload;
        let _ = write!(s, "|R={:016x}", w.region.to_bits());
        let _ = write!(s, "|C={:016x}", w.miss_rate.to_bits());
        let _ = write!(s, "|T={}", w.outstanding);
        let _ = write!(s, "|read={:016x}", w.read_fraction.to_bits());
        let _ = write!(
            s,
            "|proc={}",
            match w.miss_process {
                MissProcess::Deterministic => "det",
                MissProcess::Geometric => "geo",
            }
        );
        match &w.hot_spot {
            Some(h) => {
                let _ = write!(s, "|hot={}:{:016x}", h.node, h.fraction.to_bits());
            }
            None => s.push_str("|hot=-"),
        }
        let _ = write!(s, "|mem={}:{}", self.memory.latency, self.memory.occupancy);
        let _ = write!(
            s,
            "|sim={}:{}:{}",
            self.sim.warmup, self.sim.batch_cycles, self.sim.batches
        );
        let _ = write!(s, "|seed={}", self.seed);
        s
    }

    /// FNV-1a digest of [`canonical`](Self::canonical) — the compact
    /// config identity stored in checkpoints and cache keys.
    pub fn fingerprint(&self) -> u64 {
        Fingerprint::of(self.canonical().as_bytes())
    }

    /// Checks the cross-field invariants the type system cannot:
    /// network shape, workload parameter ranges, memory timing and
    /// measurement lengths. Construction-time validators ([`RingSpec`]
    /// parsing, `MeshTopology::try_new`) catch shape errors earlier;
    /// this is the single choke point every run path goes through.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.network.check()?;
        let w = &self.workload;
        if !(w.region > 0.0 && w.region <= 1.0) {
            return Err(ConfigError::Invalid(format!(
                "access region R = {} must be in (0, 1]",
                w.region
            )));
        }
        if !(w.miss_rate > 0.0 && w.miss_rate <= 1.0) {
            return Err(ConfigError::Invalid(format!(
                "miss rate C = {} must be in (0, 1]",
                w.miss_rate
            )));
        }
        if w.outstanding == 0 {
            return Err(ConfigError::Invalid(
                "outstanding limit T must be positive".into(),
            ));
        }
        if !(0.0..=1.0).contains(&w.read_fraction) {
            return Err(ConfigError::Invalid(format!(
                "read fraction {} must be in [0, 1]",
                w.read_fraction
            )));
        }
        if let Some(h) = &w.hot_spot {
            if h.node >= self.network.num_pms() {
                return Err(ConfigError::Invalid(format!(
                    "hot-spot node {} out of range for {} PMs",
                    h.node,
                    self.network.num_pms()
                )));
            }
            if !(0.0..=1.0).contains(&h.fraction) {
                return Err(ConfigError::Invalid(format!(
                    "hot-spot fraction {} must be in [0, 1]",
                    h.fraction
                )));
            }
        }
        if self.memory.latency == 0 || self.memory.occupancy == 0 {
            return Err(ConfigError::Invalid(
                "memory latency and occupancy must be positive".into(),
            ));
        }
        if self.sim.batch_cycles == 0 || self.sim.batches == 0 {
            return Err(ConfigError::Invalid(
                "measurement plan needs at least one non-empty batch".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_specs_round_trip() {
        // Every canonical spec string parses and re-prints unchanged,
        // and every NetworkSpec survives Display → FromStr.
        for s in [
            "ring:4",
            "ring:2:3:4",
            "ring2x:3:3:4",
            "slotted:2:3:4",
            "mesh:12",
            "mesh:12:1flit",
            "mesh:12:cl",
            "hybrid:4x4:4",
            "hybrid:2x2:8",
        ] {
            let spec: NetworkSpec = s.parse().unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(spec.to_string(), s, "canonical form drifted for {s}");
            let again: NetworkSpec = spec.to_string().parse().unwrap();
            assert_eq!(spec, again);
        }
        // Non-canonical but accepted aliases normalise.
        let m: NetworkSpec = "mesh:6:4flit".parse().unwrap();
        assert_eq!(m.to_string(), "mesh:6");
        let r: NetworkSpec = "ring1x:2:4".parse().unwrap();
        assert_eq!(r.to_string(), "ring:2:4");
    }

    #[test]
    fn malformed_topology_specs_draw_typed_errors() {
        for s in [
            "",
            "ring",
            "mesh",
            "torus:4",
            "ring:",
            "ring:0",
            "ring:a:b",
            "ring3x:2:3:4",
            "ringx:2:3:4",
            "mesh:0",
            "mesh:abc",
            "mesh:4:8flit",
            "hybrid:4x4",
            "hybrid:4x5:4",
            "hybrid:0x0:4",
            "hybrid:4x4:0",
            "hybrid:axa:4",
            "hybrid:4x4:x",
            // PM counts that wrap u32 (65536² = 0) or overflow it.
            "mesh:257",
            "mesh:65536",
            "mesh:70000",
            "mesh:4294967295",
            "hybrid:70000x70000:4",
            "hybrid:16x16:257",
            "ring:65536:65536",
            "slotted:70000",
        ] {
            let err = s.parse::<NetworkSpec>().expect_err(s);
            // Typed errors render a message; none of these may panic.
            assert!(!err.to_string().is_empty(), "{s}");
        }
    }

    #[test]
    fn hybrid_spec_identity() {
        let h = NetworkSpec::Hybrid { side: 4, local: 4 };
        assert_eq!(h.num_pms(), 64);
        assert_eq!(h.label(), "hybrid 4x4 mesh of 4-PM rings");
        assert_eq!(h.to_string(), "hybrid:4x4:4");
    }

    #[test]
    fn validate_rejects_zero_hybrid_dims() {
        let cfg = SystemConfig::new(
            NetworkSpec::Hybrid { side: 0, local: 4 },
            CacheLineSize::B64,
        );
        assert!(cfg.validate().is_err());
        let cfg = SystemConfig::new(
            NetworkSpec::Hybrid { side: 2, local: 0 },
            CacheLineSize::B64,
        );
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_caps_hand_built_shapes() {
        use ringmesh_net::MAX_PMS;
        let too_many = Err(ConfigError::TooManyPms { max: MAX_PMS });
        for network in [
            NetworkSpec::mesh(65_536),
            NetworkSpec::mesh(70_000),
            NetworkSpec::Hybrid {
                side: 70_000,
                local: 4,
            },
        ] {
            let cfg = SystemConfig::new(network, CacheLineSize::B64);
            assert_eq!(cfg.validate(), too_many, "{:?}", cfg.network);
        }
        let largest = SystemConfig::new(NetworkSpec::mesh(256), CacheLineSize::B64);
        assert_eq!(largest.validate(), Ok(()));
        assert_eq!(largest.network.num_pms(), MAX_PMS);
        // A ring speedup the parser refuses, whose canonical string
        // (`ring3x:…`) would not parse back.
        for speedup in [0, 3] {
            let network = NetworkSpec::Ring {
                spec: "2:4".parse().unwrap(),
                speedup,
            };
            let cfg = SystemConfig::new(network, CacheLineSize::B64);
            assert!(cfg.validate().is_err(), "speedup {speedup}");
        }
    }

    #[test]
    fn network_labels() {
        let r = NetworkSpec::ring("2:3:4".parse().unwrap());
        assert_eq!(r.label(), "ring 2:3:4");
        assert_eq!(r.num_pms(), 24);
        let m = NetworkSpec::mesh(6);
        assert_eq!(m.label(), "mesh 6x6 (4-flit buffers)");
        assert_eq!(m.num_pms(), 36);
        let f = NetworkSpec::Ring {
            spec: "3:3:4".parse().unwrap(),
            speedup: 2,
        };
        assert_eq!(f.label(), "ring 3:3:4 (2x global)");
    }

    #[test]
    fn canonical_uses_spec_strings() {
        let cfg = SystemConfig::new(NetworkSpec::mesh(3), CacheLineSize::B64);
        assert!(cfg.canonical().starts_with("ringmesh-config/2|net=mesh:3|"));
    }

    #[test]
    fn sim_horizon() {
        assert_eq!(SimParams::full().horizon(), 36_000);
        assert!(SimParams::quick().horizon() < SimParams::full().horizon());
    }

    #[test]
    fn canonical_covers_every_output_relevant_field() {
        let base = SystemConfig::new(NetworkSpec::mesh(3), CacheLineSize::B64);
        assert_eq!(base.canonical(), base.clone().canonical());
        assert_eq!(base.fingerprint(), base.clone().fingerprint());
        let variants = [
            SystemConfig::new(NetworkSpec::mesh(4), CacheLineSize::B64),
            SystemConfig::new(NetworkSpec::mesh(3), CacheLineSize::B32),
            base.clone()
                .with_workload(WorkloadParams::paper_baseline().with_region(0.5)),
            base.clone().with_sim(SimParams::quick()),
            base.clone().with_seed(99),
        ];
        for v in variants {
            assert_ne!(base.canonical(), v.canonical(), "{}", v.canonical());
            assert_ne!(base.fingerprint(), v.fingerprint());
        }
    }
}
