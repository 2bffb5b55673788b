//! Building a network from its [`NetworkSpec`]: the single place a
//! network description becomes a simulator, and what the rest of the
//! simulator asks of a network before it exists — PM count, workload
//! placement, packet format and label — one `match` each.

use ringmesh_hybrid::HybridNetwork;
use ringmesh_mesh::{MeshConfig, MeshNetwork, MeshTopology};
use ringmesh_net::{
    checked_pms, CacheLineSize, ConfigError, Interconnect, PacketFormat, Placement,
};
use ringmesh_ring::{RingConfig, RingNetwork, SlottedRingNetwork};

use crate::NetworkSpec;

impl NetworkSpec {
    /// Builds the network for `cache_line`: the single point where a
    /// network description becomes a simulator.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for a hand-built variant that breaks
    /// the shape rules a parsed spec has passed already.
    pub fn build(&self, cache_line: CacheLineSize) -> Result<Box<dyn Interconnect>, ConfigError> {
        self.check()?;
        Ok(match *self {
            NetworkSpec::Ring { ref spec, speedup } => {
                let cfg = RingConfig::new(cache_line).with_global_speedup(speedup);
                Box::new(RingNetwork::new(spec, cfg))
            }
            NetworkSpec::SlottedRing { ref spec } => {
                Box::new(SlottedRingNetwork::new(spec, RingConfig::new(cache_line)))
            }
            NetworkSpec::Mesh { side, buffers } => Box::new(MeshNetwork::new(
                MeshTopology::try_new(side)?,
                MeshConfig::new(cache_line).with_buffers(buffers),
            )),
            NetworkSpec::Hybrid { side, local } => {
                Box::new(HybridNetwork::new(side, local, cache_line)?)
            }
        })
    }

    /// How the workload measures PM closeness on this network.
    pub fn placement(&self) -> Placement {
        match *self {
            NetworkSpec::Ring { ref spec, .. } | NetworkSpec::SlottedRing { ref spec } => {
                Placement::Linear {
                    pms: spec.num_pms(),
                }
            }
            NetworkSpec::Mesh { side, .. } => Placement::Grid { side },
            NetworkSpec::Hybrid { side, local } => Placement::RingGrid { side, local },
        }
    }

    /// The packet format (channel width, header flits) PMs size their
    /// packets by. The hybrid uses the ring's on both tiers: its bridge
    /// hands worms between ring and mesh without re-segmenting them.
    pub fn format(&self) -> PacketFormat {
        match self {
            NetworkSpec::Mesh { .. } => PacketFormat::MESH,
            NetworkSpec::Ring { .. }
            | NetworkSpec::SlottedRing { .. }
            | NetworkSpec::Hybrid { .. } => PacketFormat::RING,
        }
    }

    // Inert: only the frozen `benchmark/` harness calls these two.
    #[doc(hidden)]
    pub fn builder(&self) -> &Self {
        self
    }

    #[doc(hidden)]
    pub fn parallel_kernel(&self) -> bool {
        false
    }

    /// Checks the shape: positive dimensions, a ring speedup of 1 or 2,
    /// and a PM count that neither overflows nor exceeds
    /// [`ringmesh_net::MAX_PMS`] (ring specs are checked when a
    /// [`RingSpec`] is made). Parsing, [`build`](Self::build) and
    /// [`SystemConfig::validate`](crate::SystemConfig::validate) all go through here, so a variant
    /// built by hand is held to what a spec string is.
    pub(crate) fn check(&self) -> Result<(), ConfigError> {
        let (side, local) = match *self {
            NetworkSpec::Ring { speedup, .. } if !(1..=2).contains(&speedup) => {
                return Err(ConfigError::Invalid(format!(
                    "global ring speedup {speedup} unsupported (must be 1 or 2)"
                )))
            }
            NetworkSpec::Ring { .. } | NetworkSpec::SlottedRing { .. } => return Ok(()),
            NetworkSpec::Mesh { side, .. } => (side, 1),
            NetworkSpec::Hybrid { side, local } => (side, local),
        };
        if side == 0 {
            return Err(ConfigError::ZeroMeshSide);
        }
        if local == 0 {
            return Err(ConfigError::Invalid(
                "hybrid local ring size must be positive".into(),
            ));
        }
        checked_pms([side, side, local]).map(|_| ())
    }

    /// Number of processing modules.
    pub fn num_pms(&self) -> u32 {
        self.placement().num_pms()
    }

    /// Short human-readable description ("ring 2:3:4", "mesh 6x6
    /// (4-flit buffers)").
    pub fn label(&self) -> String {
        match self {
            NetworkSpec::Ring { spec, speedup: 1 } => format!("ring {spec}"),
            NetworkSpec::Ring { spec, speedup } => format!("ring {spec} ({speedup}x global)"),
            NetworkSpec::SlottedRing { spec } => format!("slotted ring {spec}"),
            NetworkSpec::Mesh { side, buffers } => {
                format!("mesh {side}x{side} ({buffers} buffers)")
            }
            NetworkSpec::Hybrid { side, local } => {
                format!("hybrid {side}x{side} mesh of {local}-PM rings")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringmesh_net::BufferRegime;

    #[test]
    fn ring_builder_identity() {
        let b = NetworkSpec::ring("2:3:4".parse().unwrap());
        assert_eq!(b.num_pms(), 24);
        assert_eq!(b.label(), "ring 2:3:4");
        assert_eq!(b.to_string(), "ring:2:3:4");
        assert_eq!(b.placement(), Placement::Linear { pms: 24 });
        assert_eq!(b.format(), PacketFormat::RING);
        let net = b.build(CacheLineSize::B64).unwrap();
        assert_eq!(net.num_pms(), 24);
    }

    #[test]
    fn double_speed_spec_string() {
        let b = NetworkSpec::Ring {
            spec: "3:3:4".parse().unwrap(),
            speedup: 2,
        };
        assert_eq!(b.to_string(), "ring2x:3:3:4");
        assert_eq!(b.label(), "ring 3:3:4 (2x global)");
    }

    #[test]
    fn bad_speedup_draws_typed_error() {
        let b = NetworkSpec::Ring {
            spec: "4".parse().unwrap(),
            speedup: 3,
        };
        assert!(b.build(CacheLineSize::B32).is_err());
    }

    #[test]
    fn slotted_builder_identity() {
        let b = NetworkSpec::SlottedRing {
            spec: "2:3".parse().unwrap(),
        };
        assert_eq!(b.label(), "slotted ring 2:3");
        assert_eq!(b.to_string(), "slotted:2:3");
        assert_eq!(b.placement(), Placement::Linear { pms: 6 });
        assert_eq!(b.build(CacheLineSize::B32).unwrap().num_pms(), 6);
    }

    #[test]
    fn mesh_builder_identity() {
        let b = NetworkSpec::mesh(6);
        assert_eq!(b.num_pms(), 36);
        assert_eq!(b.label(), "mesh 6x6 (4-flit buffers)");
        assert_eq!(b.to_string(), "mesh:6");
        assert_eq!(b.placement(), Placement::Grid { side: 6 });
        assert_eq!(b.format(), PacketFormat::MESH);
        assert_eq!(b.build(CacheLineSize::B32).unwrap().num_pms(), 36);
    }

    #[test]
    fn buffer_regimes_spell_out_in_spec() {
        let one = NetworkSpec::Mesh {
            side: 4,
            buffers: BufferRegime::OneFlit,
        };
        assert_eq!(one.to_string(), "mesh:4:1flit");
        let cl = NetworkSpec::Mesh {
            side: 4,
            buffers: BufferRegime::CacheLine,
        };
        assert_eq!(cl.to_string(), "mesh:4:cl");
        assert_eq!(cl.label(), "mesh 4x4 (cl-sized buffers)");
    }

    #[test]
    fn zero_side_draws_typed_error() {
        assert!(NetworkSpec::mesh(0).build(CacheLineSize::B32).is_err());
    }

    #[test]
    fn hybrid_builder_identity() {
        let b = NetworkSpec::Hybrid { side: 4, local: 4 };
        assert_eq!(b.num_pms(), 64);
        assert_eq!(b.label(), "hybrid 4x4 mesh of 4-PM rings");
        assert_eq!(b.to_string(), "hybrid:4x4:4");
        assert_eq!(b.placement(), Placement::RingGrid { side: 4, local: 4 });
        assert_eq!(b.format(), PacketFormat::RING);
        assert_eq!(b.build(CacheLineSize::B64).unwrap().num_pms(), 64);
    }

    #[test]
    fn zero_dimensions_draw_typed_errors() {
        assert!(NetworkSpec::Hybrid { side: 0, local: 4 }
            .build(CacheLineSize::B32)
            .is_err());
        assert!(NetworkSpec::Hybrid { side: 4, local: 0 }
            .build(CacheLineSize::B32)
            .is_err());
    }
}
