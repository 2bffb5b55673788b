//! [`TopologyBuilder`] implementation for the hybrid Ring-Mesh.

use ringmesh_net::{
    CacheLineSize, ConfigError, Interconnect, PacketFormat, Placement, TopologyBuilder,
};

use crate::HybridNetwork;

/// Builds the hybrid Ring-Mesh network ([`HybridNetwork`]): a
/// `side × side` global mesh of `local`-PM rings. Spec syntax:
/// `hybrid:4x4:4`.
#[derive(Debug, Clone)]
pub struct HybridBuilder {
    /// Global mesh side length.
    pub side: u32,
    /// PMs per local ring.
    pub local: u32,
}

impl TopologyBuilder for HybridBuilder {
    fn num_pms(&self) -> u32 {
        self.side * self.side * self.local
    }

    fn label(&self) -> String {
        format!("hybrid {0}x{0} mesh of {1}-PM rings", self.side, self.local)
    }

    fn spec(&self) -> String {
        format!("hybrid:{0}x{0}:{1}", self.side, self.local)
    }

    fn placement(&self) -> Placement {
        Placement::RingGrid {
            side: self.side,
            local: self.local,
        }
    }

    fn format(&self) -> PacketFormat {
        // One uniform link width on both tiers: the bridge hands worms
        // between ring and mesh without re-segmenting them.
        PacketFormat::RING
    }

    fn build(&self, cache_line: CacheLineSize) -> Result<Box<dyn Interconnect>, ConfigError> {
        let net = HybridNetwork::new(self.side, self.local, cache_line)?;
        Ok(Box::new(net))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hybrid_builder_identity() {
        let b = HybridBuilder { side: 4, local: 4 };
        assert_eq!(b.num_pms(), 64);
        assert_eq!(b.label(), "hybrid 4x4 mesh of 4-PM rings");
        assert_eq!(b.spec(), "hybrid:4x4:4");
        assert_eq!(b.placement(), Placement::RingGrid { side: 4, local: 4 });
        assert_eq!(b.format(), PacketFormat::RING);
        assert_eq!(b.build(CacheLineSize::B64).unwrap().num_pms(), 64);
    }

    #[test]
    fn zero_dimensions_draw_typed_errors() {
        assert!(HybridBuilder { side: 0, local: 4 }
            .build(CacheLineSize::B32)
            .is_err());
        assert!(HybridBuilder { side: 4, local: 0 }
            .build(CacheLineSize::B32)
            .is_err());
    }
}
