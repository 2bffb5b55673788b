//! [`TopologyBuilder`] implementation for the square mesh.

use ringmesh_net::{
    BufferRegime, CacheLineSize, ConfigError, Interconnect, PacketFormat, Placement,
    TopologyBuilder,
};

use crate::{MeshConfig, MeshNetwork, MeshTopology};

/// Builds the paper's bi-directional wormhole mesh ([`MeshNetwork`]).
/// Spec syntax: `mesh:12` (4-flit buffers, the paper's default), or
/// `mesh:12:1flit` / `mesh:12:cl` for the other buffer regimes.
#[derive(Debug, Clone)]
pub struct MeshBuilder {
    /// Mesh side length.
    pub side: u32,
    /// Router input buffer regime.
    pub buffers: BufferRegime,
}

impl TopologyBuilder for MeshBuilder {
    fn num_pms(&self) -> u32 {
        self.side * self.side
    }

    fn label(&self) -> String {
        format!("mesh {0}x{0} ({1} buffers)", self.side, self.buffers)
    }

    fn spec(&self) -> String {
        match self.buffers {
            BufferRegime::FourFlit => format!("mesh:{}", self.side),
            BufferRegime::OneFlit => format!("mesh:{}:1flit", self.side),
            BufferRegime::CacheLine => format!("mesh:{}:cl", self.side),
        }
    }

    fn placement(&self) -> Placement {
        Placement::Grid { side: self.side }
    }

    fn format(&self) -> PacketFormat {
        PacketFormat::MESH
    }

    fn build(&self, cache_line: CacheLineSize) -> Result<Box<dyn Interconnect>, ConfigError> {
        let mc = MeshConfig::new(cache_line).with_buffers(self.buffers);
        Ok(Box::new(MeshNetwork::new(
            MeshTopology::try_new(self.side)?,
            mc,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_builder_identity() {
        let b = MeshBuilder {
            side: 6,
            buffers: BufferRegime::FourFlit,
        };
        assert_eq!(b.num_pms(), 36);
        assert_eq!(b.label(), "mesh 6x6 (4-flit buffers)");
        assert_eq!(b.spec(), "mesh:6");
        assert_eq!(b.placement(), Placement::Grid { side: 6 });
        assert_eq!(b.build(CacheLineSize::B32).unwrap().num_pms(), 36);
    }

    #[test]
    fn buffer_regimes_spell_out_in_spec() {
        let one = MeshBuilder {
            side: 4,
            buffers: BufferRegime::OneFlit,
        };
        assert_eq!(one.spec(), "mesh:4:1flit");
        let cl = MeshBuilder {
            side: 4,
            buffers: BufferRegime::CacheLine,
        };
        assert_eq!(cl.spec(), "mesh:4:cl");
    }

    #[test]
    fn zero_side_draws_typed_error() {
        let b = MeshBuilder {
            side: 0,
            buffers: BufferRegime::FourFlit,
        };
        assert!(b.build(CacheLineSize::B32).is_err());
    }
}
