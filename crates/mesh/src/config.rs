//! Configuration of the mesh network model.

use ringmesh_net::{BufferRegime, CacheLineSize, PacketFormat};

/// Cycles without any flit movement (with packets in flight) before a
/// mesh's watchdog reports a deadlock.
pub const WATCHDOG_HORIZON: u64 = 10_000;

/// Tunable parameters of a [`MeshNetwork`](crate::MeshNetwork).
///
/// Defaults reproduce the paper's setup: 32-bit channels (4-byte
/// flits), 4-flit headers, 4-flit router input buffers, round-robin
/// arbitration and single-packet PM injection queues per class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeshConfig {
    /// Cache line size; determines packet sizes (and cl buffer depth).
    pub cache_line: CacheLineSize,
    /// Packet format (header flits and flit width). Defaults to the
    /// 32-bit-channel mesh format.
    pub format: PacketFormat,
    /// Router input buffer sizing: 1 flit, 4 flits or cache-line sized.
    pub buffers: BufferRegime,
    /// PM injection queue capacity per class, in packets (paper: 1).
    pub out_queue_packets: usize,
}

impl MeshConfig {
    /// Paper-default configuration (4-flit buffers) for the given cache
    /// line size.
    pub fn new(cache_line: CacheLineSize) -> Self {
        MeshConfig {
            cache_line,
            format: PacketFormat::MESH,
            buffers: BufferRegime::FourFlit,
            out_queue_packets: 1,
        }
    }

    /// Returns the config with the given buffer regime.
    pub fn with_buffers(mut self, buffers: BufferRegime) -> Self {
        self.buffers = buffers;
        self
    }

    /// Router input buffer depth in flits.
    pub fn buffer_flits(&self) -> usize {
        self.buffers.flits(self.format, self.cache_line) as usize
    }
}

impl Default for MeshConfig {
    fn default() -> Self {
        MeshConfig::new(CacheLineSize::B32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let cfg = MeshConfig::new(CacheLineSize::B64);
        assert_eq!(cfg.buffer_flits(), 4);
        assert_eq!(cfg.format, PacketFormat::MESH);
    }

    #[test]
    fn buffer_regimes() {
        let cl = CacheLineSize::B128;
        assert_eq!(
            MeshConfig::new(cl)
                .with_buffers(BufferRegime::OneFlit)
                .buffer_flits(),
            1
        );
        assert_eq!(
            MeshConfig::new(cl)
                .with_buffers(BufferRegime::CacheLine)
                .buffer_flits(),
            36
        );
    }
}
