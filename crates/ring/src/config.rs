//! Configuration of the hierarchical ring network model.

use ringmesh_net::{CacheLineSize, PacketFormat};

/// NIC output queue capacity per class, in packets: the paper's
/// single-packet injection queues.
pub const OUT_QUEUE_PACKETS: usize = 1;

/// Transit (ring) buffer depth, in maximum-size packets (header +
/// cache line). The paper's Figure 3 shows a one-packet ring buffer; a
/// second packet of headroom is needed because the ring-entry
/// reservation (an entering worm must fit the downstream buffer whole,
/// so it never stalls mid-packet holding the link) would otherwise
/// demand a completely empty buffer and starve injection. See DESIGN.md
/// "Model fidelity notes".
pub const RING_BUFFER_PACKETS: usize = 2;

/// Convoy-control threshold, in maximum-size packets: when an IRI's
/// crossing queues for one output link hold more than this, their drain
/// takes priority over continuing transit. With the down queues elastic
/// (see [`RingConfig::iri_queue_packets`]) this is what supplies the
/// pacing the paper's finite buffers provided: without it, a
/// double-speed global ring can flood the descent queues faster than
/// the transit-priority drain empties them, and the backlog — and the
/// tail latency of descending packets — grows without bound. Four is
/// low enough to keep every descent queue stable at a 2× global ring
/// (eight already lets one queue diverge on 4:3:8), and high enough
/// that at 1× the saturated throughput matches the unthrottled network.
pub const CONVOY_THRESHOLD_PACKETS: usize = 4;

/// Tunable parameters of a [`RingNetwork`](crate::RingNetwork).
///
/// Defaults reproduce the paper's setup: cache-line-sized ring and IRI
/// buffers, all rings at the same clock. Set [`global_ring_speedup`]
/// to 2 for the §6 double-speed global ring experiments. The sizes no
/// experiment varies are constants: [`OUT_QUEUE_PACKETS`],
/// [`RING_BUFFER_PACKETS`] and [`CONVOY_THRESHOLD_PACKETS`].
///
/// [`global_ring_speedup`]: RingConfig::global_ring_speedup
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingConfig {
    /// Cache line size; determines packet and buffer sizes.
    pub cache_line: CacheLineSize,
    /// Packet format (header flits and flit width). Defaults to the
    /// 128-bit-channel ring format.
    pub format: PacketFormat,
    /// IRI *up* (child→parent) queue capacity per class, in cache-line
    /// packets. `Some(2)` (the default) keeps the paper's finite,
    /// back-pressured design — whose pacing realises nearly the full
    /// bisection bandwidth — with one packet of slack beyond the
    /// paper's single-packet buffers, which deadlock under wormhole
    /// switching even inside the paper's parameter space. Set `None`
    /// for elastic up queues (~30% lower saturated throughput; see the
    /// `ablations` figure row, `ringmesh figure ablations`).
    ///
    /// The *down* (parent→child) queues are always elastic: descending
    /// traffic only moves toward the leaves, where NIC ejection is
    /// unconditional, so elastic down queues cannot grow without bound
    /// — and they are what makes the hierarchy deadlock-free. With
    /// finite down queues a descending worm can stall in its parent
    /// ring's transit buffer while the queue's drain waits on ring
    /// credits held by ascending traffic, closing a cross-level cycle
    /// (observed at e.g. T = 8 on 4:3:6 with a double-speed global
    /// ring). See DESIGN.md "Model fidelity notes".
    pub iri_queue_packets: Option<usize>,
    /// Clock multiplier for the global (root) ring: 1 = normal, 2 =
    /// the §6 double-speed global ring.
    pub global_ring_speedup: u32,
    /// Cycles without any flit movement (with packets in flight) before
    /// the watchdog reports a deadlock.
    pub watchdog_horizon: u64,
}

impl RingConfig {
    /// Paper-default configuration for the given cache line size.
    pub fn new(cache_line: CacheLineSize) -> Self {
        RingConfig {
            cache_line,
            format: PacketFormat::RING,
            iri_queue_packets: Some(2),
            global_ring_speedup: 1,
            watchdog_horizon: 10_000,
        }
    }

    /// Returns the config with the global ring clocked at `speedup`×.
    ///
    /// # Panics
    ///
    /// Panics if `speedup` is not 1 or 2.
    pub fn with_global_speedup(mut self, speedup: u32) -> Self {
        assert!(
            (1..=2).contains(&speedup),
            "global ring speedup must be 1 or 2"
        );
        self.global_ring_speedup = speedup;
        self
    }

    /// Transit (ring) buffer depth in flits: [`RING_BUFFER_PACKETS`]
    /// maximum-size packets.
    pub fn ring_buffer_flits(&self) -> usize {
        RING_BUFFER_PACKETS * self.format.cl_packet_flits(self.cache_line) as usize
    }

    /// IRI up-queue depth in flits per class (a huge sentinel capacity
    /// when elastic).
    pub fn iri_queue_flits(&self) -> usize {
        match self.iri_queue_packets {
            Some(n) => self.format.cl_packet_flits(self.cache_line) as usize * n,
            None => usize::MAX / 2,
        }
    }

    /// IRI down-queue depth in flits per class: always the elastic
    /// sentinel (see [`iri_queue_packets`](RingConfig::iri_queue_packets)
    /// for why descending queues must never refuse flits).
    pub fn iri_down_queue_flits(&self) -> usize {
        usize::MAX / 2
    }
}

impl Default for RingConfig {
    fn default() -> Self {
        RingConfig::new(CacheLineSize::B32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let cfg = RingConfig::new(CacheLineSize::B64);
        // Two cl packets: 10 flits for 64B lines.
        assert_eq!(cfg.ring_buffer_flits(), 10);
        assert_eq!(
            cfg.iri_queue_packets,
            Some(2),
            "two-packet IRI queues by default"
        );
        assert_eq!(cfg.global_ring_speedup, 1);
    }

    #[test]
    fn speedup_builder() {
        let cfg = RingConfig::new(CacheLineSize::B32).with_global_speedup(2);
        assert_eq!(cfg.global_ring_speedup, 2);
    }

    #[test]
    #[should_panic(expected = "speedup")]
    fn invalid_speedup_rejected() {
        RingConfig::new(CacheLineSize::B32).with_global_speedup(3);
    }
}
