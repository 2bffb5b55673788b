//! The hierarchical ring network simulator.

use ringmesh_faults::FaultDomain;
use ringmesh_net::{NetCore, NodeId, Packet, PacketRef, QueueClass, UtilizationReport};
use ringmesh_snap::{Codec, Snap, SnapError};
use ringmesh_trace::{Counter, EventKind, Gauge, Heatmap, HeatmapId, TraceLoc};

use crate::station::StepPulse;
use crate::tier::RingTier;
use crate::topology::{RingAction, RingSpec, RingTopology};
use crate::RingConfig;

/// A flit-level, cycle-accurate hierarchical ring network.
///
/// Implements [`ringmesh_net::Interconnect`]; drive it with the
/// `ringmesh-workload` crate or directly as in the example below.
///
/// # Example
///
/// ```
/// use ringmesh_net::{CacheLineSize, Interconnect, NodeId, Packet, PacketFormat, PacketKind, TxnId};
/// use ringmesh_ring::{RingConfig, RingNetwork, RingSpec};
///
/// let spec = RingSpec::single(4);
/// let cfg = RingConfig::new(CacheLineSize::B32);
/// let mut net = RingNetwork::new(&spec, cfg.clone());
/// let kind = PacketKind::ReadReq;
/// net.inject(NodeId::new(0), Packet {
///     txn: TxnId::new(1), kind,
///     src: NodeId::new(0), dst: NodeId::new(2),
///     flits: cfg.format.flits(kind, cfg.cache_line),
///     injected_at: 0,
/// });
/// let mut delivered = Vec::new();
/// while delivered.is_empty() {
///     net.step(&mut delivered).unwrap();
/// }
/// assert_eq!(delivered[0].0, NodeId::new(2));
/// ```
#[derive(Debug)]
pub struct RingNetwork {
    topo: RingTopology,
    core: NetCore,
    /// The stations, stepped once per tick (twice per cycle on a
    /// double-speed global ring).
    tier: RingTier,
    /// Link-utilization heatmap (rows = rings, cols = member position
    /// on the ring) and each station side's column (`[station][side]`),
    /// built when a recording tracer is installed.
    link_heat: Option<(HeatmapId, Vec<[usize; 2]>)>,
}

impl RingNetwork {
    /// Builds the network for `spec` under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if a transit buffer,
    /// [`cfg.ring_buffer_flits()`](RingConfig::ring_buffer_flits) flits
    /// ([`RING_BUFFER_PACKETS`] times a cache-line packet's length), is
    /// empty or longer than `u16::MAX` flits: the ring tier keeps every
    /// transit buffer in one [`FifoBank`].
    ///
    /// [`FifoBank`]: ringmesh_net::FifoBank
    /// [`RING_BUFFER_PACKETS`]: crate::RING_BUFFER_PACKETS
    pub fn new(spec: &RingSpec, cfg: RingConfig) -> Self {
        let topo = RingTopology::new(spec);
        RingNetwork {
            tier: RingTier::new(&topo, &cfg),
            topo,
            core: NetCore::new(cfg.watchdog_horizon),
            link_heat: None,
        }
    }

    /// The expanded topology.
    pub fn topology(&self) -> &RingTopology {
        &self.topo
    }

    /// Tracing for the wire transfers the tier committed this tick: one
    /// heatmap bump per link transfer, one Hop event per sampled head
    /// flit. Only called while the tracer is enabled.
    fn trace_sends(&mut self) {
        let cycle = self.tier.cycle();
        let sends = self.tier.sends();
        self.core
            .tracer()
            .count(Counter::FlitsForwarded, sends.len() as u64);
        for s in sends {
            let (st, side) = s.to;
            if let Some((id, cols)) = &self.link_heat {
                let col = cols[st as usize][side as usize];
                self.core.tracer().heatmap(*id, s.ring as usize, col, 1);
            }
            if s.flit.is_head() {
                let txn = self.core.store().get(s.flit.packet).txn.raw();
                self.core.tracer().event(
                    txn,
                    cycle,
                    TraceLoc::RingStation {
                        ring: s.ring,
                        station: st,
                    },
                    EventKind::Hop,
                );
            }
        }
    }
}

impl ringmesh_net::Interconnect for RingNetwork {
    fn core(&self) -> &NetCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut NetCore {
        &mut self.core
    }

    fn num_pms(&self) -> usize {
        self.topo.num_pms() as usize
    }

    fn can_inject(&self, pm: NodeId, class: QueueClass) -> bool {
        self.tier.can_inject(pm, class)
    }

    fn enqueue(&mut self, pm: NodeId, class: QueueClass, packet: PacketRef) {
        self.tier.enqueue(pm, self.topo.nic_of(pm), class, packet);
    }

    fn advance(&mut self, delivered: &mut Vec<(NodeId, Packet)>) -> u64 {
        let mut pulse = StepPulse::default();
        for _ in 0..self.tier.ticks_per_cycle() {
            self.tier.tick(&mut self.core, delivered, &mut pulse);
            if self.core.tracing() {
                self.trace_sends();
            }
            self.tier.latch();
        }
        if self.core.tracing() {
            let (transit, queued) = self.tier.occupancy();
            let tracer = self.core.tracer();
            tracer.count(Counter::BlockedCycles, pulse.blocked);
            tracer.count(Counter::IriCrossings, pulse.crossed);
            tracer.gauge(Gauge::RingBufferOccupancy, transit as f64);
            tracer.gauge(Gauge::IriQueueOccupancy, queued as f64);
        }
        pulse.moved
    }

    fn utilization(&self) -> UtilizationReport {
        // The double-speed global ring is clocked once per tick.
        self.topo.utilization(
            self.tier.ring_flits(),
            self.tier.cycles_since_reset(),
            self.tier.ticks_per_cycle(),
        )
    }

    fn reset_counters(&mut self) {
        self.tier.reset_counters();
    }

    /// Whether a live route exists from `src`'s NIC to `dst`. Ring
    /// routing is deterministic, so this walks the unique route and
    /// fails at the first dead IRI the packet would have to cross;
    /// forwarding *through* a dead IRI is still allowed (lazy
    /// fail-stop: the crossbar keeps switching, only the crossing
    /// queues are gone).
    fn reachable(&self, src: NodeId, dst: NodeId) -> bool {
        let Some(f) = self.core.faults() else {
            return true;
        };
        !f.any_nodes_dead()
            || self.topo.route(src, dst).all(|((st, _), action)| {
                matches!(action, RingAction::Forward | RingAction::Eject)
                    || !self.tier.iri_dead(f, st)
            })
    }

    fn fault_domain(&self) -> FaultDomain {
        self.tier.fault_domain()
    }

    fn on_tracer_installed(&mut self) {
        let mut member_idx = vec![[0usize; 2]; self.topo.num_stations()];
        let mut cols = 0;
        for (_rid, ring) in self.topo.rings() {
            for (m, &(st, side)) in ring.members.iter().enumerate() {
                member_idx[st as usize][side as usize] = m;
            }
            cols = cols.max(ring.members.len());
        }
        let heatmap = Heatmap::new(
            "flits forwarded per ring link",
            "ring",
            "member",
            self.topo.num_rings(),
            cols,
        );
        let id = self.core.tracer().add_heatmap(heatmap);
        self.link_heat = id.map(|id| (id, member_idx));
    }
}

/// The ring tier; the clock is its tick count.
impl Snap for RingNetwork {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        self.tier.snap(c)?;
        *self.core.clock_mut() = self.tier.cycle();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringmesh_net::{CacheLineSize, Interconnect, PacketKind, TxnId};

    fn packet(cfg: &RingConfig, txn: u64, kind: PacketKind, src: u32, dst: u32) -> Packet {
        Packet {
            txn: TxnId::new(txn),
            kind,
            src: NodeId::new(src),
            dst: NodeId::new(dst),
            flits: cfg.format.flits(kind, cfg.cache_line),
            injected_at: 0,
        }
    }

    fn deliver_all(net: &mut RingNetwork, expect: usize, max_cycles: u64) -> Vec<(NodeId, Packet)> {
        let mut out = Vec::new();
        for _ in 0..max_cycles {
            net.step(&mut out).unwrap();
            if out.len() >= expect {
                return out;
            }
        }
        panic!(
            "only {} of {expect} packets delivered in {max_cycles} cycles",
            out.len()
        );
    }

    /// The room contract: the step whose NIC takes the packet off PM
    /// 1's queue names PM 1, and the next step, which takes nothing,
    /// names nobody.
    #[test]
    fn a_nic_pop_reports_room_at_its_pm() {
        let cfg = RingConfig::new(CacheLineSize::B32);
        let mut net = RingNetwork::new(&RingSpec::single(4), cfg.clone());
        net.inject(NodeId::new(1), packet(&cfg, 1, PacketKind::ReadResp, 1, 3));
        assert!(net.room().is_empty());
        let mut out = Vec::new();
        net.step(&mut out).unwrap();
        assert_eq!(net.room(), [NodeId::new(1)]);
        net.step(&mut out).unwrap();
        assert!(net.room().is_empty());
    }

    #[test]
    fn single_flit_packet_takes_hop_count_cycles() {
        let cfg = RingConfig::new(CacheLineSize::B32);
        let spec = RingSpec::single(4);
        let mut net = RingNetwork::new(&spec, cfg.clone());
        net.inject(NodeId::new(0), packet(&cfg, 1, PacketKind::ReadReq, 0, 2));
        let mut delivered = Vec::new();
        let mut cycles = 0;
        while delivered.is_empty() {
            net.step(&mut delivered).unwrap();
            cycles += 1;
            assert!(cycles < 100);
        }
        // hops(0,2) = 2 on a 4-ring; add one cycle for ejection at the
        // destination NIC: the head flit leaves in the injection cycle.
        let hops = net.topology().hops(NodeId::new(0), NodeId::new(2)) as u64;
        assert_eq!(cycles, hops + 1);
    }

    #[test]
    fn multi_flit_packet_adds_serialization_latency() {
        let cfg = RingConfig::new(CacheLineSize::B128); // 9-flit responses
        let spec = RingSpec::single(4);
        let mut net = RingNetwork::new(&spec, cfg.clone());
        let p = packet(&cfg, 1, PacketKind::ReadResp, 0, 1);
        assert_eq!(p.flits, 9);
        net.inject(NodeId::new(0), p);
        let mut delivered = Vec::new();
        let mut cycles = 0;
        while delivered.is_empty() {
            net.step(&mut delivered).unwrap();
            cycles += 1;
            assert!(cycles < 100);
        }
        // hops + ejection + (flits - 1) pipeline fill.
        assert_eq!(cycles, 1 + 1 + 8);
    }

    #[test]
    fn crosses_ring_hierarchy() {
        let cfg = RingConfig::new(CacheLineSize::B32);
        let spec: RingSpec = "2:3".parse().unwrap();
        let mut net = RingNetwork::new(&spec, cfg.clone());
        net.inject(NodeId::new(0), packet(&cfg, 1, PacketKind::ReadReq, 0, 5));
        let got = deliver_all(&mut net, 1, 200);
        assert_eq!(got[0].0, NodeId::new(5));
        assert_eq!(got[0].1.txn, TxnId::new(1));
    }

    #[test]
    fn all_pairs_delivered_three_levels() {
        let cfg = RingConfig::new(CacheLineSize::B16);
        let spec: RingSpec = "2:2:3".parse().unwrap();
        let p = spec.num_pms();
        let mut net = RingNetwork::new(&spec, cfg.clone());
        let mut expected = 0;
        let mut txn = 0;
        for s in 0..p {
            for d in 0..p {
                if s != d && net.can_inject(NodeId::new(s), QueueClass::Request) {
                    txn += 1;
                    net.inject(NodeId::new(s), packet(&cfg, txn, PacketKind::ReadReq, s, d));
                    expected += 1;
                }
            }
        }
        assert!(expected >= p as usize as u32, "some injections must fit");
        let got = deliver_all(&mut net, expected as usize, 5_000);
        assert_eq!(got.len(), expected as usize);
    }

    #[test]
    fn zero_load_latency_matches_hops_prediction_across_hierarchy() {
        let cfg = RingConfig::new(CacheLineSize::B32);
        let spec: RingSpec = "2:3:4".parse().unwrap();
        for (src, dst) in [(0u32, 1u32), (0, 11), (0, 12), (5, 20), (23, 0)] {
            let mut net = RingNetwork::new(&spec, cfg.clone());
            net.inject(
                NodeId::new(src),
                packet(&cfg, 1, PacketKind::ReadReq, src, dst),
            );
            let mut delivered = Vec::new();
            let mut cycles = 0u64;
            while delivered.is_empty() {
                net.step(&mut delivered).unwrap();
                cycles += 1;
                assert!(cycles < 1000);
            }
            let hops = net.topology().hops(NodeId::new(src), NodeId::new(dst)) as u64;
            let crossings =
                net.topology()
                    .iri_crossings(NodeId::new(src), NodeId::new(dst)) as u64;
            assert_eq!(cycles, hops + crossings + 1, "src={src} dst={dst}");
        }
    }

    #[test]
    fn response_beats_request_at_injection() {
        let cfg = RingConfig::new(CacheLineSize::B32);
        let spec = RingSpec::single(4);
        let mut net = RingNetwork::new(&spec, cfg.clone());
        // Queue a request and a response at PM0 in the same cycle; the
        // response (3 flits) must be fully delivered before the request.
        net.inject(NodeId::new(0), packet(&cfg, 1, PacketKind::ReadReq, 0, 2));
        net.inject(NodeId::new(0), packet(&cfg, 2, PacketKind::ReadResp, 0, 2));
        let got = deliver_all(&mut net, 2, 100);
        assert_eq!(got[0].1.txn, TxnId::new(2), "response first");
        assert_eq!(got[1].1.txn, TxnId::new(1));
    }

    #[test]
    fn utilization_counts_only_after_reset() {
        let cfg = RingConfig::new(CacheLineSize::B32);
        let spec = RingSpec::single(4);
        let mut net = RingNetwork::new(&spec, cfg.clone());
        net.inject(NodeId::new(0), packet(&cfg, 1, PacketKind::ReadReq, 0, 3));
        let _ = deliver_all(&mut net, 1, 50);
        let before = net.utilization();
        assert!(before.overall > 0.0);
        net.reset_counters();
        let mut sink = Vec::new();
        for _ in 0..10 {
            net.step(&mut sink).unwrap();
        }
        let after = net.utilization();
        assert_eq!(after.overall, 0.0);
    }

    #[test]
    fn double_speed_global_ring_is_faster_across_rings() {
        let spec: RingSpec = "3:3:4".parse().unwrap();
        let mk = |speedup| {
            let cfg = RingConfig::new(CacheLineSize::B32).with_global_speedup(speedup);
            RingNetwork::new(&spec, cfg)
        };
        let cfg = RingConfig::new(CacheLineSize::B32);
        // PM 0 -> PM 35 crosses the global ring.
        let fly = |mut net: RingNetwork| -> u64 {
            net.inject(NodeId::new(0), packet(&cfg, 1, PacketKind::ReadReq, 0, 35));
            let mut delivered = Vec::new();
            let mut cycles = 0;
            while delivered.is_empty() {
                net.step(&mut delivered).unwrap();
                cycles += 1;
                assert!(cycles < 1000);
            }
            cycles
        };
        let normal = fly(mk(1));
        let fast = fly(mk(2));
        assert!(
            fast < normal,
            "double-speed global ring should cut latency: {fast} !< {normal}"
        );
    }

    #[test]
    fn conservation_no_packet_lost_or_duplicated() {
        let cfg = RingConfig::new(CacheLineSize::B64);
        let spec: RingSpec = "3:6".parse().unwrap();
        let mut net = RingNetwork::new(&spec, cfg.clone());
        let p = spec.num_pms();
        let mut injected = Vec::new();
        let mut txn = 0u64;
        // Inject a wave, run, inject another wave.
        for round in 0..5u32 {
            for s in 0..p {
                let d = (s + 1 + round) % p;
                if d != s && net.can_inject(NodeId::new(s), QueueClass::Request) {
                    txn += 1;
                    net.inject(NodeId::new(s), packet(&cfg, txn, PacketKind::ReadReq, s, d));
                    injected.push(txn);
                }
            }
            let mut sink = Vec::new();
            for _ in 0..30 {
                net.step(&mut sink).unwrap();
            }
        }
        let mut out = Vec::new();
        for _ in 0..2000 {
            net.step(&mut out).unwrap();
            if net.in_flight() == 0 {
                break;
            }
        }
        assert_eq!(net.in_flight(), 0, "network must drain");
        // Count all deliveries across rounds: re-run is awkward, so just
        // check the final drain saw the remainder and nothing twice.
        let mut seen: Vec<u64> = out.iter().map(|(_, p)| p.txn.raw()).collect();
        seen.sort_unstable();
        let before = seen.len();
        seen.dedup();
        assert_eq!(seen.len(), before, "duplicate deliveries");
    }

    /// A checkpoint whose rings hold a packet its store no longer has —
    /// the store emptied, the ledger's deliveries raised to match — is
    /// corrupt, wherever the worm is: leaving its NIC, on the local
    /// ring, crossing up and down, arriving.
    #[test]
    fn a_checkpoint_naming_a_dead_packet_is_corrupt() {
        use ringmesh_net::snap_network;
        use ringmesh_snap::{SnapReader, SnapWriter};

        let cfg = RingConfig::new(CacheLineSize::B32);
        let spec: RingSpec = "2:3".parse().unwrap();
        let word = |v: u64| v.to_le_bytes();
        for cycles in [1, 3, 6, 9, 12] {
            let mut net = RingNetwork::new(&spec, cfg.clone());
            net.inject(NodeId::new(0), packet(&cfg, 1, PacketKind::ReadResp, 0, 5));
            for _ in 0..cycles {
                net.step(&mut Vec::new()).unwrap();
            }
            assert_eq!(net.in_flight(), 1, "after {cycles} cycles");
            let mut w = SnapWriter::new();
            snap_network(&mut net, &mut w).unwrap();
            let bytes = w.into_bytes();
            // The store is its slot count, one 30-byte `Some(packet)`,
            // the free list's length and the live count; the ledger's
            // injected, delivered and dropped end the checkpoint.
            let dead = [
                &[word(0), word(0), word(0)].concat()[..],
                &bytes[8 + 30 + 8 + 8..bytes.len() - 16],
                &[word(1), word(0)].concat(),
            ]
            .concat();
            let mut fresh = RingNetwork::new(&spec, cfg.clone());
            match snap_network(&mut fresh, &mut SnapReader::new(&dead)) {
                Err(SnapError::Corrupt(msg)) => {
                    assert!(
                        msg.contains("names packet slot 0, which is not live"),
                        "{msg}"
                    )
                }
                other => panic!("after {cycles} cycles: {other:?}"),
            }
        }
    }

    use ringmesh_faults::{FaultEvent, FaultInjector, FaultKind, FaultSchedule};

    fn install(net: &mut RingNetwork, events: Vec<FaultEvent>, corrupt: f64) {
        let schedule = FaultSchedule::from_events(7, corrupt, events);
        let domain = net.fault_domain();
        net.set_faults(FaultInjector::new(&schedule, domain));
    }

    #[test]
    fn dead_iri_sinks_cross_traffic_in_flight() {
        let cfg = RingConfig::new(CacheLineSize::B32);
        let spec: RingSpec = "2:3".parse().unwrap();
        let mut net = RingNetwork::new(&spec, cfg.clone());
        // IRI 0 joins subtree [0,3) to the global ring; kill it after
        // the packet below is already on its way.
        install(
            &mut net,
            vec![FaultEvent {
                at: 1,
                kind: FaultKind::NodeDead { node: 0 },
            }],
            0.0,
        );
        net.inject(NodeId::new(0), packet(&cfg, 1, PacketKind::ReadReq, 0, 5));
        let mut out = Vec::new();
        for _ in 0..200 {
            net.step(&mut out).unwrap();
            if net.in_flight() == 0 {
                break;
            }
        }
        assert!(out.is_empty(), "cross-ring packet must not be delivered");
        assert_eq!(net.in_flight(), 0, "sunk worm must fully drain");
        net.verify_conservation().unwrap();
        assert_eq!(net.faults().unwrap().report().drops.dead_interface, 1);
    }

    #[test]
    fn dead_iri_refuses_new_cross_traffic_but_local_flows() {
        let cfg = RingConfig::new(CacheLineSize::B32);
        let spec: RingSpec = "2:3".parse().unwrap();
        let mut net = RingNetwork::new(&spec, cfg.clone());
        install(
            &mut net,
            vec![FaultEvent {
                at: 0,
                kind: FaultKind::NodeDead { node: 0 },
            }],
            0.0,
        );
        // One step applies the cycle-0 death before any injection.
        let mut out = Vec::new();
        net.step(&mut out).unwrap();
        net.inject(NodeId::new(0), packet(&cfg, 1, PacketKind::ReadReq, 0, 5));
        net.inject(NodeId::new(0), packet(&cfg, 2, PacketKind::ReadReq, 0, 1));
        for _ in 0..100 {
            net.step(&mut out).unwrap();
            if net.in_flight() == 0 && out.len() == 1 {
                break;
            }
        }
        assert_eq!(out.len(), 1, "only the intra-ring packet arrives");
        assert_eq!(out[0].1.txn, TxnId::new(2));
        net.verify_conservation().unwrap();
        assert_eq!(net.faults().unwrap().report().drops.unreachable, 1);
    }

    #[test]
    fn transient_link_down_delays_but_loses_nothing() {
        let cfg = RingConfig::new(CacheLineSize::B32);
        let spec = RingSpec::single(4);
        let fly = |events: Vec<FaultEvent>| -> u64 {
            let mut net = RingNetwork::new(&spec, cfg.clone());
            install(&mut net, events, 0.0);
            net.inject(NodeId::new(0), packet(&cfg, 1, PacketKind::ReadReq, 0, 2));
            let mut out = Vec::new();
            let mut cycles = 0u64;
            while out.is_empty() {
                net.step(&mut out).unwrap();
                cycles += 1;
                assert!(cycles < 300, "packet lost behind a downed link");
            }
            net.verify_conservation().unwrap();
            cycles
        };
        let base = fly(Vec::new());
        // Down PM0's NIC output link (station 0, side 0 => link 0).
        let slow = fly(vec![FaultEvent {
            at: 0,
            kind: FaultKind::LinkDown { link: 0, until: 50 },
        }]);
        assert!(slow >= 50, "delivery must wait out the outage: {slow}");
        assert!(base < slow);
    }

    #[test]
    fn corruption_drops_at_ejection() {
        let cfg = RingConfig::new(CacheLineSize::B32);
        let spec = RingSpec::single(4);
        let mut net = RingNetwork::new(&spec, cfg.clone());
        install(&mut net, Vec::new(), 1.0);
        net.inject(NodeId::new(0), packet(&cfg, 1, PacketKind::ReadReq, 0, 2));
        let mut out = Vec::new();
        for _ in 0..100 {
            net.step(&mut out).unwrap();
            if net.in_flight() == 0 {
                break;
            }
        }
        assert!(out.is_empty(), "corrupted packet must be dropped");
        assert_eq!(net.in_flight(), 0);
        net.verify_conservation().unwrap();
        let report = net.faults().unwrap().report();
        assert_eq!(report.drops.corrupted, 1);
        assert_eq!(report.corrupt_marked, 1);
    }

    #[test]
    fn installed_but_empty_schedule_changes_nothing() {
        let cfg = RingConfig::new(CacheLineSize::B32);
        let spec: RingSpec = "2:3".parse().unwrap();
        let fly = |faulty: bool| -> u64 {
            let mut net = RingNetwork::new(&spec, cfg.clone());
            if faulty {
                install(&mut net, Vec::new(), 0.0);
            }
            net.inject(NodeId::new(0), packet(&cfg, 1, PacketKind::ReadReq, 0, 5));
            let mut out = Vec::new();
            let mut cycles = 0u64;
            while out.is_empty() {
                net.step(&mut out).unwrap();
                cycles += 1;
                assert!(cycles < 300);
            }
            cycles
        };
        assert_eq!(fly(false), fly(true));
    }
}
