//! The 2-D mesh network simulator.

use ringmesh_faults::{FaultDomain, FaultInjector};
use ringmesh_net::{LevelUtil, NetCore, NodeId, Packet, PacketRef, QueueClass, UtilizationReport};
use ringmesh_snap::{Codec, Snap, SnapError};
use ringmesh_trace::{Counter, EventKind, Gauge, Heatmap, HeatmapId, TraceLoc};

use crate::routers::{owner_coords, CommitOp, FaultCtx, MeshRouters};
use crate::topology::MeshTopology;
use crate::{MeshConfig, WATCHDOG_HORIZON};

/// A flit-level, cycle-accurate 2-D bi-directional wormhole mesh.
///
/// Implements [`ringmesh_net::Interconnect`]; drive it with the
/// `ringmesh-workload` crate or directly as in the example below.
///
/// # Example
///
/// ```
/// use ringmesh_net::{CacheLineSize, Interconnect, NodeId, Packet, PacketKind, TxnId};
/// use ringmesh_mesh::{MeshConfig, MeshNetwork, MeshTopology};
///
/// let topo = MeshTopology::new(3);
/// let cfg = MeshConfig::new(CacheLineSize::B32);
/// let mut net = MeshNetwork::new(topo, cfg.clone());
/// let kind = PacketKind::ReadReq;
/// net.inject(NodeId::new(0), Packet {
///     txn: TxnId::new(1), kind,
///     src: NodeId::new(0), dst: NodeId::new(8),
///     flits: cfg.format.flits(kind, cfg.cache_line),
///     injected_at: 0,
/// });
/// let mut delivered = Vec::new();
/// while delivered.is_empty() {
///     net.step(&mut delivered).unwrap();
/// }
/// assert_eq!(delivered[0].0, NodeId::new(8));
/// ```
#[derive(Debug)]
pub struct MeshNetwork {
    topo: MeshTopology,
    cfg: MeshConfig,
    core: NetCore,
    /// All router state, stop/go registers included.
    routers: MeshRouters,
    /// `(row, col)` of every destination node, read by the route stage
    /// (see [`owner_coords`]).
    owners: Vec<(u16, u16)>,
    link_flits: u64,
    reset_cycle: u64,
    /// Link-utilization heatmap handle (rows × cols = the mesh grid;
    /// each cell counts flits arriving at that router), registered when
    /// a recording tracer is installed.
    link_heat: Option<HeatmapId>,
}

impl MeshNetwork {
    /// Builds the network for `topo` under `cfg`.
    pub fn new(topo: MeshTopology, cfg: MeshConfig) -> Self {
        let routers = MeshRouters::new(
            &topo,
            cfg.buffer_flits(),
            cfg.format.cl_packet_flits(cfg.cache_line),
            cfg.out_queue_packets,
        );
        MeshNetwork {
            topo,
            core: NetCore::new(WATCHDOG_HORIZON),
            cfg,
            routers,
            owners: owner_coords(&topo, 1),
            link_flits: 0,
            reset_cycle: 0,
            link_heat: None,
        }
    }

    /// The mesh topology.
    pub fn topology(&self) -> &MeshTopology {
        &self.topo
    }

    /// The configuration the network was built with.
    pub fn config(&self) -> &MeshConfig {
        &self.cfg
    }

    /// Tracing for one stepped cycle: link-transfer counts and heatmap
    /// bumps, Hop events for sampled head flits, blocked-cycle counts
    /// and the input-occupancy gauge. Only called while the tracer is
    /// enabled.
    fn trace_cycle(&mut self, now: u64) {
        let tracer = self.core.tracer();
        tracer.count(Counter::FlitsForwarded, self.routers.link_flits);
        tracer.count(Counter::BlockedCycles, self.routers.blocked);
        tracer.gauge(Gauge::MeshInputOccupancy, self.routers.occupancy() as f64);
        for s in &self.routers.sends {
            let (row, col) = self.topo.coords(NodeId::new(s.to_node));
            if let Some(id) = self.link_heat {
                self.core
                    .tracer()
                    .heatmap(id, row as usize, col as usize, 1);
            }
            if s.flit.is_head() {
                let txn = self.core.store().get(s.flit.packet).txn.raw();
                self.core
                    .tracer()
                    .event(txn, now, TraceLoc::MeshNode { row, col }, EventKind::Hop);
            }
        }
    }
}

impl ringmesh_net::Interconnect for MeshNetwork {
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
        self.routers.can_accept(pm.index(), class)
    }

    fn enqueue(&mut self, pm: NodeId, class: QueueClass, packet: PacketRef) {
        self.routers.enqueue(pm.index(), class, packet);
    }

    fn advance(&mut self, delivered: &mut Vec<(NodeId, Packet)>) -> u64 {
        let now = self.core.cycle();
        let tracing = self.core.tracing();
        let fc = FaultCtx {
            inj: self.core.faults(),
            corrupt: self.core.corrupt(),
            now,
        };
        // The tracer reads this cycle's link transfers and blocked
        // count in `trace_cycle`; nobody else needs them.
        self.routers
            .step(&self.owners, self.core.store(), &fc, tracing);
        for &pm in &self.routers.room {
            self.core.room_at(pm);
        }
        // Deliveries and drops, in node order: this loop is the one
        // writer of the packet store and the ledger, so the delivered
        // stream and packet-store slot reuse are fixed by construction.
        for &op in &self.routers.ops {
            match op {
                CommitOp::Deliver { node, packet } => self.core.deliver(packet, node, delivered),
                CommitOp::Drop { packet, reason } => self.core.drop_packet(packet, reason),
            }
        }
        self.link_flits += self.routers.link_flits;
        if tracing {
            self.trace_cycle(now);
        }
        self.routers.latch();
        self.routers.moved
    }

    fn utilization(&self) -> UtilizationReport {
        let cycles = self.core.cycle() - self.reset_cycle;
        if cycles == 0 || self.topo.num_links() == 0 {
            return UtilizationReport::default();
        }
        let overall = self.link_flits as f64 / (self.topo.num_links() as u64 * cycles) as f64;
        UtilizationReport {
            overall,
            levels: vec![LevelUtil {
                label: "mesh links".to_string(),
                utilization: overall,
            }],
        }
    }

    fn reset_counters(&mut self) {
        self.link_flits = 0;
        self.reset_cycle = self.core.cycle();
    }

    /// Fail fast at injection when the source or destination router is
    /// dead: the packet could never be delivered.
    fn reachable(&self, src: NodeId, dst: NodeId) -> bool {
        let dead = |f: &FaultInjector| f.node_dead(src.raw()) || f.node_dead(dst.raw());
        !self.core.faults().is_some_and(dead)
    }

    fn pm_alive(&self, pm: NodeId) -> bool {
        self.core.faults().is_none_or(|f| !f.node_dead(pm.raw()))
    }

    fn fault_domain(&self) -> FaultDomain {
        FaultDomain {
            // Directed link `node*4 + port`; edge ports that lead off
            // the mesh are addressable but their events are no-ops.
            links: self.topo.num_pms() * 4,
            nodes: self.topo.num_pms(),
        }
    }

    fn trace_loc(&self, pm: NodeId) -> TraceLoc {
        let (row, col) = self.topo.coords(pm);
        TraceLoc::MeshNode { row, col }
    }

    fn on_tracer_installed(&mut self) {
        let side = self.topo.side() as usize;
        self.link_heat = self.core.tracer().add_heatmap(Heatmap::new(
            "flits arriving per mesh router",
            "row",
            "col",
            side,
            side,
        ));
    }
}

/// The routers, the clock, the link flit count, the reset cycle.
impl Snap for MeshNetwork {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        self.routers.snap(c, 1)?;
        self.core.clock_mut().snap(c)?;
        self.link_flits.snap(c)?;
        self.reset_cycle.snap(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringmesh_net::{BufferRegime, CacheLineSize, Interconnect, PacketKind, TxnId};

    fn packet(cfg: &MeshConfig, txn: u64, kind: PacketKind, src: u32, dst: u32) -> Packet {
        Packet {
            txn: TxnId::new(txn),
            kind,
            src: NodeId::new(src),
            dst: NodeId::new(dst),
            flits: cfg.format.flits(kind, cfg.cache_line),
            injected_at: 0,
        }
    }

    fn fly(net: &mut MeshNetwork, max: u64) -> (u64, Vec<(NodeId, Packet)>) {
        let mut delivered = Vec::new();
        for c in 1..=max {
            net.step(&mut delivered).unwrap();
            if !delivered.is_empty() {
                return (c, delivered);
            }
        }
        panic!("no delivery within {max} cycles");
    }

    /// The room contract: the step that starts draining PM 2's queued
    /// packet names PM 2 — once, though the drain takes several cycles
    /// — and then PM 2 again for the second packet.
    #[test]
    fn a_drain_start_reports_room_at_its_pm() {
        let cfg = MeshConfig::new(CacheLineSize::B32);
        let mut net = MeshNetwork::new(MeshTopology::new(2), cfg.clone());
        net.inject(NodeId::new(2), packet(&cfg, 1, PacketKind::ReadResp, 2, 1));
        net.inject(NodeId::new(2), packet(&cfg, 2, PacketKind::WriteReq, 2, 1));
        let flits = cfg.format.flits(PacketKind::ReadResp, cfg.cache_line);
        let mut out = Vec::new();
        let mut named = Vec::new();
        for cycle in 0..2 * u64::from(flits) {
            net.step(&mut out).unwrap();
            if !net.room().is_empty() {
                assert_eq!(net.room(), [NodeId::new(2)]);
                named.push(cycle);
            }
        }
        assert_eq!(named, [0, u64::from(flits)]);
    }

    #[test]
    fn zero_load_latency_matches_hop_prediction() {
        // One-way delivery: 1 (inject into local buffer) + hops (link
        // traversals) + 1 (ejection) + flits-1 (serialization).
        let cfg = MeshConfig::new(CacheLineSize::B32);
        for (src, dst) in [(0u32, 1u32), (0, 8), (4, 2), (8, 0)] {
            let mut net = MeshNetwork::new(MeshTopology::new(3), cfg.clone());
            let p = packet(&cfg, 1, PacketKind::ReadReq, src, dst);
            let flits = u64::from(p.flits);
            net.inject(NodeId::new(src), p);
            let (cycles, got) = fly(&mut net, 200);
            let hops = net.topology().manhattan(NodeId::new(src), NodeId::new(dst)) as u64;
            assert_eq!(cycles, 1 + hops + 1 + flits - 1, "src={src} dst={dst}");
            assert_eq!(got[0].0, NodeId::new(dst));
        }
    }

    #[test]
    fn all_pairs_delivered() {
        let cfg = MeshConfig::new(CacheLineSize::B16);
        for side in [2u32, 3, 4] {
            let p = side * side;
            let mut net = MeshNetwork::new(MeshTopology::new(side), cfg.clone());
            let mut expected = 0u32;
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
            let mut out = Vec::new();
            for _ in 0..10_000 {
                net.step(&mut out).unwrap();
                if out.len() as u32 >= expected {
                    break;
                }
            }
            assert_eq!(out.len() as u32, expected, "side={side}");
            assert_eq!(net.in_flight(), 0);
        }
    }

    #[test]
    fn one_flit_buffers_still_deliver() {
        let cfg = MeshConfig::new(CacheLineSize::B128).with_buffers(BufferRegime::OneFlit);
        let mut net = MeshNetwork::new(MeshTopology::new(4), cfg.clone());
        // A long worm (36 flits) across the full diagonal with 1-flit
        // buffers spans many routers at once.
        net.inject(NodeId::new(0), packet(&cfg, 1, PacketKind::ReadResp, 0, 15));
        let (cycles, got) = fly(&mut net, 500);
        assert_eq!(got[0].1.flits, 36);
        // With 1-flit buffers each flit advances behind the head; total
        // is still hops-dominated + serialization, but stop/go bubbles
        // make it larger than the deep-buffer bound.
        assert!(cycles >= 1 + 6 + 1 + 35, "cycles={cycles}");
    }

    #[test]
    fn cl_buffers_match_deep_buffer_bound() {
        let cfg = MeshConfig::new(CacheLineSize::B128).with_buffers(BufferRegime::CacheLine);
        let mut net = MeshNetwork::new(MeshTopology::new(4), cfg.clone());
        net.inject(NodeId::new(0), packet(&cfg, 1, PacketKind::ReadResp, 0, 15));
        let (cycles, _) = fly(&mut net, 500);
        assert_eq!(cycles, 1 + 6 + 1 + 35);
    }

    #[test]
    fn response_beats_request_at_injection() {
        let cfg = MeshConfig::new(CacheLineSize::B32);
        let mut net = MeshNetwork::new(MeshTopology::new(2), cfg.clone());
        net.inject(NodeId::new(0), packet(&cfg, 1, PacketKind::ReadReq, 0, 3));
        net.inject(NodeId::new(0), packet(&cfg, 2, PacketKind::WriteResp, 0, 3));
        let mut out = Vec::new();
        for _ in 0..100 {
            net.step(&mut out).unwrap();
            if out.len() == 2 {
                break;
            }
        }
        assert_eq!(out[0].1.txn, TxnId::new(2), "response first");
        assert_eq!(out[1].1.txn, TxnId::new(1));
    }

    #[test]
    fn contention_on_shared_column_is_serialized_fairly() {
        // Two packets from (0,0) and (2,0) both to (1,2): they share the
        // column-2 approach into the destination. Both must arrive.
        let cfg = MeshConfig::new(CacheLineSize::B64);
        let mut net = MeshNetwork::new(MeshTopology::new(3), cfg.clone());
        let dst = 5; // (1,2)
        net.inject(
            NodeId::new(0),
            packet(&cfg, 1, PacketKind::ReadResp, 0, dst),
        );
        net.inject(
            NodeId::new(6),
            packet(&cfg, 2, PacketKind::ReadResp, 6, dst),
        );
        let mut out = Vec::new();
        for _ in 0..500 {
            net.step(&mut out).unwrap();
            if out.len() == 2 {
                break;
            }
        }
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn utilization_accounts_inter_router_links_only() {
        let cfg = MeshConfig::new(CacheLineSize::B16);
        let mut net = MeshNetwork::new(MeshTopology::new(2), cfg.clone());
        // src->dst adjacent: request is 4 flits over exactly 1 link.
        net.inject(NodeId::new(0), packet(&cfg, 1, PacketKind::ReadReq, 0, 1));
        let mut out = Vec::new();
        let mut cycles = 0u64;
        while out.is_empty() {
            net.step(&mut out).unwrap();
            cycles += 1;
        }
        let util = net.utilization();
        let expected = 4.0 / (net.topology().num_links() as u64 * cycles) as f64;
        assert!((util.overall - expected).abs() < 1e-12);
    }

    #[test]
    fn watchdog_clean_under_saturation_burst() {
        // Flood a small mesh and make sure it drains without tripping
        // the watchdog (e-cube + guaranteed ejection is deadlock-free).
        let cfg = MeshConfig::new(CacheLineSize::B64);
        let mut net = MeshNetwork::new(MeshTopology::new(4), cfg.clone());
        let p = 16u32;
        let mut txn = 0u64;
        let mut out = Vec::new();
        for round in 0..50 {
            for s in 0..p {
                let d = (s + 1 + round % (p - 1)) % p;
                if d != s && net.can_inject(NodeId::new(s), QueueClass::Request) {
                    txn += 1;
                    net.inject(
                        NodeId::new(s),
                        packet(&cfg, txn, PacketKind::WriteReq, s, d),
                    );
                }
            }
            net.step(&mut out).unwrap();
        }
        for _ in 0..5_000 {
            net.step(&mut out).unwrap();
            if net.in_flight() == 0 {
                break;
            }
        }
        assert_eq!(net.in_flight(), 0, "mesh must drain");
        assert_eq!(out.len() as u64, txn);
    }

    use ringmesh_faults::{FaultEvent, FaultKind, FaultSchedule};

    fn install(net: &mut MeshNetwork, events: Vec<FaultEvent>, corrupt: f64) {
        let schedule = FaultSchedule::from_events(7, corrupt, events);
        let domain = net.fault_domain();
        net.set_faults(FaultInjector::new(&schedule, domain));
    }

    #[test]
    fn dead_router_is_routed_around() {
        // 3x3 mesh, kill node 1 (0,1). Plain e-cube 0 -> 5 goes
        // 0,1,2,5 straight through the dead router; the YX fallback at
        // node 0 takes South instead and detours 0,3,4,5. Routing stays
        // minimal, so the detour must not cost extra hops.
        let cfg = MeshConfig::new(CacheLineSize::B32);
        let mut net = MeshNetwork::new(MeshTopology::new(3), cfg.clone());
        install(
            &mut net,
            vec![FaultEvent {
                at: 0,
                kind: FaultKind::NodeDead { node: 1 },
            }],
            0.0,
        );
        let mut out = Vec::new();
        net.step(&mut out).unwrap();
        net.inject(NodeId::new(0), packet(&cfg, 1, PacketKind::ReadReq, 0, 5));
        for _ in 0..300 {
            net.step(&mut out).unwrap();
            if !out.is_empty() {
                break;
            }
        }
        assert_eq!(out.len(), 1, "detour must deliver around the dead router");
        assert_eq!(out[0].0, NodeId::new(5));
        net.verify_conservation().unwrap();
        assert_eq!(net.faults().unwrap().report().drops.total(), 0);
    }

    #[test]
    fn packet_to_dead_router_is_refused() {
        let cfg = MeshConfig::new(CacheLineSize::B32);
        let mut net = MeshNetwork::new(MeshTopology::new(3), cfg.clone());
        install(
            &mut net,
            vec![FaultEvent {
                at: 0,
                kind: FaultKind::NodeDead { node: 4 },
            }],
            0.0,
        );
        let mut out = Vec::new();
        net.step(&mut out).unwrap();
        net.inject(NodeId::new(0), packet(&cfg, 1, PacketKind::ReadReq, 0, 4));
        for _ in 0..100 {
            net.step(&mut out).unwrap();
        }
        assert!(out.is_empty());
        assert_eq!(net.in_flight(), 0);
        net.verify_conservation().unwrap();
        assert_eq!(net.faults().unwrap().report().drops.unreachable, 1);
    }

    #[test]
    fn corner_cut_off_by_dead_neighbors_drops_in_flight() {
        // Kill both neighbours of corner 8 — (1,2)=5 and (2,1)=7 — a
        // few cycles after a packet to 8 is already in flight: every
        // candidate direction at some router leads to a dead router, so
        // the packet is sunk mid-flight and accounted.
        let cfg = MeshConfig::new(CacheLineSize::B32);
        let mut net = MeshNetwork::new(MeshTopology::new(3), cfg.clone());
        install(
            &mut net,
            vec![
                FaultEvent {
                    at: 2,
                    kind: FaultKind::NodeDead { node: 5 },
                },
                FaultEvent {
                    at: 2,
                    kind: FaultKind::NodeDead { node: 7 },
                },
            ],
            0.0,
        );
        net.inject(NodeId::new(0), packet(&cfg, 1, PacketKind::ReadReq, 0, 8));
        let mut out = Vec::new();
        for _ in 0..300 {
            net.step(&mut out).unwrap();
            if net.in_flight() == 0 {
                break;
            }
        }
        assert_eq!(net.in_flight(), 0, "sunk worm must fully drain");
        net.verify_conservation().unwrap();
        let report = net.faults().unwrap().report();
        assert_eq!(report.drops.total() as usize + out.len(), 1);
    }

    #[test]
    fn transient_link_down_delays_but_loses_nothing() {
        let cfg = MeshConfig::new(CacheLineSize::B32);
        let fly_with = |events: Vec<FaultEvent>| -> u64 {
            let mut net = MeshNetwork::new(MeshTopology::new(2), cfg.clone());
            install(&mut net, events, 0.0);
            net.inject(NodeId::new(0), packet(&cfg, 1, PacketKind::ReadReq, 0, 1));
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
        let base = fly_with(Vec::new());
        // Node 0's East link is `0*4 + port(East)=1`. 0 -> 1 has no
        // alternative direction, so the packet waits out the outage.
        let slow = fly_with(vec![FaultEvent {
            at: 0,
            kind: FaultKind::LinkDown { link: 1, until: 40 },
        }]);
        assert!(slow >= 40, "delivery must wait out the outage: {slow}");
        assert!(base < slow);
    }

    #[test]
    fn corruption_drops_at_ejection() {
        let cfg = MeshConfig::new(CacheLineSize::B32);
        let mut net = MeshNetwork::new(MeshTopology::new(2), cfg.clone());
        install(&mut net, Vec::new(), 1.0);
        net.inject(NodeId::new(0), packet(&cfg, 1, PacketKind::ReadReq, 0, 3));
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
        assert_eq!(net.faults().unwrap().report().drops.corrupted, 1);
    }
}

/// A checkpoint is outside input: a router field the step would index
/// with must be refused at restore, not trusted until it panics, and
/// what router 0 holds must pass the census (`ringmesh_net::census`).
#[cfg(test)]
mod corrupt_snapshot_tests {
    use super::*;
    use ringmesh_net::{snap_network, CacheLineSize, Interconnect, PacketKind, PacketStore, TxnId};
    use ringmesh_snap::{SnapReader, SnapWriter};

    /// Router 0 of a `mesh:3` (the north-west corner) as a snapshot
    /// writes it: its north input, output 0 and its PM side as given,
    /// every other field idle.
    #[derive(Debug, Default, Clone)]
    struct Router0 {
        /// The north input's FIFO of 4 lanes, front first: packet
        /// slot, sequence number, tail.
        fifo: Vec<(u32, u32, bool)>,
        /// The north input's held route: packet slot, output port.
        route: Option<(u32, u64)>,
        /// The input connected to output 0.
        conn: Option<u64>,
        /// Output 0's round-robin pointer.
        pointer: u64,
        /// The request queue's packet slots.
        queue: Vec<u32>,
        /// Packet slot, next flit, total.
        drain: Option<(u32, u32, u32)>,
        /// Packet slot, flits received.
        assembler: Option<(u32, u32)>,
    }

    fn encode<T: Snap>(mut v: T) -> Vec<u8> {
        let mut w = SnapWriter::new();
        v.snap(&mut w).unwrap();
        w.into_bytes()
    }

    impl Router0 {
        fn bytes(&self) -> Vec<u8> {
            let flits = self.fifo.iter().flat_map(|&flit| encode(flit));
            [
                encode([4, self.fifo.len()]),
                flits.collect(),
                encode([4usize, 0, 4, 0, 4, 0, 4, 0]),
                encode(self.route),
                vec![0; 4],
                encode(self.conn),
                vec![0; 4],
                encode([self.pointer, 0, 0, 0, 0]),
                encode((1usize, self.queue.clone())),
                encode([1usize, 0]),
                encode(self.drain),
                encode(self.assembler),
            ]
            .concat()
        }
    }

    fn mesh() -> MeshNetwork {
        MeshNetwork::new(MeshTopology::new(3), MeshConfig::new(CacheLineSize::B32))
    }

    fn saved(net: &mut MeshNetwork) -> Vec<u8> {
        let mut w = SnapWriter::new();
        snap_network(net, &mut w).unwrap();
        w.into_bytes()
    }

    /// Restores an idle `mesh:3` whose store holds packets of `flits`
    /// flits for PM 0 in slots 0.. and whose router 0 is `r0`; returns
    /// the network and the bytes.
    fn restore(flits: &[u32], r0: &Router0) -> Result<(MeshNetwork, Vec<u8>), SnapError> {
        let mut store = PacketStore::new();
        for (txn, &flits) in flits.iter().enumerate() {
            store.insert(Packet {
                txn: TxnId::new(txn as u64),
                kind: PacketKind::ReadResp,
                src: NodeId::new(1),
                dst: NodeId::new(0),
                flits,
                injected_at: 0,
            });
        }
        // After the empty store (slots, free list, live count) and the
        // router count come the idle router 0, the other routers, the
        // clock and counters, the watchdog and the ledger's three
        // counters, of which the first counts the packets injected.
        let idle = saved(&mut mesh());
        let rest = &idle[3 * 8 + 8 + Router0::default().bytes().len()..];
        let mut bytes = [encode(store), encode(9usize), r0.bytes(), rest.to_vec()].concat();
        let ledger = bytes.len() - 3 * 8;
        bytes[ledger..ledger + 8].copy_from_slice(&(flits.len() as u64).to_le_bytes());
        let mut net = mesh();
        snap_network(&mut net, &mut SnapReader::new(&bytes))?;
        Ok((net, bytes))
    }

    fn assert_corrupt<T: std::fmt::Debug>(result: Result<T, SnapError>, what: &str) {
        match result {
            Err(SnapError::Corrupt(msg)) => assert!(msg.contains(what), "{msg}"),
            other => panic!("{what}: {other:?}"),
        }
    }

    /// A one-flit packet at the north input.
    fn single(slot: u32) -> Vec<(u32, u32, bool)> {
        vec![(slot, 0, true)]
    }

    #[test]
    fn unspliced_snapshot_restores() {
        let (mut net, bytes) = restore(&[], &Router0::default()).unwrap();
        assert_eq!(bytes, saved(&mut mesh()));
        net.step(&mut Vec::new()).unwrap();
        // East is a real link of the north-west corner.
        let r0 = Router0 {
            fifo: single(0),
            route: Some((0, 1)),
            ..Router0::default()
        };
        let (mut net, bytes) = restore(&[1], &r0).unwrap();
        assert_eq!(saved(&mut net), bytes);
        net.step(&mut Vec::new()).unwrap();
    }

    #[test]
    fn out_of_range_route_port_is_corrupt() {
        let routed = |port| Router0 {
            fifo: single(0),
            route: Some((0, port)),
            ..Router0::default()
        };
        // 261 must not narrow to 5, the drop port.
        for port in [6, 7, 261, u64::MAX] {
            assert_corrupt(restore(&[1], &routed(port)), "route port");
        }
        // In range, but router 0 has no north or west link.
        for port in [0, 3] {
            assert_corrupt(restore(&[1], &routed(port)), "off the mesh");
        }
    }

    #[test]
    fn out_of_range_connection_is_corrupt() {
        for input in [5, 7, 255, 261] {
            let r0 = Router0 {
                conn: Some(input),
                ..Router0::default()
            };
            assert_corrupt(restore(&[], &r0), "connected input");
        }
        // In range, but input 2 holds no route to output 0.
        let r0 = Router0 {
            conn: Some(2),
            ..Router0::default()
        };
        assert_corrupt(restore(&[], &r0), "holds no route");
    }

    /// A buffered worm whose front is mid-packet behind its assembled
    /// head, then a whole one, restores and writes back the same bytes.
    #[test]
    fn buffered_worms_round_trip() {
        let r0 = Router0 {
            fifo: vec![(0, 4, false), (0, 5, true), (1, 0, true)],
            route: Some((0, 4)),
            assembler: Some((0, 4)),
            ..Router0::default()
        };
        let (mut net, bytes) = restore(&[6, 1], &r0).unwrap();
        assert_eq!(saved(&mut net), bytes);
    }

    /// The lanes hold a 24-bit packet slot and a 7-bit sequence number.
    #[test]
    fn a_flit_wider_than_a_lane_is_corrupt() {
        for flit in [(1 << 24, 0, true), (u32::MAX, 0, true), (0, 128, true)] {
            let r0 = Router0 {
                fifo: vec![flit],
                ..Router0::default()
            };
            assert_corrupt(restore(&[1], &r0), "flit lane");
        }
    }

    /// Within one packet the sequence numbers rise by one; after the
    /// front, each new packet starts at its head.
    #[test]
    fn flits_that_are_not_pieces_of_worms_are_corrupt() {
        for fifo in [
            [(0, 0, false), (0, 2, true)],
            [(0, 1, false), (0, 1, true)],
            [(0, 0, false), (1, 1, true)],
            [(0, 0, false), (1, 0, true)],
            [(0, 3, true), (1, 1, true)],
        ] {
            let r0 = Router0 {
                fifo: fifo.to_vec(),
                ..Router0::default()
            };
            assert_corrupt(restore(&[4, 4], &r0), "breaks a worm");
        }
    }

    /// Every packet a router names — in a lane, a held route, a PM
    /// queue, the drain or the assembler — must be in the store: slot 0
    /// is, slot 4 is past its end and slot 9 further still.
    #[test]
    fn a_packet_that_is_not_live_is_corrupt() {
        // Where, the store's packet lengths, and router 0 naming a slot.
        type Place = (&'static str, &'static [u32], fn(u32) -> Router0);
        let places: [Place; 5] = [
            ("a lane", &[1], |slot| Router0 {
                fifo: single(slot),
                ..Router0::default()
            }),
            ("a held route", &[1], |slot| Router0 {
                fifo: single(0),
                route: Some((slot, 1)),
                ..Router0::default()
            }),
            ("a PM queue", &[1], |slot| Router0 {
                queue: vec![slot],
                ..Router0::default()
            }),
            ("the drain", &[1], |slot| Router0 {
                drain: Some((slot, 0, 1)),
                ..Router0::default()
            }),
            ("the assembler", &[2], |slot| Router0 {
                fifo: vec![(0, 1, true)],
                route: Some((0, 4)),
                assembler: Some((slot, 1)),
                ..Router0::default()
            }),
        ];
        for (what, flits, r0) in places {
            restore(flits, &r0(0)).unwrap_or_else(|e| panic!("{what}: {e}"));
            for slot in [4, 9] {
                let result = restore(flits, &r0(slot));
                assert_corrupt(
                    result,
                    &format!("names packet slot {slot}, which is not live"),
                );
            }
        }
    }

    /// A buffered or draining flit's index is below its packet's length,
    /// and a drain serializes its packet's length.
    #[test]
    fn a_flit_index_past_its_packet_is_corrupt() {
        let r0 = Router0 {
            fifo: vec![(0, 1, true)],
            ..Router0::default()
        };
        assert_corrupt(
            restore(&[1], &r0),
            "flit 1 with the tail bit, in a packet of 1 flits",
        );
        // Flit 0 assembled, flits 1 to 4 buffered on their way to the
        // PM port, 5 left to send.
        let draining = |next, total| Router0 {
            fifo: (1..5).map(|seq| (0, seq, false)).collect(),
            route: Some((0, 4)),
            assembler: Some((0, 1)),
            drain: Some((0, next, total)),
            ..Router0::default()
        };
        restore(&[6], &draining(5, 6)).unwrap();
        assert_corrupt(restore(&[6], &draining(6, 6)), "a drain at flit 6 of 6");
        for total in [0, 5, 7, u32::MAX] {
            assert_corrupt(
                restore(&[6], &draining(0, total)),
                &format!("a drain at flit 0 of {total}, of a 6-flit packet"),
            );
        }
    }

    #[test]
    fn out_of_range_round_robin_pointer_is_corrupt() {
        for pointer in [5u64, 7, 261, u64::MAX] {
            let r0 = Router0 {
                pointer,
                ..Router0::default()
            };
            assert_corrupt(restore(&[], &r0), "round-robin pointer");
        }
    }
}

#[cfg(test)]
mod arbitration_tests {
    use super::*;
    use ringmesh_net::{CacheLineSize, Interconnect, PacketKind, TxnId};

    /// Two single-source flows contending for one output column must
    /// share it near-evenly (round-robin arbitration, §2.2).
    #[test]
    fn round_robin_shares_a_contended_output() {
        let cfg = MeshConfig::new(CacheLineSize::B16);
        let mut net = MeshNetwork::new(MeshTopology::new(3), cfg.clone());
        // Sources 0 (0,0) and 6 (2,0) both send to 5 (1,2): their
        // packets meet at router (1,2)'s north/south inputs... they
        // actually meet at column 2 via different rows, so contend at
        // the destination's ejection port instead: both e-cube routes
        // go east along their own rows then turn into column 2.
        let mut txn = 0u64;
        let mut delivered = Vec::new();
        let mut counts = [0u32; 2];
        for _ in 0..3_000 {
            for (i, src) in [0u32, 6].into_iter().enumerate() {
                if net.can_inject(NodeId::new(src), QueueClass::Request) {
                    txn += 1;
                    net.inject(
                        NodeId::new(src),
                        Packet {
                            txn: TxnId::new(txn * 2 + i as u64),
                            kind: PacketKind::WriteReq,
                            src: NodeId::new(src),
                            dst: NodeId::new(5),
                            flits: cfg.format.flits(PacketKind::WriteReq, cfg.cache_line),
                            injected_at: 0,
                        },
                    );
                }
            }
            delivered.clear();
            net.step(&mut delivered).unwrap();
            for (_, p) in &delivered {
                counts[(p.txn.raw() % 2) as usize] += 1;
            }
        }
        let total = counts[0] + counts[1];
        assert!(total > 100, "flows must make progress: {total}");
        let share = f64::from(counts[0]) / f64::from(total);
        assert!((share - 0.5).abs() < 0.1, "unfair split: {counts:?}");
    }

    /// The Interconnect trait stays object-safe (systems hold networks
    /// as `Box<dyn Interconnect>`).
    #[test]
    fn interconnect_is_object_safe() {
        let cfg = MeshConfig::new(CacheLineSize::B32);
        let boxed: Box<dyn Interconnect> = Box::new(MeshNetwork::new(MeshTopology::new(2), cfg));
        assert_eq!(boxed.num_pms(), 4);
        assert_eq!(boxed.cycle(), 0);
    }
}
