//! The hybrid Ring-Mesh network simulator.
//!
//! Topology: a `G×G` global wormhole mesh whose routers each own one
//! uni-directional local ring of `L` processing modules. PM `p` sits
//! on ring `p / L` at local position `p % L`. Every local ring has
//! `L + 1` stations: `L` NICs (the same station state machine as the
//! hierarchical ring's) plus one *bridge*, an inter-ring interface
//! whose "upper ring" has been replaced by a port into the mesh
//! router it rides on.
//!
//! A cross-ring packet travels NIC → local ring → bridge (classified
//! as *crossing*, one flit per cycle into the bridge's finite
//! ring→mesh queue) → bridge pump (one flit per cycle into the mesh
//! router's injection queue, store-and-forward) → e-cube mesh →
//! destination router's ejection assembler → destination bridge's
//! elastic mesh→ring queue → local ring entry under the credit rule →
//! destination NIC.

use ringmesh_faults::{DropReason, FaultDomain};
use ringmesh_mesh::kernel::{owner_coords, CommitOp, FaultCtx, MeshRouters};
use ringmesh_mesh::MeshTopology;
use ringmesh_net::{
    CacheLineSize, ConfigError, Flit, LevelUtil, NetCore, NodeId, Packet, PacketRef, QueueClass,
    UtilizationReport,
};
use ringmesh_ring::kernel::{RingTier, StationMap, StepPulse};
use ringmesh_ring::topology::SideRef;
use ringmesh_ring::{RingConfig, StationKind, OUT_QUEUE_PACKETS};
use ringmesh_snap::{Codec, Snap, SnapError};
use ringmesh_trace::{Counter, Gauge, Work};

/// Mesh router input buffer depth, in cache-line worms: one, the
/// cache-line regime of the plain mesh under the ring's wider channel.
/// Both tiers use [`ringmesh_net::PacketFormat::RING`], so a packet has
/// the same flit count on a local ring and on the global mesh and the
/// bridge never re-segments worms.
const MESH_BUFFER_PACKETS: usize = 1;

/// Bridge ring→mesh queue depth per class, in cache-line worms: two,
/// as an IRI's up queue. Its mesh→ring queue is elastic, as an IRI's
/// down queue is, so a worm never stalls in the mesh on ring entry.
const BRIDGE_QUEUE_PACKETS: usize = 2;

/// The local rings as a station map: `rings` rings of `local + 1`
/// stations. Station `g·(L+1) + s` is PM `g·L + s`'s NIC for `s < L`
/// and ring `g`'s bridge for `s = L`: an IRI whose subtree is the
/// ring's PMs, so the stock crossbar classifies exactly the cross-ring
/// packets as crossing, and whose lower side alone is on a ring.
struct LocalRings {
    rings: u32,
    local: u32,
}

impl StationMap for LocalRings {
    fn num_stations(&self) -> usize {
        (self.rings * (self.local + 1)) as usize
    }

    fn num_rings(&self) -> usize {
        self.rings as usize
    }

    fn station(&self, st: u32) -> StationKind {
        let (g, s) = (st / (self.local + 1), st % (self.local + 1));
        if s < self.local {
            StationKind::Nic {
                pm: NodeId::new(g * self.local + s),
            }
        } else {
            StationKind::Iri {
                subtree: (g * self.local, (g + 1) * self.local),
            }
        }
    }

    fn link(&self, st: u32, side: u8) -> Option<(u32, SideRef)> {
        // Station s feeds station s+1; the bridge wraps back to 0.
        let spr = self.local + 1;
        let (g, s) = (st / spr, st % spr);
        (side == 0).then_some((g, (g * spr + (s + 1) % spr, 0)))
    }
}

/// A flit-level, cycle-accurate hybrid Ring-Mesh network.
///
/// Implements [`ringmesh_net::Interconnect`]; drive it with the
/// `ringmesh-workload` crate or directly as in the example below.
///
/// # Example
///
/// ```
/// use ringmesh_net::{CacheLineSize, Interconnect, NodeId, Packet, PacketFormat, PacketKind, TxnId};
/// use ringmesh_hybrid::HybridNetwork;
///
/// // 2x2 global mesh, 2-PM local rings: 8 PMs.
/// let cl = CacheLineSize::B32;
/// let mut net = HybridNetwork::new(2, 2, cl).unwrap();
/// let kind = PacketKind::ReadReq;
/// net.inject(NodeId::new(0), Packet {
///     txn: TxnId::new(1), kind,
///     src: NodeId::new(0), dst: NodeId::new(7),
///     flits: PacketFormat::RING.flits(kind, cl),
///     injected_at: 0,
/// });
/// let mut delivered = Vec::new();
/// while delivered.is_empty() {
///     net.step(&mut delivered).unwrap();
/// }
/// assert_eq!(delivered[0].0, NodeId::new(7));
/// ```
#[derive(Debug)]
pub struct HybridNetwork {
    /// PMs per local ring (`L`).
    local: u32,
    topo: MeshTopology,
    /// The fault domain is the bridges (nodes) and the ring links (as
    /// in the hierarchical ring, `station*2 + side`); corruption marks
    /// are checked once, at the destination NIC's reassembly.
    core: NetCore,
    /// The local rings: `G²·(L+1)` stations, one bridge per ring.
    tier: RingTier,
    /// The global mesh's router state, stop/go registers included.
    routers: MeshRouters,
    /// `(row, col)` of the router owning each destination PM: the mesh
    /// routes every PM to its ring's router by plain e-cube and ejects
    /// into the bridge there.
    owners: Vec<(u16, u16)>,
    /// Flits moved on mesh links.
    mesh_flits: u64,
}

impl HybridNetwork {
    /// Builds a `side × side` global mesh of `local`-PM rings for
    /// `cache_line`. The rings are sized as the hierarchical ring's
    /// ([`RingConfig::new`]) with `BRIDGE_QUEUE_PACKETS` (2) deep bridge
    /// up queues; each mesh router input holds `MESH_BUFFER_PACKETS` (1)
    /// cache-line worm.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when `side` or `local` is zero, or
    /// when `side² · local` exceeds [`ringmesh_net::MAX_PMS`].
    pub fn new(side: u32, local: u32, cache_line: CacheLineSize) -> Result<Self, ConfigError> {
        if local == 0 {
            return Err(ConfigError::Invalid(
                "hybrid local ring size must be positive".into(),
            ));
        }
        let topo = MeshTopology::try_new(side)?;
        ringmesh_net::checked_pms([side, side, local])?;
        let cfg = RingConfig {
            iri_queue_packets: Some(BRIDGE_QUEUE_PACKETS),
            ..RingConfig::new(cache_line)
        };
        let rings = LocalRings {
            rings: side * side,
            local,
        };
        let packet_flits = cfg.format.cl_packet_flits(cache_line);
        let mesh_buffer_flits = MESH_BUFFER_PACKETS * packet_flits as usize;
        Ok(HybridNetwork {
            local,
            core: NetCore::new(cfg.watchdog_horizon),
            tier: RingTier::new(&rings, &cfg),
            routers: MeshRouters::new(&topo, mesh_buffer_flits, packet_flits, OUT_QUEUE_PACKETS),
            owners: owner_coords(&topo, local),
            topo,
            mesh_flits: 0,
        })
    }

    /// Serial bridge pumps: each bridge moves at most one flit per
    /// cycle from its ring→mesh crossing queues into its mesh
    /// router's injection queue (store-and-forward: the packet is
    /// handed to the router at its tail flit). A packet mid-pump
    /// continues unconditionally — the router-side queue slot was
    /// checked at its head and only this pump fills it; a new packet
    /// starts (responses first) only when the router can accept it.
    /// The pump keeps draining a dead bridge's already-queued traffic
    /// (lazy fail-stop, as at dead IRIs).
    fn pump_bridges(&mut self, now: u64) -> u64 {
        let mut pumped = 0u64;
        for g in 0..self.topo.num_pms() as usize {
            let bridge = self.tier.iri(g);
            // Continuation: at most one class can be mid-packet (the
            // pump never switches classes mid-worm), and only the pump
            // pops these queues, so a non-head front identifies it.
            let mut cont = None;
            for class in [QueueClass::Response, QueueClass::Request] {
                if let Some(flit) = bridge.up_queue(class).front_ready(now) {
                    if !flit.is_head() {
                        cont = Some(class);
                        break;
                    }
                }
            }
            let class = cont.or_else(|| {
                [QueueClass::Response, QueueClass::Request]
                    .into_iter()
                    .find(|&class| {
                        bridge.up_queue(class).front_ready(now).is_some()
                            && self.routers.can_accept(g, class)
                    })
            });
            if let Some(class) = class {
                let flit = self
                    .tier
                    .iri_mut(g)
                    .up_queue_mut(class)
                    .pop_ready(now)
                    .expect("front was ready");
                if flit.is_tail {
                    self.routers.enqueue(g, class, flit.packet);
                }
                pumped += 1;
            }
        }
        pumped
    }
}

impl ringmesh_net::Interconnect for HybridNetwork {
    fn core(&self) -> &NetCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut NetCore {
        &mut self.core
    }

    fn num_pms(&self) -> usize {
        self.owners.len()
    }

    fn can_inject(&self, pm: NodeId, class: QueueClass) -> bool {
        self.tier.can_inject(pm, class)
    }

    fn enqueue(&mut self, pm: NodeId, class: QueueClass, packet: PacketRef) {
        let st = pm.raw() + pm.raw() / self.local;
        self.tier.enqueue(pm, st, class, packet);
    }

    fn advance(&mut self, delivered: &mut Vec<(NodeId, Packet)>) -> u64 {
        let now = self.core.cycle();
        let mut pulse = StepPulse::default();
        // Phase A — the ring tier (NIC steps eject/forward/inject;
        // bridge LOWER crossbars classify and queue crossing worms),
        // then its send commit.
        self.tier.tick(&mut self.core, delivered, &mut pulse);
        // Phase B — bridge pumps, ring→mesh.
        pulse.moved += self.pump_bridges(now);
        // Phase C — the mesh routers. They read only registered
        // previous-cycle state; packets the pumps just queued wait at
        // the PM boundary, and flits pushed at `now` stay invisible
        // until the next cycle.
        let fc = FaultCtx {
            inj: None,
            corrupt: &[],
            now,
        };
        // The routers' room is the bridges' (their PM-side queues hold
        // bridge traffic), so it is not the PMs' to report.
        let traced = self.core.tracing();
        let work = self
            .routers
            .step(&self.owners, self.core.store(), &fc, traced);
        pulse.moved += self.routers.moved;
        pulse.blocked += self.routers.blocked;
        self.mesh_flits += self.routers.link_flits;
        // Phase D — mesh commit, in router order: ejections land in
        // the owning bridge's elastic mesh→ring queue (or are dropped
        // at a dead bridge).
        for &op in &self.routers.ops {
            match op {
                CommitOp::Deliver { node, packet } => {
                    let g = node.raw();
                    if self.core.faults().is_some_and(|f| f.node_dead(g)) {
                        self.core.drop_packet(packet, DropReason::DeadInterface);
                        continue;
                    }
                    let p = self.core.store().get(packet);
                    let (class, flits) = (QueueClass::of(p.kind), p.flits);
                    // The whole worm descends at once; pushes at `now`
                    // stay invisible until the next cycle, and
                    // `has_complete_packet` then lets the bridge start a
                    // loss-free ring entry under the credit rule.
                    pulse.pushed += u64::from(flits);
                    let down = self.tier.iri_mut(g as usize).down_queue_mut(class);
                    for seq in 0..flits {
                        let is_tail = seq + 1 == flits;
                        down.push(
                            Flit {
                                packet,
                                seq,
                                is_tail,
                            },
                            now,
                        );
                    }
                    self.tier.wake(g * (self.local + 1) + self.local);
                }
                CommitOp::Drop { packet, reason } => self.core.drop_packet(packet, reason),
            }
        }
        // Phase E — latch: the ring tier (the mesh registers its
        // stop/go in the walk order of its step).
        self.tier.latch(&mut pulse);
        if self.core.tracing() {
            let occupancy = self.routers.occupancy() as f64;
            let tracer = self.core.tracer();
            tracer.count(Counter::FlitsForwarded, pulse.moved);
            tracer.count(Counter::BlockedCycles, pulse.blocked);
            tracer.count(Counter::IriCrossings, pulse.crossed);
            tracer.gauge(Gauge::MeshInputOccupancy, occupancy);
            tracer.work(Work::BridgePumps, self.topo.num_pms() as u64);
            pulse.report_work(tracer);
            self.routers.report_work(work, tracer);
        }
        pulse.moved
    }

    fn utilization(&self) -> UtilizationReport {
        let cycles = self.tier.cycles_since_reset();
        if cycles == 0 {
            return UtilizationReport::default();
        }
        let ring_busy: u64 = self.tier.ring_flits().iter().sum();
        let ring_cap = self.tier.num_stations() as u64 * cycles;
        let mesh_cap = self.topo.num_links() as u64 * cycles;
        let overall = (ring_busy + self.mesh_flits) as f64 / (ring_cap + mesh_cap).max(1) as f64;
        UtilizationReport {
            overall,
            levels: vec![
                LevelUtil {
                    label: "local rings".to_string(),
                    utilization: ring_busy as f64 / ring_cap.max(1) as f64,
                },
                LevelUtil {
                    label: "global mesh".to_string(),
                    utilization: self.mesh_flits as f64 / mesh_cap.max(1) as f64,
                },
            ],
        }
    }

    fn reset_counters(&mut self) {
        self.tier.reset_counters();
        self.mesh_flits = 0;
    }

    /// Whether a live route exists from `src` to `dst`. Intra-ring
    /// traffic never touches a bridge's crossing queues; cross-ring
    /// traffic must cross both endpoint bridges, and a dead bridge —
    /// like a dead IRI in the hierarchical ring — accepts no *new*
    /// crossing traffic while already-queued worms keep draining
    /// (lazy fail-stop).
    fn reachable(&self, src: NodeId, dst: NodeId) -> bool {
        let Some(f) = self.core.faults() else {
            return true;
        };
        if !f.any_nodes_dead() {
            return true;
        }
        let gs = src.raw() / self.local;
        let gd = dst.raw() / self.local;
        gs == gd || (!f.node_dead(gs) && !f.node_dead(gd))
    }

    fn fault_domain(&self) -> FaultDomain {
        // Ring links `station*2 + side` (every station's side 1 is an
        // addressable no-op) and the bridges, which fail-stop; mesh
        // routers and NICs do not.
        self.tier.fault_domain()
    }
}

/// The local rings, the mesh routers, the mesh flit count; the clock
/// is the rings' tick count. A bridge pump queues a packet at the mesh
/// router only at its tail, so what it pumped so far is nowhere: the
/// census learns that it consumed the flits ahead of the packet at the
/// front of each up queue and of the packet the bridge is moving into
/// them.
impl Snap for HybridNetwork {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        self.tier.snap(c)?;
        c.report(|census| {
            for g in 0..self.topo.num_pms() as usize {
                let bridge = self.tier.iri(g);
                let fronts = [QueueClass::Response, QueueClass::Request]
                    .map(|class| bridge.up_queue(class).iter().next().map(|f| f.packet));
                let pumped = fronts.into_iter().flatten().chain(bridge.crossing_up());
                census.consumed.extend(pumped.map(|r| r.slot() as u32));
            }
        });
        self.routers.snap(c, self.local)?;
        self.mesh_flits.snap(c)?;
        *self.core.clock_mut() = self.tier.cycle();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringmesh_faults::{FaultEvent, FaultInjector, FaultKind, FaultSchedule};
    use ringmesh_net::{snap_network, Interconnect, PacketFormat, PacketKind, TxnId};
    use ringmesh_snap::{SnapReader, SnapWriter};

    fn cfg() -> CacheLineSize {
        CacheLineSize::B32
    }

    fn packet(cl: &CacheLineSize, txn: u64, kind: PacketKind, src: u32, dst: u32) -> Packet {
        Packet {
            txn: TxnId::new(txn),
            kind,
            src: NodeId::new(src),
            dst: NodeId::new(dst),
            flits: PacketFormat::RING.flits(kind, *cl),
            injected_at: 0,
        }
    }

    fn run_until_delivered(net: &mut HybridNetwork, want: usize) -> Vec<(NodeId, Packet)> {
        let mut delivered = Vec::new();
        for _ in 0..50_000 {
            net.step(&mut delivered).unwrap();
            if delivered.len() >= want {
                return delivered;
            }
        }
        panic!("no delivery after 50k cycles");
    }

    /// The room contract: a local ring's NIC names its PM when it takes
    /// the packet, and the bridge's mesh queues, which hold bridge
    /// traffic, name nobody on the way.
    #[test]
    fn a_local_nic_pop_reports_room_and_the_bridge_does_not() {
        let c = cfg();
        let mut net = HybridNetwork::new(2, 2, c).unwrap();
        net.inject(NodeId::new(1), packet(&c, 1, PacketKind::ReadResp, 1, 6));
        let mut delivered = Vec::new();
        net.step(&mut delivered).unwrap();
        assert_eq!(net.room(), [NodeId::new(1)]);
        while delivered.is_empty() {
            net.step(&mut delivered).unwrap();
            assert!(net.room().is_empty(), "cycle {}", net.cycle());
        }
        assert!(net.mesh_flits > 0, "the packet crossed the mesh");
    }

    #[test]
    fn intra_ring_delivery_never_touches_the_mesh() {
        let c = cfg();
        let mut net = HybridNetwork::new(2, 4, c).unwrap();
        net.inject(NodeId::new(0), packet(&c, 1, PacketKind::ReadReq, 0, 3));
        let delivered = run_until_delivered(&mut net, 1);
        assert_eq!(delivered[0].0, NodeId::new(3));
        assert_eq!(net.mesh_flits, 0, "intra-ring traffic crossed the mesh");
    }

    #[test]
    fn cross_ring_delivery_uses_the_mesh() {
        let c = cfg();
        let mut net = HybridNetwork::new(3, 2, c).unwrap();
        // PM 1 (ring 0) to PM 17 (ring 8): corner-to-corner.
        net.inject(NodeId::new(1), packet(&c, 1, PacketKind::WriteReq, 1, 17));
        let delivered = run_until_delivered(&mut net, 1);
        assert_eq!(delivered[0].0, NodeId::new(17));
        assert!(net.mesh_flits > 0, "cross-ring traffic avoided the mesh");
        assert!(net.verify_conservation().is_ok());
    }

    #[test]
    fn responses_flow_back_across_rings() {
        let c = cfg();
        let mut net = HybridNetwork::new(2, 3, c).unwrap();
        net.inject(NodeId::new(2), packet(&c, 1, PacketKind::ReadReq, 2, 10));
        let delivered = run_until_delivered(&mut net, 1);
        assert_eq!(delivered[0].0, NodeId::new(10));
        // And the response makes it home.
        net.inject(NodeId::new(10), packet(&c, 1, PacketKind::ReadResp, 10, 2));
        let delivered = run_until_delivered(&mut net, 1);
        assert_eq!(delivered[0].0, NodeId::new(2));
    }

    #[test]
    fn every_pair_is_reachable() {
        let c = cfg();
        let mut net = HybridNetwork::new(2, 2, c).unwrap();
        let mut txn = 0u64;
        for src in 0..8u32 {
            for dst in 0..8u32 {
                if src == dst {
                    continue;
                }
                txn += 1;
                while !net.can_inject(NodeId::new(src), QueueClass::Request) {
                    net.step(&mut Vec::new()).unwrap();
                }
                net.inject(
                    NodeId::new(src),
                    packet(&c, txn, PacketKind::ReadReq, src, dst),
                );
                let mut delivered = Vec::new();
                for _ in 0..50_000 {
                    net.step(&mut delivered).unwrap();
                    if !delivered.is_empty() {
                        break;
                    }
                }
                assert_eq!(delivered.len(), 1, "{src}->{dst}");
                assert_eq!(delivered[0].0, NodeId::new(dst), "{src}->{dst}");
            }
        }
        assert!(net.verify_conservation().is_ok());
    }

    #[test]
    fn snapshot_round_trips_mid_flight() {
        let c = cfg();
        let mut net = HybridNetwork::new(2, 2, c).unwrap();
        let mut delivered = Vec::new();
        for t in 0..6u64 {
            let src = (t % 8) as u32;
            let dst = (src + 5) % 8;
            if net.can_inject(NodeId::new(src), QueueClass::Request) {
                net.inject(
                    NodeId::new(src),
                    packet(&c, t, PacketKind::ReadReq, src, dst),
                );
            }
            net.step(&mut delivered).unwrap();
        }
        let mut w = SnapWriter::new();
        snap_network(&mut net, &mut w).unwrap();
        let bytes = w.into_bytes();
        let mut copy = HybridNetwork::new(2, 2, c).unwrap();
        let mut r = SnapReader::new(&bytes);
        snap_network(&mut copy, &mut r).unwrap();
        // Both must now evolve identically.
        let mut d1 = Vec::new();
        let mut d2 = Vec::new();
        for _ in 0..2_000 {
            net.step(&mut d1).unwrap();
            copy.step(&mut d2).unwrap();
        }
        let key = |v: &Vec<(NodeId, Packet)>| {
            v.iter()
                .map(|(pm, p)| (pm.raw(), p.txn.raw()))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&d1), key(&d2));
        let mut w1 = SnapWriter::new();
        let mut w2 = SnapWriter::new();
        snap_network(&mut net, &mut w1).unwrap();
        snap_network(&mut copy, &mut w2).unwrap();
        assert_eq!(w1.into_bytes(), w2.into_bytes());
    }

    /// A checkpoint is outside input: a table the tick indexes by ring
    /// must come back at this network's size or not at all (a short
    /// `ring_credits` used to restore and panic at the next step).
    #[test]
    fn short_credit_table_is_a_mismatch_not_a_later_panic() {
        let mut net = HybridNetwork::new(2, 2, cfg()).unwrap();
        let mut w = SnapWriter::new();
        snap_network(&mut net, &mut w).unwrap();
        // A fresh 2x2:2 has four rings of three stations, each with the
        // credits of three empty transit buffers; cut that table to
        // three rings.
        let credits = 3 * RingConfig::new(cfg()).ring_buffer_flits() as i64;
        let table = |rings: usize| {
            let mut w = SnapWriter::new();
            vec![credits; rings].snap(&mut w).unwrap();
            w.into_bytes()
        };
        let (full, short) = (table(4), table(3));
        let mut bytes = w.into_bytes();
        let at = bytes
            .windows(full.len())
            .position(|b| b == full)
            .expect("the credit table is in the checkpoint");
        bytes.splice(at..at + full.len(), short);
        let mut fresh = HybridNetwork::new(2, 2, cfg()).unwrap();
        match snap_network(&mut fresh, &mut SnapReader::new(&bytes)) {
            Err(SnapError::Mismatch(msg)) => assert!(msg.contains("ring-credit table"), "{msg}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn dead_bridge_refuses_new_cross_ring_traffic() {
        let c = cfg();
        let mut net = HybridNetwork::new(2, 2, c).unwrap();
        let schedule = FaultSchedule::from_events(
            7,
            0.0,
            vec![FaultEvent {
                at: 0,
                kind: FaultKind::NodeDead { node: 0 },
            }],
        );
        let injector = FaultInjector::new(&schedule, net.fault_domain());
        net.set_faults(injector);
        net.step(&mut Vec::new()).unwrap();
        // Cross-ring from the dead bridge's ring: refused at injection.
        net.inject(NodeId::new(0), packet(&c, 1, PacketKind::ReadReq, 0, 7));
        assert_eq!(net.in_flight(), 0);
        // A refusal books as injected-and-dropped atomically.
        assert_eq!(net.conservation_counts(), (1, 0, 1));
        // Intra-ring traffic on the same ring still flows.
        net.inject(NodeId::new(0), packet(&c, 2, PacketKind::ReadReq, 0, 1));
        let delivered = run_until_delivered(&mut net, 1);
        assert_eq!(delivered[0].0, NodeId::new(1));
        // Cross-ring between two live rings still flows.
        net.inject(NodeId::new(2), packet(&c, 3, PacketKind::ReadReq, 2, 5));
        let delivered = run_until_delivered(&mut net, 1);
        assert_eq!(delivered[0].0, NodeId::new(5));
        assert!(net.verify_conservation().is_ok());
    }

    /// The mesh tier routes on the owner table alone: every PM must
    /// map to the coordinates of the router its ring hangs off.
    #[test]
    fn every_pm_routes_to_its_ring_router() {
        let net = HybridNetwork::new(3, 4, cfg()).unwrap();
        assert_eq!(net.owners.len(), net.num_pms());
        for pm in 0..36u32 {
            let (row, col) = net.topo.coords(NodeId::new(pm / 4));
            let owner = net.owners[pm as usize];
            assert_eq!(
                (u32::from(owner.0), u32::from(owner.1)),
                (row, col),
                "PM {pm}"
            );
        }
    }

    #[test]
    fn oversized_shapes_draw_typed_errors() {
        for (side, local) in [(70_000, 4), (65_536, 1), (16, 257)] {
            assert!(
                HybridNetwork::new(side, local, cfg()).is_err(),
                "{side}x{side}:{local}"
            );
        }
    }

    #[test]
    fn utilization_reports_both_tiers() {
        let c = cfg();
        let mut net = HybridNetwork::new(2, 2, c).unwrap();
        net.inject(NodeId::new(0), packet(&c, 1, PacketKind::ReadReq, 0, 6));
        run_until_delivered(&mut net, 1);
        let report = net.utilization();
        assert_eq!(report.levels.len(), 2);
        assert!(report.levels[0].utilization > 0.0, "ring tier idle");
        assert!(report.levels[1].utilization > 0.0, "mesh tier idle");
    }
}
