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
    Flit, LevelUtil, NetCore, NodeId, Packet, PacketRef, QueueClass, UtilizationReport,
};
use ringmesh_ring::kernel::{Iri, Nic, Send as RingSend, StepPulse, Tick, LOWER};
use ringmesh_snap::{SnapError, SnapReader, SnapWriter, Snapshot, SnapshotState};
use ringmesh_trace::{Counter, Gauge};

use crate::HybridConfig;

/// A flit-level, cycle-accurate hybrid Ring-Mesh network.
///
/// Implements [`ringmesh_net::Interconnect`] (as every
/// [`ringmesh_net::Kernel`] does); drive it with the
/// `ringmesh-workload` crate or directly as in the example below.
///
/// # Example
///
/// ```
/// use ringmesh_net::{CacheLineSize, Interconnect, NodeId, Packet, PacketKind, TxnId};
/// use ringmesh_hybrid::{HybridConfig, HybridNetwork};
///
/// // 2x2 global mesh, 2-PM local rings: 8 PMs.
/// let cfg = HybridConfig::new(CacheLineSize::B32);
/// let mut net = HybridNetwork::new(2, 2, cfg.clone()).unwrap();
/// let kind = PacketKind::ReadReq;
/// net.inject(NodeId::new(0), Packet {
///     txn: TxnId::new(1), kind,
///     src: NodeId::new(0), dst: NodeId::new(7),
///     flits: cfg.format.flits(kind, cfg.cache_line),
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
    /// Global mesh side (`G`).
    side: u32,
    /// PMs per local ring (`L`).
    local: u32,
    cfg: HybridConfig,
    topo: MeshTopology,
    /// The fault domain is the bridges (nodes) and the ring links (as
    /// in the hierarchical ring, `station*2 + side`); corruption marks
    /// are checked once, at the destination NIC's reassembly.
    core: NetCore,
    /// One NIC per PM, in PM order.
    nics: Vec<Nic>,
    /// One bridge per mesh router, in router order. Only the bridge's
    /// `LOWER` side is clocked — its crossbar joins the local ring to
    /// the pump/descent queues instead of a parent ring.
    bridges: Vec<Iri>,
    /// Active-station worklist over all `G²·(L+1)` ring stations
    /// (station `g·(L+1)+s`; `s == L` is the bridge).
    station_active: Vec<bool>,
    /// Registered free-slot count of each station's transit buffer.
    free: Vec<usize>,
    /// Per-cycle ring wire transfers (scratch).
    sends: Vec<RingSend>,
    /// The global mesh's router state, stop/go registers included.
    routers: MeshRouters,
    /// `(row, col)` of the router owning each destination PM: the mesh
    /// routes every PM to its ring's router by plain e-cube and ejects
    /// into the bridge there.
    owners: Vec<(u16, u16)>,
    /// Flits moved per local ring (utilization accounting).
    ring_flits: Vec<u64>,
    /// Flits moved on mesh links.
    mesh_flits: u64,
    /// Free transit flit slots per local ring (the deadlock-avoidance
    /// credits: ring entry requires at least two remaining).
    ring_credits: Vec<i64>,
    reset_cycle: u64,
    /// Packets sunk at dead bridges, pending drop accounting.
    sunk: Vec<PacketRef>,
}

impl HybridNetwork {
    /// Builds a `side × side` global mesh of `local`-PM rings.
    ///
    /// # Errors
    ///
    /// Returns a [`ringmesh_net::ConfigError`] when `side` or `local`
    /// is zero, or when `side² · local` exceeds
    /// [`ringmesh_net::MAX_PMS`].
    pub fn new(
        side: u32,
        local: u32,
        cfg: HybridConfig,
    ) -> Result<Self, ringmesh_net::ConfigError> {
        if local == 0 {
            return Err(ringmesh_net::ConfigError::Invalid(
                "hybrid local ring size must be positive".into(),
            ));
        }
        let topo = MeshTopology::try_new(side)?;
        ringmesh_net::checked_pms([side, side, local])?;
        let g2 = (side * side) as usize;
        let l = local as usize;
        let p = g2 * l;
        let spr = l + 1; // stations per ring
        let buf_flits = cfg.ring_buffer_flits();
        let mut nics = Vec::with_capacity(p);
        let mut bridges = Vec::with_capacity(g2);
        for g in 0..g2 {
            let base = (g * spr) as u32;
            for s in 0..l {
                // Station s feeds station s+1; the bridge (station L)
                // wraps back to station 0.
                let next = base + (s as u32 + 1) % spr as u32;
                nics.push(Nic::new(
                    NodeId::new((g * l + s) as u32),
                    g as u32,
                    (next, 0),
                    buf_flits,
                    cfg.out_queue_packets,
                ));
            }
            // The bridge's subtree is its ring's PM interval, so the
            // stock IRI crossbar classifies exactly the cross-ring
            // packets as "crossing" on its LOWER side. Both ring slots
            // name the local ring; the UPPER side is never clocked.
            bridges.push(Iri::new(
                ((g * l) as u32, ((g + 1) * l) as u32),
                [g as u32, g as u32],
                [(base, 0), (base, 1)],
                buf_flits,
                cfg.bridge_queue_flits(),
                cfg.bridge_down_queue_flits(),
                cfg.convoy_threshold_flits(),
            ));
        }
        let routers = MeshRouters::new(&topo, cfg.mesh_buffer_flits(), cfg.out_queue_packets);
        Ok(HybridNetwork {
            side,
            local,
            core: NetCore::new(cfg.watchdog_horizon),
            cfg,
            topo,
            nics,
            bridges,
            station_active: vec![true; g2 * spr],
            free: vec![buf_flits; g2 * spr],
            sends: Vec::new(),
            routers,
            owners: owner_coords(&topo, local),
            ring_flits: vec![0; g2],
            mesh_flits: 0,
            ring_credits: vec![(spr * buf_flits) as i64; g2],
            reset_cycle: 0,
            sunk: Vec::new(),
        })
    }

    /// Global mesh side length.
    pub fn mesh_side(&self) -> u32 {
        self.side
    }

    /// PMs per local ring.
    pub fn ring_size(&self) -> u32 {
        self.local
    }

    /// The configuration the network was built with.
    pub fn config(&self) -> &HybridConfig {
        &self.cfg
    }

    /// Stations per local ring (`L + 1`: the NICs plus the bridge).
    fn stations_per_ring(&self) -> usize {
        self.local as usize + 1
    }

    /// Global station id of ring `g`'s bridge.
    fn bridge_station(&self, g: usize) -> usize {
        g * self.stations_per_ring() + self.local as usize
    }

    /// Serial tick of every active ring station: the NICs and the
    /// bridges' LOWER crossbar sides, in ascending station order, then
    /// dead-bridge sink retirement and the wire-transfer commit.
    fn ring_tick(
        &mut self,
        now: u64,
        delivered: &mut Vec<(NodeId, Packet)>,
        pulse: &mut StepPulse,
    ) {
        let spr = self.stations_per_ring();
        let l = self.local as usize;
        self.sends.clear();
        let mut t = Tick {
            now,
            credits: &mut self.ring_credits,
            core: &mut self.core,
            sends: &mut self.sends,
            delivered,
            sunk: &mut self.sunk,
            pulse,
        };
        for st in 0..self.station_active.len() {
            if !self.station_active[st] {
                continue;
            }
            let g = st / spr;
            let s = st % spr;
            let dst_st = g * spr + (s + 1) % spr;
            let free_out = self.free[dst_st];
            let faults = t.core.faults();
            let link_up = faults.is_none_or(|f| f.link_up(st as u32 * 2, now));
            let quiescent = if s < l {
                let nic = &mut self.nics[g * l + s];
                nic.step(&mut t, link_up, free_out);
                nic.quiescent()
            } else {
                let dead = faults.is_some_and(|f| f.node_dead(g as u32));
                let bridge = &mut self.bridges[g];
                bridge.step_side(LOWER, &mut t, link_up, dead, free_out);
                bridge.quiescent()
            };
            if quiescent {
                self.station_active[st] = false;
            }
        }
        // Retire packets sunk at dead bridges: their flits were
        // consumed in place, so only the bookkeeping remains.
        for r in self.sunk.drain(..) {
            self.core.drop_packet(r, DropReason::DeadInterface);
        }
        // Commit the ring wire transfers decided this tick.
        for i in 0..self.sends.len() {
            let snd = self.sends[i];
            let (st, _side) = snd.to;
            let st = st as usize;
            let s = st % spr;
            if s < l {
                let g = st / spr;
                self.nics[g * l + s].ring_buf_mut().push(snd.flit, now);
            } else {
                self.bridges[st / spr].buf_mut(LOWER).push(snd.flit, now);
            }
            self.station_active[st] = true;
            self.ring_flits[snd.ring as usize] += 1;
        }
        pulse.moved += self.sends.len() as u64;
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
        for g in 0..self.bridges.len() {
            // Continuation: at most one class can be mid-packet (the
            // pump never switches classes mid-worm), and only the pump
            // pops these queues, so a non-head front identifies it.
            let mut cont = None;
            for class in [QueueClass::Response, QueueClass::Request] {
                if let Some(flit) = self.bridges[g].up_queue(class).front_ready(now) {
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
                        self.bridges[g].up_queue(class).front_ready(now).is_some()
                            && self.routers.can_accept(g, class)
                    })
            });
            if let Some(class) = class {
                let flit = self.bridges[g]
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

impl ringmesh_net::Kernel for HybridNetwork {
    fn core(&self) -> &NetCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut NetCore {
        &mut self.core
    }

    fn num_pms(&self) -> usize {
        self.nics.len()
    }

    fn can_inject(&self, pm: NodeId, class: QueueClass) -> bool {
        self.nics[pm.index()].can_accept(class)
    }

    fn enqueue(&mut self, pm: NodeId, class: QueueClass, packet: PacketRef) {
        self.nics[pm.index()].enqueue(class, packet);
        let spr = self.stations_per_ring();
        let st = (pm.index() / self.local as usize) * spr + pm.index() % self.local as usize;
        self.station_active[st] = true;
    }

    fn advance(&mut self, delivered: &mut Vec<(NodeId, Packet)>) -> u64 {
        let now = self.core.cycle();
        let mut pulse = StepPulse::default();
        // Phase A — the ring tier, serial in station order (NIC steps
        // eject/forward/inject; bridge LOWER crossbars classify and
        // queue crossing worms), then ring send commit.
        self.ring_tick(now, delivered, &mut pulse);
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
        self.routers
            .step(now, &self.owners, self.core.store(), &fc, false);
        pulse.moved += self.routers.moved;
        pulse.blocked += self.routers.blocked;
        self.mesh_flits += self.routers.link_flits;
        // Phase D — mesh commit, in router order: ejections land in
        // the owning bridge's elastic mesh→ring queue (or are dropped
        // at a dead bridge).
        for &op in &self.routers.ops {
            match op {
                CommitOp::Deliver { node, packet } => {
                    let g = node.index();
                    let dead = self.core.faults().is_some_and(|f| f.node_dead(g as u32));
                    if dead {
                        self.core.drop_packet(packet, DropReason::DeadInterface);
                    } else {
                        let (kind, flits) = {
                            let p = self.core.store().get(packet);
                            (p.kind, p.flits)
                        };
                        let class = QueueClass::of(kind);
                        // The whole worm descends at once; pushes at
                        // `now` stay invisible until the next cycle,
                        // and `has_complete_packet` then lets the
                        // bridge start a loss-free ring entry under
                        // the credit rule.
                        for seq in 0..flits {
                            self.bridges[g].down_queue_mut(class).push(
                                Flit {
                                    packet,
                                    seq,
                                    is_tail: seq + 1 == flits,
                                },
                                now,
                            );
                        }
                        let st = self.bridge_station(g);
                        self.station_active[st] = true;
                    }
                }
                CommitOp::Drop { packet, reason } => self.core.drop_packet(packet, reason),
            }
        }
        if self.core.tracing() {
            let occupancy = self.routers.occupancy() as f64;
            let tracer = self.core.tracer();
            tracer.count(Counter::FlitsForwarded, pulse.moved);
            tracer.count(Counter::BlockedCycles, pulse.blocked);
            tracer.count(Counter::IriCrossings, pulse.crossed);
            tracer.gauge(Gauge::MeshInputOccupancy, occupancy);
        }
        // Phase E — latch: the touched mesh routers' input buffers,
        // then the ring buffers.
        self.routers.latch();
        let spr = self.stations_per_ring();
        let l = self.local as usize;
        for st in 0..self.free.len() {
            let g = st / spr;
            let s = st % spr;
            self.free[st] = if s < l {
                self.nics[g * l + s].latch()
            } else {
                self.bridges[g].latch().0
            };
        }
        pulse.moved
    }

    fn utilization(&self) -> UtilizationReport {
        let cycles = self.core.cycle() - self.reset_cycle;
        if cycles == 0 {
            return UtilizationReport::default();
        }
        let ring_busy: u64 = self.ring_flits.iter().sum();
        let ring_cap = self.station_active.len() as u64 * cycles;
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
        self.ring_flits.iter_mut().for_each(|c| *c = 0);
        self.mesh_flits = 0;
        self.reset_cycle = self.core.cycle();
    }

    fn save_kernel(&self, w: &mut SnapWriter) {
        w.usize(self.nics.len());
        for nic in &self.nics {
            nic.save_state(w);
        }
        w.usize(self.bridges.len());
        for bridge in &self.bridges {
            bridge.save_state(w);
        }
        self.routers.save_state(w);
        self.station_active.save(w);
        self.free.save(w);
        w.u64(self.core.cycle());
        self.ring_flits.save(w);
        self.ring_credits.save(w);
        w.u64(self.mesh_flits);
        w.u64(self.reset_cycle);
    }

    fn restore_kernel(&mut self, r: &mut SnapReader<'_>) -> Result<u64, SnapError> {
        r.len_exact(self.nics.len(), "NIC count")?;
        for nic in &mut self.nics {
            nic.restore_state(r)?;
        }
        r.len_exact(self.bridges.len(), "bridge count")?;
        for bridge in &mut self.bridges {
            bridge.restore_state(r)?;
        }
        self.routers.restore_state(r)?;
        self.station_active = r.vec_exact(self.station_active.len(), "station count")?;
        self.free = r.vec_exact(self.free.len(), "free table size")?;
        let cycle = r.u64()?;
        self.ring_flits = r.vec_exact(self.ring_flits.len(), "ring count")?;
        self.ring_credits = r.vec_exact(self.ring_credits.len(), "ring-credit table size")?;
        self.mesh_flits = r.u64()?;
        self.reset_cycle = r.u64()?;
        self.sends.clear();
        self.sunk.clear();
        Ok(cycle)
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
        FaultDomain {
            // Directed ring link out of `station*2 + side`; every
            // station uses side 0 only, so side-1 events are
            // addressable no-ops (as at NICs in the hierarchical
            // ring).
            links: self.station_active.len() as u32 * 2,
            // The bridges fail-stop; mesh routers and NICs do not.
            nodes: self.bridges.len() as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringmesh_faults::{FaultEvent, FaultInjector, FaultKind, FaultSchedule};
    use ringmesh_net::{CacheLineSize, Interconnect, PacketKind, TxnId};

    fn cfg() -> HybridConfig {
        HybridConfig::new(CacheLineSize::B32)
    }

    fn packet(cfg: &HybridConfig, txn: u64, kind: PacketKind, src: u32, dst: u32) -> Packet {
        Packet {
            txn: TxnId::new(txn),
            kind,
            src: NodeId::new(src),
            dst: NodeId::new(dst),
            flits: cfg.format.flits(kind, cfg.cache_line),
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

    #[test]
    fn intra_ring_delivery_never_touches_the_mesh() {
        let c = cfg();
        let mut net = HybridNetwork::new(2, 4, c.clone()).unwrap();
        net.inject(NodeId::new(0), packet(&c, 1, PacketKind::ReadReq, 0, 3));
        let delivered = run_until_delivered(&mut net, 1);
        assert_eq!(delivered[0].0, NodeId::new(3));
        assert_eq!(net.mesh_flits, 0, "intra-ring traffic crossed the mesh");
    }

    #[test]
    fn cross_ring_delivery_uses_the_mesh() {
        let c = cfg();
        let mut net = HybridNetwork::new(3, 2, c.clone()).unwrap();
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
        let mut net = HybridNetwork::new(2, 3, c.clone()).unwrap();
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
        let mut net = HybridNetwork::new(2, 2, c.clone()).unwrap();
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
        let mut net = HybridNetwork::new(2, 2, c.clone()).unwrap();
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
        net.save_state(&mut w).unwrap();
        let bytes = w.into_bytes();
        let mut copy = HybridNetwork::new(2, 2, c.clone()).unwrap();
        let mut r = SnapReader::new(&bytes);
        copy.restore_state(&mut r).unwrap();
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
        net.save_state(&mut w1).unwrap();
        copy.save_state(&mut w2).unwrap();
        assert_eq!(w1.into_bytes(), w2.into_bytes());
    }

    /// A checkpoint is outside input: a table the tick indexes by ring
    /// must come back at this network's size or not at all (a short
    /// `ring_credits` used to restore and panic at the next step).
    #[test]
    fn short_credit_table_is_a_mismatch_not_a_later_panic() {
        let mut net = HybridNetwork::new(2, 2, cfg()).unwrap();
        net.ring_credits.pop();
        let mut w = SnapWriter::new();
        net.save_state(&mut w).unwrap();
        let bytes = w.into_bytes();
        let mut fresh = HybridNetwork::new(2, 2, cfg()).unwrap();
        match fresh.restore_state(&mut SnapReader::new(&bytes)) {
            Err(SnapError::Mismatch(msg)) => assert!(msg.contains("ring-credit table"), "{msg}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn dead_bridge_refuses_new_cross_ring_traffic() {
        let c = cfg();
        let mut net = HybridNetwork::new(2, 2, c.clone()).unwrap();
        let schedule = FaultSchedule::from_events(
            7,
            0.0,
            vec![FaultEvent {
                at: 0,
                kind: FaultKind::NodeDead { node: 0 },
            }],
        );
        let injector = FaultInjector::new(&schedule, net.fault_domain());
        net.set_faults(injector, true);
        net.step(&mut Vec::new()).unwrap();
        // Cross-ring from the dead bridge's ring: refused at injection.
        net.inject(NodeId::new(0), packet(&c, 1, PacketKind::ReadReq, 0, 7));
        assert_eq!(net.in_flight(), 0);
        // A refusal books as injected-and-dropped atomically.
        assert_eq!(net.conservation_counts().unwrap(), (1, 0, 1));
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
        let mut net = HybridNetwork::new(2, 2, c.clone()).unwrap();
        net.inject(NodeId::new(0), packet(&c, 1, PacketKind::ReadReq, 0, 6));
        run_until_delivered(&mut net, 1);
        let report = net.utilization();
        assert_eq!(report.levels.len(), 2);
        assert!(report.levels[0].utilization > 0.0, "ring tier idle");
        assert!(report.levels[1].utilization > 0.0, "mesh tier idle");
    }
}
