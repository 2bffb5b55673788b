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

use ringmesh_engine::{StallError, Watchdog};
use ringmesh_faults::{
    ConservationError, ConservationLedger, DropReason, FaultDomain, FaultInjector,
};
use ringmesh_mesh::kernel::{owner_coords, CommitOp, FaultCtx, MeshRouters};
use ringmesh_mesh::MeshTopology;
use ringmesh_net::{
    Flit, Interconnect, LevelUtil, NodeId, Packet, PacketRef, PacketStore, QueueClass,
    UtilizationReport,
};
use ringmesh_ring::kernel::{Iri, Nic, Send as RingSend, StepPulse, LOWER};
use ringmesh_snap::{SnapError, SnapReader, SnapWriter, Snapshot, SnapshotState};
use ringmesh_trace::{Counter, EventKind, Gauge, Probe, TraceLoc, Tracer};

use crate::HybridConfig;

/// A flit-level, cycle-accurate hybrid Ring-Mesh network.
///
/// Implements [`Interconnect`]; drive it with the `ringmesh-workload`
/// crate or directly as in the example below.
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
    store: PacketStore,
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
    cycle: u64,
    /// Flits moved per local ring (utilization accounting).
    ring_flits: Vec<u64>,
    /// Flits moved on mesh links.
    mesh_flits: u64,
    /// Free transit flit slots per local ring (the deadlock-avoidance
    /// credits: ring entry requires at least two remaining).
    ring_credits: Vec<i64>,
    reset_cycle: u64,
    watchdog: Watchdog,
    /// Observability sink; disabled (free) unless installed via
    /// [`Interconnect::set_tracer`].
    tracer: Tracer,
    /// Fault source; absent in fault-free runs. The hybrid's fault
    /// domain is the bridges (nodes) and the ring links (as in the
    /// hierarchical ring, `station*2 + side`).
    faults: Option<FaultInjector>,
    ledger: ConservationLedger,
    /// Corruption marks by packet-store slot, rolled at injection and
    /// checked once, at the destination NIC's reassembly.
    corrupt: Vec<bool>,
    dropped: Vec<(Packet, DropReason)>,
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
        let horizon = cfg.watchdog_horizon;
        Ok(HybridNetwork {
            side,
            local,
            cfg,
            topo,
            store: PacketStore::new(),
            nics,
            bridges,
            station_active: vec![true; g2 * spr],
            free: vec![buf_flits; g2 * spr],
            sends: Vec::new(),
            routers,
            owners: owner_coords(&topo, local),
            cycle: 0,
            ring_flits: vec![0; g2],
            mesh_flits: 0,
            ring_credits: vec![(spr * buf_flits) as i64; g2],
            reset_cycle: 0,
            watchdog: Watchdog::new(horizon),
            tracer: Tracer::off(),
            faults: None,
            ledger: ConservationLedger::new(cfg!(debug_assertions)),
            corrupt: Vec::new(),
            dropped: Vec::new(),
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

    /// Whether a live route exists from `src` to `dst`. Intra-ring
    /// traffic never touches a bridge's crossing queues; cross-ring
    /// traffic must cross both endpoint bridges, and a dead bridge —
    /// like a dead IRI in the hierarchical ring — accepts no *new*
    /// crossing traffic while already-queued worms keep draining
    /// (lazy fail-stop).
    fn path_alive(&self, src: NodeId, dst: NodeId) -> bool {
        let Some(f) = self.faults.as_ref() else {
            return true;
        };
        if !f.any_nodes_dead() {
            return true;
        }
        let gs = src.raw() / self.local;
        let gd = dst.raw() / self.local;
        gs == gd || (!f.node_dead(gs) && !f.node_dead(gd))
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
        for st in 0..self.station_active.len() {
            if !self.station_active[st] {
                continue;
            }
            let g = st / spr;
            let s = st % spr;
            let dst_st = g * spr + (s + 1) % spr;
            let free_out = self.free[dst_st];
            let link_up = self
                .faults
                .as_ref()
                .is_none_or(|f| f.link_up(st as u32 * 2, now));
            if s < l {
                let nic = g * l + s;
                self.nics[nic].step(
                    now,
                    link_up,
                    free_out,
                    &mut self.ring_credits,
                    &self.corrupt,
                    &mut self.ledger,
                    &mut self.store,
                    &mut self.sends,
                    delivered,
                    &mut self.dropped,
                    pulse,
                );
                if self.nics[nic].quiescent() {
                    self.station_active[st] = false;
                }
            } else {
                let dead = self.faults.as_ref().is_some_and(|f| f.node_dead(g as u32));
                self.bridges[g].step_side(
                    LOWER,
                    now,
                    link_up,
                    dead,
                    free_out,
                    &mut self.ring_credits,
                    &self.store,
                    &mut self.sends,
                    &mut self.sunk,
                    pulse,
                );
                if self.bridges[g].quiescent() {
                    self.station_active[st] = false;
                }
            }
        }
        // Retire packets sunk at dead bridges: their flits were
        // consumed in place, so only the bookkeeping remains.
        if !self.sunk.is_empty() {
            for i in 0..self.sunk.len() {
                let r = self.sunk[i];
                let slot = r.slot();
                let pkt = self.store.remove(r);
                self.ledger.complete(slot, true);
                self.dropped.push((pkt, DropReason::DeadInterface));
            }
            self.sunk.clear();
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

    /// Tracing for one stepped cycle (only called while enabled).
    fn trace_cycle(&mut self, now: u64, pulse: &StepPulse, newly: &[(NodeId, Packet)]) {
        self.tracer.count(Counter::FlitsForwarded, pulse.moved);
        self.tracer.count(Counter::BlockedCycles, pulse.blocked);
        self.tracer.count(Counter::IriCrossings, pulse.crossed);
        if !newly.is_empty() {
            self.tracer
                .count(Counter::PacketsDelivered, newly.len() as u64);
            for (pm, pkt) in newly {
                self.tracer.event(
                    pkt.txn.raw(),
                    now,
                    TraceLoc::Pm {
                        pm: pm.index() as u32,
                    },
                    EventKind::Eject,
                );
            }
        }
        // Split-borrow dance: probe reads &self while writing the
        // tracer, so temporarily take the tracer out.
        let mut t = std::mem::take(&mut self.tracer);
        self.probe(&mut t);
        self.tracer = t;
    }
}

impl Probe for HybridNetwork {
    /// Publishes occupancy gauges: flits in mesh input buffers and
    /// live packets.
    fn probe(&self, t: &mut Tracer) {
        t.gauge(Gauge::MeshInputOccupancy, self.routers.occupancy() as f64);
        t.gauge(Gauge::InFlightPackets, self.store.live() as f64);
    }
}

impl Interconnect for HybridNetwork {
    fn num_pms(&self) -> usize {
        self.nics.len()
    }

    fn cycle(&self) -> u64 {
        self.cycle
    }

    fn can_inject(&self, pm: NodeId, class: QueueClass) -> bool {
        self.nics[pm.index()].can_accept(class)
    }

    fn inject(&mut self, pm: NodeId, packet: Packet) {
        assert_eq!(packet.src, pm, "packet injected at the wrong PM");
        assert_ne!(packet.src, packet.dst, "local accesses bypass the network");
        assert!(
            packet.dst.index() < self.num_pms(),
            "destination {} out of range",
            packet.dst
        );
        let class = QueueClass::of(packet.kind);
        if !self.path_alive(pm, packet.dst) {
            // Fail fast at injection when a dead bridge cuts the only
            // route: the packet could never be delivered.
            if let Some(f) = &mut self.faults {
                f.record_drop(DropReason::Unreachable);
            }
            self.ledger.refuse();
            if self.tracer.is_enabled() {
                self.tracer.count(Counter::PacketsDropped, 1);
            }
            return;
        }
        if self.tracer.is_enabled() {
            self.tracer.count(Counter::PacketsInjected, 1);
            self.tracer.event(
                packet.txn.raw(),
                self.cycle,
                TraceLoc::Pm {
                    pm: pm.index() as u32,
                },
                EventKind::Inject {
                    src: packet.src.index() as u32,
                    dst: packet.dst.index() as u32,
                    flits: packet.flits,
                },
            );
        }
        let r = self.store.insert(packet);
        self.ledger.inject(r.slot());
        if let Some(f) = &mut self.faults {
            // Roll the corruption coin now; slots are reused, so the
            // mark must be (re)written on every insert.
            let bad = f.roll_corrupt();
            if self.corrupt.len() <= r.slot() {
                self.corrupt.resize(r.slot() + 1, false);
            }
            self.corrupt[r.slot()] = bad;
        }
        self.nics[pm.index()].enqueue(class, r);
        let spr = self.stations_per_ring();
        let st = (pm.index() / self.local as usize) * spr + pm.index() % self.local as usize;
        self.station_active[st] = true;
    }

    fn step(&mut self, delivered: &mut Vec<(NodeId, Packet)>) -> Result<(), StallError> {
        let now = self.cycle;
        let enabled = self.tracer.is_enabled();
        let mark = delivered.len();
        if enabled {
            self.tracer.cycle(now);
        }
        if let Some(f) = &mut self.faults {
            f.advance(now);
        }
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
            .step(now, &self.owners, &self.store, &fc, false);
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
                    let dead = self.faults.as_ref().is_some_and(|f| f.node_dead(g as u32));
                    if dead {
                        let slot = packet.slot();
                        let pkt = self.store.remove(packet);
                        self.ledger.complete(slot, true);
                        self.dropped.push((pkt, DropReason::DeadInterface));
                    } else {
                        let (kind, flits) = {
                            let p = self.store.get(packet);
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
                CommitOp::Drop { packet, reason } => {
                    let slot = packet.slot();
                    let pkt = self.store.remove(packet);
                    self.ledger.complete(slot, true);
                    self.dropped.push((pkt, reason));
                }
            }
        }
        if !self.dropped.is_empty() {
            if enabled {
                self.tracer
                    .count(Counter::PacketsDropped, self.dropped.len() as u64);
            }
            if let Some(f) = &mut self.faults {
                for &(_, reason) in &self.dropped {
                    f.record_drop(reason);
                }
            }
            self.dropped.clear();
        }
        if enabled {
            self.trace_cycle(now, &pulse, &delivered[mark..]);
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
        #[cfg(debug_assertions)]
        {
            let (inj, del, drp) = self.ledger.counts();
            assert_eq!(inj, del + drp + self.store.live(), "conservation identity");
        }
        self.cycle += 1;
        self.watchdog
            .observe(self.cycle, pulse.moved, self.store.live());
        self.watchdog.check(self.cycle)
    }

    fn in_flight(&self) -> u64 {
        self.store.live()
    }

    fn utilization(&self) -> UtilizationReport {
        let cycles = self.cycle - self.reset_cycle;
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
        self.reset_cycle = self.cycle;
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn tracer_mut(&mut self) -> Option<&mut Tracer> {
        if self.tracer.is_enabled() {
            Some(&mut self.tracer)
        } else {
            None
        }
    }

    fn take_tracer(&mut self) -> Option<Tracer> {
        if self.tracer.is_enabled() {
            Some(std::mem::take(&mut self.tracer))
        } else {
            None
        }
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

    fn set_faults(&mut self, injector: FaultInjector, check: bool) {
        self.faults = Some(injector);
        if check && !self.ledger.tracking() {
            self.ledger.set_tracking(true);
        }
    }

    fn faults(&self) -> Option<&FaultInjector> {
        self.faults.as_ref()
    }

    fn take_faults(&mut self) -> Option<FaultInjector> {
        self.faults.take()
    }

    fn verify_conservation(&self) -> Result<(), ConservationError> {
        self.ledger.verify(self.store.live())
    }

    fn conservation_counts(&self) -> Option<(u64, u64, u64)> {
        Some(self.ledger.counts())
    }

    fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        if self.faults.is_some() {
            return Err(SnapError::Mismatch(
                "checkpointing with fault injection installed is not supported".into(),
            ));
        }
        self.store.save(w);
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
        w.u64(self.cycle);
        self.ring_flits.save(w);
        self.ring_credits.save(w);
        w.u64(self.mesh_flits);
        w.u64(self.reset_cycle);
        self.watchdog.save_state(w);
        self.ledger.save_state(w);
        self.corrupt.save(w);
        Ok(())
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        if self.faults.is_some() {
            return Err(SnapError::Mismatch(
                "restoring into a network with fault injection installed is not supported".into(),
            ));
        }
        let mismatch = |what: &str, got: usize, want: usize| {
            SnapError::Mismatch(format!("{what}: snapshot has {got}, network has {want}"))
        };
        self.store = PacketStore::load(r)?;
        let n_nics = r.usize()?;
        if n_nics != self.nics.len() {
            return Err(mismatch("NIC count", n_nics, self.nics.len()));
        }
        for nic in &mut self.nics {
            nic.restore_state(r)?;
        }
        let n_bridges = r.usize()?;
        if n_bridges != self.bridges.len() {
            return Err(mismatch("bridge count", n_bridges, self.bridges.len()));
        }
        for bridge in &mut self.bridges {
            bridge.restore_state(r)?;
        }
        self.routers.restore_state(r)?;
        let station_active: Vec<bool> = Snapshot::load(r)?;
        if station_active.len() != self.station_active.len() {
            return Err(mismatch(
                "station count",
                station_active.len(),
                self.station_active.len(),
            ));
        }
        self.station_active = station_active;
        let free: Vec<usize> = Snapshot::load(r)?;
        if free.len() != self.free.len() {
            return Err(mismatch("free table size", free.len(), self.free.len()));
        }
        self.free = free;
        self.cycle = r.u64()?;
        self.ring_flits = Snapshot::load(r)?;
        self.ring_credits = Snapshot::load(r)?;
        self.mesh_flits = r.u64()?;
        self.reset_cycle = r.u64()?;
        self.watchdog.restore_state(r)?;
        self.ledger.restore_state(r)?;
        self.corrupt = Snapshot::load(r)?;
        self.sends.clear();
        self.dropped.clear();
        self.sunk.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringmesh_faults::{FaultEvent, FaultKind, FaultSchedule};
    use ringmesh_net::{CacheLineSize, PacketKind, TxnId};

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
