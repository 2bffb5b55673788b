//! Slotted-ring switching: the Hector/NUMAchine alternative.
//!
//! The paper simulates *wormhole* rings but notes (footnote 3) that the
//! NUMAchine hardware implements *slotted* rings, and the authors'
//! companion study (Ravindran & Stumm, IEICE Trans. 1996 — reference
//! [21]) finds slotted rings perform somewhat better. This module
//! implements that alternative as an extension: each ring is a
//! synchronous circular pipeline of one-flit slots that advance every
//! cycle unconditionally. A station fills empty slots with its outgoing
//! flits and drains slots addressed to it; nothing ever blocks, so the
//! design is trivially deadlock-free and uses each link's full
//! bandwidth under load.
//!
//! Flits of one packet always travel the same path in order, but may be
//! separated by gaps and interleaved with other packets' flits —
//! reassembly at the destination is per-packet ([`SlotAssembler`]).

use std::collections::VecDeque;

use ringmesh_net::{
    DrainState, Flit, FlitPool, LevelUtil, NetCore, NodeId, Packet, PacketRef, PacketStore,
    QueueClass, UtilizationReport,
};
use ringmesh_snap::{SnapError, SnapReader, SnapWriter, Snapshot, SnapshotState};
use ringmesh_trace::Counter;

use crate::topology::{RingAction, RingSpec, RingTopology, RouteTable, StationKind};
use crate::RingConfig;

/// Reassembles per-packet flit streams that may interleave with other
/// packets (slotted rings do not enforce wormhole contiguity).
///
/// Flit trains are staged in buffers checked out of a shared
/// [`FlitPool`], so steady-state reassembly allocates nothing: each
/// completed packet returns its buffer for the next one.
#[derive(Debug, Default)]
struct SlotAssembler {
    /// `(packet, staged flits)` for packets mid-assembly. Small and
    /// scanned linearly: a PM rarely assembles more than a handful of
    /// packets at once.
    partial: Vec<(PacketRef, Vec<Flit>)>,
}

impl SlotAssembler {
    /// Accepts a flit; returns the packet when its tail completes it.
    /// Train buffers come from `pool` and are recycled on completion.
    fn push(&mut self, flit: Flit, pool: &mut FlitPool) -> Option<PacketRef> {
        match self.partial.iter_mut().find(|(r, _)| *r == flit.packet) {
            Some((_, train)) => {
                debug_assert_eq!(train.len() as u32, flit.seq, "out-of-order slotted flit");
                train.push(flit);
            }
            None => {
                debug_assert!(flit.is_head(), "mid-packet flit without assembly state");
                if flit.is_tail {
                    // Single-flit packet: complete without staging.
                    return Some(flit.packet);
                }
                let mut train = pool.checkout();
                train.push(flit);
                self.partial.push((flit.packet, train));
            }
        }
        if flit.is_tail {
            let idx = self
                .partial
                .iter()
                .position(|(r, _)| *r == flit.packet)
                .expect("just updated");
            let (_, train) = self.partial.swap_remove(idx);
            pool.recycle(train);
            Some(flit.packet)
        } else {
            None
        }
    }
}

/// Per-station outgoing state: ring-changing flits pass straight
/// through (`crossing`), while locally-originated packets queue per
/// class and serialize one flit at a time into passing empty slots.
#[derive(Debug, Default)]
struct Outbox {
    crossing: VecDeque<Flit>,
    resp: VecDeque<PacketRef>,
    req: VecDeque<PacketRef>,
    drain: DrainState,
}

impl Outbox {
    fn enqueue(&mut self, class: QueueClass, r: PacketRef) {
        match class {
            QueueClass::Response => self.resp.push_back(r),
            QueueClass::Request => self.req.push_back(r),
        }
    }

    /// Accepts a flit crossing rings; crossings re-serialize through
    /// the outbox in arrival order, preserving per-packet order.
    fn drain_continue(&mut self, flit: Flit) {
        self.crossing.push_back(flit);
    }

    /// The next flit to inject, if any: ring-changing traffic first
    /// (the IRI priority rule), then local responses, then requests.
    fn next_flit(&mut self, store: &PacketStore) -> Option<Flit> {
        if let Some(flit) = self.crossing.pop_front() {
            return Some(flit);
        }
        if !self.drain.is_active() {
            let r = self.resp.pop_front().or_else(|| self.req.pop_front())?;
            self.drain.begin(r, store.get(r).flits);
        }
        Some(self.drain.emit())
    }

    fn len(&self) -> usize {
        self.resp.len() + self.req.len() + usize::from(self.drain.is_active())
    }
}

impl SnapshotState for SlotAssembler {
    fn save_state(&self, w: &mut SnapWriter) {
        self.partial.save(w);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        // Trains are rebuilt from the snapshot rather than checked out
        // of the pool: the pool's outstanding counter (restored
        // separately) already accounts for them, and completion recycles
        // them back as usual.
        self.partial = Snapshot::load(r)?;
        Ok(())
    }
}

impl SnapshotState for Outbox {
    fn save_state(&self, w: &mut SnapWriter) {
        self.crossing.save(w);
        self.resp.save(w);
        self.req.save(w);
        self.drain.save(w);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.crossing = Snapshot::load(r)?;
        self.resp = Snapshot::load(r)?;
        self.req = Snapshot::load(r)?;
        self.drain = DrainState::load(r)?;
        Ok(())
    }
}

/// A hierarchical ring network with slotted (non-blocking) switching.
///
/// Shares [`RingSpec`]/[`RingTopology`] and [`RingConfig`] with the
/// wormhole model ([`RingNetwork`](crate::RingNetwork)); only the
/// switching discipline differs. Implements
/// [`ringmesh_net::Interconnect`] (as every [`ringmesh_net::Kernel`]
/// does): it is traced and audited by the shared [`NetCore`], but it
/// models no faults, and registers no heatmap and emits no hop events.
///
/// # Example
///
/// ```
/// use ringmesh_net::{CacheLineSize, Interconnect, NodeId, Packet, PacketKind, TxnId};
/// use ringmesh_ring::{RingConfig, RingSpec, SlottedRingNetwork};
///
/// let cfg = RingConfig::new(CacheLineSize::B32);
/// let mut net = SlottedRingNetwork::new(&RingSpec::single(4), cfg.clone());
/// net.inject(NodeId::new(0), Packet {
///     txn: TxnId::new(1), kind: PacketKind::ReadReq,
///     src: NodeId::new(0), dst: NodeId::new(2),
///     flits: 1, injected_at: 0,
/// });
/// let mut delivered = Vec::new();
/// while delivered.is_empty() {
///     net.step(&mut delivered).unwrap();
/// }
/// assert_eq!(delivered[0].0, NodeId::new(2));
/// ```
#[derive(Debug)]
pub struct SlottedRingNetwork {
    topo: RingTopology,
    /// Flat routing-decision table; replaces per-flit `topo.action`
    /// recomputation on the slot-service path.
    routes: RouteTable,
    /// `(ring, position, station, side)` service schedule, flattened
    /// once at construction so the per-cycle station loop neither
    /// clones member lists nor chases the topology.
    service_order: Vec<(u32, u32, u32, u8)>,
    core: NetCore,
    /// One slot vector per ring, indexed by member position; `slots[r][i]`
    /// is the slot that station `members[i]` examines this cycle.
    slots: Vec<Vec<Option<Flit>>>,
    /// PM outboxes (indexed by PM) and IRI up/down outboxes (indexed by
    /// station id): slotted crossings queue in elastic outboxes on the
    /// target ring's side.
    pm_out: Vec<Outbox>,
    iri_up: Vec<Outbox>,
    iri_down: Vec<Outbox>,
    assemblers: Vec<SlotAssembler>,
    /// Shared reassembly-buffer pool; see [`Self::pool_stats`].
    pool: FlitPool,
    ring_flits: Vec<u64>,
    reset_cycle: u64,
}

impl SlottedRingNetwork {
    /// Builds the slotted network for `spec` under `cfg` (only the
    /// cache-line/packet sizing of `cfg` is used; buffer depths do not
    /// apply to slotted switching, and the global-ring speedup is not
    /// supported in this extension).
    pub fn new(spec: &RingSpec, cfg: RingConfig) -> Self {
        let topo = RingTopology::new(spec);
        let slots: Vec<Vec<Option<Flit>>> = topo
            .rings()
            .map(|(_, r)| vec![None; r.members.len()])
            .collect();
        let mut service_order = Vec::new();
        for (rid, info) in topo.rings() {
            for (pos, &(st, side)) in info.members.iter().enumerate() {
                service_order.push((rid, pos as u32, st, side));
            }
        }
        let routes = topo.route_table();
        let n_st = topo.num_stations();
        let pms = topo.num_pms() as usize;
        let num_rings = topo.num_rings();
        SlottedRingNetwork {
            topo,
            routes,
            service_order,
            core: NetCore::new(cfg.watchdog_horizon),
            slots,
            pm_out: (0..pms).map(|_| Outbox::default()).collect(),
            iri_up: (0..n_st).map(|_| Outbox::default()).collect(),
            iri_down: (0..n_st).map(|_| Outbox::default()).collect(),
            assemblers: (0..pms).map(|_| SlotAssembler::default()).collect(),
            pool: FlitPool::new(),
            ring_flits: vec![0; num_rings],
            reset_cycle: 0,
        }
    }

    /// The expanded topology.
    pub fn topology(&self) -> &RingTopology {
        &self.topo
    }

    /// `(fresh allocations, recycled checkouts, outstanding buffers)`
    /// of the reassembly flit pool. After a full drain `outstanding`
    /// is 0; in steady state `recycled` dominates `allocated`, which is
    /// the zero-allocation property the pool exists to provide.
    pub fn pool_stats(&self) -> (u64, u64, usize) {
        (
            self.pool.allocated(),
            self.pool.recycled(),
            self.pool.outstanding(),
        )
    }

    /// One station's interaction with the slot currently at its
    /// position on ring `rid`: drain it if addressed here, else leave
    /// it; fill an empty slot from the local outbox.
    fn service_slot(
        &mut self,
        rid: u32,
        pos: usize,
        st: u32,
        side: u8,
        delivered: &mut Vec<(NodeId, Packet)>,
        moved: &mut u64,
    ) {
        // Drain: does the occupying flit leave the ring here?
        if let Some(flit) = self.slots[rid as usize][pos] {
            let dst = self.core.store().get(flit.packet).dst;
            match self.routes.action(st, side, dst) {
                RingAction::Eject => {
                    let pm = match self.topo.station(st) {
                        StationKind::Nic { pm } => pm,
                        StationKind::Iri { .. } => unreachable!("eject at IRI"),
                    };
                    self.slots[rid as usize][pos] = None;
                    *moved += 1;
                    if let Some(done) = self.assemblers[pm.index()].push(flit, &mut self.pool) {
                        self.core.deliver(done, pm, delivered);
                    }
                }
                RingAction::Up => {
                    self.slots[rid as usize][pos] = None;
                    self.iri_up[st as usize].drain_continue(flit);
                    *moved += 1;
                }
                RingAction::Down => {
                    self.slots[rid as usize][pos] = None;
                    self.iri_down[st as usize].drain_continue(flit);
                    *moved += 1;
                }
                RingAction::Forward => {}
            }
        }
        // Fill: an empty slot takes the next outgoing flit (the PM's
        // outbox at NICs; the down outbox on an IRI's lower side, the
        // up outbox on its upper side).
        if self.slots[rid as usize][pos].is_none() {
            let outbox = match (self.topo.station(st), side) {
                (StationKind::Nic { pm }, _) => &mut self.pm_out[pm.index()],
                (StationKind::Iri { .. }, 0) => &mut self.iri_down[st as usize],
                (StationKind::Iri { .. }, _) => &mut self.iri_up[st as usize],
            };
            if let Some(flit) = outbox.next_flit(self.core.store()) {
                self.slots[rid as usize][pos] = Some(flit);
                *moved += 1;
            }
        }
    }
}

impl ringmesh_net::Kernel for SlottedRingNetwork {
    fn core(&self) -> &NetCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut NetCore {
        &mut self.core
    }

    fn num_pms(&self) -> usize {
        self.topo.num_pms() as usize
    }

    fn can_inject(&self, pm: NodeId, _class: QueueClass) -> bool {
        // Slotted NIC outboxes are elastic but we keep the paper's
        // one-packet pacing per class at the PM boundary.
        self.pm_out[pm.index()].len() < 2
    }

    fn enqueue(&mut self, pm: NodeId, class: QueueClass, packet: PacketRef) {
        self.pm_out[pm.index()].enqueue(class, packet);
    }

    fn advance(&mut self, delivered: &mut Vec<(NodeId, Packet)>) -> u64 {
        let mut moved = 0u64;
        // 1. Rotate every ring by one position (slots advance); one
        //    occupancy pass feeds both progress and utilization counts.
        for r in 0..self.slots.len() {
            self.slots[r].rotate_right(1);
            let occupied = self.slots[r].iter().flatten().count() as u64;
            moved += occupied;
            self.ring_flits[r] += occupied;
        }
        // 2. Every station services the slot now at its position, in
        //    the service order flattened at construction (no per-cycle
        //    member-list clones).
        for i in 0..self.service_order.len() {
            let (rid, pos, st, side) = self.service_order[i];
            self.service_slot(rid, pos as usize, st, side, delivered, &mut moved);
        }
        self.core.tracer().count(Counter::FlitsForwarded, moved);
        moved
    }

    fn utilization(&self) -> UtilizationReport {
        let cycles = self.core.cycle() - self.reset_cycle;
        if cycles == 0 {
            return UtilizationReport::default();
        }
        let levels = self.topo.levels();
        let mut busy = vec![0u64; levels];
        let mut cap = vec![0u64; levels];
        for (rid, ring) in self.topo.rings() {
            let d = ring.depth as usize;
            busy[d] += self.ring_flits[rid as usize];
            cap[d] += ring.members.len() as u64 * cycles;
        }
        UtilizationReport {
            overall: busy.iter().sum::<u64>() as f64 / cap.iter().sum::<u64>().max(1) as f64,
            levels: (0..levels)
                .map(|d| LevelUtil {
                    label: self.topo.depth_label(d as u32),
                    utilization: busy[d] as f64 / cap[d].max(1) as f64,
                })
                .collect(),
        }
    }

    fn reset_counters(&mut self) {
        self.ring_flits.iter_mut().for_each(|c| *c = 0);
        self.reset_cycle = self.core.cycle();
    }

    fn save_kernel(&self, w: &mut SnapWriter) {
        self.slots.save(w);
        for group in [&self.pm_out, &self.iri_up, &self.iri_down] {
            w.usize(group.len());
            for outbox in group {
                outbox.save_state(w);
            }
        }
        w.usize(self.assemblers.len());
        for asm in &self.assemblers {
            asm.save_state(w);
        }
        self.pool.save_state(w);
        w.u64(self.core.cycle());
        self.ring_flits.save(w);
        w.u64(self.reset_cycle);
    }

    fn restore_kernel(&mut self, r: &mut SnapReader<'_>) -> Result<u64, SnapError> {
        r.len_exact(self.slots.len(), "ring count")?;
        for (i, ring) in self.slots.iter_mut().enumerate() {
            *ring = r.vec_exact(ring.len(), &format!("ring {i} slot count"))?;
        }
        for (label, group) in [
            ("PM outbox count", &mut self.pm_out),
            ("IRI up outbox count", &mut self.iri_up),
            ("IRI down outbox count", &mut self.iri_down),
        ] {
            r.len_exact(group.len(), label)?;
            for outbox in group.iter_mut() {
                outbox.restore_state(r)?;
            }
        }
        r.len_exact(self.assemblers.len(), "assembler count")?;
        for asm in &mut self.assemblers {
            asm.restore_state(r)?;
        }
        self.pool.restore_state(r)?;
        let cycle = r.u64()?;
        self.ring_flits = r.vec_exact(self.ring_flits.len(), "ring count")?;
        self.reset_cycle = r.u64()?;
        Ok(cycle)
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

    #[test]
    fn delivers_single_packet() {
        let cfg = RingConfig::new(CacheLineSize::B32);
        let mut net = SlottedRingNetwork::new(&RingSpec::single(4), cfg.clone());
        net.inject(NodeId::new(0), packet(&cfg, 1, PacketKind::ReadResp, 0, 2));
        let mut out = Vec::new();
        let mut cycles = 0;
        while out.is_empty() {
            net.step(&mut out).unwrap();
            cycles += 1;
            assert!(cycles < 100);
        }
        assert_eq!(out[0].0, NodeId::new(2));
        // 3 flits over 2 hops in a non-blocking pipeline.
        assert!(cycles <= 8, "cycles={cycles}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn destination_beyond_the_last_pm_is_refused_at_injection() {
        let cfg = RingConfig::new(CacheLineSize::B32);
        let mut net = SlottedRingNetwork::new(&RingSpec::single(4), cfg.clone());
        net.inject(NodeId::new(0), packet(&cfg, 1, PacketKind::ReadReq, 0, 4));
    }

    #[test]
    fn all_pairs_delivered_hierarchical() {
        let cfg = RingConfig::new(CacheLineSize::B64);
        let spec: RingSpec = "2:2:3".parse().unwrap();
        let p = spec.num_pms();
        let mut net = SlottedRingNetwork::new(&spec, cfg.clone());
        let mut expected = 0u32;
        let mut txn = 0;
        let mut out = Vec::new();
        for s in 0..p {
            for d in 0..p {
                if s != d {
                    // Pump injections over time (outbox pacing).
                    while !net.can_inject(NodeId::new(s), QueueClass::Request) {
                        net.step(&mut out).unwrap();
                    }
                    txn += 1;
                    net.inject(
                        NodeId::new(s),
                        packet(&cfg, txn, PacketKind::WriteReq, s, d),
                    );
                    expected += 1;
                }
            }
        }
        for _ in 0..20_000 {
            net.step(&mut out).unwrap();
            if out.len() as u32 >= expected {
                break;
            }
        }
        assert_eq!(out.len() as u32, expected);
        assert_eq!(net.in_flight(), 0);
        // Exactly-once delivery.
        let mut txns: Vec<u64> = out.iter().map(|(_, p)| p.txn.raw()).collect();
        txns.sort_unstable();
        txns.dedup();
        assert_eq!(txns.len() as u32, expected);
    }

    #[test]
    fn reassembly_pool_recycles_and_drains() {
        // Drive the all-pairs flow: when the network's ledger balances
        // with nothing in flight, the reassembly pool must hold zero
        // outstanding buffers, and steady-state traffic must be served
        // by recycling rather than fresh allocation.
        let cfg = RingConfig::new(CacheLineSize::B64);
        let spec: RingSpec = "2:2:3".parse().unwrap();
        let p = spec.num_pms();
        let mut net = SlottedRingNetwork::new(&spec, cfg.clone());
        let mut out = Vec::new();
        let mut txn = 0;
        for s in 0..p {
            for d in 0..p {
                if s != d {
                    while !net.can_inject(NodeId::new(s), QueueClass::Request) {
                        net.step(&mut out).unwrap();
                    }
                    txn += 1;
                    net.inject(
                        NodeId::new(s),
                        packet(&cfg, txn, PacketKind::WriteReq, s, d),
                    );
                }
            }
        }
        for _ in 0..20_000 {
            net.step(&mut out).unwrap();
            if net.in_flight() == 0 {
                break;
            }
        }
        net.verify_conservation().unwrap();
        assert_eq!(net.conservation_counts(), Some((txn, txn, 0)));
        let (allocated, recycled, outstanding) = net.pool_stats();
        assert_eq!(outstanding, 0, "drained network leaked pool buffers");
        assert!(
            recycled > allocated,
            "pool should recycle in steady state (allocated={allocated} recycled={recycled})"
        );
        assert_eq!(
            allocated + recycled,
            txn,
            "one checkout per multi-flit packet"
        );
    }

    #[test]
    fn slots_never_block_under_flood() {
        // Saturate a small hierarchy: slotted switching must keep
        // moving (no watchdog trip) and drain completely.
        let cfg = RingConfig::new(CacheLineSize::B128);
        let spec: RingSpec = "3:4".parse().unwrap();
        let mut net = SlottedRingNetwork::new(&spec, cfg.clone());
        let mut out = Vec::new();
        let mut txn = 0u64;
        for round in 0..200u32 {
            for s in 0..12u32 {
                let d = (s + 1 + round % 11) % 12;
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
        for _ in 0..20_000 {
            net.step(&mut out).unwrap();
            if net.in_flight() == 0 {
                break;
            }
        }
        assert_eq!(net.in_flight(), 0);
        assert_eq!(out.len() as u64, txn);
    }
}
