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
    DrainState, Flit, NetCore, NodeId, Packet, PacketRef, PacketStore, QueueClass,
    UtilizationReport,
};
use ringmesh_snap::{Codec, Snap, SnapError};
use ringmesh_trace::{Counter, Work};

use crate::topology::{RingAction, RingSpec, RingTopology, StationKind};
use crate::RingConfig;

/// Reassembles per-packet flit streams that may interleave with other
/// packets (slotted rings do not enforce wormhole contiguity). A
/// packet's flits arrive in order, so counting them is enough.
#[derive(Debug, Default)]
struct SlotAssembler {
    /// `(packet, flits arrived)` for packets mid-assembly. Small and
    /// scanned linearly: a PM rarely assembles more than a handful of
    /// packets at once.
    partial: Vec<(PacketRef, u32)>,
}

impl SlotAssembler {
    /// Accepts a flit; returns the packet when its tail completes it.
    fn push(&mut self, flit: Flit) -> Option<PacketRef> {
        match self.partial.iter().position(|&(r, _)| r == flit.packet) {
            Some(i) => {
                debug_assert_eq!(self.partial[i].1, flit.seq, "out-of-order slotted flit");
                if flit.is_tail {
                    self.partial.swap_remove(i);
                } else {
                    self.partial[i].1 += 1;
                }
            }
            None => {
                debug_assert!(flit.is_head(), "mid-packet flit without assembly state");
                if !flit.is_tail {
                    self.partial.push((flit.packet, 1));
                }
            }
        }
        flit.is_tail.then_some(flit.packet)
    }
}

/// One station side's outgoing state: flits crossing onto this side's
/// ring pass straight through (`crossing`), while locally-originated
/// packets queue per class and serialize one flit at a time into
/// passing empty slots.
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

    /// The next flit to inject, if any: ring-changing traffic first
    /// (the IRI priority rule), then local responses, then requests.
    /// Crossings re-serialize in arrival order, preserving per-packet
    /// order.
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

    /// Local packets held, of either class: queued plus the one being
    /// sent.
    fn len(&self) -> usize {
        self.resp.len() + self.req.len() + usize::from(self.drain.is_active())
    }
}

/// Reported to the census as the prefix each packet received.
impl Snap for SlotAssembler {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        self.partial.snap(c)?;
        let prefixes = self.partial.iter().map(|&(r, n)| (r.slot() as u32, n));
        c.report(|census| census.prefixes.extend(prefixes));
        Ok(())
    }
}

/// The crossing flits (interleaved, so not one run), the local queues,
/// reported to the census as packets queued whole, and the drain.
impl Snap for Outbox {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        self.crossing.snap(c)?;
        self.resp.snap(c)?;
        self.req.snap(c)?;
        let queued = self.resp.iter().chain(&self.req).map(|r| r.slot() as u32);
        c.report(|census| census.queued.extend(queued));
        self.drain.snap(c)
    }
}

/// Index of station `st`'s `side` in the per-side outbox table.
fn side_index(st: u32, side: u8) -> usize {
    st as usize * 2 + usize::from(side)
}

/// A hierarchical ring network with slotted (non-blocking) switching.
///
/// Shares [`RingSpec`]/[`RingTopology`] and [`RingConfig`] with the
/// wormhole model ([`RingNetwork`](crate::RingNetwork)); only the
/// switching discipline differs. Implements
/// [`ringmesh_net::Interconnect`]: it is traced and audited by the
/// shared [`NetCore`], but it models no faults, and registers no
/// heatmap and emits no hop events.
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
    core: NetCore,
    /// One slot vector per ring, indexed by member position; `slots[r][i]`
    /// is the slot that station side `members[i]` examines this cycle.
    slots: Vec<Vec<Option<Flit>>>,
    /// One outbox per station side, at [`side_index`]: a NIC's PM
    /// queues at its side 0, and a flit leaving the ring at one side of
    /// an IRI queues at the IRI's other side.
    outboxes: Vec<Outbox>,
    assemblers: Vec<SlotAssembler>,
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
        SlottedRingNetwork {
            slots: topo
                .rings()
                .map(|(_, r)| vec![None; r.members.len()])
                .collect(),
            outboxes: (0..topo.num_stations() * 2)
                .map(|_| Outbox::default())
                .collect(),
            assemblers: (0..topo.num_pms())
                .map(|_| SlotAssembler::default())
                .collect(),
            ring_flits: vec![0; topo.num_rings()],
            core: NetCore::new(cfg.watchdog_horizon),
            reset_cycle: 0,
            topo,
        }
    }

    /// The expanded topology.
    pub fn topology(&self) -> &RingTopology {
        &self.topo
    }
}

impl ringmesh_net::Interconnect for SlottedRingNetwork {
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
        // The outbox is elastic, but the PM may hand it a packet of
        // either class only while it holds fewer than two local packets
        // in all (queued responses and requests plus the one being
        // sent).
        self.outboxes[side_index(self.topo.nic_of(pm), 0)].len() < 2
    }

    fn enqueue(&mut self, pm: NodeId, class: QueueClass, packet: PacketRef) {
        self.outboxes[side_index(self.topo.nic_of(pm), 0)].enqueue(class, packet);
    }

    fn advance(&mut self, delivered: &mut Vec<(NodeId, Packet)>) -> u64 {
        let mut moved = 0u64;
        // 1. Rotate every ring by one position (slots advance); one
        //    occupancy pass feeds both progress and utilization counts.
        for (slots, flits) in self.slots.iter_mut().zip(&mut self.ring_flits) {
            slots.rotate_right(1);
            let occupied = slots.iter().flatten().count() as u64;
            moved += occupied;
            *flits += occupied;
        }
        let sent = moved;
        // 2. Every station side, ring by ring in member order, services
        //    the slot now at its position: drain it if the flit leaves
        //    the ring here, then fill it if it is empty.
        for (rid, ring) in self.topo.rings() {
            let slots = &mut self.slots[rid as usize];
            for (slot, &(st, side)) in slots.iter_mut().zip(&ring.members) {
                if let Some(flit) = *slot {
                    let dst = self.core.store().get(flit.packet).dst;
                    match self.topo.action(st, side, dst) {
                        RingAction::Forward => {}
                        RingAction::Eject => {
                            let StationKind::Nic { pm } = self.topo.station(st) else {
                                unreachable!("eject at IRI")
                            };
                            *slot = None;
                            moved += 1;
                            if let Some(done) = self.assemblers[pm.index()].push(flit) {
                                self.core.deliver(done, pm, delivered);
                            }
                        }
                        // A crossing re-enters at the IRI's other side.
                        RingAction::Up | RingAction::Down => {
                            *slot = None;
                            moved += 1;
                            self.outboxes[side_index(st, side) ^ 1]
                                .crossing
                                .push_back(flit);
                        }
                    }
                }
                if slot.is_none() {
                    let outbox = &mut self.outboxes[side_index(st, side)];
                    let held = outbox.len();
                    *slot = outbox.next_flit(self.core.store());
                    moved += u64::from(slot.is_some());
                    // The tail of a local packet left: its PM may hand
                    // the outbox another.
                    if outbox.len() < held {
                        let StationKind::Nic { pm } = self.topo.station(st) else {
                            unreachable!("only a NIC's outbox holds local packets")
                        };
                        self.core.room_at(pm);
                    }
                }
            }
        }
        let tracer = self.core.tracer();
        tracer.count(Counter::FlitsForwarded, moved);
        if tracer.is_enabled() {
            let positions = self.slots.iter().map(Vec::len).sum::<usize>();
            tracer.work(Work::RingSides, positions as u64);
            tracer.work(Work::LinkFlits, sent);
        }
        moved
    }

    fn utilization(&self) -> UtilizationReport {
        let cycles = self.core.cycle() - self.reset_cycle;
        self.topo.utilization(&self.ring_flits, cycles, 1)
    }

    fn reset_counters(&mut self) {
        self.ring_flits.iter_mut().for_each(|c| *c = 0);
        self.reset_cycle = self.core.cycle();
    }
}

/// The slots ring by ring, the outboxes, the assemblers, the clock,
/// the per-ring flit counts, the reset cycle. Slotted switching routes
/// every flit by its packet's destination at every station, so a
/// reader refuses a flit that is off its packet's route: one past its
/// destination would circle back behind the rest of its packet.
impl Snap for SlottedRingNetwork {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        c.exact(self.slots.len(), "ring count")?;
        for ring in &mut self.slots {
            c.fixed(ring, "slot count of a ring")?;
        }
        c.fixed(&mut self.outboxes, "station side count")?;
        if c.reading() {
            // The station side each flit reaches next: a slot moves on
            // to the next member before it is examined, a crossing flit
            // enters its side's ring.
            let topo = &self.topo;
            let in_slots = topo
                .rings()
                .zip(&self.slots)
                .flat_map(|((_, ring), slots)| {
                    let next = |i: usize| Some(ring.members[(i + 1) % ring.members.len()]);
                    slots
                        .iter()
                        .enumerate()
                        .filter_map(move |(i, f)| Some(((*f)?, next(i))))
                });
            let crossing = self.outboxes.iter().enumerate().flat_map(|(k, outbox)| {
                let next = topo.try_next_of(k as u32 / 2, k as u8 % 2);
                outbox.crossing.iter().map(move |&f| (f, next))
            });
            let pms = topo.num_pms();
            for (flit, next) in in_slots.chain(crossing) {
                // A packet that is not live is the census's to refuse.
                let Some(p) = self.core.store().try_get(flit.packet) else {
                    continue;
                };
                let routed = p.src != p.dst && p.src.raw() < pms && p.dst.raw() < pms;
                if !(routed && topo.route(p.src, p.dst).any(|(at, _)| Some(at) == next)) {
                    return Err(SnapError::Corrupt(format!(
                        "packet slot {}: a flit off the route {} -> {}",
                        flit.packet.slot(),
                        p.src,
                        p.dst
                    )));
                }
            }
        }
        c.fixed(&mut self.assemblers, "assembler count")?;
        c.report(|census| {
            // Each PM's assembler holds packets for that PM.
            for (pm, assembler) in (0..).zip(&self.assemblers) {
                let claims = assembler
                    .partial
                    .iter()
                    .map(|&(r, _)| (r.slot() as u32, pm..pm + 1, true));
                census.claims.extend(claims);
            }
        });
        self.core.clock_mut().snap(c)?;
        c.fixed(&mut self.ring_flits, "ring count")?;
        self.reset_cycle.snap(c)
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

    /// The room contract: a slotted outbox counts the packet it is
    /// sending, so PM 0 gains room only on the step its tail leaves.
    #[test]
    fn a_drain_end_reports_room_at_its_pm() {
        let cfg = RingConfig::new(CacheLineSize::B32);
        let mut net = SlottedRingNetwork::new(&RingSpec::single(4), cfg.clone());
        net.inject(NodeId::new(0), packet(&cfg, 1, PacketKind::ReadResp, 0, 2));
        net.inject(NodeId::new(0), packet(&cfg, 2, PacketKind::ReadReq, 0, 3));
        assert!(!net.can_inject(NodeId::new(0), QueueClass::Request));
        let mut out = Vec::new();
        let flits = cfg.format.flits(PacketKind::ReadResp, cfg.cache_line);
        for _ in 1..flits {
            net.step(&mut out).unwrap();
            assert!(net.room().is_empty());
            assert!(!net.can_inject(NodeId::new(0), QueueClass::Request));
        }
        net.step(&mut out).unwrap();
        assert_eq!(net.room(), [NodeId::new(0)]);
        assert!(net.can_inject(NodeId::new(0), QueueClass::Request));
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
    fn drained_network_holds_no_partial_packets() {
        // Drive the all-pairs flow: when the network's ledger balances
        // with nothing in flight, no PM may still hold an assembly open.
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
        assert_eq!(net.conservation_counts(), (txn, txn, 0));
        assert!(
            net.assemblers.iter().all(|a| a.partial.is_empty()),
            "drained network left an assembly open"
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
