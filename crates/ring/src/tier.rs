//! The ring tier: NIC and IRI stations on uni-directional rings, owned
//! and stepped once, under the hierarchical ring and under the hybrid's
//! local rings alike.

use ringmesh_faults::{DropReason, FaultDomain, FaultInjector};
use ringmesh_net::{FifoBank, NetCore, NodeId, Packet, PacketRef, QueueClass};
use ringmesh_snap::{Codec, Snap, SnapError};

use crate::iri::Iri;
use crate::nic::Nic;
use crate::station::{Send, StepPulse, Tick};
use crate::topology::{SideRef, StationKind};
use crate::{RingConfig, CONVOY_THRESHOLD_PACKETS};

/// Who is next on the rings: what each station is and where each of
/// its sides' output links leads. The topology half of a ring network;
/// [`RingTier`] is the fabric that moves flits over it.
pub trait StationMap {
    /// Number of stations.
    fn num_stations(&self) -> usize;

    /// Number of rings.
    fn num_rings(&self) -> usize;

    /// What station `st` is.
    fn station(&self, st: u32) -> StationKind;

    /// The ring station side `(st, side)` sits on and the station side
    /// its output link feeds, or `None` when that side is on no ring
    /// and is never clocked (side 1 of a NIC; the hybrid bridge's upper
    /// side, whose ring is a mesh port).
    fn link(&self, st: u32, side: u8) -> Option<(u32, SideRef)>;
}

/// Which component a station is, and how many of its sides are clocked.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// `nics[pm]`.
    Nic(u32),
    /// `iris[x]`; `upper` when its upper side is on a ring too.
    Iri { x: u32, upper: bool },
}

impl Slot {
    fn sides(self) -> usize {
        match self {
            Slot::Nic(_) | Slot::Iri { upper: false, .. } => 1,
            Slot::Iri { upper: true, .. } => 2,
        }
    }
}

/// The stations of a set of rings and everything they share: every
/// side's transit buffer, the active-station worklist, per-ring
/// credits and flit counts, the tick counter (and the tick the flit
/// counts were last reset at) and the per-tick scratch. Where a side
/// sends and which ring it is on, each station holds itself.
///
/// A tick is [`tick`](RingTier::tick) (every clocked station side
/// steps, then sunk packets retire, then the link transfers commit)
/// followed by [`latch`](RingTier::latch), which registers the stop/go
/// state the next tick reads. Between the two a network may move flits
/// in and out of the IRIs' crossing queues, as the hybrid's bridge
/// pumps and mesh do.
#[derive(Debug)]
pub struct RingTier {
    slots: Vec<Slot>,
    /// NICs in PM order.
    nics: Vec<Nic>,
    /// IRIs in station order; an IRI's index is its fault node id.
    iris: Vec<Iri>,
    /// The transit buffer of every station side, FIFO `station*2 +
    /// side` (a side on no ring keeps an empty one). Its latched
    /// occupancy is the stop/go its upstream neighbour reads.
    bufs: FifoBank,
    /// Active-station worklist, a bitset of 64 stations per word: bit
    /// `st` is clear only while station `st` is provably quiescent
    /// (`Nic::quiescent` / `Iri::quiescent`), letting the tick skip
    /// idle stations under light load. Set again by any arriving flit
    /// or by [`wake`](RingTier::wake).
    station_active: Vec<u64>,
    /// NICs parked on a full downstream buffer: a NIC whose step moved
    /// nothing and counted a forwarding flit blocked decides the same
    /// until that buffer's latch shows room (its downstream has no
    /// other producer, and transit beats injection), so it leaves the
    /// worklist and the latch puts it back.
    parked: Vec<u32>,
    /// Parked NICs on ring 0 and on the other rings. Each counts one
    /// blocked flit every tick it is clocked.
    parked_count: [u64; 2],
    /// Flits moved per ring (utilization accounting).
    ring_flits: Vec<u64>,
    /// Free transit flit slots per ring (the deadlock-avoidance
    /// credits: ring entry requires at least two remaining).
    ring_credits: Vec<i64>,
    tick: u64,
    ticks_per_cycle: u64,
    reset_tick: u64,
    /// Per-tick scratch: the link transfers decided this tick.
    sends: Vec<Send>,
    /// Per-tick scratch: packets sunk at dead IRIs, pending removal.
    sunk: Vec<PacketRef>,
}

impl RingTier {
    /// The stations of `map`, sized by `cfg`. With
    /// `cfg.global_ring_speedup == 2` ring 0 (the global ring) is
    /// clocked twice per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `map` lists NICs out of PM order, if a station's lower
    /// side is on no ring, or if a transit buffer of
    /// [`cfg.ring_buffer_flits()`](RingConfig::ring_buffer_flits) flits
    /// is empty or longer than `u16::MAX` flits (they share one
    /// [`FifoBank`]).
    pub fn new(map: &impl StationMap, cfg: &RingConfig) -> Self {
        let n_st = map.num_stations();
        let buf_flits = cfg.ring_buffer_flits();
        let convoy = CONVOY_THRESHOLD_PACKETS * cfg.format.cl_packet_flits(cfg.cache_line) as usize;
        // Sized up front: a station is a few hundred bytes, and growing
        // the tables by doubling would copy each several times.
        let is_nic = |&st: &u32| matches!(map.station(st), StationKind::Nic { .. });
        let pms = (0..n_st as u32).filter(is_nic).count();
        let mut tier = RingTier {
            slots: Vec::with_capacity(n_st),
            nics: Vec::with_capacity(pms),
            iris: Vec::with_capacity(n_st - pms),
            bufs: FifoBank::new(n_st * 2, buf_flits),
            station_active: vec![0; n_st.div_ceil(64)],
            parked: Vec::new(),
            parked_count: [0; 2],
            ring_flits: vec![0; map.num_rings()],
            ring_credits: vec![0; map.num_rings()],
            tick: 0,
            ticks_per_cycle: if cfg.global_ring_speedup == 2 { 2 } else { 1 },
            reset_tick: 0,
            sends: Vec::new(),
            sunk: Vec::new(),
        };
        for st in 0..n_st as u32 {
            let lower = map.link(st, 0).expect("lower side on a ring");
            let upper = map.link(st, 1);
            let slot = match map.station(st) {
                StationKind::Nic { pm } => {
                    assert_eq!(pm.index(), tier.nics.len(), "NICs come in PM order");
                    let (ring, next) = lower;
                    let fifo = st as usize * 2;
                    tier.nics.push(Nic::new(pm, ring, next, fifo));
                    Slot::Nic(pm.raw())
                }
                StationKind::Iri { subtree } => {
                    let x = tier.iris.len() as u32;
                    let (ring, next) = upper.unwrap_or(lower);
                    tier.iris.push(Iri::new(
                        subtree,
                        [lower.0, ring],
                        [lower.1, next],
                        st as usize * 2,
                        cfg.iri_queue_flits(),
                        cfg.iri_down_queue_flits(),
                        convoy,
                    ));
                    if upper.is_some() {
                        tier.ring_credits[ring as usize] += buf_flits as i64;
                    }
                    Slot::Iri {
                        x,
                        upper: upper.is_some(),
                    }
                }
            };
            tier.ring_credits[lower.0 as usize] += buf_flits as i64;
            tier.slots.push(slot);
            tier.wake(st);
        }
        tier
    }

    /// The cycle the next tick belongs to.
    pub fn cycle(&self) -> u64 {
        self.tick / self.ticks_per_cycle
    }

    /// Kernel ticks per cycle: 2 with a double-speed global ring.
    pub fn ticks_per_cycle(&self) -> u64 {
        self.ticks_per_cycle
    }

    /// Number of stations.
    pub fn num_stations(&self) -> usize {
        self.slots.len()
    }

    /// Flits moved per ring since the last
    /// [`reset_counters`](Self::reset_counters).
    pub fn ring_flits(&self) -> &[u64] {
        &self.ring_flits
    }

    /// Whole cycles since the last
    /// [`reset_counters`](Self::reset_counters).
    pub fn cycles_since_reset(&self) -> u64 {
        (self.tick - self.reset_tick) / self.ticks_per_cycle
    }

    /// Clears the per-ring flit counts.
    pub fn reset_counters(&mut self) {
        self.ring_flits.iter_mut().for_each(|c| *c = 0);
        self.reset_tick = self.tick;
    }

    /// IRI `x`, in station order.
    pub fn iri(&self, x: usize) -> &Iri {
        &self.iris[x]
    }

    /// Mutable form of [`iri`](Self::iri). A flit pushed into one of
    /// its crossing queues reaches the ring only once the station is
    /// [`wake`](Self::wake)d.
    pub fn iri_mut(&mut self, x: usize) -> &mut Iri {
        &mut self.iris[x]
    }

    /// Puts station `st` back on the worklist.
    pub fn wake(&mut self, st: u32) {
        self.station_active[st as usize / 64] |= 1 << (st % 64);
    }

    /// Whether PM `pm`'s NIC queue for `class` can accept a packet.
    pub fn can_inject(&self, pm: NodeId, class: QueueClass) -> bool {
        self.nics[pm.index()].can_accept(class)
    }

    /// Queues an admitted packet at PM `pm`'s NIC, station `st`, and
    /// puts the station back on the worklist.
    pub fn enqueue(&mut self, pm: NodeId, st: u32, class: QueueClass, packet: PacketRef) {
        self.nics[pm.index()].enqueue(class, packet);
        self.wake(st);
    }

    /// Whether station `st` is a dead IRI.
    pub(crate) fn iri_dead(&self, f: &FaultInjector, st: u32) -> bool {
        match self.slots[st as usize] {
            Slot::Iri { x, .. } => f.node_dead(x),
            Slot::Nic(_) => false,
        }
    }

    /// Flits in the transit buffers and in the IRI crossing queues
    /// (the occupancy gauges).
    pub(crate) fn occupancy(&self) -> (usize, usize) {
        let transit = (0..self.bufs.fifos()).map(|i| self.bufs.len(i)).sum();
        let queued = self.iris.iter().map(Iri::queue_flits).sum();
        (transit, queued)
    }

    /// The link transfers the last [`tick`](Self::tick) committed.
    pub(crate) fn sends(&self) -> &[Send] {
        &self.sends
    }

    /// Steps every active station side clocked this tick, in station
    /// order, then retires the packets sunk at dead IRIs, then commits
    /// the link transfers. With a double-speed global ring every
    /// station runs on even ticks and only ring 0's sides on odd ones.
    pub fn tick(
        &mut self,
        core: &mut NetCore,
        delivered: &mut Vec<(NodeId, Packet)>,
        pulse: &mut StepPulse,
    ) {
        let now = self.tick;
        let cycle_now = now / self.ticks_per_cycle;
        let all_active = now.is_multiple_of(self.ticks_per_cycle);
        // Only a faulty run asks, per side, whether its output link is
        // up and its interface alive.
        let faulty = core.faults().is_some();
        self.sends.clear();
        let mut t = Tick {
            now,
            bufs: &mut self.bufs,
            credits: &mut self.ring_credits,
            core,
            sends: &mut self.sends,
            delivered,
            sunk: &mut self.sunk,
            pulse,
        };
        // Skip provably-idle stations and parked NICs; a skipped step
        // is a no-op by construction (see `Nic::quiescent` /
        // `Iri::quiescent`), or, for a parked NIC, what its last step
        // was, so the tick stream is identical to stepping everything.
        // Only a step clears a bit and only the send commit below sets
        // one, so each word can be walked from a copy, in station
        // order. NICs that park this tick counted their blocked flit
        // themselves (`fell`, by ring 0 and the rest).
        let mut fell = [0u64; 2];
        for (w, word) in self.station_active.iter_mut().enumerate() {
            let mut bits = *word;
            while bits != 0 {
                let st = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let slot = self.slots[st];
                for side in 0..slot.sides() {
                    let link = st as u32 * 2 + side as u32;
                    let link_up =
                        !faulty || t.core.faults().is_none_or(|f| f.link_up(link, cycle_now));
                    let quiescent = match slot {
                        Slot::Nic(n) => {
                            let nic = &mut self.nics[n as usize];
                            if !(all_active || nic.ring() == 0) {
                                continue;
                            }
                            if nic.parked {
                                // Listed by an arrival behind its blocked
                                // front, or a PM enqueue: neither changes
                                // what it decides.
                                *word &= !(1 << (st % 64));
                                break;
                            }
                            t.pulse.sides += 1;
                            let (sent, moved, blocked) =
                                (t.sends.len(), t.pulse.moved, t.pulse.blocked);
                            nic.step(&mut t, link_up);
                            if !faulty
                                && t.pulse.blocked != blocked
                                && t.sends.len() == sent
                                && t.pulse.moved == moved
                            {
                                nic.parked = true;
                                self.parked.push(n);
                                let class = usize::from(nic.ring() != 0);
                                self.parked_count[class] += 1;
                                fell[class] += 1;
                                *word &= !(1 << (st % 64));
                                break;
                            }
                            nic.quiescent(t.bufs)
                        }
                        Slot::Iri { x, .. } => {
                            let iri = &mut self.iris[x as usize];
                            if !(all_active || iri.ring(side) == 0) {
                                continue;
                            }
                            t.pulse.sides += 1;
                            let dead = faulty && t.core.faults().is_some_and(|f| f.node_dead(x));
                            iri.step_side(side, &mut t, link_up, dead);
                            iri.quiescent(t.bufs)
                        }
                    };
                    if quiescent {
                        *word &= !(1 << (st % 64));
                        break;
                    }
                }
            }
        }
        // Every NIC parked before this tick counts its blocked flit.
        pulse.blocked += self.parked_count[0] - fell[0];
        if all_active {
            pulse.blocked += self.parked_count[1] - fell[1];
        }
        // Retire packets sunk at dead IRIs this tick: their flits were
        // consumed in place, so only the bookkeeping remains.
        for r in self.sunk.drain(..) {
            core.drop_packet(r, DropReason::DeadInterface);
        }
        for &Send {
            to: (st, side),
            flit,
            ring,
        } in &self.sends
        {
            self.bufs.push(st as usize * 2 + side as usize, flit);
            self.station_active[st as usize / 64] |= 1 << (st % 64);
            self.ring_flits[ring as usize] += 1;
        }
        pulse.moved += self.sends.len() as u64;
        pulse.pushed += self.sends.len() as u64;
        pulse.sent += self.sends.len() as u64;
    }

    /// Latches every transit buffer and crossing queue's registered
    /// flow-control state for the next tick, lists again the parked
    /// NICs whose downstream buffer now shows room, and ends this tick;
    /// counts the FIFOs latched into `pulse.latched`.
    pub fn latch(&mut self, pulse: &mut StepPulse) {
        self.bufs.latch_all();
        let mut k = 0;
        while k < self.parked.len() {
            let nic = &mut self.nics[self.parked[k] as usize];
            let (downstream, own) = nic.fifos();
            if self.bufs.free_latched(downstream) == 0 {
                k += 1;
                continue;
            }
            self.parked.swap_remove(k);
            nic.parked = false;
            self.parked_count[usize::from(nic.ring() != 0)] -= 1;
            let st = own / 2;
            self.station_active[st / 64] |= 1 << (st % 64);
        }
        for iri in &mut self.iris {
            iri.latch();
        }
        pulse.latched += (self.bufs.fifos() + 4 * self.iris.len()) as u64;
        self.tick += 1;
        #[cfg(debug_assertions)]
        self.check_credit_invariant();
    }

    /// Each ring's credits as its buffers leave them: the free slots
    /// of its transit buffers, less those the entries in progress have
    /// reserved for flits they have yet to send.
    fn credits_left(&self) -> Vec<i64> {
        let mut left = vec![0i64; self.ring_credits.len()];
        for (st, &slot) in self.slots.iter().enumerate() {
            for side in 0..slot.sides() {
                let (ring, reserved) = match slot {
                    Slot::Nic(n) => {
                        let nic = &self.nics[n as usize];
                        (nic.ring(), nic.reserved())
                    }
                    Slot::Iri { x, .. } => {
                        let iri = &self.iris[x as usize];
                        (iri.ring(side), iri.reserved(side))
                    }
                };
                let free = self.bufs.capacity() - self.bufs.len(st * 2 + side);
                left[ring as usize] += free as i64 - reserved as i64;
            }
        }
        left
    }

    /// Debug-only: the credit counters must equal what each ring's
    /// buffers leave, and never reach zero.
    #[cfg(debug_assertions)]
    fn check_credit_invariant(&self) {
        let left = self.credits_left();
        for (rid, (&c, &left)) in self.ring_credits.iter().zip(&left).enumerate() {
            assert!(
                c >= 1 && c == left,
                "ring {rid} credit corruption at tick {}: credits={c} left={left}",
                self.tick
            );
        }
    }

    /// Snapshots the stations, the tick, the per-ring flit counts and
    /// credits, the reset tick. The transit buffers latch as they are
    /// read, and a reader puts every station on the worklist: stepping
    /// a quiescent one is a no-op, and it leaves the list again.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on truncated or corrupt input, tables that
    /// do not fit these rings, or credits other than what the buffers
    /// leave (the rule that keeps the rings deadlock-free counts on
    /// them).
    pub fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        c.exact(self.nics.len(), "NIC count")?;
        for nic in &mut self.nics {
            nic.snap(&mut self.bufs, c)?;
        }
        c.exact(self.iris.len(), "IRI count")?;
        for iri in &mut self.iris {
            iri.snap(&mut self.bufs, c)?;
        }
        self.tick.snap(c)?;
        c.fixed(&mut self.ring_flits, "ring count")?;
        c.fixed(&mut self.ring_credits, "ring-credit table size")?;
        self.reset_tick.snap(c)?;
        if c.reading() {
            let left = self.credits_left();
            if self.ring_credits != left || left.iter().any(|&c| c < 1) {
                return Err(SnapError::Corrupt(format!(
                    "ring credits {:?}, the buffers leave {left:?}",
                    self.ring_credits
                )));
            }
            (0..self.slots.len() as u32).for_each(|st| self.wake(st));
            // Parking is not state: every NIC steps once and parks
            // again if it must.
            for n in self.parked.drain(..) {
                self.nics[n as usize].parked = false;
            }
            self.parked_count = [0; 2];
            // Per-tick scratch is always empty between steps.
            self.sends.clear();
            self.sunk.clear();
        }
        Ok(())
    }

    /// Directed ring links out of `station*2 + side` (a side on no ring
    /// is an addressable no-op) and the IRIs, which fail-stop.
    pub fn fault_domain(&self) -> FaultDomain {
        FaultDomain {
            links: self.slots.len() as u32 * 2,
            nodes: self.iris.len() as u32,
        }
    }
}
