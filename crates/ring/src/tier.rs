//! The ring tier: NIC and IRI stations on uni-directional rings, owned
//! and stepped once, under the hierarchical ring and under the hybrid's
//! local rings alike.

use ringmesh_faults::{DropReason, FaultDomain, FaultInjector};
use ringmesh_net::{NetCore, NodeId, Packet, PacketRef, QueueClass};
use ringmesh_snap::{SnapError, SnapReader, SnapWriter, Snapshot, SnapshotState};

use crate::iri::Iri;
use crate::nic::Nic;
use crate::station::{Send, StepPulse, Tick};
use crate::topology::{SideRef, StationKind};
use crate::RingConfig;

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

/// The stations of a set of rings and everything they share: the
/// active-station worklist, the registered free-slot counts, per-ring
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
    /// Active-station worklist: `station_active[st]` is false only
    /// while station `st` is provably quiescent (`Nic::quiescent` /
    /// `Iri::quiescent`), letting the tick skip idle stations under
    /// light load. Set true again by any arriving flit or by
    /// [`wake`](RingTier::wake).
    station_active: Vec<bool>,
    /// Registered free-slot count of every station side's transit
    /// buffer (`station*2 + side`).
    free: Vec<usize>,
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
    /// Panics if `map` lists NICs out of PM order, or a station's lower
    /// side is on no ring.
    pub fn new(map: &impl StationMap, cfg: &RingConfig) -> Self {
        let n_st = map.num_stations();
        let buf_flits = cfg.ring_buffer_flits();
        let convoy = cfg
            .convoy_threshold_packets
            .saturating_mul(cfg.format.cl_packet_flits(cfg.cache_line) as usize);
        // Sized up front: a station is a few hundred bytes, and growing
        // the tables by doubling would copy each several times.
        let is_nic = |&st: &u32| matches!(map.station(st), StationKind::Nic { .. });
        let pms = (0..n_st as u32).filter(is_nic).count();
        let mut tier = RingTier {
            slots: Vec::with_capacity(n_st),
            nics: Vec::with_capacity(pms),
            iris: Vec::with_capacity(n_st - pms),
            station_active: vec![true; n_st],
            free: vec![buf_flits; n_st * 2],
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
                    tier.nics
                        .push(Nic::new(pm, ring, next, buf_flits, cfg.out_queue_packets));
                    Slot::Nic(pm.raw())
                }
                StationKind::Iri { subtree } => {
                    let x = tier.iris.len() as u32;
                    let (ring, next) = upper.unwrap_or(lower);
                    tier.iris.push(Iri::new(
                        subtree,
                        [lower.0, ring],
                        [lower.1, next],
                        buf_flits,
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
        self.station_active[st as usize] = true;
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
        let transit = self.nics.iter().map(|n| n.buf().len());
        let iri = self.iris.iter().map(|i| i.buf(0).len() + i.buf(1).len());
        let queued = self.iris.iter().map(Iri::queue_flits).sum();
        (transit.chain(iri).sum(), queued)
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
        self.sends.clear();
        let mut t = Tick {
            now,
            free: &self.free,
            credits: &mut self.ring_credits,
            core,
            sends: &mut self.sends,
            delivered,
            sunk: &mut self.sunk,
            pulse,
        };
        for st in 0..self.slots.len() {
            let slot = self.slots[st];
            for side in 0..slot.sides() {
                // Skip provably-idle stations; a skipped step is a
                // no-op by construction (see `Nic::quiescent` /
                // `Iri::quiescent`), so the tick stream is identical to
                // stepping everything.
                if !self.station_active[st] {
                    break;
                }
                // Fault view for this side: the output link `station*2
                // + side`, and (for IRIs) whether the interface is dead.
                let faults = t.core.faults();
                let link = st as u32 * 2 + side as u32;
                let link_up = faults.is_none_or(|f| f.link_up(link, cycle_now));
                let quiescent = match slot {
                    Slot::Nic(n) => {
                        let nic = &mut self.nics[n as usize];
                        if !(all_active || nic.ring() == 0) {
                            continue;
                        }
                        nic.step(&mut t, link_up);
                        nic.quiescent()
                    }
                    Slot::Iri { x, .. } => {
                        let iri = &mut self.iris[x as usize];
                        if !(all_active || iri.ring(side) == 0) {
                            continue;
                        }
                        let dead = faults.is_some_and(|f| f.node_dead(x));
                        iri.step_side(side, &mut t, link_up, dead);
                        iri.quiescent()
                    }
                };
                if quiescent {
                    self.station_active[st] = false;
                }
            }
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
            match self.slots[st as usize] {
                Slot::Nic(n) => self.nics[n as usize].buf_mut().push(flit, now),
                Slot::Iri { x, .. } => self.iris[x as usize].buf_mut(side as usize).push(flit, now),
            }
            self.station_active[st as usize] = true;
            self.ring_flits[ring as usize] += 1;
        }
        pulse.moved += self.sends.len() as u64;
    }

    /// Latches every station's registered flow-control state for the
    /// next tick and ends this one.
    pub fn latch(&mut self) {
        for (st, slot) in self.slots.iter().enumerate() {
            match *slot {
                Slot::Nic(n) => self.free[st * 2] = self.nics[n as usize].latch(),
                Slot::Iri { x, .. } => {
                    let (lo, up) = self.iris[x as usize].latch();
                    self.free[st * 2] = lo;
                    self.free[st * 2 + 1] = up;
                }
            }
        }
        self.tick += 1;
        #[cfg(debug_assertions)]
        self.check_credit_invariant();
    }

    /// Debug-only: the credit counters must equal each ring's actual
    /// free transit-buffer slots.
    #[cfg(debug_assertions)]
    fn check_credit_invariant(&self) {
        let mut free = vec![0i64; self.ring_credits.len()];
        for &slot in &self.slots {
            for side in 0..slot.sides() {
                let (ring, buf) = match slot {
                    Slot::Nic(n) => (self.nics[n as usize].ring(), self.nics[n as usize].buf()),
                    Slot::Iri { x, .. } => {
                        let iri = &self.iris[x as usize];
                        (iri.ring(side), iri.buf(side))
                    }
                };
                free[ring as usize] += (buf.capacity() - buf.len()) as i64;
            }
        }
        // Credits equal capacity minus occupancy minus slots still
        // reserved by in-progress entries, so they are bounded by the
        // actual free count and must never hit zero.
        for (rid, (&c, &free)) in self.ring_credits.iter().zip(&free).enumerate() {
            assert!(
                c >= 1 && c <= free,
                "ring {rid} credit corruption at tick {}: credits={c} free={free}",
                self.tick
            );
        }
    }

    /// Writes the stations, the worklist, the latched free counts, the
    /// tick, the per-ring flit counts and credits, the reset tick.
    pub fn save(&self, w: &mut SnapWriter) {
        w.usize(self.nics.len());
        for nic in &self.nics {
            nic.save_state(w);
        }
        w.usize(self.iris.len());
        for iri in &self.iris {
            iri.save_state(w);
        }
        self.station_active.save(w);
        self.free.save(w);
        w.u64(self.tick);
        self.ring_flits.save(w);
        self.ring_credits.save(w);
        w.u64(self.reset_tick);
    }

    /// Reads back what [`save`](Self::save) wrote.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on truncated or corrupt input, or tables
    /// that do not fit these rings.
    pub fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.len_exact(self.nics.len(), "NIC count")?;
        for nic in &mut self.nics {
            nic.restore_state(r)?;
        }
        r.len_exact(self.iris.len(), "IRI count")?;
        for iri in &mut self.iris {
            iri.restore_state(r)?;
        }
        self.station_active = r.vec_exact(self.station_active.len(), "station count")?;
        self.free = r.vec_exact(self.free.len(), "free-slot table size")?;
        self.tick = r.u64()?;
        self.ring_flits = r.vec_exact(self.ring_flits.len(), "ring count")?;
        self.ring_credits = r.vec_exact(self.ring_credits.len(), "ring-credit table size")?;
        self.reset_tick = r.u64()?;
        // Per-tick scratch is always empty between steps.
        self.sends.clear();
        self.sunk.clear();
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
