//! The ring Network Interface Controller (Figure 3 of the paper).
//!
//! A NIC switches (1) incoming ring packets destined to the local PM
//! onto the ejection path, (2) outgoing packets from the PM onto the
//! ring, and (3) continuing transit packets from the input link to the
//! output link through a cache-line-sized ring (bypass) buffer. The
//! output link gives priority to transit traffic; among local packets
//! responses beat requests.

use ringmesh_faults::DropReason;
use ringmesh_net::{
    Assembler, DrainState, FifoBank, NodeId, PacketQueue, PacketRef, PacketStore, QueueClass,
};
use ringmesh_snap::{Codec, Snap, SnapError};

use crate::station::{ClassQueues, Disposition, LinkOwner, Send, Tick, TransitRoute};
use crate::topology::SideRef;
use crate::OUT_QUEUE_PACKETS;

/// Per-NIC simulation state. Its transit (bypass) buffer is FIFO
/// `fifo` of the tier's bank, where the tier's send commit pushes the
/// flits arriving on the input link.
#[derive(Debug)]
pub(crate) struct Nic {
    pm: NodeId,
    ring: u32,
    downstream: SideRef,
    fifo: usize,
    out: ClassQueues<PacketQueue>,
    drain: DrainState,
    owner: LinkOwner,
    transit: TransitRoute,
    assembler: Assembler,
}

impl Nic {
    /// Builds the NIC attaching `pm` to ring `ring`, with its transit
    /// buffer at `fifo` in the tier's bank and its output link feeding
    /// the `downstream` station side.
    pub(crate) fn new(pm: NodeId, ring: u32, downstream: SideRef, fifo: usize) -> Self {
        Nic {
            pm,
            ring,
            downstream,
            fifo,
            out: ClassQueues::new(
                PacketQueue::new(OUT_QUEUE_PACKETS),
                PacketQueue::new(OUT_QUEUE_PACKETS),
            ),
            drain: DrainState::idle(),
            owner: LinkOwner::Idle,
            transit: TransitRoute::default(),
            assembler: Assembler::new(),
        }
    }

    /// The ring this NIC sits on.
    pub(crate) fn ring(&self) -> u32 {
        self.ring
    }

    /// Whether the PM-side output queue for `class` can accept a packet.
    pub(crate) fn can_accept(&self, class: QueueClass) -> bool {
        self.out.get(class).can_accept()
    }

    /// Enqueues an outgoing packet from the PM.
    pub(crate) fn enqueue(&mut self, class: QueueClass, r: PacketRef) {
        self.out.get_mut(class).push(r);
    }

    /// One clock of the NIC. Every link transfer needs one of the
    /// downstream station's registered free slots per flit.
    /// `t.credits` tracks each ring's total free transit slots: a flit
    /// may *enter* the ring (from the PM) only while at least two such
    /// slots remain, so one free slot always circulates,
    /// forwarding always progresses, and every packet monotonically
    /// reaches its exit station — the credit rule that keeps the
    /// uni-directional rings deadlock-free (DESIGN.md, "Model fidelity
    /// notes"). Emits at most one flit on the output link (into
    /// `t.sends`) and at most one flit onto the ejection path.
    ///
    /// `link_up` gates the output link only: while the downstream link
    /// is transiently down no flit leaves the station, but the ejection
    /// path keeps draining (it is a separate wire in Figure 3).
    /// A packet whose payload the core marked as corrupted in flight
    /// is dropped at reassembly instead of delivered.
    pub(crate) fn step(&mut self, t: &mut Tick<'_>, link_up: bool) {
        let (to, ring, buf) = (self.downstream, self.ring, self.fifo);
        let this_ring = ring as usize;
        // A downed output link advertises no room: transit forwarding
        // and new injections stall in place, losing nothing.
        let free_out = t.free_at(to, link_up);
        let go_transit = free_out >= 1;
        // Classify the packet at the front of the ring buffer (decided
        // once, at its head flit). The ejection path pops it only while
        // crossing and the output link only while forwarding, so this
        // one read serves both.
        let front = t.bufs.front(buf);
        if let Some(flit) = front {
            if self.transit.packet() != Some(flit.packet) {
                debug_assert!(flit.is_head(), "mid-packet flit without a route");
                let eject = t.core.store().get(flit.packet).dst == self.pm;
                let disposition = if eject {
                    Disposition::Cross
                } else {
                    Disposition::Forward
                };
                self.transit.set(flit.packet, disposition);
            }
        }

        // Ejection path: one flit per cycle from the ring buffer to the
        // PM. This is independent of the output link (Figure 3 shows
        // separate paths), so it can proceed while the PM injects.
        if self.transit.crossing() {
            if let Some(flit) = t.bufs.pop(buf) {
                t.credits[this_ring] += 1; // the flit left the ring
                t.pulse.moved += 1;
                if flit.is_tail {
                    self.transit.clear();
                }
                if let Some(done) = self.assembler.push(flit) {
                    if t.core.corrupt().get(done.slot()) == Some(&true) {
                        t.core.drop_packet(done, DropReason::Corrupted);
                    } else {
                        t.core.deliver(done, self.pm, t.delivered);
                    }
                }
            }
        }

        // Output link: at most one flit per cycle toward the downstream
        // neighbour, gated by its registered stop/go.
        match self.owner {
            LinkOwner::Transit => {
                if go_transit {
                    if let Some(flit) = t.bufs.pop(buf) {
                        debug_assert_eq!(Some(flit.packet), self.transit.packet());
                        if flit.is_tail {
                            self.owner = LinkOwner::Idle;
                            self.transit.clear();
                        }
                        t.sends.push(Send { to, flit, ring });
                    }
                } else if front.is_some() {
                    t.pulse.blocked += 1;
                }
            }
            LinkOwner::Cross(_) => {
                // The injection drain: buffer space and credits for the
                // whole worm were reserved at start, and the packet is
                // held locally, so continuation is unconditional while
                // the link is up — an entering worm never stalls
                // holding the link. A downed link pauses the worm
                // mid-entry; the reserved downstream space keeps the
                // pause loss-free.
                if link_up {
                    let flit = self.drain.emit();
                    if flit.is_tail {
                        self.owner = LinkOwner::Idle;
                    }
                    t.sends.push(Send { to, flit, ring });
                } else {
                    t.pulse.blocked += 1;
                }
            }
            LinkOwner::Idle => {
                if self.transit.forwarding() && front.is_some() {
                    // Transit traffic has priority on the output link.
                    if go_transit {
                        let flit = t.bufs.pop(buf).expect("front was ready");
                        if flit.is_tail {
                            self.transit.clear();
                        } else {
                            self.owner = LinkOwner::Transit;
                        }
                        t.sends.push(Send { to, flit, ring });
                    } else {
                        t.pulse.blocked += 1;
                    }
                } else if let Some(class) =
                    self.next_injection(free_out, t.credits[this_ring], t.core.store())
                {
                    let r = self.out.get_mut(class).pop().expect("front checked");
                    t.core.room_at(self.pm);
                    let flits = t.core.store().get(r).flits;
                    t.credits[this_ring] -= i64::from(flits);
                    self.drain.begin(r, flits);
                    let flit = self.drain.emit();
                    if !flit.is_tail {
                        self.owner = LinkOwner::Cross(class);
                    }
                    t.sends.push(Send { to, flit, ring });
                }
            }
        }
    }

    /// Which class can start injecting: responses beat requests (§2.1).
    /// A worm may start entering the ring only if the downstream
    /// transit buffer has latched room for all of it (it then never
    /// stalls mid-entry) and the ring's free-slot credits cover it with
    /// one to spare (a free slot always keeps circulating).
    fn next_injection(
        &self,
        free_out: usize,
        credits: i64,
        store: &PacketStore,
    ) -> Option<QueueClass> {
        for class in [QueueClass::Response, QueueClass::Request] {
            if let Some(r) = self.out.get(class).front() {
                let flits = store.get(r).flits;
                if free_out >= flits as usize && credits > i64::from(flits) {
                    return Some(class);
                }
            }
        }
        None
    }

    /// Ring slots this NIC's entry in progress has reserved for the
    /// flits it has yet to send.
    pub(crate) fn reserved(&self) -> usize {
        self.drain
            .progress()
            .map_or(0, |(_, next, total)| total.saturating_sub(next) as usize)
    }

    /// True when a step of this NIC is provably a no-op: the transit
    /// buffer is empty, no worm is mid-entry on the output link, and
    /// nothing is queued at the PM boundary. Non-empty PM queues keep
    /// the NIC active even when everything else is idle — injection
    /// eligibility depends on downstream free space and ring credits,
    /// both of which change without touching this station.
    pub(crate) fn quiescent(&self, bufs: &FifoBank) -> bool {
        bufs.is_empty(self.fifo)
            && matches!(self.owner, LinkOwner::Idle)
            && !self.drain.is_active()
            && self.transit.packet().is_none()
            && self.out.get(QueueClass::Request).is_empty()
            && self.out.get(QueueClass::Response).is_empty()
    }

    /// Snapshots the transit buffer (FIFO `fifo` of `bufs`), the PM
    /// queues, the injection drain, the link owner, the route (which
    /// steers the transit buffer's front, and claims its packet is for
    /// this PM exactly when it ejects here) and the reassembly state
    /// (whose packet is for this PM).
    pub(crate) fn snap<C: Codec>(
        &mut self,
        bufs: &mut FifoBank,
        c: &mut C,
    ) -> Result<(), SnapError> {
        let run = c.census().map(|census| census.runs.len());
        bufs.snap_fifo(self.fifo, c)?;
        self.out.snap(c)?;
        self.drain.snap(c)?;
        self.owner.snap(c)?;
        self.transit.snap(c)?;
        self.transit.steer(c, run);
        let pm = self.pm.raw();
        self.transit.claim(c, pm..pm + 1, true);
        self.assembler.snap(c)?;
        if let Some(r) = self.assembler.packet() {
            c.report(|census| census.claims.push((r.slot() as u32, pm..pm + 1, true)));
        }
        Ok(())
    }
}
