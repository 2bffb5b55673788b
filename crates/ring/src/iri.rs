//! The Inter-Ring Interface (Figure 4 of the paper).
//!
//! An IRI joins a child ("lower") ring to its parent ("upper") ring and
//! is modelled as a 2×2 crossbar: each side has a cache-line-sized
//! transit buffer and an output link; packets changing rings pass
//! through class-split *up* (lower→upper) and *down* (upper→lower)
//! queues. Switching on the two sides is independent, and continuing
//! ring traffic has priority over ring-changing traffic.

use ringmesh_net::{FifoBank, FlitFifo, PacketRef, PacketStore, QueueClass};
use ringmesh_snap::{Codec, Snap, SnapError};

use crate::station::{ClassQueues, Disposition, LinkOwner, Send, Tick, TransitRoute};
use crate::topology::SideRef;

/// Side index of the child (lower) ring.
pub(crate) const LOWER: usize = 0;
/// Side index of the parent (upper) ring.
pub(crate) const UPPER: usize = 1;

/// Per-IRI simulation state. The transit buffer of side `s` is FIFO
/// `fifo + s` of the tier's bank. The hybrid network's bridge is one
/// whose upper side is on no ring: its pump drains the up queues into a
/// mesh router and its mesh commit fills the down queues.
#[derive(Debug)]
pub struct Iri {
    subtree: (u32, u32),
    convoy_threshold: usize,
    rings: [u32; 2],
    downstream: [SideRef; 2],
    fifo: usize,
    /// Crossing queues (request/response) by the side the worms left:
    /// `cross[LOWER]` the up queues, `cross[UPPER]` the down queues.
    /// Side `s`'s output link drains `cross[s ^ 1]`.
    cross: [ClassQueues<FlitFifo>; 2],
    owner: [LinkOwner; 2],
    transit: [TransitRoute; 2],
}

impl Iri {
    /// Builds an IRI joining the child ring covering PM interval
    /// `subtree` (half-open) to its parent ring. `rings` and
    /// `downstream` name the `[LOWER, UPPER]` ring ids and downstream
    /// station sides, `fifo` its lower transit buffer in the tier's
    /// bank; the remaining arguments size the crossing queues.
    pub(crate) fn new(
        subtree: (u32, u32),
        rings: [u32; 2],
        downstream: [SideRef; 2],
        fifo: usize,
        up_queue_flits: usize,
        down_queue_flits: usize,
        convoy_threshold: usize,
    ) -> Self {
        let queues = |flits| ClassQueues::new(FlitFifo::new(flits), FlitFifo::new(flits));
        Iri {
            subtree,
            convoy_threshold,
            rings,
            downstream,
            fifo,
            cross: [queues(up_queue_flits), queues(down_queue_flits)],
            owner: [LinkOwner::Idle, LinkOwner::Idle],
            transit: [TransitRoute::default(), TransitRoute::default()],
        }
    }

    /// The ring `side` sits on.
    pub(crate) fn ring(&self, side: usize) -> u32 {
        self.rings[side]
    }

    /// The lower→upper crossing queue of `class`. The hybrid network's
    /// bridge pump drains these into the global mesh.
    pub fn up_queue(&self, class: QueueClass) -> &FlitFifo {
        self.cross[LOWER].get(class)
    }

    /// Mutable form of [`up_queue`](Self::up_queue).
    pub fn up_queue_mut(&mut self, class: QueueClass) -> &mut FlitFifo {
        self.cross[LOWER].get_mut(class)
    }

    /// The packet the lower side is moving into the up queues, if any.
    pub fn crossing_up(&self) -> Option<PacketRef> {
        let route = &self.transit[LOWER];
        route.crossing().then(|| route.packet()).flatten()
    }

    /// The upper→lower crossing queue of `class`. The hybrid network
    /// commits mesh arrivals here and wakes the bridge; its lower
    /// side's step drains them onto the local ring under the credit
    /// rule.
    pub fn down_queue_mut(&mut self, class: QueueClass) -> &mut FlitFifo {
        self.cross[UPPER].get_mut(class)
    }

    /// Flits in the crossing queues that left side `side`.
    fn crossed_flits(&self, side: usize) -> usize {
        let qs = &self.cross[side];
        qs.get(QueueClass::Request).len() + qs.get(QueueClass::Response).len()
    }

    /// Total flits in the four crossing queues (occupancy gauge probe).
    pub(crate) fn queue_flits(&self) -> usize {
        self.crossed_flits(LOWER) + self.crossed_flits(UPPER)
    }

    /// True when a step of either crossbar side is provably a no-op:
    /// both transit buffers and all four crossing queues are empty, no
    /// worm holds an output link, and no route decision is latched.
    /// Such an IRI can be skipped until a flit arrives on a buffer or
    /// queue (which always goes through the tier's send commit, or is
    /// followed by a `RingTier::wake`).
    pub(crate) fn quiescent(&self, bufs: &FifoBank) -> bool {
        bufs.is_empty(self.fifo)
            && bufs.is_empty(self.fifo + 1)
            && self.queue_flits() == 0
            && self.owner.iter().all(|o| matches!(o, LinkOwner::Idle))
            && self.transit.iter().all(|t| t.packet().is_none())
    }

    fn inside(&self, dst: u32) -> bool {
        (self.subtree.0..self.subtree.1).contains(&dst)
    }

    /// One clock of one crossbar side. On the lower side the crossing
    /// target is the up queue and the crossing source the down queue;
    /// on the upper side the reverse.
    ///
    /// Every link transfer needs one of the downstream station's
    /// registered free slots per flit. `t.credits` tracks each ring's
    /// total free transit slots: a flit may *enter* this side's ring
    /// from a crossing queue only while at least two such slots remain
    /// (the credit rule, as at the NICs).
    /// Down (parent→child) queues are elastic, so a descending worm
    /// never stalls in its parent ring's transit buffer waiting on a
    /// full queue; together with the credit rule this keeps the
    /// hierarchy deadlock-free by induction from the root ring
    /// (DESIGN.md, "Model fidelity notes"). Up queues are finite and
    /// back-pressure ascending traffic without risking a cycle.
    ///
    /// `link_up` gates this side's output link only. `dead` marks a
    /// fail-stop IRI: packets already forwarding, queued or draining
    /// keep moving (lazy fail-stop), but a packet newly classified as
    /// *crossing* here has nowhere to go — its flits are sunk in place
    /// and its packet reported through `t.sunk` for the tier to
    /// retire as an explicit drop.
    pub(crate) fn step_side(&mut self, side: usize, t: &mut Tick<'_>, link_up: bool, dead: bool) {
        let (now, store, buf) = (t.now, t.core.store(), self.fifo + side);
        let this_ring = self.rings[side] as usize;
        // A downed output link advertises no room: forwarding and cross
        // injection onto the ring stall in place, losing nothing.
        let free_out = t.free_at(self.downstream[side], link_up);
        let go_transit = free_out >= 1;
        // Classify the packet at the front of this side's transit buffer.
        // The paths below pop it only under exclusive dispositions (the
        // sink and crossing paths under theirs, the output link only while
        // forwarding), so this one read serves them all.
        let front = t.bufs.front(buf);
        if let Some(flit) = front {
            if self.transit[side].packet() != Some(flit.packet) {
                debug_assert!(flit.is_head(), "mid-packet flit without a route");
                let dst = store.get(flit.packet).dst.raw();
                let crossing = if side == LOWER {
                    !self.inside(dst) // leave the subtree upward
                } else {
                    self.inside(dst) // descend into the subtree
                };
                let disposition = if !crossing {
                    Disposition::Forward
                } else if dead {
                    Disposition::Sink
                } else {
                    Disposition::Cross
                };
                self.transit[side].set(flit.packet, disposition);
            }
        }

        // Sink path: a crossing-bound worm met a dead IRI. Its flits
        // are consumed in place (restoring ring credits so the loss
        // does not leak capacity) and the packet is reported at its
        // tail for the tier to drop-account.
        if self.transit[side].sinking() {
            if let Some(flit) = t.bufs.pop(buf) {
                t.credits[this_ring] += 1; // the flit left this ring
                t.pulse.moved += 1;
                if flit.is_tail {
                    self.transit[side].clear();
                    t.sunk.push(flit.packet);
                }
            }
        }

        // Crossing path: one flit per cycle from this side's transit
        // buffer into the up (lower side) or down (upper side) queue,
        // gated by the queue's registered occupancy.
        if self.transit[side].crossing() {
            if let Some(flit) = front {
                let class = QueueClass::of(store.get(flit.packet).kind);
                let q = self.cross[side].get_mut(class);
                if q.space_latched() {
                    let flit = t.bufs.pop(buf).expect("front was ready");
                    t.credits[this_ring] += 1; // the flit left this ring
                    if flit.is_head() {
                        t.pulse.crossed += 1;
                    }
                    if flit.is_tail {
                        self.transit[side].clear();
                    }
                    q.push(flit, now);
                    t.pulse.moved += 1;
                } else {
                    t.pulse.blocked += 1;
                }
            }
        }

        // Output link of this side: transit has priority; then packets
        // entering this ring from the other ring (responses first).
        let ring = self.rings[side];
        let to = self.downstream[side];
        match self.owner[side] {
            LinkOwner::Transit => {
                if go_transit {
                    if let Some(flit) = t.bufs.pop(buf) {
                        debug_assert_eq!(Some(flit.packet), self.transit[side].packet());
                        if flit.is_tail {
                            self.owner[side] = LinkOwner::Idle;
                            self.transit[side].clear();
                        }
                        t.sends.push(Send { to, flit, ring });
                    }
                } else if front.is_some() {
                    t.pulse.blocked += 1;
                }
            }
            LinkOwner::Cross(class) => {
                // Buffer space and credits for the whole worm were
                // reserved at start and the worm is entirely in the
                // queue, so continuation is unconditional while the
                // link is up. A downed link pauses the worm mid-entry;
                // the reserved downstream space keeps the pause
                // loss-free.
                if link_up {
                    if let Some(flit) = self.cross[side ^ 1].get_mut(class).pop_ready(now) {
                        if flit.is_tail {
                            self.owner[side] = LinkOwner::Idle;
                        }
                        t.sends.push(Send { to, flit, ring });
                    }
                } else {
                    t.pulse.blocked += 1;
                }
            }
            LinkOwner::Idle => {
                // Continuing ring traffic normally has priority over
                // ring-changing traffic (§2.1). When a crossing queue
                // backs up beyond what the paper's one-packet buffers
                // could ever hold, its drain takes priority instead:
                // this recreates the backpressure a finite buffer would
                // exert (upstream transit stalls), pacing the sources
                // and preventing unbounded convoys.
                let backlogged = self.crossed_flits(side ^ 1) > self.convoy_threshold;
                let transit_ready = self.transit[side].forwarding() && front.is_some();
                if transit_ready && !backlogged {
                    if go_transit {
                        let flit = t.bufs.pop(buf).expect("front was ready");
                        if flit.is_tail {
                            self.transit[side].clear();
                        } else {
                            self.owner[side] = LinkOwner::Transit;
                        }
                        t.sends.push(Send { to, flit, ring });
                    }
                } else if let Some(class) =
                    self.next_cross_injection(side, now, free_out, t.credits[this_ring], store)
                {
                    let q = self.cross[side ^ 1].get_mut(class);
                    let flit = q.pop_ready(now).expect("front checked");
                    debug_assert!(flit.is_head(), "cross queue must start at a head flit");
                    t.credits[this_ring] -= i64::from(store.get(flit.packet).flits);
                    if !flit.is_tail {
                        self.owner[side] = LinkOwner::Cross(class);
                    }
                    t.sends.push(Send { to, flit, ring });
                } else if transit_ready && go_transit {
                    // Backlogged but nothing can cross yet: let transit
                    // continue rather than idle the link.
                    let flit = t.bufs.pop(buf).expect("front was ready");
                    if flit.is_tail {
                        self.transit[side].clear();
                    } else {
                        self.owner[side] = LinkOwner::Transit;
                    }
                    t.sends.push(Send { to, flit, ring });
                } else if transit_ready {
                    t.pulse.blocked += 1;
                }
            }
        }
    }

    /// Which crossing class can start on `side`'s output link: responses
    /// beat requests. A class is ready when (a) its queue's front flit
    /// has satisfied the one-cycle switch delay, (b) the *whole* front
    /// worm is already in the queue — so the entry never waits on flits
    /// still crossing the other ring, (c) the downstream transit buffer
    /// has latched room for all of it, and (d) the ring's credits cover
    /// it with one to spare. A started entry therefore completes
    /// unconditionally, which is what makes the hierarchy live.
    fn next_cross_injection(
        &self,
        side: usize,
        now: u64,
        free_out: usize,
        credits: i64,
        store: &PacketStore,
    ) -> Option<QueueClass> {
        for class in [QueueClass::Response, QueueClass::Request] {
            let q = self.cross[side ^ 1].get(class);
            if let Some(flit) = q.front_ready(now) {
                if !q.has_complete_packet() {
                    continue;
                }
                let flits = store.get(flit.packet).flits;
                if free_out >= flits as usize && credits > i64::from(flits) {
                    return Some(class);
                }
            }
        }
        None
    }

    /// Ring slots `side`'s entry in progress has reserved for the flits
    /// it has yet to send: the rest of the worm at the front of the
    /// queue it drains.
    pub(crate) fn reserved(&self, side: usize) -> usize {
        let LinkOwner::Cross(class) = self.owner[side] else {
            return 0;
        };
        let q = self.cross[side ^ 1].get(class);
        q.iter().position(|f| f.is_tail).map_or(q.len(), |i| i + 1)
    }

    /// Latches the four crossing queues (the transit buffers latch
    /// with the tier's bank).
    pub(crate) fn latch(&mut self) {
        self.cross[LOWER].each_mut(FlitFifo::latch);
        self.cross[UPPER].each_mut(FlitFifo::latch);
    }

    /// Snapshots both transit buffers (FIFOs `fifo` and `fifo + 1`
    /// of `bufs`), the crossing queues, the link owners and the routes.
    /// A route steers its side's transit buffer, and claims its
    /// packet's destination is in the subtree exactly when it stays on
    /// the lower ring or descends from the upper one.
    ///
    /// # Errors
    ///
    /// As the parts', and [`SnapError::Corrupt`] for a link owner part
    /// way through a worm from a crossing queue whose front is not the
    /// middle of a worm: the link would send another packet's flits
    /// into the worm.
    pub(crate) fn snap<C: Codec>(
        &mut self,
        bufs: &mut FifoBank,
        c: &mut C,
    ) -> Result<(), SnapError> {
        let run = c.census().map(|census| census.runs.len());
        bufs.snap_fifo(self.fifo, c)?;
        bufs.snap_fifo(self.fifo + 1, c)?;
        self.cross.snap(c)?;
        self.owner.snap(c)?;
        for (side, owner) in self.owner.into_iter().enumerate() {
            if let LinkOwner::Cross(class) = owner {
                let front = self.cross[side ^ 1].get(class).iter().next();
                if front.is_none_or(|f| f.is_head()) {
                    return Err(SnapError::Corrupt(format!(
                        "IRI side {side}: a worm part way onto the ring from a {class:?} \
                         queue whose front is {front:?}"
                    )));
                }
            }
        }
        self.transit.snap(c)?;
        for (side, route) in self.transit.iter().enumerate() {
            route.steer(c, run.map(|run| run + side));
        }
        let subtree = self.subtree.0..self.subtree.1;
        self.transit[LOWER].claim(c, subtree.clone(), false);
        self.transit[UPPER].claim(c, subtree, true);
        Ok(())
    }
}
