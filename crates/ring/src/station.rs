//! Small shared pieces of ring station state.

use std::ops::Range;

use ringmesh_net::{FifoBank, Flit, NetCore, NodeId, Packet, PacketRef, QueueClass};
use ringmesh_snap::{Codec, Snap, SnapError};
use ringmesh_trace::{Tracer, Work};

use crate::topology::SideRef;

/// A flit transfer decided this cycle, applied after all stations have
/// stepped (so everyone sees consistent registered state).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Send {
    /// Receiving station side (its transit buffer).
    pub(crate) to: SideRef,
    /// The flit on the wire.
    pub(crate) flit: Flit,
    /// Ring carrying the transfer (for utilization accounting).
    pub(crate) ring: u32,
}

/// Flit-movement and host-work counts accumulated while stations step
/// one tick: the watchdog consumes `moved`; the tracer (when enabled)
/// consumes the rest.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepPulse {
    /// Flits that advanced off a transit buffer or crossing queue
    /// (ejections and queue entries; link transfers are counted by the
    /// send-commit loop).
    pub moved: u64,
    /// Station sides whose ready front flit could not advance this
    /// tick (downstream buffer full, or a full up queue).
    pub blocked: u64,
    /// Packets (counted at their head flit) that entered an IRI
    /// crossing queue, i.e. began changing rings.
    pub crossed: u64,
    /// Station sides stepped (host work).
    pub sides: u64,
    /// Flits sent over a ring link (host work).
    pub sent: u64,
    /// Flits pushed into a transit buffer or crossing queue (host
    /// work).
    pub pushed: u64,
    /// Transit buffers and crossing queues latched (host work).
    pub latched: u64,
}

impl StepPulse {
    /// Hands the host-work counts to `tracer`: side steps, link flits
    /// (every send is one), FIFO pushes and latches.
    pub fn report_work(&self, tracer: &mut Tracer) {
        tracer.work(Work::RingSides, self.sides);
        tracer.work(Work::LinkFlits, self.sent);
        tracer.work(Work::FifoPushes, self.pushed);
        tracer.work(Work::FifoLatches, self.latched);
    }
}

/// What the stations stepped in one tick share: the clock, the transit
/// buffers, the ring entry credits, the network core and the tick's
/// outputs.
#[derive(Debug)]
pub(crate) struct Tick<'a> {
    /// The kernel tick being stepped.
    pub(crate) now: u64,
    /// Every station side's transit buffer, FIFO `station*2 + side`.
    /// A station pops its own; what upstream stations may send reads
    /// the occupancy latched at the end of the last tick.
    pub(crate) bufs: &'a mut FifoBank,
    /// Free transit flit slots per ring: a flit may *enter* a ring
    /// only while at least two remain (see [`Nic::step`]).
    ///
    /// [`Nic::step`]: crate::nic::Nic::step
    pub(crate) credits: &'a mut [i64],
    /// The owning network's core: the packet store the stations read
    /// routes and lengths from, and where an ejecting NIC retires its
    /// packet as delivered, or as dropped when it is marked corrupt.
    pub(crate) core: &'a mut NetCore,
    /// Link transfers decided this tick.
    pub(crate) sends: &'a mut Vec<Send>,
    /// Packets delivered this cycle.
    pub(crate) delivered: &'a mut Vec<(NodeId, Packet)>,
    /// Packets whose tail was sunk at a dead IRI this tick, for the
    /// tier to retire once every station has stepped.
    pub(crate) sunk: &'a mut Vec<PacketRef>,
    /// Flit-movement counts of the cycle.
    pub(crate) pulse: &'a mut StepPulse,
}

impl Tick<'_> {
    /// The registered free slots of station side `to`'s transit buffer
    /// as seen over a link that is `up`: a downed link advertises none.
    pub(crate) fn free_at(&self, (st, side): SideRef, up: bool) -> usize {
        if up {
            self.bufs.free_latched(st as usize * 2 + side as usize)
        } else {
            0
        }
    }
}

/// Who currently owns an output link. Wormhole switching holds the link
/// from a packet's head flit to its tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LinkOwner {
    /// Link free.
    Idle,
    /// Forwarding a transit packet from the ring buffer.
    Transit,
    /// Injecting a packet that is changing rings (or entering from the
    /// PM), from the queue of the given class.
    Cross(QueueClass),
}

/// What the packet at the front of a transit buffer does at this
/// station.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum Disposition {
    /// Continues around the current ring.
    #[default]
    Forward,
    /// Leaves the ring here: ejects to the PM, or enters an IRI
    /// crossing queue.
    Cross,
    /// Consumed in place: the packet needs to change rings here but the
    /// IRI is dead, so its flits are sunk and the packet is accounted
    /// as an explicit drop.
    Sink,
}

/// Routing disposition of the packet currently at the front of a
/// transit buffer: decided once at its head flit, held until the tail.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TransitRoute {
    current: Option<(PacketRef, Disposition)>,
}

impl TransitRoute {
    pub(crate) fn packet(&self) -> Option<PacketRef> {
        self.current.map(|(r, _)| r)
    }

    /// Whether the current front packet leaves the ring at this station
    /// (ejects to the PM, or crosses up/down at an IRI).
    pub(crate) fn crossing(&self) -> bool {
        matches!(self.current, Some((_, Disposition::Cross)))
    }

    /// Whether the current front packet continues around the ring.
    pub(crate) fn forwarding(&self) -> bool {
        matches!(self.current, Some((_, Disposition::Forward)))
    }

    /// Whether the current front packet is being sunk at a dead IRI.
    pub(crate) fn sinking(&self) -> bool {
        matches!(self.current, Some((_, Disposition::Sink)))
    }

    pub(crate) fn set(&mut self, packet: PacketRef, disposition: Disposition) {
        self.current = Some((packet, disposition));
    }

    pub(crate) fn clear(&mut self) {
        self.current = None;
    }

    /// Reports the route to the census as the one that steers the front
    /// of `run`, the census's index of the transit buffer's run.
    pub(crate) fn steer<C: Codec>(&self, c: &mut C, run: Option<usize>) {
        if let Some(run) = run {
            let held = self.packet().map(|r| r.slot() as u32);
            c.report(|census| census.routed.push((run, held)));
        }
    }

    /// Reports the route to the census as the claim its disposition
    /// makes of the packet's destination, at a station where a worm
    /// leaves the ring exactly when its destination is inside `pms`
    /// (`leave_inside`) or outside it. A sink claims nothing.
    pub(crate) fn claim<C: Codec>(&self, c: &mut C, pms: Range<u32>, leave_inside: bool) {
        if let Some((r, d @ (Disposition::Forward | Disposition::Cross))) = self.current {
            let inside = (d == Disposition::Cross) == leave_inside;
            c.report(|census| census.claims.push((r.slot() as u32, pms, inside)));
        }
    }
}

impl Snap for LinkOwner {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        let (mut tag, mut class) = match *self {
            LinkOwner::Idle => (0u8, QueueClass::Request),
            LinkOwner::Transit => (1, QueueClass::Request),
            LinkOwner::Cross(class) => (2, class),
        };
        tag.snap(c)?;
        *self = match tag {
            0 => LinkOwner::Idle,
            1 => LinkOwner::Transit,
            2 => {
                class.snap(c)?;
                LinkOwner::Cross(class)
            }
            t => return Err(SnapError::Corrupt(format!("invalid link owner tag {t}"))),
        };
        Ok(())
    }
}

impl Snap for Disposition {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        use Disposition::*;
        c.variant(self, &[Forward, Cross, Sink], "disposition")
    }
}

impl Snap for TransitRoute {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        self.current.snap(c)?;
        if let Some((r, Disposition::Sink)) = self.current {
            // A sink at a dead IRI consumes the packet where it stands.
            c.report(|census| census.consumed.push(r.slot() as u32));
        }
        Ok(())
    }
}

/// A request/response pair of queues (the paper splits every
/// injection-side buffer by class and gives responses priority).
#[derive(Debug, Clone)]
pub(crate) struct ClassQueues<Q> {
    request: Q,
    response: Q,
}

impl<Q> ClassQueues<Q> {
    pub(crate) fn new(request: Q, response: Q) -> Self {
        ClassQueues { request, response }
    }

    pub(crate) fn get(&self, class: QueueClass) -> &Q {
        match class {
            QueueClass::Request => &self.request,
            QueueClass::Response => &self.response,
        }
    }

    pub(crate) fn get_mut(&mut self, class: QueueClass) -> &mut Q {
        match class {
            QueueClass::Request => &mut self.request,
            QueueClass::Response => &mut self.response,
        }
    }

    pub(crate) fn each_mut(&mut self, mut f: impl FnMut(&mut Q)) {
        f(&mut self.response);
        f(&mut self.request);
    }
}

/// Responses first.
impl<Q: Snap> Snap for ClassQueues<Q> {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        self.response.snap(c)?;
        self.request.snap(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringmesh_net::{NodeId, Packet, PacketKind, PacketStore, TxnId};

    fn some_ref() -> PacketRef {
        let mut store = PacketStore::new();
        store.insert(Packet {
            txn: TxnId::new(0),
            kind: PacketKind::ReadReq,
            src: NodeId::new(0),
            dst: NodeId::new(1),
            flits: 1,
            injected_at: 0,
        })
    }

    #[test]
    fn transit_route_lifecycle() {
        let mut tr = TransitRoute::default();
        assert!(!tr.forwarding() && !tr.crossing() && !tr.sinking());
        let r = some_ref();
        tr.set(r, Disposition::Forward);
        assert!(tr.forwarding());
        assert_eq!(tr.packet(), Some(r));
        tr.set(r, Disposition::Cross);
        assert!(tr.crossing());
        tr.set(r, Disposition::Sink);
        assert!(tr.sinking() && !tr.crossing() && !tr.forwarding());
        tr.clear();
        assert_eq!(tr.packet(), None);
    }

    #[test]
    fn class_queues_route_by_class() {
        let mut q = ClassQueues::new(1u32, 2u32);
        assert_eq!(*q.get(QueueClass::Request), 1);
        assert_eq!(*q.get(QueueClass::Response), 2);
        *q.get_mut(QueueClass::Request) = 10;
        assert_eq!(*q.get(QueueClass::Request), 10);
        let mut seen = Vec::new();
        q.each_mut(|v| seen.push(*v));
        // Response visited first (it has priority everywhere).
        assert_eq!(seen, vec![2, 10]);
    }

    #[test]
    fn link_owner_equality() {
        assert_eq!(LinkOwner::Idle, LinkOwner::Idle);
        assert_ne!(LinkOwner::Transit, LinkOwner::Cross(QueueClass::Request));
        assert_ne!(
            LinkOwner::Cross(QueueClass::Request),
            LinkOwner::Cross(QueueClass::Response)
        );
    }
}
