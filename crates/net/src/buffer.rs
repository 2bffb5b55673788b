//! FIFO buffers and streaming helpers for wormhole switching.
//!
//! Every NIC and inter-ring interface in the simulator is assembled from
//! these pieces:
//!
//! * [`FlitFifo`] — a bounded flit FIFO with the *registered* stop/go
//!   flow-control discipline: upstream senders consult the occupancy
//!   latched at the previous cycle boundary ([`FlitFifo::space_latched`]),
//!   and a flit can leave a buffer only on a cycle after the one it
//!   arrived in (realizing the paper's one-cycle routing delay per
//!   network node).
//! * [`FifoBank`] — many [`FlitFifo`]s of one capacity in a single
//!   allocation, addressed by number, for FIFOs pushed only between
//!   steps: the ring tier's transit buffers.
//! * [`PacketQueue`] — a bounded queue of whole packets (the NIC's
//!   input/output request and response buffers, which hold exactly one
//!   cache-line packet each in the paper).
//! * [`DrainState`] — serializes a queued packet onto a link one flit at
//!   a time, enforcing wormhole contiguity.
//! * [`Assembler`] — reassembles arriving flit trains into packets at
//!   the ejection port.

use std::collections::VecDeque;

use ringmesh_snap::{Codec, Snap, SnapError};

use crate::packet::{Flit, PacketRef};

/// A bounded flit FIFO with registered (previous-cycle) stop/go state.
///
/// Call [`latch`](FlitFifo::latch) once per component clock at the end
/// of the cycle; upstream senders must gate on
/// [`space_latched`](FlitFifo::space_latched), which reflects the
/// occupancy at the last latch. Because each buffer has exactly one
/// upstream producer (a link carries one flit per cycle), this
/// guarantees the capacity is never exceeded.
///
/// # Example
///
/// ```
/// use ringmesh_net::{Flit, FlitFifo, PacketRef, PacketStore, Packet, PacketKind, NodeId, TxnId};
///
/// let mut store = PacketStore::new();
/// let r = store.insert(Packet {
///     txn: TxnId::new(0), kind: PacketKind::ReadReq,
///     src: NodeId::new(0), dst: NodeId::new(1), flits: 1, injected_at: 0,
/// });
/// let mut fifo = FlitFifo::new(2);
/// assert!(fifo.space_latched());
/// fifo.push(Flit { packet: r, seq: 0, is_tail: true }, 5);
/// // Not poppable in the arrival cycle (1-cycle routing delay)…
/// assert!(fifo.pop_ready(5).is_none());
/// // …but ready the next cycle.
/// assert!(fifo.pop_ready(6).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct FlitFifo {
    q: VecDeque<Flit>,
    cap: usize,
    latched_len: usize,
    tails: usize,
    /// Cycle of the most recent push. Together with `fresh` this
    /// encodes everything the old per-entry arrival stamps did: a
    /// buffered flit is ready iff it arrived on an earlier cycle, and
    /// arrivals are monotone, so only the newest cycle's pushes can be
    /// unready — no need to carry a timestamp per entry.
    last_push: u64,
    /// Number of flits pushed at `last_push` (the unready back of the
    /// queue while the clock still reads `last_push`).
    fresh: usize,
}

impl FlitFifo {
    /// Creates a FIFO holding at most `cap` flits.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "flit FIFO capacity must be positive");
        FlitFifo {
            // Effectively-unbounded FIFOs (huge caps) grow on demand.
            q: VecDeque::with_capacity(cap.min(64)),
            cap,
            latched_len: 0,
            tails: 0,
            last_push: 0,
            fresh: 0,
        }
    }

    /// Capacity in flits.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Current occupancy in flits.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Whether the FIFO is currently empty.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Registered stop/go signal: whether the occupancy latched at the
    /// previous cycle boundary leaves room for one more flit. This is
    /// what an upstream sender consults before transmitting.
    pub fn space_latched(&self) -> bool {
        self.latched_len < self.cap
    }

    /// Registered free-slot count: capacity minus the occupancy latched
    /// at the previous cycle boundary. Ring stations use this both for
    /// the bubble rule (injections keep one slot free so a ring can
    /// never fill completely) and for whole-packet crossing
    /// reservations at inter-ring interfaces.
    pub fn free_latched(&self) -> usize {
        self.cap - self.latched_len
    }

    /// Pushes a flit arriving at cycle `now`.
    ///
    /// # Panics
    ///
    /// Panics if the FIFO is full — the sender must gate on
    /// [`space_latched`](Self::space_latched), so overflow is a model bug.
    pub fn push(&mut self, flit: Flit, now: u64) {
        assert!(self.q.len() < self.cap, "flit FIFO overflow");
        debug_assert!(now >= self.last_push, "FIFO clock must be monotone");
        if flit.is_tail {
            self.tails += 1;
        }
        if now == self.last_push {
            self.fresh += 1;
        } else {
            self.last_push = now;
            self.fresh = 1;
        }
        self.q.push_back(flit);
    }

    /// Occupancy excluding flits that arrived at cycle `now` (which
    /// cannot leave until the next cycle).
    fn ready_len(&self, now: u64) -> usize {
        let fresh = if self.last_push == now { self.fresh } else { 0 };
        self.q.len() - fresh
    }

    /// The head flit, if it arrived on an earlier cycle than `now`
    /// (flits cannot cut through a node in zero cycles).
    pub fn front_ready(&self, now: u64) -> Option<Flit> {
        if self.ready_len(now) > 0 {
            self.q.front().copied()
        } else {
            None
        }
    }

    /// Pops the head flit if it is ready at cycle `now`.
    pub fn pop_ready(&mut self, now: u64) -> Option<Flit> {
        if self.ready_len(now) > 0 {
            let flit = self.q.pop_front().expect("front was ready");
            if flit.is_tail {
                self.tails -= 1;
            }
            Some(flit)
        } else {
            None
        }
    }

    /// Whether the packet at the front of the FIFO is buffered in its
    /// entirety (its tail flit has arrived). Because packets queue
    /// sequentially and uninterleaved, any buffered tail implies the
    /// front packet is complete. Ring stations use this to start ring
    /// entries only for worms that cannot stall on upstream supply.
    pub fn has_complete_packet(&self) -> bool {
        self.tails > 0
    }

    /// Latches the current occupancy as the registered state consulted
    /// by upstream senders next cycle. Call once per component clock.
    pub fn latch(&mut self) {
        self.latched_len = self.q.len();
    }

    /// Iterates over buffered flits, head first (diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = &Flit> {
        self.q.iter()
    }
}

/// Bookkeeping of one FIFO of a [`FifoBank`].
#[derive(Debug, Clone, Copy, Default)]
struct BankFifo {
    /// Slot of the front flit within this FIFO's stride.
    head: u16,
    len: u16,
    latched: u16,
}

/// `n` flit FIFOs of one fixed capacity in a single allocation, for a
/// user that pushes only between steps.
///
/// FIFO `i` has [`FlitFifo`]'s registered stop/go
/// ([`free_latched`](Self::free_latched) reads the occupancy at the
/// last [`latch_all`](Self::latch_all)) and its snapshot bytes. Its one
/// user, the ring tier (`ringmesh_ring`'s `RingTier`), pushes only in
/// its send commit, after every station side has stepped, so no flit is
/// popped in the cycle it arrived and the bank keeps no push record.
/// Flit slots sit in one `Vec` at stride `capacity`, beside 6 bytes of
/// bookkeeping per FIFO, so a ring station's buffers are adjacent
/// memory, not a heap block each. The mesh writes its FIFOs in
/// [`snap_fifo`](Self::snap_fifo)'s format.
///
/// # Example
///
/// ```
/// use ringmesh_net::{FifoBank, Flit, NodeId, Packet, PacketKind, PacketStore, TxnId};
///
/// let mut store = PacketStore::new();
/// let r = store.insert(Packet {
///     txn: TxnId::new(0), kind: PacketKind::ReadReq,
///     src: NodeId::new(0), dst: NodeId::new(1), flits: 1, injected_at: 0,
/// });
/// let mut bank = FifoBank::new(10, 4);
/// bank.push(7, Flit { packet: r, seq: 0, is_tail: true });
/// assert_eq!(bank.free_latched(7), 4, "registered before the push");
/// bank.latch_all();
/// assert_eq!(bank.free_latched(7), 3);
/// assert!(bank.pop(7).is_some());
/// assert!(bank.is_empty(7));
/// ```
#[derive(Debug, Clone)]
pub struct FifoBank {
    slots: Vec<Flit>,
    fifos: Vec<BankFifo>,
    cap: u16,
}

impl FifoBank {
    /// Creates `n` empty FIFOs holding at most `cap` flits each.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero or exceeds `u16::MAX`.
    pub fn new(n: usize, cap: usize) -> Self {
        assert!(cap > 0, "flit FIFO capacity must be positive");
        let cap = u16::try_from(cap).expect("banked flit FIFO capacity fits 16 bits");
        FifoBank {
            slots: vec![Flit::default(); n * usize::from(cap)],
            fifos: vec![BankFifo::default(); n],
            cap,
        }
    }

    /// Capacity of each FIFO in flits.
    pub fn capacity(&self) -> usize {
        usize::from(self.cap)
    }

    /// Number of FIFOs in the bank.
    pub fn fifos(&self) -> usize {
        self.fifos.len()
    }

    /// Current occupancy of FIFO `i` in flits.
    pub fn len(&self, i: usize) -> usize {
        usize::from(self.fifos[i].len)
    }

    /// Whether FIFO `i` is currently empty.
    pub fn is_empty(&self, i: usize) -> bool {
        self.fifos[i].len == 0
    }

    /// Registered free-slot count of FIFO `i`: capacity minus the
    /// occupancy at the last [`latch_all`](Self::latch_all), as
    /// [`FlitFifo::free_latched`].
    pub fn free_latched(&self, i: usize) -> usize {
        usize::from(self.cap - self.fifos[i].latched)
    }

    /// Slot index of position `pos` (front = 0) of a FIFO whose front
    /// is at `head`. The capacity is a run-time value, so the ring
    /// index wraps by compare-and-subtract, not a division.
    fn slot(&self, i: usize, head: u16, pos: u16) -> usize {
        let cap = self.capacity();
        let mut at = usize::from(head) + usize::from(pos);
        if at >= cap {
            at -= cap;
        }
        i * cap + at
    }

    /// Pushes a flit into FIFO `i`, between steps: it is ready from
    /// the next one on.
    ///
    /// # Panics
    ///
    /// Panics if the FIFO is full — the sender must gate on
    /// [`free_latched`](Self::free_latched), so overflow is a model bug.
    pub fn push(&mut self, i: usize, flit: Flit) {
        let f = self.fifos[i];
        assert!(f.len < self.cap, "flit FIFO overflow");
        let at = self.slot(i, f.head, f.len);
        self.slots[at] = flit;
        self.fifos[i].len += 1;
    }

    /// The head flit of FIFO `i`.
    pub fn front(&self, i: usize) -> Option<Flit> {
        let f = self.fifos[i];
        (f.len > 0).then(|| self.slots[self.slot(i, f.head, 0)])
    }

    /// Pops the head flit of FIFO `i`.
    pub fn pop(&mut self, i: usize) -> Option<Flit> {
        let flit = self.front(i)?;
        let f = &mut self.fifos[i];
        f.head += 1;
        if f.head == self.cap {
            f.head = 0;
        }
        f.len -= 1;
        Some(flit)
    }

    /// Latches every FIFO's occupancy as the registered state its
    /// upstream sender consults next cycle.
    pub fn latch_all(&mut self) {
        for f in &mut self.fifos {
            f.latched = f.len;
        }
    }

    /// Snapshots FIFO `i` as a [`FlitFifo`]: its capacity, then its
    /// flits head first. A reader latches the length, as the cycle
    /// boundary a snapshot is taken at did.
    ///
    /// # Errors
    ///
    /// [`SnapError::Mismatch`] on a different capacity,
    /// [`SnapError::Corrupt`] on a length over it.
    pub fn snap_fifo<C: Codec>(&mut self, i: usize, c: &mut C) -> Result<(), SnapError> {
        c.exact(self.capacity(), "flit FIFO capacity")?;
        let mut len = self.len(i);
        len.snap(c)?;
        let len = u16::try_from(len)
            .ok()
            .filter(|&n| n <= self.cap)
            .ok_or_else(|| SnapError::Corrupt(format!("flit FIFO length {len} over capacity")))?;
        c.run(|c| {
            for pos in 0..len {
                let at = self.slot(i, self.fifos[i].head, pos);
                self.slots[at].snap(c)?;
            }
            Ok(())
        })?;
        if c.reading() {
            (self.fifos[i].len, self.fifos[i].latched) = (len, len);
        }
        Ok(())
    }
}

/// A bounded queue of whole packets: the NIC-side input/output request
/// and response buffers (capacity is one cache-line packet each in the
/// paper, but configurable here).
#[derive(Debug, Clone)]
pub struct PacketQueue {
    q: VecDeque<PacketRef>,
    cap: usize,
}

impl PacketQueue {
    /// Creates a queue holding at most `cap` packets.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "packet queue capacity must be positive");
        PacketQueue {
            q: VecDeque::with_capacity(cap),
            cap,
        }
    }

    /// Whether another packet can be enqueued.
    pub fn can_accept(&self) -> bool {
        self.q.len() < self.cap
    }

    /// Enqueues a packet.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full; callers gate on
    /// [`can_accept`](Self::can_accept).
    pub fn push(&mut self, r: PacketRef) {
        assert!(self.can_accept(), "packet queue overflow");
        self.q.push_back(r);
    }

    /// The packet at the head of the queue.
    pub fn front(&self) -> Option<PacketRef> {
        self.q.front().copied()
    }

    /// Dequeues the head packet.
    pub fn pop(&mut self) -> Option<PacketRef> {
        self.q.pop_front()
    }

    /// Number of queued packets.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// The queued packets, head first.
    pub fn iter(&self) -> impl Iterator<Item = PacketRef> + '_ {
        self.q.iter().copied()
    }
}

/// Serializes one packet onto a link flit by flit, enforcing wormhole
/// contiguity: once begun, only this packet's flits may use the link
/// until the tail has been sent.
#[derive(Debug, Clone, Copy, Default)]
pub struct DrainState {
    current: Option<(PacketRef, u32, u32)>, // (packet, next_seq, total)
}

impl DrainState {
    /// An idle drain.
    pub fn idle() -> Self {
        DrainState::default()
    }

    /// Whether a packet is mid-transmission.
    pub fn is_active(&self) -> bool {
        self.current.is_some()
    }

    /// The packet being transmitted, the index of its next flit and
    /// its length in flits.
    pub fn progress(&self) -> Option<(PacketRef, u32, u32)> {
        self.current
    }

    /// Begins transmitting `packet` of `total_flits` flits.
    ///
    /// # Panics
    ///
    /// Panics if a transmission is already active or `total_flits` is 0.
    pub fn begin(&mut self, packet: PacketRef, total_flits: u32) {
        assert!(self.current.is_none(), "drain already active");
        assert!(total_flits > 0, "packet must have at least one flit");
        self.current = Some((packet, 0, total_flits));
    }

    /// Produces the next flit and advances. Returns the flit; the drain
    /// becomes idle after the tail flit is produced.
    ///
    /// # Panics
    ///
    /// Panics if no transmission is active.
    pub fn emit(&mut self) -> Flit {
        let (r, seq, total) = self.current.expect("emit on idle drain");
        let is_tail = seq + 1 == total;
        self.current = if is_tail {
            None
        } else {
            Some((r, seq + 1, total))
        };
        Flit {
            packet: r,
            seq,
            is_tail,
        }
    }
}

/// Reassembles an arriving flit train into a packet at an ejection port.
///
/// Wormhole switching guarantees the flits of a packet arrive in order
/// and uninterleaved; the assembler checks those invariants and reports
/// each completed packet.
#[derive(Debug, Clone, Copy, Default)]
pub struct Assembler {
    current: Option<(PacketRef, u32)>, // (packet, flits received)
}

impl Assembler {
    /// An empty assembler.
    pub fn new() -> Self {
        Assembler::default()
    }

    /// The partially assembled packet, if any.
    pub fn packet(&self) -> Option<PacketRef> {
        self.current.map(|(r, _)| r)
    }

    /// Accepts the next flit; returns the packet handle when the tail
    /// flit completes a packet.
    ///
    /// # Panics
    ///
    /// Panics if flits interleave or arrive out of order — wormhole
    /// switching makes that impossible, so it is a model bug.
    pub fn push(&mut self, flit: Flit) -> Option<PacketRef> {
        match self.current {
            None => {
                assert!(flit.is_head(), "packet must start with its head flit");
                if flit.is_tail {
                    return Some(flit.packet); // single-flit packet
                }
                self.current = Some((flit.packet, 1));
                None
            }
            Some((r, n)) => {
                assert_eq!(r, flit.packet, "interleaved flits at ejection port");
                assert_eq!(flit.seq, n, "out-of-order flit at ejection port");
                if flit.is_tail {
                    self.current = None;
                    Some(r)
                } else {
                    self.current = Some((r, n + 1));
                    None
                }
            }
        }
    }
}

/// The capacity, then the flits head first. A snapshot is taken at a
/// cycle boundary, where the latched length is the length and no flit
/// is still unready, so a reader latches the length, recounts the tails
/// and clears the push record.
impl Snap for FlitFifo {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        c.exact(self.cap, "flit FIFO capacity")?;
        c.run(|c| self.q.snap(c))?;
        let len = self.q.len();
        if len > self.cap {
            return Err(SnapError::Corrupt(format!(
                "flit FIFO length {len} over capacity"
            )));
        }
        if c.reading() {
            self.latched_len = len;
            self.tails = self.q.iter().filter(|f| f.is_tail).count();
            (self.last_push, self.fresh) = (0, 0);
        }
        Ok(())
    }
}

/// Reported to the census as packets queued whole.
impl Snap for PacketQueue {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        c.exact(self.cap, "packet queue capacity")?;
        self.q.snap(c)?;
        if self.q.len() > self.cap {
            return Err(SnapError::Corrupt("packet queue over capacity".into()));
        }
        c.report(|census| census.queued.extend(self.iter().map(|r| r.slot() as u32)));
        Ok(())
    }
}

/// Reported to the census as the suffix of a packet still to send.
impl Snap for DrainState {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        self.current.snap(c)?;
        if let Some((r, next, total)) = self.current {
            c.report(|census| census.drains.push((r.slot() as u32, next, total)));
        }
        Ok(())
    }
}

/// Reported to the census as the prefix of a packet received.
impl Snap for Assembler {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        self.current.snap(c)?;
        if let Some((r, received)) = self.current {
            c.report(|census| census.prefixes.push((r.slot() as u32, received)));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flit(slot: u32, seq: u32, tail: bool) -> Flit {
        // PacketRef has no public constructor by design; go through a store.
        use crate::packet::{NodeId, Packet, PacketKind, PacketStore, TxnId};
        let mut store = PacketStore::new();
        let mut r = store.insert(Packet {
            txn: TxnId::new(0),
            kind: PacketKind::ReadReq,
            src: NodeId::new(0),
            dst: NodeId::new(0),
            flits: 1,
            injected_at: 0,
        });
        for _ in 0..slot {
            r = store.insert(Packet {
                txn: TxnId::new(0),
                kind: PacketKind::ReadReq,
                src: NodeId::new(0),
                dst: NodeId::new(0),
                flits: 1,
                injected_at: 0,
            });
        }
        Flit {
            packet: r,
            seq,
            is_tail: tail,
        }
    }

    #[test]
    fn fifo_respects_arrival_cycle() {
        let mut f = FlitFifo::new(4);
        f.push(flit(0, 0, true), 10);
        assert_eq!(f.front_ready(10), None);
        assert!(f.front_ready(11).is_some());
        assert!(f.pop_ready(11).is_some());
        assert!(f.is_empty());
    }

    #[test]
    fn fifo_latched_space_lags_occupancy() {
        let mut f = FlitFifo::new(1);
        assert!(f.space_latched());
        f.push(flit(0, 0, true), 0);
        // Occupancy changed but the registered signal hasn't latched yet.
        assert!(f.space_latched());
        f.latch();
        assert!(!f.space_latched());
        f.pop_ready(1).unwrap();
        // Still stopped until the next latch — the stop/go bubble.
        assert!(!f.space_latched());
        f.latch();
        assert!(f.space_latched());
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn fifo_overflow_panics() {
        let mut f = FlitFifo::new(1);
        f.push(flit(0, 0, true), 0);
        f.push(flit(0, 0, true), 0);
    }

    #[test]
    fn fifo_preserves_order() {
        let mut f = FlitFifo::new(3);
        for seq in 0..3 {
            f.push(flit(0, seq, seq == 2), 0);
        }
        for seq in 0..3 {
            assert_eq!(f.pop_ready(1).unwrap().seq, seq);
        }
    }

    #[test]
    fn packet_queue_bounds() {
        let mut store = crate::packet::PacketStore::new();
        let mk = |s: &mut crate::packet::PacketStore| {
            s.insert(crate::packet::Packet {
                txn: crate::packet::TxnId::new(0),
                kind: crate::packet::PacketKind::ReadReq,
                src: crate::packet::NodeId::new(0),
                dst: crate::packet::NodeId::new(0),
                flits: 1,
                injected_at: 0,
            })
        };
        let mut q = PacketQueue::new(1);
        assert!(q.can_accept());
        let a = mk(&mut store);
        q.push(a);
        assert!(!q.can_accept());
        assert_eq!(q.front(), Some(a));
        assert_eq!(q.pop(), Some(a));
        assert!(q.is_empty());
    }

    #[test]
    fn drain_emits_contiguous_train() {
        let f = flit(3, 0, false);
        let mut d = DrainState::idle();
        d.begin(f.packet, 3);
        let flits: Vec<Flit> = (0..3).map(|_| d.emit()).collect();
        assert!(!d.is_active());
        assert_eq!(flits[0].seq, 0);
        assert!(flits[0].is_head());
        assert_eq!(flits[1].seq, 1);
        assert!(flits[2].is_tail);
        assert!(flits.iter().all(|fl| fl.packet == f.packet));
    }

    #[test]
    #[should_panic(expected = "already active")]
    fn drain_rejects_overlap() {
        let f = flit(0, 0, false);
        let mut d = DrainState::idle();
        d.begin(f.packet, 2);
        d.begin(f.packet, 2);
    }

    #[test]
    fn assembler_completes_multiflit_packet() {
        let head = flit(2, 0, false);
        let mut a = Assembler::new();
        assert_eq!(a.push(head), None);
        assert_eq!(a.packet(), Some(head.packet));
        assert_eq!(a.push(Flit { seq: 1, ..head }), None);
        let done = a.push(Flit {
            seq: 2,
            is_tail: true,
            ..head
        });
        assert_eq!(done, Some(head.packet));
        assert_eq!(a.packet(), None);
    }

    #[test]
    fn assembler_single_flit_packet() {
        let f = flit(0, 0, true);
        let mut a = Assembler::new();
        assert_eq!(a.push(f), Some(f.packet));
    }

    #[test]
    #[should_panic(expected = "interleaved")]
    fn assembler_rejects_interleave() {
        let a1 = flit(0, 0, false);
        let b1 = flit(5, 1, false);
        let mut a = Assembler::new();
        a.push(a1);
        a.push(b1);
    }
}

#[cfg(test)]
mod complete_packet_tests {
    use super::*;
    use crate::packet::{NodeId, Packet, PacketKind, PacketStore, TxnId};

    fn mk_ref(store: &mut PacketStore) -> crate::packet::PacketRef {
        store.insert(Packet {
            txn: TxnId::new(0),
            kind: PacketKind::ReadResp,
            src: NodeId::new(0),
            dst: NodeId::new(1),
            flits: 3,
            injected_at: 0,
        })
    }

    #[test]
    fn tracks_complete_packets_across_push_pop() {
        let mut store = PacketStore::new();
        let r = mk_ref(&mut store);
        let mut f = FlitFifo::new(8);
        assert!(!f.has_complete_packet());
        f.push(
            Flit {
                packet: r,
                seq: 0,
                is_tail: false,
            },
            0,
        );
        f.push(
            Flit {
                packet: r,
                seq: 1,
                is_tail: false,
            },
            1,
        );
        assert!(!f.has_complete_packet(), "tail not yet arrived");
        f.push(
            Flit {
                packet: r,
                seq: 2,
                is_tail: true,
            },
            2,
        );
        assert!(f.has_complete_packet());
        f.pop_ready(3).unwrap();
        f.pop_ready(3).unwrap();
        assert!(f.has_complete_packet(), "tail still buffered");
        f.pop_ready(3).unwrap();
        assert!(!f.has_complete_packet());
    }

    #[test]
    fn multiple_packets_count_tails() {
        let mut store = PacketStore::new();
        let a = mk_ref(&mut store);
        let b = mk_ref(&mut store);
        let mut f = FlitFifo::new(8);
        f.push(
            Flit {
                packet: a,
                seq: 0,
                is_tail: true,
            },
            0,
        );
        f.push(
            Flit {
                packet: b,
                seq: 0,
                is_tail: true,
            },
            0,
        );
        assert!(f.has_complete_packet());
        f.pop_ready(1).unwrap();
        assert!(f.has_complete_packet(), "second packet still complete");
        f.pop_ready(1).unwrap();
        assert!(!f.has_complete_packet());
    }
}

#[cfg(test)]
mod fifo_bank_tests {
    use super::*;
    use crate::packet::{NodeId, Packet, PacketKind, PacketStore, TxnId};
    use ringmesh_engine::SimRng;
    use ringmesh_snap::{SnapReader, SnapWriter};

    fn refs(n: usize) -> Vec<PacketRef> {
        let mut store = PacketStore::new();
        (0..n)
            .map(|_| {
                store.insert(Packet {
                    txn: TxnId::new(0),
                    kind: PacketKind::ReadReq,
                    src: NodeId::new(0),
                    dst: NodeId::new(1),
                    flits: 1,
                    injected_at: 0,
                })
            })
            .collect()
    }

    fn saved(f: &FlitFifo) -> Vec<u8> {
        let mut w = SnapWriter::new();
        f.clone().snap(&mut w).unwrap();
        w.into_bytes()
    }

    fn saved_bank(b: &FifoBank, i: usize) -> Vec<u8> {
        let mut w = SnapWriter::new();
        b.clone().snap_fifo(i, &mut w).unwrap();
        w.into_bytes()
    }

    /// 10 000 random operations per capacity against a `FlitFifo` run
    /// in lockstep, in the ring tier's order: within a cycle the pops
    /// and front queries, then the pushes, then the latch. Every answer
    /// and every snapshot byte must agree. The bank's other FIFOs must
    /// stay empty throughout.
    #[test]
    fn bank_fifo_is_a_flit_fifo() {
        let refs = refs(8);
        for cap in [1usize, 4, 20, 36] {
            let mut rng = SimRng::from_seed(0xf1f0 + cap as u64);
            let mut fifo = FlitFifo::new(cap);
            let mut bank = FifoBank::new(3, cap);
            let (mut now, mut seq, mut pushed) = (0u64, 0u32, false);
            for step in 0..10_000 {
                match rng.uniform_usize(4) {
                    0 | 1 if !pushed => assert_eq!(bank.pop(1), fifo.pop_ready(now)),
                    2 if fifo.len() < cap => {
                        let flit = Flit {
                            packet: refs[rng.uniform_usize(refs.len())],
                            seq,
                            is_tail: rng.uniform_usize(3) == 0,
                        };
                        seq += 1;
                        fifo.push(flit, now);
                        bank.push(1, flit);
                        pushed = true;
                    }
                    3 => {
                        fifo.latch();
                        bank.latch_all();
                        (now, pushed) = (now + 1, false);
                    }
                    _ => {}
                }
                if !pushed {
                    assert_eq!(bank.front(1), fifo.front_ready(now));
                }
                assert_eq!(bank.len(1), fifo.len());
                assert_eq!(bank.is_empty(1), fifo.is_empty());
                assert_eq!(bank.free_latched(1), fifo.free_latched());
                assert_eq!(saved_bank(&bank, 1), saved(&fifo), "cap {cap} step {step}");
                assert!(bank.is_empty(0) && bank.is_empty(2));
            }
        }
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn bank_overflow_panics() {
        let r = refs(1)[0];
        let flit = Flit {
            packet: r,
            seq: 0,
            is_tail: true,
        };
        let mut bank = FifoBank::new(2, 1);
        bank.push(0, flit);
        bank.push(0, flit);
    }

    /// A FIFO whose front has wrapped past the end of its stride saves
    /// head first; a `FlitFifo` and another bank both accept the bytes,
    /// latch the length and carry on identically, every flit ready.
    #[test]
    fn wrapped_fifo_round_trips() {
        let r = refs(1)[0];
        let flit = |seq| Flit {
            packet: r,
            seq,
            is_tail: seq % 3 == 2,
        };
        let mut bank = FifoBank::new(2, 4);
        for seq in 0..3 {
            bank.push(1, flit(seq));
        }
        assert!(bank.pop(1).is_some() && bank.pop(1).is_some());
        for seq in 3..6 {
            bank.push(1, flit(seq));
        }
        bank.latch_all();
        assert_eq!(bank.len(1), 4, "front at slot 2, back wrapped to slot 1");
        let bytes = saved_bank(&bank, 1);

        let mut fifo = FlitFifo::new(4);
        fifo.snap(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(saved(&fifo), bytes);
        let mut copy = FifoBank::new(1, 4);
        copy.snap_fifo(0, &mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(saved_bank(&copy, 0), bytes);
        assert_eq!((fifo.free_latched(), copy.free_latched(0)), (0, 0));
        assert!(fifo.has_complete_packet(), "tails recounted");
        for seq in 2..6 {
            assert_eq!(fifo.pop_ready(0), Some(flit(seq)));
            assert_eq!(copy.pop(0), Some(flit(seq)));
        }
    }

    /// Front slot plus position can exceed 16 bits even though each
    /// fits them.
    #[test]
    fn a_deep_fifo_wraps_without_overflow() {
        let r = refs(1)[0];
        let flit = |seq| Flit {
            packet: r,
            seq,
            is_tail: false,
        };
        let cap = usize::from(u16::MAX);
        let mut bank = FifoBank::new(1, cap);
        for seq in 0..cap as u32 {
            bank.push(0, flit(seq));
        }
        for seq in 0..cap as u32 - 1 {
            assert_eq!(bank.pop(0), Some(flit(seq)));
        }
        // Front at the last slot; refill behind it, around the end.
        for seq in 0..cap as u32 - 1 {
            bank.push(0, flit(cap as u32 + seq));
        }
        assert_eq!(bank.len(0), cap);
        for seq in cap as u32 - 1..2 * cap as u32 - 1 {
            assert_eq!(bank.pop(0), Some(flit(seq)));
        }
        assert!(bank.is_empty(0));
    }

    #[test]
    fn restore_rejects_counts_over_capacity() {
        let fifo = FlitFifo::new(4);
        let good = saved(&fifo);
        // An empty FIFO is two u64 words: its capacity and its length.
        assert_eq!(good.len(), 16);
        let mut bytes = good.clone();
        bytes[8] = 5;
        let mut bank = FifoBank::new(1, 4);
        match bank.snap_fifo(0, &mut SnapReader::new(&bytes)) {
            Err(SnapError::Corrupt(msg)) => assert!(msg.contains("length 5"), "{msg}"),
            other => panic!("{other:?}"),
        }
        let mut bytes = good;
        bytes[0] = 8;
        let mut bank = FifoBank::new(1, 4);
        assert!(matches!(
            bank.snap_fifo(0, &mut SnapReader::new(&bytes)),
            Err(SnapError::Mismatch(_))
        ));
    }
}
