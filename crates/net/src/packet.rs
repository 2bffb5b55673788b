//! Packets, flits and the in-flight packet store.
//!
//! The paper simulates four packet types — read request, read response,
//! write request and write response — transferred as trains of flits.
//! The simulator keeps one [`Packet`] record per in-flight packet in a
//! [`PacketStore`] slab; the flits moving through buffers are tiny
//! [`Flit`] values that reference their packet by [`PacketRef`].

use std::fmt;

use ringmesh_snap::{Codec, Snap, SnapError};

use crate::{CacheLineSize, PacketFormat};

/// Identifier of a processing module (PM): processor + cache + its slice
/// of the global memory. PMs are numbered 0..P in the network's natural
/// order (DFS order for ring hierarchies, row-major for meshes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from its index.
    pub fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// The node's index as a `usize`, for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The node's raw index.
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PM{}", self.0)
    }
}

/// Identifier of a memory transaction (one request/response pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TxnId(u64);

impl TxnId {
    /// Creates a transaction id from its sequence number.
    pub fn new(seq: u64) -> Self {
        TxnId(seq)
    }

    /// The raw sequence number.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn#{}", self.0)
    }
}

/// The four packet types the paper simulates (§2, footnote 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PacketKind {
    /// Request for a cache line (header only).
    #[default]
    ReadReq,
    /// Cache-line data returning to the requester.
    ReadResp,
    /// Write of a cache line to its home memory (header + data).
    WriteReq,
    /// Write acknowledgement (header only).
    WriteResp,
}

impl PacketKind {
    /// Whether this packet travels on the request network class.
    /// Requests and responses queue separately in NICs and IRIs.
    pub fn is_request(self) -> bool {
        matches!(self, PacketKind::ReadReq | PacketKind::WriteReq)
    }

    /// Whether the packet carries a cache line of data.
    pub fn carries_data(self) -> bool {
        matches!(self, PacketKind::ReadResp | PacketKind::WriteReq)
    }

    /// The packet kind of the memory's reply to this request.
    ///
    /// # Panics
    ///
    /// Panics if called on a response kind.
    pub fn response(self) -> PacketKind {
        match self {
            PacketKind::ReadReq => PacketKind::ReadResp,
            PacketKind::WriteReq => PacketKind::WriteResp,
            other => panic!("{other:?} is not a request kind"),
        }
    }
}

impl fmt::Display for PacketKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PacketKind::ReadReq => "read-req",
            PacketKind::ReadResp => "read-resp",
            PacketKind::WriteReq => "write-req",
            PacketKind::WriteResp => "write-resp",
        };
        f.write_str(s)
    }
}

/// One network packet: a contiguous worm of `flits` flits.
///
/// This is a passive record; the network models move [`Flit`]s that
/// reference it through their buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Packet {
    /// Transaction this packet belongs to.
    pub txn: TxnId,
    /// Packet type.
    pub kind: PacketKind,
    /// Originating PM.
    pub src: NodeId,
    /// Destination PM (the home memory for requests, the requester for
    /// responses).
    pub dst: NodeId,
    /// Total length in flits, per the owning network's [`PacketFormat`].
    ///
    /// [`PacketFormat`]: crate::PacketFormat
    pub flits: u32,
    /// Cycle at which the packet entered the network interface.
    pub injected_at: u64,
}

/// Handle to an in-flight packet inside a [`PacketStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketRef(u32);

impl PacketRef {
    /// A handle that names no packet, for storage a kernel must fill
    /// before it holds one (a route register between worms). Looking it
    /// up in a [`PacketStore`] panics.
    pub const PLACEHOLDER: PacketRef = PacketRef(u32::MAX);

    /// The slab slot index.
    pub fn slot(self) -> usize {
        self.0 as usize
    }
}

/// [`PLACEHOLDER`](PacketRef::PLACEHOLDER).
impl Default for PacketRef {
    fn default() -> Self {
        PacketRef::PLACEHOLDER
    }
}

/// One flit of an in-flight packet. `seq == 0` is the head flit (the
/// only one carrying routing information); `is_tail` marks the last.
/// A one-flit packet's single flit is both head and tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Flit {
    /// The packet this flit belongs to.
    pub packet: PacketRef,
    /// Position within the packet, starting at 0 for the head.
    pub seq: u32,
    /// Whether this is the final flit of the packet.
    pub is_tail: bool,
}

impl Flit {
    /// Whether this is the head flit (carries routing information).
    pub fn is_head(self) -> bool {
        self.seq == 0
    }
}

/// A buffered [`Flit`] in four bytes: the packet's store slot in the
/// low 24 bits, the sequence number in the next 7 and the tail flag in
/// the top bit. A flit fits when its slot is below 2^24 and its
/// sequence number below 128, so packets of up to 128 flits (§2.2's
/// largest is 36). The mesh kernel keeps its input buffers in these
/// lanes; the type lives here because only this crate mints a
/// [`PacketRef`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PackedFlit(u32);

impl PackedFlit {
    /// One more than the largest sequence number a lane holds: the
    /// longest packet, in flits, whose every flit fits.
    pub const MAX_PACKET_FLITS: u32 = 1 << 7;

    /// `flit` in a lane, or `None` when its slot or sequence number is
    /// too wide.
    pub fn new(flit: Flit) -> Option<PackedFlit> {
        let Flit {
            packet,
            seq,
            is_tail,
        } = flit;
        (packet.0 < 1 << 24 && seq < Self::MAX_PACKET_FLITS)
            .then(|| PackedFlit(packet.0 | seq << 24 | u32::from(is_tail) << 31))
    }

    /// The flit this lane holds.
    pub fn flit(self) -> Flit {
        Flit {
            packet: self.packet(),
            seq: self.0 >> 24 & 0x7F,
            is_tail: self.is_tail(),
        }
    }

    /// The packet the flit belongs to.
    pub fn packet(self) -> PacketRef {
        PacketRef(self.0 & 0xFF_FFFF)
    }

    /// Whether the flit is its packet's last.
    pub fn is_tail(self) -> bool {
        self.0 >> 31 != 0
    }

    /// Whether the flit is its packet's head.
    pub fn is_head(self) -> bool {
        self.0 & 0x7F00_0000 == 0
    }
}

/// Slab of in-flight packets. Insertion returns a stable [`PacketRef`]
/// used by every flit of the packet; removal returns the record when the
/// packet is fully delivered.
#[derive(Debug, Default)]
pub struct PacketStore {
    slots: Vec<Option<Packet>>,
    free: Vec<u32>,
    live: u64,
}

impl PacketStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        PacketStore::default()
    }

    /// Inserts a packet, returning its handle.
    pub fn insert(&mut self, packet: Packet) -> PacketRef {
        self.live += 1;
        if let Some(slot) = self.free.pop() {
            debug_assert!(self.slots[slot as usize].is_none());
            self.slots[slot as usize] = Some(packet);
            PacketRef(slot)
        } else {
            self.slots.push(Some(packet));
            PacketRef((self.slots.len() - 1) as u32)
        }
    }

    /// Looks up an in-flight packet.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not refer to a live packet (a handle
    /// used after removal is always a simulator bug).
    pub fn get(&self, r: PacketRef) -> &Packet {
        self.slots[r.slot()].as_ref().expect("stale PacketRef")
    }

    /// The packet behind `r`, or `None` when `r` names no live packet.
    pub fn try_get(&self, r: PacketRef) -> Option<&Packet> {
        self.at(r.0)
    }

    /// The live packet in `slot`, if any: the census checks the raw
    /// slots a snapshot walk reported with this.
    pub(crate) fn at(&self, slot: u32) -> Option<&Packet> {
        self.slots.get(slot as usize)?.as_ref()
    }

    /// Slots in the slab, live or free.
    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Removes a fully-delivered packet, freeing its slot.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not refer to a live packet.
    pub fn remove(&mut self, r: PacketRef) -> Packet {
        let pkt = self.slots[r.slot()].take().expect("stale PacketRef");
        self.free.push(r.slot() as u32);
        self.live -= 1;
        pkt
    }

    /// Number of packets currently in flight.
    pub fn live(&self) -> u64 {
        self.live
    }

    /// Whether no packets are in flight.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterates over live packets (diagnostics; not on the hot path).
    pub fn iter(&self) -> impl Iterator<Item = (PacketRef, &Packet)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|p| (PacketRef(i as u32), p)))
    }
}

impl PacketStore {
    /// Checks a decoded store: the free list names each empty slot
    /// once and nothing else, and the live count is the occupied one.
    fn validate(&self) -> Result<(), SnapError> {
        let occupied = self.slots.iter().filter(|s| s.is_some()).count();
        if occupied as u64 != self.live || self.free.len() + occupied != self.slots.len() {
            return Err(SnapError::Corrupt(format!(
                "packet store accounting: {occupied} occupied, {} live, {} free of {}",
                self.live,
                self.free.len(),
                self.slots.len()
            )));
        }
        let mut empty: Vec<bool> = self.slots.iter().map(Option::is_none).collect();
        for &slot in &self.free {
            if empty.get_mut(slot as usize).map(std::mem::take) != Some(true) {
                return Err(SnapError::Corrupt(format!(
                    "packet store free list: slot {slot} is out of range, live or listed twice"
                )));
            }
        }
        Ok(())
    }

    /// Checks every stored packet against the network that holds it:
    /// a machine of `pms` PMs whose packets are `format`'s length for
    /// `cl`-byte cache lines. A restored packet's length sizes every
    /// buffer it will pass through.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] naming the first packet that disagrees.
    pub fn validate_packets(
        &self,
        pms: usize,
        format: PacketFormat,
        cl: CacheLineSize,
    ) -> Result<(), SnapError> {
        for (r, p) in self.iter() {
            if p.src.index() >= pms || p.dst.index() >= pms || p.src == p.dst {
                return Err(SnapError::Corrupt(format!(
                    "packet in slot {}: {} -> {} on {pms} PMs",
                    r.slot(),
                    p.src,
                    p.dst
                )));
            }
            if p.flits != format.flits(p.kind, cl) {
                return Err(SnapError::Corrupt(format!(
                    "packet in slot {}: {} flits, a {} is {}",
                    r.slot(),
                    p.flits,
                    p.kind,
                    format.flits(p.kind, cl)
                )));
            }
        }
        Ok(())
    }
}

impl Snap for NodeId {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        self.0.snap(c)
    }
}

impl Snap for TxnId {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        self.0.snap(c)
    }
}

impl Snap for PacketKind {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        use PacketKind::*;
        c.variant(
            self,
            &[ReadReq, ReadResp, WriteReq, WriteResp],
            "packet kind",
        )
    }
}

/// Reports its issue cycle to the census.
impl Snap for Packet {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        self.txn.snap(c)?;
        self.kind.snap(c)?;
        self.src.snap(c)?;
        self.dst.snap(c)?;
        self.flits.snap(c)?;
        self.injected_at.snap(c)?;
        c.report(|census| census.stamps.push(self.injected_at));
        Ok(())
    }
}

// `PacketRef` deliberately has no public constructor — handles are only
// minted by `PacketStore::insert`. Snapshot decoding is the one other
// legitimate mint: a handle round-trips with the store whose slot
// numbering it indexes, and the census names it, so a restore refuses
// a ref to a slot that is not live.
impl Snap for PacketRef {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        self.0.snap(c)?;
        c.report(|census| census.names.push(self.0));
        Ok(())
    }
}

/// Reported to the census as a buffered flit.
impl Snap for Flit {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        self.packet.0.snap(c)?;
        self.seq.snap(c)?;
        self.is_tail.snap(c)?;
        c.report(|census| census.flits.push((self.packet.0, self.seq, self.is_tail)));
        Ok(())
    }
}

impl Snap for PacketStore {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        self.slots.snap(c)?;
        self.free.snap(c)?;
        self.live.snap(c)?;
        if c.reading() {
            self.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(txn: u64) -> Packet {
        Packet {
            txn: TxnId::new(txn),
            kind: PacketKind::ReadReq,
            src: NodeId::new(0),
            dst: NodeId::new(1),
            flits: 1,
            injected_at: 0,
        }
    }

    #[test]
    fn kind_classification() {
        assert!(PacketKind::ReadReq.is_request());
        assert!(PacketKind::WriteReq.is_request());
        assert!(!PacketKind::ReadResp.is_request());
        assert!(!PacketKind::WriteResp.is_request());
        assert!(PacketKind::ReadResp.carries_data());
        assert!(PacketKind::WriteReq.carries_data());
        assert!(!PacketKind::ReadReq.carries_data());
        assert!(!PacketKind::WriteResp.carries_data());
    }

    #[test]
    fn response_pairs() {
        assert_eq!(PacketKind::ReadReq.response(), PacketKind::ReadResp);
        assert_eq!(PacketKind::WriteReq.response(), PacketKind::WriteResp);
    }

    #[test]
    #[should_panic(expected = "not a request")]
    fn response_of_response_panics() {
        PacketKind::ReadResp.response();
    }

    #[test]
    fn store_insert_get_remove() {
        let mut store = PacketStore::new();
        let a = store.insert(packet(1));
        let b = store.insert(packet(2));
        assert_eq!(store.live(), 2);
        assert_eq!(store.get(a).txn, TxnId::new(1));
        assert_eq!(store.get(b).txn, TxnId::new(2));
        assert_eq!(store.remove(a).txn, TxnId::new(1));
        assert_eq!(store.live(), 1);
    }

    #[test]
    fn store_reuses_slots() {
        let mut store = PacketStore::new();
        let a = store.insert(packet(1));
        store.remove(a);
        let b = store.insert(packet(2));
        assert_eq!(a.slot(), b.slot(), "freed slot should be reused");
        assert_eq!(store.get(b).txn, TxnId::new(2));
    }

    /// A restored free list names each empty slot once: an entry out of
    /// range would panic the next `insert`, one naming a live slot would
    /// overwrite that packet, and a repeat would hand one slot out
    /// twice.
    #[test]
    fn restore_rejects_a_bad_free_list() {
        use ringmesh_snap::{SnapReader, SnapWriter};
        let (p, e) = (Some(packet(1)), None);
        let restore = |slots: Vec<Option<Packet>>, free: Vec<u32>| {
            let live = slots.iter().flatten().count() as u64;
            let mut w = SnapWriter::new();
            PacketStore { slots, free, live }.snap(&mut w).unwrap();
            PacketStore::new().snap(&mut SnapReader::new(&w.into_bytes()))
        };
        assert_eq!(restore(vec![e, p, e], vec![2, 0]), Ok(()));
        for (slots, free) in [
            (vec![e, p, p], vec![3]),
            (vec![e, p, p], vec![1]),
            (vec![e, e, p], vec![0, 0]),
        ] {
            match restore(slots, free.clone()) {
                Err(SnapError::Corrupt(msg)) => assert!(msg.contains("free list"), "{msg}"),
                other => panic!("{free:?}: {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "stale PacketRef")]
    fn stale_ref_detected() {
        let mut store = PacketStore::new();
        let a = store.insert(packet(1));
        store.remove(a);
        store.get(a);
    }

    #[test]
    fn head_and_tail_flags() {
        let f = Flit {
            packet: PacketRef(0),
            seq: 0,
            is_tail: false,
        };
        assert!(f.is_head());
        let single = Flit {
            packet: PacketRef(0),
            seq: 0,
            is_tail: true,
        };
        assert!(single.is_head() && single.is_tail);
    }

    #[test]
    fn a_lane_holds_every_flit_that_fits_and_refuses_the_rest() {
        for slot in [0, 1, 0x12_3456, (1 << 24) - 1] {
            for seq in [0, 1, 35, 127] {
                for is_tail in [false, true] {
                    let flit = Flit {
                        packet: PacketRef(slot),
                        seq,
                        is_tail,
                    };
                    let lane = PackedFlit::new(flit).expect("fits");
                    assert_eq!(lane.flit(), flit);
                    assert_eq!(lane.packet(), flit.packet);
                    assert_eq!(lane.is_tail(), is_tail);
                    assert_eq!(lane.is_head(), flit.is_head());
                }
            }
        }
        let fits = |slot, seq| {
            PackedFlit::new(Flit {
                packet: PacketRef(slot),
                seq,
                is_tail: true,
            })
            .is_some()
        };
        assert!(!fits(1 << 24, 0));
        assert!(!fits(u32::MAX, 0));
        assert!(!fits(0, PackedFlit::MAX_PACKET_FLITS));
        assert!(!fits(0, u32::MAX));
    }

    #[test]
    fn iter_visits_live_packets_only() {
        let mut store = PacketStore::new();
        let a = store.insert(packet(1));
        let _b = store.insert(packet(2));
        store.remove(a);
        let txns: Vec<u64> = store.iter().map(|(_, p)| p.txn.raw()).collect();
        assert_eq!(txns, [2]);
    }
}
