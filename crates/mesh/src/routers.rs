//! The mesh router kernel: every router of one mesh in flat arrays,
//! stepped serially in node order, awake routers only.
//!
//! # Layout
//!
//! Router `l` sits at `(l / side, l % side)`; its ports are N, E, S, W
//! = 0..4 (per [`Direction::port`]) and [`LOCAL`] = 4. Per router:
//!
//! * one 32-byte [`Crossbar`], the router's hot block: the output port
//!   held by the packet at each input, the input connected to each
//!   output, the round-robin pointer of each output, and the front slot
//!   and length of each input FIFO, a byte apiece; one bit per port for
//!   the occupied inputs, the routed inputs, the connected outputs, the
//!   inputs granted the output they route to, the inputs popped and the
//!   inputs that received a flit this cycle; and the [`ACTIVE`],
//!   [`QUEUED`] and [`DRAINING`] flags;
//! * five input FIFOs of `capacity` 4-byte [`PackedFlit`] lanes each,
//!   adjacent in one array shared by the whole mesh (FIFO `l·5 + port`);
//! * the [`PacketRef`] behind each held route, written at a head flit
//!   and read only by snapshots (whose census names it) and debug
//!   audits;
//! * the two PM-side packet queues, the injection [`DrainState`] and
//!   the ejection [`Assembler`].
//!
//! Beside them the mesh keeps one bit per router in `awake`: a
//! row-major bitset with one or more `u64` words per row, equal to the
//! routers' [`ACTIVE`] flags.
//!
//! A mesh FIFO has one upstream, so it takes at most one flit a cycle:
//! its front flit is ready iff its length exceeds its arrival bit. A
//! step reads what the masks and flags name and nothing else: a lane
//! only for an occupied input with no route yet or for a connected
//! one, the PM queues only while [`QUEUED`], the drain only while
//! [`DRAINING`]. A sender learns all it needs of a downstream router —
//! its stop/go, whether it is awake — from that router's one block,
//! and books the arrival there.
//!
//! Links are arithmetic, not tables: port `o` of router `l` leads to
//! `l − side`, `l + 1`, `l + side` or `l − 1`, arrives there at input
//! `(o + 2) & 3`, and is directed link `l·4 + o` to the fault injector.
//!
//! # One cycle
//!
//! The mesh is clocked with *registered* (previous-cycle) stop/go flow
//! control, and a flit pushed into a FIFO at cycle `now` cannot be
//! seen there before `now + 1`. [`MeshRouters::step`] walks the awake
//! bitset row by row, lowest column first, and steps each router it
//! finds: injection, routing of new heads, arbitration of the free
//! outputs some waiting input routes to, one flit per connected output.
//! A granted flit moves straight into the neighbour's input FIFO,
//! whatever the neighbour's place in the walk: every FIFO has exactly
//! one upstream router, the sender gates on the FIFO's length at the
//! end of the last cycle, and the receiver cannot observe the arrival
//! this cycle. A flit that reaches a sleeping router wakes it; one east
//! in the same word is still stepped this cycle, since the walk
//! re-reads the word after each router. A router whose step leaves it
//! with nothing to do goes to sleep. Deliveries and drops are *not*
//! applied in place: they are recorded as [`CommitOp`]s in node order
//! and applied by the owning network, which stays the one writer of
//! the packet store and the ledger (and where the hybrid gives
//! [`CommitOp::Deliver`] its bridge meaning).
//!
//! There is no latch pass: the walk order says what each FIFO held at
//! the end of the last cycle. The senders into inputs N and W of router
//! `l` (`l − side`, `l − 1`) step before it and read its length; those
//! into E and S (`l + 1`, `l + side`) step after it and add the flit it
//! popped this cycle (`popped`). Its local input gates injection on its
//! length at the start of its step. A step starts by clearing `popped`
//! and the E/S arrival bits (those came after its last step) and ends
//! by clearing every arrival bit and all but the E/S pops; a router that
//! falls asleep with E/S pops set has them cleared after the walk. So
//! between cycles, where a checkpoint is taken, no flit is unready and
//! no pop is pending: a checkpoint carries neither, nor the awake bits.
//!
//! A step that takes a packet off a PM queue names the router in
//! [`MeshRouters::room`]; the plain mesh passes the list on as the room
//! its PMs gained (see `ringmesh_net::NetCore`).

use ringmesh_faults::{DropReason, FaultInjector};
use ringmesh_net::{
    Assembler, DrainState, Flit, NodeId, PackedFlit, PacketQueue, PacketRef, PacketStore,
    QueueClass,
};
use ringmesh_snap::{Codec, Snap, SnapError};
use ringmesh_trace::{Tracer, Work};

use crate::topology::{Direction, MeshTopology};

/// Port index of the local PM; ports 0..4 are N/E/S/W per
/// [`Direction::port`].
const LOCAL: usize = 4;

/// Sentinel "port" for packets with no usable route (every required
/// direction leads to a dead router): the input sinks their flits and
/// the packet is accounted as dropped.
const DROP: usize = 5;

/// "None" in a [`Crossbar`]'s byte-sized route and connection fields.
const NONE: u8 = 0xFF;

/// [`Crossbar::flags`]: the router is awake. Clear only while a step of
/// it would provably be a no-op, letting the step skip idle routers
/// under light load.
const ACTIVE: u8 = 1;

/// [`Crossbar::flags`]: a PM-side packet queue holds a packet.
const QUEUED: u8 = 2;

/// [`Crossbar::flags`]: the injection drain is serializing a packet.
const DRAINING: u8 = 4;

/// The inputs fed by routers later in the walk (E and S): their pops
/// are read after their owner's step.
const FED_LATER: u8 = 0b0110;

/// The one-bit mask of port `i`.
fn bit(i: usize) -> u8 {
    1 << i
}

/// The ports whose bits are set in `mask`, lowest first.
fn ports(mut mask: u8) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

/// Per-cycle fault view handed to the step. With no injector installed
/// every query answers "healthy" and routing is byte-for-byte the
/// plain e-cube path.
#[derive(Debug, Clone, Copy)]
pub struct FaultCtx<'a> {
    /// The installed injector, if any.
    pub inj: Option<&'a FaultInjector>,
    /// Corruption marks by packet-store slot.
    pub corrupt: &'a [bool],
    /// The current network cycle.
    pub now: u64,
}

impl FaultCtx<'_> {
    fn router_dead(&self, router: usize) -> bool {
        self.inj.is_some_and(|f| f.node_dead(router as u32))
    }

    /// Whether the directed link out of `router` through mesh port
    /// `port` (fault id `router·4 + port`) is up.
    fn link_up(&self, router: usize, port: usize) -> bool {
        match self.inj {
            None => true,
            Some(f) => f.link_up((router * 4 + port) as u32, self.now),
        }
    }

    fn is_corrupt(&self, slot: usize) -> bool {
        self.corrupt.get(slot).copied().unwrap_or(false)
    }
}

/// A flit transfer onto an inter-router link, recorded for the tracer
/// (the transfer itself has already happened).
#[derive(Debug, Clone, Copy)]
pub struct Send {
    /// The receiving router.
    pub to_node: u32,
    /// The flit on the wire.
    pub flit: Flit,
}

/// A deferred shared-state effect: recorded during the step, applied
/// by the owning network in node order, which fixes the order of
/// `PacketStore` removals and so the store's slot freelist (and every
/// later `PacketRef`).
#[derive(Debug, Clone, Copy)]
pub enum CommitOp {
    /// The assembler at `node` completed `packet` intact.
    Deliver {
        /// The delivering node.
        node: NodeId,
        /// The completed packet.
        packet: PacketRef,
    },
    /// `packet` fully arrived but is dropped (corrupt at ejection, or
    /// sunk by the drop port).
    Drop {
        /// The dropped packet.
        packet: PacketRef,
        /// Why it was dropped.
        reason: DropReason,
    },
}

/// `(row, col)` of the router owning each destination id, when every
/// router of `topo` owns `per_router` consecutive ids in router order:
/// one for the plain mesh (destinations are the routers), the local
/// ring size for the hybrid host (destinations are PMs). The table is
/// linear in the destination count and spares the route stage a
/// division by the run-time mesh side per head flit.
pub fn owner_coords(topo: &MeshTopology, per_router: u32) -> Vec<(u16, u16)> {
    let narrow = |x: u32| u16::try_from(x).expect("MeshTopology caps the side far below u16::MAX");
    (0..topo.num_pms())
        .flat_map(|router| {
            let (row, col) = topo.coords(NodeId::new(router));
            (0..per_router).map(move |_| (narrow(row), narrow(col)))
        })
        .collect()
}

/// A router's hot state in one 32-byte block: its switching state and
/// its input FIFOs' front slots and lengths, a byte per field and port,
/// and one bit per port of what the step would otherwise read from the
/// lanes, the PM queues and the drain. The masks and flags are kept
/// equal to what they summarize; debug builds audit every router at
/// the end of its step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(align(32))]
struct Crossbar {
    /// Output port (or [`DROP`]) assigned to the packet at the front
    /// of each input, held from head to tail; [`NONE`] between packets.
    route: [u8; 5],
    /// Input currently connected to each output, or [`NONE`].
    conn: [u8; 5],
    /// Round-robin arbitration pointer per output.
    rr: [u8; 5],
    /// Slot of each input FIFO's front flit within its lanes.
    head: [u8; 5],
    /// Flits in each input FIFO, ready or not.
    len: [u8; 5],
    /// Bit `i`: `len[i]` is nonzero.
    occupied: u8,
    /// Bit `i`: `route[i]` is set.
    routed: u8,
    /// Bit `o`: `conn[o]` is set.
    connected: u8,
    /// Bit `i`: input `i` holds the output `route[i]` names.
    granted: u8,
    /// Bit `i`: the owner popped input FIFO `i` this cycle, so its
    /// upstream reads the length the last cycle left as `len + 1`.
    popped: u8,
    /// Bit `i`: input FIFO `i` took a flit since the owner's step began
    /// (its E/S bits: since the step ended), which is not ready before
    /// the next cycle.
    arrived: u8,
    /// [`ACTIVE`], [`QUEUED`] and [`DRAINING`].
    flags: u8,
}

impl Crossbar {
    const IDLE: Crossbar = Crossbar {
        route: [NONE; 5],
        conn: [NONE; 5],
        rr: [0; 5],
        head: [0; 5],
        len: [0; 5],
        occupied: 0,
        routed: 0,
        connected: 0,
        granted: 0,
        popped: 0,
        arrived: 0,
        flags: ACTIVE,
    };

    /// Whether input `i`'s front flit may leave: the FIFO holds a flit
    /// that did not arrive this cycle.
    fn ready(&self, i: usize) -> bool {
        self.len[i] > (self.arrived >> i) & 1
    }

    /// Takes input `i`'s front flit off a FIFO of `cap` lanes, and
    /// returns the slot it occupied. A tail ends the input's route.
    fn pop(&mut self, i: usize, cap: u8, tail: bool) -> usize {
        let at = self.head[i];
        self.head[i] = if at + 1 == cap { 0 } else { at + 1 };
        self.len[i] -= 1;
        self.popped |= bit(i);
        if self.len[i] == 0 {
            self.occupied &= !bit(i);
        }
        if tail {
            self.route[i] = NONE;
            self.routed &= !bit(i);
        }
        usize::from(at)
    }

    /// Books a flit arriving at input `i` this cycle, and returns the
    /// slot it goes to.
    ///
    /// # Panics
    ///
    /// Panics if the FIFO is full — the sender gates on
    /// [`room`](Self::room), so overflow is a model bug.
    fn push(&mut self, i: usize, cap: u8) -> usize {
        assert!(self.len[i] < cap, "flit FIFO overflow");
        let mut at = usize::from(self.head[i]) + usize::from(self.len[i]);
        if at >= usize::from(cap) {
            at -= usize::from(cap);
        }
        self.len[i] += 1;
        self.occupied |= bit(i);
        self.arrived |= bit(i);
        at
    }

    /// Input `i`'s registered stop/go, read by its upstream before the
    /// push: whether the FIFO of `cap` lanes had room when the last
    /// cycle ended — its length now plus this cycle's pop, if any.
    fn room(&self, i: usize, cap: u8) -> bool {
        self.len[i] + ((self.popped >> i) & 1) < cap
    }

    /// Releases output `o`, at its packet's tail.
    fn disconnect(&mut self, o: usize) {
        self.granted &= !bit(usize::from(self.conn[o]));
        self.conn[o] = NONE;
        self.connected &= !bit(o);
    }

    /// Whether a step of the router would be a no-op: no buffered
    /// flits, no packet mid-serialization, nothing queued at the PM
    /// boundary, and no arbitration state that could still drive a
    /// transfer. Routes and connections must be clear, not just the
    /// inputs — arbitration connects outputs from routes without
    /// consulting buffer occupancy, so leftover routes would change
    /// arbitration timing.
    fn quiescent(&self) -> bool {
        self.flags & (QUEUED | DRAINING) == 0 && self.occupied | self.routed | self.connected == 0
    }
}

/// Sets bit `at` of the bitset `words`, counted from bit 0 of word 0.
fn set_bit(words: &mut [u64], at: usize) {
    words[at >> 6] |= 1 << (at & 63);
}

/// Round-robin arbitration for one free output: among the inputs whose
/// bit is set in the five-bit `requests`, the first at or after
/// `pointer` in cyclic order, with the pointer that puts it last next
/// time; `None` when nobody asks.
fn arbitrate(requests: u32, pointer: u8) -> Option<(u8, u8)> {
    if requests == 0 {
        return None;
    }
    let p = u32::from(pointer);
    let rotated = (requests >> p | requests << (5 - p)) & 0x1F;
    let mut winner = p + rotated.trailing_zeros();
    if winner >= 5 {
        winner -= 5;
    }
    let next = if winner == 4 { 0 } else { winner + 1 };
    Some((winner as u8, next as u8))
}

/// Whether mesh port `o` of the router at `(row, col)` has a link: the
/// mesh has no end-around connections.
fn has_link(side: usize, (row, col): (usize, usize), o: usize) -> bool {
    match o {
        0 => row > 0,
        1 => col + 1 < side,
        2 => row + 1 < side,
        _ => col > 0,
    }
}

/// The router a flit leaving router `l` through mesh port `o` arrives
/// at. Only a port with a link (see [`has_link`]) has one: east and
/// west would otherwise alias into the next row.
fn neighbor(l: usize, side: usize, o: usize) -> usize {
    match o {
        0 => l - side,
        1 => l + 1,
        2 => l + side,
        _ => l - 1,
    }
}

/// All router state of one `side × side` mesh (see the module docs for
/// the layout), stepped by `MeshNetwork` and by the hybrid network's
/// global tier.
#[derive(Debug)]
pub struct MeshRouters {
    side: usize,
    /// `u64` words of `awake` per mesh row.
    words: usize,
    /// Lanes per input FIFO.
    cap: u8,
    /// Lane `(router·5 + port)·cap + slot`.
    lanes: Vec<PackedFlit>,
    xbar: Vec<Crossbar>,
    /// The packet behind each set `Crossbar::route` of each router;
    /// stale (or [`PacketRef::PLACEHOLDER`], the default) where the
    /// route is [`NONE`].
    held: Vec<[PacketRef; 5]>,
    /// Bit `col % 64` of word `row·words + col / 64`: router
    /// `(row, col)` is [`ACTIVE`].
    awake: Vec<u64>,
    out_req: Vec<PacketQueue>,
    out_resp: Vec<PacketQueue>,
    drain: Vec<DrainState>,
    assembler: Vec<Assembler>,
    /// Routers that fell asleep this step with E/S pops still set; the
    /// step clears those after the walk.
    slept: Vec<u32>,
    /// Step output: this cycle's link transfers in sender order, kept
    /// only when the step is traced.
    pub sends: Vec<Send>,
    /// Step output: deliveries/drops, in node order.
    pub ops: Vec<CommitOp>,
    /// Step output: the routers that took a packet off a PM-side queue,
    /// in node order.
    pub room: Vec<NodeId>,
    /// Step output: flit movements (watchdog food), link transfers
    /// included.
    pub moved: u64,
    /// Step output: flits that crossed an inter-router link.
    pub link_flits: u64,
    /// Step output: transfer opportunities blocked on downstream stop,
    /// counted only when the step is traced.
    pub blocked: u64,
}

/// What one [`MeshRouters::step`] did beyond what it moved (host work).
#[derive(Debug, Clone, Copy, Default)]
pub struct StepWork {
    /// Routers stepped.
    pub stepped: u64,
    /// Flits injected into a local input buffer: with the step's
    /// `link_flits`, every push into a router's FIFOs.
    pub injected: u64,
}

impl MeshRouters {
    /// Builds the idle routers of `topo` with `buffer_flits`-deep input
    /// FIFOs for packets of at most `packet_flits` flits, and
    /// `out_queue_packets`-deep PM queues per class.
    ///
    /// # Panics
    ///
    /// Panics if `buffer_flits` is zero or above 255 (a FIFO's front
    /// slot and length are a byte each), or if `packet_flits` exceeds
    /// [`PackedFlit::MAX_PACKET_FLITS`].
    pub fn new(
        topo: &MeshTopology,
        buffer_flits: usize,
        packet_flits: u32,
        out_queue_packets: usize,
    ) -> Self {
        assert!(buffer_flits > 0, "flit FIFO capacity must be positive");
        let cap = u8::try_from(buffer_flits).expect("a mesh input FIFO holds at most 255 flits");
        assert!(
            packet_flits <= PackedFlit::MAX_PACKET_FLITS,
            "a {packet_flits}-flit packet does not fit the mesh's flit lanes"
        );
        let n = topo.num_pms() as usize;
        let side = topo.side() as usize;
        let words = side.div_ceil(64);
        let queues = || {
            (0..n)
                .map(|_| PacketQueue::new(out_queue_packets))
                .collect()
        };
        // Every router starts awake: the bits of columns 0..side.
        let row_word = |w: usize| match side - w * 64 {
            cols if cols >= 64 => u64::MAX,
            cols => (1 << cols) - 1,
        };
        MeshRouters {
            side,
            words,
            cap,
            lanes: vec![PackedFlit::default(); n * 5 * buffer_flits],
            xbar: vec![Crossbar::IDLE; n],
            held: vec![[PacketRef::PLACEHOLDER; 5]; n],
            awake: (0..side * words).map(|k| row_word(k % words)).collect(),
            out_req: queues(),
            out_resp: queues(),
            drain: vec![DrainState::idle(); n],
            assembler: vec![Assembler::new(); n],
            slept: Vec::new(),
            sends: Vec::new(),
            ops: Vec::new(),
            room: Vec::new(),
            moved: 0,
            link_flits: 0,
            blocked: 0,
        }
    }

    /// Total flits across all input buffers (occupancy gauge probe).
    pub fn occupancy(&self) -> usize {
        let flits = |x: &Crossbar| x.len.iter().map(|&n| usize::from(n)).sum::<usize>();
        self.xbar.iter().map(flits).sum()
    }

    /// Whether router `l`'s PM-side output queue of `class` has room.
    pub fn can_accept(&self, l: usize, class: QueueClass) -> bool {
        match class {
            QueueClass::Request => self.out_req[l].can_accept(),
            QueueClass::Response => self.out_resp[l].can_accept(),
        }
    }

    /// Enqueues an outgoing packet at router `l`'s PM boundary.
    pub fn enqueue(&mut self, l: usize, class: QueueClass, r: PacketRef) {
        match class {
            QueueClass::Request => self.out_req[l].push(r),
            QueueClass::Response => self.out_resp[l].push(r),
        }
        self.xbar[l].flags |= QUEUED | ACTIVE;
        let at = self.awake_bit(l);
        set_bit(&mut self.awake, at);
    }

    /// Router `l`'s bit in `awake`, counted from bit 0 of word 0.
    fn awake_bit(&self, l: usize) -> usize {
        ((l / self.side * self.words) << 6) + l % self.side
    }

    /// The routing decision at router `l`, sitting at `(row, col)`
    /// `at`, for a packet whose destination is owned by the router at
    /// `to`.
    ///
    /// Fault-free this is plain e-cube: two coordinate compares.
    /// With faults installed the dimension order degrades gracefully:
    /// prefer the X direction, fall back to the Y direction (a YX
    /// variant) when the X-side link or neighbour is unusable, and
    /// only when every required direction leads to a *dead* router
    /// give up with [`DROP`]. A direction whose neighbour is alive but
    /// whose link is merely down transiently is kept as a last resort
    /// — the packet stalls until the link returns rather than being
    /// dropped.
    fn route(
        l: usize,
        side: usize,
        at: (usize, usize),
        to: (usize, usize),
        fc: &FaultCtx,
    ) -> usize {
        let ((cr, cc), (dr, dc)) = (at, to);
        if fc.inj.is_none() {
            let coords = |(r, c): (usize, usize)| (r as u32, c as u32);
            return Direction::ecube(coords(at), coords(to)).map_or(LOCAL, Direction::port);
        }
        if cr == dr && cc == dc {
            return LOCAL;
        }
        let x = if cc < dc {
            Some(Direction::East)
        } else if cc > dc {
            Some(Direction::West)
        } else {
            None
        };
        let y = if cr < dr {
            Some(Direction::South)
        } else if cr > dr {
            Some(Direction::North)
        } else {
            None
        };
        // A candidate points toward the destination, so it stays
        // on-mesh.
        let mut candidates = [x, y].into_iter().flatten().map(Direction::port);
        let alive = |o: usize| !fc.router_dead(neighbor(l, side, o));
        if let Some(o) = candidates.clone().find(|&o| alive(o) && fc.link_up(l, o)) {
            return o;
        }
        // No fully healthy direction: wait on a transiently-down link
        // toward a live neighbour if one exists.
        candidates.find(|&o| alive(o)).unwrap_or(DROP)
    }

    /// Steps every awake router once, in node order. Flits granted a
    /// link move into the neighbour's FIFO at once (invisible there
    /// until the next cycle); deliveries and drops are recorded in `ops`
    /// for the caller to apply, routers that took a packet off a PM
    /// queue in `room`; `moved` and `link_flits` are this cycle's
    /// counts, and the returned [`StepWork`] its host work. Only a
    /// `traced` step lists its link transfers in `sends` and counts
    /// `blocked`. `owners` maps every destination id to its
    /// owning router's coordinates (see [`owner_coords`]); `store` is
    /// only read.
    pub fn step(
        &mut self,
        owners: &[(u16, u16)],
        store: &PacketStore,
        fc: &FaultCtx,
        traced: bool,
    ) -> StepWork {
        self.sends.clear();
        self.ops.clear();
        self.room.clear();
        let (side, words, cap) = (self.side, self.words, self.cap);
        let stride = usize::from(cap);
        // `awake` bits between vertical neighbours.
        let row_bits = words << 6;
        let (mut moved, mut link_flits, mut blocked) = (0u64, 0u64, 0u64);
        let (mut stepped, mut injected) = (0u64, 0u64);
        for row in 0..side {
            for k in row * words..(row + 1) * words {
                let mut bits = self.awake[k];
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    let col = ((k - row * words) << 6) + b;
                    let l = row * side + col;
                    // A sleeping router is skipped; its step would be a
                    // no-op by construction (see `Crossbar::quiescent`),
                    // so the cycle stream is identical to stepping
                    // everything. So is the step of a router that a
                    // lower-numbered neighbour woke this cycle: the flit
                    // is not visible yet. The block is updated in place;
                    // its sends update the neighbours' blocks, before
                    // (`behind`) or after (`ahead`) it in the walk.
                    let (behind, rest) = self.xbar.split_at_mut(l);
                    let (x, ahead) = rest.split_first_mut().expect("router l exists");
                    debug_assert!(x.flags & ACTIVE != 0, "router {l}: awake but not ACTIVE");
                    // Pops are this cycle's, and E/S arrivals came
                    // after the last step.
                    x.popped = 0;
                    x.arrived &= !FED_LATER;
                    stepped += 1;
                    let base = l * 5;

                    // 1. PM injection: serialize queued packets
                    //    (responses first) into the local input buffer
                    //    at one flit per cycle, while it had room when
                    //    the last cycle ended (only this step pushes or
                    //    pops it).
                    if x.flags & (QUEUED | DRAINING) == QUEUED {
                        let (resp, req) = (&mut self.out_resp[l], &mut self.out_req[l]);
                        let r = resp
                            .pop()
                            .or_else(|| req.pop())
                            .expect("a QUEUED router holds a packet");
                        if resp.is_empty() && req.is_empty() {
                            x.flags &= !QUEUED;
                        }
                        self.drain[l].begin(r, store.get(r).flits);
                        x.flags |= DRAINING;
                        self.room.push(NodeId::new(l as u32));
                    }
                    if x.flags & DRAINING != 0 && x.len[LOCAL] < cap {
                        let drain = &mut self.drain[l];
                        let flit = PackedFlit::new(drain.emit())
                            .expect("a live packet's slot and flit index fit a lane");
                        let at = x.push(LOCAL, cap);
                        self.lanes[(base + LOCAL) * stride + at] = flit;
                        if !drain.is_active() {
                            x.flags &= !DRAINING;
                        }
                        moved += 1;
                        injected += 1;
                    }

                    // 2. Route computation for new head flits. An input
                    //    with a route has that packet at its front until
                    //    the tail pops (which clears the route), so only
                    //    occupied, unrouted inputs look at their lanes.
                    for i in ports(x.occupied & !x.routed) {
                        if !x.ready(i) {
                            continue;
                        }
                        let flit = self.lanes[(base + i) * stride + usize::from(x.head[i])];
                        debug_assert!(flit.is_head(), "mid-packet flit without a route");
                        let (dr, dc) = owners[store.get(flit.packet()).dst.index()];
                        let to = (usize::from(dr), usize::from(dc));
                        let o = Self::route(l, side, (row, col), to, fc);
                        assert!(
                            o >= LOCAL || has_link(side, (row, col), o),
                            "e-cube never routes off the mesh edge"
                        );
                        x.route[i] = o as u8;
                        x.routed |= bit(i);
                        self.held[l][i] = flit.packet();
                    }
                    debug_assert!(
                        ports(x.routed).all(|i| !x.ready(i)
                            || self.lanes[(base + i) * stride + usize::from(x.head[i])].packet()
                                == self.held[l][i]),
                        "a held route outlived its packet"
                    );

                    // Stages 3-5 only ever act on an input holding a
                    // routed packet (`conn` can outlive a head only
                    // until its tail, which also clears the route), so
                    // a router with no routes left skips straight to
                    // the quiescence check.
                    if x.routed != 0 {
                        // The request mask of every output: bit `i` of
                        // `requests[o]` is input `i` waiting with a
                        // route to `o`; bit `o` of `wanted` is some input
                        // doing so. A granted input holds its output, so
                        // a free output's requesters are all waiting.
                        let (mut requests, mut wanted) = ([0u8; DROP + 1], 0u8);
                        for i in ports(x.routed & !x.granted) {
                            let o = usize::from(x.route[i]);
                            requests[o] |= bit(i);
                            wanted |= bit(o);
                        }

                        // 3. Round-robin arbitration for the free
                        //    outputs some input waits for.
                        for o in ports(wanted & !x.connected & 0x1F) {
                            if let Some((input, pointer)) =
                                arbitrate(u32::from(requests[o]), x.rr[o])
                            {
                                x.conn[o] = input;
                                x.rr[o] = pointer;
                                x.connected |= bit(o);
                                x.granted |= bit(usize::from(input));
                            }
                        }

                        // 4. Transfers: one flit per connected output,
                        //    gated by the downstream buffer's registered
                        //    stop/go; the local output ejects into the
                        //    always-ready PM.
                        for o in ports(x.connected) {
                            let i = usize::from(x.conn[o]);
                            let front = (base + i) * stride + usize::from(x.head[i]);
                            if o == LOCAL {
                                if x.ready(i) {
                                    let flit = self.lanes[front].flit();
                                    x.pop(i, cap, flit.is_tail);
                                    moved += 1;
                                    if flit.is_tail {
                                        x.disconnect(o);
                                    }
                                    if let Some(done) = self.assembler[l].push(flit) {
                                        self.ops.push(if fc.is_corrupt(done.slot()) {
                                            CommitOp::Drop {
                                                packet: done,
                                                reason: DropReason::Corrupted,
                                            }
                                        } else {
                                            CommitOp::Deliver {
                                                node: NodeId::new(l as u32),
                                                packet: done,
                                            }
                                        });
                                    }
                                }
                                continue;
                            }
                            let to = neighbor(l, side, o);
                            let input = (o + 2) & 3;
                            let down = if to < l {
                                &mut behind[to]
                            } else {
                                &mut ahead[to - l - 1]
                            };
                            if down.room(input, cap) && fc.link_up(l, o) {
                                if x.ready(i) {
                                    let lane = self.lanes[front];
                                    x.pop(i, cap, lane.is_tail());
                                    if lane.is_tail() {
                                        x.disconnect(o);
                                    }
                                    let at = down.push(input, cap);
                                    self.lanes[(to * 5 + input) * stride + at] = lane;
                                    link_flits += 1;
                                    if down.flags & ACTIVE == 0 {
                                        down.flags |= ACTIVE;
                                        let at = (k << 6) + b;
                                        let at = match o {
                                            0 => at - row_bits,
                                            1 => at + 1,
                                            2 => at + row_bits,
                                            _ => at - 1,
                                        };
                                        set_bit(&mut self.awake, at);
                                    }
                                    if traced {
                                        self.sends.push(Send {
                                            to_node: to as u32,
                                            flit: lane.flit(),
                                        });
                                    }
                                }
                            } else if traced && x.ready(i) {
                                blocked += 1;
                            }
                        }

                        // 5. Sink packets routed to the drop port: no
                        //    usable direction remained, so their flits
                        //    are consumed in place and the packet is
                        //    accounted as an explicit drop at the tail.
                        for i in ports(requests[DROP]) {
                            if x.ready(i) {
                                let lane = self.lanes[(base + i) * stride + usize::from(x.head[i])];
                                x.pop(i, cap, lane.is_tail());
                                moved += 1;
                                if lane.is_tail() {
                                    self.ops.push(CommitOp::Drop {
                                        packet: lane.packet(),
                                        reason: DropReason::DeadInterface,
                                    });
                                }
                            }
                        }
                    }

                    // Every arrival so far is past; the E/S pops are
                    // read by `l + 1` and `l + side`, later this walk.
                    x.arrived = 0;
                    x.popped &= FED_LATER;
                    if x.quiescent() {
                        x.flags &= !ACTIVE;
                        self.awake[k] &= !(1 << b);
                        if x.popped != 0 {
                            self.slept.push(l as u32);
                        }
                    }
                    #[cfg(debug_assertions)]
                    assert_eq!(self.xbar[l], self.recount(l), "router {l}: hot block");
                    // Re-read: this step may have woken its east
                    // neighbour, further along the same word.
                    bits = self.awake[k] & (!1 << b);
                }
            }
        }
        // No step clears a sleeping router's pops; their readers have
        // all stepped now.
        for l in self.slept.drain(..) {
            self.xbar[l as usize].popped = 0;
        }
        self.moved = moved + link_flits;
        self.link_flits = link_flits;
        self.blocked = blocked;
        StepWork { stepped, injected }
    }

    /// Hands the host-work counts of the step that returned `work` to
    /// `tracer`: routers stepped, link flits and FIFO pushes.
    pub fn report_work(&self, work: StepWork, tracer: &mut Tracer) {
        tracer.work(Work::MeshRouters, work.stepped);
        tracer.work(Work::LinkFlits, self.link_flits);
        tracer.work(Work::FifoPushes, self.link_flits + work.injected);
    }

    /// Router `l`'s [`Crossbar`] as the end of its step leaves it: the
    /// masks and the [`QUEUED`] and [`DRAINING`] flags recomputed from
    /// what they summarize (the FIFO lengths, the route and connection
    /// bytes, the PM queues and the drain), [`ACTIVE`] read from the
    /// awake bitset, no arrival bits, and only the E/S pops (history a
    /// later reader needs, not a summary).
    fn recount(&self, l: usize) -> Crossbar {
        let x = self.xbar[l];
        let mask =
            |set: &dyn Fn(usize) -> bool| (0..5).filter(|&i| set(i)).fold(0, |m, i| m | bit(i));
        let at = self.awake_bit(l);
        let mut flags = if (self.awake[at >> 6] >> (at & 63)) & 1 != 0 {
            ACTIVE
        } else {
            0
        };
        if !self.out_req[l].is_empty() || !self.out_resp[l].is_empty() {
            flags |= QUEUED;
        }
        if self.drain[l].is_active() {
            flags |= DRAINING;
        }
        Crossbar {
            occupied: mask(&|i| x.len[i] != 0),
            routed: mask(&|i| x.route[i] != NONE),
            connected: mask(&|o| x.conn[o] != NONE),
            granted: mask(&|i| {
                let o = usize::from(x.route[i]);
                o <= LOCAL && usize::from(x.conn[o]) == i
            }),
            popped: x.popped & FED_LATER,
            arrived: 0,
            flags,
            ..x
        }
    }

    /// Checks router `l`'s freshly restored [`Crossbar`]: a snapshot is
    /// outside input, and the step indexes with these bytes.
    fn validate_crossbar(&self, l: usize) -> Result<(), SnapError> {
        let x = &self.xbar[l];
        let at = (l / self.side, l % self.side);
        for (i, &port) in x.route.iter().enumerate() {
            let o = usize::from(port);
            if o < LOCAL && !has_link(self.side, at, o) {
                return Err(SnapError::Corrupt(format!(
                    "router {l} input {i}: route port {o} leads off the mesh"
                )));
            }
        }
        for (o, &input) in x.conn.iter().enumerate() {
            if input != NONE && usize::from(x.route[usize::from(input)]) != o {
                return Err(SnapError::Corrupt(format!(
                    "router {l} output {o}: connected to input {input}, which holds no route to it"
                )));
            }
        }
        Ok(())
    }

    /// Snapshots input FIFO `i` of router `l` in [`FifoBank`]'s format:
    /// its capacity, its length and its flits head first, one census
    /// run. A reader puts the front at slot 0.
    ///
    /// # Errors
    ///
    /// [`SnapError::Mismatch`] on a different capacity;
    /// [`SnapError::Corrupt`] on a length over capacity or a flit that
    /// does not fit a lane.
    ///
    /// [`FifoBank`]: ringmesh_net::FifoBank
    fn snap_fifo<C: Codec>(&mut self, l: usize, i: usize, c: &mut C) -> Result<(), SnapError> {
        let cap = usize::from(self.cap);
        c.exact(cap, "flit FIFO capacity")?;
        let corrupt = |what: String| SnapError::Corrupt(format!("router {l} input {i}: {what}"));
        let x = &mut self.xbar[l];
        let mut len = usize::from(x.len[i]);
        len.snap(c)?;
        if len > cap {
            return Err(corrupt(format!("flit FIFO length {len} over capacity")));
        }
        if c.reading() {
            (x.head[i], x.len[i]) = (0, len as u8);
        }
        let (fifo, head) = ((l * 5 + i) * cap, usize::from(x.head[i]));
        c.run(|c| {
            for pos in 0..len {
                let at = fifo + (head + pos) % cap;
                let mut flit = self.lanes[at].flit();
                flit.snap(c)?;
                self.lanes[at] = PackedFlit::new(flit)
                    .ok_or_else(|| corrupt(format!("{flit:?} does not fit a flit lane")))?;
            }
            Ok(())
        })
    }
}

/// A port-sized field, written as a `usize`, narrowed when below
/// `limit`.
fn small(v: usize, limit: usize, what: &str) -> Result<u8, SnapError> {
    if v < limit {
        Ok(v as u8)
    } else {
        Err(SnapError::Corrupt(format!("mesh router {what} {v}")))
    }
}

impl MeshRouters {
    /// Snapshots the router count; per router 5 FIFOs (see
    /// [`snap_fifo`](MeshRouters::snap_fifo)), 5 `Option<(PacketRef,
    /// usize)>` routes, 5 `Option<usize>` connections, 5 `usize`
    /// round-robin pointers, the two PM queues, drain, assembler. The
    /// masks and the flags summarize these: a reader wakes every router
    /// and recounts them, with no pop or arrival pending (every
    /// router's next step would clear its pops before a reader came).
    /// Stepping an idle router is a no-op, and puts it back to sleep.
    ///
    /// Each route steers its input's FIFO for the census, and a route
    /// to the PM port, like the assembler, claims its packet is for one
    /// of the `pms_per_router` PMs router `l` owns, `l·pms_per_router`
    /// on.
    ///
    /// # Errors
    ///
    /// [`SnapError`] on truncated or corrupt input, or a router count
    /// or FIFO capacity other than this mesh's.
    pub fn snap<C: Codec>(&mut self, c: &mut C, pms_per_router: u32) -> Result<(), SnapError> {
        let n = self.xbar.len();
        c.exact(n, "router count")?;
        for l in 0..n {
            let runs = c.census().map(|census| census.runs.len());
            for i in 0..5 {
                self.snap_fifo(l, i, c)?;
            }
            let x = &mut self.xbar[l];
            for i in 0..5 {
                let held = &mut self.held[l][i];
                let mut route = (x.route[i] != NONE).then(|| (*held, usize::from(x.route[i])));
                route.snap(c)?;
                x.route[i] = match route {
                    None => NONE,
                    Some((packet, port)) => {
                        *held = packet;
                        if port == DROP {
                            // A sink consumes the packet where it stands.
                            c.report(|census| census.consumed.push(packet.slot() as u32));
                        }
                        small(port, DROP + 1, "route port")?
                    }
                };
            }
            let owned = l as u32 * pms_per_router..(l as u32 + 1) * pms_per_router;
            if let Some(runs) = runs {
                let held = |i: usize| (x.route[i] != NONE).then(|| self.held[l][i].slot() as u32);
                let ejecting = (0..5).filter(|&i| usize::from(x.route[i]) == LOCAL);
                c.report(|census| {
                    census.routed.extend((0..5).map(|i| (runs + i, held(i))));
                    let claims =
                        ejecting.map(|i| (self.held[l][i].slot() as u32, owned.clone(), true));
                    census.claims.extend(claims);
                });
            }
            for o in 0..5 {
                let mut input = (x.conn[o] != NONE).then_some(usize::from(x.conn[o]));
                input.snap(c)?;
                x.conn[o] = match input {
                    None => NONE,
                    Some(i) => small(i, 5, "connected input")?,
                };
            }
            for o in 0..5 {
                let mut pointer = usize::from(x.rr[o]);
                pointer.snap(c)?;
                x.rr[o] = small(pointer, 5, "round-robin pointer")?;
            }
            if c.reading() {
                self.validate_crossbar(l)?;
            }
            self.out_req[l].snap(c)?;
            self.out_resp[l].snap(c)?;
            self.drain[l].snap(c)?;
            self.assembler[l].snap(c)?;
            if let Some(r) = self.assembler[l].packet() {
                c.report(|census| census.claims.push((r.slot() as u32, owned, true)));
            }
        }
        if c.reading() {
            for l in 0..n {
                let at = self.awake_bit(l);
                set_bit(&mut self.awake, at);
                self.xbar[l] = Crossbar {
                    popped: 0,
                    ..self.recount(l)
                };
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEALTHY: FaultCtx<'static> = FaultCtx {
        inj: None,
        corrupt: &[],
        now: 0,
    };

    /// The route stage takes its own coordinates from the walk and the
    /// destination's from the owner table; for every pair that must be
    /// the decision `MeshTopology::ecube` derives from the two node
    /// ids.
    #[test]
    fn route_equals_topology_ecube_for_all_pairs() {
        for side in 1..=8u32 {
            let topo = MeshTopology::new(side);
            let owners = owner_coords(&topo, 1);
            let side = side as usize;
            for l in 0..side * side {
                let node = NodeId::new(l as u32);
                for dst in (0..(side * side) as u32).map(NodeId::new) {
                    let (dr, dc) = owners[dst.index()];
                    let to = (usize::from(dr), usize::from(dc));
                    let port = MeshRouters::route(l, side, (l / side, l % side), to, &HEALTHY);
                    let want = topo.ecube(node, dst).map_or(LOCAL, Direction::port);
                    assert_eq!(port, want, "side {side}: {node} -> {dst}");
                }
            }
        }
    }

    /// The link arithmetic against the topology's own neighbour
    /// function, edges included.
    #[test]
    fn neighbor_equals_topology_neighbor() {
        for side in 1..=6u32 {
            let topo = MeshTopology::new(side);
            for l in 0..side * side {
                let at = topo.coords(NodeId::new(l));
                let at = (at.0 as usize, at.1 as usize);
                for dir in Direction::ALL {
                    let got = has_link(side as usize, at, dir.port())
                        .then(|| neighbor(l as usize, side as usize, dir.port()));
                    let want = topo.neighbor(NodeId::new(l), dir).map(NodeId::index);
                    assert_eq!(got, want, "side {side}: {l} {dir}");
                }
            }
        }
    }

    /// The request-mask pick against the probe loop it replaced, for
    /// all 32 request masks and 5 pointers.
    #[test]
    fn arbitration_equals_the_probe_loop() {
        for requests in 0..32u32 {
            for pointer in 0..5u8 {
                let want = (0..5)
                    .map(|k| (pointer + k) % 5)
                    .find(|&i| requests & (1 << i) != 0)
                    .map(|i| (i, (i + 1) % 5));
                assert_eq!(
                    arbitrate(requests, pointer),
                    want,
                    "mask {requests:#07b} pointer {pointer}"
                );
            }
        }
    }

    #[test]
    fn a_crossbar_is_one_thirty_two_byte_block() {
        assert_eq!(size_of::<Crossbar>(), 32);
        assert_eq!(align_of::<Crossbar>(), 32);
    }

    #[test]
    fn ports_walks_the_set_bits_lowest_first() {
        assert_eq!(ports(0).count(), 0);
        assert_eq!(ports(0b1_0110).collect::<Vec<_>>(), [1, 2, 4]);
    }

    /// The registered stop/go of an E/S input whose owner popped it and
    /// fell asleep in the same step: on a `mesh:2` of one-flit buffers,
    /// router 0 ejects the only flit of its E input (router 1 feeds it)
    /// and sleeps, while router 1 holds another ready flit for it. That
    /// FIFO was full when the cycle began, so router 1 must see stop in
    /// this cycle and go in the next: the sleeper's pop is cleared after
    /// the walk, not when it falls asleep.
    #[test]
    fn a_pop_by_a_router_that_falls_asleep_is_stop_until_the_next_cycle() {
        let mut routers = MeshRouters::new(&MeshTopology::new(2), 1, 1, 4);
        let owners = owner_coords(&MeshTopology::new(2), 1);
        let mut store = PacketStore::new();
        let mut one_flit = || {
            let packet = store.insert(ringmesh_net::Packet {
                dst: NodeId::new(0),
                flits: 1,
                ..Default::default()
            });
            PackedFlit::new(Flit {
                packet,
                seq: 0,
                is_tail: true,
            })
            .unwrap()
        };
        // Buffered before this cycle, so ready.
        for (l, i) in [(0, 1), (1, LOCAL)] {
            let at = routers.xbar[l].push(i, 1);
            routers.lanes[l * 5 + i + at] = one_flit();
            routers.xbar[l].arrived = 0;
        }
        let awake = |r: &MeshRouters, l: usize| r.xbar[l].flags & ACTIVE != 0;

        routers.step(&owners, &store, &HEALTHY, true);
        assert!(matches!(routers.ops[..], [CommitOp::Deliver { .. }]));
        assert!(!awake(&routers, 0), "router 0 ejected its flit and slept");
        assert_eq!(
            usize::from(routers.xbar[1].conn[3]),
            LOCAL,
            "router 1 holds W"
        );
        assert_eq!((routers.link_flits, routers.blocked), (0, 1), "stop");

        routers.step(&owners, &store, &HEALTHY, true);
        assert_eq!((routers.link_flits, routers.blocked), (1, 0), "go");
        assert!(awake(&routers, 0), "the flit woke router 0");
    }
}
