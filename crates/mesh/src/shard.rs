//! Structure-of-arrays mesh router state, one shard per mesh row.
//!
//! The previous layout kept a `Vec<Router>` of per-node structs; the
//! per-cycle loop walked them pointer-chasing five FIFOs, a routing
//! table and arbitration state per node. This module splits that state
//! into per-row [`MeshShard`]s holding one contiguous array per field,
//! each indexed by local node and carrying that node's ports as an
//! inline fixed-size block (`Vec<[T; 5]>`; `[T; 4]` for links). The hot
//! stages — route, arbitrate, transfer — scan each field's array in
//! node order with compile-time-bounded port indexing.
//!
//! # Compute, commit, latch
//!
//! The mesh is clocked with *registered* (previous-cycle) stop/go flow
//! control, so within one cycle every node's step reads only shared
//! state from the previous cycle. The owning network walks the shards
//! in ascending order and, for each one:
//!
//! 1. **compute** ([`MeshShard::compute`]) — reads the shared
//!    previous-cycle stop/go buffer, the packet store, the
//!    destination-owner table and the fault view; mutates *only*
//!    shard-local state; and records every shared-state effect (flit
//!    transfers onto links, packet deliveries/drops) into shard-local
//!    [`Send`]/[`CommitOp`] buffers.
//! 2. **commit** (in `MeshNetwork::step`) — applies that shard's
//!    buffered effects, so effects land in ascending node order. The
//!    commit loop is the one writer of the packet store and the
//!    ledger, and the place where the hybrid network gives
//!    [`CommitOp::Deliver`] a different meaning (into a bridge queue).
//!
//! After the last shard, **latch** ([`MeshShard::latch`]): each shard
//! latches its input FIFOs and writes the *next*-cycle stop/go signals
//! into its own `go_out` buffer, which the network copies into the
//! shared `go` buffer. `go` / `go_out` are the explicit current/next
//! halves of the double-buffered cycle state.

use ringmesh_faults::{DropReason, FaultInjector};
use ringmesh_net::{
    Assembler, DrainState, Flit, FlitFifo, NodeId, PacketQueue, PacketRef, PacketStore, QueueClass,
};
use ringmesh_snap::{SnapError, SnapReader, SnapWriter, Snapshot, SnapshotState};

use crate::topology::{Direction, MeshTopology};

/// Port index of the local PM; ports 0..4 are N/E/S/W per
/// [`Direction::port`].
pub const LOCAL: usize = 4;

/// Sentinel "port" for packets with no usable route (every required
/// direction leads to a dead router): the input sinks their flits and
/// the packet is accounted as dropped.
pub const DROP: usize = 5;

/// Per-cycle fault view handed to every shard's compute phase. With no
/// injector installed every query answers "healthy" and routing is
/// byte-for-byte the plain e-cube path.
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
    fn router_dead(&self, node: NodeId) -> bool {
        self.inj.is_some_and(|f| f.node_dead(node.raw()))
    }

    /// Directed link out of `from` toward `dir` (`node*4 + port`).
    fn link_up(&self, from: NodeId, dir: Direction) -> bool {
        self.link_up_id(from.raw() * 4 + dir.port() as u32)
    }

    /// [`Self::link_up`] by precomputed directed-link id — the hot
    /// transfer path uses ids cached in [`LinkInfo`] so the fault query
    /// costs no coordinate arithmetic.
    fn link_up_id(&self, id: u32) -> bool {
        match self.inj {
            None => true,
            Some(f) => f.link_up(id, self.now),
        }
    }

    fn is_corrupt(&self, slot: usize) -> bool {
        self.corrupt.get(slot).copied().unwrap_or(false)
    }
}

/// A flit transfer onto an inter-router link, recorded during compute
/// and applied at commit after all nodes have stepped.
#[derive(Debug, Clone, Copy)]
pub struct Send {
    /// Global id of the receiving node.
    pub to_node: u32,
    /// Destination shard and node-within-shard, precomputed at
    /// construction so commit does no divmod per flit.
    pub to_sh: u32,
    /// Node-within-shard of the receiver.
    pub to_l: u32,
    /// Receiving input port.
    pub to_port: u32,
    /// The flit on the wire.
    pub flit: Flit,
}

/// A deferred shared-state effect: recorded shard-locally during
/// compute, applied at commit in node order, which fixes the order of
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

/// Facts about one outgoing mesh link, precomputed at construction so
/// the per-cycle transfer loop does no topology arithmetic: the
/// receiving node and port, the flattened index of that input's
/// stop/go signal, and the directed-link fault id.
#[derive(Debug, Clone, Copy)]
struct LinkInfo {
    to_node: NodeId,
    /// `(shard, local)` of `to_node` — shards are one row each.
    to_sh: u32,
    to_l: u32,
    to_port: u32,
    go_idx: usize,
    link_id: u32,
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

/// One mesh row's worth of router state in structure-of-arrays layout.
///
/// Each per-port field is its own flat array with one fixed-size
/// `[_; 5]` block per node, indexed `[node - lo][port]` (`[_; 4]`
/// blocks for the link table): fields scan contiguously across the
/// row, while one node's five ports of a field share a block — a
/// single bounds check — and index with compile-time-known bounds.
/// Scratch buffers (`sends`, `ops`, `moved`, `blocked`) are the
/// compute phase's only outputs besides shard-local state.
#[derive(Debug)]
pub struct MeshShard {
    /// First global node id in this shard.
    lo: usize,
    /// Number of nodes (= the mesh side, one row per shard).
    len: usize,
    /// The mesh row this shard covers; node `lo + l` sits at
    /// `(row, l)`.
    row: u32,
    inputs: Vec<[FlitFifo; 5]>,
    /// Output port assigned to the packet at the front of each input,
    /// held from head to tail.
    route_of: Vec<[Option<(PacketRef, usize)>; 5]>,
    /// Input currently connected to each output.
    conn: Vec<[Option<usize>; 5]>,
    /// Round-robin arbitration pointer per output.
    rr: Vec<[usize; 5]>,
    /// "Next"-cycle stop/go written by [`latch`](Self::latch); gathered
    /// into the network's shared "current" buffer between cycles.
    go_out: Vec<bool>,
    /// Outgoing-link table, one `[dir]` block per node; `None` off the
    /// mesh edge.
    links: Vec<[Option<LinkInfo>; 4]>,
    out_req: Vec<PacketQueue>,
    out_resp: Vec<PacketQueue>,
    drain: Vec<DrainState>,
    assembler: Vec<Assembler>,
    /// Active-node worklist: false only while the node is provably
    /// quiescent, letting compute skip idle nodes under light load.
    active: Vec<bool>,
    /// Compute-phase output: link transfers, concatenated in node order.
    pub sends: Vec<Send>,
    /// Compute-phase output: deliveries/drops, in node order.
    pub ops: Vec<CommitOp>,
    /// Flit movements observed during compute (watchdog food).
    pub moved: u64,
    /// Transfer opportunities blocked on downstream stop (tracing).
    pub blocked: u64,
}

impl MeshShard {
    /// Builds the shard covering nodes `lo..lo + len` of `topo` — one
    /// whole mesh row, so `len` is the mesh side.
    pub fn new(
        lo: usize,
        len: usize,
        topo: &MeshTopology,
        buffer_flits: usize,
        out_queue_packets: usize,
    ) -> Self {
        let links = (0..len)
            .map(|l| {
                let node = NodeId::new((lo + l) as u32);
                std::array::from_fn(|d| {
                    let dir = Direction::ALL[d];
                    topo.neighbor(node, dir).map(|nb| {
                        let (row, col) = topo.coords(nb);
                        LinkInfo {
                            to_node: nb,
                            to_sh: row,
                            to_l: col,
                            to_port: dir.opposite().port() as u32,
                            go_idx: nb.index() * 5 + dir.opposite().port(),
                            link_id: node.raw() * 4 + dir.port() as u32,
                        }
                    })
                })
            })
            .collect();
        MeshShard {
            lo,
            len,
            row: topo.coords(NodeId::new(lo as u32)).0,
            inputs: (0..len)
                .map(|_| std::array::from_fn(|_| FlitFifo::new(buffer_flits)))
                .collect(),
            route_of: vec![[None; 5]; len],
            conn: vec![[None; 5]; len],
            rr: vec![[0; 5]; len],
            go_out: vec![true; len * 5],
            links,
            out_req: (0..len)
                .map(|_| PacketQueue::new(out_queue_packets))
                .collect(),
            out_resp: (0..len)
                .map(|_| PacketQueue::new(out_queue_packets))
                .collect(),
            drain: vec![DrainState::idle(); len],
            assembler: vec![Assembler::new(); len],
            active: vec![true; len],
            sends: Vec::new(),
            ops: Vec::new(),
            moved: 0,
            blocked: 0,
        }
    }

    /// First global node id in this shard.
    pub fn lo(&self) -> usize {
        self.lo
    }

    /// The latched next-cycle stop/go slice (`len * 5` entries).
    pub fn go_out(&self) -> &[bool] {
        &self.go_out
    }

    /// Per-node activity flags (snapshot access).
    pub fn active(&self) -> &[bool] {
        &self.active
    }

    /// Mutable form of [`active`](Self::active) (snapshot restore).
    pub fn active_mut(&mut self) -> &mut [bool] {
        &mut self.active
    }

    /// Total flits across all input buffers (occupancy gauge probe).
    pub fn occupancy(&self) -> usize {
        self.inputs.iter().flatten().map(FlitFifo::len).sum()
    }

    /// Whether node `l`'s PM-side output queue of `class` has room.
    pub fn can_accept(&self, l: usize, class: QueueClass) -> bool {
        match class {
            QueueClass::Request => self.out_req[l].can_accept(),
            QueueClass::Response => self.out_resp[l].can_accept(),
        }
    }

    /// Enqueues an outgoing packet at node `l`'s PM boundary.
    pub fn enqueue(&mut self, l: usize, class: QueueClass, r: PacketRef) {
        match class {
            QueueClass::Request => self.out_req[l].push(r),
            QueueClass::Response => self.out_resp[l].push(r),
        }
        self.active[l] = true;
    }

    /// Applies one arriving link flit at commit time and re-activates
    /// the node.
    pub fn deliver_flit(&mut self, l: usize, port: usize, flit: Flit, now: u64) {
        self.inputs[l][port].push(flit, now);
        self.active[l] = true;
    }

    /// The routing decision at global node `node`, sitting at
    /// `(row, col)` `at`, for a packet whose destination is owned by
    /// the router at `to`.
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
        node: NodeId,
        at: (u32, u32),
        to: (u32, u32),
        topo: &MeshTopology,
        fc: &FaultCtx,
    ) -> usize {
        if fc.inj.is_none() {
            return Direction::ecube(at, to).map_or(LOCAL, Direction::port);
        }
        let ((cr, cc), (dr, dc)) = (at, to);
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
        let candidates = [x, y];
        let healthy = candidates.iter().flatten().find(|&&dir| {
            let nb = topo.neighbor(node, dir).expect("candidate stays on-mesh");
            !fc.router_dead(nb) && fc.link_up(node, dir)
        });
        if let Some(&dir) = healthy {
            return dir.port();
        }
        // No fully healthy direction: wait on a transiently-down link
        // toward a live neighbour if one exists.
        let waitable = candidates.iter().flatten().find(|&&dir| {
            let nb = topo.neighbor(node, dir).expect("candidate stays on-mesh");
            !fc.router_dead(nb)
        });
        match waitable {
            Some(&dir) => dir.port(),
            None => DROP,
        }
    }

    /// The compute phase: steps every active node in this
    /// shard, writing shared-state effects into `sends`/`ops` and
    /// everything else into shard-local arrays. `go` is the shared
    /// previous-cycle stop/go buffer; `owners` maps every destination
    /// id to its owning router's coordinates (see [`owner_coords`]);
    /// `store` is read-only here (all removals are deferred to
    /// commit).
    ///
    /// The per-node router step is written inline against slices carved
    /// once per call (`&mut field[..len]`): the compiler can then prove
    /// every `[l]` access in bounds, and the port loops index
    /// fixed-size `[T; 5]` blocks — the same check-free codegen the old
    /// one-struct-per-router layout got, without giving up the
    /// per-field arrays.
    pub fn compute(
        &mut self,
        now: u64,
        topo: &MeshTopology,
        go: &[bool],
        owners: &[(u16, u16)],
        store: &PacketStore,
        fc: &FaultCtx,
    ) {
        self.sends.clear();
        self.ops.clear();
        let len = self.len;
        let lo = self.lo;
        let row = self.row;
        let inputs = &mut self.inputs[..len];
        let route_of = &mut self.route_of[..len];
        let conn = &mut self.conn[..len];
        let rr = &mut self.rr[..len];
        let links = &self.links[..len];
        let drains = &mut self.drain[..len];
        let out_req = &mut self.out_req[..len];
        let out_resp = &mut self.out_resp[..len];
        let assemblers = &mut self.assembler[..len];
        let active = &mut self.active[..len];
        let sends = &mut self.sends;
        let ops = &mut self.ops;
        let mut moved = 0u64;
        let mut blocked = 0u64;
        for l in 0..len {
            // Skip provably-idle nodes; a skipped step is a no-op by
            // construction (see the quiescence check below), so the
            // cycle stream is identical to stepping everything.
            if !active[l] {
                continue;
            }
            let node = NodeId::new((lo + l) as u32);
            let inp = &mut inputs[l];
            let ro = &mut route_of[l];
            let cn = &mut conn[l];
            let rrn = &mut rr[l];
            let lks = &links[l];
            let drain = &mut drains[l];

            // 1. PM injection: serialize queued packets (responses
            //    first) into the local input buffer at one flit per
            //    cycle.
            if !drain.is_active() {
                let next = if !out_resp[l].is_empty() {
                    out_resp[l].pop()
                } else {
                    out_req[l].pop()
                };
                if let Some(r) = next {
                    drain.begin(r, store.get(r).flits);
                }
            }
            if drain.is_active() && inp[LOCAL].space_latched() {
                let flit = drain.emit();
                inp[LOCAL].push(flit, now);
                moved += 1;
            }

            // 2. Route computation for new head flits at input fronts.
            for i in 0..5 {
                if let Some(flit) = inp[i].front_ready(now) {
                    let stale = ro[i].is_none_or(|(r, _)| r != flit.packet);
                    if stale {
                        debug_assert!(flit.is_head(), "mid-packet flit without a route");
                        let (dr, dc) = owners[store.get(flit.packet).dst.index()];
                        let to = (u32::from(dr), u32::from(dc));
                        let port = Self::route(node, (row, l as u32), to, topo, fc);
                        ro[i] = Some((flit.packet, port));
                    }
                }
            }

            // Stages 3-5 only ever act on an input holding a routed
            // packet (`conn` can outlive a head only until its tail,
            // which also clears `route_of`), so a node with no routes
            // left skips straight to the quiescence check.
            if ro.iter().any(Option::is_some) {
                // 3. Round-robin arbitration for free outputs.
                for o in 0..5 {
                    if cn[o].is_some() {
                        continue;
                    }
                    for k in 0..5 {
                        let i = (rrn[o] + k) % 5;
                        if matches!(ro[i], Some((_, port)) if port == o) {
                            cn[o] = Some(i);
                            rrn[o] = (i + 1) % 5;
                            break;
                        }
                    }
                }

                // 4. Transfers: one flit per connected output, gated by
                //    the downstream buffer's registered stop/go; the
                //    local output ejects into the always-ready PM.
                for o in 0..5 {
                    let Some(i) = cn[o] else { continue };
                    if o == LOCAL {
                        if let Some(flit) = inp[i].pop_ready(now) {
                            moved += 1;
                            if flit.is_tail {
                                cn[o] = None;
                                ro[i] = None;
                            }
                            if let Some(done) = assemblers[l].push(flit) {
                                ops.push(if fc.is_corrupt(done.slot()) {
                                    CommitOp::Drop {
                                        packet: done,
                                        reason: DropReason::Corrupted,
                                    }
                                } else {
                                    CommitOp::Deliver { node, packet: done }
                                });
                            }
                        }
                    } else {
                        let link = lks[o].expect("e-cube never routes off the mesh edge");
                        if go[link.go_idx] && fc.link_up_id(link.link_id) {
                            if let Some(flit) = inp[i].pop_ready(now) {
                                if flit.is_tail {
                                    cn[o] = None;
                                    ro[i] = None;
                                }
                                sends.push(Send {
                                    to_node: link.to_node.raw(),
                                    to_sh: link.to_sh,
                                    to_l: link.to_l,
                                    to_port: link.to_port,
                                    flit,
                                });
                            }
                        } else if inp[i].front_ready(now).is_some() {
                            blocked += 1;
                        }
                    }
                }

                // 5. Sink packets routed to the drop port: no usable
                //    direction remained, so their flits are consumed in
                //    place and the packet is accounted as an explicit
                //    drop at the tail.
                for i in 0..5 {
                    if !matches!(ro[i], Some((_, DROP))) {
                        continue;
                    }
                    if let Some(flit) = inp[i].pop_ready(now) {
                        moved += 1;
                        if flit.is_tail {
                            ro[i] = None;
                            ops.push(CommitOp::Drop {
                                packet: flit.packet,
                                reason: DropReason::DeadInterface,
                            });
                        }
                    }
                }
            }

            // Deactivate when a further step is provably a no-op: no
            // buffered flits, no packet mid-serialization, nothing
            // queued at the PM boundary, and no arbitration state that
            // could still drive a transfer. `route_of`/`conn` must be
            // clear, not just the inputs — arbitration connects outputs
            // from `route_of` without consulting buffer occupancy, so
            // leftover routes would change arbitration timing.
            if !drain.is_active()
                && out_req[l].is_empty()
                && out_resp[l].is_empty()
                && inp.iter().all(FlitFifo::is_empty)
                && ro.iter().all(Option::is_none)
                && cn.iter().all(Option::is_none)
            {
                active[l] = false;
            }
        }
        self.moved = moved;
        self.blocked = blocked;
    }

    /// The latch phase: registers every input buffer's
    /// occupancy and writes next-cycle stop/go into `go_out`.
    pub fn latch(&mut self) {
        for (block, go) in self.inputs.iter_mut().zip(self.go_out.chunks_exact_mut(5)) {
            for (input, g) in block.iter_mut().zip(go.iter_mut()) {
                input.latch();
                *g = input.space_latched();
            }
        }
    }

    /// Serializes node `l`'s state, byte-compatible with the previous
    /// per-router layout (5 FIFOs, route/conn/rr port arrays, the two
    /// PM queues, drain, assembler).
    pub fn save_node_state(&self, l: usize, w: &mut SnapWriter) {
        for p in 0..5 {
            self.inputs[l][p].save_state(w);
        }
        for p in 0..5 {
            self.route_of[l][p].save(w);
        }
        for p in 0..5 {
            self.conn[l][p].save(w);
        }
        for p in 0..5 {
            self.rr[l][p].save(w);
        }
        self.out_req[l].save_state(w);
        self.out_resp[l].save_state(w);
        self.drain[l].save(w);
        self.assembler[l].save(w);
    }

    /// Restores node `l`'s state written by
    /// [`save_node_state`](Self::save_node_state).
    pub fn restore_node_state(
        &mut self,
        l: usize,
        r: &mut SnapReader<'_>,
    ) -> Result<(), SnapError> {
        for p in 0..5 {
            self.inputs[l][p].restore_state(r)?;
        }
        for p in 0..5 {
            self.route_of[l][p] = Snapshot::load(r)?;
        }
        for p in 0..5 {
            self.conn[l][p] = Snapshot::load(r)?;
        }
        for p in 0..5 {
            self.rr[l][p] = Snapshot::load(r)?;
        }
        self.out_req[l].restore_state(r)?;
        self.out_resp[l].restore_state(r)?;
        self.drain[l] = DrainState::load(r)?;
        self.assembler[l] = Assembler::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The route stage takes its own coordinates from the shard
    /// (`row`, index within the row) and the destination's from the
    /// owner table; for every pair that must be the decision
    /// `MeshTopology::ecube` derives from the two node ids.
    #[test]
    fn route_equals_topology_ecube_for_all_pairs() {
        let fc = FaultCtx {
            inj: None,
            corrupt: &[],
            now: 0,
        };
        for side in 1..=8u32 {
            let topo = MeshTopology::new(side);
            let owners = owner_coords(&topo, 1);
            for row in 0..side {
                let shard = MeshShard::new((row * side) as usize, side as usize, &topo, 4, 4);
                for l in 0..side {
                    let node = NodeId::new(row * side + l);
                    for dst in (0..side * side).map(NodeId::new) {
                        let (dr, dc) = owners[dst.index()];
                        let to = (u32::from(dr), u32::from(dc));
                        let port = MeshShard::route(node, (shard.row, l), to, &topo, &fc);
                        let want = topo.ecube(node, dst).map_or(LOCAL, Direction::port);
                        assert_eq!(port, want, "side {side}: {node} -> {dst}");
                    }
                }
            }
        }
    }
}
