//! The production mesh kernel against a reference router (ROADMAP 5c,
//! mesh half).
//!
//! Fingerprints pin the kernel to its own past; they cannot see a bug
//! that before and after share. The [`Oracle`] below is the router of
//! §2.2 written as plainly as the public `ringmesh-net` types allow:
//! one struct per router, five `FlitFifo`s each, `Option` routes, a
//! five-probe round-robin loop per output, every router stepped every
//! cycle, link transfers collected and applied after all routers have
//! stepped, every FIFO latched every cycle. No worklist, no request
//! masks, no FIFO bank, no link arithmetic. Both networks get the same
//! seeded injections and must agree delivery for delivery, every cycle.

use ringmesh_engine::SimRng;
use ringmesh_faults::{
    DropCounts, DropReason, FaultEvent, FaultInjector, FaultKind, FaultSchedule,
};
use ringmesh_mesh::{Direction, MeshConfig, MeshNetwork, MeshTopology};
use ringmesh_net::{
    Assembler, BufferRegime, CacheLineSize, DrainState, Flit, FlitFifo, Interconnect, NodeId,
    Packet, PacketFormat, PacketKind, PacketQueue, PacketRef, PacketStore, QueueClass, TxnId,
};

const LOCAL: usize = 4;
const DROP: usize = 5;

struct Router {
    inputs: [FlitFifo; 5],
    /// Output port held by the packet at the front of each input.
    route_of: [Option<(PacketRef, usize)>; 5],
    /// Input connected to each output.
    conn: [Option<usize>; 5],
    rr: [usize; 5],
    out_req: PacketQueue,
    out_resp: PacketQueue,
    drain: DrainState,
    assembler: Assembler,
}

struct Oracle {
    topo: MeshTopology,
    routers: Vec<Router>,
    store: PacketStore,
    faults: Option<FaultInjector>,
    cycle: u64,
    link_flits: u64,
}

impl Oracle {
    fn new(topo: MeshTopology, cfg: &MeshConfig, faults: Option<FaultInjector>) -> Self {
        let router = |_| Router {
            inputs: std::array::from_fn(|_| FlitFifo::new(cfg.buffer_flits())),
            route_of: [None; 5],
            conn: [None; 5],
            rr: [0; 5],
            out_req: PacketQueue::new(cfg.out_queue_packets),
            out_resp: PacketQueue::new(cfg.out_queue_packets),
            drain: DrainState::idle(),
            assembler: Assembler::new(),
        };
        Oracle {
            topo,
            routers: (0..topo.num_pms()).map(router).collect(),
            store: PacketStore::new(),
            faults,
            cycle: 0,
            link_flits: 0,
        }
    }

    fn dead(&self, node: NodeId) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|f| f.node_dead(node.raw()))
    }

    fn link_up(&self, node: NodeId, dir: Direction) -> bool {
        let id = node.raw() * 4 + dir.port() as u32;
        self.faults
            .as_ref()
            .is_none_or(|f| f.link_up(id, self.cycle))
    }

    fn can_inject(&self, pm: NodeId, class: QueueClass) -> bool {
        let r = &self.routers[pm.index()];
        match class {
            QueueClass::Request => r.out_req.can_accept(),
            QueueClass::Response => r.out_resp.can_accept(),
        }
    }

    fn inject(&mut self, pm: NodeId, packet: Packet) {
        if self.dead(pm) || self.dead(packet.dst) {
            let f = self.faults.as_mut().expect("only faults kill routers");
            f.record_drop(DropReason::Unreachable);
            return;
        }
        let class = QueueClass::of(packet.kind);
        let r = self.store.insert(packet);
        match class {
            QueueClass::Request => self.routers[pm.index()].out_req.push(r),
            QueueClass::Response => self.routers[pm.index()].out_resp.push(r),
        }
    }

    /// E-cube; with faults, X then Y among the directions toward the
    /// destination whose neighbour is alive, preferring one whose link
    /// is up too, and the drop port when every neighbour is dead.
    fn route(&self, at: NodeId, dst: NodeId) -> usize {
        let ((ar, ac), (dr, dc)) = (self.topo.coords(at), self.topo.coords(dst));
        let x = (ac != dc).then_some(if ac < dc {
            Direction::East
        } else {
            Direction::West
        });
        let y = (ar != dr).then_some(if ar < dr {
            Direction::South
        } else {
            Direction::North
        });
        if x.is_none() && y.is_none() {
            return LOCAL;
        }
        let alive = |dir: &Direction| {
            let nb = self
                .topo
                .neighbor(at, *dir)
                .expect("toward the destination");
            !self.dead(nb)
        };
        let toward: Vec<Direction> = [x, y].into_iter().flatten().filter(alive).collect();
        let healthy = toward.iter().find(|&&dir| self.link_up(at, dir));
        healthy.or(toward.first()).map_or(DROP, |dir| dir.port())
    }

    fn step(&mut self, delivered: &mut Vec<(NodeId, Packet)>) {
        let now = self.cycle;
        if let Some(f) = &mut self.faults {
            f.advance(now);
        }
        let mut wire: Vec<(NodeId, usize, Flit)> = Vec::new();
        let mut sunk = 0;
        for l in 0..self.routers.len() {
            let node = NodeId::new(l as u32);
            // PM injection, responses first, one flit per cycle.
            let r = &mut self.routers[l];
            if !r.drain.is_active() {
                if let Some(p) = r.out_resp.pop().or_else(|| r.out_req.pop()) {
                    r.drain.begin(p, self.store.get(p).flits);
                }
            }
            if r.drain.is_active() && r.inputs[LOCAL].space_latched() {
                let flit = r.drain.emit();
                r.inputs[LOCAL].push(flit, now);
            }
            // Route new heads.
            for i in 0..5 {
                if let Some(flit) = self.routers[l].inputs[i].front_ready(now) {
                    if self.routers[l].route_of[i].is_none_or(|(p, _)| p != flit.packet) {
                        let port = self.route(node, self.store.get(flit.packet).dst);
                        self.routers[l].route_of[i] = Some((flit.packet, port));
                    }
                }
            }
            // Round-robin arbitration for free outputs.
            let r = &mut self.routers[l];
            for o in 0..5 {
                if r.conn[o].is_some() {
                    continue;
                }
                for k in 0..5 {
                    let i = (r.rr[o] + k) % 5;
                    if matches!(r.route_of[i], Some((_, port)) if port == o) {
                        r.conn[o] = Some(i);
                        r.rr[o] = (i + 1) % 5;
                        break;
                    }
                }
            }
            // One flit per connected output.
            for o in 0..5 {
                let Some(i) = self.routers[l].conn[o] else {
                    continue;
                };
                let go = o == LOCAL || {
                    let dir = Direction::ALL[o];
                    let nb = self.topo.neighbor(node, dir).expect("e-cube stays on-mesh");
                    self.routers[nb.index()].inputs[dir.opposite().port()].space_latched()
                        && self.link_up(node, dir)
                };
                if !go {
                    continue;
                }
                let r = &mut self.routers[l];
                let Some(flit) = r.inputs[i].pop_ready(now) else {
                    continue;
                };
                if flit.is_tail {
                    r.conn[o] = None;
                    r.route_of[i] = None;
                }
                if o == LOCAL {
                    if let Some(done) = r.assembler.push(flit) {
                        delivered.push((node, self.store.remove(done)));
                    }
                } else {
                    let dir = Direction::ALL[o];
                    let nb = self.topo.neighbor(node, dir).expect("checked above");
                    wire.push((nb, dir.opposite().port(), flit));
                }
            }
            // The drop port swallows its packets flit by flit.
            let r = &mut self.routers[l];
            for i in 0..5 {
                if !matches!(r.route_of[i], Some((_, DROP))) {
                    continue;
                }
                if let Some(flit) = r.inputs[i].pop_ready(now) {
                    if flit.is_tail {
                        r.route_of[i] = None;
                        self.store.remove(flit.packet);
                        sunk += 1;
                    }
                }
            }
        }
        for _ in 0..sunk {
            let f = self.faults.as_mut().expect("only faults sink packets");
            f.record_drop(DropReason::DeadInterface);
        }
        self.link_flits += wire.len() as u64;
        for (to, port, flit) in wire {
            self.routers[to.index()].inputs[port].push(flit, now);
        }
        for r in &mut self.routers {
            r.inputs.iter_mut().for_each(FlitFifo::latch);
        }
        self.cycle += 1;
    }

    fn drops(&self) -> DropCounts {
        self.faults
            .as_ref()
            .map_or_else(DropCounts::default, |f| f.report().drops)
    }
}

const KINDS: [PacketKind; 4] = [
    PacketKind::ReadReq,
    PacketKind::ReadResp,
    PacketKind::WriteReq,
    PacketKind::WriteResp,
];

/// Runs both networks for `cycles` under per-PM injection probability
/// `load`, comparing them every cycle. Returns how many packets were
/// delivered and how many dropped.
fn lockstep(
    side: u32,
    buffers: BufferRegime,
    load: f64,
    cycles: u64,
    events: Option<Vec<FaultEvent>>,
) -> (usize, DropCounts) {
    let ctx = format!("mesh:{side} {buffers:?} load {load}");
    let topo = MeshTopology::new(side);
    let cfg = MeshConfig::new(CacheLineSize::B64).with_buffers(buffers);
    let mut net = MeshNetwork::new(topo, cfg.clone());
    let injector = events.map(|events| {
        let schedule = FaultSchedule::from_events(1, 0.0, events);
        FaultInjector::new(&schedule, net.fault_domain())
    });
    if let Some(f) = &injector {
        net.set_faults(f.clone());
    }
    let mut oracle = Oracle::new(topo, &cfg, injector);
    let mut rng = SimRng::from_seed(0x0a_c1e + u64::from(side));
    let pms = topo.num_pms() as usize;
    let links = u64::from(topo.num_links());
    let (mut got, mut want) = (Vec::new(), Vec::new());
    let (mut txn, mut total) = (0u64, 0usize);
    for now in 0..cycles {
        for src in 0..pms {
            if !rng.bernoulli(load) {
                continue;
            }
            let dst = (src + 1 + rng.uniform_usize(pms - 1)) % pms;
            let kind = KINDS[rng.uniform_usize(4)];
            let (src, class) = (NodeId::new(src as u32), QueueClass::of(kind));
            let room = net.can_inject(src, class);
            assert_eq!(room, oracle.can_inject(src, class), "{ctx}: cycle {now}");
            if room {
                txn += 1;
                let packet = Packet {
                    txn: TxnId::new(txn),
                    kind,
                    src,
                    dst: NodeId::new(dst as u32),
                    flits: cfg.format.flits(kind, cfg.cache_line),
                    injected_at: now,
                };
                net.inject(src, packet);
                oracle.inject(src, packet);
            }
        }
        got.clear();
        want.clear();
        net.step(&mut got).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        oracle.step(&mut want);
        assert_eq!(got, want, "{ctx}: deliveries of cycle {now}");
        assert_eq!(net.in_flight(), oracle.store.live(), "{ctx}: cycle {now}");
        let util = oracle.link_flits as f64 / (links * (now + 1)) as f64;
        assert_eq!(
            net.utilization().overall,
            util,
            "{ctx}: link flits by cycle {now}"
        );
        let drops = net
            .faults()
            .map_or_else(DropCounts::default, |f| f.report().drops);
        assert_eq!(drops, oracle.drops(), "{ctx}: cycle {now}");
        total += got.len();
    }
    net.verify_conservation()
        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
    // Deliveries can match while a kernel has lost or split a worm in
    // flight; the census of what it still holds cannot.
    ringmesh_net::census(&mut net).unwrap_or_else(|e| panic!("{ctx}: census: {e}"));
    (total, oracle.drops())
}

/// Sides 2–6 at four loads, from near-idle (the worklist skips most
/// routers) to saturated (every PM queue always full). One test per
/// buffer regime so the harness runs them side by side.
fn sweep(buffers: BufferRegime) {
    for side in 2..=6 {
        for load in [0.002, 0.02, 0.1, 1.0] {
            let (delivered, _) = lockstep(side, buffers, load, 2_000, None);
            assert!(delivered > 0, "mesh:{side} {buffers:?} load {load}");
        }
    }
}

#[test]
fn kernel_matches_the_reference_router_one_flit_buffers() {
    sweep(BufferRegime::OneFlit);
}

#[test]
fn kernel_matches_the_reference_router_four_flit_buffers() {
    sweep(BufferRegime::FourFlit);
}

/// The benchmark's shape: `mesh:16` with 4-flit buffers, saturated,
/// where worms span several routers and most inputs are blocked.
#[test]
fn kernel_matches_the_reference_router_at_the_benchmark_shape() {
    let (delivered, _) = lockstep(16, BufferRegime::FourFlit, 1.0, 1_000, None);
    assert!(delivered > 0, "mesh:16 saturated");
}

/// `mesh_light`'s shape: `mesh:16` near zero load, where most routers
/// sleep most cycles and the step walks only the awake ones.
#[test]
fn kernel_matches_the_reference_router_near_zero_load() {
    let (delivered, _) = lockstep(16, BufferRegime::FourFlit, 0.002, 3_000, None);
    assert!(delivered > 0, "mesh:16 at load 0.002");
}

/// A side above 64: each row of the mesh spans two 64-bit words of any
/// per-row bitset, so a walk over one crosses a word boundary mid-row.
#[test]
fn kernel_matches_the_reference_router_beyond_one_word_per_row() {
    let (delivered, _) = lockstep(66, BufferRegime::FourFlit, 0.002, 300, None);
    assert!(delivered > 0, "mesh:66 at load 0.002");
}

/// Every buffer and packet the configurations can build fits the
/// kernel's narrow fields: a buffer's front index and length are a byte
/// each, and a buffered flit's sequence number is seven bits.
#[test]
fn every_configuration_fits_a_flit_lane() {
    for format in [PacketFormat::RING, PacketFormat::MESH] {
        for cl in CacheLineSize::ALL {
            for regime in BufferRegime::ALL {
                let depth = regime.flits(format, cl);
                assert!(depth <= 255, "{format:?} {cl} {regime}: {depth} flits");
            }
            for kind in KINDS {
                let flits = format.flits(kind, cl);
                assert!(flits <= 128, "{format:?} {cl} {kind}: {flits} flits");
            }
        }
    }
}

#[test]
fn kernel_matches_the_reference_router_cache_line_buffers() {
    sweep(BufferRegime::CacheLine);
}

#[test]
fn kernel_matches_the_reference_router_under_faults() {
    // Router 5 of mesh:4 sits at (1, 1); its east link is 5·4 + 1.
    let dead_router = vec![FaultEvent {
        at: 300,
        kind: FaultKind::NodeDead { node: 5 },
    }];
    let link_down = vec![FaultEvent {
        at: 500,
        kind: FaultKind::LinkDown {
            link: 21,
            until: 540,
        },
    }];
    let run = |events| lockstep(4, BufferRegime::FourFlit, 0.1, 2_000, Some(events));
    // Refused at injection, and sunk where the YX fallback ran out.
    let (delivered, drops) = run(dead_router);
    assert!(delivered > 0 && drops.unreachable > 0 && drops.dead_interface > 0);
    let (delivered, drops) = run(link_down);
    assert!(delivered > 0);
    assert_eq!(drops.total(), 0, "a link that comes back loses nothing");
}
