//! The production ring kernel against a reference station stepper
//! (ROADMAP 2(a)), the ring twin of `tests/mesh_oracle.rs`.
//!
//! Fingerprints pin the kernel to its own past; they cannot see a bug
//! that before and after share. The [`Oracle`] below is the hierarchy
//! of §2.1 written as plainly as the public `ringmesh-net` and
//! `ringmesh-ring` types allow: one struct per station, a `FlitFifo`
//! transit buffer per ring side, `Option` routes, the IRI's four
//! crossing queues as `FlitFifo`s, every station side stepped every
//! tick it is clocked, link transfers collected and applied after all
//! stations have stepped, every buffer latched every tick. No worklist,
//! no station tables, no per-tick context, no route table: the
//! topology is asked `next_of` / `ring_of` / `action` directly. Both
//! networks get the same seeded injections and must agree delivery for
//! delivery, every cycle.

use ringmesh_engine::SimRng;
use ringmesh_faults::{
    DropCounts, DropReason, FaultEvent, FaultInjector, FaultKind, FaultSchedule,
};
use ringmesh_net::{
    Assembler, CacheLineSize, DrainState, Flit, FlitFifo, Interconnect, NodeId, Packet, PacketKind,
    PacketQueue, PacketRef, PacketStore, QueueClass, TxnId,
};
use ringmesh_ring::{
    RingAction, RingConfig, RingNetwork, RingSpec, RingTopology, StationKind,
    CONVOY_THRESHOLD_PACKETS, OUT_QUEUE_PACKETS,
};

/// Response first: responses beat requests on every injection path.
const PRIORITY: [QueueClass; 2] = [QueueClass::Response, QueueClass::Request];
const LOWER: usize = 0;

fn ci(class: QueueClass) -> usize {
    match class {
        QueueClass::Request => 0,
        QueueClass::Response => 1,
    }
}

/// What the packet at the front of a transit buffer does here.
#[derive(Clone, Copy, PartialEq)]
enum Go {
    /// Continues around the ring.
    Forward,
    /// Leaves the ring here: ejects at a NIC, crosses at an IRI.
    Leave,
    /// Needs to cross at a dead IRI: consumed in place.
    Sink,
}

/// Who holds an output link, head to tail.
#[derive(Clone, Copy)]
enum Owner {
    Idle,
    Transit,
    Cross(QueueClass),
}

/// One ring side of a station: its transit buffer, the route of the
/// packet at its front, and its output link.
struct Side {
    buf: FlitFifo,
    route: Option<(PacketRef, Go)>,
    owner: Owner,
}

impl Side {
    fn new(cap: usize) -> Self {
        Side {
            buf: FlitFifo::new(cap),
            route: None,
            owner: Owner::Idle,
        }
    }

    fn going(&self, go: Go) -> bool {
        matches!(self.route, Some((_, g)) if g == go)
    }

    /// Pops the front transit flit onto the output link: the link is
    /// held until the tail, which also ends the route.
    fn forward(&mut self, now: u64) -> Flit {
        let flit = self.buf.pop_ready(now).expect("front was ready");
        if flit.is_tail {
            self.route = None;
            self.owner = Owner::Idle;
        } else {
            self.owner = Owner::Transit;
        }
        flit
    }
}

// Plain over compact: an IRI is twice a NIC and nothing is boxed.
#[allow(clippy::large_enum_variant)]
enum Station {
    Nic {
        pm: NodeId,
        side: Side,
        /// PM-side output queues, indexed by [`ci`].
        out: [PacketQueue; 2],
        drain: DrainState,
        assembler: Assembler,
    },
    Iri {
        /// Index among the IRIs: the fault injector's node id.
        index: u32,
        subtree: (u32, u32),
        sides: [Side; 2],
        /// Lower → upper crossing queues, indexed by [`ci`].
        up: [FlitFifo; 2],
        /// Upper → lower crossing queues, indexed by [`ci`].
        down: [FlitFifo; 2],
    },
}

/// What one station side's step hands back to the network.
struct Out<'a> {
    now: u64,
    store: &'a mut PacketStore,
    credits: &'a mut [i64],
    /// `(to station, to side, flit, ring)`.
    wire: &'a mut Vec<(u32, u8, Flit, u32)>,
    sunk: &'a mut Vec<PacketRef>,
    delivered: &'a mut Vec<(NodeId, Packet)>,
}

struct Oracle {
    topo: RingTopology,
    stations: Vec<Station>,
    /// Registered free slots of every station side's transit buffer.
    free: Vec<[usize; 2]>,
    credits: Vec<i64>,
    ring_flits: Vec<u64>,
    store: PacketStore,
    faults: Option<FaultInjector>,
    ticks_per_cycle: u64,
    convoy: usize,
    tick: u64,
}

impl Oracle {
    fn new(spec: &RingSpec, cfg: &RingConfig, faults: Option<FaultInjector>) -> Self {
        let topo = RingTopology::new(spec);
        let buf = cfg.ring_buffer_flits();
        let mut iris = 0;
        let stations = (0..topo.num_stations() as u32)
            .map(|st| match topo.station(st) {
                StationKind::Nic { pm } => Station::Nic {
                    pm,
                    side: Side::new(buf),
                    out: std::array::from_fn(|_| PacketQueue::new(OUT_QUEUE_PACKETS)),
                    drain: DrainState::idle(),
                    assembler: Assembler::new(),
                },
                StationKind::Iri { subtree } => {
                    iris += 1;
                    Station::Iri {
                        index: iris - 1,
                        subtree,
                        sides: [Side::new(buf), Side::new(buf)],
                        up: std::array::from_fn(|_| FlitFifo::new(cfg.iri_queue_flits())),
                        down: std::array::from_fn(|_| FlitFifo::new(cfg.iri_down_queue_flits())),
                    }
                }
            })
            .collect();
        let credits = topo
            .rings()
            .map(|(_, r)| (r.members.len() * buf) as i64)
            .collect();
        let cl_flits = cfg.format.cl_packet_flits(cfg.cache_line) as usize;
        Oracle {
            free: vec![[buf; 2]; topo.num_stations()],
            credits,
            ring_flits: vec![0; topo.num_rings()],
            stations,
            topo,
            store: PacketStore::new(),
            faults,
            ticks_per_cycle: u64::from(cfg.global_ring_speedup),
            convoy: CONVOY_THRESHOLD_PACKETS * cl_flits,
            tick: 0,
        }
    }

    fn iri_dead(&self, st: u32) -> bool {
        match &self.stations[st as usize] {
            Station::Iri { index, .. } => self.faults.as_ref().is_some_and(|f| f.node_dead(*index)),
            Station::Nic { .. } => false,
        }
    }

    fn can_inject(&self, pm: NodeId, class: QueueClass) -> bool {
        match &self.stations[self.topo.nic_of(pm) as usize] {
            Station::Nic { out, .. } => out[ci(class)].can_accept(),
            Station::Iri { .. } => unreachable!("a PM hangs off a NIC"),
        }
    }

    /// Walks the unique route; a dead IRI the packet would have to
    /// cross refuses it.
    fn reachable(&self, src: NodeId, dst: NodeId) -> bool {
        let (mut st, mut side) = self.topo.next_of(self.topo.nic_of(src), 0);
        loop {
            let next = match self.topo.action(st, side, dst) {
                RingAction::Eject => return true,
                RingAction::Forward => side,
                RingAction::Up | RingAction::Down if self.iri_dead(st) => return false,
                RingAction::Up => 1,
                RingAction::Down => 0,
            };
            (st, side) = self.topo.next_of(st, next);
        }
    }

    fn inject(&mut self, pm: NodeId, packet: Packet) {
        if !self.reachable(pm, packet.dst) {
            let f = self.faults.as_mut().expect("only faults cut routes");
            f.record_drop(DropReason::Unreachable);
            return;
        }
        let r = self.store.insert(packet);
        let st = self.topo.nic_of(pm) as usize;
        let Station::Nic { out, .. } = &mut self.stations[st] else {
            unreachable!("a PM hangs off a NIC")
        };
        out[ci(QueueClass::of(packet.kind))].push(r);
    }

    fn step(&mut self, delivered: &mut Vec<(NodeId, Packet)>) {
        let cycle = self.tick / self.ticks_per_cycle;
        if let Some(f) = &mut self.faults {
            f.advance(cycle);
        }
        for _ in 0..self.ticks_per_cycle {
            self.run_tick(cycle, delivered);
        }
    }

    fn run_tick(&mut self, cycle: u64, delivered: &mut Vec<(NodeId, Packet)>) {
        let now = self.tick;
        // On odd half-cycle ticks only the double-speed global ring runs.
        let everyone = now.is_multiple_of(self.ticks_per_cycle);
        let (mut wire, mut sunk) = (Vec::new(), Vec::new());
        for st in 0..self.stations.len() as u32 {
            let sides = match self.stations[st as usize] {
                Station::Nic { .. } => 1,
                Station::Iri { .. } => 2,
            };
            for side in 0..sides {
                let ring = self.topo.ring_of(st, side);
                if !(everyone || self.ticks_per_cycle == 2 && ring == 0) {
                    continue;
                }
                let (to, to_side) = self.topo.next_of(st, side);
                let free_out = self.free[to as usize][to_side as usize];
                let link = st * 2 + u32::from(side);
                let link_up = self.faults.as_ref().is_none_or(|f| f.link_up(link, cycle));
                let dead = self.iri_dead(st);
                let mut out = Out {
                    now,
                    store: &mut self.store,
                    credits: &mut self.credits,
                    wire: &mut wire,
                    sunk: &mut sunk,
                    delivered: &mut *delivered,
                };
                let (to, ring) = ((to, to_side), ring as usize);
                match &mut self.stations[st as usize] {
                    Station::Nic {
                        pm,
                        side: s,
                        out: queues,
                        drain,
                        assembler,
                    } => step_nic(
                        *pm, s, queues, drain, assembler, ring, to, link_up, free_out, &mut out,
                    ),
                    Station::Iri {
                        subtree,
                        sides,
                        up,
                        down,
                        ..
                    } => {
                        let inside = |dst: NodeId| (subtree.0..subtree.1).contains(&dst.raw());
                        // The lower side crosses into the up queues and
                        // enters from the down queues; the upper side the
                        // reverse.
                        let (into, from) = if side as usize == LOWER {
                            (up, down)
                        } else {
                            (down, up)
                        };
                        let leaves = |dst| inside(dst) != (side as usize == LOWER);
                        step_iri_side(
                            &mut sides[side as usize],
                            into,
                            from,
                            leaves,
                            dead,
                            self.convoy,
                            ring,
                            to,
                            link_up,
                            free_out,
                            &mut out,
                        );
                    }
                }
            }
        }
        for r in sunk {
            self.store.remove(r);
            let f = self.faults.as_mut().expect("only dead IRIs sink packets");
            f.record_drop(DropReason::DeadInterface);
        }
        for (st, side, flit, ring) in wire {
            let buf = match &mut self.stations[st as usize] {
                Station::Nic { side: s, .. } => &mut s.buf,
                Station::Iri { sides, .. } => &mut sides[side as usize].buf,
            };
            buf.push(flit, now);
            self.ring_flits[ring as usize] += 1;
        }
        for (st, station) in self.stations.iter_mut().enumerate() {
            match station {
                Station::Nic { side, .. } => {
                    side.buf.latch();
                    self.free[st][0] = side.buf.free_latched();
                }
                Station::Iri {
                    sides, up, down, ..
                } => {
                    for (s, side) in sides.iter_mut().enumerate() {
                        side.buf.latch();
                        self.free[st][s] = side.buf.free_latched();
                    }
                    up.iter_mut()
                        .chain(down.iter_mut())
                        .for_each(FlitFifo::latch);
                }
            }
        }
        self.tick += 1;
    }

    /// Busy link-cycles over capacity, the double-speed ring counted
    /// twice per cycle, as `RingNetwork::utilization` reports overall.
    fn utilization(&self) -> f64 {
        let cycles = self.tick / self.ticks_per_cycle;
        let busy: u64 = self.ring_flits.iter().sum();
        let cap: u64 = self
            .topo
            .rings()
            .map(|(r, info)| {
                let speed = if r == 0 { self.ticks_per_cycle } else { 1 };
                info.members.len() as u64 * cycles * speed
            })
            .sum();
        busy as f64 / cap.max(1) as f64
    }

    fn drops(&self) -> DropCounts {
        self.faults
            .as_ref()
            .map_or_else(DropCounts::default, |f| f.report().drops)
    }
}

/// One clock of a NIC: eject a flit bound here, then one flit onto the
/// output link — transit first, then a new worm from the PM (responses
/// first) that fits the downstream buffer whole and leaves the ring a
/// spare credit.
#[allow(clippy::too_many_arguments)]
fn step_nic(
    pm: NodeId,
    side: &mut Side,
    queues: &mut [PacketQueue; 2],
    drain: &mut DrainState,
    assembler: &mut Assembler,
    ring: usize,
    to: (u32, u8),
    link_up: bool,
    free_out: usize,
    o: &mut Out<'_>,
) {
    let now = o.now;
    let free_out = if link_up { free_out } else { 0 };
    if let Some(flit) = side.buf.front_ready(now) {
        if side.route.is_none_or(|(p, _)| p != flit.packet) {
            let go = if o.store.get(flit.packet).dst == pm {
                Go::Leave
            } else {
                Go::Forward
            };
            side.route = Some((flit.packet, go));
        }
    }
    if side.going(Go::Leave) {
        if let Some(flit) = side.buf.pop_ready(now) {
            o.credits[ring] += 1;
            if flit.is_tail {
                side.route = None;
            }
            if let Some(done) = assembler.push(flit) {
                o.delivered.push((pm, o.store.remove(done)));
            }
        }
    }
    let mut send = |flit: Flit| o.wire.push((to.0, to.1, flit, ring as u32));
    match side.owner {
        Owner::Transit => {
            if free_out >= 1 && side.buf.front_ready(now).is_some() {
                send(side.forward(now));
            }
        }
        Owner::Cross(_) => {
            if link_up {
                let flit = drain.emit();
                if flit.is_tail {
                    side.owner = Owner::Idle;
                }
                send(flit);
            }
        }
        Owner::Idle => {
            if side.going(Go::Forward) && side.buf.front_ready(now).is_some() {
                if free_out >= 1 {
                    send(side.forward(now));
                }
                return;
            }
            let fits = |class: &QueueClass| {
                queues[ci(*class)].front().is_some_and(|r| {
                    let n = o.store.get(r).flits;
                    free_out >= n as usize && o.credits[ring] > i64::from(n)
                })
            };
            if let Some(class) = PRIORITY.into_iter().find(fits) {
                let r = queues[ci(class)].pop().expect("front checked");
                let n = o.store.get(r).flits;
                o.credits[ring] -= i64::from(n);
                drain.begin(r, n);
                let flit = drain.emit();
                if !flit.is_tail {
                    side.owner = Owner::Cross(class);
                }
                send(flit);
            }
        }
    }
}

/// One clock of one IRI crossbar side: sink a worm that must cross a
/// dead IRI, move a leaving flit into its crossing queue, then one flit
/// onto the output link — transit first unless the queues feeding this
/// link hold a convoy, then a whole queued worm under the same entry
/// rule as a NIC's, then transit anyway.
#[allow(clippy::too_many_arguments)]
fn step_iri_side(
    side: &mut Side,
    into: &mut [FlitFifo; 2],
    from: &mut [FlitFifo; 2],
    leaves: impl Fn(NodeId) -> bool,
    dead: bool,
    convoy: usize,
    ring: usize,
    to: (u32, u8),
    link_up: bool,
    free_out: usize,
    o: &mut Out<'_>,
) {
    let now = o.now;
    let free_out = if link_up { free_out } else { 0 };
    if let Some(flit) = side.buf.front_ready(now) {
        if side.route.is_none_or(|(p, _)| p != flit.packet) {
            let go = match (leaves(o.store.get(flit.packet).dst), dead) {
                (false, _) => Go::Forward,
                (true, false) => Go::Leave,
                (true, true) => Go::Sink,
            };
            side.route = Some((flit.packet, go));
        }
    }
    if side.going(Go::Sink) {
        if let Some(flit) = side.buf.pop_ready(now) {
            o.credits[ring] += 1;
            if flit.is_tail {
                side.route = None;
                o.sunk.push(flit.packet);
            }
        }
    }
    if side.going(Go::Leave) {
        if let Some(flit) = side.buf.front_ready(now) {
            let q = &mut into[ci(QueueClass::of(o.store.get(flit.packet).kind))];
            if q.space_latched() {
                side.buf.pop_ready(now).expect("front was ready");
                o.credits[ring] += 1;
                if flit.is_tail {
                    side.route = None;
                }
                q.push(flit, now);
            }
        }
    }
    let mut send = |flit: Flit| o.wire.push((to.0, to.1, flit, ring as u32));
    match side.owner {
        Owner::Transit => {
            if free_out >= 1 && side.buf.front_ready(now).is_some() {
                send(side.forward(now));
            }
        }
        Owner::Cross(class) => {
            if link_up {
                if let Some(flit) = from[ci(class)].pop_ready(now) {
                    if flit.is_tail {
                        side.owner = Owner::Idle;
                    }
                    send(flit);
                }
            }
        }
        Owner::Idle => {
            let backlog: usize = from.iter().map(FlitFifo::len).sum();
            let transit = side.going(Go::Forward) && side.buf.front_ready(now).is_some();
            if transit && backlog <= convoy {
                if free_out >= 1 {
                    send(side.forward(now));
                }
                return;
            }
            let fits = |class: &QueueClass| {
                let q = &from[ci(*class)];
                q.front_ready(now).is_some_and(|flit| {
                    let n = o.store.get(flit.packet).flits;
                    q.has_complete_packet()
                        && free_out >= n as usize
                        && o.credits[ring] > i64::from(n)
                })
            };
            if let Some(class) = PRIORITY.into_iter().find(fits) {
                let flit = from[ci(class)].pop_ready(now).expect("front checked");
                o.credits[ring] -= i64::from(o.store.get(flit.packet).flits);
                if !flit.is_tail {
                    side.owner = Owner::Cross(class);
                }
                send(flit);
            } else if transit && free_out >= 1 {
                send(side.forward(now));
            }
        }
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
    spec: &str,
    speedup: u32,
    load: f64,
    cycles: u64,
    events: Option<Vec<FaultEvent>>,
) -> (usize, DropCounts) {
    lockstep_at(CacheLineSize::B32, spec, speedup, load, cycles, events)
}

/// [`lockstep`] at cache-line size `cl`.
fn lockstep_at(
    cl: CacheLineSize,
    spec: &str,
    speedup: u32,
    load: f64,
    cycles: u64,
    events: Option<Vec<FaultEvent>>,
) -> (usize, DropCounts) {
    let ctx = format!("ring:{spec} {speedup}x load {load} {cl:?}");
    let spec: RingSpec = spec.parse().unwrap();
    let cfg = RingConfig::new(cl).with_global_speedup(speedup);
    let mut net = RingNetwork::new(&spec, cfg.clone());
    let injector = events.map(|events| {
        let schedule = FaultSchedule::from_events(1, 0.0, events);
        FaultInjector::new(&schedule, net.fault_domain())
    });
    if let Some(f) = &injector {
        net.set_faults(f.clone());
    }
    let mut oracle = Oracle::new(&spec, &cfg, injector);
    let pms = spec.num_pms() as usize;
    let mut rng = SimRng::from_seed(0x0c1e + pms as u64);
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
        assert_eq!(
            net.utilization().overall,
            oracle.utilization(),
            "{ctx}: ring flits by cycle {now}"
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

/// One to four levels at three loads, from near-idle (the worklist
/// skips most stations) to saturated (every NIC queue always full);
/// then the benchmark's `2:3:4:6`, whose 176 stations fill two words
/// of the station worklist and part of a third.
fn sweep(speedup: u32) {
    for spec in ["6", "2:3", "2:2:3", "2:2:2:3"] {
        for load in [0.005, 0.05, 1.0] {
            let (delivered, _) = lockstep(spec, speedup, load, 3_000, None);
            assert!(delivered > 0, "ring:{spec} {speedup}x load {load}");
        }
    }
    for load in [0.05, 1.0] {
        let (delivered, _) = lockstep("2:3:4:6", speedup, load, 1_000, None);
        assert!(delivered > 0, "ring:2:3:4:6 {speedup}x load {load}");
    }
}

#[test]
fn kernel_matches_the_reference_stations() {
    sweep(1);
}

#[test]
fn kernel_matches_the_reference_stations_double_speed_global_ring() {
    sweep(2);
}

/// The benchmark's `2:3:4:6` at its 64-byte lines (five-flit
/// responses; the sweep above runs 32-byte lines), single and double
/// speed, from the load where stations first block to saturation.
#[test]
fn kernel_matches_the_reference_stations_at_64_byte_lines() {
    for speedup in [1, 2] {
        for load in [0.02, 0.1, 1.0] {
            let (delivered, _) =
                lockstep_at(CacheLineSize::B64, "2:3:4:6", speedup, load, 1_500, None);
            assert!(delivered > 0, "ring:2:3:4:6 {speedup}x load {load}");
        }
    }
}

#[test]
fn kernel_matches_the_reference_stations_under_faults() {
    // `2:2:3` has IRIs 0..=5 at stations 3, 7, 8, 12, 16, 17: IRIs 0
    // and 1 join the first intermediate ring's local rings to it, IRI 2
    // joins that ring to the global ring.
    let dead_iri = vec![FaultEvent {
        at: 300,
        kind: FaultKind::NodeDead { node: 2 },
    }];
    // IRI 0's upper side, on the intermediate ring: link 3·2 + 1.
    let link_down = vec![FaultEvent {
        at: 200,
        kind: FaultKind::LinkDown {
            link: 7,
            until: 260,
        },
    }];
    let run = |events| lockstep("2:2:3", 1, 0.05, 3_000, Some(events));
    // Refused at injection, and sunk in flight.
    let (delivered, drops) = run(dead_iri);
    assert!(delivered > 0 && drops.unreachable > 0 && drops.dead_interface > 0);
    let (delivered, drops) = run(link_down);
    assert!(delivered > 0);
    assert_eq!(drops.total(), 0, "a link that comes back loses nothing");
}
