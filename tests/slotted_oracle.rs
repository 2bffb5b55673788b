//! The production slotted-ring kernel against a reference slot stepper
//! (ROADMAP 2(a)), the slotted twin of `tests/ring_oracle.rs`.
//!
//! Fingerprints pin the kernel to its own past; they cannot see a bug
//! that before and after share. The [`Oracle`] below is the slotted
//! hierarchy written as plainly as the public `ringmesh-net` and
//! `ringmesh-ring` types allow: a `Vec<Option<Flit>>` per ring, one slot
//! per member, rotated one position every cycle; members served in ring
//! order, each draining the slot in front of it if the topology's
//! `action` says the flit leaves here, then filling it if it is empty;
//! an outbox per station side holding crossing flits and local packets
//! sent flit by flit; reassembly by a per-PM list of `(packet, flits
//! seen)`. No flattened tables, no route table, no `DrainState`. Both
//! networks get the same seeded injections and must agree delivery for
//! delivery, every cycle.

use std::collections::VecDeque;

use ringmesh_engine::SimRng;
use ringmesh_net::{
    CacheLineSize, Flit, Interconnect, NodeId, Packet, PacketKind, PacketRef, PacketStore,
    QueueClass, TxnId,
};
use ringmesh_ring::{
    RingAction, RingConfig, RingSpec, RingTopology, SlottedRingNetwork, StationKind,
};

/// What one station side sends into empty slots: flits crossing onto
/// this side's ring first, then local responses, then local requests.
#[derive(Default)]
struct Outbox {
    crossing: VecDeque<Flit>,
    resp: VecDeque<PacketRef>,
    req: VecDeque<PacketRef>,
    /// The local packet being sent and the index of its next flit.
    sending: Option<(PacketRef, u32)>,
}

impl Outbox {
    fn next_flit(&mut self, store: &PacketStore) -> Option<Flit> {
        if let Some(flit) = self.crossing.pop_front() {
            return Some(flit);
        }
        if self.sending.is_none() {
            let r = self.resp.pop_front().or_else(|| self.req.pop_front())?;
            self.sending = Some((r, 0));
        }
        let (packet, seq) = self.sending.expect("just set");
        let is_tail = seq + 1 == store.get(packet).flits;
        self.sending = if is_tail {
            None
        } else {
            Some((packet, seq + 1))
        };
        Some(Flit {
            packet,
            seq,
            is_tail,
        })
    }

    /// Local packets held: queued, plus the one being sent.
    fn local(&self) -> usize {
        self.resp.len() + self.req.len() + usize::from(self.sending.is_some())
    }
}

struct Oracle {
    topo: RingTopology,
    /// `slots[r][i]` is the slot in front of `topo.ring(r).members[i]`.
    slots: Vec<Vec<Option<Flit>>>,
    /// Outboxes by station, then side (a NIC uses side 0 only).
    outboxes: Vec<[Outbox; 2]>,
    /// Packets mid-reassembly at each PM, with the flits seen so far.
    assembling: Vec<Vec<(PacketRef, u32)>>,
    /// Occupied slots counted after each rotation, per ring.
    ring_flits: Vec<u64>,
    store: PacketStore,
    cycle: u64,
}

impl Oracle {
    fn new(spec: &RingSpec) -> Self {
        let topo = RingTopology::new(spec);
        Oracle {
            slots: topo
                .rings()
                .map(|(_, r)| vec![None; r.members.len()])
                .collect(),
            outboxes: (0..topo.num_stations())
                .map(|_| Default::default())
                .collect(),
            assembling: vec![Vec::new(); topo.num_pms() as usize],
            ring_flits: vec![0; topo.num_rings()],
            store: PacketStore::new(),
            cycle: 0,
            topo,
        }
    }

    fn nic_outbox(&self, pm: NodeId) -> &Outbox {
        &self.outboxes[self.topo.nic_of(pm) as usize][0]
    }

    /// At most one local packet waiting beside the one being sent,
    /// whatever its class.
    fn can_inject(&self, pm: NodeId) -> bool {
        self.nic_outbox(pm).local() < 2
    }

    fn inject(&mut self, pm: NodeId, packet: Packet) {
        let r = self.store.insert(packet);
        let outbox = &mut self.outboxes[self.topo.nic_of(pm) as usize][0];
        match QueueClass::of(packet.kind) {
            QueueClass::Response => outbox.resp.push_back(r),
            QueueClass::Request => outbox.req.push_back(r),
        }
    }

    fn step(&mut self, delivered: &mut Vec<(NodeId, Packet)>) {
        for (ring, slots) in self.slots.iter_mut().enumerate() {
            slots.rotate_right(1);
            self.ring_flits[ring] += slots.iter().flatten().count() as u64;
        }
        for (ring, info) in self.topo.rings() {
            for (i, &(st, side)) in info.members.iter().enumerate() {
                let slot = &mut self.slots[ring as usize][i];
                if let Some(flit) = *slot {
                    let dst = self.store.get(flit.packet).dst;
                    match self.topo.action(st, side, dst) {
                        RingAction::Forward => {}
                        RingAction::Eject => {
                            *slot = None;
                            let StationKind::Nic { pm } = self.topo.station(st) else {
                                unreachable!("only a NIC ejects")
                            };
                            let seen = &mut self.assembling[pm.index()];
                            let at = match seen.iter().position(|&(p, _)| p == flit.packet) {
                                Some(at) => at,
                                None => {
                                    seen.push((flit.packet, 0));
                                    seen.len() - 1
                                }
                            };
                            assert_eq!(seen[at].1, flit.seq, "flits of a packet arrive in order");
                            seen[at].1 += 1;
                            if flit.is_tail {
                                seen.remove(at);
                                delivered.push((pm, self.store.remove(flit.packet)));
                            }
                        }
                        // Up leaves the child ring at side 0 for the
                        // parent at side 1; Down the reverse.
                        RingAction::Up => {
                            *slot = None;
                            self.outboxes[st as usize][1].crossing.push_back(flit);
                        }
                        RingAction::Down => {
                            *slot = None;
                            self.outboxes[st as usize][0].crossing.push_back(flit);
                        }
                    }
                }
                if slot.is_none() {
                    *slot = self.outboxes[st as usize][side as usize].next_flit(&self.store);
                }
            }
        }
        self.cycle += 1;
    }

    /// Busy slot-cycles over slot capacity, as
    /// `SlottedRingNetwork::utilization` reports overall.
    fn utilization(&self) -> f64 {
        let busy: u64 = self.ring_flits.iter().sum();
        let slots: u64 = self.slots.iter().map(|s| s.len() as u64).sum();
        busy as f64 / (slots * self.cycle).max(1) as f64
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
/// delivered.
fn lockstep(spec: &str, load: f64, cycles: u64) -> usize {
    let ctx = format!("slotted:{spec} load {load}");
    let spec: RingSpec = spec.parse().unwrap();
    let cfg = RingConfig::new(CacheLineSize::B32);
    let mut net = SlottedRingNetwork::new(&spec, cfg.clone());
    let mut oracle = Oracle::new(&spec);
    let pms = spec.num_pms() as usize;
    let mut rng = SimRng::from_seed(0x5107 + pms as u64);
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
            assert_eq!(room, oracle.can_inject(src), "{ctx}: cycle {now}");
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
        total += got.len();
    }
    net.verify_conservation()
        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
    // Deliveries can match while a kernel has lost or split a worm in
    // flight; the census of what it still holds cannot.
    ringmesh_net::census(&mut net).unwrap_or_else(|e| panic!("{ctx}: census: {e}"));
    total
}

/// One to four levels at three loads, from near-idle to saturated
/// (every NIC outbox always holding two packets).
#[test]
fn kernel_matches_the_reference_slots() {
    for spec in ["6", "2:3", "2:2:3", "2:2:2:3"] {
        for load in [0.005, 0.05, 1.0] {
            let delivered = lockstep(spec, load, 3_000);
            assert!(delivered > 0, "slotted:{spec} load {load}");
        }
    }
}
