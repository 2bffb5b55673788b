//! Cross-crate randomized property tests: routing correctness, delivery
//! and conservation on randomized topologies, workloads and traffic.
//!
//! The cases are driven by the simulator's own deterministic [`SimRng`]
//! (the build environment is offline, so the `proptest` crate is not
//! available); each test fixes a seed and sweeps a few dozen randomized
//! scenarios, so failures replay bit-for-bit.

use ringmesh_engine::SimRng;
use ringmesh_mesh::{MeshConfig, MeshNetwork, MeshTopology};
use ringmesh_net::{
    BufferRegime, CacheLineSize, Interconnect, NodeId, Packet, PacketKind, QueueClass, TxnId,
};
use ringmesh_ring::{RingConfig, RingNetwork, RingSpec, RingTopology};
use ringmesh_workload::{Placement, Region};

const CASES: usize = 64;

/// 1–3 levels, arities 2..=6: up to 216 PMs.
fn random_spec(rng: &mut SimRng) -> RingSpec {
    let levels = 1 + rng.uniform_usize(3);
    let arities: Vec<u32> = (0..levels)
        .map(|_| 2 + rng.uniform_usize(5) as u32)
        .collect();
    RingSpec::new(arities).expect("arities >= 2 are always valid")
}

fn random_cl(rng: &mut SimRng) -> CacheLineSize {
    CacheLineSize::ALL[rng.uniform_usize(CacheLineSize::ALL.len())]
}

/// Distinct (src, dst) pair below `p`, or None for a degenerate draw.
fn random_pair(rng: &mut SimRng, p: u32) -> Option<(u32, u32)> {
    let a = rng.uniform_usize(p as usize) as u32;
    let b = rng.uniform_usize(p as usize) as u32;
    (a != b).then_some((a, b))
}

/// Ring routing walks terminate and respect the uni-directional
/// round-trip identity on the same ring.
#[test]
fn ring_hops_terminate_and_bound() {
    let mut rng = SimRng::from_seed(0xBEEF_0001);
    for _ in 0..CASES {
        let spec = random_spec(&mut rng);
        let topo = RingTopology::new(&spec);
        let Some((a, b)) = random_pair(&mut rng, topo.num_pms()) else {
            continue;
        };
        let h = topo.hops(NodeId::new(a), NodeId::new(b));
        // A route never visits a station side twice (no livelock).
        assert!(
            h <= 2 * topo.num_stations() as u32,
            "{spec:?}: {a}->{b} took {h} hops"
        );
        assert!(h >= 1);
    }
}

/// Drives `net` until every expected `(txn, dst)` delivery arrives,
/// then checks exact-once delivery and conservation.
fn drain_and_check(net: &mut dyn Interconnect, expected: &mut Vec<(u64, u32)>, ctx: &str) {
    let mut out = Vec::new();
    for _ in 0..20_000 {
        net.step(&mut out).unwrap();
        if out.len() == expected.len() {
            break;
        }
    }
    let mut got: Vec<(u64, u32)> = out.iter().map(|(n, p)| (p.txn.raw(), n.raw())).collect();
    got.sort_unstable();
    expected.sort_unstable();
    assert_eq!(&got, expected, "{ctx}: wrong deliveries");
    assert_eq!(net.in_flight(), 0, "{ctx}: flits left in network");
}

/// Every packet injected into a ring network is delivered exactly once,
/// to the right PM.
#[test]
fn ring_delivers_random_traffic() {
    let mut rng = SimRng::from_seed(0xBEEF_0002);
    for case in 0..CASES {
        let spec = random_spec(&mut rng);
        let cl = random_cl(&mut rng);
        let cfg = RingConfig::new(cl);
        let mut net = RingNetwork::new(&spec, cfg.clone());
        let p = spec.num_pms();
        let mut expected = Vec::new();
        let n_pairs = 1 + rng.uniform_usize(11);
        for i in 0..n_pairs {
            let Some((src, dst)) = random_pair(&mut rng, p) else {
                continue;
            };
            let kind = if rng.bernoulli(0.5) {
                PacketKind::WriteReq
            } else {
                PacketKind::ReadReq
            };
            if net.can_inject(NodeId::new(src), QueueClass::of(kind)) {
                net.inject(
                    NodeId::new(src),
                    Packet {
                        txn: TxnId::new(i as u64),
                        kind,
                        src: NodeId::new(src),
                        dst: NodeId::new(dst),
                        flits: cfg.format.flits(kind, cl),
                        injected_at: 0,
                    },
                );
                expected.push((i as u64, dst));
            }
        }
        drain_and_check(
            &mut net,
            &mut expected,
            &format!("case {case} ring {spec:?}"),
        );
    }
}

/// Same for meshes, across buffer regimes.
#[test]
fn mesh_delivers_random_traffic() {
    let mut rng = SimRng::from_seed(0xBEEF_0003);
    for case in 0..CASES {
        let side = 2 + rng.uniform_usize(4) as u32;
        let cl = random_cl(&mut rng);
        let buffers = BufferRegime::ALL[rng.uniform_usize(BufferRegime::ALL.len())];
        let cfg = MeshConfig::new(cl).with_buffers(buffers);
        let mut net = MeshNetwork::new(MeshTopology::new(side), cfg.clone());
        let p = side * side;
        let mut expected = Vec::new();
        let n_pairs = 1 + rng.uniform_usize(11);
        for i in 0..n_pairs {
            let Some((src, dst)) = random_pair(&mut rng, p) else {
                continue;
            };
            let kind = if rng.bernoulli(0.5) {
                PacketKind::WriteReq
            } else {
                PacketKind::ReadReq
            };
            if net.can_inject(NodeId::new(src), QueueClass::of(kind)) {
                net.inject(
                    NodeId::new(src),
                    Packet {
                        txn: TxnId::new(i as u64),
                        kind,
                        src: NodeId::new(src),
                        dst: NodeId::new(dst),
                        flits: cfg.format.flits(kind, cl),
                        injected_at: 0,
                    },
                );
                expected.push((i as u64, dst));
            }
        }
        drain_and_check(
            &mut net,
            &mut expected,
            &format!("case {case} mesh {side}x{side}"),
        );
    }
}

/// Access regions are consistent across placements: they contain the
/// local PM first, have no duplicates, stay in range, and their
/// cardinality never exceeds the machine.
#[test]
fn regions_well_formed() {
    let mut rng = SimRng::from_seed(0xBEEF_0004);
    for _ in 0..CASES {
        let size = 2 + rng.uniform_usize(11) as u32;
        let placement = if rng.bernoulli(0.5) {
            Placement::Linear { pms: size * size }
        } else {
            Placement::Grid { side: size }
        };
        let p = placement.num_pms();
        let pm = NodeId::new(rng.uniform_usize(p as usize) as u32);
        let r = 0.01 + 0.99 * rng.uniform_f64();
        let region: Vec<NodeId> = Region::new(placement, pm, r).iter().collect();
        assert_eq!(region[0], pm);
        assert!(region.len() as u32 <= p);
        let mut ids: Vec<u32> = region.iter().map(|n| n.raw()).collect();
        assert!(ids.iter().all(|&i| i < p));
        ids.sort_unstable();
        let n = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), n, "duplicates in region");
        // Monotonicity: growing R never shrinks the region.
        if r < 0.9 {
            let bigger = Region::new(placement, pm, (r + 0.1).min(1.0));
            assert!(bigger.len() >= region.len());
        }
    }
}

/// Round-trip identity on single rings: forward + reverse distance
/// equals the ring size.
#[test]
fn single_ring_round_trip_identity() {
    let mut rng = SimRng::from_seed(0xBEEF_0005);
    for _ in 0..CASES {
        let n = 2 + rng.uniform_usize(31) as u32;
        let Some((a, b)) = random_pair(&mut rng, n) else {
            continue;
        };
        let topo = RingTopology::new(&RingSpec::single(n));
        let fwd = topo.hops(NodeId::new(a), NodeId::new(b));
        let back = topo.hops(NodeId::new(b), NodeId::new(a));
        assert_eq!(fwd + back, n);
    }
}

/// e-cube path length equals Manhattan distance for all pairs.
#[test]
fn ecube_is_minimal() {
    let mut rng = SimRng::from_seed(0xBEEF_0006);
    for _ in 0..CASES {
        let side = 2 + rng.uniform_usize(7) as u32;
        let m = MeshTopology::new(side);
        let p = side * side;
        let a = NodeId::new(rng.uniform_usize(p as usize) as u32);
        let b = NodeId::new(rng.uniform_usize(p as usize) as u32);
        assert_eq!(m.path(a, b).len() as u32 - 1, m.manhattan(a, b));
    }
}
