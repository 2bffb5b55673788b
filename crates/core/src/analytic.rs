//! Closed-form models of both networks: zero-load latency and
//! bisection-bound throughput.
//!
//! The one prior comparison of these network families the paper cites
//! (Hamacher & Jiang, ICPP 1994 — the paper's reference \[15\]) was purely
//! analytical. This module provides the analytical counterpart to our
//! simulators: exact zero-load round-trip latencies (averaged over an
//! access region) and upper bounds on sustainable throughput from link
//! and bisection capacities. The test suite uses them two ways:
//!
//! * *validation* — at very light load the simulators must match the
//!   zero-load model exactly (they do; see `tests/analytic_check.rs`);
//! * *interpretation* — saturated throughput is compared against the
//!   bisection bound to quantify how much of the theoretical capacity
//!   each switching discipline realises.

use ringmesh_mesh::MeshTopology;
use ringmesh_net::{CacheLineSize, NodeId, PacketFormat, PacketKind};
use ringmesh_ring::{RingSpec, RingTopology};
use ringmesh_workload::{Placement, Region, WorkloadParams};

/// Exact zero-load one-way delivery time of our wormhole ring model,
/// from injection to last-flit delivery:
///
/// * `hops` link traversals plus one extra cycle per IRI crossing (the
///   crossbar's second store-and-forward stage);
/// * `(flits − 1)·(1 + crossings)` serialization — the whole worm must
///   re-accumulate before *entering* each ring (the self-contained
///   entry rule that makes the hierarchy deadlock-free), so the
///   pipeline refill cost is paid once per ring entered;
/// * minus one overlap cycle when a multi-flit worm crosses rings (the
///   final accumulation overlaps the first ejection).
fn ring_one_way(topo: &RingTopology, s: NodeId, t: NodeId, flits: u32) -> f64 {
    let hops = topo.hops(s, t);
    let crossings = topo.iri_crossings(s, t);
    let overlap = u32::from(crossings > 0 && flits > 1);
    f64::from(hops + crossings + (flits - 1) * (1 + crossings) - overlap)
}

/// Analytic zero-load round-trip latency for a ring system: averaged
/// over every (source, target) pair of the M-MRP access regions,
/// weighted by the read fraction for packet sizes; the per-direction
/// pipeline is `ring_one_way`'s exact model. Local accesses cost only
/// the memory latency.
pub fn ring_zero_load_latency(
    spec: &RingSpec,
    cl: CacheLineSize,
    workload: &WorkloadParams,
    mem_latency: u32,
) -> f64 {
    let topo = RingTopology::new(spec);
    let p = spec.num_pms();
    let fmt = PacketFormat::RING;
    let fr = workload.read_fraction;
    let mut total = 0.0;
    let mut count = 0.0;
    for src in 0..p {
        let s = NodeId::new(src);
        for t in Region::new(Placement::Linear { pms: p }, s, workload.region).iter() {
            count += 1.0;
            if t == s {
                total += f64::from(mem_latency);
                continue;
            }
            let read = ring_one_way(&topo, s, t, fmt.flits(PacketKind::ReadReq, cl))
                + ring_one_way(&topo, t, s, fmt.flits(PacketKind::ReadResp, cl));
            let write = ring_one_way(&topo, s, t, fmt.flits(PacketKind::WriteReq, cl))
                + ring_one_way(&topo, t, s, fmt.flits(PacketKind::WriteResp, cl));
            total += fr * read + (1.0 - fr) * write + f64::from(mem_latency);
        }
    }
    total / count
}

/// Analytic zero-load round-trip latency for a mesh system, mirroring
/// [`ring_zero_load_latency`]. The exact per-direction pipeline of our
/// mesh model is `hops + flits` cycles (one cycle through the local
/// injection buffer, one per link, one ejection, `flits − 1`
/// serialization, minus one stamp-convention overlap).
///
/// A mesh access region lists the local PM, then the others by
/// ascending distance, and a pair's cost depends on its distance
/// alone. So each source counts its PMs by distance and adds the
/// region's terms in the region's order — the sum a walk of every
/// region would make, bit for bit, without walking them.
pub fn mesh_zero_load_latency(
    side: u32,
    cl: CacheLineSize,
    workload: &WorkloadParams,
    mem_latency: u32,
) -> f64 {
    let topo = MeshTopology::new(side);
    let p = side * side;
    let fmt = PacketFormat::MESH;
    let fr = workload.read_fraction;
    let flits = |kind: PacketKind| f64::from(fmt.flits(kind, cl));
    let ser = fr * (flits(PacketKind::ReadReq) + flits(PacketKind::ReadResp))
        + (1.0 - fr) * (flits(PacketKind::WriteReq) + flits(PacketKind::WriteResp));
    let mem = f64::from(mem_latency);
    // PMs at each Manhattan distance from the source: 0 ..= 2(side − 1).
    let mut at = vec![0u32; 2 * side as usize - 1];
    let mut total = 0.0;
    let mut count = 0.0;
    for src in 0..p {
        let s = NodeId::new(src);
        let (row, col) = topo.coords(s);
        at.fill(0);
        for r in 0..side {
            for c in 0..side {
                at[(r.abs_diff(row) + c.abs_diff(col)) as usize] += 1;
            }
        }
        let mut left = Region::new(Placement::Grid { side }, s, workload.region).len() as u32;
        for (d, &n) in (0u32..).zip(&at) {
            let term = if d == 0 {
                mem
            } else {
                2.0 * f64::from(d) + ser + mem
            };
            for _ in 0..n.min(left) {
                count += 1.0;
                total += term;
            }
            left -= n.min(left);
        }
    }
    total / count
}

/// Upper bound on system throughput (transactions per cycle) from the
/// *bisection* capacity of a hierarchical ring: traffic crossing the
/// global ring cannot exceed its aggregate link bandwidth.
///
/// The bound is `capacity / (expected bisection flit-hops per
/// transaction)`, where capacity is `stations × speedup` flits/cycle
/// and the expectation runs over the access regions: a transaction
/// whose target lies under a different global-ring subtree carries its
/// request and response across the global ring.
pub fn ring_bisection_bound(
    spec: &RingSpec,
    cl: CacheLineSize,
    workload: &WorkloadParams,
    global_speedup: u32,
) -> f64 {
    let topo = RingTopology::new(spec);
    if topo.levels() == 1 {
        // A single ring: use total ring capacity over expected flit-hops.
        return single_ring_bound(spec.num_pms(), cl, workload);
    }
    let p = spec.num_pms();
    let fmt = PacketFormat::RING;
    let fr = workload.read_fraction;
    let stations = topo.ring(0).members.len() as f64;
    // Expected global-ring flit-hops per transaction: the request
    // traverses the global ring on the way out, the response on the
    // way back (each zero when source and target share a top-level
    // subtree).
    let req = fr * f64::from(fmt.flits(PacketKind::ReadReq, cl))
        + (1.0 - fr) * f64::from(fmt.flits(PacketKind::WriteReq, cl));
    let resp = fr * f64::from(fmt.flits(PacketKind::ReadResp, cl))
        + (1.0 - fr) * f64::from(fmt.flits(PacketKind::WriteResp, cl));
    let mut flit_hops = 0.0;
    let mut count = 0.0;
    for src in 0..p {
        let s = NodeId::new(src);
        for t in Region::new(Placement::Linear { pms: p }, s, workload.region).iter() {
            count += 1.0;
            if t == s {
                continue;
            }
            flit_hops += req * f64::from(global_hops(&topo, s, t))
                + resp * f64::from(global_hops(&topo, t, s));
        }
    }
    flit_hops /= count;
    let capacity = stations * f64::from(global_speedup);
    if flit_hops < f64::EPSILON {
        f64::INFINITY
    } else {
        capacity / flit_hops
    }
}

/// Number of global-ring (depth-0) link traversals on the path from
/// `src` to `dst`.
fn global_hops(topo: &RingTopology, src: NodeId, dst: NodeId) -> u32 {
    if src == dst {
        return 0;
    }
    // Walk the route, counting hops whose carrying ring is the root.
    let mut pos = (topo.nic_of(src), 0u8);
    let mut hops = 0u32;
    let mut steps = 0u32;
    loop {
        let (st, side) = pos;
        use ringmesh_ring::RingAction::*;
        let (action, ring) = if steps == 0 {
            (Forward, topo.ring_of(st, side)) // leave the source NIC
        } else {
            (topo.action(st, side, dst), topo.ring_of(st, side))
        };
        match action {
            Eject => return hops,
            Forward => {
                if ring == 0 {
                    hops += 1;
                }
                pos = topo.next_of(st, side);
            }
            Up => {
                if topo.ring_of(st, 1) == 0 {
                    hops += 1;
                }
                pos = topo.next_of(st, 1);
            }
            Down => {
                if topo.ring_of(st, 0) == 0 {
                    hops += 1;
                }
                pos = topo.next_of(st, 0);
            }
        }
        steps += 1;
        assert!(steps < 10_000, "routing walk did not terminate");
    }
}

fn single_ring_bound(p: u32, cl: CacheLineSize, workload: &WorkloadParams) -> f64 {
    let fmt = PacketFormat::RING;
    let fr = workload.read_fraction;
    // Uniform traffic on a P-station uni-directional ring: request and
    // response hops sum to exactly P for every remote pair.
    let txn_flits = fr
        * f64::from(fmt.flits(PacketKind::ReadReq, cl) + fmt.flits(PacketKind::ReadResp, cl))
        + (1.0 - fr)
            * f64::from(fmt.flits(PacketKind::WriteReq, cl) + fmt.flits(PacketKind::WriteResp, cl));
    let remote_fraction = f64::from(p - 1) / f64::from(p);
    // flit-hops per txn ≈ txn_flits × P/2 per direction pair; capacity P.
    let flit_hops = remote_fraction * txn_flits * f64::from(p) / 2.0;
    f64::from(p) / flit_hops
}

/// Upper bound on mesh system throughput from its bisection: for an
/// even `side`, `2·side` directed links cross the middle; uniform
/// traffic sends half of all flits across. (For odd sides the bound
/// uses the nearest cut.)
pub fn mesh_bisection_bound(side: u32, cl: CacheLineSize, workload: &WorkloadParams) -> f64 {
    let p = f64::from(side * side);
    let fmt = PacketFormat::MESH;
    let fr = workload.read_fraction;
    let txn_flits = fr
        * f64::from(fmt.flits(PacketKind::ReadReq, cl) + fmt.flits(PacketKind::ReadResp, cl))
        + (1.0 - fr)
            * f64::from(fmt.flits(PacketKind::WriteReq, cl) + fmt.flits(PacketKind::WriteResp, cl));
    let _ = p;
    let cut_links = 2.0 * f64::from(side);
    // Fraction of transactions straddling the cut: 1/2 under uniform
    // traffic, shrinking roughly with R under locality (the region
    // covers R of the machine, at most half of it across the cut).
    // This keeps the result an upper bound rather than an expectation.
    let crossing_fraction = (0.5 * workload.region).max(f64::EPSILON);
    cut_links / (txn_flits * crossing_fraction)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wl(r: f64) -> WorkloadParams {
        WorkloadParams::paper_baseline().with_region(r)
    }

    #[test]
    fn ring_zero_load_scales_with_size() {
        let small = ring_zero_load_latency(&RingSpec::single(4), CacheLineSize::B32, &wl(1.0), 10);
        let large = ring_zero_load_latency(&RingSpec::single(12), CacheLineSize::B32, &wl(1.0), 10);
        assert!(large > small);
        // A 4-ring with 32B lines: remote round trip = 4 hops (request
        // plus response directions sum to the ring size) + 2 response
        // serialization + 10 memory = 16; local = 10. Average over the
        // region {self + 3 remote} = (10 + 3*16)/4 = 14.5.
        assert!((small - 14.5).abs() < 1e-9, "{small}");
    }

    #[test]
    fn hierarchy_crossings_increase_zero_load() {
        let flat = ring_zero_load_latency(&RingSpec::single(12), CacheLineSize::B32, &wl(1.0), 10);
        let hier =
            ring_zero_load_latency(&"2:6".parse().unwrap(), CacheLineSize::B32, &wl(1.0), 10);
        // Same PM count; the hierarchy pays crossing penalties at zero
        // load (its win is under load).
        assert!(hier > 0.0 && flat > 0.0);
    }

    #[test]
    fn mesh_zero_load_formula_small_case() {
        // 2x2 mesh, 32B lines, uniform: remote pairs at distance 1 or 2.
        let m = mesh_zero_load_latency(2, CacheLineSize::B32, &wl(1.0), 10);
        assert!(m > 10.0 && m < 60.0, "{m}");
    }

    /// The distance count adds what a walk of every access region adds,
    /// in the same order: equal to the last bit, clipped regions
    /// included.
    #[test]
    fn mesh_zero_load_equals_the_region_walk() {
        let walk = |side: u32, cl, workload: &WorkloadParams, mem: u32| {
            let topo = MeshTopology::new(side);
            let fmt = PacketFormat::MESH;
            let fr = workload.read_fraction;
            let flits = |kind: PacketKind| f64::from(fmt.flits(kind, cl));
            let ser = fr * (flits(PacketKind::ReadReq) + flits(PacketKind::ReadResp))
                + (1.0 - fr) * (flits(PacketKind::WriteReq) + flits(PacketKind::WriteResp));
            let (mut total, mut count) = (0.0, 0.0);
            for src in 0..side * side {
                let s = NodeId::new(src);
                for t in Region::new(Placement::Grid { side }, s, workload.region).iter() {
                    count += 1.0;
                    total += if t == s {
                        f64::from(mem)
                    } else {
                        2.0 * f64::from(topo.manhattan(s, t)) + ser + f64::from(mem)
                    };
                }
            }
            total / count
        };
        for side in [1, 2, 3, 5, 8, 16] {
            for r in [0.05, 0.3, 0.77, 1.0] {
                for cl in [CacheLineSize::B32, CacheLineSize::B128] {
                    let (got, want) = (
                        mesh_zero_load_latency(side, cl, &wl(r), 10),
                        walk(side, cl, &wl(r), 10),
                    );
                    assert_eq!(got.to_bits(), want.to_bits(), "side {side} R {r} {cl}");
                }
            }
        }
    }

    #[test]
    fn ring_bisection_bound_matches_hand_calc() {
        // Single 12-ring, 16B lines: txn_flits = 0.7*(1+2)+0.3*(2+1) = 3,
        // remote fraction 11/12, flit-hops = 11/12*3*6 = 16.5, bound =
        // 12/16.5 ≈ 0.727 txns/cycle.
        let b = ring_bisection_bound(&RingSpec::single(12), CacheLineSize::B16, &wl(1.0), 1);
        assert!((b - 12.0 / 16.5).abs() < 1e-9, "{b}");
    }

    #[test]
    fn hierarchical_bisection_bound_is_finite_and_scales_with_speedup() {
        let spec: RingSpec = "3:3:6".parse().unwrap();
        let b1 = ring_bisection_bound(&spec, CacheLineSize::B64, &wl(1.0), 1);
        let b2 = ring_bisection_bound(&spec, CacheLineSize::B64, &wl(1.0), 2);
        assert!(b1.is_finite() && b1 > 0.0);
        assert!((b2 / b1 - 2.0).abs() < 1e-9, "speedup doubles the bound");
    }

    #[test]
    fn locality_raises_ring_bisection_bound() {
        let spec: RingSpec = "3:3:6".parse().unwrap();
        let uniform = ring_bisection_bound(&spec, CacheLineSize::B64, &wl(1.0), 1);
        let local = ring_bisection_bound(&spec, CacheLineSize::B64, &wl(0.1), 1);
        assert!(local > 2.0 * uniform, "local {local} vs uniform {uniform}");
    }

    #[test]
    fn mesh_bound_grows_with_side() {
        let small = mesh_bisection_bound(4, CacheLineSize::B64, &wl(1.0));
        let large = mesh_bisection_bound(8, CacheLineSize::B64, &wl(1.0));
        assert!(large > small);
    }

    #[test]
    fn global_hops_zero_within_subtree() {
        let topo = RingTopology::new(&"2:3:4".parse().unwrap());
        // PMs 0 and 5 share the first top-level subtree (0..12).
        assert_eq!(global_hops(&topo, NodeId::new(0), NodeId::new(5)), 0);
        assert!(global_hops(&topo, NodeId::new(0), NodeId::new(15)) > 0);
    }
}
