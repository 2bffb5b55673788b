//! Cross-validation of the simulators against the closed-form models:
//! at very light load, simulated round-trip latency must match the
//! zero-load model closely; saturated throughput must stay below the
//! bisection bound.

use ringmesh::analytic::{
    mesh_bisection_bound, mesh_zero_load_latency, ring_bisection_bound, ring_zero_load_latency,
};
use ringmesh::{run_config, NetworkSpec, SimParams, SystemConfig};
use ringmesh_net::CacheLineSize;
use ringmesh_workload::WorkloadParams;

/// Light load: one outstanding transaction and a 0.2% miss rate keep
/// the network effectively empty (even 128-byte worms on a two-station
/// global ring stay under ~15% utilization).
fn light() -> WorkloadParams {
    let mut w = WorkloadParams::paper_baseline().with_outstanding(1);
    w.miss_rate = 0.002;
    w
}

fn sim() -> SimParams {
    SimParams {
        warmup: 5_000,
        batch_cycles: 20_000,
        batches: 4,
    }
}

#[test]
fn ring_simulator_matches_zero_load_model() {
    for (spec, cl) in [
        ("6", CacheLineSize::B32),
        ("2:4", CacheLineSize::B64),
        ("2:3:4", CacheLineSize::B128),
    ] {
        let spec: ringmesh_ring::RingSpec = spec.parse().unwrap();
        let predicted = ring_zero_load_latency(&spec, cl, &light(), 10);
        let cfg = SystemConfig::new(NetworkSpec::ring(spec.clone()), cl)
            .with_workload(light())
            .with_sim(sim());
        let measured = run_config(cfg).unwrap().mean_latency();
        // The model is the exact no-contention pipeline (verified
        // per-transaction by unit tests); even at 0.2% miss rate long
        // worms self-contend a little, so measured sits slightly above.
        assert!(
            measured >= 0.98 * predicted && measured <= 1.25 * predicted,
            "{spec} {cl}: predicted {predicted:.1}, measured {measured:.1}"
        );
    }
}

#[test]
fn mesh_simulator_matches_zero_load_model() {
    for (side, cl) in [
        (2u32, CacheLineSize::B32),
        (3, CacheLineSize::B64),
        (4, CacheLineSize::B128),
    ] {
        let predicted = mesh_zero_load_latency(side, cl, &light(), 10);
        let cfg = SystemConfig::new(NetworkSpec::mesh(side), cl)
            .with_workload(light())
            .with_sim(sim());
        let measured = run_config(cfg).unwrap().mean_latency();
        assert!(
            measured >= 0.98 * predicted && measured <= 1.25 * predicted,
            "{side}x{side} {cl}: predicted {predicted:.1}, measured {measured:.1}"
        );
    }
}

#[test]
fn saturated_ring_throughput_below_bisection_bound() {
    let spec: ringmesh_ring::RingSpec = "3:3:6".parse().unwrap();
    let cl = CacheLineSize::B64;
    let bound = ring_bisection_bound(&spec, cl, &WorkloadParams::paper_baseline(), 1);
    let cfg = SystemConfig::new(NetworkSpec::ring(spec), cl).with_sim(SimParams::quick());
    let r = run_config(cfg).unwrap();
    assert!(
        r.throughput <= bound * 1.02,
        "throughput {:.3} exceeds bisection bound {bound:.3}",
        r.throughput
    );
    // …and the simulator should realise a meaningful share of it.
    assert!(
        r.throughput > 0.4 * bound,
        "throughput {:.3} ≪ bound {bound:.3}: simulator leaving bandwidth unused",
        r.throughput
    );
}

/// The hierarchical bisection bounds the saturation checks above and
/// below lean on, to the last bit: 3:3:6 (54 PMs) and 4:3:8 (96 PMs),
/// uniform and local traffic, two line sizes, at global speedup 1.
#[test]
fn hierarchical_ring_bisection_bounds_are_pinned() {
    let rows: [(&str, CacheLineSize, f64, u64); 8] = [
        ("3:3:6", CacheLineSize::B32, 1.0, 0x3fe8_0000_0000_0000),
        ("3:3:6", CacheLineSize::B32, 0.1, 0x4015_0000_0000_0000),
        ("3:3:6", CacheLineSize::B64, 1.0, 0x3fe0_0000_0000_0000),
        ("3:3:6", CacheLineSize::B64, 0.1, 0x400b_ffff_ffff_fffe),
        ("4:3:8", CacheLineSize::B32, 1.0, 0x3fe5_5555_5555_5554),
        ("4:3:8", CacheLineSize::B32, 0.1, 0x4011_9999_9999_999a),
        ("4:3:8", CacheLineSize::B64, 1.0, 0x3fdc_71c7_1c71_c71b),
        ("4:3:8", CacheLineSize::B64, 0.1, 0x4007_7777_7777_7779),
    ];
    for (spec, cl, region, bits) in rows {
        let wl = WorkloadParams::paper_baseline().with_region(region);
        let bound = ring_bisection_bound(&spec.parse().unwrap(), cl, &wl, 1);
        assert_eq!(
            bound.to_bits(),
            bits,
            "{spec} {cl} R={region}: {bound} is not {}",
            f64::from_bits(bits)
        );
    }
}

#[test]
fn saturated_mesh_throughput_below_bisection_bound() {
    let cl = CacheLineSize::B64;
    let bound = mesh_bisection_bound(8, cl, &WorkloadParams::paper_baseline());
    let cfg = SystemConfig::new(NetworkSpec::mesh(8), cl).with_sim(SimParams::quick());
    let r = run_config(cfg).unwrap();
    assert!(
        r.throughput <= bound * 1.02,
        "throughput {:.3} exceeds bisection bound {bound:.3}",
        r.throughput
    );
}

#[test]
fn double_speed_bound_doubles_and_simulator_follows() {
    let spec: ringmesh_ring::RingSpec = "4:3:8".parse().unwrap(); // 96 PMs, saturated
    let cl = CacheLineSize::B32;
    let wl = WorkloadParams::paper_baseline();
    let b1 = ring_bisection_bound(&spec, cl, &wl, 1);
    let b2 = ring_bisection_bound(&spec, cl, &wl, 2);
    assert!((b2 / b1 - 2.0).abs() < 1e-9);
    let thr = |speedup| {
        let cfg = SystemConfig::new(
            NetworkSpec::Ring {
                spec: spec.clone(),
                speedup,
            },
            cl,
        )
        .with_sim(SimParams::quick());
        run_config(cfg).unwrap().throughput
    };
    let (t1, t2) = (thr(1), thr(2));
    assert!(
        t2 > 1.2 * t1,
        "double speed throughput {t2:.3} !> 1.2x {t1:.3}"
    );
}
