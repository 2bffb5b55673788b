//! Fast sanity checks of the paper's qualitative claims. These use
//! reduced run lengths; the full quantitative reproduction is
//! `RINGMESH_FULL=1 ringmesh figure all` and EXPERIMENTS.md.

use ringmesh::{run_config, NetworkSpec, SimParams, SystemConfig};
use ringmesh_net::{BufferRegime, CacheLineSize};
use ringmesh_workload::WorkloadParams;

fn sim() -> SimParams {
    SimParams {
        warmup: 2_000,
        batch_cycles: 2_000,
        batches: 4,
    }
}

fn ring_latency(spec: &str, speedup: u32, cl: CacheLineSize, r: f64, t: u32) -> f64 {
    let cfg = SystemConfig::new(
        NetworkSpec::Ring {
            spec: spec.parse().unwrap(),
            speedup,
        },
        cl,
    )
    .with_workload(
        WorkloadParams::paper_baseline()
            .with_region(r)
            .with_outstanding(t),
    )
    .with_sim(sim());
    run_config(cfg).unwrap().mean_latency()
}

fn mesh_latency(side: u32, buffers: BufferRegime, cl: CacheLineSize, r: f64, t: u32) -> f64 {
    let cfg = SystemConfig::new(NetworkSpec::Mesh { side, buffers }, cl)
        .with_workload(
            WorkloadParams::paper_baseline()
                .with_region(r)
                .with_outstanding(t),
        )
        .with_sim(sim());
    run_config(cfg).unwrap().mean_latency()
}

/// §3 / Fig. 6: single rings saturate hard past their sustainable size.
#[test]
fn single_ring_saturation_knee() {
    for (cl, max) in [
        (CacheLineSize::B16, 12u32),
        (CacheLineSize::B32, 8),
        (CacheLineSize::B64, 6),
        (CacheLineSize::B128, 4),
    ] {
        let at_max = ring_latency(&max.to_string(), 1, cl, 1.0, 4);
        let beyond = ring_latency(&(max * 2).to_string(), 1, cl, 1.0, 4);
        assert!(
            beyond > 1.8 * at_max,
            "{cl}: no saturation knee (at {max}: {at_max:.0}, at {}: {beyond:.0})",
            max * 2
        );
    }
}

/// §4 / Fig. 12: mesh latency orders by buffer size: 1-flit worst,
/// cl-sized best.
#[test]
fn mesh_buffer_regime_ordering() {
    let cl = CacheLineSize::B128;
    let one = mesh_latency(8, BufferRegime::OneFlit, cl, 1.0, 4);
    let four = mesh_latency(8, BufferRegime::FourFlit, cl, 1.0, 4);
    let full = mesh_latency(8, BufferRegime::CacheLine, cl, 1.0, 4);
    assert!(
        one > four && four > full,
        "1-flit {one:.0} / 4-flit {four:.0} / cl {full:.0}"
    );
}

/// §5.1 / Fig. 14: small systems favour rings; large 16B-line systems
/// favour meshes (bisection limit).
#[test]
fn crossover_direction() {
    let cl = CacheLineSize::B64;
    // Well below the cross-over (paper: ~27 nodes for 64B): ring wins.
    let small_ring = ring_latency("2:6", 1, cl, 1.0, 4); // 12 PMs
    let small_mesh = mesh_latency(3, BufferRegime::FourFlit, cl, 1.0, 4); // 9 PMs (fewer!)
    assert!(
        small_ring < small_mesh,
        "small: ring {small_ring:.0} !< mesh {small_mesh:.0}"
    );
    // Well above it with small lines: mesh wins.
    let big_ring = ring_latency("3:3:12", 1, CacheLineSize::B16, 1.0, 4); // 108 PMs
    let big_mesh = mesh_latency(10, BufferRegime::FourFlit, CacheLineSize::B16, 1.0, 4); // 100 PMs
    assert!(
        big_mesh < big_ring,
        "large: mesh {big_mesh:.0} !< ring {big_ring:.0}"
    );
}

/// §5.1 / Fig. 16: with 1-flit mesh buffers, rings win even at the
/// largest sizes studied.
#[test]
fn one_flit_meshes_lose_to_rings() {
    let cl = CacheLineSize::B128;
    let ring = ring_latency("3:3:4", 1, cl, 1.0, 4); // 36 PMs
    let mesh = mesh_latency(6, BufferRegime::OneFlit, cl, 1.0, 4); // 36 PMs
    assert!(ring < mesh, "ring {ring:.0} !< 1-flit mesh {mesh:.0}");
}

/// §5.2 / Fig. 17: with locality, rings beat meshes at sizes where
/// they lose without it. (Our reproduction recovers the paper's 20-40%
/// ring advantage robustly at R = 0.1; at R = 0.2-0.3 the advantage
/// holds at small/medium sizes — see EXPERIMENTS.md for where our
/// intermediate rings saturate earlier than the paper's.)
#[test]
fn locality_flips_the_comparison() {
    let cl = CacheLineSize::B64;
    let ring = ring_latency("3:3:6", 1, cl, 0.1, 4); // 54 PMs
    let mesh = mesh_latency(7, BufferRegime::FourFlit, cl, 0.1, 4); // 49 PMs
    assert!(ring < mesh, "R=0.1: ring {ring:.0} !< mesh {mesh:.0}");
    // Control: locality must help the ring *relative to* the mesh —
    // the ring:mesh latency ratio at R=0.1 is clearly below the ratio
    // without locality.
    let ring_nl = ring_latency("3:3:6", 1, cl, 1.0, 4);
    let mesh_nl = mesh_latency(7, BufferRegime::FourFlit, cl, 1.0, 4);
    assert!(
        ring / mesh < 0.9 * (ring_nl / mesh_nl),
        "locality gain: {:.2} !< 0.9 * {:.2}",
        ring / mesh,
        ring_nl / mesh_nl
    );
    // And at R=0.2 the ring advantage persists at 18 processors.
    let small_ring = ring_latency("3:6", 1, cl, 0.2, 4);
    let small_mesh = mesh_latency(4, BufferRegime::FourFlit, cl, 0.2, 4);
    assert!(
        small_ring < small_mesh,
        "R=0.2 small: ring {small_ring:.0} !< mesh {small_mesh:.0}"
    );
}

/// §6 / Fig. 19: doubling the global ring clock cuts latency on
/// bisection-limited hierarchies. (Longer batches than the other
/// claims: a 96-PM system at deep saturation needs them.)
#[test]
fn double_speed_global_ring_helps() {
    let cl = CacheLineSize::B32;
    let run = |speedup| {
        let cfg = SystemConfig::new(
            NetworkSpec::Ring {
                spec: "4:3:8".parse().unwrap(),
                speedup,
            },
            cl,
        )
        .with_sim(SimParams {
            warmup: 4_000,
            batch_cycles: 4_000,
            batches: 6,
        });
        run_config(cfg).unwrap().mean_latency()
    };
    let (normal, fast) = (run(1), run(2));
    assert!(
        fast < 0.8 * normal,
        "double speed {fast:.0} not clearly better than {normal:.0}"
    );
}

/// §3 / Fig. 11: with locality, adding hierarchy levels lets far more
/// processors run at low latency.
#[test]
fn hierarchy_helps_with_locality() {
    let cl = CacheLineSize::B32;
    // 48 PMs on one flat ring vs a 3-level hierarchy, R = 0.2.
    let flat = ring_latency("48", 1, cl, 0.2, 2);
    let hier = ring_latency("2:3:8", 1, cl, 0.2, 2);
    assert!(
        hier < 0.5 * flat,
        "hierarchy {hier:.0} should be far below flat ring {flat:.0}"
    );
}
