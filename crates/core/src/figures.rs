//! Canned experiment definitions: one function per table/figure of the
//! paper, and [`EXPERIMENTS`], the registry `ringmesh figure <NAME>`
//! runs them from. Each figure function returns labelled series groups
//! that its registry row prints; CI runs every row at [`Scale::quick`].
//!
//! The figure numbering follows the paper:
//!
//! | fn | artifact | what it shows |
//! |---|---|---|
//! | [`table1`] | Table 1 | NIC buffer memory requirements |
//! | [`table2_overview`] | Table 2 | optimal ring topologies |
//! | [`fig06`] | Fig. 6 | single-ring latency vs size (cl × T) |
//! | [`fig07_08`] | Figs. 7–8 | 2-level ring latency and ring utilization |
//! | [`fig09_10`] | Figs. 9–10 | 3-level ring latency and global-ring utilization |
//! | [`fig11`] | Fig. 11 | benefit of hierarchy depth (R = 1.0 vs 0.2) |
//! | [`fig12_13`] | Figs. 12–13 | mesh latency per buffer regime + utilization |
//! | [`fig14`] | Fig. 14 | ring vs mesh, 4-flit buffers, per cl × T |
//! | [`fig15`] | Fig. 15 | ring vs mesh, cl-sized buffers, 128B |
//! | [`fig16`] | Fig. 16 | ring vs mesh, 1-flit buffers, 128B |
//! | [`fig17`] | Fig. 17 | ring vs mesh with locality (R ≤ 0.3) |
//! | [`fig18`] | Fig. 18 | locality with cl-sized mesh buffers, 128B |
//! | [`fig19_20`] | Figs. 19–20 | double-speed global ring latency + utilization |
//! | [`fig21`] | Fig. 21 | mesh vs double-speed-global rings |
//! | [`fig_crossover`] | extension | ring vs slotted vs mesh vs hybrid at matched PM counts |
//!
//! Every figure's sweep points run through [`run_series`]/[`run_points`]
//! and therefore fan out across the sweep worker pool (sized by
//! `RINGMESH_THREADS`, default: available parallelism). Each point owns
//! its seed and results are collected in input order, so figure output
//! is byte-identical at any thread count.

use ringmesh_net::{mesh_nic_buffer_bytes, ring_nic_buffer_bytes, BufferRegime, CacheLineSize};
use ringmesh_ring::RingSpec;
use ringmesh_stats::{Series, Table};
use ringmesh_workload::WorkloadParams;

use crate::ablations;
use crate::sweep::{run_points, run_series, series_of, Scale};
use crate::system::{run_config, RunResult};
use crate::topologies::{best_spec, mesh_size_ladder, ring_size_ladder, single_ring_max, table2};
use crate::{NetworkSpec, SystemConfig};

/// A titled group of series (one printed table/panel).
pub type Group = (String, Vec<Series>);
/// All panels of one figure.
pub type FigureData = Vec<Group>;

/// One runnable experiment: a table or figure of the paper, or one of
/// the studies beyond it.
pub struct Experiment {
    /// What `ringmesh figure <NAME>` calls it.
    pub name: &'static str,
    /// One-line description (a figure prints it as its heading).
    pub title: &'static str,
    /// Runs the experiment at the given scale and prints its tables.
    pub run: fn(Scale),
}

/// A registry row whose `run` prints a figure function's panels under
/// the row's title; `f.0`/`f.1` picks one half of a two-figure sweep.
macro_rules! figure {
    ($name:literal, $title:literal, $f:ident $(. $half:tt)?) => {
        Experiment {
            name: $name,
            title: $title,
            run: |scale| print_figure($title, &$f(scale)$(.$half)?),
        }
    };
}

/// Every experiment, in DESIGN §4 order, then the host-work record;
/// `ringmesh figure all` runs them top to bottom but for
/// [`RECORD_ROW`].
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table1",
        title: "Table 1: NIC buffer memory requirements",
        run: |_| println!("{}", table1()),
    },
    Experiment {
        name: "table2",
        title: "Table 2: optimal hierarchical ring topology",
        run: |_| println!("{}", table2_overview()),
    },
    figure!("fig06", "Figure 6: single-ring latency", fig06),
    figure!("fig07", "Figure 7: 2-level ring latency", fig07_08.0),
    figure!("fig08", "Figure 8: 2-level ring utilization", fig07_08.1),
    figure!("fig09", "Figure 9: 3-level ring latency", fig09_10.0),
    figure!(
        "fig10",
        "Figure 10: 3-level global ring utilization",
        fig09_10.1
    ),
    figure!("fig11", "Figure 11: benefit of hierarchy depth", fig11),
    figure!("fig12", "Figure 12: mesh latency", fig12_13.0),
    figure!("fig13", "Figure 13: mesh utilization", fig12_13.1),
    figure!("fig14", "Figure 14: ring vs mesh, 4-flit buffers", fig14),
    figure!("fig15", "Figure 15: ring vs mesh, cl-sized buffers", fig15),
    figure!("fig16", "Figure 16: ring vs mesh, 1-flit buffers", fig16),
    figure!("fig17", "Figure 17: ring vs mesh with locality", fig17),
    figure!("fig18", "Figure 18: locality, cl-sized mesh buffers", fig18),
    figure!(
        "fig19",
        "Figure 19: double-speed global ring latency",
        fig19_20.0
    ),
    figure!(
        "fig20",
        "Figure 20: double-speed global ring utilization",
        fig19_20.1
    ),
    figure!(
        "fig21",
        "Figure 21: mesh vs double-speed-global rings",
        fig21
    ),
    figure!(
        "crossover",
        "Crossover study: ring vs slotted vs mesh vs hybrid",
        fig_crossover
    ),
    Experiment {
        name: "ablations",
        title: "Ablation studies on the model's design decisions",
        run: print_ablations,
    },
    Experiment {
        name: "slotted",
        title: "Extension: wormhole vs slotted hierarchical rings",
        run: ext_slotted,
    },
    Experiment {
        name: "hotspot",
        title: "Extension: hot-spot sensitivity",
        run: ext_hotspot,
    },
    Experiment {
        name: RECORD_ROW,
        title: "Host work per simulated cycle (writes BENCH_work.json)",
        run: |_| crate::work::print_record(),
    },
];

/// The one row `ringmesh figure all` leaves out: the host-work record
/// of [`crate::work`], which measures the simulator, not the networks,
/// and writes a file.
pub const RECORD_ROW: &str = "work";

const SEED: u64 = 0x1997_0201; // HPCA, February 1997

fn wl(r: f64, t: u32) -> WorkloadParams {
    WorkloadParams::paper_baseline()
        .with_region(r)
        .with_outstanding(t)
}

fn ring_cfg(
    scale: Scale,
    spec: RingSpec,
    speedup: u32,
    cl: CacheLineSize,
    w: WorkloadParams,
) -> SystemConfig {
    SystemConfig::new(NetworkSpec::Ring { spec, speedup }, cl)
        .with_workload(w)
        .with_sim(scale.sim)
        .with_seed(SEED)
}

fn mesh_cfg(
    scale: Scale,
    side: u32,
    buffers: BufferRegime,
    cl: CacheLineSize,
    w: WorkloadParams,
) -> SystemConfig {
    SystemConfig::new(NetworkSpec::Mesh { side, buffers }, cl)
        .with_workload(w)
        .with_sim(scale.sim)
        .with_seed(SEED)
}

fn cls(scale: Scale) -> Vec<CacheLineSize> {
    if scale.quick {
        vec![CacheLineSize::B32, CacheLineSize::B128]
    } else {
        CacheLineSize::ALL.to_vec()
    }
}

fn ts(scale: Scale) -> Vec<u32> {
    if scale.quick {
        vec![1, 4]
    } else {
        vec![1, 2, 4]
    }
}

fn latency(r: &RunResult) -> f64 {
    r.mean_latency()
}

/// Ring latency series over the ring-natural size ladder.
fn ring_latency_series(
    scale: Scale,
    label: String,
    speedup: u32,
    cl: CacheLineSize,
    w: WorkloadParams,
) -> Series {
    let ladder = if speedup == 2 {
        double_speed_ladder(scale, cl)
    } else {
        ring_size_ladder(cl, scale.max_pms)
    };
    let points = ladder
        .into_iter()
        .map(|(p, spec)| (f64::from(p), ring_cfg(scale, spec, speedup, cl, w)))
        .collect();
    run_series(label, points, latency)
}

/// Mesh latency series over perfect-square sizes.
fn mesh_latency_series(
    scale: Scale,
    label: String,
    buffers: BufferRegime,
    cl: CacheLineSize,
    w: WorkloadParams,
) -> Series {
    let points = mesh_size_ladder(scale.max_pms)
        .into_iter()
        .map(|p| {
            let side = (p as f64).sqrt() as u32;
            (f64::from(p), mesh_cfg(scale, side, buffers, cl, w))
        })
        .collect();
    run_series(label, points, latency)
}

/// 3-level ladder with a double-speed global ring: up to 5 second-level
/// rings are sustainable (§6), so sweep j second-level rings, j = 2..=6.
fn double_speed_ladder(scale: Scale, cl: CacheLineSize) -> Vec<(u32, RingSpec)> {
    let m = single_ring_max(cl);
    let mut out = Vec::new();
    for j in 2..=6u32 {
        let p = j * 3 * m;
        if p <= scale.max_pms {
            out.push((p, RingSpec::new(vec![j, 3, m]).expect("valid spec")));
        }
    }
    if out.is_empty() {
        // Tiny quick scales: fall back to the largest 2-level point.
        out.push((2 * m, RingSpec::new(vec![2, m]).expect("valid spec")));
    }
    out
}

/// Table 1: memory requirements for ring and mesh NIC buffers.
pub fn table1() -> Table {
    let mut t = Table::new(
        "Table 1: NIC buffer memory requirements (bytes)",
        &["network", "cache line", "cl-sized", "4-flit", "1-flit"],
    );
    for &cl in &CacheLineSize::ALL {
        t.push_row(vec![
            "ring".into(),
            cl.to_string(),
            ring_nic_buffer_bytes(cl).to_string(),
            "-".into(),
            "-".into(),
        ]);
    }
    for &cl in &CacheLineSize::ALL {
        t.push_row(vec![
            "mesh".into(),
            cl.to_string(),
            mesh_nic_buffer_bytes(cl, BufferRegime::CacheLine).to_string(),
            mesh_nic_buffer_bytes(cl, BufferRegime::FourFlit).to_string(),
            mesh_nic_buffer_bytes(cl, BufferRegime::OneFlit).to_string(),
        ]);
    }
    t
}

/// Table 2: the optimal hierarchical ring topology per (P, cache line).
pub fn table2_overview() -> Table {
    let mut t = Table::new(
        "Table 2: optimal hierarchical ring topology (R=1.0, C=0.04)",
        &["processors", "16B", "32B", "64B", "128B"],
    );
    for &p in &[4u32, 6, 8, 12, 18, 24, 36, 54, 72, 108] {
        let cell = |cl| table2(p, cl).map_or_else(|| "-".to_string(), |s| s.to_string());
        t.push_row(vec![
            p.to_string(),
            cell(CacheLineSize::B16),
            cell(CacheLineSize::B32),
            cell(CacheLineSize::B64),
            cell(CacheLineSize::B128),
        ]);
    }
    t
}

/// Figure 6: latency of single rings for each cache line size and
/// T ∈ {1, 2, 4}. Paper expectation: 16/32/64/128-byte systems sustain
/// ~12/8/6/4 nodes before latency climbs steeply.
pub fn fig06(scale: Scale) -> FigureData {
    let sizes: &[u32] = if scale.quick {
        &[2, 4, 8, 12, 16]
    } else {
        &[2, 4, 6, 8, 10, 12, 16, 20, 24, 32]
    };
    let mut out = FigureData::new();
    for cl in cls(scale) {
        let mut group = Vec::new();
        for t in ts(scale) {
            let points = sizes
                .iter()
                .filter(|&&n| n <= scale.max_pms)
                .map(|&n| {
                    (
                        f64::from(n),
                        ring_cfg(scale, RingSpec::single(n), 1, cl, wl(1.0, t)),
                    )
                })
                .collect();
            group.push(run_series(format!("T={t}"), points, latency));
        }
        out.push((format!("{cl} cache line (R=1.0, C=0.04)"), group));
    }
    out
}

/// Figures 7 and 8: 2-level hierarchies — latency (first group set) and
/// local/global ring utilization (second). Paper expectation: latency
/// knees when a second local ring is added and again past three local
/// rings, where the global ring saturates; this is independent of cl.
pub fn fig07_08(scale: Scale) -> (FigureData, FigureData) {
    let mut latency_groups = Vec::new();
    let mut local_util = Vec::new();
    let mut global_util = Vec::new();
    for cl in cls(scale) {
        let m = single_ring_max(cl);
        let mut points = vec![(
            f64::from(m),
            ring_cfg(scale, RingSpec::single(m), 1, cl, wl(1.0, 4)),
        )];
        for k in 2..=5u32 {
            let p = k * m;
            if p <= scale.max_pms.max(60) {
                let spec = RingSpec::new(vec![k, m]).expect("valid spec");
                points.push((f64::from(p), ring_cfg(scale, spec, 1, cl, wl(1.0, 4))));
            }
        }
        let results = run_points(points);
        latency_groups.push(series_of(format!("{cl} cache line"), &results, latency));
        local_util.push(series_of(format!("{cl} cache line"), &results, |r| {
            100.0
                * r.utilization
                    .level("local rings")
                    .or(r.utilization.level("ring"))
                    .unwrap_or(0.0)
        }));
        global_util.push(series_of(format!("{cl} cache line"), &results, |r| {
            100.0 * r.utilization.level("global ring").unwrap_or(0.0)
        }));
    }
    (
        vec![(
            "2-level ring latency (R=1.0, C=0.04, T=4)".into(),
            latency_groups,
        )],
        vec![
            (
                "local ring utilization % (R=1.0, C=0.04, T=4)".into(),
                local_util,
            ),
            (
                "global ring utilization % (R=1.0, C=0.04, T=4)".into(),
                global_util,
            ),
        ],
    )
}

/// Figures 9 and 10: 3-level hierarchies — latency and global-ring
/// utilization. Paper expectation: ~108/72/54/36 nodes supported for
/// 16/32/64/128-byte lines; the global ring saturates past 3
/// second-level rings.
pub fn fig09_10(scale: Scale) -> (FigureData, FigureData) {
    let mut latency_groups = Vec::new();
    let mut global_util = Vec::new();
    let cap = if scale.quick { scale.max_pms } else { 150 };
    for cl in cls(scale) {
        let m = single_ring_max(cl);
        let mut points = vec![(
            f64::from(3 * m),
            ring_cfg(
                scale,
                RingSpec::new(vec![3, m]).expect("valid"),
                1,
                cl,
                wl(1.0, 4),
            ),
        )];
        for j in 2..=4u32 {
            let p = j * 3 * m;
            if p <= cap {
                let spec = RingSpec::new(vec![j, 3, m]).expect("valid spec");
                points.push((f64::from(p), ring_cfg(scale, spec, 1, cl, wl(1.0, 4))));
            }
        }
        let results = run_points(points);
        latency_groups.push(series_of(format!("{cl} cache line"), &results, latency));
        global_util.push(series_of(format!("{cl} cache line"), &results, |r| {
            100.0 * r.utilization.level("global ring").unwrap_or(0.0)
        }));
    }
    (
        vec![(
            "3-level ring latency (R=1.0, C=0.04, T=4)".into(),
            latency_groups,
        )],
        vec![(
            "global ring utilization % (R=1.0, C=0.04, T=4)".into(),
            global_util,
        )],
    )
}

/// Figure 11: the benefit of hierarchy depth for 32-byte lines, T = 2,
/// without (R = 1.0) and with (R = 0.2) locality. Paper expectation:
/// each added level shifts the latency curve right; the benefit is
/// larger with locality.
pub fn fig11(scale: Scale) -> FigureData {
    let cl = CacheLineSize::B32;
    let mut out = FigureData::new();
    for r in [1.0, 0.2] {
        let mut group = Vec::new();
        for levels in 1..=4usize {
            let sizes: Vec<u32> = match levels {
                1 => vec![2, 4, 6, 8, 12, 16],
                2 => vec![16, 24, 32, 40, 48],
                3 => vec![48, 72, 96, 120],
                _ => vec![64, 96, 108, 120, 144],
            };
            let mut points = Vec::new();
            for p in sizes {
                if p > scale.max_pms.max(48) {
                    continue;
                }
                if let Some(spec) = best_spec(p, cl, Some(levels)) {
                    points.push((f64::from(p), ring_cfg(scale, spec, 1, cl, wl(r, 2))));
                }
            }
            if points.is_empty() {
                continue;
            }
            group.push(run_series(format!("{levels}-level rings"), points, latency));
        }
        out.push((format!("32B cache line, R={r}, C=0.04, T=2"), group));
    }
    out
}

/// Figures 12 and 13: mesh latency per buffer regime and network
/// utilization with 4-flit buffers. Paper expectation: latency grows
/// far more slowly with size than rings; 1-flit ≫ 4-flit ≫ cl-sized
/// buffer latency; utilization peaks early then decays.
pub fn fig12_13(scale: Scale) -> (FigureData, FigureData) {
    let mut latency_groups = FigureData::new();
    let mut util_series = Vec::new();
    for regime in [
        BufferRegime::CacheLine,
        BufferRegime::FourFlit,
        BufferRegime::OneFlit,
    ] {
        let mut group = Vec::new();
        for cl in cls(scale) {
            let points: Vec<(f64, SystemConfig)> = mesh_size_ladder(scale.max_pms.max(36))
                .into_iter()
                .map(|p| {
                    let side = (p as f64).sqrt() as u32;
                    (f64::from(p), mesh_cfg(scale, side, regime, cl, wl(1.0, 4)))
                })
                .collect();
            if regime == BufferRegime::FourFlit {
                let results = run_points(points.clone());
                group.push(series_of(format!("{cl} cache line"), &results, latency));
                util_series.push(series_of(format!("{cl} cache line"), &results, |r| {
                    100.0 * r.utilization.overall
                }));
            } else {
                group.push(run_series(format!("{cl} cache line"), points, latency));
            }
        }
        latency_groups.push((
            format!("mesh latency, {regime} buffers (R=1.0, C=0.04, T=4)"),
            group,
        ));
    }
    (
        latency_groups,
        vec![(
            "mesh network utilization %, 4-flit buffers (R=1.0, C=0.04, T=4)".into(),
            util_series,
        )],
    )
}

/// Figure 14: ring vs mesh with 4-flit mesh buffers, per cache line and
/// T. Paper expectation: cross-over points at ~16/25/27/36 nodes for
/// 16/32/64/128-byte lines, nearly independent of T (except T = 1).
pub fn fig14(scale: Scale) -> FigureData {
    let mut out = FigureData::new();
    for cl in cls(scale) {
        let mut group = Vec::new();
        for t in ts(scale) {
            group.push(mesh_latency_series(
                scale,
                format!("Mesh, T={t}"),
                BufferRegime::FourFlit,
                cl,
                wl(1.0, t),
            ));
            group.push(ring_latency_series(
                scale,
                format!("Ring, T={t}"),
                1,
                cl,
                wl(1.0, t),
            ));
        }
        out.push((
            format!("{cl} cache line (R=1.0, C=0.04), mesh 4-flit buffers"),
            group,
        ));
    }
    out
}

/// Figure 15: ring vs mesh with cl-sized mesh buffers, 128-byte lines.
/// Paper expectation: cross-overs drop to 16–30 nodes depending on T.
pub fn fig15(scale: Scale) -> FigureData {
    compare_at_regime(scale, BufferRegime::CacheLine, "cl-sized")
}

/// Figure 16: ring vs mesh with 1-flit mesh buffers, 128-byte lines.
/// Paper expectation: rings win across the whole studied range (the
/// cross-over lies beyond 121 nodes).
pub fn fig16(scale: Scale) -> FigureData {
    compare_at_regime(scale, BufferRegime::OneFlit, "1-flit")
}

fn compare_at_regime(scale: Scale, regime: BufferRegime, name: &str) -> FigureData {
    let cl = CacheLineSize::B128;
    let mut group = Vec::new();
    for t in ts(scale) {
        group.push(mesh_latency_series(
            scale,
            format!("Mesh, T={t}"),
            regime,
            cl,
            wl(1.0, t),
        ));
        group.push(ring_latency_series(
            scale,
            format!("Ring, T={t}"),
            1,
            cl,
            wl(1.0, t),
        ));
    }
    vec![(
        format!("128B cache line (R=1.0, C=0.04), mesh {name} buffers"),
        group,
    )]
}

/// Figure 17: ring vs mesh under locality R ∈ {0.1, 0.2, 0.3}, 4-flit
/// mesh buffers, T = 4. Paper expectation: rings win by ~20–40% up to
/// 121 processors (except 16-byte lines, where they tie), and the gap
/// is wider at R = 0.2 than at R = 0.1.
pub fn fig17(scale: Scale) -> FigureData {
    let rs: &[f64] = if scale.quick {
        &[0.1, 0.3]
    } else {
        &[0.1, 0.2, 0.3]
    };
    let mut out = FigureData::new();
    for cl in cls(scale) {
        let mut group = Vec::new();
        for &r in rs {
            group.push(mesh_latency_series(
                scale,
                format!("Mesh, R={r}"),
                BufferRegime::FourFlit,
                cl,
                wl(r, 4),
            ));
            group.push(ring_latency_series(
                scale,
                format!("Ring, R={r}"),
                1,
                cl,
                wl(r, 4),
            ));
        }
        out.push((
            format!("{cl} cache line (C=0.04, T=4), mesh 4-flit buffers"),
            group,
        ));
    }
    out
}

/// Figure 18: locality with cl-sized mesh buffers, 128-byte lines.
/// Paper expectation: cross-overs move out to 45+ processors for
/// R ≤ 0.3.
pub fn fig18(scale: Scale) -> FigureData {
    let rs: &[f64] = if scale.quick {
        &[0.1, 0.3]
    } else {
        &[0.1, 0.2, 0.3]
    };
    let cl = CacheLineSize::B128;
    let mut group = Vec::new();
    for &r in rs {
        group.push(mesh_latency_series(
            scale,
            format!("Mesh, R={r}"),
            BufferRegime::CacheLine,
            cl,
            wl(r, 4),
        ));
        group.push(ring_latency_series(
            scale,
            format!("Ring, R={r}"),
            1,
            cl,
            wl(r, 4),
        ));
    }
    vec![(
        "128B cache line (C=0.04, T=4), mesh cl-sized buffers".into(),
        group,
    )]
}

/// Figures 19 and 20: 3-level hierarchies with normal vs double-speed
/// global rings — latency and global-ring utilization. Paper
/// expectation: a 2× global ring sustains 5 second-level rings instead
/// of 3 (180/120/90/60 PMs) and its utilization grows more linearly.
pub fn fig19_20(scale: Scale) -> (FigureData, FigureData) {
    let line_sizes = if scale.quick {
        vec![CacheLineSize::B32, CacheLineSize::B128]
    } else {
        vec![CacheLineSize::B32, CacheLineSize::B64, CacheLineSize::B128]
    };
    let mut latency_group = Vec::new();
    let mut util_group = Vec::new();
    for cl in line_sizes {
        for (speedup, name) in [(2u32, "double speed"), (1, "normal speed")] {
            let m = single_ring_max(cl);
            let top = if speedup == 2 { 6 } else { 4 };
            let mut points = Vec::new();
            for j in 2..=top {
                let p = j * 3 * m;
                if p <= scale.max_pms.max(60) {
                    let spec = RingSpec::new(vec![j, 3, m]).expect("valid spec");
                    points.push((f64::from(p), ring_cfg(scale, spec, speedup, cl, wl(1.0, 4))));
                }
            }
            if points.is_empty() {
                continue;
            }
            let results = run_points(points);
            latency_group.push(series_of(
                format!("{cl} cache line, {name}"),
                &results,
                latency,
            ));
            util_group.push(series_of(
                format!("{cl} cache line, {name}"),
                &results,
                |r| 100.0 * r.utilization.level("global ring").unwrap_or(0.0),
            ));
        }
    }
    (
        vec![(
            "3-level rings, normal vs double-speed global ring (R=1.0, C=0.04, T=4)".into(),
            latency_group,
        )],
        vec![(
            "global ring utilization %, normal vs double speed (R=1.0, C=0.04, T=4)".into(),
            util_group,
        )],
    )
}

/// Figure 21: mesh (4-flit buffers) vs 3-level rings with double-speed
/// global rings, no locality. Paper expectation: 128-byte-line rings
/// win by 10–20%; for 32/64-byte lines cross-overs are unchanged since
/// they occur before a third level is needed.
pub fn fig21(scale: Scale) -> FigureData {
    let line_sizes = if scale.quick {
        vec![CacheLineSize::B32, CacheLineSize::B128]
    } else {
        vec![CacheLineSize::B32, CacheLineSize::B64, CacheLineSize::B128]
    };
    let mut group = Vec::new();
    for cl in line_sizes {
        group.push(mesh_latency_series(
            scale,
            format!("Mesh, cl={cl}"),
            BufferRegime::FourFlit,
            cl,
            wl(1.0, 4),
        ));
        group.push(ring_latency_series(
            scale,
            format!("Ring, cl={cl}"),
            2,
            cl,
            wl(1.0, 4),
        ));
    }
    vec![(
        "mesh vs double-speed-global rings (R=1.0, C=0.04, T=4)".into(),
        group,
    )]
}

/// The spec strings of the crossover study, one curve per registered
/// topology at matched PM counts: `p = (2g)²` gives a `2g × 2g` mesh
/// and a `g × g` hybrid of 4-PM rings; the rings take their Table-2
/// optimal hierarchy at the same `p`. Split out from [`fig_crossover`]
/// so tests can pin the registry round-trip without running sweeps.
pub fn crossover_specs(scale: Scale) -> Vec<(&'static str, Vec<(u32, String)>)> {
    let cl = CacheLineSize::B64;
    let pms: Vec<u32> = [16u32, 36, 64, 100, 144]
        .into_iter()
        .filter(|&p| p <= scale.max_pms.max(36))
        .collect();
    let rings = |prefix: &str| -> Vec<(u32, String)> {
        pms.iter()
            .filter_map(|&p| best_spec(p, cl, None).map(|s| (p, format!("{prefix}:{s}"))))
            .collect()
    };
    vec![
        ("Ring", rings("ring")),
        ("Slotted", rings("slotted")),
        (
            "Mesh",
            pms.iter()
                .map(|&p| (p, format!("mesh:{}", (f64::from(p)).sqrt() as u32)))
                .collect(),
        ),
        (
            "Hybrid",
            pms.iter()
                .map(|&p| {
                    let g = (f64::from(p / 4)).sqrt() as u32;
                    (p, format!("hybrid:{g}x{g}:4"))
                })
                .collect(),
        ),
    ]
}

/// The Ring-Mesh crossover study (beyond the paper; the design studied
/// by the arXiv:1904.03428 line of work): uniform M-MRP latency and
/// throughput for all four registered topologies — wormhole ring,
/// slotted ring, mesh and the hybrid mesh-of-rings — at matched PM
/// counts, 64-byte lines, R=1.0, C=0.04, T=4. Every configuration is
/// built by parsing a registry spec string, so this sweep exercises
/// exactly the `--topology` path end to end.
pub fn fig_crossover(scale: Scale) -> FigureData {
    let cl = CacheLineSize::B64;
    let mut latency_group = Vec::new();
    let mut thru_group = Vec::new();
    for (label, specs) in crossover_specs(scale) {
        let points: Vec<(f64, SystemConfig)> = specs
            .into_iter()
            .map(|(p, s)| {
                let network: NetworkSpec = s.parse().expect("registry spec");
                (
                    f64::from(p),
                    SystemConfig::new(network, cl)
                        .with_workload(wl(1.0, 4))
                        .with_sim(scale.sim)
                        .with_seed(SEED),
                )
            })
            .collect();
        let results = run_points(points);
        latency_group.push(series_of(label.to_string(), &results, latency));
        thru_group.push(series_of(label.to_string(), &results, |r| r.throughput));
    }
    vec![
        (
            "ring vs slotted vs mesh vs hybrid latency (64B, R=1.0, C=0.04, T=4)".into(),
            latency_group,
        ),
        (
            "ring vs slotted vs mesh vs hybrid throughput, txns/cycle (64B, R=1.0, C=0.04, T=4)"
                .into(),
            thru_group,
        ),
    ]
}

/// Ablation studies on the reproduction's design decisions (see
/// DESIGN.md "Model fidelity notes").
fn print_ablations(scale: Scale) {
    println!("{}", ablations::ablation_iri_queue(scale));
    println!("{}", ablations::ablation_memory_latency(scale));
    println!("{}", ablations::ablation_mesh_out_queue(scale));
    let t = Table::from_series(
        "Ablation: miss-interval process (latency vs T)",
        "T",
        &ablations::ablation_miss_process(scale),
    );
    println!("{t}");
}

/// Extension: wormhole vs slotted ring switching (the comparison of the
/// authors' companion paper, IEICE Trans. 1996 — reference [21] —
/// finding slotted rings perform somewhat better).
fn ext_slotted(scale: Scale) {
    let mut series = Vec::new();
    for cl in [CacheLineSize::B32, CacheLineSize::B128] {
        for slotted in [false, true] {
            let name = if slotted { "slotted" } else { "wormhole" };
            let mut s = Series::new(format!("{cl} {name}"));
            for spec_str in ["2:6", "3:6", "2:3:6", "3:3:6", "2:3:3:6"] {
                let spec: RingSpec = spec_str.parse().expect("valid");
                let p = spec.num_pms();
                if p > scale.max_pms.max(60) {
                    continue;
                }
                let network = if slotted {
                    NetworkSpec::SlottedRing { spec }
                } else {
                    NetworkSpec::ring(spec)
                };
                let cfg = SystemConfig::new(network, cl)
                    .with_workload(WorkloadParams::paper_baseline())
                    .with_sim(scale.sim);
                match run_config(cfg) {
                    Ok(r) => s.push(f64::from(p), r.mean_latency()),
                    Err(e) => eprintln!("warning: {spec_str} {name}: {e}"),
                }
            }
            series.push(s);
        }
    }
    println!(
        "{}",
        Table::from_series(
            "Extension: wormhole vs slotted hierarchical rings (R=1.0, C=0.04, T=4)",
            "nodes",
            &series
        )
    );
}

/// Extension: hot-spot traffic (not in the paper). A fraction of every
/// processor's misses targets one PM — a lock or shared work queue —
/// which stresses the two topologies very differently: the mesh
/// serializes at the hot node's links, while the ring's hot local ring
/// congests its whole subtree.
fn ext_hotspot(scale: Scale) {
    let cl = CacheLineSize::B64;
    let mut series = Vec::new();
    for (label, network) in [
        (
            "ring 2:3:6",
            NetworkSpec::ring("2:3:6".parse().expect("valid")),
        ),
        ("mesh 6x6", NetworkSpec::mesh(6)),
    ] {
        let mut s = Series::new(label);
        for hot in [0.0, 0.05, 0.1, 0.2, 0.4] {
            let mut w = WorkloadParams::paper_baseline();
            if hot > 0.0 {
                w = w.with_hot_spot(0, hot);
            }
            let cfg = SystemConfig::new(network.clone(), cl)
                .with_workload(w)
                .with_sim(scale.sim);
            match run_config(cfg) {
                Ok(r) => s.push(hot, r.mean_latency()),
                Err(e) => eprintln!("warning: {label} hot={hot}: {e}"),
            }
        }
        series.push(s);
    }
    println!(
        "{}",
        Table::from_series(
            "Extension: hot-spot sensitivity, 36 PMs, 64B lines (R=1.0, C=0.04, T=4)",
            "hot-spot fraction",
            &series
        )
    );
}

/// Prints a figure's groups as aligned tables, with cross-over points
/// for Ring/Mesh comparison groups. If the `RINGMESH_CSV_DIR`
/// environment variable names a directory, each group is also written
/// there as a CSV file (for plotting).
fn print_figure(name: &str, data: &FigureData) {
    println!("==== {name} ====");
    for (i, (title, series)) in data.iter().enumerate() {
        let table = Table::from_series(title.clone(), "nodes", series);
        if let Ok(dir) = std::env::var("RINGMESH_CSV_DIR") {
            let slug: String = name
                .split(':')
                .next()
                .unwrap_or(name)
                .chars()
                .map(|c| {
                    if c.is_alphanumeric() {
                        c.to_ascii_lowercase()
                    } else {
                        '_'
                    }
                })
                .collect();
            let path = std::path::Path::new(&dir).join(format!("{slug}_{i}.csv"));
            if let Err(e) =
                std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, table.to_csv()))
            {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
        println!("{table}");
        // Report ring-vs-mesh cross-overs when both curves exist.
        for s in series.iter() {
            if let Some(rest) = s.label.strip_prefix("Mesh") {
                let ring_label = format!("Ring{rest}");
                if let Some(ring) = series.iter().find(|r| r.label == ring_label) {
                    match ring.crossover_with(s) {
                        Some(x) => println!(
                            "  cross-over ({}): {:.0} nodes",
                            rest.trim_start_matches(", "),
                            x
                        ),
                        None => println!(
                            "  cross-over ({}): none in range",
                            rest.trim_start_matches(", ")
                        ),
                    }
                }
            }
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_values() {
        let t = table1();
        // Ring 128B row ends with 144 bytes; mesh 128B row: 576/64/16.
        let ring128 = &t.rows[3];
        assert_eq!(ring128[2], "144");
        let mesh128 = &t.rows[7];
        assert_eq!(
            &mesh128[2..],
            &["576".to_string(), "64".into(), "16".into()]
        );
    }

    #[test]
    fn table2_overview_has_all_rows() {
        let t = table2_overview();
        assert_eq!(t.rows.len(), 10);
        assert_eq!(t.rows[9][0], "108");
        assert_eq!(t.rows[9][1], "3:3:12");
    }

    #[test]
    fn crossover_specs_are_matched_and_round_trip() {
        for (label, specs) in crossover_specs(Scale::full()) {
            assert!(!specs.is_empty(), "{label} curve has points");
            for (p, s) in specs {
                let net: NetworkSpec = s.parse().unwrap_or_else(|e| panic!("{label} {s}: {e}"));
                assert_eq!(net.num_pms(), p, "{label} {s}");
                assert_eq!(net.to_string(), s, "{label} spec must be canonical");
            }
        }
        // Every curve covers the same matched sizes (the rings can
        // only drop a point if no hierarchy exists, which would skew
        // the comparison silently — refuse that here).
        let sizes: Vec<Vec<u32>> = crossover_specs(Scale::full())
            .into_iter()
            .map(|(_, v)| v.into_iter().map(|(p, _)| p).collect())
            .collect();
        assert!(sizes.windows(2).all(|w| w[0] == w[1]), "{sizes:?}");
    }

    #[test]
    fn registry_names_are_unique_and_in_design_order() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), 23);
        assert_eq!(&names[..3], ["table1", "table2", "fig06"]);
        assert_eq!(
            &names[17..],
            [
                "fig21",
                "crossover",
                "ablations",
                "slotted",
                "hotspot",
                RECORD_ROW
            ]
        );
        for (i, n) in names.iter().enumerate() {
            assert!(!names[..i].contains(n), "{n} is registered twice");
        }
    }

    #[test]
    fn double_speed_ladder_sizes() {
        let l = double_speed_ladder(Scale::full(), CacheLineSize::B128);
        let sizes: Vec<u32> = l.iter().map(|&(p, _)| p).collect();
        // 128B: m=4 → 24, 36, 48, 60, 72 capped at 128.
        assert_eq!(sizes, vec![24, 36, 48, 60, 72]);
    }
}
