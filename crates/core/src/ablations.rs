//! Ablation studies on the design decisions DESIGN.md calls out:
//! the deadlock-avoidance flow control, the memory-latency substitution
//! and the deterministic miss process. Each shows the headline results
//! are insensitive to (or explains the need for) the choice.
//!
//! Every ablation's runs are independent simulations, so they fan out
//! across the same worker pool as the figure sweeps (honouring
//! `RINGMESH_THREADS`), with results collected in input order — output
//! is identical at any thread count.

use ringmesh_engine::WorkerPool;
use ringmesh_net::CacheLineSize;
use ringmesh_ring::{RingConfig, RingNetwork};
use ringmesh_stats::{Series, Table};
use ringmesh_workload::{MemoryParams, MissProcess, WorkloadParams};

use crate::figures::{Panel, Record};
use crate::sweep::Scale;
use crate::system::System;
use crate::{NetworkSpec, SystemConfig};

/// The `ablations` row: three tables, then the miss-process curves.
pub fn record(scale: Scale) -> Record {
    let tables = [
        ablation_iri_queue,
        ablation_memory_latency,
        ablation_mesh_out_queue,
    ];
    let title = "Ablation: miss-interval process (latency vs T)";
    let curves = Panel::new(title, "T", ablation_miss_process(scale));
    Record::plain(tables.map(|f| f(scale)).into(), vec![curves])
}

/// Ablation 1 — IRI queue capacity (DESIGN.md: "elastic" inter-ring
/// queues). Reruns a bisection-saturated 3-level ring with finite
/// up/down queues of 1, 2 and 4 packets per class: the paper's literal
/// 1-packet queues deadlock (reported as `stall`), motivating the
/// elastic default.
pub fn ablation_iri_queue(scale: Scale) -> Table {
    let mut t = Table::new(
        "Ablation: IRI up/down queue capacity on a saturated 3-level ring (3:3:6, 64B, R=1.0, T=4)",
        &[
            "queue capacity (packets/class)",
            "mean latency (cycles)",
            "throughput (txn/cycle)",
        ],
    );
    let spec: ringmesh_ring::RingSpec = "3:3:6".parse().expect("valid spec");
    let caps = vec![Some(1), Some(2), Some(4), None];
    let runs = WorkerPool::from_env().map(caps, |_, cap| {
        let mut rc = RingConfig::new(CacheLineSize::B64);
        rc.iri_queue_packets = cap;
        // Trip the watchdog quickly so deadlocked configurations report
        // as stalls instead of silently measuring nothing.
        rc.watchdog_horizon = 2_000;
        let cfg = SystemConfig::new(NetworkSpec::ring(spec.clone()), CacheLineSize::B64)
            .with_sim(scale.sim);
        let net = RingNetwork::new(&spec, rc);
        (
            cap,
            System::with_network(cfg, Box::new(net)).and_then(System::run),
        )
    });
    for (cap, run) in runs {
        let label = cap.map_or("elastic".to_string(), |c| c.to_string());
        match run {
            Ok(r) => t.push_row(vec![
                label,
                format!("{:.1}", r.mean_latency()),
                format!("{:.3}", r.throughput),
            ]),
            Err(e) => t.push_row(vec![label, format!("stall: {e}"), "-".into()]),
        }
    }
    t
}

/// Ablation 2 — memory access latency (DESIGN.md: fixed 10-cycle
/// pipelined memory). The ring/mesh latency *difference* at the
/// cross-over size barely moves as memory latency varies, confirming
/// the substitution shifts both curves by a constant.
pub fn ablation_memory_latency(scale: Scale) -> Table {
    let mut t = Table::new(
        "Ablation: memory latency at the 36-processor, 64B cross-over point (R=1.0, T=4)",
        &["memory latency", "ring 2:3:6", "mesh 6x6", "difference"],
    );
    let rows = WorkerPool::from_env().map(vec![5u32, 10, 20, 40], |_, lat| {
        let mem = MemoryParams {
            latency: lat,
            occupancy: 1,
        };
        let run = |network: NetworkSpec| {
            let mut cfg = SystemConfig::new(network, CacheLineSize::B64).with_sim(scale.sim);
            cfg.memory = mem;
            System::new(cfg)
                .and_then(System::run)
                .map(|r| r.mean_latency())
                .unwrap_or(f64::NAN)
        };
        let ring = run(NetworkSpec::ring("2:3:6".parse().expect("valid")));
        let mesh = run(NetworkSpec::mesh(6));
        (lat, ring, mesh)
    });
    for (lat, ring, mesh) in rows {
        t.push_row(vec![
            format!("{lat}"),
            format!("{ring:.1}"),
            format!("{mesh:.1}"),
            format!("{:+.1}", ring - mesh),
        ]);
    }
    t
}

/// Ablation 3 — miss-interval process (DESIGN.md: deterministic
/// 25-cycle intervals per the paper). Geometric (memoryless) intervals
/// of the same mean add burstiness; latencies rise slightly but the
/// ring/mesh ordering is unchanged.
pub fn ablation_miss_process(scale: Scale) -> Vec<Series> {
    let mut items = Vec::new();
    for (name, process) in [
        ("deterministic", MissProcess::Deterministic),
        ("geometric", MissProcess::Geometric),
    ] {
        for (label, network) in [
            (
                "ring 2:3:6",
                NetworkSpec::ring("2:3:6".parse().expect("valid")),
            ),
            ("mesh 6x6", NetworkSpec::mesh(6)),
        ] {
            for t_limit in [1u32, 2, 4] {
                items.push((
                    format!("{label}, {name}"),
                    process,
                    network.clone(),
                    t_limit,
                ));
            }
        }
    }
    let results =
        WorkerPool::from_env().map(items, |_, (series_label, process, network, t_limit)| {
            let cfg = SystemConfig::new(network, CacheLineSize::B64)
                .with_workload(
                    WorkloadParams::paper_baseline()
                        .with_outstanding(t_limit)
                        .with_miss_process(process),
                )
                .with_sim(scale.sim);
            let latency = System::new(cfg)
                .and_then(System::run)
                .ok()
                .map(|r| r.mean_latency());
            (series_label, t_limit, latency)
        });
    // Order-preserving collection keeps each series' points contiguous.
    let mut out: Vec<Series> = Vec::new();
    for (series_label, t_limit, latency) in results {
        if out.last().is_none_or(|s| s.label != series_label) {
            out.push(Series::new(series_label));
        }
        if let Some(y) = latency {
            out.last_mut()
                .expect("just pushed")
                .push(f64::from(t_limit), y);
        }
    }
    out
}

/// Ablation 4 — mesh PM injection-queue depth (the paper assumes one
/// packet per class, as we default): deeper queues decouple the PM but
/// must not change steady-state closed-loop latency materially.
pub fn ablation_mesh_out_queue(scale: Scale) -> Table {
    let mut t = Table::new(
        "Ablation: mesh PM injection queue depth (6x6, 64B, R=1.0, T=4)",
        &["queue depth (packets/class)", "mean latency", "throughput"],
    );
    let runs = WorkerPool::from_env().map(vec![1usize, 2, 4], |_, depth| {
        let cfg = SystemConfig::new(NetworkSpec::mesh(6), CacheLineSize::B64).with_sim(scale.sim);
        // Route through the public mesh config by rebuilding manually.
        let mut mc = ringmesh_mesh::MeshConfig::new(CacheLineSize::B64);
        mc.out_queue_packets = depth;
        let net = ringmesh_mesh::MeshNetwork::new(ringmesh_mesh::MeshTopology::new(6), mc);
        (
            depth,
            System::with_network(cfg, Box::new(net)).and_then(System::run),
        )
    });
    for (depth, r) in runs {
        match r {
            Ok(r) => t.push_row(vec![
                depth.to_string(),
                format!("{:.1}", r.mean_latency()),
                format!("{:.3}", r.throughput),
            ]),
            Err(e) => t.push_row(vec![depth.to_string(), format!("stall: {e}"), "-".into()]),
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_process_ablation_produces_all_series() {
        let series = ablation_miss_process(Scale::quick());
        assert_eq!(series.len(), 4);
        assert!(series.iter().all(|s| !s.points.is_empty()));
    }

    #[test]
    fn memory_ablation_difference_is_stable() {
        let t = ablation_memory_latency(Scale::quick());
        assert_eq!(t.rows.len(), 4);
    }
}
