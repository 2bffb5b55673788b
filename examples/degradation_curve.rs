//! Degradation curve: delivered throughput and effective latency as a
//! function of fault intensity, for a hierarchical ring and a mesh of
//! comparable size.
//!
//! The paper's comparison assumes a fault-free interconnect. This
//! example relaxes that assumption with the deterministic fault
//! subsystem: per-packet corruption probability is swept while the
//! end-to-end retry layer at the processors recovers what it can.
//! Delivered throughput should fall monotonically (to seed noise) as
//! the corruption rate rises, and the packet-conservation audit must
//! stay clean at every point — faults degrade service, they never
//! lose packets unaccountably.
//!
//! ```text
//! cargo run --release --example degradation_curve
//! ```

use ringmesh::{FaultConfig, FaultPlan, NetworkSpec, RunError, SimParams, System, SystemConfig};
use ringmesh_net::CacheLineSize;

fn plan(corrupt: f64, horizon: u64) -> FaultPlan {
    FaultPlan::new(FaultConfig {
        seed: 7,
        corrupt_prob: corrupt,
        link_down_events: 0,
        link_down_cycles: 0,
        dead_nodes: 0,
        horizon,
    })
}

fn main() -> Result<(), RunError> {
    let sim = SimParams::quick();
    let networks = [NetworkSpec::ring("2:2:4".parse()?), NetworkSpec::mesh(4)];
    println!(
        "corruption sweep, retry enabled (timeout 1000, 4 attempts), {} PMs each\n",
        16
    );
    for network in networks {
        println!("{}:", network.label());
        println!(
            "  {:>9}  {:>12}  {:>12}  {:>7}  {:>8}",
            "corrupt", "thru (t/cyc)", "latency", "drops", "retries"
        );
        for corrupt in [0.0, 0.005, 0.01, 0.02, 0.05, 0.1] {
            let cfg = SystemConfig::new(network.clone(), CacheLineSize::B64).with_sim(sim);
            let report = System::new(cfg)?.run_faulty(&plan(corrupt, sim.horizon()))?;
            assert!(
                report.violation.is_none(),
                "conservation violated at corrupt={corrupt}: {:?}",
                report.violation
            );
            println!(
                "  {corrupt:>9.3}  {:>12.4}  {:>10.1}cy  {:>7}  {:>8}",
                report.result.throughput,
                report.result.mean_latency(),
                report.faults.drops.total(),
                report.retry.retries
            );
        }
        println!();
    }
    println!("Conservation audit clean at every point: no packet lost or duplicated");
    println!("except through an accounted drop.");
    Ok(())
}
