//! `ringmesh` — a flit-level simulation framework comparing
//! hierarchical ring and 2-D mesh multiprocessor interconnects.
//!
//! This crate is a from-scratch reproduction of the system behind
//! *"A Performance Comparison of Hierarchical Ring- and Mesh-connected
//! Multiprocessor Networks"* (G. Ravindran and M. Stumm, HPCA 1997).
//! It ties together:
//!
//! * [`ringmesh_ring`] — hierarchical uni-directional rings (NICs,
//!   inter-ring interfaces, wormhole switching, double-speed global
//!   rings);
//! * [`ringmesh_mesh`] — square bi-directional wormhole meshes (e-cube
//!   routing, 5×5 crossbar routers, 1/4/cl-flit buffers);
//! * [`ringmesh_workload`] — the M-MRP synthetic workload (locality
//!   `R`, miss rate `C`, outstanding limit `T`);
//! * [`ringmesh_stats`] — batch-means output analysis.
//!
//! # Quick start
//!
//! ```
//! use ringmesh::{NetworkSpec, SimParams, SystemConfig, run_config};
//! use ringmesh_net::CacheLineSize;
//!
//! // Simulate the paper's optimal 24-processor ring topology…
//! let ring = SystemConfig::new(
//!     NetworkSpec::ring("2:3:4".parse().map_err(ringmesh::RunError::InvalidConfig)?),
//!     CacheLineSize::B128,
//! )
//! .with_sim(SimParams::quick());
//! // …and a 25-processor mesh with the default 4-flit buffers.
//! let mesh = SystemConfig::new(NetworkSpec::mesh(5), CacheLineSize::B128)
//!     .with_sim(SimParams::quick());
//!
//! let ring_result = run_config(ring)?;
//! let mesh_result = run_config(mesh)?;
//! println!(
//!     "ring: {:.0} cycles, mesh: {:.0} cycles",
//!     ring_result.mean_latency(),
//!     mesh_result.mean_latency()
//! );
//! # Ok::<(), ringmesh::RunError>(())
//! ```
//!
//! The [`figures`] module regenerates every table and figure of the
//! paper's evaluation; [`topologies`] encodes its Table 2 and
//! generalizes the topology-selection policy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod analytic;
mod builder;
mod config;
mod exit;
pub mod figures;
mod sweep;
mod system;
pub mod topologies;
pub mod work;

pub use config::{NetworkSpec, SimParams, SystemConfig, DEFAULT_SEED};
pub use exit::ExitStatus;
pub use ringmesh_engine::{AdmissionGate, StopFlag, WorkerPool};
pub use ringmesh_faults::{ConservationError, DropCounts, FaultConfig, FaultReport};
pub use ringmesh_snap::SnapError;
pub use ringmesh_trace::{TraceConfig, TraceReport};
pub use ringmesh_workload::{RetryPolicy, RetryStats};
pub use sweep::{run_points, run_points_with, run_series, run_series_with, series_of, Scale};
pub use system::{run_config, FaultPlan, FaultRunReport, RunError, RunResult, RunState, System};

// Inert: only the frozen `benchmark/` harness calls this.
#[doc(hidden)]
pub fn set_kernel_threads(_threads: usize) {}
