//! Workspace façade for the `ringmesh` simulator suite.
//!
//! This crate exists to host the repository-level `examples/` and
//! `tests/` directories; it simply re-exports the member crates so
//! examples and integration tests can reach every layer through one
//! dependency.
//!
//! * [`ringmesh`] — the top-level simulation framework (start here).
//! * [`ringmesh_engine`] — RNG, stall watchdog, sweep worker pool.
//! * [`ringmesh_net`] — flits, packets, buffers, wormhole primitives.
//! * [`ringmesh_ring`] — hierarchical uni-directional ring networks.
//! * [`ringmesh_mesh`] — 2-D bi-directional wormhole meshes.
//! * [`ringmesh_workload`] — the M-MRP synthetic workload.
//! * [`ringmesh_stats`] — batch-means output analysis.
//! * [`ringmesh_trace`] — cycle-level observability (counters, heatmaps).
//! * [`ringmesh_faults`] — deterministic fault injection and retry.
//! * [`ringmesh_snap`] — binary state-snapshot codec and fingerprints.
//! * [`ringmesh_serve`] — sweep-job server with result cache and
//!   checkpoint/resume.
//!
//! The `ringmesh` CLI binary also lives here (`src/bin/ringmesh.rs`)
//! so it can drive every subsystem, including `ringmesh serve`.

#![forbid(unsafe_code)]

pub use ringmesh;
pub use ringmesh_engine;
pub use ringmesh_faults;
pub use ringmesh_mesh;
pub use ringmesh_net;
pub use ringmesh_ring;
pub use ringmesh_serve;
pub use ringmesh_snap;
pub use ringmesh_stats;
pub use ringmesh_trace;
pub use ringmesh_workload;
