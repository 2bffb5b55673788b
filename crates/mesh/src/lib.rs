//! 2-D bi-directional mesh network model for the `ringmesh` simulator
//! (§2.2 and §4 of Ravindran & Stumm, HPCA 1997).
//!
//! Square wormhole-routed meshes with no end-around connections: each
//! node has a 5×5 crossbar router (four neighbours plus the local PM)
//! with input FIFO buffers of 1, 4 or cache-line-sized depth,
//! deterministic e-cube (dimension-order) routing and round-robin
//! output arbitration. Under the paper's constant-pin-count argument
//! the mesh channels are 32 bits wide (vs the ring's 128), so mesh
//! packets are four times longer in flits.
//!
//! * [`MeshTopology`]/[`Direction`] — grid coordinates, neighbours and
//!   the e-cube route function.
//! * [`MeshConfig`] — channel format and buffer regime.
//! * [`MeshNetwork`] — the cycle-accurate simulator; implements
//!   [`ringmesh_net::Interconnect`].
//!
//! # Example
//!
//! ```
//! use ringmesh_net::{BufferRegime, CacheLineSize, Interconnect};
//! use ringmesh_mesh::{MeshConfig, MeshNetwork, MeshTopology};
//!
//! let topo = MeshTopology::from_pms(121)?; // the paper's largest mesh
//! let cfg = MeshConfig::new(CacheLineSize::B64).with_buffers(BufferRegime::OneFlit);
//! let net = MeshNetwork::new(topo, cfg);
//! assert_eq!(net.num_pms(), 121);
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod network;
mod routers;
pub mod topology;

pub use config::{MeshConfig, WATCHDOG_HORIZON};
pub use network::MeshNetwork;
pub use topology::{Direction, MeshTopology};

/// The router kernel, re-exported for the hybrid ring-mesh network
/// (`ringmesh-hybrid`), whose global mesh steps the same
/// `MeshRouters` as [`MeshNetwork`]. Semver-exempt plumbing, not a
/// stable API — everything here mirrors internal structure.
#[doc(hidden)]
pub mod kernel {
    pub use crate::routers::{owner_coords, CommitOp, FaultCtx, MeshRouters, Send, StepWork};
}
