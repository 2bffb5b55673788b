//! Hybrid Ring-Mesh network model for the `ringmesh` simulator.
//!
//! The source paper (Ravindran & Stumm, HPCA 1997) compares
//! hierarchical rings against meshes; its follow-up line of work
//! (arXiv:1904.03428) studies the *hybrid*: local rings for the
//! cheap, low-latency neighbourhood traffic, joined by a global 2-D
//! mesh that sidesteps the hierarchy's root-ring bottleneck. This
//! crate assembles that network out of the two existing kernels —
//! the local rings are a `RingTier` of `ringmesh-ring`, the same
//! NIC/IRI stations its hierarchical ring steps, and the global mesh
//! steps the same e-cube router kernel as `ringmesh-mesh` — glued by
//! one *bridge* station per mesh router. Both tiers are sized by the
//! cache line alone, the rings exactly as `RingConfig::new` sizes the
//! hierarchical ring's.
//!
//! * [`HybridNetwork`] — the cycle-accurate simulator; implements
//!   [`ringmesh_net::Interconnect`].
//!
//! # Example
//!
//! ```
//! use ringmesh_net::{CacheLineSize, Interconnect};
//! use ringmesh_hybrid::HybridNetwork;
//!
//! // A 4×4 global mesh of 4-PM local rings: `hybrid:4x4:4`.
//! let net = HybridNetwork::new(4, 4, CacheLineSize::B128)?;
//! assert_eq!(net.num_pms(), 64);
//! # Ok::<(), ringmesh_net::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod network;

pub use network::HybridNetwork;
