//! Hierarchical uni-directional ring network model for the `ringmesh`
//! simulator (§2.1, §3 and §6 of Ravindran & Stumm, HPCA 1997).
//!
//! A hierarchical ring system connects processing modules to *local*
//! rings through Network Interface Controllers (NICs), and rings of
//! adjacent levels through Inter-Ring Interfaces (IRIs) modelled as
//! 2×2 crossbars. Packets are wormhole switched: variable-size flit
//! trains whose head acquires links and buffers and whose tail frees
//! them, with registered stop/go back-pressure.
//!
//! * [`RingSpec`]/[`RingTopology`] — the `2:3:4`-style hierarchy
//!   descriptions of the paper's Table 2 and their expansion into a
//!   station graph.
//! * [`RingConfig`] — IRI queue sizing and the §6 double-speed global
//!   ring option; the fixed sizes are constants beside it.
//! * [`RingNetwork`] — the cycle-accurate simulator; implements
//!   [`ringmesh_net::Interconnect`].
//!
//! # Example
//!
//! ```
//! use ringmesh_net::{CacheLineSize, Interconnect};
//! use ringmesh_ring::{RingConfig, RingNetwork, RingSpec};
//!
//! // The paper's optimal 24-processor topology for 128-byte lines.
//! let spec: RingSpec = "2:3:4".parse()?;
//! let net = RingNetwork::new(&spec, RingConfig::new(CacheLineSize::B128));
//! assert_eq!(net.num_pms(), 24);
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod iri;
mod network;
mod nic;
mod slotted;
mod station;
mod tier;
pub mod topology;

pub use config::{RingConfig, CONVOY_THRESHOLD_PACKETS, OUT_QUEUE_PACKETS, RING_BUFFER_PACKETS};
pub use network::RingNetwork;
pub use slotted::SlottedRingNetwork;
pub use topology::{RingAction, RingSpec, RingTopology, StationKind};

/// The ring tier, re-exported for the hybrid ring-mesh network
/// (`ringmesh-hybrid`), whose local rings are the same NIC/IRI stations
/// this crate's own network steps: a [`StationMap`](kernel::StationMap)
/// of its own, one [`RingTier`](kernel::RingTier), and the IRI's
/// crossing queues for its bridge pumps. Semver-exempt plumbing, not a
/// stable API — everything here mirrors internal structure.
#[doc(hidden)]
pub mod kernel {
    pub use crate::iri::Iri;
    pub use crate::station::StepPulse;
    pub use crate::tier::{RingTier, StationMap};
}
