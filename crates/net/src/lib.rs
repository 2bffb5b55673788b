//! Network-neutral wormhole-switching primitives shared by the
//! hierarchical-ring and mesh models of the `ringmesh` simulator.
//!
//! The paper (Ravindran & Stumm, HPCA 1997) models both networks at the
//! flit level with wormhole switching: a packet is a contiguous train of
//! flits; the head flit acquires links and buffer slots, the tail flit
//! releases them, and a blocked packet stalls in place with back-pressure
//! to its upstream node. This crate provides the pieces common to both
//! network models:
//!
//! * [`CacheLineSize`], [`PacketFormat`], [`BufferRegime`] — the sizing
//!   rules of §2 of the paper (128-bit ring flits vs 32-bit mesh flits,
//!   1-flit vs 4-flit ring/mesh headers, 1/4/cache-line-sized buffers)
//!   including the Table 1 buffer-memory arithmetic.
//! * [`Packet`], [`PacketKind`], [`Flit`], [`PacketStore`] — the four
//!   simulated packet types and their in-flight flit representation;
//!   [`PackedFlit`], a flit in four bytes for the mesh's buffers.
//! * [`FlitFifo`], [`PacketQueue`], [`DrainState`], [`Assembler`] — the
//!   FIFO buffers from which every NIC and inter-ring interface is
//!   assembled, with the registered (previous-cycle) stop/go flow
//!   control discipline baked in.
//! * [`Interconnect`], [`NetCore`] — the one trait through which the
//!   workload drives every network interchangeably, and the packet
//!   accounting, clock, tracer, fault and checkpoint plumbing it is
//!   provided over: a model supplies its buffers, stepping and its
//!   `Snap` section, the trait supplies admission, the cycle and the
//!   accessors, and [`snap_network`] the checkpoint frame.
//!
//! # Example
//!
//! ```
//! use ringmesh_net::{CacheLineSize, PacketFormat, PacketKind};
//!
//! // A 64-byte-line read response on the 128-bit ring is 1 header
//! // flit + 4 data flits; on the 32-bit mesh it is 4 + 16 flits.
//! let cl = CacheLineSize::B64;
//! assert_eq!(PacketFormat::RING.flits(PacketKind::ReadResp, cl), 5);
//! assert_eq!(PacketFormat::MESH.flits(PacketKind::ReadResp, cl), 20);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
mod census;
mod config;
mod error;
mod interconnect;
mod netcore;
mod packet;
mod topology;

pub use buffer::{Assembler, DrainState, FifoBank, FlitFifo, PacketQueue};
pub use census::{census, check_workload};
pub use config::{
    mesh_nic_buffer_bytes, ring_nic_buffer_bytes, BufferRegime, CacheLineSize, PacketFormat,
};
pub use error::ConfigError;
pub use interconnect::{LevelUtil, QueueClass, UtilizationReport};
pub use netcore::{snap_network, Interconnect, NetCore};
pub use packet::{Flit, NodeId, PackedFlit, Packet, PacketKind, PacketRef, PacketStore, TxnId};
pub use topology::{checked_pms, Placement, MAX_PMS};
