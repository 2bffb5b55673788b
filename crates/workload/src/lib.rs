//! The Multiprocessor Memory Reference Pattern (M-MRP) synthetic
//! workload of §2.4 of Ravindran & Stumm (HPCA 1997), after Saavedra's
//! micro-benchmark methodology.
//!
//! An M-MRP is a set of `P` uniprocessor reference streams, one per
//! processor, characterized by three attributes:
//!
//! * `R` — the fraction of the machine each processor's access region
//!   covers ([`Region`] is the per-network "closest PM" order,
//!   computed on demand, never stored);
//! * `C` — the cache miss rate (0.04 → one miss per 25 cycles);
//! * `T` — outstanding transactions allowed before the processor
//!   blocks (models prefetching / multithreading).
//!
//! [`Mmrp`] drives any [`ringmesh_net::Interconnect`] with the pattern:
//! processors issue read (p = 0.7) and write requests, per-PM
//! [`MemoryModule`]s return responses after a fixed access latency, and
//! completed round-trips are reported as latency samples.
//!
//! # Example
//!
//! ```
//! use ringmesh_net::{CacheLineSize, Interconnect, PacketFormat};
//! use ringmesh_ring::{RingConfig, RingNetwork, RingSpec};
//! use ringmesh_workload::{MemoryParams, Mmrp, PacketSizer, Placement, WorkloadParams};
//!
//! let mut net = RingNetwork::new(&RingSpec::single(4), RingConfig::new(CacheLineSize::B32));
//! let mut wl = Mmrp::new(
//!     Placement::Linear { pms: 4 },
//!     WorkloadParams::paper_baseline(),
//!     MemoryParams::default(),
//!     PacketSizer { format: PacketFormat::RING, cache_line: CacheLineSize::B32 },
//!     42,
//! );
//! let (mut delivered, mut samples) = (Vec::new(), Vec::new());
//! for _ in 0..500 {
//!     let now = net.cycle();
//!     wl.pre_cycle(&mut net, now, &mut samples);
//!     delivered.clear();
//!     net.step(&mut delivered).unwrap();
//!     let after = net.cycle();
//!     wl.post_cycle(&mut net, &delivered, after, &mut samples);
//! }
//! assert!(!samples.is_empty(), "transactions completed");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calendar;
mod driver;
mod memory;
#[cfg(test)]
mod oracle;
mod params;
mod processor;
mod region;
mod retry;

pub use driver::{Mmrp, MmrpStats};
pub use memory::MemoryModule;
pub use params::{HotSpot, MemoryParams, MissProcess, PacketSizer, WorkloadParams};
pub use processor::{Processor, ProcessorStats};
pub use region::{Placement, Region};
pub use retry::{RetryPolicy, RetryStats};
