//! Simulation support for the `ringmesh` interconnect simulator.
//!
//! The original study (Ravindran & Stumm, HPCA 1997) built its
//! register-transfer-level simulator on MacDougall's `smpl` library.
//! The network models here are cycle-synchronous kernels with
//! registered flow control and never touch an event calendar, so what
//! they share is small:
//!
//! * [`SimRng`] — a seedable, splittable random-number source with the
//!   variate generators the workload model needs (uniform, Bernoulli,
//!   exponential, geometric).
//! * [`Watchdog`] — a progress monitor that converts a hung simulation
//!   (e.g. an undetected wormhole deadlock) into a hard error instead of
//!   an infinite loop.
//! * [`WorkerPool`] — an order-preserving fork-join pool on scoped
//!   threads, used to fan independent sweep points and serve jobs
//!   across cores while keeping results byte-identical to a serial run.
//! * [`StopFlag`] / [`AdmissionGate`] — cooperative shutdown and
//!   load-shedding admission control for services built on the simulator.
//!
//! The networks themselves (hierarchical rings, 2-D meshes) live in the
//! `ringmesh-ring` and `ringmesh-mesh` crates; workload generation lives
//! in `ringmesh-workload`.
//!
//! # Example
//!
//! ```
//! use ringmesh_engine::Watchdog;
//!
//! let mut dog = Watchdog::new(100);
//! dog.observe(0, 1, 4);
//! // 150 idle cycles with four packets still in flight: a stall.
//! for now in 1..=150 {
//!     dog.observe(now, 0, 4);
//! }
//! assert_eq!(dog.check(150).unwrap_err().last_progress, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod pool;
mod rng;
mod watchdog;

pub use admission::{AdmissionGate, Permit, StopFlag};
pub use pool::WorkerPool;
pub use rng::SimRng;
pub use watchdog::{StallError, Watchdog};

/// Simulation time, measured in clock cycles (or, for multi-rate
/// systems, in the finest-grained sub-cycle ticks).
pub type SimTime = u64;
