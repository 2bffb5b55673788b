//! Deterministic fault injection for the ringmesh networks.
//!
//! The paper's comparison assumes a fault-free interconnect; this crate
//! supplies the machinery to relax that assumption *reproducibly*. A
//! [`FaultSchedule`] is expanded from a seed and a [`FaultDomain`]
//! (how many links and routers the target network exposes) into a
//! sorted list of timed events — transient link-down intervals and
//! permanent node deaths — plus a per-packet corruption probability.
//! The same seed and domain always yield the same schedule, so every
//! faulty run can be replayed bit-for-bit.
//!
//! At run time a [`FaultInjector`] owns the expanded schedule and
//! answers the questions the networks ask each cycle: is this link up,
//! is this node dead, should this packet be marked corrupt? It also
//! accumulates drop statistics into a [`FaultReport`].
//!
//! Orthogonally, a [`ConservationLedger`] counts every packet from
//! injection to completion and checks the no-loss invariant
//! `injected == delivered + dropped + in_flight` against the in-flight
//! count of the network's packet store.
//!
//! This crate deliberately depends only on `ringmesh-engine` (for the
//! splittable RNG); links and nodes are raw `u32` indices whose meaning
//! each network defines for itself.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod injector;
mod ledger;
mod schedule;

pub use injector::{DropCounts, DropReason, FaultInjector, FaultReport};
pub use ledger::{ConservationError, ConservationLedger};
pub use schedule::{FaultConfig, FaultDomain, FaultEvent, FaultKind, FaultSchedule};
