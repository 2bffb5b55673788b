//! The packet-conservation checker.
//!
//! Every packet a network accepts must end exactly one way: delivered,
//! explicitly dropped, or still in flight when the run stops. The
//! ledger proves this with three counters, checked against the
//! in-flight count of the packet store, which is the one record of
//! which packets are live. Updating them is one integer increment per
//! event, so the counters are always on.

use std::fmt;

use ringmesh_snap::{Codec, Snap, SnapError};

/// A broken counter identity: `injected != delivered + dropped +
/// in_flight`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConservationError {
    /// Packets accepted (including injection-time refusals).
    pub injected: u64,
    /// Packets delivered intact.
    pub delivered: u64,
    /// Packets explicitly dropped.
    pub dropped: u64,
    /// In-flight count the network reported at verification.
    pub in_flight: u64,
}

impl fmt::Display for ConservationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "conservation violated: counter identity broken (injected={} delivered={} dropped={} in_flight={})",
            self.injected, self.delivered, self.dropped, self.in_flight
        )
    }
}

impl std::error::Error for ConservationError {}

/// Tracks packet conservation for one network.
#[derive(Debug, Clone, Default)]
pub struct ConservationLedger {
    injected: u64,
    delivered: u64,
    dropped: u64,
}

impl ConservationLedger {
    /// Records a packet entering the network.
    pub fn inject(&mut self) {
        self.injected += 1;
    }

    /// Records a packet leaving the network; `dropped` distinguishes an
    /// explicit drop from an intact delivery.
    pub fn complete(&mut self, dropped: bool) {
        if dropped {
            self.dropped += 1;
        } else {
            self.delivered += 1;
        }
    }

    /// Records an injection-time refusal: the packet never entered the
    /// store, so it counts as injected *and* dropped atomically.
    pub fn refuse(&mut self) {
        self.injected += 1;
        self.dropped += 1;
    }

    /// `(injected, delivered, dropped)` counters.
    pub fn counts(&self) -> (u64, u64, u64) {
        (self.injected, self.delivered, self.dropped)
    }

    /// Audits the ledger against the network's reported in-flight
    /// packet count.
    pub fn verify(&self, in_flight: u64) -> Result<(), ConservationError> {
        if self.injected == self.delivered + self.dropped + in_flight {
            return Ok(());
        }
        Err(ConservationError {
            injected: self.injected,
            delivered: self.delivered,
            dropped: self.dropped,
            in_flight,
        })
    }
}

impl Snap for ConservationLedger {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        self.injected.snap(c)?;
        self.delivered.snap(c)?;
        self.dropped.snap(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_lifecycle_verifies() {
        let mut l = ConservationLedger::default();
        l.inject();
        l.inject();
        l.complete(false);
        l.verify(1).expect("one in flight");
        l.complete(true);
        l.verify(0).expect("all accounted for");
        assert_eq!(l.counts(), (2, 1, 1));
    }

    #[test]
    fn refusal_keeps_the_identity() {
        let mut l = ConservationLedger::default();
        l.refuse();
        l.verify(0).expect("refusal is injected+dropped");
        assert_eq!(l.counts(), (1, 0, 1));
    }

    #[test]
    fn lost_packet_detected() {
        let mut l = ConservationLedger::default();
        l.inject();
        let e = l.verify(0).expect_err("packet vanished");
        assert!(e.to_string().contains("identity"), "{e}");
    }
}
