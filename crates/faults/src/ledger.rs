//! The packet-conservation checker.
//!
//! Every packet a network accepts must end exactly one way: delivered,
//! explicitly dropped, or still in flight when the run stops. The
//! ledger proves this with three counters — and, when tracking is on,
//! an exact per-slot live set that catches duplication and loss at the
//! moment they happen rather than at the end-of-run audit.
//!
//! Counter updates are three integer increments per packet, so the
//! counters are always on. Per-slot tracking costs a hash insert and
//! remove per packet; the networks enable it under `debug_assertions`
//! and via the release-mode `--check` flag.

use std::collections::HashSet;
use std::fmt;

use ringmesh_snap::{Codec, Snap, SnapError};

/// A violated conservation invariant.
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
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for ConservationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "conservation violated: {} (injected={} delivered={} dropped={} in_flight={})",
            self.detail, self.injected, self.delivered, self.dropped, self.in_flight
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
    track: bool,
    live: HashSet<usize>,
    /// First per-slot violation observed, if any; sticky so the
    /// end-of-run audit reports it even in release builds.
    violation: Option<String>,
}

impl ConservationLedger {
    /// Creates a ledger; `track` enables the exact per-slot live set.
    pub fn new(track: bool) -> Self {
        ConservationLedger {
            track,
            ..ConservationLedger::default()
        }
    }

    /// Turns per-slot tracking on or off.
    ///
    /// Only meaningful while no packets are in flight: enabling
    /// tracking mid-run would miss live slots.
    pub fn set_tracking(&mut self, track: bool) {
        debug_assert!(
            self.injected == self.delivered + self.dropped,
            "tracking toggled with packets in flight"
        );
        self.track = track;
    }

    /// Whether per-slot tracking is on.
    pub fn tracking(&self) -> bool {
        self.track
    }

    /// Records a packet entering the network in store slot `slot`.
    pub fn inject(&mut self, slot: usize) {
        self.injected += 1;
        if self.track && !self.live.insert(slot) {
            self.flag(format!("slot {slot} injected while already live"));
        }
    }

    /// Records a packet leaving the network from `slot`; `dropped`
    /// distinguishes an explicit drop from an intact delivery.
    pub fn complete(&mut self, slot: usize, dropped: bool) {
        if dropped {
            self.dropped += 1;
        } else {
            self.delivered += 1;
        }
        if self.track && !self.live.remove(&slot) {
            self.flag(format!("slot {slot} completed but was not live"));
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
        let err = |detail: String| ConservationError {
            injected: self.injected,
            delivered: self.delivered,
            dropped: self.dropped,
            in_flight,
            detail,
        };
        if let Some(v) = &self.violation {
            return Err(err(v.clone()));
        }
        if self.injected != self.delivered + self.dropped + in_flight {
            return Err(err("counter identity broken".to_string()));
        }
        if self.track && self.live.len() as u64 != in_flight {
            return Err(err(format!(
                "live set holds {} slots, network reports {}",
                self.live.len(),
                in_flight
            )));
        }
        Ok(())
    }

    fn flag(&mut self, detail: String) {
        debug_assert!(false, "{detail}");
        if self.violation.is_none() {
            self.violation = Some(detail);
        }
    }
}

impl Snap for ConservationLedger {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        self.injected.snap(c)?;
        self.delivered.snap(c)?;
        self.dropped.snap(c)?;
        self.track.snap(c)?;
        // The live set iterates in hash order; sort so equal ledgers
        // always produce byte-identical snapshots.
        let mut live: Vec<usize> = self.live.iter().copied().collect();
        live.sort_unstable();
        live.snap(c)?;
        if c.reading() {
            self.live = live.into_iter().collect();
        }
        self.violation.snap(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_lifecycle_verifies() {
        let mut l = ConservationLedger::new(true);
        l.inject(0);
        l.inject(1);
        l.complete(0, false);
        l.verify(1).expect("one in flight");
        l.complete(1, true);
        l.verify(0).expect("all accounted for");
        assert_eq!(l.counts(), (2, 1, 1));
    }

    #[test]
    fn refusal_keeps_the_identity() {
        let mut l = ConservationLedger::new(true);
        l.refuse();
        l.verify(0).expect("refusal is injected+dropped");
        assert_eq!(l.counts(), (1, 0, 1));
    }

    #[test]
    fn lost_packet_detected() {
        let mut l = ConservationLedger::new(false);
        l.inject(0);
        let e = l.verify(0).expect_err("packet vanished");
        assert!(e.detail.contains("identity"), "{e}");
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "not live"))]
    fn duplicate_completion_detected() {
        let mut l = ConservationLedger::new(true);
        l.inject(3);
        l.complete(3, false);
        l.complete(3, false);
        // Release builds reach here; the sticky violation must report.
        assert!(l.verify(0).is_err());
    }

    #[test]
    fn slot_reuse_is_fine() {
        let mut l = ConservationLedger::new(true);
        for _ in 0..5 {
            l.inject(2);
            l.complete(2, false);
        }
        l.verify(0).expect("slot reuse is the store's normal mode");
    }
}
