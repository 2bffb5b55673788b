//! Progress watchdog for detecting simulation stalls.
//!
//! Wormhole-switched networks with finite buffers can, in pathological
//! configurations, deadlock. Rather than spin forever, the network
//! models report per-cycle activity to a [`Watchdog`], which raises a
//! [`StallError`] when nothing has moved for a configurable horizon
//! while work is still in flight.

use std::error::Error;
use std::fmt;

use ringmesh_snap::{Codec, Snap, SnapError};

use crate::SimTime;

/// Error raised when the simulation makes no progress for the watchdog
/// horizon while packets are still in flight — almost certainly a
/// buffer/flow-control deadlock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallError {
    /// Cycle at which the stall was detected.
    pub detected_at: SimTime,
    /// Cycle of the last observed progress.
    pub last_progress: SimTime,
    /// Number of packets in flight at detection time.
    pub in_flight: u64,
}

impl fmt::Display for StallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no network progress since cycle {} (detected at cycle {}, {} packets in flight) — probable deadlock",
            self.last_progress, self.detected_at, self.in_flight
        )
    }
}

impl Error for StallError {}

/// Tracks forward progress and detects deadlock-like stalls.
///
/// # Example
///
/// ```
/// use ringmesh_engine::Watchdog;
///
/// let mut dog = Watchdog::new(100);
/// dog.observe(0, 5, 3); // 5 flit moves, 3 packets in flight
/// assert!(dog.check(50).is_ok());
/// dog.observe(60, 0, 3); // still in flight, nothing moved
/// assert!(dog.check(161).is_err());
/// ```
#[derive(Debug, Clone)]
pub struct Watchdog {
    horizon: SimTime,
    last_progress: SimTime,
    in_flight: u64,
}

impl Watchdog {
    /// Creates a watchdog that trips after `horizon` cycles without
    /// progress. A horizon of a few thousand cycles is far beyond any
    /// legitimate wormhole stall at the system sizes studied here.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is zero.
    pub fn new(horizon: SimTime) -> Self {
        assert!(horizon > 0, "watchdog horizon must be positive");
        Watchdog {
            horizon,
            last_progress: 0,
            in_flight: 0,
        }
    }

    /// Records one cycle's activity: how many flits moved and how many
    /// packets remain in flight. Any movement — or an empty network —
    /// counts as progress.
    pub fn observe(&mut self, now: SimTime, flits_moved: u64, in_flight: u64) {
        self.in_flight = in_flight;
        if flits_moved > 0 || in_flight == 0 {
            self.last_progress = now;
        }
    }

    /// Checks for a stall at time `now`.
    ///
    /// # Errors
    ///
    /// Returns [`StallError`] if more than the horizon has elapsed since
    /// the last progress while packets are in flight.
    pub fn check(&self, now: SimTime) -> Result<(), StallError> {
        if self.in_flight > 0 && now.saturating_sub(self.last_progress) > self.horizon {
            Err(StallError {
                detected_at: now,
                last_progress: self.last_progress,
                in_flight: self.in_flight,
            })
        } else {
            Ok(())
        }
    }

    /// Cycle of the most recent observed progress.
    pub fn last_progress(&self) -> SimTime {
        self.last_progress
    }
}

impl Snap for Watchdog {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        c.exact(self.horizon, "watchdog horizon")?;
        self.last_progress.snap(c)?;
        self.in_flight.snap(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_empty_network_is_fine() {
        let mut dog = Watchdog::new(10);
        dog.observe(0, 0, 0);
        assert!(dog.check(1_000_000).is_ok());
    }

    #[test]
    fn movement_resets_horizon() {
        let mut dog = Watchdog::new(10);
        dog.observe(5, 1, 4);
        dog.observe(14, 1, 4);
        assert!(dog.check(24).is_ok());
        assert!(dog.check(25).is_err());
    }

    #[test]
    fn stall_reports_context() {
        let mut dog = Watchdog::new(10);
        dog.observe(3, 2, 7);
        dog.observe(5, 0, 7);
        let err = dog.check(20).unwrap_err();
        assert_eq!(err.last_progress, 3);
        assert_eq!(err.detected_at, 20);
        assert_eq!(err.in_flight, 7);
        assert!(err.to_string().contains("deadlock"));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_horizon_rejected() {
        Watchdog::new(0);
    }
}
