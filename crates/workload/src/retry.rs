//! End-to-end robustness at the processor/NIC layer: per-transaction
//! timeouts, bounded retry with exponential backoff, and accounting
//! for transactions the network dropped.
//!
//! The network itself only ever drops packets at explicit fault points
//! (see `ringmesh-faults`); it is this layer's job to notice that a
//! request or its response never came back and either reissue the
//! transaction or give it up so the processor's outstanding slot is
//! not leaked. Retries reissue under a fresh transaction id; a
//! late-arriving response to a timed-out id is counted as stale and
//! ignored rather than retired twice.

use std::collections::{HashMap, VecDeque};

use ringmesh_net::{NodeId, PacketKind};
use ringmesh_snap::{Codec, Snap, SnapError};

/// Retry/timeout knobs for the end-to-end layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Cycles a transaction may stay open before it times out.
    pub timeout: u64,
    /// Total attempts (first issue included) before giving up.
    pub max_attempts: u32,
    /// Base backoff in cycles; attempt `n` waits `backoff << (n-1)`
    /// before reissuing.
    pub backoff: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout: 1_000,
            max_attempts: 4,
            backoff: 64,
        }
    }
}

/// Counters kept by the retry layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Transactions whose deadline expired at least once.
    pub timeouts: u64,
    /// Reissues actually injected.
    pub retries: u64,
    /// Transactions abandoned after exhausting every attempt (the
    /// processor's slot is released without a latency sample).
    pub gave_up: u64,
    /// Responses that arrived for an id already timed out; ignored.
    pub stale_responses: u64,
    /// Transactions abandoned immediately because the destination
    /// node was known dead.
    pub dead_drops: u64,
}

impl RetryStats {
    /// Timeouts, retries and give-ups: the layer's own progress, which
    /// the system watchdog counts as activity.
    pub fn activity(&self) -> u64 {
        self.timeouts + self.retries + self.gave_up
    }
}

/// An open (unacknowledged) remote transaction.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct OpenTxn {
    pub pm: NodeId,
    pub dst: NodeId,
    pub kind: PacketKind,
    pub flits: u32,
    /// Cycle of the *first* issue: latency samples for retried
    /// transactions span every attempt.
    pub issued_at: u64,
    /// 1-based attempt number of the current issue.
    pub attempt: u32,
}

/// Bookkeeping for the retry layer: which transactions are open, when
/// they time out, and which are waiting out a backoff window.
#[derive(Debug)]
pub(crate) struct RetryBook {
    pub policy: RetryPolicy,
    pub stats: RetryStats,
    /// Open transactions by wire transaction id.
    pub open: HashMap<u64, OpenTxn>,
    /// Timeout deadlines `(due, txn, attempt)`; the timeout is a
    /// constant offset from a non-decreasing clock, so this stays
    /// sorted and only the front needs checking.
    pub deadlines: VecDeque<(u64, u64, u32)>,
    /// Timed-out transactions waiting out their backoff `(due, txn)`;
    /// per-attempt backoff makes due cycles non-monotone, so this is
    /// scanned linearly (it is small: at most one entry per processor
    /// outstanding slot).
    pub retry_at: Vec<(u64, OpenTxn)>,
}

impl RetryBook {
    pub(crate) fn new(policy: RetryPolicy) -> Self {
        RetryBook {
            policy,
            stats: RetryStats::default(),
            open: HashMap::new(),
            deadlines: VecDeque::new(),
            retry_at: Vec::new(),
        }
    }

    /// Records a freshly injected attempt.
    pub(crate) fn track(&mut self, txn: u64, entry: OpenTxn, now: u64) {
        self.deadlines
            .push_back((now + self.policy.timeout, txn, entry.attempt));
        self.open.insert(txn, entry);
    }

    /// Backoff window before reissuing attempt `attempt + 1`.
    pub(crate) fn backoff_until(&self, now: u64, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1).min(32);
        now + (self.policy.backoff << shift)
    }

    /// Checks a restored book of a machine of `pms` PMs: every open or
    /// backing-off transaction runs between two of its PMs, and the
    /// deadlines are in due order, as the front-only check needs.
    pub(crate) fn validate(&self, pms: usize) -> Result<(), SnapError> {
        let later = self.deadlines.iter().skip(1);
        if self.deadlines.iter().zip(later).any(|(a, b)| b.0 < a.0) {
            return Err(SnapError::Corrupt(
                "retry deadlines out of due order".into(),
            ));
        }
        let mut entries = self
            .open
            .values()
            .chain(self.retry_at.iter().map(|(_, e)| e));
        match entries.find(|e| e.pm.index() >= pms || e.dst.index() >= pms) {
            Some(e) => Err(SnapError::Corrupt(format!(
                "retry entry {} -> {} on {pms} PMs",
                e.pm, e.dst
            ))),
            None => Ok(()),
        }
    }
}

impl Snap for RetryStats {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        self.timeouts.snap(c)?;
        self.retries.snap(c)?;
        self.gave_up.snap(c)?;
        self.stale_responses.snap(c)?;
        self.dead_drops.snap(c)
    }
}

impl Snap for OpenTxn {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        self.pm.snap(c)?;
        self.dst.snap(c)?;
        self.kind.snap(c)?;
        self.flits.snap(c)?;
        self.issued_at.snap(c)?;
        self.attempt.snap(c)
    }
}

impl Snap for RetryBook {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        c.exact(self.policy.timeout, "retry timeout")?;
        c.exact(self.policy.max_attempts, "retry attempts")?;
        c.exact(self.policy.backoff, "retry backoff")?;
        self.stats.snap(c)?;
        // The open map is serialized sorted by transaction id so the
        // snapshot bytes are deterministic despite HashMap iteration
        // order.
        let mut open: Vec<(u64, OpenTxn)> = self.open.iter().map(|(&k, &v)| (k, v)).collect();
        open.sort_unstable_by_key(|&(k, _)| k);
        open.snap(c)?;
        if c.reading() {
            self.open = open.into_iter().collect();
        }
        self.deadlines.snap(c)?;
        self.retry_at.snap(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_sane() {
        let p = RetryPolicy::default();
        assert!(p.timeout > 0 && p.max_attempts > 1 && p.backoff > 0);
    }

    #[test]
    fn backoff_doubles_per_attempt() {
        let book = RetryBook::new(RetryPolicy {
            timeout: 100,
            max_attempts: 4,
            backoff: 8,
        });
        assert_eq!(book.backoff_until(0, 1), 8);
        assert_eq!(book.backoff_until(0, 2), 16);
        assert_eq!(book.backoff_until(0, 3), 32);
        assert_eq!(book.backoff_until(1000, 1), 1008);
    }

    #[test]
    fn track_keeps_deadlines_in_push_order() {
        let mut book = RetryBook::new(RetryPolicy::default());
        let entry = OpenTxn {
            pm: NodeId::new(0),
            dst: NodeId::new(1),
            kind: PacketKind::ReadReq,
            flits: 3,
            issued_at: 0,
            attempt: 1,
        };
        book.track(1, entry, 0);
        book.track(2, entry, 5);
        assert_eq!(book.deadlines[0].1, 1);
        assert_eq!(book.deadlines[1].1, 2);
        assert!(book.deadlines[0].0 <= book.deadlines[1].0);
        assert_eq!(book.open.len(), 2);
    }

    #[test]
    fn validate_rejects_entries_off_the_machine() {
        let entry = OpenTxn {
            pm: NodeId::new(0),
            dst: NodeId::new(3),
            kind: PacketKind::ReadReq,
            flits: 1,
            issued_at: 0,
            attempt: 1,
        };
        let mut book = RetryBook::new(RetryPolicy::default());
        book.track(1, entry, 0);
        assert!(book.validate(4).is_ok());
        assert!(matches!(book.validate(3), Err(SnapError::Corrupt(_))));
        let mut book = RetryBook::new(RetryPolicy::default());
        let stray = OpenTxn {
            pm: NodeId::new(7),
            ..entry
        };
        book.retry_at.push((10, stray));
        assert!(matches!(book.validate(4), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn validate_rejects_deadlines_out_of_due_order() {
        let entry = OpenTxn {
            pm: NodeId::new(0),
            dst: NodeId::new(1),
            kind: PacketKind::ReadReq,
            flits: 1,
            issued_at: 0,
            attempt: 1,
        };
        let mut book = RetryBook::new(RetryPolicy::default());
        book.track(1, entry, 5);
        book.track(2, entry, 5);
        assert!(book.validate(2).is_ok(), "equal deadlines are in order");
        // A timeout due before the front would sit unseen behind it.
        book.deadlines.push_back((4, 3, 1));
        assert!(matches!(book.validate(2), Err(SnapError::Corrupt(_))));
    }
}
