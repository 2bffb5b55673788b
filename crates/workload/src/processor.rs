//! The processor issue model.
//!
//! Each processor generates one cache miss every `1/C` cycles. A miss
//! becomes an outstanding transaction when *issued*: handed to the NIC
//! (remote) or to the local memory (local). A processor with `T`
//! transactions outstanding blocks — generation pauses with one pending
//! reference — until a response returns (§2.4: the generation *rate* is
//! independent of the number outstanding, mimicking multiple-context
//! processors).
//!
//! A processor keeps no clock of its own. The gap to the next miss is
//! drawn the moment a reference issues, so the driver knows the cycle
//! the processor is next due and visits it only then: [`visit`] when
//! due, [`issued`] or [`refused`] with the outcome. A processor at `T`
//! *parks* until a [`retire`] wakes it; one whose NIC refused its
//! reference parks until the network reports room at its PM and the
//! driver [`wake`]s it. Either way the blocked span is counted in one
//! step at wake-up instead of one cycle at a time.
//!
//! [`visit`]: Processor::visit
//! [`issued`]: Processor::issued
//! [`refused`]: Processor::refused
//! [`retire`]: Processor::retire
//! [`wake`]: Processor::wake

use ringmesh_engine::SimRng;
use ringmesh_net::{NodeId, PacketKind};
use ringmesh_snap::{Codec, Snap, SnapError};

use crate::{HotSpot, MissProcess, Region, WorkloadParams};

/// A due-table entry, or a parked-since cycle, that is not set.
pub(crate) const IDLE: u64 = u64::MAX;

/// A reference waiting to be issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct PendingRef {
    pub dst: NodeId,
    pub kind: PacketKind,
    /// Cycle at which the reference first became eligible to issue (an
    /// outstanding slot was free) — the paper's "first issued" instant.
    /// Round-trip latency is measured from here, so waiting for a NIC
    /// queue slot counts but blocking on the `T` limit does not.
    pub issued_at: u64,
}

/// Per-processor statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcessorStats {
    /// Transactions issued (remote + local).
    pub issued: u64,
    /// Transactions completed.
    pub retired: u64,
    /// Cycles spent with a generated reference blocked from issue.
    pub blocked_cycles: u64,
}

/// The issue parameters every processor shares; the driver holds the
/// one copy.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IssueParams {
    interval: u32,
    miss_process: MissProcess,
    miss_rate: f64,
    hot_spot: Option<HotSpot>,
    pub t_limit: u32,
    read_fraction: f64,
}

impl IssueParams {
    pub(crate) fn new(params: &WorkloadParams) -> Self {
        IssueParams {
            interval: params.miss_interval(),
            miss_process: params.miss_process,
            miss_rate: params.miss_rate,
            hot_spot: params.hot_spot,
            t_limit: params.outstanding,
            read_fraction: params.read_fraction,
        }
    }
}

/// One processor of the M-MRP workload.
#[derive(Debug)]
pub struct Processor {
    pm: NodeId,
    /// Cycles to the next miss as a checkpoint holds it, counted from
    /// the next cycle to run: read when the driver builds its due
    /// table, and frozen once the PM has fail-stopped.
    countdown: u32,
    outstanding: u32,
    pending: Option<PendingRef>,
    /// The cycle this processor parked on its `T` limit or on its NIC,
    /// or [`IDLE`].
    parked_since: u64,
    region: Region,
    rng: SimRng,
    stats: ProcessorStats,
}

impl Processor {
    /// Creates the processor for `pm` with access `region` (local PM
    /// first) and an independent RNG stream.
    pub(crate) fn new(pm: NodeId, p: &IssueParams, region: Region, mut rng: SimRng) -> Self {
        debug_assert_eq!(region.nth(0), pm);
        // Stagger the first miss uniformly over one interval so the
        // deterministic generators do not fire in lock-step (which
        // would synthesize artificial burst contention).
        let first = 1 + rng.uniform_usize(p.interval as usize) as u32;
        Processor {
            pm,
            countdown: first,
            outstanding: 0,
            pending: None,
            parked_since: IDLE,
            region,
            rng,
            stats: ProcessorStats::default(),
        }
    }

    /// The PM this processor belongs to.
    pub fn pm(&self) -> NodeId {
        self.pm
    }

    /// Current outstanding transaction count.
    pub fn outstanding(&self) -> u32 {
        self.outstanding
    }

    /// Whether the processor is parked, on its `T` limit or its NIC.
    pub(crate) fn parked(&self) -> bool {
        self.parked_since != IDLE
    }

    /// Whether the processor is parked on its NIC: a reference is
    /// pending with an outstanding slot free, and only room at the NIC
    /// can let it issue. (Parked at `T`, no slot is free.)
    pub(crate) fn on_nic(&self, p: &IssueParams) -> bool {
        self.parked() && self.outstanding < p.t_limit
    }

    /// Statistics as of the start of cycle `next`: a parked span counts
    /// every cycle up to it.
    pub(crate) fn stats_at(&self, next: u64) -> ProcessorStats {
        let mut stats = self.stats;
        if self.parked() {
            stats.blocked_cycles += next - self.parked_since;
        }
        stats
    }

    /// The first cycle the processor is due, when `now` is the first
    /// cycle run since it was created or restored.
    pub(crate) fn first_due(&self, now: u64) -> u64 {
        match self.pending {
            Some(_) => now,
            None => now + u64::from(self.countdown) - 1,
        }
    }

    /// Visits the processor at a cycle it is due: draws the next
    /// reference unless one is pending, and returns it if an
    /// outstanding slot is free. At the `T` limit the processor parks
    /// instead and returns `None`. The driver must answer a reference
    /// with [`issued`](Self::issued) or [`refused`](Self::refused).
    pub(crate) fn visit(&mut self, now: u64, p: &IssueParams) -> Option<PendingRef> {
        let free = self.outstanding < p.t_limit;
        if self.pending.is_none() {
            self.pending = Some(self.generate(now, free, p));
        }
        if !free {
            self.parked_since = now;
            return None;
        }
        let want = self.pending.as_mut().expect("drawn above");
        if want.issued_at == IDLE {
            // First cycle with a free slot: the issue instant.
            want.issued_at = now;
        }
        Some(*want)
    }

    /// Marks the reference visited at `now` as issued, draws the gap to
    /// the next miss and returns the cycle that miss is due.
    pub(crate) fn issued(&mut self, now: u64, p: &IssueParams) -> u64 {
        debug_assert!(self.pending.is_some());
        self.pending = None;
        self.outstanding += 1;
        self.stats.issued += 1;
        let gap = match p.miss_process {
            MissProcess::Deterministic => p.interval,
            MissProcess::Geometric => self.rng.geometric(p.miss_rate) as u32,
        };
        now + u64::from(gap.max(1))
    }

    /// Marks the reference visited at `now` as refused by a full NIC
    /// queue: the processor parks on its NIC, blocked from `now` on,
    /// until [`wake`](Self::wake) offers the same reference again.
    pub(crate) fn refused(&mut self, now: u64) {
        debug_assert!(self.pending.is_some());
        self.parked_since = now;
    }

    /// Ends a parked span: it is counted blocked up to `at`, the cycle
    /// the processor is next due.
    pub(crate) fn wake(&mut self, at: u64) {
        debug_assert!(self.parked());
        self.stats.blocked_cycles += at - self.parked_since;
        self.parked_since = IDLE;
    }

    /// Completes one outstanding transaction. A parked processor wakes
    /// at `wake`, the cycle it is next due, and `true` tells the driver
    /// to enter that cycle.
    ///
    /// # Panics
    ///
    /// Panics if nothing is outstanding — a response delivered twice.
    pub(crate) fn retire(&mut self, wake: u64) -> bool {
        assert!(
            self.outstanding > 0,
            "retire with nothing outstanding at {}",
            self.pm
        );
        self.outstanding -= 1;
        self.stats.retired += 1;
        if !self.parked() {
            return false;
        }
        self.wake(wake);
        true
    }

    /// Fail-stops the processor at cycle `now`, when it was next due
    /// at `due`: a parked span ends, and the countdown to the next miss
    /// is frozen where the dead PM left it.
    pub(crate) fn halt(&mut self, now: u64, due: u64) {
        if self.pending.is_none() {
            self.countdown = (due - now + 1) as u32;
        }
        if self.parked() {
            self.wake(now);
        }
    }

    /// Draws the next reference: a uniform target in the access region
    /// (or the hot spot) and a read/write coin flip.
    fn generate(&mut self, now: u64, free: bool, p: &IssueParams) -> PendingRef {
        let dst = match p.hot_spot {
            Some(h) if self.rng.bernoulli(h.fraction) => NodeId::new(h.node),
            _ => self.region.nth(self.rng.uniform_usize(self.region.len())),
        };
        let kind = if self.rng.bernoulli(p.read_fraction) {
            PacketKind::ReadReq
        } else {
            PacketKind::WriteReq
        };
        PendingRef {
            dst,
            kind,
            issued_at: if free { now } else { IDLE },
        }
    }

    /// Snapshots the checkpoint record. `at` is the next cycle to run
    /// and the cycle the processor is due then, once the driver's due
    /// table is built; the record carries the countdown and the blocked
    /// cycles a processor ticked every cycle would hold, and a restore
    /// installs them. The record must fit a machine of `pms` PMs whose
    /// processors may hold `t_limit` transactions. The census learns
    /// the outstanding count.
    pub(crate) fn snap<C: Codec>(
        &mut self,
        c: &mut C,
        at: Option<(u64, u64)>,
        t_limit: u32,
        pms: usize,
    ) -> Result<(), SnapError> {
        let mut countdown = match at {
            _ if self.pending.is_some() => 0,
            Some((next, due)) if due != IDLE => (due - next + 1) as u32,
            _ => self.countdown,
        };
        let mut stats = at.map_or(self.stats, |(next, _)| self.stats_at(next));
        c.exact(self.pm.raw(), "processor PM")?;
        countdown.snap(c)?;
        self.outstanding.snap(c)?;
        c.report(|census| census.outstanding.push(self.outstanding));
        self.pending.snap(c)?;
        self.rng.snap(c)?;
        stats.snap(c)?;
        if c.reading() {
            self.countdown = countdown;
            self.stats = stats;
            self.parked_since = IDLE;
            self.validate(t_limit, pms)?;
        }
        Ok(())
    }

    /// Checks a restored record: at most `t_limit` outstanding, a
    /// pending reference is a request to one of the `pms` PMs, and a
    /// spent countdown has one.
    fn validate(&self, t_limit: u32, pms: usize) -> Result<(), SnapError> {
        let pm = self.pm.raw();
        let corrupt = |what: String| Err(SnapError::Corrupt(format!("processor {pm}: {what}")));
        if self.outstanding > t_limit {
            return corrupt(format!("{} outstanding, T = {t_limit}", self.outstanding));
        }
        match self.pending {
            Some(p) if p.dst.index() >= pms => {
                corrupt(format!("pending reference to {} of {pms} PMs", p.dst))
            }
            Some(p) if !p.kind.is_request() => {
                corrupt(format!("pending reference of kind {:?}", p.kind))
            }
            None if self.countdown == 0 => corrupt("countdown 0 with nothing pending".into()),
            _ => Ok(()),
        }
    }
}

/// Reports its issue instant, once it has one, to the census.
impl Snap for PendingRef {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        self.dst.snap(c)?;
        self.kind.snap(c)?;
        self.issued_at.snap(c)?;
        if self.issued_at != IDLE {
            c.report(|census| census.stamps.push(self.issued_at));
        }
        Ok(())
    }
}

impl Snap for ProcessorStats {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        self.issued.snap(c)?;
        self.retired.snap(c)?;
        self.blocked_cycles.snap(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Placement;

    fn params(t: u32) -> IssueParams {
        IssueParams::new(&WorkloadParams::paper_baseline().with_outstanding(t))
    }

    fn proc(region_size: u32) -> Processor {
        let line = Placement::Linear { pms: region_size };
        let region = Region::new(line, NodeId::new(0), 1.0);
        Processor::new(NodeId::new(0), &params(4), region, SimRng::from_seed(1))
    }

    /// Issues every reference the moment it is due and retires it at
    /// once, for `cycles` cycles; returns the references.
    fn issue_all(p: &mut Processor, params: &IssueParams, cycles: u64) -> Vec<PendingRef> {
        let mut due = p.first_due(0);
        let mut refs = Vec::new();
        while due < cycles {
            let want = p.visit(due, params).expect("a slot is free");
            refs.push(want);
            due = p.issued(due, params);
            assert!(!p.retire(due), "nothing was parked");
        }
        refs
    }

    #[test]
    fn generates_every_interval() {
        let mut p = proc(4);
        let refs = issue_all(&mut p, &params(4), 200);
        let gaps: Vec<u64> = refs
            .windows(2)
            .map(|w| w[1].issued_at - w[0].issued_at)
            .collect();
        assert!(!gaps.is_empty());
        assert!(gaps.iter().all(|&g| g == 25), "{gaps:?}");
        assert!(
            refs[0].issued_at < 25,
            "first miss staggered within one interval"
        );
    }

    #[test]
    fn blocks_at_t_limit_and_resumes_on_retire() {
        let t1 = params(1);
        let mut p = proc(4);
        let first = p.first_due(0);
        assert!(p.visit(first, &t1).is_some());
        let due = p.issued(first, &t1);
        // At T = 1 the next miss is drawn but cannot issue: the
        // processor parks and counts nothing until it is woken.
        assert_eq!(p.visit(due, &t1), None);
        assert!(p.parked());
        assert_eq!(p.stats_at(due + 10).blocked_cycles, 10);
        // A retire in the pre-issue phase of cycle `due + 40` wakes it
        // for that cycle: blocked for exactly the 40 cycles before it.
        let wake = due + 40;
        assert!(p.retire(wake));
        assert!(!p.parked());
        assert_eq!(p.stats_at(wake + 5).blocked_cycles, 40);
        let want = p.visit(wake, &t1).expect("slot freed");
        assert_eq!(want.issued_at, wake, "latency counts from the free slot");
        p.issued(wake, &t1);
        assert_eq!(
            p.stats_at(wake + 1),
            ProcessorStats {
                issued: 2,
                retired: 1,
                blocked_cycles: 40,
            }
        );
    }

    #[test]
    fn halting_a_parked_processor_ends_its_blocked_span() {
        let t1 = params(1);
        let mut p = proc(4);
        let first = p.first_due(0);
        p.visit(first, &t1);
        let due = p.issued(first, &t1);
        p.visit(due, &t1);
        p.halt(due + 7, IDLE);
        assert!(!p.parked());
        assert_eq!(p.stats_at(due + 100).blocked_cycles, 7);
        assert!(!p.retire(due + 100), "a dead processor never wakes");
    }

    #[test]
    fn nic_blocked_issue_retries() {
        let t4 = params(4);
        let mut p = proc(4);
        let first = p.first_due(0);
        let want = p.visit(first, &t4).unwrap();
        p.refused(first);
        assert!(p.on_nic(&t4));
        assert_eq!(p.stats_at(first + 2).blocked_cycles, 2);
        // Room at the NIC two cycles on: the same reference (same issue
        // instant) is offered again, blocked for the two cycles before.
        p.wake(first + 2);
        assert!(!p.parked());
        assert_eq!(p.visit(first + 2, &t4), Some(want));
        assert_eq!(p.issued(first + 2, &t4), first + 27);
        assert_eq!(p.stats_at(first + 3).blocked_cycles, 2);
    }

    #[test]
    fn a_processor_parked_at_t_is_not_on_its_nic() {
        let t1 = params(1);
        let mut p = proc(4);
        let first = p.first_due(0);
        p.visit(first, &t1);
        let due = p.issued(first, &t1);
        assert_eq!(p.visit(due, &t1), None);
        assert!(p.parked() && !p.on_nic(&t1));
    }

    #[test]
    fn read_fraction_roughly_honoured() {
        let mut p = proc(8);
        let refs = issue_all(&mut p, &params(4), 200_000);
        let reads = refs
            .iter()
            .filter(|r| r.kind == PacketKind::ReadReq)
            .count();
        let frac = reads as f64 / refs.len() as f64;
        assert!((frac - 0.7).abs() < 0.03, "read fraction {frac}");
    }

    #[test]
    fn targets_cover_region_uniformly() {
        let mut p = proc(4);
        let refs = issue_all(&mut p, &params(4), 400_000);
        let mut counts = [0u32; 4];
        for r in &refs {
            counts[r.dst.index()] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let frac = f64::from(c) / refs.len() as f64;
            assert!((frac - 0.25).abs() < 0.02, "target {i}: {frac}");
        }
    }

    #[test]
    #[should_panic(expected = "retire with nothing outstanding")]
    fn double_retire_panics() {
        let mut p = proc(2);
        p.retire(0);
    }
}

#[cfg(test)]
mod hot_spot_tests {
    use super::*;

    #[test]
    fn hot_spot_redirects_the_configured_fraction() {
        let params = IssueParams::new(&WorkloadParams::paper_baseline().with_hot_spot(3, 0.5));
        let region = Region::new(crate::Placement::Linear { pms: 8 }, NodeId::new(0), 1.0);
        let mut p = Processor::new(NodeId::new(0), &params, region, SimRng::from_seed(5));
        let mut hot = 0u32;
        let mut total = 0u32;
        let mut due = p.first_due(0);
        while due < 500_000 {
            let r = p.visit(due, &params).unwrap();
            if r.dst == NodeId::new(3) {
                hot += 1;
            }
            total += 1;
            due = p.issued(due, &params);
            p.retire(due);
        }
        // 50% redirected + uniform share (1/8 of the other 50%).
        let frac = f64::from(hot) / f64::from(total);
        assert!((frac - 0.5625).abs() < 0.03, "hot fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "hot-spot fraction")]
    fn invalid_hot_spot_rejected() {
        WorkloadParams::paper_baseline().with_hot_spot(0, 0.0);
    }
}
