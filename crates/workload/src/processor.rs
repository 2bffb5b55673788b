//! The processor issue model.
//!
//! Each processor generates one cache miss every `1/C` cycles. A miss
//! becomes an outstanding transaction when *issued*: handed to the NIC
//! (remote) or to the local memory (local). A processor with `T`
//! transactions outstanding blocks — generation pauses with one pending
//! reference — until a response returns (§2.4: the generation *rate* is
//! independent of the number outstanding, mimicking multiple-context
//! processors).

use ringmesh_engine::SimRng;
use ringmesh_net::{NodeId, PacketKind};
use ringmesh_snap::{SnapError, SnapReader, SnapWriter, Snapshot, SnapshotState};

use crate::{MissProcess, Region, WorkloadParams};

/// A reference waiting to be issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// One processor of the M-MRP workload.
#[derive(Debug)]
pub struct Processor {
    pm: NodeId,
    interval: u32,
    miss_process: MissProcess,
    miss_rate: f64,
    hot_spot: Option<crate::HotSpot>,
    countdown: u32,
    t_limit: u32,
    outstanding: u32,
    pending: Option<PendingRef>,
    region: Region,
    rng: SimRng,
    read_fraction: f64,
    stats: ProcessorStats,
}

impl Processor {
    /// Creates the processor for `pm` with access `region` (local PM
    /// first) and an independent RNG stream.
    pub(crate) fn new(
        pm: NodeId,
        params: &WorkloadParams,
        region: Region,
        mut rng: SimRng,
    ) -> Self {
        debug_assert_eq!(region.nth(0), pm);
        // Stagger the first miss uniformly over one interval so the
        // deterministic generators do not fire in lock-step (which
        // would synthesize artificial burst contention).
        let first = 1 + rng.uniform_usize(params.miss_interval() as usize) as u32;
        Processor {
            pm,
            interval: params.miss_interval(),
            miss_process: params.miss_process,
            miss_rate: params.miss_rate,
            hot_spot: params.hot_spot,
            countdown: first,
            t_limit: params.outstanding,
            outstanding: 0,
            pending: None,
            region,
            rng,
            read_fraction: params.read_fraction,
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

    /// Cumulative statistics.
    pub fn stats(&self) -> ProcessorStats {
        self.stats
    }

    /// Advances the miss-generation clock one cycle and returns the
    /// reference that *wants* to issue this cycle, if any. The driver
    /// must call [`issue_succeeded`](Self::issue_succeeded) or
    /// [`issue_blocked`](Self::issue_blocked) with the outcome.
    pub(crate) fn tick(&mut self, now: u64) -> Option<PendingRef> {
        if self.pending.is_none() {
            if self.countdown > 0 {
                self.countdown -= 1;
            }
            if self.countdown == 0 {
                self.pending = Some(self.generate(now));
            }
        }
        match self.pending {
            Some(mut p) if self.outstanding < self.t_limit => {
                if p.issued_at == u64::MAX {
                    // First cycle with a free slot: the issue instant.
                    p.issued_at = now;
                    self.pending = Some(p);
                }
                Some(p)
            }
            Some(_) => {
                // Blocked on the T limit.
                self.stats.blocked_cycles += 1;
                None
            }
            None => None,
        }
    }

    /// Marks this cycle's reference as issued.
    pub(crate) fn issue_succeeded(&mut self) {
        debug_assert!(self.pending.is_some());
        self.pending = None;
        self.outstanding += 1;
        self.stats.issued += 1;
        self.countdown = match self.miss_process {
            MissProcess::Deterministic => self.interval,
            MissProcess::Geometric => self.rng.geometric(self.miss_rate) as u32,
        };
    }

    /// Marks this cycle's reference as blocked (NIC queue full).
    pub(crate) fn issue_blocked(&mut self) {
        debug_assert!(self.pending.is_some());
        self.stats.blocked_cycles += 1;
    }

    /// Completes one outstanding transaction.
    ///
    /// # Panics
    ///
    /// Panics if nothing is outstanding — a response delivered twice.
    pub(crate) fn retire(&mut self) {
        assert!(
            self.outstanding > 0,
            "retire with nothing outstanding at {}",
            self.pm
        );
        self.outstanding -= 1;
        self.stats.retired += 1;
    }

    /// Draws the next reference: a uniform target in the access region
    /// and a read/write coin flip.
    fn generate(&mut self, now: u64) -> PendingRef {
        let dst = match self.hot_spot {
            Some(h) if self.rng.bernoulli(h.fraction) => NodeId::new(h.node),
            _ => self.region.nth(self.rng.uniform_usize(self.region.len())),
        };
        let kind = if self.rng.bernoulli(self.read_fraction) {
            PacketKind::ReadReq
        } else {
            PacketKind::WriteReq
        };
        let issued_at = if self.outstanding < self.t_limit {
            now
        } else {
            u64::MAX
        };
        PendingRef {
            dst,
            kind,
            issued_at,
        }
    }
}

impl Snapshot for PendingRef {
    fn save(&self, w: &mut SnapWriter) {
        self.dst.save(w);
        self.kind.save(w);
        w.u64(self.issued_at);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(PendingRef {
            dst: NodeId::load(r)?,
            kind: PacketKind::load(r)?,
            issued_at: r.u64()?,
        })
    }
}

impl Snapshot for ProcessorStats {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.issued);
        w.u64(self.retired);
        w.u64(self.blocked_cycles);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(ProcessorStats {
            issued: r.u64()?,
            retired: r.u64()?,
            blocked_cycles: r.u64()?,
        })
    }
}

impl SnapshotState for Processor {
    fn save_state(&self, w: &mut SnapWriter) {
        w.u32(self.pm.raw());
        w.u32(self.countdown);
        w.u32(self.outstanding);
        self.pending.save(w);
        self.rng.save(w);
        self.stats.save(w);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let pm = r.u32()?;
        if pm != self.pm.raw() {
            return Err(SnapError::Mismatch(format!(
                "processor snapshot is for PM {pm}, restoring into PM {}",
                self.pm.raw()
            )));
        }
        self.countdown = r.u32()?;
        self.outstanding = r.u32()?;
        self.pending = Snapshot::load(r)?;
        self.rng = SimRng::load(r)?;
        self.stats = ProcessorStats::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Placement;

    fn proc(t: u32, region_size: u32) -> Processor {
        let params = WorkloadParams::paper_baseline().with_outstanding(t);
        let line = Placement::Linear { pms: region_size };
        let region = Region::new(line, NodeId::new(0), 1.0);
        Processor::new(NodeId::new(0), &params, region, SimRng::from_seed(1))
    }

    #[test]
    fn generates_every_interval() {
        let mut p = proc(4, 4);
        let mut issue_gaps = Vec::new();
        let mut last = None;
        for now in 0..200u64 {
            if p.tick(now).is_some() {
                p.issue_succeeded();
                if let Some(l) = last {
                    issue_gaps.push(now - l);
                }
                last = Some(now);
            }
        }
        assert!(!issue_gaps.is_empty());
        assert!(issue_gaps.iter().all(|&g| g == 25), "{issue_gaps:?}");
    }

    #[test]
    fn blocks_at_t_limit_and_resumes_on_retire() {
        let mut p = proc(1, 4);
        // Run to the first issue.
        let mut issued = 0;
        for now in 0..100 {
            if p.tick(now).is_some() {
                p.issue_succeeded();
                issued += 1;
                break;
            }
        }
        assert_eq!(issued, 1);
        // With T=1 outstanding, later generations must block.
        for now in 100..200 {
            assert!(p.tick(now).is_none());
        }
        assert!(p.stats().blocked_cycles > 0);
        p.retire();
        // Now the pending reference issues promptly.
        let mut resumed = false;
        for now in 200..203 {
            if p.tick(now).is_some() {
                p.issue_succeeded();
                resumed = true;
                break;
            }
        }
        assert!(resumed);
    }

    #[test]
    fn nic_blocked_issue_retries() {
        let mut p = proc(4, 4);
        let mut want = None;
        for now in 0..100 {
            if let Some(w) = p.tick(now) {
                want = Some(w);
                break;
            }
        }
        let want = want.unwrap();
        p.issue_blocked();
        // Same reference (same issue instant) is offered again next cycle.
        assert_eq!(p.tick(100), Some(want));
    }

    #[test]
    fn read_fraction_roughly_honoured() {
        let mut p = proc(4, 8);
        let mut reads = 0;
        let mut total = 0;
        for now in 0..200_000 {
            if let Some(r) = p.tick(now) {
                if r.kind == PacketKind::ReadReq {
                    reads += 1;
                }
                total += 1;
                p.issue_succeeded();
                p.retire(); // immediately complete so generation continues
            }
        }
        let frac = f64::from(reads) / f64::from(total);
        assert!((frac - 0.7).abs() < 0.03, "read fraction {frac}");
    }

    #[test]
    fn targets_cover_region_uniformly() {
        let mut p = proc(4, 4);
        let mut counts = [0u32; 4];
        for now in 0..400_000 {
            if let Some(r) = p.tick(now) {
                counts[r.dst.index()] += 1;
                p.issue_succeeded();
                p.retire();
            }
        }
        let total: u32 = counts.iter().sum();
        for (i, &c) in counts.iter().enumerate() {
            let frac = f64::from(c) / f64::from(total);
            assert!((frac - 0.25).abs() < 0.02, "target {i}: {frac}");
        }
    }

    #[test]
    #[should_panic(expected = "retire with nothing outstanding")]
    fn double_retire_panics() {
        let mut p = proc(1, 2);
        p.retire();
    }
}

#[cfg(test)]
mod hot_spot_tests {
    use super::*;

    #[test]
    fn hot_spot_redirects_the_configured_fraction() {
        let params = WorkloadParams::paper_baseline().with_hot_spot(3, 0.5);
        let region = Region::new(crate::Placement::Linear { pms: 8 }, NodeId::new(0), 1.0);
        let mut p = Processor::new(NodeId::new(0), &params, region, SimRng::from_seed(5));
        let mut hot = 0u32;
        let mut total = 0u32;
        for now in 0..500_000u64 {
            if let Some(r) = p.tick(now) {
                if r.dst == NodeId::new(3) {
                    hot += 1;
                }
                total += 1;
                p.issue_succeeded();
                p.retire();
            }
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
