//! The M-MRP workload driver: wires P processors and P memory modules
//! to an [`Interconnect`] and collects round-trip latency samples.

use ringmesh_engine::SimRng;
use ringmesh_net::{Interconnect, NodeId, Packet, QueueClass, TxnId};
use ringmesh_snap::{SnapError, SnapReader, SnapWriter, Snapshot, SnapshotState};
use ringmesh_trace::{Counter, Gauge};

use crate::memory::MemoryModule;
use crate::processor::Processor;
use crate::region::{Placement, Region};
use crate::retry::{OpenTxn, RetryBook};
use crate::{MemoryParams, PacketSizer, RetryPolicy, RetryStats, WorkloadParams};

/// Aggregate workload statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MmrpStats {
    /// Transactions issued across all processors.
    pub issued: u64,
    /// Transactions completed across all processors.
    pub retired: u64,
    /// Of the retired transactions, how many were local accesses.
    pub local_retired: u64,
}

/// The Multiprocessor Memory Reference Pattern driver of §2.4.
///
/// Call [`pre_cycle`](Mmrp::pre_cycle) before each network step (it
/// injects responses and new requests) and
/// [`post_cycle`](Mmrp::post_cycle) after it (it routes deliveries to
/// memories/processors). Completed-transaction latencies are appended
/// to the `samples` vector as `(completion cycle, latency)` pairs.
#[derive(Debug)]
pub struct Mmrp {
    procs: Vec<Processor>,
    mems: Vec<MemoryModule>,
    sizer: PacketSizer,
    txn_seq: u64,
    stats: MmrpStats,
    local_scratch: Vec<u64>,
    /// End-to-end timeout/retry layer; absent (the default) the driver
    /// trusts the network never to drop, exactly as before.
    retry: Option<RetryBook>,
}

impl Mmrp {
    /// Builds the workload for `placement` with per-processor RNG
    /// streams derived from `seed`.
    pub fn new(
        placement: Placement,
        params: WorkloadParams,
        mem: MemoryParams,
        sizer: PacketSizer,
        seed: u64,
    ) -> Self {
        let p = placement.num_pms();
        let root = SimRng::from_seed(seed);
        let procs = (0..p)
            .map(|i| {
                let pm = NodeId::new(i);
                let region = Region::new(placement, pm, params.region);
                Processor::new(pm, &params, region, root.stream(u64::from(i)))
            })
            .collect();
        let mems = (0..p)
            .map(|i| MemoryModule::new(NodeId::new(i), mem, sizer))
            .collect();
        Mmrp {
            procs,
            mems,
            sizer,
            txn_seq: 0,
            stats: MmrpStats::default(),
            local_scratch: Vec::new(),
            retry: None,
        }
    }

    /// Enables the end-to-end timeout/retry layer. Without it (the
    /// default) behaviour and replay determinism are byte-identical to
    /// earlier versions; with it, remote transactions that never
    /// complete are retried under `policy` and eventually given up so
    /// processor slots are not leaked when the network drops packets.
    pub fn set_retry(&mut self, policy: RetryPolicy) {
        self.retry = Some(RetryBook::new(policy));
    }

    /// Builder form of [`set_retry`](Self::set_retry).
    #[must_use]
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.set_retry(policy);
        self
    }

    /// Retry-layer counters; zeros when the layer is disabled.
    pub fn retry_stats(&self) -> RetryStats {
        self.retry.as_ref().map(|b| b.stats).unwrap_or_default()
    }

    /// Number of processors.
    pub fn num_processors(&self) -> usize {
        self.procs.len()
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> MmrpStats {
        self.stats
    }

    /// Transactions currently outstanding across all processors.
    /// Every issued transaction ends retired or given up, so this is a
    /// difference of counters the driver keeps anyway — the run loop
    /// asks every cycle.
    pub fn outstanding(&self) -> u64 {
        let open = self.stats.issued - self.stats.retired - self.retry_stats().gave_up;
        debug_assert_eq!(
            open,
            self.procs
                .iter()
                .map(|p| u64::from(p.outstanding()))
                .sum::<u64>()
        );
        open
    }

    /// Per-processor view (diagnostics).
    pub fn processor(&self, pm: NodeId) -> &Processor {
        &self.procs[pm.index()]
    }

    /// Injection phase, run before `net.step`: completes ready local
    /// accesses, injects ready memory responses, processes retry-layer
    /// timeouts/reissues, then lets every processor generate/issue.
    /// `now` must be `net.cycle()`.
    pub fn pre_cycle(
        &mut self,
        net: &mut dyn Interconnect,
        now: u64,
        samples: &mut Vec<(u64, f64)>,
    ) {
        let before = self.stats;
        let rbefore = self.retry_stats();
        let mut blocked = 0u64;
        for i in 0..self.procs.len() {
            // Local completions retire first — they free T slots.
            self.local_scratch.clear();
            self.mems[i].pop_local_ready(now, &mut self.local_scratch);
            for k in 0..self.local_scratch.len() {
                let issued_at = self.local_scratch[k];
                self.procs[i].retire();
                self.stats.retired += 1;
                self.stats.local_retired += 1;
                samples.push((now, (now - issued_at) as f64));
            }
            self.mems[i].inject_ready(net, now);
        }
        // Retries compete with fresh issues for injection slots; give
        // them priority so starved transactions make progress.
        self.process_retries(net, now);
        for i in 0..self.procs.len() {
            let pm = self.procs[i].pm();
            if !net.pm_alive(pm) {
                // Fail-stop PM: issues no new work; outstanding
                // transactions resolve through the retry layer.
                continue;
            }
            let Some(want) = self.procs[i].tick(now) else {
                continue;
            };
            if want.dst == pm {
                // Local access: memory timing, no network.
                self.mems[i].accept_local(now, want.issued_at);
                self.procs[i].issue_succeeded();
                self.txn_seq += 1;
                self.stats.issued += 1;
            } else if self.retry.is_some() && !net.pm_alive(want.dst) {
                // Known-dead destination: fail the transaction at the
                // source instead of wasting network cycles on it.
                self.procs[i].issue_succeeded();
                self.stats.issued += 1;
                self.procs[i].retire();
                let book = self.retry.as_mut().expect("checked above");
                book.stats.dead_drops += 1;
                book.stats.gave_up += 1;
            } else if net.can_inject(pm, QueueClass::of(want.kind)) {
                self.txn_seq += 1;
                let flits = self.sizer.flits(want.kind);
                net.inject(
                    pm,
                    Packet {
                        txn: TxnId::new(self.txn_seq),
                        kind: want.kind,
                        src: pm,
                        dst: want.dst,
                        flits,
                        injected_at: want.issued_at,
                    },
                );
                if let Some(book) = self.retry.as_mut() {
                    book.track(
                        self.txn_seq,
                        OpenTxn {
                            pm,
                            dst: want.dst,
                            kind: want.kind,
                            flits,
                            issued_at: want.issued_at,
                            attempt: 1,
                        },
                        now,
                    );
                }
                self.procs[i].issue_succeeded();
                self.stats.issued += 1;
            } else {
                self.procs[i].issue_blocked();
                blocked += 1;
            }
        }
        if let Some(t) = net.tracer_mut() {
            t.count(Counter::TxnsIssued, self.stats.issued - before.issued);
            t.count(Counter::IssueBlocked, blocked);
            t.count(Counter::TxnsRetired, self.stats.retired - before.retired);
            t.count(
                Counter::TxnsLocalRetired,
                self.stats.local_retired - before.local_retired,
            );
            let rafter = self.retry.as_ref().map(|b| b.stats).unwrap_or_default();
            t.count(Counter::TxnsRetried, rafter.retries - rbefore.retries);
            t.count(Counter::TxnsFailed, rafter.gave_up - rbefore.gave_up);
        }
    }

    /// Expires open-transaction deadlines and reissues attempts whose
    /// backoff window has elapsed. No-op without a retry book.
    fn process_retries(&mut self, net: &mut dyn Interconnect, now: u64) {
        let Some(book) = self.retry.as_mut() else {
            return;
        };
        // Deadlines are pushed with a constant offset from a
        // non-decreasing clock, so only the front can be due.
        while let Some(&(due, txn, attempt)) = book.deadlines.front() {
            if due > now {
                break;
            }
            book.deadlines.pop_front();
            let timed_out = book.open.get(&txn).is_some_and(|e| e.attempt == attempt);
            if !timed_out {
                // Acknowledged, or superseded by a later attempt.
                continue;
            }
            let entry = book.open.remove(&txn).expect("presence checked");
            book.stats.timeouts += 1;
            if entry.attempt >= book.policy.max_attempts {
                book.stats.gave_up += 1;
                self.procs[entry.pm.index()].retire();
            } else {
                let due = book.backoff_until(now, entry.attempt);
                book.retry_at.push((
                    due,
                    OpenTxn {
                        attempt: entry.attempt + 1,
                        ..entry
                    },
                ));
            }
        }
        // Backoff dues are not monotone (they depend on the attempt
        // number), so scan; blocked reissues just stay for next cycle.
        let mut i = 0;
        while i < book.retry_at.len() {
            let (due, entry) = book.retry_at[i];
            if due > now {
                i += 1;
                continue;
            }
            if !net.pm_alive(entry.pm) || !net.pm_alive(entry.dst) {
                // An endpoint died while backing off: give up now.
                book.retry_at.swap_remove(i);
                book.stats.dead_drops += 1;
                book.stats.gave_up += 1;
                self.procs[entry.pm.index()].retire();
                continue;
            }
            if !net.can_inject(entry.pm, QueueClass::of(entry.kind)) {
                i += 1;
                continue;
            }
            book.retry_at.swap_remove(i);
            self.txn_seq += 1;
            net.inject(
                entry.pm,
                Packet {
                    txn: TxnId::new(self.txn_seq),
                    kind: entry.kind,
                    src: entry.pm,
                    dst: entry.dst,
                    flits: entry.flits,
                    injected_at: entry.issued_at,
                },
            );
            book.stats.retries += 1;
            book.track(self.txn_seq, entry, now);
        }
    }

    /// Delivery phase, run after `net.step`: requests go to the home
    /// memory, responses retire transactions and record latency.
    /// `net` is only consulted for its tracer (retirement counters and
    /// the outstanding-transactions gauge).
    pub fn post_cycle(
        &mut self,
        net: &mut dyn Interconnect,
        delivered: &[(NodeId, Packet)],
        now: u64,
        samples: &mut Vec<(u64, f64)>,
    ) {
        let mut retired = 0u64;
        for (dst, pkt) in delivered {
            if pkt.kind.is_request() {
                self.mems[dst.index()].accept(pkt, now);
            } else {
                if let Some(book) = self.retry.as_mut() {
                    if book.open.remove(&pkt.txn.raw()).is_none() {
                        // The id already timed out (and was retried or
                        // given up): the slot was settled then, so a
                        // second retire would corrupt accounting.
                        book.stats.stale_responses += 1;
                        continue;
                    }
                }
                self.procs[dst.index()].retire();
                self.stats.retired += 1;
                retired += 1;
                samples.push((now, (now - pkt.injected_at) as f64));
            }
        }
        if let Some(t) = net.tracer_mut() {
            t.count(Counter::TxnsRetired, retired);
            t.gauge(Gauge::OutstandingTxns, self.outstanding() as f64);
        }
    }
}

impl Snapshot for MmrpStats {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.issued);
        w.u64(self.retired);
        w.u64(self.local_retired);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(MmrpStats {
            issued: r.u64()?,
            retired: r.u64()?,
            local_retired: r.u64()?,
        })
    }
}

impl SnapshotState for Mmrp {
    fn save_state(&self, w: &mut SnapWriter) {
        w.u64(self.txn_seq);
        self.stats.save(w);
        w.usize(self.procs.len());
        for p in &self.procs {
            p.save_state(w);
        }
        w.usize(self.mems.len());
        for m in &self.mems {
            m.save_state(w);
        }
        // `local_scratch` is per-cycle scratch — empty between cycles.
        w.bool(self.retry.is_some());
        if let Some(book) = &self.retry {
            book.save_state(w);
        }
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.txn_seq = r.u64()?;
        self.stats = MmrpStats::load(r)?;
        let procs = r.usize()?;
        if procs != self.procs.len() {
            return Err(SnapError::Mismatch(format!(
                "snapshot has {procs} processors, workload has {}",
                self.procs.len()
            )));
        }
        for p in &mut self.procs {
            p.restore_state(r)?;
        }
        let mems = r.usize()?;
        if mems != self.mems.len() {
            return Err(SnapError::Mismatch(format!(
                "snapshot has {mems} memory modules, workload has {}",
                self.mems.len()
            )));
        }
        for m in &mut self.mems {
            m.restore_state(r)?;
        }
        let had_retry = r.bool()?;
        if had_retry != self.retry.is_some() {
            return Err(SnapError::Mismatch(format!(
                "snapshot retry layer {}, workload retry layer {}",
                if had_retry { "enabled" } else { "disabled" },
                if self.retry.is_some() {
                    "enabled"
                } else {
                    "disabled"
                },
            )));
        }
        if let Some(book) = self.retry.as_mut() {
            book.restore_state(r)?;
        }
        self.local_scratch.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringmesh_engine::StallError;
    use ringmesh_net::{CacheLineSize, PacketFormat, UtilizationReport};

    /// A zero-latency loopback "network": packets are delivered to
    /// their destination on the next step. Lets us test the driver's
    /// bookkeeping without a real interconnect.
    struct Loopback {
        pms: usize,
        queue: Vec<(NodeId, Packet)>,
        cycle: u64,
    }

    impl Interconnect for Loopback {
        fn num_pms(&self) -> usize {
            self.pms
        }
        fn cycle(&self) -> u64 {
            self.cycle
        }
        fn can_inject(&self, _pm: NodeId, _class: QueueClass) -> bool {
            true
        }
        fn inject(&mut self, _pm: NodeId, packet: Packet) {
            self.queue.push((packet.dst, packet));
        }
        fn step(&mut self, delivered: &mut Vec<(NodeId, Packet)>) -> Result<(), StallError> {
            delivered.append(&mut self.queue);
            self.cycle += 1;
            Ok(())
        }
        fn in_flight(&self) -> u64 {
            self.queue.len() as u64
        }
        fn utilization(&self) -> UtilizationReport {
            UtilizationReport::default()
        }
        fn reset_counters(&mut self) {}
    }

    fn mmrp(pms: u32, t: u32, r: f64) -> Mmrp {
        Mmrp::new(
            Placement::Linear { pms },
            WorkloadParams::paper_baseline()
                .with_outstanding(t)
                .with_region(r),
            MemoryParams {
                latency: 5,
                occupancy: 1,
            },
            PacketSizer {
                format: PacketFormat::RING,
                cache_line: CacheLineSize::B32,
            },
            7,
        )
    }

    /// A loopback with fault knobs: fixed delivery delay, dropping the
    /// first N requests, blackholing requests to one PM, or reporting a
    /// PM as fail-stopped. Exercises the retry layer end to end.
    struct FaultyLoopback {
        pms: usize,
        queue: Vec<(u64, NodeId, Packet)>,
        cycle: u64,
        delay: u64,
        drop_first: u32,
        dropped: u32,
        blackhole: Option<NodeId>,
        dead: Option<NodeId>,
    }

    impl FaultyLoopback {
        fn new(pms: usize) -> Self {
            FaultyLoopback {
                pms,
                queue: Vec::new(),
                cycle: 0,
                delay: 0,
                drop_first: 0,
                dropped: 0,
                blackhole: None,
                dead: None,
            }
        }
    }

    impl Interconnect for FaultyLoopback {
        fn num_pms(&self) -> usize {
            self.pms
        }
        fn cycle(&self) -> u64 {
            self.cycle
        }
        fn can_inject(&self, _pm: NodeId, _class: QueueClass) -> bool {
            true
        }
        fn inject(&mut self, _pm: NodeId, packet: Packet) {
            if packet.kind.is_request()
                && (self.dropped < self.drop_first || self.blackhole == Some(packet.dst))
            {
                self.dropped += 1;
                return;
            }
            self.queue
                .push((self.cycle + self.delay, packet.dst, packet));
        }
        fn step(&mut self, delivered: &mut Vec<(NodeId, Packet)>) -> Result<(), StallError> {
            let now = self.cycle;
            let mut i = 0;
            while i < self.queue.len() {
                if self.queue[i].0 <= now {
                    let (_, dst, pkt) = self.queue.swap_remove(i);
                    delivered.push((dst, pkt));
                } else {
                    i += 1;
                }
            }
            self.cycle += 1;
            Ok(())
        }
        fn in_flight(&self) -> u64 {
            self.queue.len() as u64
        }
        fn pm_alive(&self, pm: NodeId) -> bool {
            self.dead != Some(pm)
        }
        fn utilization(&self) -> UtilizationReport {
            UtilizationReport::default()
        }
        fn reset_counters(&mut self) {}
    }

    fn run(wl: &mut Mmrp, net: &mut dyn Interconnect, cycles: u64) -> Vec<(u64, f64)> {
        let mut samples = Vec::new();
        let mut delivered = Vec::new();
        for _ in 0..cycles {
            let now = net.cycle();
            wl.pre_cycle(net, now, &mut samples);
            delivered.clear();
            net.step(&mut delivered).unwrap();
            let after = net.cycle();
            wl.post_cycle(net, &delivered, after, &mut samples);
        }
        samples
    }

    #[test]
    fn transactions_complete_with_expected_latency() {
        let mut net = Loopback {
            pms: 4,
            queue: Vec::new(),
            cycle: 0,
        };
        let mut wl = mmrp(4, 4, 1.0);
        let samples = run(&mut wl, &mut net, 500);
        assert!(!samples.is_empty());
        // Round trip on the loopback: 1 cycle out + 5 memory + 1 back,
        // give or take injection-cycle accounting; all remote samples
        // must be small and identical, locals exactly the memory time.
        for &(_, lat) in &samples {
            assert!((5.0..=9.0).contains(&lat), "latency {lat}");
        }
    }

    #[test]
    fn issue_rate_matches_miss_rate() {
        let mut net = Loopback {
            pms: 8,
            queue: Vec::new(),
            cycle: 0,
        };
        let mut wl = mmrp(8, 4, 1.0);
        run(&mut wl, &mut net, 2_500);
        // 8 processors * 2500 cycles * C=0.04 = 800 expected issues;
        // the fast loopback never blocks, so we should be close.
        let issued = wl.stats().issued;
        assert!((760..=800).contains(&issued), "issued {issued}");
    }

    #[test]
    fn conservation_on_loopback() {
        let mut net = Loopback {
            pms: 6,
            queue: Vec::new(),
            cycle: 0,
        };
        let mut wl = mmrp(6, 2, 0.5);
        run(&mut wl, &mut net, 1_000);
        let s = wl.stats();
        assert!(s.retired <= s.issued);
        assert!(
            s.issued - s.retired <= 6 * 2,
            "at most T per processor in flight"
        );
        assert_eq!(wl.outstanding(), s.issued - s.retired);
    }

    #[test]
    fn local_accesses_counted_separately() {
        // R small on a big machine still includes the local PM, so some
        // local traffic must appear.
        let mut net = Loopback {
            pms: 16,
            queue: Vec::new(),
            cycle: 0,
        };
        let mut wl = mmrp(16, 4, 0.2);
        run(&mut wl, &mut net, 2_000);
        let s = wl.stats();
        assert!(s.local_retired > 0);
        assert!(s.local_retired < s.retired, "remote traffic must dominate");
    }

    #[test]
    fn dropped_requests_are_retried_to_completion() {
        let mut net = FaultyLoopback::new(4);
        net.drop_first = 5;
        let mut wl = mmrp(4, 4, 1.0).with_retry(RetryPolicy {
            timeout: 30,
            max_attempts: 4,
            backoff: 8,
        });
        let samples = run(&mut wl, &mut net, 2_000);
        let r = wl.retry_stats();
        assert!(r.timeouts >= 5, "timeouts {}", r.timeouts);
        assert!(r.retries >= 5, "retries {}", r.retries);
        assert_eq!(r.gave_up, 0, "retries must recover every drop");
        // Latency samples for retried transactions span all attempts,
        // so at least one must exceed the timeout.
        assert!(samples.iter().any(|&(_, lat)| lat >= 30.0));
        let s = wl.stats();
        assert_eq!(wl.outstanding(), s.issued - s.retired);
    }

    #[test]
    fn blackholed_destination_exhausts_attempts_without_leaking_slots() {
        let mut net = FaultyLoopback::new(4);
        net.blackhole = Some(NodeId::new(1));
        let mut wl = mmrp(4, 2, 1.0).with_retry(RetryPolicy {
            timeout: 20,
            max_attempts: 3,
            backoff: 4,
        });
        run(&mut wl, &mut net, 3_000);
        let (s, r) = (wl.stats(), wl.retry_stats());
        assert!(r.gave_up > 0, "blackholed transactions must give up");
        assert!(r.timeouts >= 3 * r.gave_up, "every attempt timed out first");
        // Give-ups release the processor slot without a retired sample:
        // the outstanding count must reconcile exactly, or slots leak
        // and the workload would eventually deadlock.
        assert_eq!(wl.outstanding(), s.issued - s.retired - r.gave_up);
        assert!(s.issued > 100, "issue flow must keep moving");
    }

    #[test]
    fn dead_destination_fails_fast() {
        let mut net = FaultyLoopback::new(4);
        net.dead = Some(NodeId::new(1));
        let mut wl = mmrp(4, 2, 1.0).with_retry(RetryPolicy::default());
        run(&mut wl, &mut net, 1_000);
        let (s, r) = (wl.stats(), wl.retry_stats());
        assert!(r.dead_drops > 0, "traffic to the dead PM must be dropped");
        assert!(r.gave_up >= r.dead_drops);
        assert_eq!(r.timeouts, 0, "fail-fast path never waits out a timeout");
        assert_eq!(wl.outstanding(), s.issued - s.retired - r.gave_up);
    }

    #[test]
    fn late_responses_are_stale_not_double_retired() {
        let mut net = FaultyLoopback::new(4);
        net.delay = 50; // longer than the timeout: every response is late
        let mut wl = mmrp(4, 2, 1.0).with_retry(RetryPolicy {
            timeout: 20,
            max_attempts: 2,
            backoff: 4,
        });
        run(&mut wl, &mut net, 1_500);
        let (s, r) = (wl.stats(), wl.retry_stats());
        assert!(
            r.stale_responses > 0,
            "late responses must be flagged stale"
        );
        assert!(r.gave_up > 0);
        assert_eq!(wl.outstanding(), s.issued - s.retired - r.gave_up);
    }

    #[test]
    fn retry_disabled_runs_are_unchanged() {
        // The retry book is opt-in; with it absent the driver must
        // behave byte-identically to the pre-retry code path.
        let mut plain = Loopback {
            pms: 4,
            queue: Vec::new(),
            cycle: 0,
        };
        let mut wl_plain = mmrp(4, 4, 1.0);
        let a = run(&mut wl_plain, &mut plain, 500);
        let mut faulty = FaultyLoopback::new(4);
        let mut wl_retry = mmrp(4, 4, 1.0).with_retry(RetryPolicy::default());
        let b = run(&mut wl_retry, &mut faulty, 500);
        assert_eq!(a, b, "fault-free run must not depend on the retry layer");
        assert_eq!(wl_plain.stats(), wl_retry.stats());
        assert_eq!(wl_retry.retry_stats(), RetryStats::default());
    }

    #[test]
    fn samples_carry_completion_timestamps() {
        let mut net = Loopback {
            pms: 4,
            queue: Vec::new(),
            cycle: 0,
        };
        let mut wl = mmrp(4, 4, 1.0);
        let samples = run(&mut wl, &mut net, 300);
        assert!(
            samples.windows(2).all(|w| w[0].0 <= w[1].0),
            "timestamps non-decreasing"
        );
        assert!(samples.last().unwrap().0 <= 300);
    }
}
