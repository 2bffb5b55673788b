//! The M-MRP workload driver: wires P processors and P memory modules
//! to an [`Interconnect`] and collects round-trip latency samples.

use ringmesh_engine::SimRng;
use ringmesh_net::{Interconnect, NodeId, Packet, QueueClass, TxnId};
use ringmesh_snap::{Codec, Snap, SnapError};
use ringmesh_trace::{Counter, Gauge, Work};

use crate::calendar::Calendar;
use crate::memory::MemoryModule;
use crate::processor::{IssueParams, Processor, IDLE};
use crate::region::{Placement, Region};
use crate::retry::{OpenTxn, RetryBook};
use crate::{MemoryParams, PacketSizer, ProcessorStats, RetryPolicy, RetryStats, WorkloadParams};

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
///
/// The driver visits only what is due. A dense table holds, per memory
/// module and per processor, the cycle it next has work; each phase
/// walks its half of that cycle's calendar bucket in PM order, so an
/// entry still in the future is not read. A processor at its `T` limit
/// parks (its entry goes idle) until a retirement wakes it. A processor or a memory whose NIC
/// refuses it parks too, until the network names its PM in
/// [`Interconnect::room`] (or, for a processor, a retirement or a PM
/// death wakes it): by the room contract its NIC would have refused it
/// on every cycle in between.
#[derive(Debug)]
pub struct Mmrp {
    procs: Vec<Processor>,
    mems: Vec<MemoryModule>,
    /// Memories `0..P`, then processors `P..2P`: the cycle each is next
    /// visited, or [`IDLE`], with a calendar over it. Empty until the
    /// first `pre_cycle` after `new` or a restore builds it.
    due: Calendar,
    /// Memories whose ready response their NIC refused, a bit per PM,
    /// built with `due`: parked until the network reports room there.
    mem_parked: Vec<u64>,
    /// The next cycle to run: one past the last `pre_cycle`.
    next: u64,
    /// Fail-stopped nodes the fault injector reported by then.
    deaths: u64,
    issue: IssueParams,
    sizer: PacketSizer,
    txn_seq: u64,
    stats: MmrpStats,
    local_scratch: Vec<u64>,
    /// End-to-end timeout/retry layer; absent (the default) the driver
    /// trusts the network never to drop, exactly as before.
    retry: Option<RetryBook>,
}

/// Retires one transaction of processor `i`; a parked processor wakes
/// and is next due at `wake`.
fn retire(procs: &mut [Processor], due: &mut Calendar, i: usize, wake: u64) {
    if procs[i].retire(wake) {
        due.set(procs.len() + i, wake);
    }
}

/// Whether bit `i` of the bitset `bits` is set.
fn bit(bits: &[u64], i: usize) -> bool {
    bits[i / 64] & (1 << (i % 64)) != 0
}

/// Sets bit `i` of the bitset `bits` to `on`.
fn set_bit(bits: &mut [u64], i: usize, on: bool) {
    let (word, mask) = (&mut bits[i / 64], 1 << (i % 64));
    if on {
        *word |= mask;
    } else {
        *word &= !mask;
    }
}

/// Fail-stopped nodes `net`'s fault injector has reported.
fn deaths(net: &dyn Interconnect) -> u64 {
    net.faults().map_or(0, |f| f.report().nodes_killed)
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
        let issue = IssueParams::new(&params);
        let procs = (0..p)
            .map(|i| {
                let pm = NodeId::new(i);
                let region = Region::new(placement, pm, params.region);
                Processor::new(pm, &issue, region, root.stream(u64::from(i)))
            })
            .collect();
        let mems = (0..p)
            .map(|i| MemoryModule::new(NodeId::new(i), mem, sizer))
            .collect();
        Mmrp {
            procs,
            mems,
            due: Calendar::default(),
            mem_parked: Vec::new(),
            next: 0,
            deaths: 0,
            issue,
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
        debug_assert_eq!(open, self.open_slots());
        open
    }

    fn open_slots(&self) -> u64 {
        self.procs.iter().map(|p| u64::from(p.outstanding())).sum()
    }

    /// Statistics of the processor of `pm` so far, its blocked cycles
    /// counted through the last cycle run.
    pub fn processor_stats(&self, pm: NodeId) -> ProcessorStats {
        self.procs[pm.index()].stats_at(self.next)
    }

    /// Builds the due table at `now`, the first cycle run since `new`
    /// or a restore, asking every processor's PM once whether it
    /// is alive.
    fn build(&mut self, net: &dyn Interconnect, now: u64) {
        let mems = self.mems.iter().map(|m| m.next_ready().unwrap_or(IDLE));
        let procs = self.procs.iter().map(|p| {
            if net.pm_alive(p.pm()) {
                p.first_due(now)
            } else {
                IDLE
            }
        });
        self.due.build(mems.chain(procs), now);
        self.mem_parked.clear();
        self.mem_parked.resize(self.mems.len().div_ceil(64), 0);
        self.deaths = deaths(net);
    }

    /// Halts the processors of PMs that fail-stopped since the last
    /// cycle. Asked of the fault injector once a cycle; the PMs are
    /// scanned only when its count of dead nodes has moved. A death
    /// wakes every processor parked on its NIC for this cycle: its
    /// destination may be the PM that died.
    fn bury(&mut self, net: &dyn Interconnect, now: u64) {
        let deaths = deaths(net);
        if deaths == self.deaths {
            return;
        }
        self.deaths = deaths;
        let p = self.procs.len();
        for (i, proc) in self.procs.iter_mut().enumerate() {
            if proc.on_nic(&self.issue) {
                proc.wake(now);
                self.due.set(p + i, now);
            }
            // Idle and not parked: halted already.
            let due = self.due.get(p + i);
            let halted = due == IDLE && !proc.parked();
            if !halted && !net.pm_alive(proc.pm()) {
                proc.halt(now, due);
                self.due.set(p + i, IDLE);
            }
        }
    }

    /// Injection phase, run before `net.step`: completes ready local
    /// accesses, injects ready memory responses, processes retry-layer
    /// timeouts/reissues, then lets every due processor generate/issue.
    /// `now` must be `net.cycle()`.
    pub fn pre_cycle(
        &mut self,
        net: &mut dyn Interconnect,
        now: u64,
        samples: &mut Vec<(u64, f64)>,
    ) {
        let before = self.stats;
        let rbefore = self.retry_stats();
        if self.due.is_empty() {
            self.build(net, now);
        } else {
            self.bury(net, now);
        }
        self.next = now + 1;
        let p = self.procs.len();
        let mut visits = 0u64;
        let mut from = 0;
        while let Some(i) = self.due.next(from, p, now) {
            from = i + 1;
            visits += 1;
            // Local completions retire first — they free T slots.
            self.local_scratch.clear();
            self.mems[i].pop_local_ready(now, &mut self.local_scratch);
            for k in 0..self.local_scratch.len() {
                let issued_at = self.local_scratch[k];
                retire(&mut self.procs, &mut self.due, i, now);
                self.stats.retired += 1;
                self.stats.local_retired += 1;
                samples.push((now, (now - issued_at) as f64));
            }
            // A refused memory parks: only its local accesses are due
            // until the network reports room at its PM.
            let m = &mut self.mems[i];
            let parked = m.inject_ready(net, now);
            set_bit(&mut self.mem_parked, i, parked);
            let next = if parked {
                m.next_local_ready()
            } else {
                m.next_ready()
            };
            self.due.set(i, next.map_or(IDLE, |r| r.max(now + 1)));
        }
        // Retries compete with fresh issues for injection slots; give
        // them priority so starved transactions make progress.
        self.process_retries(net, now);
        let mut from = p;
        while let Some(k) = self.due.next(from, 2 * p, now) {
            from = k + 1;
            visits += 1;
            let next = self.issue(net, k - p, now);
            self.due.set(k, next);
        }
        let examined = self.due.take_examined();
        if let Some(t) = net.tracer_mut() {
            t.work(Work::DriverVisits, visits);
            t.work(Work::DueExamined, examined);
            // Every processor parked on its NIC would have been refused
            // again this cycle.
            let issue = &self.issue;
            let blocked = self.procs.iter().filter(|p| p.on_nic(issue)).count();
            t.count(Counter::TxnsIssued, self.stats.issued - before.issued);
            t.count(Counter::IssueBlocked, blocked as u64);
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

    /// Visits processor `i`, due at `now`, and returns the cycle it is
    /// next due: [`IDLE`] when it parks, at `T` or on its NIC.
    fn issue(&mut self, net: &mut dyn Interconnect, i: usize, now: u64) -> u64 {
        let issue = &self.issue;
        let proc = &mut self.procs[i];
        let Some(want) = proc.visit(now, issue) else {
            // Parked on the T limit until a retirement wakes it.
            return IDLE;
        };
        let pm = proc.pm();
        if want.dst == pm {
            // Local access: memory timing, no network.
            let ready = self.mems[i].accept_local(now, want.issued_at);
            self.due.lower(i, ready.max(now + 1));
            self.txn_seq += 1;
            self.stats.issued += 1;
            proc.issued(now, issue)
        } else if self.retry.is_some() && !net.pm_alive(want.dst) {
            // Known-dead destination: fail the transaction at the
            // source instead of wasting network cycles on it.
            let due = proc.issued(now, issue);
            self.stats.issued += 1;
            proc.retire(now);
            let book = self.retry.as_mut().expect("checked above");
            book.stats.dead_drops += 1;
            book.stats.gave_up += 1;
            due
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
            self.stats.issued += 1;
            proc.issued(now, issue)
        } else {
            proc.refused(now);
            IDLE
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
                retire(&mut self.procs, &mut self.due, entry.pm.index(), now);
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
                retire(&mut self.procs, &mut self.due, entry.pm.index(), now);
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
    /// memory, responses retire transactions and record latency, and
    /// the memories and processors parked on a NIC the step gave room
    /// wake. `net` is otherwise only consulted for its tracer
    /// (retirement counters and the outstanding-transactions gauge). A
    /// memory or processor that gains work here is next due at the next
    /// cycle at the earliest.
    pub fn post_cycle(
        &mut self,
        net: &mut dyn Interconnect,
        delivered: &[(NodeId, Packet)],
        now: u64,
        samples: &mut Vec<(u64, f64)>,
    ) {
        let mut retired = 0u64;
        for (dst, pkt) in delivered {
            let i = dst.index();
            if pkt.kind.is_request() {
                let ready = self.mems[i].accept(pkt, now).max(self.next);
                // A parked memory's new response queues behind the
                // refused one.
                if !self.due.is_empty() && !bit(&self.mem_parked, i) {
                    self.due.lower(i, ready);
                }
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
                retire(&mut self.procs, &mut self.due, i, self.next);
                self.stats.retired += 1;
                retired += 1;
                samples.push((now, (now - pkt.injected_at) as f64));
            }
        }
        self.wake_on_room(net);
        if let Some(t) = net.tracer_mut() {
            t.count(Counter::TxnsRetired, retired);
            t.gauge(Gauge::OutstandingTxns, self.outstanding() as f64);
        }
        #[cfg(debug_assertions)]
        self.audit_parked(net);
    }

    /// Wakes, for the next cycle, the memories and processors parked on
    /// the NICs of the PMs the last step named in
    /// [`Interconnect::room`].
    fn wake_on_room(&mut self, net: &dyn Interconnect) {
        if self.due.is_empty() {
            return;
        }
        let p = self.procs.len();
        for &pm in net.room() {
            let i = pm.index();
            if bit(&self.mem_parked, i) {
                set_bit(&mut self.mem_parked, i, false);
                self.due.lower(i, self.next);
            }
            let proc = &mut self.procs[i];
            if proc.on_nic(&self.issue) {
                proc.wake(self.next);
                self.due.set(p + i, self.next);
            }
        }
    }

    /// Debug-only check of the room contract: a memory or processor
    /// still parked on its NIC after the wake-ups must still be refused
    /// by it — else the network gave room it did not report, and the
    /// driver would sleep through it.
    #[cfg(debug_assertions)]
    fn audit_parked(&self, net: &dyn Interconnect) {
        if self.due.is_empty() {
            return;
        }
        for (i, proc) in self.procs.iter().enumerate() {
            let pm = proc.pm();
            let memory = bit(&self.mem_parked, i) && net.can_inject(pm, QueueClass::Response);
            let processor = proc.on_nic(&self.issue) && net.can_inject(pm, QueueClass::Request);
            assert!(
                !memory && !processor,
                "{pm}: parked on a NIC with room the network did not report"
            );
        }
    }
}

impl Snap for MmrpStats {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        self.issued.snap(c)?;
        self.retired.snap(c)?;
        self.local_retired.snap(c)
    }
}

/// The transaction counter, the counters, the processors, the
/// memories, then the retry layer behind a flag; what the processors
/// and memories report is the workload's share of the census.
/// `local_scratch` is
/// per-cycle scratch — empty between cycles — and the due table is
/// rebuilt from the countdowns at the next cycle.
impl Snap for Mmrp {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        self.txn_seq.snap(c)?;
        self.stats.snap(c)?;
        let (t_limit, pms) = (self.issue.t_limit, self.procs.len());
        c.exact(pms, "processor count")?;
        for (i, proc) in self.procs.iter_mut().enumerate() {
            // The countdown and blocked cycles as of the next cycle.
            let at = self.due.entries().get(pms + i).map(|&due| (self.next, due));
            proc.snap(c, at, t_limit, pms)?;
        }
        c.fixed(&mut self.mems, "memory module count")?;
        c.exact(self.retry.is_some(), "retry layer")?;
        if let Some(book) = &mut self.retry {
            book.snap(c)?;
            // Its timeouts and duplicates make the processors' counts
            // the book's to check, not the census's.
            c.report(|census| census.outstanding.clear());
        }
        if c.reading() {
            self.validate()?;
            self.due.clear();
            self.local_scratch.clear();
        }
        Ok(())
    }
}

impl Mmrp {
    /// Checks a restored workload: the retry book and the memories fit
    /// the machine, and the counters agree with the processors.
    fn validate(&self) -> Result<(), SnapError> {
        let pms = self.procs.len();
        if let Some(book) = &self.retry {
            book.validate(pms)?;
        }
        for m in &self.mems {
            m.validate(pms)?;
        }
        let open = (self.stats.issued.checked_sub(self.stats.retired))
            .and_then(|open| open.checked_sub(self.retry_stats().gave_up));
        if open != Some(self.open_slots()) {
            return Err(SnapError::Corrupt(format!(
                "{} transactions outstanding at the processors, counters say {open:?}",
                self.open_slots()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::processor::PendingRef;
    use ringmesh_faults::{
        DropReason, FaultDomain, FaultEvent, FaultInjector, FaultKind, FaultSchedule,
    };
    use ringmesh_net::{CacheLineSize, NetCore, PacketFormat, PacketRef, UtilizationReport};
    use ringmesh_snap::{SnapReader, SnapWriter};
    use std::collections::VecDeque;

    /// A loopback "network" over a [`NetCore`]: every packet reaches
    /// its destination `delay` cycles after it was injected (in the
    /// same step by default), so the driver is tested through the
    /// admission, ledger, watchdog and room reports that real networks
    /// run. A PM may have `window` packets on the wire (unbounded by
    /// default); one leaving the wire reports room at its source. The
    /// fault knobs, all off by default, exercise the retry layer end to
    /// end: dropping the first N requests, blackholing requests to one
    /// PM, and fail-stopping a PM through a real [`FaultInjector`].
    struct Loopback {
        core: NetCore,
        /// Packets on the wire per source PM.
        sent: Vec<usize>,
        window: usize,
        /// Packets in flight with the cycle each arrives, in that order.
        wire: VecDeque<(u64, PacketRef)>,
        delay: u64,
        drop_first: u32,
        dropped: u32,
        blackhole: Option<NodeId>,
    }

    impl Loopback {
        fn new(pms: usize) -> Self {
            Loopback {
                core: NetCore::new(1_000),
                sent: vec![0; pms],
                window: usize::MAX,
                wire: VecDeque::new(),
                delay: 0,
                drop_first: 0,
                dropped: 0,
                blackhole: None,
            }
        }

        /// Fail-stops `pm` before the first cycle.
        fn kill(&mut self, pm: NodeId) {
            let death = FaultEvent {
                at: 0,
                kind: FaultKind::NodeDead { node: pm.raw() },
            };
            let schedule = FaultSchedule::from_events(1, 0.0, vec![death]);
            let mut injector = FaultInjector::new(&schedule, self.fault_domain());
            injector.advance(0);
            self.set_faults(injector);
        }
    }

    impl Snap for Loopback {
        fn snap<C: Codec>(&mut self, _c: &mut C) -> Result<(), SnapError> {
            unreachable!("the loopback is never checkpointed")
        }
    }

    impl Interconnect for Loopback {
        fn core(&self) -> &NetCore {
            &self.core
        }
        fn core_mut(&mut self) -> &mut NetCore {
            &mut self.core
        }
        fn num_pms(&self) -> usize {
            self.sent.len()
        }
        fn can_inject(&self, pm: NodeId, _class: QueueClass) -> bool {
            self.sent[pm.index()] < self.window
        }
        fn enqueue(&mut self, pm: NodeId, _class: QueueClass, packet: PacketRef) {
            self.sent[pm.index()] += 1;
            self.wire
                .push_back((self.core.cycle() + self.delay, packet));
        }
        fn advance(&mut self, delivered: &mut Vec<(NodeId, Packet)>) -> u64 {
            let moved = self.wire.len() as u64;
            while let Some(&(at, r)) = self.wire.front() {
                if at > self.core.cycle() {
                    break;
                }
                self.wire.pop_front();
                let p = *self.core.store().get(r);
                self.sent[p.src.index()] -= 1;
                self.core.room_at(p.src);
                if p.kind.is_request()
                    && (self.dropped < self.drop_first || self.blackhole == Some(p.dst))
                {
                    self.dropped += 1;
                    self.core.drop_packet(r, DropReason::DeadInterface);
                } else {
                    self.core.deliver(r, p.dst, delivered);
                }
            }
            moved
        }
        fn utilization(&self) -> UtilizationReport {
            UtilizationReport::default()
        }
        fn reset_counters(&mut self) {}
        fn pm_alive(&self, pm: NodeId) -> bool {
            self.core.faults().is_none_or(|f| !f.node_dead(pm.raw()))
        }
        fn fault_domain(&self) -> FaultDomain {
            FaultDomain {
                links: 0,
                nodes: self.sent.len() as u32,
            }
        }
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
        net.verify_conservation().unwrap();
        samples
    }

    #[test]
    fn transactions_complete_with_expected_latency() {
        let mut net = Loopback::new(4);
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

    /// One packet on the wire per PM, 30 cycles long: processors and
    /// memories are refused, park, and wake on the room the wire
    /// reports, so the machine keeps going at the wire's pace.
    #[test]
    fn a_narrow_nic_parks_and_wakes_on_room() {
        let mut net = Loopback::new(4);
        net.window = 1;
        net.delay = 30;
        let mut wl = mmrp(4, 4, 1.0);
        let samples = run(&mut wl, &mut net, 2_000);
        let blocked: u64 = (0..4)
            .map(|pm| wl.processor_stats(NodeId::new(pm)).blocked_cycles)
            .sum();
        assert!(blocked > 2_000, "blocked cycles {blocked}");
        // A PM sends at most one packet per 31 cycles, requests and
        // responses alike: the wire, not the 60 remote misses per PM
        // asked for, sets the pace.
        let remote = samples.iter().filter(|&&(_, lat)| lat > 5.0).count();
        assert!((100..=4 * 2_000 / 62).contains(&remote), "remote {remote}");
        let s = wl.stats();
        assert_eq!(wl.outstanding(), s.issued - s.retired);
    }

    #[test]
    fn issue_rate_matches_miss_rate() {
        let mut net = Loopback::new(8);
        let mut wl = mmrp(8, 4, 1.0);
        run(&mut wl, &mut net, 2_500);
        // 8 processors * 2500 cycles * C=0.04 = 800 expected issues;
        // the fast loopback never blocks, so we should be close.
        let issued = wl.stats().issued;
        assert!((760..=800).contains(&issued), "issued {issued}");
    }

    #[test]
    fn conservation_on_loopback() {
        let mut net = Loopback::new(6);
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
        let mut net = Loopback::new(16);
        let mut wl = mmrp(16, 4, 0.2);
        run(&mut wl, &mut net, 2_000);
        let s = wl.stats();
        assert!(s.local_retired > 0);
        assert!(s.local_retired < s.retired, "remote traffic must dominate");
    }

    #[test]
    fn dropped_requests_are_retried_to_completion() {
        let mut net = Loopback::new(4);
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
        let mut net = Loopback::new(4);
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
        let mut net = Loopback::new(4);
        net.kill(NodeId::new(1));
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
        let mut net = Loopback::new(4);
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
        let mut wl_plain = mmrp(4, 4, 1.0);
        let a = run(&mut wl_plain, &mut Loopback::new(4), 500);
        let mut wl_retry = mmrp(4, 4, 1.0).with_retry(RetryPolicy::default());
        let b = run(&mut wl_retry, &mut Loopback::new(4), 500);
        assert_eq!(a, b, "fault-free run must not depend on the retry layer");
        assert_eq!(wl_plain.stats(), wl_retry.stats());
        assert_eq!(wl_retry.retry_stats(), RetryStats::default());
    }

    #[test]
    fn samples_carry_completion_timestamps() {
        let mut net = Loopback::new(4);
        let mut wl = mmrp(4, 4, 1.0);
        let samples = run(&mut wl, &mut net, 300);
        assert!(
            samples.windows(2).all(|w| w[0].0 <= w[1].0),
            "timestamps non-decreasing"
        );
        assert!(samples.last().unwrap().0 <= 300);
    }

    /// A workload checkpoint decoded field by field, so a test can
    /// corrupt one field and encode the rest unchanged.
    #[derive(Default)]
    struct Image {
        txn_seq: u64,
        stats: MmrpStats,
        procs: Vec<ProcImage>,
        mems: Vec<MemImage>,
        /// The retry flag and whatever follows it, as saved.
        tail: Vec<u8>,
    }

    struct ProcImage {
        pm: u32,
        countdown: u32,
        outstanding: u32,
        pending: Option<PendingRef>,
        rng: SimRng,
        stats: ProcessorStats,
    }

    impl Default for ProcImage {
        fn default() -> Self {
            ProcImage {
                pm: 0,
                countdown: 0,
                outstanding: 0,
                pending: None,
                rng: SimRng::from_seed(0),
                stats: ProcessorStats::default(),
            }
        }
    }

    type Responses = std::collections::VecDeque<(u64, Packet)>;
    type Locals = std::collections::VecDeque<(u64, u64)>;

    #[derive(Default)]
    struct MemImage {
        pm: u32,
        pending: Responses,
        local: Locals,
        last_start: Option<u64>,
        served: u64,
    }

    impl Snap for ProcImage {
        fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
            self.pm.snap(c)?;
            self.countdown.snap(c)?;
            self.outstanding.snap(c)?;
            self.pending.snap(c)?;
            self.rng.snap(c)?;
            self.stats.snap(c)
        }
    }

    impl Snap for MemImage {
        fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
            self.pm.snap(c)?;
            self.pending.snap(c)?;
            self.local.snap(c)?;
            self.last_start.snap(c)?;
            self.served.snap(c)
        }
    }

    /// Everything but the tail.
    impl Snap for Image {
        fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
            self.txn_seq.snap(c)?;
            self.stats.snap(c)?;
            self.procs.snap(c)?;
            self.mems.snap(c)
        }
    }

    impl Image {
        fn of(wl: &mut Mmrp) -> Image {
            let mut w = SnapWriter::new();
            wl.snap(&mut w).unwrap();
            let bytes = w.into_bytes();
            let mut r = SnapReader::new(&bytes);
            let mut image = Image::default();
            image.snap(&mut r).unwrap();
            image.tail = bytes[bytes.len() - r.remaining()..].to_vec();
            image
        }

        fn bytes(&mut self) -> Vec<u8> {
            let mut w = SnapWriter::new();
            self.snap(&mut w).unwrap();
            let mut bytes = w.into_bytes();
            bytes.extend_from_slice(&self.tail);
            bytes
        }
    }

    /// A T = 1 workload run on a slow network until a processor has
    /// parked and a memory holds a response.
    fn loaded() -> Mmrp {
        let mut net = Loopback::new(4);
        net.delay = 30;
        let mut wl = mmrp(4, 1, 1.0);
        loop {
            run(&mut wl, &mut net, 1);
            let image = Image::of(&mut wl);
            let parked = image.procs.iter().any(|p| p.pending.is_some());
            if parked && image.mems.iter().any(|m| !m.pending.is_empty()) {
                return wl;
            }
        }
    }

    /// Restores `image` into a fresh workload and returns the error's
    /// message, which must be a `Corrupt`.
    fn corrupt(image: &mut Image) -> String {
        match mmrp(4, 1, 1.0).snap(&mut SnapReader::new(&image.bytes())) {
            Err(SnapError::Corrupt(msg)) => msg,
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn an_untouched_image_restores_to_the_same_bytes() {
        let mut image = Image::of(&mut loaded());
        assert!(image.procs.iter().any(|p| p.outstanding == 1));
        assert!(image.mems.iter().any(|m| !m.pending.is_empty()));
        let mut copy = mmrp(4, 1, 1.0);
        copy.snap(&mut SnapReader::new(&image.bytes())).unwrap();
        assert!(Image::of(&mut copy).bytes() == image.bytes());
    }

    #[test]
    fn restore_rejects_more_outstanding_than_t() {
        let mut image = Image::of(&mut loaded());
        image.procs[2].outstanding = 2;
        image.stats.issued += 2;
        assert!(corrupt(&mut image).contains("2 outstanding, T = 1"));
    }

    #[test]
    fn restore_rejects_a_pending_reference_off_the_machine() {
        let mut image = Image::of(&mut loaded());
        image.procs[1].pending = Some(PendingRef {
            dst: NodeId::new(4),
            kind: ringmesh_net::PacketKind::ReadReq,
            issued_at: 0,
        });
        assert!(corrupt(&mut image).contains("pending reference to PM4 of 4 PMs"));
    }

    #[test]
    fn restore_rejects_a_spent_countdown_with_nothing_pending() {
        let mut image = Image::of(&mut loaded());
        let p = image
            .procs
            .iter_mut()
            .find(|p| p.pending.is_none())
            .unwrap();
        p.countdown = 0;
        assert!(corrupt(&mut image).contains("countdown 0 with nothing pending"));
    }

    #[test]
    fn restore_rejects_a_response_not_from_its_memory() {
        let image = Image::of(&mut loaded());
        let m = image
            .mems
            .iter()
            .position(|m| !m.pending.is_empty())
            .unwrap();
        let pms = image.mems.len() as u32;
        let redirect: [fn(&mut Packet, u32); 3] = [
            |p, pms| p.dst = NodeId::new(pms),
            |p, _| p.src = NodeId::new((p.src.raw() + 1) % 4),
            |p, _| p.dst = p.src,
        ];
        for edit in redirect {
            let mut image = Image::of(&mut loaded());
            edit(&mut image.mems[m].pending[0].1, pms);
            assert!(corrupt(&mut image).contains("response"));
        }
    }

    #[test]
    fn restore_rejects_ready_times_out_of_order() {
        let mut image = Image::of(&mut loaded());
        image.mems[0].local = Locals::from([(20, 3), (10, 4)]);
        assert!(corrupt(&mut image).contains("ready times out of order"));
        let mut image = Image::of(&mut loaded());
        let m = image
            .mems
            .iter_mut()
            .find(|m| !m.pending.is_empty())
            .unwrap();
        let late = (m.pending[0].0 + 5, m.pending[0].1);
        m.pending.push_front(late);
        assert!(corrupt(&mut image).contains("ready times out of order"));
    }

    #[test]
    fn restore_rejects_counters_that_disagree_with_the_processors() {
        let mut image = Image::of(&mut loaded());
        image.stats.retired += 1;
        assert!(corrupt(&mut image).contains("outstanding at the processors"));
        let mut image = Image::of(&mut loaded());
        image.stats.retired = image.stats.issued + 1;
        assert!(corrupt(&mut image).contains("outstanding at the processors"));
    }
}
