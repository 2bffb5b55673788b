//! The driver oracle: the M-MRP driver written the plain way, every
//! memory module polled and every processor ticked every cycle, run in
//! lockstep with [`Mmrp`] on twin copies of one fake network.
//!
//! Each cycle the two must inject the same packets in the same order,
//! record the same latency samples and agree on [`MmrpStats`],
//! [`RetryStats`] and every processor's [`ProcessorStats`]; every 97th
//! cycle their checkpoint bytes must be equal too. Halfway through each
//! case the driver under test is replaced by a fresh one restored from
//! its own checkpoint, so the restore path is stepped as well.
//!
//! The fake network runs over a [`NetCore`], so its admission, ledger
//! and watchdog are the real ones, and both twins' conservation is
//! audited at the end. It has bounded per-PM, per-class injection queues
//! that drain one packet every few cycles, so NIC refusals happen, plus
//! the fault knobs the retry layer answers to: dropped requests, a
//! blackholed PM, a delivery delay and PMs that fail-stop through a real
//! [`FaultInjector`].

use std::cell::Cell;
use std::collections::VecDeque;

use ringmesh_engine::SimRng;
use ringmesh_faults::{
    DropReason, FaultDomain, FaultEvent, FaultInjector, FaultKind, FaultSchedule,
};
use ringmesh_net::{
    CacheLineSize, Interconnect, NetCore, NodeId, Packet, PacketFormat, PacketKind, PacketRef,
    QueueClass, TxnId, UtilizationReport,
};
use ringmesh_snap::{Codec, Snap, SnapError, SnapReader, SnapWriter};

use crate::processor::PendingRef;
use crate::retry::{OpenTxn, RetryBook};
use crate::{
    MemoryParams, MissProcess, Mmrp, MmrpStats, PacketSizer, Placement, ProcessorStats, Region,
    RetryPolicy, RetryStats, WorkloadParams,
};

/// A processor as first modelled: a countdown ticked every cycle.
struct RefProcessor {
    pm: NodeId,
    countdown: u32,
    outstanding: u32,
    pending: Option<PendingRef>,
    region: Region,
    rng: SimRng,
    stats: ProcessorStats,
}

/// A memory module: responses and local completions in ready order.
struct RefMemory {
    pm: NodeId,
    pending: VecDeque<(u64, Packet)>,
    local: VecDeque<(u64, u64)>,
    last_start: Option<u64>,
    served: u64,
}

/// The reference driver.
struct Reference {
    params: WorkloadParams,
    mem: MemoryParams,
    sizer: PacketSizer,
    procs: Vec<RefProcessor>,
    mems: Vec<RefMemory>,
    txn_seq: u64,
    stats: MmrpStats,
    retry: Option<RetryBook>,
}

impl Reference {
    fn new(
        placement: Placement,
        params: WorkloadParams,
        mem: MemoryParams,
        sizer: PacketSizer,
        seed: u64,
    ) -> Self {
        let root = SimRng::from_seed(seed);
        let interval = params.miss_interval() as usize;
        let procs = (0..placement.num_pms())
            .map(|i| {
                let pm = NodeId::new(i);
                let mut rng = root.stream(u64::from(i));
                let countdown = 1 + rng.uniform_usize(interval) as u32;
                RefProcessor {
                    pm,
                    countdown,
                    outstanding: 0,
                    pending: None,
                    region: Region::new(placement, pm, params.region),
                    rng,
                    stats: ProcessorStats::default(),
                }
            })
            .collect();
        let mems = (0..placement.num_pms())
            .map(|i| RefMemory {
                pm: NodeId::new(i),
                pending: VecDeque::new(),
                local: VecDeque::new(),
                last_start: None,
                served: 0,
            })
            .collect();
        Reference {
            params,
            mem,
            sizer,
            procs,
            mems,
            txn_seq: 0,
            stats: MmrpStats::default(),
            retry: None,
        }
    }

    fn retry_stats(&self) -> RetryStats {
        self.retry.as_ref().map(|b| b.stats).unwrap_or_default()
    }

    /// Service start at `now` for memory `i`, honouring occupancy.
    fn start(&mut self, i: usize, now: u64) -> u64 {
        let m = &mut self.mems[i];
        let start = match m.last_start {
            Some(last) => now.max(last + u64::from(self.mem.occupancy)),
            None => now,
        };
        m.last_start = Some(start);
        m.served += 1;
        start
    }

    /// One cycle of miss generation at processor `i`: the reference
    /// that wants to issue now, if any.
    fn tick(&mut self, i: usize, now: u64) -> Option<PendingRef> {
        let (params, p) = (&self.params, &mut self.procs[i]);
        if p.pending.is_none() {
            if p.countdown > 0 {
                p.countdown -= 1;
            }
            if p.countdown == 0 {
                let dst = match params.hot_spot {
                    Some(h) if p.rng.bernoulli(h.fraction) => NodeId::new(h.node),
                    _ => p.region.nth(p.rng.uniform_usize(p.region.len())),
                };
                let kind = if p.rng.bernoulli(params.read_fraction) {
                    PacketKind::ReadReq
                } else {
                    PacketKind::WriteReq
                };
                let free = p.outstanding < params.outstanding;
                p.pending = Some(PendingRef {
                    dst,
                    kind,
                    issued_at: if free { now } else { u64::MAX },
                });
            }
        }
        match p.pending.as_mut() {
            Some(want) if p.outstanding < params.outstanding => {
                if want.issued_at == u64::MAX {
                    want.issued_at = now;
                }
                Some(*want)
            }
            Some(_) => {
                p.stats.blocked_cycles += 1;
                None
            }
            None => None,
        }
    }

    fn issued(&mut self, i: usize) {
        let (params, p) = (&self.params, &mut self.procs[i]);
        p.pending = None;
        p.outstanding += 1;
        p.stats.issued += 1;
        p.countdown = match params.miss_process {
            MissProcess::Deterministic => params.miss_interval(),
            MissProcess::Geometric => p.rng.geometric(params.miss_rate) as u32,
        };
        self.stats.issued += 1;
    }

    fn retire(&mut self, i: usize) {
        let p = &mut self.procs[i];
        assert!(p.outstanding > 0, "reference retire at {}", p.pm);
        p.outstanding -= 1;
        p.stats.retired += 1;
    }

    fn pre_cycle(&mut self, net: &mut dyn Interconnect, now: u64, samples: &mut Vec<(u64, f64)>) {
        for i in 0..self.mems.len() {
            while let Some(&(ready, issued_at)) = self.mems[i].local.front() {
                if ready > now {
                    break;
                }
                self.mems[i].local.pop_front();
                self.retire(i);
                self.stats.retired += 1;
                self.stats.local_retired += 1;
                samples.push((now, (now - issued_at) as f64));
            }
            let m = &mut self.mems[i];
            while let Some(&(ready, resp)) = m.pending.front() {
                if ready > now || !net.can_inject(m.pm, QueueClass::Response) {
                    break;
                }
                m.pending.pop_front();
                net.inject(m.pm, resp);
            }
        }
        self.process_retries(net, now);
        for i in 0..self.procs.len() {
            let pm = self.procs[i].pm;
            if !net.pm_alive(pm) {
                continue;
            }
            let Some(want) = self.tick(i, now) else {
                continue;
            };
            if want.dst == pm {
                let ready = self.start(i, now) + u64::from(self.mem.latency);
                self.mems[i].local.push_back((ready, want.issued_at));
                self.issued(i);
                self.txn_seq += 1;
            } else if self.retry.is_some() && !net.pm_alive(want.dst) {
                self.issued(i);
                self.retire(i);
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
                    let entry = OpenTxn {
                        pm,
                        dst: want.dst,
                        kind: want.kind,
                        flits,
                        issued_at: want.issued_at,
                        attempt: 1,
                    };
                    book.track(self.txn_seq, entry, now);
                }
                self.issued(i);
            } else {
                self.procs[i].stats.blocked_cycles += 1;
            }
        }
    }

    fn process_retries(&mut self, net: &mut dyn Interconnect, now: u64) {
        let Some(mut book) = self.retry.take() else {
            return;
        };
        while let Some(&(due, txn, attempt)) = book.deadlines.front() {
            if due > now {
                break;
            }
            book.deadlines.pop_front();
            if book.open.get(&txn).is_none_or(|e| e.attempt != attempt) {
                continue;
            }
            let entry = book.open.remove(&txn).expect("presence checked");
            book.stats.timeouts += 1;
            if entry.attempt >= book.policy.max_attempts {
                book.stats.gave_up += 1;
                self.retire(entry.pm.index());
            } else {
                let due = book.backoff_until(now, entry.attempt);
                let next = OpenTxn {
                    attempt: entry.attempt + 1,
                    ..entry
                };
                book.retry_at.push((due, next));
            }
        }
        let mut i = 0;
        while i < book.retry_at.len() {
            let (due, entry) = book.retry_at[i];
            if due > now {
                i += 1;
            } else if !net.pm_alive(entry.pm) || !net.pm_alive(entry.dst) {
                book.retry_at.swap_remove(i);
                book.stats.dead_drops += 1;
                book.stats.gave_up += 1;
                self.retire(entry.pm.index());
            } else if !net.can_inject(entry.pm, QueueClass::of(entry.kind)) {
                i += 1;
            } else {
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
        self.retry = Some(book);
    }

    fn post_cycle(
        &mut self,
        delivered: &[(NodeId, Packet)],
        now: u64,
        samples: &mut Vec<(u64, f64)>,
    ) {
        for &(dst, pkt) in delivered {
            let i = dst.index();
            if pkt.kind.is_request() {
                let ready = self.start(i, now) + u64::from(self.mem.latency);
                let kind = pkt.kind.response();
                let resp = Packet {
                    txn: pkt.txn,
                    kind,
                    src: dst,
                    dst: pkt.src,
                    flits: self.sizer.flits(kind),
                    injected_at: pkt.injected_at,
                };
                self.mems[i].pending.push_back((ready, resp));
                continue;
            }
            if let Some(book) = self.retry.as_mut() {
                if book.open.remove(&pkt.txn.raw()).is_none() {
                    book.stats.stale_responses += 1;
                    continue;
                }
            }
            self.retire(i);
            self.stats.retired += 1;
            samples.push((now, (now - pkt.injected_at) as f64));
        }
    }

    /// The checkpoint layout of the driver.
    fn checkpoint(&mut self, w: &mut SnapWriter) -> Result<(), SnapError> {
        self.txn_seq.snap(w)?;
        self.stats.snap(w)?;
        self.procs.len().snap(w)?;
        for p in &mut self.procs {
            p.pm.snap(w)?;
            p.countdown.snap(w)?;
            p.outstanding.snap(w)?;
            p.pending.snap(w)?;
            p.rng.snap(w)?;
            p.stats.snap(w)?;
        }
        self.mems.len().snap(w)?;
        for m in &mut self.mems {
            m.pm.snap(w)?;
            m.pending.snap(w)?;
            m.local.snap(w)?;
            m.last_start.snap(w)?;
            m.served.snap(w)?;
        }
        self.retry.is_some().snap(w)?;
        if let Some(book) = &mut self.retry {
            book.snap(w)?;
        }
        Ok(())
    }
}

/// Queue index of a class at a fake NIC: responses drain first.
fn class_index(class: QueueClass) -> usize {
    match class {
        QueueClass::Response => 0,
        QueueClass::Request => 1,
    }
}

/// A network whose NICs can refuse: each PM has a queue of `cap`
/// packets per class and drains one packet every `period` cycles
/// (responses first) onto a wire that delivers after `delay` cycles.
/// It runs over a [`NetCore`], so the requests it drops and the
/// packets to or from a dead PM leave through [`NetCore::drop_packet`],
/// and each drained packet reports room at its PM through
/// [`NetCore::room_at`] — which only the driver under test reads.
struct Fake {
    core: NetCore,
    cap: usize,
    period: u64,
    queues: Vec<[VecDeque<PacketRef>; 2]>,
    wire: VecDeque<(u64, PacketRef)>,
    delay: u64,
    drop_first: u32,
    dropped: u32,
    blackhole: Option<NodeId>,
    /// Every injection, in order, as `(txn, src, dst, kind, injected_at)`.
    log: Vec<(u64, u32, u32, PacketKind, u64)>,
    refusals: Cell<u64>,
}

impl Fake {
    fn new(pms: u32, cap: usize) -> Self {
        Fake {
            core: NetCore::new(1_000),
            cap,
            period: 3,
            queues: (0..pms).map(|_| Default::default()).collect(),
            wire: VecDeque::new(),
            delay: 2,
            drop_first: 0,
            dropped: 0,
            blackhole: None,
            log: Vec::new(),
            refusals: Cell::new(0),
        }
    }

    /// Fail-stops each `(pm, cycle)`.
    fn kill(mut self, deaths: &[(u32, u64)]) -> Self {
        let events = deaths
            .iter()
            .map(|&(node, at)| FaultEvent {
                at,
                kind: FaultKind::NodeDead { node },
            })
            .collect();
        let schedule = FaultSchedule::from_events(1, 0.0, events);
        let injector = FaultInjector::new(&schedule, self.fault_domain());
        self.set_faults(injector);
        self
    }
}

impl Snap for Fake {
    fn snap<C: Codec>(&mut self, _c: &mut C) -> Result<(), SnapError> {
        unreachable!("the oracle never checkpoints its network")
    }
}

impl Interconnect for Fake {
    fn core(&self) -> &NetCore {
        &self.core
    }
    fn core_mut(&mut self) -> &mut NetCore {
        &mut self.core
    }
    fn num_pms(&self) -> usize {
        self.queues.len()
    }
    fn can_inject(&self, pm: NodeId, class: QueueClass) -> bool {
        let room = self.queues[pm.index()][class_index(class)].len() < self.cap;
        if !room {
            self.refusals.set(self.refusals.get() + 1);
        }
        room
    }
    fn enqueue(&mut self, pm: NodeId, class: QueueClass, r: PacketRef) {
        let queue = &mut self.queues[pm.index()][class_index(class)];
        assert!(queue.len() < self.cap, "inject into a full queue at {pm}");
        queue.push_back(r);
        let p = self.core.store().get(r);
        let entry = (p.txn.raw(), p.src.raw(), p.dst.raw(), p.kind, p.injected_at);
        self.log.push(entry);
    }
    fn advance(&mut self, delivered: &mut Vec<(NodeId, Packet)>) -> u64 {
        let now = self.core.cycle();
        let mut moved = self.wire.len() as u64;
        for pm in 0..self.queues.len() {
            if !(now + pm as u64).is_multiple_of(self.period) {
                continue;
            }
            let [resp, req] = &mut self.queues[pm];
            let Some(r) = resp.pop_front().or_else(|| req.pop_front()) else {
                continue;
            };
            self.core.room_at(NodeId::new(pm as u32));
            moved += 1;
            let p = *self.core.store().get(r);
            let doomed = p.kind.is_request()
                && (self.dropped < self.drop_first || self.blackhole == Some(p.dst));
            if doomed {
                self.dropped += 1;
            }
            if doomed || !self.pm_alive(p.src) || !self.pm_alive(p.dst) {
                self.core.drop_packet(r, DropReason::DeadInterface);
            } else {
                self.wire.push_back((now + self.delay, r));
            }
        }
        while let Some(&(at, r)) = self.wire.front() {
            if at > now {
                break;
            }
            self.wire.pop_front();
            let dst = self.core.store().get(r).dst;
            self.core.deliver(r, dst, delivered);
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
            nodes: self.queues.len() as u32,
        }
    }
}

/// One lockstep scenario.
struct Case {
    name: &'static str,
    pms: u32,
    params: WorkloadParams,
    retry: Option<RetryPolicy>,
    /// Builds one of the twin networks.
    net: fn() -> Fake,
    /// Timestamp deliveries with the next cycle (the driver's own unit
    /// tests) instead of the cycle they happened in (`System`).
    post_at_next: bool,
    cycles: u64,
}

const MEMORY: MemoryParams = MemoryParams {
    latency: 6,
    occupancy: 2,
};
const SIZER: PacketSizer = PacketSizer {
    format: PacketFormat::RING,
    cache_line: CacheLineSize::B32,
};
const SEED: u64 = 0x0dd_ba11;

fn driver(case: &Case) -> Mmrp {
    let placement = Placement::Linear { pms: case.pms };
    let wl = Mmrp::new(placement, case.params, MEMORY, SIZER, SEED);
    match case.retry {
        Some(policy) => wl.with_retry(policy),
        None => wl,
    }
}

fn state_bytes(save: impl FnOnce(&mut SnapWriter) -> Result<(), SnapError>) -> Vec<u8> {
    let mut w = SnapWriter::new();
    save(&mut w).unwrap();
    w.into_bytes()
}

/// What a case exercised, summed over the run.
#[derive(Debug, Default)]
struct Seen {
    refusals: u64,
    blocked: u64,
    samples: usize,
}

fn lockstep(case: &Case) -> Seen {
    let name = case.name;
    let (mut dut_net, mut ref_net) = ((case.net)(), (case.net)());
    let mut dut = driver(case);
    let placement = Placement::Linear { pms: case.pms };
    let mut reference = Reference::new(placement, case.params, MEMORY, SIZER, SEED);
    reference.retry = case.retry.map(RetryBook::new);
    let mut seen = Seen::default();
    let (mut dut_out, mut ref_out) = (Vec::new(), Vec::new());
    for now in 0..case.cycles {
        let (mut dut_samples, mut ref_samples) = (Vec::new(), Vec::new());
        dut.pre_cycle(&mut dut_net, now, &mut dut_samples);
        reference.pre_cycle(&mut ref_net, now, &mut ref_samples);
        dut_out.clear();
        ref_out.clear();
        dut_net.step(&mut dut_out).unwrap();
        ref_net.step(&mut ref_out).unwrap();
        assert_eq!(dut_out, ref_out, "{name} @{now}: deliveries");
        let post_now = if case.post_at_next { now + 1 } else { now };
        dut.post_cycle(&mut dut_net, &dut_out, post_now, &mut dut_samples);
        reference.post_cycle(&ref_out, post_now, &mut ref_samples);

        assert_eq!(dut_net.log, ref_net.log, "{name} @{now}: injections");
        dut_net.log.clear();
        ref_net.log.clear();
        assert_eq!(dut_samples, ref_samples, "{name} @{now}: samples");
        assert_eq!(dut.stats(), reference.stats, "{name} @{now}: MmrpStats");
        let retry = reference.retry_stats();
        assert_eq!(dut.retry_stats(), retry, "{name} @{now}: RetryStats");
        for p in &reference.procs {
            let got = dut.processor_stats(p.pm);
            assert_eq!(got, p.stats, "{name} @{now}: processor {}", p.pm);
        }
        seen.samples += ref_samples.len();

        if now % 97 == 96 || now == case.cycles / 2 {
            let bytes = state_bytes(|w| dut.snap(w));
            let want = state_bytes(|w| reference.checkpoint(w));
            assert!(bytes == want, "{name} @{now}: checkpoint bytes differ");
            if now == case.cycles / 2 {
                let mut resumed = driver(case);
                resumed.snap(&mut SnapReader::new(&bytes)).unwrap();
                dut = resumed;
            }
        }
    }
    for net in [&dut_net, &ref_net] {
        net.verify_conservation()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
    seen.refusals = ref_net.refusals.get();
    seen.blocked = reference.procs.iter().map(|p| p.stats.blocked_cycles).sum();
    seen
}

fn uniform(t: u32, c: f64) -> WorkloadParams {
    WorkloadParams {
        miss_rate: c,
        ..WorkloadParams::paper_baseline().with_outstanding(t)
    }
}

const RETRY: RetryPolicy = RetryPolicy {
    timeout: 40,
    max_attempts: 3,
    backoff: 4,
};

fn run(case: Case) {
    let seen = lockstep(&case);
    assert!(seen.samples > 20, "{}: {seen:?}", case.name);
    assert!(seen.refusals > 0, "{}: no NIC refusal: {seen:?}", case.name);
    assert!(seen.blocked > 0, "{}: nothing blocked: {seen:?}", case.name);
}

#[test]
fn one_outstanding_parks_and_wakes_exactly() {
    run(Case {
        name: "T=1",
        pms: 8,
        params: uniform(1, 0.2),
        retry: None,
        net: || Fake::new(8, 1),
        post_at_next: false,
        cycles: 1_500,
    });
}

#[test]
fn four_outstanding_under_nic_refusal() {
    run(Case {
        name: "T=4",
        pms: 8,
        params: uniform(4, 0.5),
        retry: None,
        net: || Fake::new(8, 1),
        post_at_next: true,
        cycles: 1_500,
    });
}

#[test]
fn local_traffic_retires_in_the_memory_phase() {
    run(Case {
        name: "R=0.2",
        pms: 16,
        params: uniform(2, 0.3).with_region(0.2),
        retry: None,
        net: || Fake::new(16, 1),
        post_at_next: false,
        cycles: 1_200,
    });
}

#[test]
fn geometric_misses_and_a_hot_spot() {
    run(Case {
        name: "geometric + hot spot",
        pms: 8,
        params: uniform(2, 0.3)
            .with_miss_process(MissProcess::Geometric)
            .with_hot_spot(3, 0.4),
        retry: None,
        net: || Fake::new(8, 2),
        post_at_next: false,
        cycles: 1_500,
    });
}

#[test]
fn drops_and_a_blackhole_under_retry() {
    run(Case {
        name: "drops + blackhole",
        pms: 8,
        params: uniform(2, 0.3),
        retry: Some(RETRY),
        net: || Fake {
            drop_first: 25,
            blackhole: Some(NodeId::new(5)),
            ..Fake::new(8, 1)
        },
        post_at_next: false,
        cycles: 1_500,
    });
}

#[test]
fn late_responses_under_retry() {
    run(Case {
        name: "delay",
        pms: 8,
        params: uniform(4, 0.3),
        retry: Some(RETRY),
        net: || Fake {
            delay: 45,
            ..Fake::new(8, 1)
        },
        post_at_next: true,
        cycles: 1_200,
    });
}

#[test]
fn pms_that_die_mid_run_under_retry() {
    run(Case {
        name: "deaths",
        pms: 8,
        params: uniform(1, 0.3),
        retry: Some(RETRY),
        net: || Fake::new(8, 1).kill(&[(3, 300), (6, 777), (0, 1_100)]),
        post_at_next: false,
        cycles: 1_500,
    });
}
