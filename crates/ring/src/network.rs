//! The hierarchical ring network simulator.

use ringmesh_faults::{DropReason, FaultDomain, FaultInjector};
use ringmesh_net::{LevelUtil, NetCore, NodeId, Packet, PacketRef, QueueClass, UtilizationReport};
use ringmesh_snap::{SnapError, SnapReader, SnapWriter, Snapshot, SnapshotState};
use ringmesh_trace::{Counter, EventKind, Gauge, Heatmap, HeatmapId, TraceLoc};

use crate::iri::{Iri, LOWER, UPPER};
use crate::nic::Nic;
use crate::station::{Send, StepPulse, Tick};
use crate::topology::{RingAction, RingSpec, RingTopology, StationKind};
use crate::RingConfig;

/// Which concrete component a station id maps to.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Nic(u32),
    Iri(u32),
}

/// A flit-level, cycle-accurate hierarchical ring network.
///
/// Implements [`ringmesh_net::Interconnect`] (as every
/// [`ringmesh_net::Kernel`] does); drive it with the
/// `ringmesh-workload` crate or directly as in the example below.
///
/// # Example
///
/// ```
/// use ringmesh_net::{CacheLineSize, Interconnect, NodeId, Packet, PacketFormat, PacketKind, TxnId};
/// use ringmesh_ring::{RingConfig, RingNetwork, RingSpec};
///
/// let spec = RingSpec::single(4);
/// let cfg = RingConfig::new(CacheLineSize::B32);
/// let mut net = RingNetwork::new(&spec, cfg.clone());
/// let kind = PacketKind::ReadReq;
/// net.inject(NodeId::new(0), Packet {
///     txn: TxnId::new(1), kind,
///     src: NodeId::new(0), dst: NodeId::new(2),
///     flits: cfg.format.flits(kind, cfg.cache_line),
///     injected_at: 0,
/// });
/// let mut delivered = Vec::new();
/// while delivered.is_empty() {
///     net.step(&mut delivered).unwrap();
/// }
/// assert_eq!(delivered[0].0, NodeId::new(2));
/// ```
#[derive(Debug)]
pub struct RingNetwork {
    topo: RingTopology,
    cfg: RingConfig,
    core: NetCore,
    slots: Vec<Slot>,
    nics: Vec<Nic>,
    iris: Vec<Iri>,
    nic_of_pm: Vec<u32>,
    /// Iteration order: every station side, with its fast-domain flag.
    side_order: Vec<(u32, u8, bool)>,
    /// Active-station worklist: `station_active[st]` is false only
    /// while station `st` is provably quiescent (`Nic::quiescent` /
    /// `Iri::quiescent`), letting the tick loop skip idle stations
    /// under light load. Set true again by any arriving flit or local
    /// injection.
    station_active: Vec<bool>,
    /// Registered downstream free-slot count per station side
    /// (`station*2 + side`).
    free: Vec<usize>,
    /// Index into `free` of each side's downstream buffer.
    free_idx: Vec<[usize; 2]>,
    sends: Vec<Send>,
    tick: u64,
    ticks_per_cycle: u64,
    ring_flits: Vec<u64>,
    /// Free transit flit slots per ring (the deadlock-avoidance
    /// credits: ring entry requires at least two remaining).
    ring_credits: Vec<i64>,
    reset_tick: u64,
    /// Link-utilization heatmap handle (rows = rings, cols = member
    /// position on the ring), registered when a recording tracer is
    /// installed.
    link_heat: Option<HeatmapId>,
    /// Member position of each station side within its ring
    /// (`[station][side]`), for heatmap columns.
    member_idx: Vec<[usize; 2]>,
    /// Per-tick scratch: packets sunk at dead IRIs, pending removal.
    sunk: Vec<PacketRef>,
}

impl RingNetwork {
    /// Builds the network for `spec` under `cfg`.
    pub fn new(spec: &RingSpec, cfg: RingConfig) -> Self {
        let topo = RingTopology::new(spec);
        let n_st = topo.num_stations();
        let mut slots = Vec::with_capacity(n_st);
        let mut nics = Vec::new();
        let mut iris = Vec::new();
        let mut nic_of_pm = vec![0u32; topo.num_pms() as usize];
        let buf_flits = cfg.ring_buffer_flits();
        let up_q_flits = cfg.iri_queue_flits();
        let down_q_flits = cfg.iri_down_queue_flits();
        for st in 0..n_st as u32 {
            match topo.station(st) {
                StationKind::Nic { pm } => {
                    nic_of_pm[pm.index()] = nics.len() as u32;
                    slots.push(Slot::Nic(nics.len() as u32));
                    nics.push(Nic::new(
                        pm,
                        topo.ring_of(st, 0),
                        topo.next_of(st, 0),
                        buf_flits,
                        cfg.out_queue_packets,
                    ));
                }
                StationKind::Iri { subtree } => {
                    slots.push(Slot::Iri(iris.len() as u32));
                    iris.push(Iri::new(
                        subtree,
                        [topo.ring_of(st, 0), topo.ring_of(st, 1)],
                        [topo.next_of(st, 0), topo.next_of(st, 1)],
                        buf_flits,
                        up_q_flits,
                        down_q_flits,
                        cfg.convoy_threshold_packets
                            .saturating_mul(cfg.format.cl_packet_flits(cfg.cache_line) as usize),
                    ));
                }
            }
        }
        let fast_ring = |ring: u32| cfg.global_ring_speedup == 2 && ring == 0;
        let mut side_order = Vec::new();
        let mut free_idx = vec![[0usize; 2]; n_st];
        for st in 0..n_st as u32 {
            let sides: &[u8] = match topo.station(st) {
                StationKind::Nic { .. } => &[0],
                StationKind::Iri { .. } => &[0, 1],
            };
            for &side in sides {
                side_order.push((st, side, fast_ring(topo.ring_of(st, side))));
                let (dst, dside) = topo.next_of(st, side);
                free_idx[st as usize][side as usize] = dst as usize * 2 + dside as usize;
            }
        }
        let ticks_per_cycle = if cfg.global_ring_speedup == 2 { 2 } else { 1 };
        let num_rings = topo.num_rings();
        let ring_credits: Vec<i64> = (0..num_rings as u32)
            .map(|r| (topo.ring(r).members.len() * buf_flits) as i64)
            .collect();
        let mut member_idx = vec![[0usize; 2]; n_st];
        for (_rid, ring) in topo.rings() {
            for (m, &(st, side)) in ring.members.iter().enumerate() {
                member_idx[st as usize][side as usize] = m;
            }
        }
        RingNetwork {
            topo,
            core: NetCore::new(cfg.watchdog_horizon),
            cfg,
            slots,
            nics,
            iris,
            nic_of_pm,
            side_order,
            station_active: vec![true; n_st],
            free: vec![buf_flits; n_st * 2],
            free_idx,
            sends: Vec::new(),
            tick: 0,
            ticks_per_cycle,
            ring_flits: vec![0; num_rings],
            ring_credits,
            reset_tick: 0,
            link_heat: None,
            member_idx,
            sunk: Vec::new(),
        }
    }

    /// The expanded topology.
    pub fn topology(&self) -> &RingTopology {
        &self.topo
    }

    /// The configuration the network was built with.
    pub fn config(&self) -> &RingConfig {
        &self.cfg
    }

    /// Clock multiplier of ring `ring` (2 for a double-speed global
    /// ring, else 1).
    fn ring_speed(&self, ring: u32) -> u64 {
        if self.cfg.global_ring_speedup == 2 && ring == 0 {
            2
        } else {
            1
        }
    }

    /// Whether station `st` is a dead IRI.
    fn iri_dead(&self, f: &FaultInjector, st: u32) -> bool {
        match self.slots[st as usize] {
            Slot::Iri(x) => f.node_dead(x),
            Slot::Nic(_) => false,
        }
    }

    fn run_tick(&mut self, delivered: &mut Vec<(NodeId, Packet)>, pulse: &mut StepPulse) {
        let now = self.tick;
        let cycle_now = now / self.ticks_per_cycle;
        // With a double-speed global ring the kernel ticks twice per
        // cycle: every station runs on even ticks; only the fast
        // (global-ring) sides also run on odd ticks.
        let all_active = now.is_multiple_of(self.ticks_per_cycle);
        self.sends.clear();
        let mut t = Tick {
            now,
            credits: &mut self.ring_credits,
            core: &mut self.core,
            sends: &mut self.sends,
            delivered,
            sunk: &mut self.sunk,
            pulse,
        };
        for i in 0..self.side_order.len() {
            let (st, side, fast) = self.side_order[i];
            if !(all_active || fast) {
                continue;
            }
            // Skip provably-idle stations; a skipped step is a no-op by
            // construction (see `Nic::quiescent`/`Iri::quiescent`), so
            // the tick stream is identical to stepping everything.
            if !self.station_active[st as usize] {
                continue;
            }
            let free_out = self.free[self.free_idx[st as usize][side as usize]];
            // Fault view for this side: the output link `station*2 +
            // side`, and (for IRIs) whether the interface is dead.
            let faults = t.core.faults();
            let link_up = faults.is_none_or(|f| f.link_up(st * 2 + side as u32, cycle_now));
            let quiescent = match self.slots[st as usize] {
                Slot::Nic(n) => {
                    let nic = &mut self.nics[n as usize];
                    nic.step(&mut t, link_up, free_out);
                    nic.quiescent()
                }
                Slot::Iri(x) => {
                    let dead = faults.is_some_and(|f| f.node_dead(x));
                    let iri = &mut self.iris[x as usize];
                    iri.step_side(side as usize, &mut t, link_up, dead, free_out);
                    iri.quiescent()
                }
            };
            if quiescent {
                self.station_active[st as usize] = false;
            }
        }
        // Retire packets sunk at dead IRIs this tick: their flits were
        // consumed in place, so only the bookkeeping remains.
        for r in self.sunk.drain(..) {
            self.core.drop_packet(r, DropReason::DeadInterface);
        }
        // Commit the wire transfers decided this tick.
        for i in 0..self.sends.len() {
            let s = self.sends[i];
            let (st, side) = s.to;
            match self.slots[st as usize] {
                Slot::Nic(n) => self.nics[n as usize].ring_buf_mut().push(s.flit, now),
                Slot::Iri(x) => self.iris[x as usize]
                    .buf_mut(side as usize)
                    .push(s.flit, now),
            }
            self.station_active[st as usize] = true;
            self.ring_flits[s.ring as usize] += 1;
        }
        pulse.moved += self.sends.len() as u64;
        if self.core.tracing() {
            self.trace_sends(now);
        }
        // Latch registered flow-control state for the next tick.
        for st in 0..self.slots.len() {
            match self.slots[st] {
                Slot::Nic(n) => {
                    self.free[st * 2] = self.nics[n as usize].latch();
                }
                Slot::Iri(x) => {
                    let (lo, up) = self.iris[x as usize].latch();
                    self.free[st * 2 + LOWER] = lo;
                    self.free[st * 2 + UPPER] = up;
                }
            }
        }
        self.tick += 1;
        #[cfg(debug_assertions)]
        self.check_credit_invariant();
    }

    /// Tracing for the wire transfers committed this tick: one heatmap
    /// bump per link transfer, one Hop event per sampled head flit.
    /// Only called while the tracer is enabled.
    fn trace_sends(&mut self, now: u64) {
        let cycle = now / self.ticks_per_cycle;
        let n = self.sends.len() as u64;
        self.core.tracer().count(Counter::FlitsForwarded, n);
        for i in 0..self.sends.len() {
            let s = self.sends[i];
            let (st, side) = s.to;
            if let Some(id) = self.link_heat {
                let col = self.member_idx[st as usize][side as usize];
                self.core.tracer().heatmap(id, s.ring as usize, col, 1);
            }
            if s.flit.is_head() {
                let txn = self.core.store().get(s.flit.packet).txn.raw();
                self.core.tracer().event(
                    txn,
                    cycle,
                    TraceLoc::RingStation {
                        ring: s.ring,
                        station: st,
                    },
                    EventKind::Hop,
                );
            }
        }
    }

    /// Debug-only: the credit counters must equal each ring's actual
    /// free transit-buffer slots.
    #[cfg(debug_assertions)]
    fn check_credit_invariant(&self) {
        for (rid, ring) in self.topo.rings() {
            let mut occupied = 0usize;
            for &(st, side) in &ring.members {
                occupied += match self.slots[st as usize] {
                    Slot::Nic(n) => self.nics[n as usize].ring_buf().len(),
                    Slot::Iri(x) => self.iris[x as usize].buf(side as usize).len(),
                };
            }
            // Credits equal capacity minus occupancy minus slots still
            // reserved by in-progress entries, so they are bounded by
            // the actual free count and must never hit zero.
            let cap = ring.members.len() * self.cfg.ring_buffer_flits();
            let free = cap as i64 - occupied as i64;
            let c = self.ring_credits[rid as usize];
            assert!(
                c >= 1 && c <= free,
                "ring {rid} credit corruption at tick {}: credits={c} free={free}",
                self.tick
            );
        }
    }
}

impl ringmesh_net::Kernel for RingNetwork {
    fn core(&self) -> &NetCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut NetCore {
        &mut self.core
    }

    fn num_pms(&self) -> usize {
        self.topo.num_pms() as usize
    }

    fn can_inject(&self, pm: NodeId, class: QueueClass) -> bool {
        self.nics[self.nic_of_pm[pm.index()] as usize].can_accept(class)
    }

    fn enqueue(&mut self, pm: NodeId, class: QueueClass, packet: PacketRef) {
        self.nics[self.nic_of_pm[pm.index()] as usize].enqueue(class, packet);
        self.station_active[self.topo.nic_of(pm) as usize] = true;
    }

    fn advance(&mut self, delivered: &mut Vec<(NodeId, Packet)>) -> u64 {
        let mut pulse = StepPulse::default();
        for _ in 0..self.ticks_per_cycle {
            self.run_tick(delivered, &mut pulse);
        }
        if self.core.tracing() {
            let nic_flits: usize = self.nics.iter().map(|n| n.ring_buf().len()).sum();
            let iri_flits: usize = self.iris.iter().map(|i| i.occupancy()).sum();
            let queued: usize = self.iris.iter().map(|i| i.queue_flits()).sum();
            let tracer = self.core.tracer();
            tracer.count(Counter::BlockedCycles, pulse.blocked);
            tracer.count(Counter::IriCrossings, pulse.crossed);
            tracer.gauge(Gauge::RingBufferOccupancy, (nic_flits + iri_flits) as f64);
            tracer.gauge(Gauge::IriQueueOccupancy, queued as f64);
        }
        pulse.moved
    }

    fn utilization(&self) -> UtilizationReport {
        let cycles = (self.tick - self.reset_tick) / self.ticks_per_cycle;
        if cycles == 0 {
            return UtilizationReport::default();
        }
        // Aggregate busy link-cycles and capacity per hierarchy depth.
        let levels = self.topo.levels();
        let mut busy = vec![0u64; levels];
        let mut cap = vec![0u64; levels];
        for (rid, ring) in self.topo.rings() {
            let d = ring.depth as usize;
            busy[d] += self.ring_flits[rid as usize];
            cap[d] += ring.members.len() as u64 * cycles * self.ring_speed(rid);
        }
        let mut report = UtilizationReport {
            overall: busy.iter().sum::<u64>() as f64 / cap.iter().sum::<u64>().max(1) as f64,
            levels: Vec::new(),
        };
        for d in 0..levels {
            report.levels.push(LevelUtil {
                label: self.topo.depth_label(d as u32),
                utilization: busy[d] as f64 / cap[d].max(1) as f64,
            });
        }
        report
    }

    fn reset_counters(&mut self) {
        self.ring_flits.iter_mut().for_each(|c| *c = 0);
        self.reset_tick = self.tick;
    }

    fn save_kernel(&self, w: &mut SnapWriter) {
        w.usize(self.nics.len());
        for nic in &self.nics {
            nic.save_state(w);
        }
        w.usize(self.iris.len());
        for iri in &self.iris {
            iri.save_state(w);
        }
        self.station_active.save(w);
        self.free.save(w);
        w.u64(self.tick);
        self.ring_flits.save(w);
        self.ring_credits.save(w);
        w.u64(self.reset_tick);
    }

    fn restore_kernel(&mut self, r: &mut SnapReader<'_>) -> Result<u64, SnapError> {
        r.len_exact(self.nics.len(), "NIC count")?;
        for nic in &mut self.nics {
            nic.restore_state(r)?;
        }
        r.len_exact(self.iris.len(), "IRI count")?;
        for iri in &mut self.iris {
            iri.restore_state(r)?;
        }
        self.station_active = r.vec_exact(self.station_active.len(), "station count")?;
        self.free = r.vec_exact(self.free.len(), "free-slot table size")?;
        self.tick = r.u64()?;
        self.ring_flits = r.vec_exact(self.ring_flits.len(), "ring count")?;
        self.ring_credits = r.vec_exact(self.ring_credits.len(), "ring-credit table size")?;
        self.reset_tick = r.u64()?;
        // Per-cycle scratch is always empty between steps.
        self.sends.clear();
        self.sunk.clear();
        Ok(self.tick / self.ticks_per_cycle)
    }

    /// Whether a live route exists from `src`'s NIC to `dst`. Ring
    /// routing is deterministic, so this walks the unique route and
    /// fails at the first dead IRI the packet would have to cross;
    /// forwarding *through* a dead IRI is still allowed (lazy
    /// fail-stop: the crossbar keeps switching, only the crossing
    /// queues are gone).
    fn reachable(&self, src: NodeId, dst: NodeId) -> bool {
        let Some(f) = self.core.faults() else {
            return true;
        };
        if !f.any_nodes_dead() {
            return true;
        }
        let mut pos = self.topo.next_of(self.topo.nic_of(src), 0);
        let bound = self.topo.num_stations() * 2 + 4;
        for _ in 0..bound {
            let (st, side) = pos;
            match self.topo.action(st, side, dst) {
                RingAction::Eject => return true,
                RingAction::Forward => pos = self.topo.next_of(st, side),
                RingAction::Up => {
                    if self.iri_dead(f, st) {
                        return false;
                    }
                    pos = self.topo.next_of(st, 1);
                }
                RingAction::Down => {
                    if self.iri_dead(f, st) {
                        return false;
                    }
                    pos = self.topo.next_of(st, 0);
                }
            }
        }
        unreachable!("routing walk did not terminate");
    }

    fn fault_domain(&self) -> FaultDomain {
        FaultDomain {
            // Directed ring link out of `station*2 + side`; NIC
            // stations use side 0 only, so side-1 events at a NIC are
            // addressable no-ops.
            links: self.topo.num_stations() as u32 * 2,
            nodes: self.iris.len() as u32,
        }
    }

    fn on_tracer_installed(&mut self) {
        let rows = self.topo.num_rings();
        let cols = self
            .topo
            .rings()
            .map(|(_, r)| r.members.len())
            .max()
            .unwrap_or(0);
        self.link_heat = self.core.tracer().add_heatmap(Heatmap::new(
            "flits forwarded per ring link",
            "ring",
            "member",
            rows,
            cols,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringmesh_net::{CacheLineSize, Interconnect, PacketKind, TxnId};

    fn packet(cfg: &RingConfig, txn: u64, kind: PacketKind, src: u32, dst: u32) -> Packet {
        Packet {
            txn: TxnId::new(txn),
            kind,
            src: NodeId::new(src),
            dst: NodeId::new(dst),
            flits: cfg.format.flits(kind, cfg.cache_line),
            injected_at: 0,
        }
    }

    fn deliver_all(net: &mut RingNetwork, expect: usize, max_cycles: u64) -> Vec<(NodeId, Packet)> {
        let mut out = Vec::new();
        for _ in 0..max_cycles {
            net.step(&mut out).unwrap();
            if out.len() >= expect {
                return out;
            }
        }
        panic!(
            "only {} of {expect} packets delivered in {max_cycles} cycles",
            out.len()
        );
    }

    #[test]
    fn single_flit_packet_takes_hop_count_cycles() {
        let cfg = RingConfig::new(CacheLineSize::B32);
        let spec = RingSpec::single(4);
        let mut net = RingNetwork::new(&spec, cfg.clone());
        net.inject(NodeId::new(0), packet(&cfg, 1, PacketKind::ReadReq, 0, 2));
        let mut delivered = Vec::new();
        let mut cycles = 0;
        while delivered.is_empty() {
            net.step(&mut delivered).unwrap();
            cycles += 1;
            assert!(cycles < 100);
        }
        // hops(0,2) = 2 on a 4-ring; add one cycle for ejection at the
        // destination NIC: the head flit leaves in the injection cycle.
        let hops = net.topology().hops(NodeId::new(0), NodeId::new(2)) as u64;
        assert_eq!(cycles, hops + 1);
    }

    #[test]
    fn multi_flit_packet_adds_serialization_latency() {
        let cfg = RingConfig::new(CacheLineSize::B128); // 9-flit responses
        let spec = RingSpec::single(4);
        let mut net = RingNetwork::new(&spec, cfg.clone());
        let p = packet(&cfg, 1, PacketKind::ReadResp, 0, 1);
        assert_eq!(p.flits, 9);
        net.inject(NodeId::new(0), p);
        let mut delivered = Vec::new();
        let mut cycles = 0;
        while delivered.is_empty() {
            net.step(&mut delivered).unwrap();
            cycles += 1;
            assert!(cycles < 100);
        }
        // hops + ejection + (flits - 1) pipeline fill.
        assert_eq!(cycles, 1 + 1 + 8);
    }

    #[test]
    fn crosses_ring_hierarchy() {
        let cfg = RingConfig::new(CacheLineSize::B32);
        let spec: RingSpec = "2:3".parse().unwrap();
        let mut net = RingNetwork::new(&spec, cfg.clone());
        net.inject(NodeId::new(0), packet(&cfg, 1, PacketKind::ReadReq, 0, 5));
        let got = deliver_all(&mut net, 1, 200);
        assert_eq!(got[0].0, NodeId::new(5));
        assert_eq!(got[0].1.txn, TxnId::new(1));
    }

    #[test]
    fn all_pairs_delivered_three_levels() {
        let cfg = RingConfig::new(CacheLineSize::B16);
        let spec: RingSpec = "2:2:3".parse().unwrap();
        let p = spec.num_pms();
        let mut net = RingNetwork::new(&spec, cfg.clone());
        let mut expected = 0;
        let mut txn = 0;
        for s in 0..p {
            for d in 0..p {
                if s != d && net.can_inject(NodeId::new(s), QueueClass::Request) {
                    txn += 1;
                    net.inject(NodeId::new(s), packet(&cfg, txn, PacketKind::ReadReq, s, d));
                    expected += 1;
                }
            }
        }
        assert!(expected >= p as usize as u32, "some injections must fit");
        let got = deliver_all(&mut net, expected as usize, 5_000);
        assert_eq!(got.len(), expected as usize);
    }

    #[test]
    fn zero_load_latency_matches_hops_prediction_across_hierarchy() {
        let cfg = RingConfig::new(CacheLineSize::B32);
        let spec: RingSpec = "2:3:4".parse().unwrap();
        for (src, dst) in [(0u32, 1u32), (0, 11), (0, 12), (5, 20), (23, 0)] {
            let mut net = RingNetwork::new(&spec, cfg.clone());
            net.inject(
                NodeId::new(src),
                packet(&cfg, 1, PacketKind::ReadReq, src, dst),
            );
            let mut delivered = Vec::new();
            let mut cycles = 0u64;
            while delivered.is_empty() {
                net.step(&mut delivered).unwrap();
                cycles += 1;
                assert!(cycles < 1000);
            }
            let hops = net.topology().hops(NodeId::new(src), NodeId::new(dst)) as u64;
            let crossings =
                net.topology()
                    .iri_crossings(NodeId::new(src), NodeId::new(dst)) as u64;
            assert_eq!(cycles, hops + crossings + 1, "src={src} dst={dst}");
        }
    }

    #[test]
    fn response_beats_request_at_injection() {
        let cfg = RingConfig::new(CacheLineSize::B32);
        let spec = RingSpec::single(4);
        let mut net = RingNetwork::new(&spec, cfg.clone());
        // Queue a request and a response at PM0 in the same cycle; the
        // response (3 flits) must be fully delivered before the request.
        net.inject(NodeId::new(0), packet(&cfg, 1, PacketKind::ReadReq, 0, 2));
        net.inject(NodeId::new(0), packet(&cfg, 2, PacketKind::ReadResp, 0, 2));
        let got = deliver_all(&mut net, 2, 100);
        assert_eq!(got[0].1.txn, TxnId::new(2), "response first");
        assert_eq!(got[1].1.txn, TxnId::new(1));
    }

    #[test]
    fn utilization_counts_only_after_reset() {
        let cfg = RingConfig::new(CacheLineSize::B32);
        let spec = RingSpec::single(4);
        let mut net = RingNetwork::new(&spec, cfg.clone());
        net.inject(NodeId::new(0), packet(&cfg, 1, PacketKind::ReadReq, 0, 3));
        let _ = deliver_all(&mut net, 1, 50);
        let before = net.utilization();
        assert!(before.overall > 0.0);
        net.reset_counters();
        let mut sink = Vec::new();
        for _ in 0..10 {
            net.step(&mut sink).unwrap();
        }
        let after = net.utilization();
        assert_eq!(after.overall, 0.0);
    }

    #[test]
    fn double_speed_global_ring_is_faster_across_rings() {
        let spec: RingSpec = "3:3:4".parse().unwrap();
        let mk = |speedup| {
            let cfg = RingConfig::new(CacheLineSize::B32).with_global_speedup(speedup);
            RingNetwork::new(&spec, cfg)
        };
        let cfg = RingConfig::new(CacheLineSize::B32);
        // PM 0 -> PM 35 crosses the global ring.
        let fly = |mut net: RingNetwork| -> u64 {
            net.inject(NodeId::new(0), packet(&cfg, 1, PacketKind::ReadReq, 0, 35));
            let mut delivered = Vec::new();
            let mut cycles = 0;
            while delivered.is_empty() {
                net.step(&mut delivered).unwrap();
                cycles += 1;
                assert!(cycles < 1000);
            }
            cycles
        };
        let normal = fly(mk(1));
        let fast = fly(mk(2));
        assert!(
            fast < normal,
            "double-speed global ring should cut latency: {fast} !< {normal}"
        );
    }

    #[test]
    fn conservation_no_packet_lost_or_duplicated() {
        let cfg = RingConfig::new(CacheLineSize::B64);
        let spec: RingSpec = "3:6".parse().unwrap();
        let mut net = RingNetwork::new(&spec, cfg.clone());
        let p = spec.num_pms();
        let mut injected = Vec::new();
        let mut txn = 0u64;
        // Inject a wave, run, inject another wave.
        for round in 0..5u32 {
            for s in 0..p {
                let d = (s + 1 + round) % p;
                if d != s && net.can_inject(NodeId::new(s), QueueClass::Request) {
                    txn += 1;
                    net.inject(NodeId::new(s), packet(&cfg, txn, PacketKind::ReadReq, s, d));
                    injected.push(txn);
                }
            }
            let mut sink = Vec::new();
            for _ in 0..30 {
                net.step(&mut sink).unwrap();
            }
        }
        let mut out = Vec::new();
        for _ in 0..2000 {
            net.step(&mut out).unwrap();
            if net.in_flight() == 0 {
                break;
            }
        }
        assert_eq!(net.in_flight(), 0, "network must drain");
        // Count all deliveries across rounds: re-run is awkward, so just
        // check the final drain saw the remainder and nothing twice.
        let mut seen: Vec<u64> = out.iter().map(|(_, p)| p.txn.raw()).collect();
        seen.sort_unstable();
        let before = seen.len();
        seen.dedup();
        assert_eq!(seen.len(), before, "duplicate deliveries");
    }

    use ringmesh_faults::{FaultEvent, FaultKind, FaultSchedule};

    fn install(net: &mut RingNetwork, events: Vec<FaultEvent>, corrupt: f64) {
        let schedule = FaultSchedule::from_events(7, corrupt, events);
        let domain = net.fault_domain();
        net.set_faults(FaultInjector::new(&schedule, domain), true);
    }

    #[test]
    fn dead_iri_sinks_cross_traffic_in_flight() {
        let cfg = RingConfig::new(CacheLineSize::B32);
        let spec: RingSpec = "2:3".parse().unwrap();
        let mut net = RingNetwork::new(&spec, cfg.clone());
        // IRI 0 joins subtree [0,3) to the global ring; kill it after
        // the packet below is already on its way.
        install(
            &mut net,
            vec![FaultEvent {
                at: 1,
                kind: FaultKind::NodeDead { node: 0 },
            }],
            0.0,
        );
        net.inject(NodeId::new(0), packet(&cfg, 1, PacketKind::ReadReq, 0, 5));
        let mut out = Vec::new();
        for _ in 0..200 {
            net.step(&mut out).unwrap();
            if net.in_flight() == 0 {
                break;
            }
        }
        assert!(out.is_empty(), "cross-ring packet must not be delivered");
        assert_eq!(net.in_flight(), 0, "sunk worm must fully drain");
        net.verify_conservation().unwrap();
        assert_eq!(net.faults().unwrap().report().drops.dead_interface, 1);
    }

    #[test]
    fn dead_iri_refuses_new_cross_traffic_but_local_flows() {
        let cfg = RingConfig::new(CacheLineSize::B32);
        let spec: RingSpec = "2:3".parse().unwrap();
        let mut net = RingNetwork::new(&spec, cfg.clone());
        install(
            &mut net,
            vec![FaultEvent {
                at: 0,
                kind: FaultKind::NodeDead { node: 0 },
            }],
            0.0,
        );
        // One step applies the cycle-0 death before any injection.
        let mut out = Vec::new();
        net.step(&mut out).unwrap();
        net.inject(NodeId::new(0), packet(&cfg, 1, PacketKind::ReadReq, 0, 5));
        net.inject(NodeId::new(0), packet(&cfg, 2, PacketKind::ReadReq, 0, 1));
        for _ in 0..100 {
            net.step(&mut out).unwrap();
            if net.in_flight() == 0 && out.len() == 1 {
                break;
            }
        }
        assert_eq!(out.len(), 1, "only the intra-ring packet arrives");
        assert_eq!(out[0].1.txn, TxnId::new(2));
        net.verify_conservation().unwrap();
        assert_eq!(net.faults().unwrap().report().drops.unreachable, 1);
    }

    #[test]
    fn transient_link_down_delays_but_loses_nothing() {
        let cfg = RingConfig::new(CacheLineSize::B32);
        let spec = RingSpec::single(4);
        let fly = |events: Vec<FaultEvent>| -> u64 {
            let mut net = RingNetwork::new(&spec, cfg.clone());
            install(&mut net, events, 0.0);
            net.inject(NodeId::new(0), packet(&cfg, 1, PacketKind::ReadReq, 0, 2));
            let mut out = Vec::new();
            let mut cycles = 0u64;
            while out.is_empty() {
                net.step(&mut out).unwrap();
                cycles += 1;
                assert!(cycles < 300, "packet lost behind a downed link");
            }
            net.verify_conservation().unwrap();
            cycles
        };
        let base = fly(Vec::new());
        // Down PM0's NIC output link (station 0, side 0 => link 0).
        let slow = fly(vec![FaultEvent {
            at: 0,
            kind: FaultKind::LinkDown { link: 0, until: 50 },
        }]);
        assert!(slow >= 50, "delivery must wait out the outage: {slow}");
        assert!(base < slow);
    }

    #[test]
    fn corruption_drops_at_ejection() {
        let cfg = RingConfig::new(CacheLineSize::B32);
        let spec = RingSpec::single(4);
        let mut net = RingNetwork::new(&spec, cfg.clone());
        install(&mut net, Vec::new(), 1.0);
        net.inject(NodeId::new(0), packet(&cfg, 1, PacketKind::ReadReq, 0, 2));
        let mut out = Vec::new();
        for _ in 0..100 {
            net.step(&mut out).unwrap();
            if net.in_flight() == 0 {
                break;
            }
        }
        assert!(out.is_empty(), "corrupted packet must be dropped");
        assert_eq!(net.in_flight(), 0);
        net.verify_conservation().unwrap();
        let report = net.faults().unwrap().report();
        assert_eq!(report.drops.corrupted, 1);
        assert_eq!(report.corrupt_marked, 1);
    }

    #[test]
    fn installed_but_empty_schedule_changes_nothing() {
        let cfg = RingConfig::new(CacheLineSize::B32);
        let spec: RingSpec = "2:3".parse().unwrap();
        let fly = |faulty: bool| -> u64 {
            let mut net = RingNetwork::new(&spec, cfg.clone());
            if faulty {
                install(&mut net, Vec::new(), 0.0);
            }
            net.inject(NodeId::new(0), packet(&cfg, 1, PacketKind::ReadReq, 0, 5));
            let mut out = Vec::new();
            let mut cycles = 0u64;
            while out.is_empty() {
                net.step(&mut out).unwrap();
                cycles += 1;
                assert!(cycles < 300);
            }
            cycles
        };
        assert_eq!(fly(false), fly(true));
    }
}
