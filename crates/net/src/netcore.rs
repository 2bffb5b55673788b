//! [`NetCore`], the accounting every network model shares, and
//! [`Interconnect`], the one trait every network implements over it.

use ringmesh_engine::{StallError, Watchdog};
use ringmesh_faults::{
    ConservationError, ConservationLedger, DropReason, FaultDomain, FaultInjector,
};
use ringmesh_snap::{Codec, DynSnap, Snap, SnapError};
use ringmesh_trace::{Counter, EventKind, Gauge, TraceLoc, Tracer, Work};

use crate::census::check_network;
use crate::interconnect::{QueueClass, UtilizationReport};
use crate::packet::{NodeId, Packet, PacketRef, PacketStore};

/// The state and bookkeeping common to every network model.
///
/// The source paper compares rings with meshes on one cycle-by-cycle
/// simulator with one count of injected, delivered and in-flight
/// packets. Here that count lives in `NetCore`: the packet store, the
/// clock, the stall watchdog, the tracer, the fault injector, the
/// conservation ledger and the corruption marks. A network is an
/// [`Interconnect`] — its buffers, its stepping order and a `NetCore`
/// field — and drives the core through five operations:
///
/// 1. **admit**: [`Interconnect::inject`] checks the packet's range and
///    reachability, [`NetCore::admit`] books it (or refuses it) and the
///    kernel only queues the resulting [`PacketRef`];
/// 2. **deliver** or **drop** a `PacketRef` ([`NetCore::deliver`],
///    [`NetCore::drop_packet`]) — the only two writers of the store and
///    the ledger once a packet is in;
/// 3. **begin and end a cycle** around [`Interconnect::advance`]
///    ([`Interconnect::step`]);
/// 4. the tracer, fault and conservation accessors of [`Interconnect`];
/// 5. **snapshot** ([`snap_network`]): the store ahead of the kernel's
///    section of a checkpoint, the watchdog and the ledger's counters
///    behind it;
/// 6. **report room**: a kernel that takes a packet off a PM's
///    injection queue names the PM with [`NetCore::room_at`], and the
///    driver reads the cycle's list through [`Interconnect::room`].
///
/// # The room contract
///
/// Between two steps only the driver's own injections change what
/// [`Interconnect::can_inject`] answers, and they only take room away.
/// So a PM refused at one cycle stays refused until a step frees a slot
/// of its queues, and every step that does must name the PM in
/// [`Interconnect::room`]. A driver may then park a refused PM until
/// its name comes up instead of asking again every cycle. Naming a PM
/// whose queues are still full is allowed; missing one is a bug.
///
/// # Orders that results depend on
///
/// * Admission draws [`FaultInjector::roll_corrupt`] from the fault
///   RNG, so its sequence is fixed: a refusal records the drop, books
///   the refusal, then counts it in the trace; an acceptance traces,
///   inserts into the store, books the injection, rolls the corruption
///   coin and only then queues.
/// * The store reuses slots in removal order and slots are checkpoint
///   bytes, so a kernel must call `deliver`/`drop_packet` in a fixed
///   order of its own (ring: NIC ejections in station order during the
///   tick, dead-IRI sinks after it; mesh: commit operations in router
///   order).
/// * The clock travels in the kernel's section of a checkpoint, where
///   each network has always written it, which is why a kernel's
///   [`Snap`] reaches it through [`NetCore::clock_mut`].
#[derive(Debug)]
pub struct NetCore {
    store: PacketStore,
    /// Completed [`Interconnect::step`]s.
    cycle: u64,
    watchdog: Watchdog,
    /// Observability sink; disabled (free) unless installed via
    /// [`Interconnect::set_tracer`].
    tracer: Tracer,
    /// Fault source; absent in fault-free runs, in which case every
    /// fault query answers "healthy" and behaviour is unchanged. Boxed,
    /// so a fault-free network carries a pointer, not the injector.
    faults: Option<Box<FaultInjector>>,
    /// Packet-conservation counters; the store is the record of which
    /// packets are live.
    ledger: ConservationLedger,
    /// Corruption marks by packet-store slot, rolled at admission while
    /// an injector is installed and cleared when it is taken.
    corrupt: Vec<bool>,
    /// Why each packet dropped this cycle was dropped; reported to the
    /// tracer and the injector when the cycle ends.
    dropped: Vec<DropReason>,
    /// PMs whose injection queues lost a packet this cycle, in the
    /// order the kernel took them (repeats allowed).
    room: Vec<NodeId>,
}

impl NetCore {
    /// An empty core at cycle 0 whose watchdog trips after
    /// `watchdog_horizon` cycles without flit movement.
    pub fn new(watchdog_horizon: u64) -> Self {
        NetCore {
            store: PacketStore::new(),
            cycle: 0,
            watchdog: Watchdog::new(watchdog_horizon),
            tracer: Tracer::off(),
            faults: None,
            ledger: ConservationLedger::default(),
            corrupt: Vec::new(),
            dropped: Vec::new(),
            room: Vec::new(),
        }
    }

    /// The current cycle (number of completed steps).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The clock, mutably, for a kernel's [`Snap`]: its section of a
    /// checkpoint carries the clock, and a restore sets it.
    pub fn clock_mut(&mut self) -> &mut u64 {
        &mut self.cycle
    }

    /// The packets in flight.
    pub fn store(&self) -> &PacketStore {
        &self.store
    }

    /// The installed fault injector, if any.
    pub fn faults(&self) -> Option<&FaultInjector> {
        self.faults.as_deref()
    }

    /// Corruption marks by packet-store slot; slots past the end are
    /// clean.
    pub fn corrupt(&self) -> &[bool] {
        &self.corrupt
    }

    /// Whether a tracer is listening. Kernels guard their per-flit
    /// trace blocks with this, so an untraced run pays one branch.
    pub fn tracing(&self) -> bool {
        self.tracer.is_enabled()
    }

    /// The tracer, for a kernel's own counters, gauges, heatmap bumps
    /// and hop events.
    pub fn tracer(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Books `packet`, injected at trace location `at`, and returns the
    /// reference the kernel queues — or refuses it, when no live route
    /// leads to its destination, and returns `None`: it could never be
    /// delivered, so it is dropped before it occupies anything.
    pub fn admit(&mut self, packet: Packet, reachable: bool, at: TraceLoc) -> Option<PacketRef> {
        if !reachable {
            if let Some(f) = &mut self.faults {
                f.record_drop(DropReason::Unreachable);
            }
            self.ledger.refuse();
            self.tracer.count(Counter::PacketsDropped, 1);
            return None;
        }
        if self.tracer.is_enabled() {
            self.tracer.count(Counter::PacketsInjected, 1);
            self.tracer.work(Work::PacketsAllocated, 1);
            self.tracer.event(
                packet.txn.raw(),
                self.cycle,
                at,
                EventKind::Inject {
                    src: packet.src.index() as u32,
                    dst: packet.dst.index() as u32,
                    flits: packet.flits,
                },
            );
        }
        let r = self.store.insert(packet);
        self.ledger.inject();
        if let Some(f) = &mut self.faults {
            // Roll the corruption coin now; slots are reused, so the
            // mark must be (re)written on every insert.
            let bad = f.roll_corrupt();
            if self.corrupt.len() <= r.slot() {
                self.corrupt.resize(r.slot() + 1, false);
            }
            self.corrupt[r.slot()] = bad;
        }
        Some(r)
    }

    /// Retires `r`, fully arrived and intact, as delivered at `to`.
    pub fn deliver(&mut self, r: PacketRef, to: NodeId, delivered: &mut Vec<(NodeId, Packet)>) {
        let packet = self.store.remove(r);
        self.ledger.complete(false);
        delivered.push((to, packet));
    }

    /// Retires `r` as explicitly dropped for `reason`.
    pub fn drop_packet(&mut self, r: PacketRef, reason: DropReason) {
        self.store.remove(r);
        self.ledger.complete(true);
        self.dropped.push(reason);
    }

    /// Reports that a packet left PM `pm`'s injection queues this
    /// cycle, so [`Interconnect::can_inject`] may answer yes again (see
    /// the room contract above).
    pub fn room_at(&mut self, pm: NodeId) {
        self.room.push(pm);
    }

    /// Announces the cycle to the tracer and applies the fault events
    /// due in it.
    fn begin_cycle(&mut self) {
        self.room.clear();
        self.tracer.cycle(self.cycle);
        if let Some(f) = &mut self.faults {
            f.advance(self.cycle);
        }
    }

    /// Closes a cycle in which `moved` flits moved and `delivered`
    /// packets arrived: reports the cycle's drops, counts and gauges
    /// the packet population, advances the clock and feeds the
    /// watchdog.
    fn end_cycle(&mut self, moved: u64, delivered: u64) -> Result<(), StallError> {
        if !self.dropped.is_empty() {
            self.tracer
                .count(Counter::PacketsDropped, self.dropped.len() as u64);
            if let Some(f) = &mut self.faults {
                for &reason in &self.dropped {
                    f.record_drop(reason);
                }
            }
            self.dropped.clear();
        }
        if self.tracer.is_enabled() {
            self.tracer.count(Counter::PacketsDelivered, delivered);
            self.tracer.work(Work::RoomEvents, self.room.len() as u64);
            self.tracer
                .gauge(Gauge::InFlightPackets, self.store.live() as f64);
        }
        debug_assert!(
            self.ledger.verify(self.store.live()).is_ok(),
            "conservation identity"
        );
        self.cycle += 1;
        self.watchdog.observe(self.cycle, moved, self.store.live());
        self.watchdog.check(self.cycle)
    }

    /// A checkpoint neither carries nor restores an injector's RNG and
    /// schedule position.
    fn refuse_with_faults(&self) -> Result<(), SnapError> {
        match self.faults {
            None => Ok(()),
            Some(_) => Err(SnapError::Mismatch(
                "a snapshot of a network with fault injection installed is not supported".into(),
            )),
        }
    }
}

/// A flit-level interconnection network connecting `P` processing
/// modules, advanced one clock cycle at a time: the one trait through
/// which the workload drives every network model.
///
/// Injection is two-step: the driver checks [`can_inject`] (the PM's NIC
/// output queue for the packet's class has room) and then calls
/// [`inject`]. Each [`step`] advances every network component one cycle
/// and appends fully-delivered packets to `delivered`.
///
/// A network implements the required methods — its [`NetCore`], its
/// buffers, how an admitted packet enters them, how they advance one
/// cycle, its utilization — and [`Snap`], whose `snap` is its own
/// section of a checkpoint (the clock included, through
/// [`NetCore::clock_mut`]; [`snap_network`] writes the rest). It may
/// override five hooks (`reachable`, `pm_alive`, `fault_domain`,
/// `trace_loc`, `on_tracer_installed`). Every other operation is
/// provided once, here, over the core.
///
/// [`can_inject`]: Interconnect::can_inject
/// [`inject`]: Interconnect::inject
/// [`step`]: Interconnect::step
pub trait Interconnect: DynSnap {
    /// The network's core.
    fn core(&self) -> &NetCore;

    /// The network's core, mutably.
    fn core_mut(&mut self) -> &mut NetCore;

    /// Number of processing modules attached to the network.
    fn num_pms(&self) -> usize;

    /// Whether PM `pm`'s output queue for `class` can accept a packet.
    fn can_inject(&self, pm: NodeId, class: QueueClass) -> bool;

    /// Queues a packet [`inject`](Interconnect::inject) admitted at PM
    /// `pm`'s network interface.
    fn enqueue(&mut self, pm: NodeId, class: QueueClass, packet: PacketRef);

    /// Advances every component one cycle ([`NetCore::cycle`], not yet
    /// incremented, is the cycle being stepped), retiring packets
    /// through [`NetCore::deliver`] and [`NetCore::drop_packet`], and
    /// returns how many flits moved — the watchdog's evidence of
    /// progress. Drivers call [`step`](Interconnect::step) instead.
    fn advance(&mut self, delivered: &mut Vec<(NodeId, Packet)>) -> u64;

    /// Utilization accumulated since the last
    /// [`reset_counters`](Interconnect::reset_counters).
    fn utilization(&self) -> UtilizationReport;

    /// Clears utilization counters (called at the end of the warm-up
    /// phase so statistics exclude initialization bias).
    fn reset_counters(&mut self);

    /// Whether a live route leads from `src` to `dst`; only a fault
    /// injector can cut one.
    fn reachable(&self, src: NodeId, dst: NodeId) -> bool {
        let _ = (src, dst);
        true
    }

    /// Whether PM `pm` is still alive. Workloads stop issuing from (and
    /// retrying toward) dead PMs.
    fn pm_alive(&self, pm: NodeId) -> bool {
        let _ = pm;
        true
    }

    /// The links and nodes a [`FaultInjector`] may target; empty for a
    /// network that models no faults, which then never holds an
    /// injector.
    fn fault_domain(&self) -> FaultDomain {
        FaultDomain::default()
    }

    /// Where PM `pm`'s inject and eject events are drawn in a trace.
    fn trace_loc(&self, pm: NodeId) -> TraceLoc {
        TraceLoc::Pm {
            pm: pm.index() as u32,
        }
    }

    /// Called once a listening tracer is installed, for a network to
    /// register its heatmaps.
    fn on_tracer_installed(&mut self) {}

    /// Current simulation cycle (number of completed
    /// [`step`](Interconnect::step)s).
    fn cycle(&self) -> u64 {
        self.core().cycle
    }

    // Inert: only the frozen `benchmark/` harness calls this.
    #[doc(hidden)]
    fn set_kernel_threads(&mut self, _threads: usize) {}

    /// Hands `packet` to PM `pm`'s network interface: admits it to the
    /// core (or refuses it as unreachable) and
    /// [`enqueue`](Interconnect::enqueue)s what was admitted.
    ///
    /// # Panics
    ///
    /// Panics if the corresponding output queue is full (callers gate on
    /// [`can_inject`](Interconnect::can_inject)) or if source/destination
    /// are out of range.
    fn inject(&mut self, pm: NodeId, packet: Packet) {
        assert_eq!(packet.src, pm, "packet injected at the wrong PM");
        assert_ne!(packet.src, packet.dst, "local accesses bypass the network");
        assert!(
            packet.dst.index() < self.num_pms(),
            "destination {} out of range",
            packet.dst
        );
        let (reachable, at) = (self.reachable(pm, packet.dst), self.trace_loc(pm));
        if let Some(r) = self.core_mut().admit(packet, reachable, at) {
            self.enqueue(pm, QueueClass::of(packet.kind), r);
        }
    }

    /// Advances the network one clock cycle. Packets whose tail flit
    /// reached their destination PM this cycle are appended to
    /// `delivered` as `(destination, packet)` pairs.
    ///
    /// # Errors
    ///
    /// Returns a [`StallError`] if the network watchdog detects a
    /// deadlock (no flit movement for its horizon while packets are in
    /// flight).
    fn step(&mut self, delivered: &mut Vec<(NodeId, Packet)>) -> Result<(), StallError> {
        let mark = delivered.len();
        self.core_mut().begin_cycle();
        let moved = self.advance(delivered);
        let newly = &delivered[mark..];
        if self.core().tracing() {
            let now = self.core().cycle;
            for (pm, packet) in newly {
                let at = self.trace_loc(*pm);
                let tracer = &mut self.core_mut().tracer;
                tracer.event(packet.txn.raw(), now, at, EventKind::Eject);
            }
        }
        self.core_mut().end_cycle(moved, newly.len() as u64)
    }

    /// The PMs whose [`can_inject`](Interconnect::can_inject) may have
    /// turned true in the last [`step`](Interconnect::step), in no
    /// promised order and possibly repeated: every PM a step took a
    /// packet from is here (the room contract of [`NetCore`]).
    fn room(&self) -> &[NodeId] {
        &self.core().room
    }

    /// Number of packets currently inside the network (injected but not
    /// yet delivered or dropped).
    fn in_flight(&self) -> u64 {
        self.core().store.live()
    }

    /// Installs `tracer` as the network's observability sink; the
    /// network announces each cycle to it and emits counters, gauges,
    /// heatmap bumps and flit-lifecycle events (see `ringmesh-trace`).
    fn set_tracer(&mut self, tracer: Tracer) {
        self.core_mut().tracer = tracer;
        if self.core().tracing() {
            self.on_tracer_installed();
        }
    }

    /// The installed tracer, if one is listening. Lets co-operating
    /// components (e.g. the workload driver) emit their own counters
    /// into the same trace.
    fn tracer_mut(&mut self) -> Option<&mut Tracer> {
        let tracer = &mut self.core_mut().tracer;
        tracer.is_enabled().then_some(tracer)
    }

    /// Removes and returns the listening tracer, if any, so its
    /// recording can be finalized into a report.
    fn take_tracer(&mut self) -> Option<Tracer> {
        self.tracer_mut().map(std::mem::take)
    }

    /// Installs `injector` as the network's fault source. A network
    /// with an empty [`fault_domain`](Interconnect::fault_domain) runs
    /// fault-free and drops the injector.
    fn set_faults(&mut self, injector: FaultInjector) {
        if self.fault_domain().is_empty() {
            return;
        }
        self.core_mut().faults = Some(Box::new(injector));
    }

    /// The installed fault injector, if any.
    fn faults(&self) -> Option<&FaultInjector> {
        self.core().faults()
    }

    /// Removes and returns the installed fault injector so its drop
    /// accounting can be reported; the corruption marks it rolled go
    /// with it.
    fn take_faults(&mut self) -> Option<FaultInjector> {
        let core = self.core_mut();
        core.corrupt.clear();
        core.faults.take().map(|f| *f)
    }

    /// Audits packet conservation: every packet injected must be
    /// delivered, explicitly dropped, or still in flight.
    fn verify_conservation(&self) -> Result<(), ConservationError> {
        let core = self.core();
        core.ledger.verify(core.store.live())
    }

    /// `(injected, delivered, dropped)` conservation-ledger counters.
    fn conservation_counts(&self) -> (u64, u64, u64) {
        self.core().ledger.counts()
    }
}

/// Snapshots `net`'s mutable state — in-flight packets, buffer
/// contents, per-station switching state, cycle counters — for a
/// deterministic checkpoint: the packet store, the kernel's own
/// [`Snap`] section, then the watchdog and the ledger's counters, and
/// proves the codec's census of the kernel's walk against the store
/// (on every read, and on writes in debug builds; see
/// [`census`](fn@crate::census)). The
/// corruption marks are not written (only an installed injector sets
/// one, and a network with an injector is refused), and neither is
/// immutable structure (topology, routing tables, capacities): a
/// resume rebuilds it from configuration, and a restore into such a
/// network continues bit-identically to the one that was checkpointed.
///
/// # Errors
///
/// Returns [`SnapError::Mismatch`] while a fault injector is installed
/// (a checkpoint does not carry its RNG and schedule), on reading any
/// error of truncated or corrupt input or of a snapshot that does not
/// fit `net`'s configuration, and [`SnapError::Corrupt`] from a census
/// that fails.
pub fn snap_network<C: Codec>(net: &mut dyn Interconnect, c: &mut C) -> Result<(), SnapError> {
    net.core().refuse_with_faults()?;
    net.core_mut().store.snap(c)?;
    c.object(net)?;
    let core = net.core_mut();
    core.watchdog.snap(c)?;
    core.ledger.snap(c)?;
    if c.reading() {
        core.corrupt.clear();
        core.dropped.clear();
        core.room.clear();
    }
    // A checkpoint is outside input: one whose ledger does not account
    // for its own packet store was not written by this network, and the
    // next step's identity assert would say so by panicking.
    core.ledger.verify(core.store.live()).map_err(|_| {
        SnapError::Corrupt("ledger and packet store disagree on the packets in flight".into())
    })?;
    // Nor may a packet the kernel's walk passed be anywhere but in one
    // place, in whole worms: every kernel steps on that.
    match c.census() {
        Some(census) => check_network(census, &core.store),
        None => Ok(()),
    }
}
