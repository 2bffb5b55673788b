//! Typed metric identifiers.
//!
//! Counters and gauges are closed enums rather than string keys: every
//! emit site names a variant, so a typo is a compile error and the
//! recorder can store readings in flat arrays indexed by discriminant
//! instead of hashing names on the hot path.

/// A monotonically increasing count of discrete simulation events.
///
/// Counters are accumulated per sampling window (see
/// `TraceConfig::window_cycles`), which lets the report show both the
/// run total and the across-window mean with a confidence interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Flits that traversed a network link this cycle (ring
    /// station-to-station hops and mesh router-to-router hops).
    FlitsForwarded,
    /// Packets accepted into the network from a processing module.
    PacketsInjected,
    /// Packets fully reassembled and handed back to a processing module.
    PacketsDelivered,
    /// Cycles in which a flit was ready on an output link but the
    /// downstream stage's registered stop/go signal denied the transfer.
    BlockedCycles,
    /// Flits that crossed between ring levels through an inter-ring
    /// interface (either direction).
    IriCrossings,
    /// Memory transactions issued by processors this window.
    TxnsIssued,
    /// Memory transactions retired (response fully received).
    TxnsRetired,
    /// Retired transactions whose target was the processor's own memory.
    TxnsLocalRetired,
    /// Cycles a processor sat ready to issue but the network refused
    /// the injection (send-queue backpressure).
    IssueBlocked,
    /// Packets dropped by fault injection (corrupted, unreachable, or
    /// sunk at a dead component).
    PacketsDropped,
    /// Transaction retry attempts injected after a timeout.
    TxnsRetried,
    /// Transactions abandoned after exhausting their retry budget.
    TxnsFailed,
}

impl Counter {
    /// Every counter, in display order.
    pub const ALL: [Counter; 12] = [
        Counter::FlitsForwarded,
        Counter::PacketsInjected,
        Counter::PacketsDelivered,
        Counter::BlockedCycles,
        Counter::IriCrossings,
        Counter::TxnsIssued,
        Counter::TxnsRetired,
        Counter::TxnsLocalRetired,
        Counter::IssueBlocked,
        Counter::PacketsDropped,
        Counter::TxnsRetried,
        Counter::TxnsFailed,
    ];

    /// Stable snake_case name used in reports and CSV headers.
    pub fn name(self) -> &'static str {
        match self {
            Counter::FlitsForwarded => "flits_forwarded",
            Counter::PacketsInjected => "packets_injected",
            Counter::PacketsDelivered => "packets_delivered",
            Counter::BlockedCycles => "blocked_cycles",
            Counter::IriCrossings => "iri_crossings",
            Counter::TxnsIssued => "txns_issued",
            Counter::TxnsRetired => "txns_retired",
            Counter::TxnsLocalRetired => "txns_local_retired",
            Counter::IssueBlocked => "issue_blocked",
            Counter::PacketsDropped => "packets_dropped",
            Counter::TxnsRetried => "txns_retried",
            Counter::TxnsFailed => "txns_failed",
        }
    }
}

/// Host work: what the simulator did to simulate a cycle, not what the
/// simulated network did in it. Kept apart from [`Counter`], so no
/// report table, CSV or Chrome trace shows it and every traced report
/// reads the same with or without it; a run's totals are in
/// `TraceReport::work`, indexed by discriminant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Work {
    /// Ring station sides stepped (wormhole ring and hybrid local
    /// rings), or slot positions serviced (slotted ring).
    RingSides,
    /// Mesh routers stepped (mesh and the hybrid's global mesh).
    MeshRouters,
    /// Hybrid bridge pumps visited.
    BridgePumps,
    /// Flits moved over a link between stations or routers.
    LinkFlits,
    /// Flits pushed into a transit buffer, crossing queue or router
    /// input buffer.
    FifoPushes,
    /// Flit FIFOs whose registered stop/go state was latched: ring
    /// transit buffers and crossing queues (the mesh reads its stop/go
    /// from its walk order and latches none).
    FifoLatches,
    /// PM injection queues that reported room (the room contract).
    RoomEvents,
    /// Packets admitted into the packet store.
    PacketsAllocated,
    /// Processors and memories the workload driver visited.
    DriverVisits,
    /// Entries of the driver's due table it read to find them.
    DueExamined,
}

impl Work {
    /// Every work counter, in display order.
    pub const ALL: [Work; 10] = [
        Work::RingSides,
        Work::MeshRouters,
        Work::BridgePumps,
        Work::LinkFlits,
        Work::FifoPushes,
        Work::FifoLatches,
        Work::RoomEvents,
        Work::PacketsAllocated,
        Work::DriverVisits,
        Work::DueExamined,
    ];

    /// Stable snake_case name used in the work record.
    pub fn name(self) -> &'static str {
        match self {
            Work::RingSides => "ring_sides",
            Work::MeshRouters => "mesh_routers",
            Work::BridgePumps => "bridge_pumps",
            Work::LinkFlits => "link_flits",
            Work::FifoPushes => "fifo_pushes",
            Work::FifoLatches => "fifo_latches",
            Work::RoomEvents => "room_events",
            Work::PacketsAllocated => "packets_allocated",
            Work::DriverVisits => "driver_visits",
            Work::DueExamined => "due_examined",
        }
    }
}

/// A sampled instantaneous reading (occupancy, backlog), averaged per
/// sampling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Gauge {
    /// Flits resident in ring-station transit buffers.
    RingBufferOccupancy,
    /// Flits queued in inter-ring interface up/down queues.
    IriQueueOccupancy,
    /// Flits resident in mesh router input buffers.
    MeshInputOccupancy,
    /// Packets somewhere in the network (injected, not yet delivered).
    InFlightPackets,
    /// Outstanding transactions across all processors.
    OutstandingTxns,
}

impl Gauge {
    /// Every gauge, in display order.
    pub const ALL: [Gauge; 5] = [
        Gauge::RingBufferOccupancy,
        Gauge::IriQueueOccupancy,
        Gauge::MeshInputOccupancy,
        Gauge::InFlightPackets,
        Gauge::OutstandingTxns,
    ];

    /// Stable snake_case name used in reports and CSV headers.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::RingBufferOccupancy => "ring_buffer_occupancy",
            Gauge::IriQueueOccupancy => "iri_queue_occupancy",
            Gauge::MeshInputOccupancy => "mesh_input_occupancy",
            Gauge::InFlightPackets => "in_flight_packets",
            Gauge::OutstandingTxns => "outstanding_txns",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_names_are_unique() {
        let mut names: Vec<_> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::ALL.len());
    }

    #[test]
    fn gauge_names_are_unique() {
        let mut names: Vec<_> = Gauge::ALL.iter().map(|g| g.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Gauge::ALL.len());
        let mut names: Vec<_> = Work::ALL.iter().map(|w| w.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Work::ALL.len());
    }

    #[test]
    fn discriminants_are_dense() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
        for (i, g) in Gauge::ALL.iter().enumerate() {
            assert_eq!(*g as usize, i);
        }
        for (i, w) in Work::ALL.iter().enumerate() {
            assert_eq!(*w as usize, i);
        }
    }
}
