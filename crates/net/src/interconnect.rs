//! The [`Interconnect`] trait: the contract between the workload driver
//! and a network model, satisfied by both the hierarchical-ring and the
//! mesh simulators so experiments can swap networks freely.

use ringmesh_engine::StallError;
use ringmesh_faults::{ConservationError, FaultDomain, FaultInjector};
use ringmesh_snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use ringmesh_trace::Tracer;

use crate::packet::{NodeId, Packet};
use crate::PacketKind;

/// The two traffic classes. Requests and responses queue separately at
/// every injection point (NIC output buffers, IRI up/down buffers) and
/// responses have priority, which is essential for forward progress in
/// a request/response protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueueClass {
    /// Read and write requests.
    Request,
    /// Read and write responses.
    Response,
}

impl QueueClass {
    /// The class a packet of the given kind travels in.
    pub fn of(kind: PacketKind) -> QueueClass {
        if kind.is_request() {
            QueueClass::Request
        } else {
            QueueClass::Response
        }
    }
}

impl Snapshot for QueueClass {
    fn save(&self, w: &mut SnapWriter) {
        w.u8(match self {
            QueueClass::Request => 0,
            QueueClass::Response => 1,
        });
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(QueueClass::Request),
            1 => Ok(QueueClass::Response),
            t => Err(SnapError::Corrupt(format!("invalid queue class tag {t}"))),
        }
    }
}

/// Utilization of one level of the network (one ring level, or the whole
/// mesh fabric), in fraction of maximum link capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelUtil {
    /// Human-readable label ("local rings", "global ring", "mesh links").
    pub label: String,
    /// Busy link-cycles divided by available link-cycles, in `[0, 1]`.
    pub utilization: f64,
}

/// Network utilization snapshot since the last counter reset.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UtilizationReport {
    /// Utilization over all network links combined.
    pub overall: f64,
    /// Per-level breakdown, outermost (local) first.
    pub levels: Vec<LevelUtil>,
}

impl UtilizationReport {
    /// Utilization of the level with the given label, if present.
    pub fn level(&self, label: &str) -> Option<f64> {
        self.levels
            .iter()
            .find(|l| l.label == label)
            .map(|l| l.utilization)
    }
}

/// A flit-level interconnection network connecting `P` processing
/// modules, advanced one clock cycle at a time.
///
/// Injection is two-step: the driver checks [`can_inject`] (the PM's NIC
/// output queue for the packet's class has room) and then calls
/// [`inject`]. Each [`step`] advances every network component one cycle
/// and appends fully-delivered packets to `delivered`.
///
/// [`can_inject`]: Interconnect::can_inject
/// [`inject`]: Interconnect::inject
/// [`step`]: Interconnect::step
pub trait Interconnect {
    /// Number of processing modules attached to the network.
    fn num_pms(&self) -> usize;

    /// Current simulation cycle (number of completed [`step`]s).
    ///
    /// [`step`]: Interconnect::step
    fn cycle(&self) -> u64;

    /// Whether PM `pm`'s output queue for `class` can accept a packet.
    fn can_inject(&self, pm: NodeId, class: QueueClass) -> bool;

    // Inert: only the frozen `benchmark/` harness calls this.
    #[doc(hidden)]
    fn set_kernel_threads(&mut self, _threads: usize) {}

    /// Hands `packet` to PM `pm`'s network interface.
    ///
    /// # Panics
    ///
    /// Panics if the corresponding output queue is full (callers gate on
    /// [`can_inject`](Interconnect::can_inject)) or if source/destination
    /// are out of range.
    fn inject(&mut self, pm: NodeId, packet: Packet);

    /// Advances the network one clock cycle. Packets whose tail flit
    /// reached their destination PM this cycle are appended to
    /// `delivered` as `(destination, packet)` pairs.
    ///
    /// # Errors
    ///
    /// Returns a [`StallError`] if the network watchdog detects a
    /// deadlock (no flit movement for its horizon while packets are in
    /// flight).
    fn step(&mut self, delivered: &mut Vec<(NodeId, Packet)>) -> Result<(), StallError>;

    /// Number of packets currently inside the network (injected but not
    /// yet delivered).
    fn in_flight(&self) -> u64;

    /// Utilization accumulated since the last [`reset_counters`] call.
    ///
    /// [`reset_counters`]: Interconnect::reset_counters
    fn utilization(&self) -> UtilizationReport;

    /// Clears utilization counters (called at the end of the warm-up
    /// phase so statistics exclude initialization bias).
    fn reset_counters(&mut self);

    /// Installs `tracer` as the network's observability sink; the
    /// network announces each cycle to it and emits counters, gauges,
    /// heatmap bumps and flit-lifecycle events (see `ringmesh-trace`).
    /// The default implementation drops the tracer: networks that do
    /// not support tracing simply record nothing.
    fn set_tracer(&mut self, tracer: Tracer) {
        drop(tracer);
    }

    /// The installed tracer, if tracing is supported and one was set.
    /// Lets co-operating components (e.g. the workload driver) emit
    /// their own counters into the same trace.
    fn tracer_mut(&mut self) -> Option<&mut Tracer> {
        None
    }

    /// Removes and returns the installed tracer so its recording can be
    /// finalized into a report. `None` when tracing is unsupported or
    /// no tracer was set.
    fn take_tracer(&mut self) -> Option<Tracer> {
        None
    }

    /// The fault domain this network exposes: how many links and nodes
    /// a [`FaultInjector`] may target. The default (empty) domain marks
    /// the network as not supporting fault injection.
    fn fault_domain(&self) -> FaultDomain {
        FaultDomain::default()
    }

    /// Installs `injector` as the network's fault source; `check`
    /// additionally enables exact per-packet conservation tracking even
    /// in release builds. The default implementation drops the
    /// injector: networks without fault support run fault-free.
    fn set_faults(&mut self, injector: FaultInjector, check: bool) {
        let _ = (injector, check);
    }

    /// The installed fault injector, if fault injection is supported
    /// and one was set.
    fn faults(&self) -> Option<&FaultInjector> {
        None
    }

    /// Removes and returns the installed fault injector so its drop
    /// accounting can be reported.
    fn take_faults(&mut self) -> Option<FaultInjector> {
        None
    }

    /// Whether PM `pm` is still alive. Workloads stop issuing from (and
    /// retrying toward) dead PMs. Always true without fault injection.
    fn pm_alive(&self, pm: NodeId) -> bool {
        let _ = pm;
        true
    }

    /// Audits packet conservation: every packet injected must be
    /// delivered, explicitly dropped, or still in flight. Networks
    /// without a ledger trivially pass.
    fn verify_conservation(&self) -> Result<(), ConservationError> {
        Ok(())
    }

    /// `(injected, delivered, dropped)` ledger counters, when a
    /// conservation ledger is present.
    fn conservation_counts(&self) -> Option<(u64, u64, u64)> {
        None
    }

    /// Serializes the network's mutable state (in-flight packets,
    /// buffer contents, per-station switching state, cycle counters)
    /// into `w` for a deterministic checkpoint. Immutable structure —
    /// topology, routing tables, capacities — is *not* written; a
    /// resume rebuilds it from configuration and pours this state back
    /// in via [`restore_state`](Interconnect::restore_state).
    ///
    /// # Errors
    ///
    /// The default implementation returns [`SnapError::Mismatch`]:
    /// the network does not support checkpointing.
    fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        let _ = w;
        Err(SnapError::Mismatch(
            "this network model does not support state snapshots".into(),
        ))
    }

    /// Restores mutable state previously written by
    /// [`save_state`](Interconnect::save_state) into a freshly
    /// constructed network of the *same* configuration. After a
    /// successful restore the network continues bit-identically to the
    /// one that was checkpointed.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on truncated/corrupt input or a
    /// configuration mismatch (different topology, buffer depths...).
    /// The default implementation always errors: checkpointing is
    /// unsupported.
    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let _ = r;
        Err(SnapError::Mismatch(
            "this network model does not support state snapshots".into(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_of_kind() {
        assert_eq!(QueueClass::of(PacketKind::ReadReq), QueueClass::Request);
        assert_eq!(QueueClass::of(PacketKind::WriteReq), QueueClass::Request);
        assert_eq!(QueueClass::of(PacketKind::ReadResp), QueueClass::Response);
        assert_eq!(QueueClass::of(PacketKind::WriteResp), QueueClass::Response);
    }

    #[test]
    fn report_lookup_by_label() {
        let report = UtilizationReport {
            overall: 0.4,
            levels: vec![
                LevelUtil {
                    label: "local rings".into(),
                    utilization: 0.3,
                },
                LevelUtil {
                    label: "global ring".into(),
                    utilization: 0.9,
                },
            ],
        };
        assert_eq!(report.level("global ring"), Some(0.9));
        assert_eq!(report.level("nonexistent"), None);
    }
}
