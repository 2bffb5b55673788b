//! The vocabulary of the [`Interconnect`](crate::Interconnect) trait:
//! traffic classes and utilization reports.

use ringmesh_snap::{Codec, Snap, SnapError};

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

impl Snap for QueueClass {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        use QueueClass::*;
        c.variant(self, &[Request, Response], "queue class")
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
