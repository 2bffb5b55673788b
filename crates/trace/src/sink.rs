//! The sink abstraction.

use crate::event::FlitEvent;
use crate::heatmap::HeatmapId;
use crate::metric::{Counter, Gauge};

/// Receives trace emissions.
///
/// Every method has a no-op default, so a sink implements only what it
/// cares about; a `TraceSink` with nothing overridden is a valid "drop
/// everything" sink. The standard in-memory implementation is
/// [`crate::Recorder`]; custom sinks (a live TUI, a socket writer) can
/// be registered alongside it via `Tracer::attach`.
pub trait TraceSink: std::fmt::Debug {
    /// A new simulation cycle is beginning.
    fn on_cycle(&mut self, cycle: u64) {
        let _ = cycle;
    }

    /// `n` more occurrences of counter `c`.
    fn on_count(&mut self, c: Counter, n: u64) {
        let _ = (c, n);
    }

    /// An instantaneous reading of gauge `g`.
    fn on_gauge(&mut self, g: Gauge, value: f64) {
        let _ = (g, value);
    }

    /// `n` more events in cell (row, col) of heatmap `id`.
    fn on_heatmap(&mut self, id: HeatmapId, row: usize, col: usize, n: u64) {
        let _ = (id, row, col, n);
    }

    /// A flit-lifecycle event for a sampled transaction.
    fn on_event(&mut self, ev: FlitEvent) {
        let _ = ev;
    }
}

/// A sink that drops everything — the registry's explicit no-op
/// default. Instrumented code paths attached to a `NopSink` compile to
/// a branch on the (empty) registry and nothing else.
#[derive(Debug, Default, Clone, Copy)]
pub struct NopSink;

impl TraceSink for NopSink {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, TraceLoc};

    #[test]
    fn nop_sink_accepts_everything() {
        let mut s = NopSink;
        s.on_cycle(1);
        s.on_count(Counter::FlitsForwarded, 3);
        s.on_gauge(Gauge::InFlightPackets, 2.0);
        s.on_heatmap(HeatmapId(0), 0, 0, 1);
        s.on_event(FlitEvent {
            txn: 0,
            cycle: 0,
            at: TraceLoc::Pm { pm: 0 },
            kind: EventKind::Hop,
        });
    }
}
