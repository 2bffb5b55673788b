//! The tracer handle threaded through the simulator.

use crate::event::{EventKind, FlitEvent, TraceLoc};
use crate::heatmap::{Heatmap, HeatmapId};
use crate::metric::{Counter, Gauge, Work};
use crate::recorder::{Recorder, TraceConfig};
use crate::report::TraceReport;

/// The emit-side handle instrumented code holds.
///
/// A `Tracer` either owns a [`Recorder`] or is off. The default,
/// [`Tracer::off`], has none: every emit method starts with an inlined
/// check of that, so un-traced simulations pay one predictable branch
/// per *call site that is reached*, and call sites guarded by an outer
/// `is_enabled()` pay nothing. A recording tracer
/// ([`Tracer::recording`]) can later be finalized into a
/// [`TraceReport`].
#[derive(Debug, Default)]
pub struct Tracer {
    recorder: Option<Box<Recorder>>,
}

impl Tracer {
    /// A disabled tracer: every emit a no-op.
    pub fn off() -> Tracer {
        Tracer::default()
    }

    /// A tracer recording into an in-memory [`Recorder`].
    pub fn recording(cfg: TraceConfig) -> Tracer {
        Tracer {
            recorder: Some(Box::new(Recorder::new(cfg))),
        }
    }

    /// Whether a recorder is listening. Emit sites with per-flit loops
    /// should check this once and skip the whole block when false.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.recorder.is_some()
    }

    /// Registers a heatmap with the recorder and returns its handle,
    /// or `None` when the tracer is off.
    pub fn add_heatmap(&mut self, map: Heatmap) -> Option<HeatmapId> {
        self.recorder.as_mut().map(|r| r.add_heatmap(map))
    }

    /// Whether lifecycle events for `txn` should be recorded. False
    /// whenever the tracer is off, so callers can skip the work of
    /// building events entirely.
    #[inline]
    pub fn samples_txn(&self, txn: u64) -> bool {
        self.recorder.as_ref().is_some_and(|r| r.samples_txn(txn))
    }

    /// Announces the start of a simulation cycle (drives window
    /// rollover in the recorder).
    #[inline]
    pub fn cycle(&mut self, cycle: u64) {
        if let Some(r) = &mut self.recorder {
            r.on_cycle(cycle);
        }
    }

    /// Adds `n` occurrences to counter `c`.
    #[inline]
    pub fn count(&mut self, c: Counter, n: u64) {
        if let Some(r) = &mut self.recorder {
            r.on_count(c, n);
        }
    }

    /// Adds `n` units of host work `w`.
    #[inline]
    pub fn work(&mut self, w: Work, n: u64) {
        if let Some(r) = &mut self.recorder {
            r.on_work(w, n);
        }
    }

    /// Records an instantaneous reading of gauge `g`.
    #[inline]
    pub fn gauge(&mut self, g: Gauge, value: f64) {
        if let Some(r) = &mut self.recorder {
            r.on_gauge(g, value);
        }
    }

    /// Adds `n` events to cell (row, col) of heatmap `id`.
    #[inline]
    pub fn heatmap(&mut self, id: HeatmapId, row: usize, col: usize, n: u64) {
        if let Some(r) = &mut self.recorder {
            r.on_heatmap(id, row, col, n);
        }
    }

    /// Records a lifecycle event if its transaction is sampled.
    #[inline]
    pub fn event(&mut self, txn: u64, cycle: u64, at: TraceLoc, kind: EventKind) {
        if let Some(r) = &mut self.recorder {
            if r.samples_txn(txn) {
                r.on_event(FlitEvent {
                    txn,
                    cycle,
                    at,
                    kind,
                });
            }
        }
    }

    /// Finalizes the recorder (if any) into a report.
    pub fn finish(self) -> Option<TraceReport> {
        self.recorder.map(|r| r.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_is_disabled_and_reports_nothing() {
        let mut t = Tracer::off();
        assert!(!t.is_enabled());
        assert!(!t.samples_txn(0));
        t.count(Counter::FlitsForwarded, 5);
        t.gauge(Gauge::InFlightPackets, 1.0);
        t.cycle(3);
        assert!(t.finish().is_none());
    }

    #[test]
    fn recording_tracer_round_trips_counts() {
        let mut t = Tracer::recording(TraceConfig::default());
        assert!(t.is_enabled());
        t.cycle(0);
        t.count(Counter::PacketsInjected, 2);
        t.count(Counter::PacketsInjected, 3);
        t.work(Work::RingSides, 7);
        let rep = t.finish().expect("recorder present");
        assert_eq!(rep.counters[Counter::PacketsInjected as usize].total, 5);
        assert_eq!(rep.work[Work::RingSides as usize], 7);
    }

    #[test]
    fn unsampled_txns_produce_no_events() {
        let mut t = Tracer::recording(TraceConfig {
            sample_every: 2,
            ..Default::default()
        });
        t.event(0, 1, TraceLoc::Pm { pm: 0 }, EventKind::Hop);
        t.event(1, 1, TraceLoc::Pm { pm: 0 }, EventKind::Hop);
        t.event(2, 1, TraceLoc::Pm { pm: 0 }, EventKind::Hop);
        let rep = t.finish().unwrap();
        assert_eq!(rep.events.len(), 2);
        assert!(rep.events.iter().all(|e| e.txn % 2 == 0));
    }

    #[test]
    fn heatmap_requires_recorder() {
        let mut off = Tracer::off();
        assert!(off.add_heatmap(Heatmap::new("t", "r", "c", 1, 1)).is_none());
        let mut rec = Tracer::recording(TraceConfig::default());
        let id = rec.add_heatmap(Heatmap::new("t", "r", "c", 1, 1)).unwrap();
        rec.heatmap(id, 0, 0, 3);
        assert_eq!(rec.finish().unwrap().heatmaps[0].get(0, 0), 3);
    }
}
