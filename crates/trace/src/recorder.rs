//! The in-memory recorder behind a [`crate::Tracer`]: windowed metrics,
//! heatmaps and a bounded flit-event buffer, finalized into a
//! [`TraceReport`].

use std::collections::VecDeque;

use crate::event::{EventKind, FlitEvent};
use crate::heatmap::{Heatmap, HeatmapId};
use crate::metric::{Counter, Gauge, Work};
use crate::report::{CounterReport, GaugeReport, TraceReport};

/// Knobs for a recording tracer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Counter/gauge sampling window, in cycles. Counters report their
    /// per-window totals (mean ± CI across windows) alongside the run
    /// total; gauges report per-window time averages. Usually set to
    /// the batch length so trace windows line up with batch means.
    pub window_cycles: u64,
    /// Record lifecycle events for one transaction in every
    /// `sample_every` (transaction id modulo). 1 traces everything;
    /// larger values bound Chrome-trace size on long runs.
    pub sample_every: u64,
    /// Maximum lifecycle events held; older events are dropped (and
    /// counted) once the buffer is full.
    pub event_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            window_cycles: 1000,
            sample_every: 1,
            event_capacity: 1 << 16,
        }
    }
}

impl TraceConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if `window_cycles` or `sample_every` is zero.
    fn validate(&self) {
        assert!(self.window_cycles > 0, "trace window must be positive");
        assert!(self.sample_every > 0, "sample_every must be positive");
    }
}

/// One counter's accumulation state: the running total plus the
/// per-window series.
#[derive(Debug, Clone, Default)]
struct CounterCell {
    total: u64,
    in_window: u64,
    windows: Vec<f64>,
}

/// One gauge's accumulation state: readings are averaged within each
/// window.
#[derive(Debug, Clone, Default)]
struct GaugeCell {
    sum: f64,
    samples: u64,
    in_window_sum: f64,
    in_window_samples: u64,
    windows: Vec<f64>,
}

/// Collects everything the tracer emits, and turns it into a
/// [`TraceReport`].
#[derive(Debug, Clone)]
pub struct Recorder {
    cfg: TraceConfig,
    counters: Vec<CounterCell>,
    gauges: Vec<GaugeCell>,
    /// Host-work totals, indexed by `Work as usize`.
    work: [u64; Work::ALL.len()],
    heatmaps: Vec<Heatmap>,
    events: VecDeque<FlitEvent>,
    events_dropped: u64,
    first_cycle: Option<u64>,
    last_cycle: u64,
    /// Index of the window currently accumulating.
    window: u64,
}

impl Recorder {
    /// Creates an empty recorder.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (zero window or sampling
    /// interval).
    pub fn new(cfg: TraceConfig) -> Self {
        cfg.validate();
        Recorder {
            cfg,
            counters: vec![CounterCell::default(); Counter::ALL.len()],
            gauges: vec![GaugeCell::default(); Gauge::ALL.len()],
            work: [0; Work::ALL.len()],
            heatmaps: Vec::new(),
            events: VecDeque::new(),
            events_dropped: 0,
            first_cycle: None,
            last_cycle: 0,
            window: 0,
        }
    }

    /// The configuration this recorder was built with.
    pub fn config(&self) -> &TraceConfig {
        &self.cfg
    }

    /// Registers a heatmap and returns its handle.
    pub fn add_heatmap(&mut self, map: Heatmap) -> HeatmapId {
        self.heatmaps.push(map);
        HeatmapId(self.heatmaps.len() - 1)
    }

    /// Whether events for `txn` are sampled under this configuration.
    pub fn samples_txn(&self, txn: u64) -> bool {
        txn.is_multiple_of(self.cfg.sample_every)
    }

    /// Closes the current window on every metric.
    fn roll_window(&mut self) {
        for c in &mut self.counters {
            c.windows.push(c.in_window as f64);
            c.in_window = 0;
        }
        for g in &mut self.gauges {
            let mean = if g.in_window_samples == 0 {
                0.0
            } else {
                g.in_window_sum / g.in_window_samples as f64
            };
            g.windows.push(mean);
            g.in_window_sum = 0.0;
            g.in_window_samples = 0;
        }
    }

    /// Finalizes into a report. Cycles observed since the last window
    /// boundary form a final, possibly short, window.
    pub fn finish(mut self) -> TraceReport {
        let any_partial = self.counters.iter().any(|c| c.in_window > 0)
            || self.gauges.iter().any(|g| g.in_window_samples > 0);
        if any_partial {
            self.roll_window();
        }
        let cycles = match self.first_cycle {
            Some(first) => self.last_cycle - first + 1,
            None => 0,
        };
        let counters = Counter::ALL
            .iter()
            .map(|&c| {
                let cell = &self.counters[c as usize];
                CounterReport {
                    counter: c,
                    total: cell.total,
                    per_window: ringmesh_stats::Summary::of(&cell.windows),
                }
            })
            .collect();
        let gauges = Gauge::ALL
            .iter()
            .map(|&g| {
                let cell = &self.gauges[g as usize];
                GaugeReport {
                    gauge: g,
                    samples: cell.samples,
                    mean: if cell.samples == 0 {
                        0.0
                    } else {
                        cell.sum / cell.samples as f64
                    },
                    per_window: ringmesh_stats::Summary::of(&cell.windows),
                }
            })
            .collect();
        TraceReport {
            cycles,
            window_cycles: self.cfg.window_cycles,
            sample_every: self.cfg.sample_every,
            counters,
            gauges,
            work: self.work.to_vec(),
            heatmaps: self.heatmaps,
            events: self.events.into_iter().collect(),
            events_dropped: self.events_dropped,
        }
    }

    /// A new simulation cycle is beginning.
    pub(crate) fn on_cycle(&mut self, cycle: u64) {
        if self.first_cycle.is_none() {
            self.first_cycle = Some(cycle);
        }
        self.last_cycle = cycle;
        let first = self.first_cycle.unwrap();
        let window = (cycle - first) / self.cfg.window_cycles;
        // Roll once per boundary crossed; a jump over several windows
        // (possible if the owner skips cycles) emits the skipped
        // windows as zeros, keeping window counts aligned with time.
        while self.window < window {
            self.roll_window();
            self.window += 1;
        }
    }

    /// `n` more occurrences of counter `c`.
    pub(crate) fn on_count(&mut self, c: Counter, n: u64) {
        let cell = &mut self.counters[c as usize];
        cell.total += n;
        cell.in_window += n;
    }

    /// `n` more units of host work `w`.
    pub(crate) fn on_work(&mut self, w: Work, n: u64) {
        self.work[w as usize] += n;
    }

    /// An instantaneous reading of gauge `g`.
    pub(crate) fn on_gauge(&mut self, g: Gauge, value: f64) {
        let cell = &mut self.gauges[g as usize];
        cell.sum += value;
        cell.samples += 1;
        cell.in_window_sum += value;
        cell.in_window_samples += 1;
    }

    /// `n` more events in cell (row, col) of heatmap `id`.
    pub(crate) fn on_heatmap(&mut self, id: HeatmapId, row: usize, col: usize, n: u64) {
        self.heatmaps[id.0].bump(row, col, n);
    }

    /// A flit-lifecycle event for a sampled transaction.
    pub(crate) fn on_event(&mut self, ev: FlitEvent) {
        debug_assert!(
            matches!(
                ev.kind,
                EventKind::Inject { .. } | EventKind::Hop | EventKind::Eject
            ),
            "unknown event kind"
        );
        if self.events.len() == self.cfg.event_capacity {
            self.events.pop_front();
            self.events_dropped += 1;
        }
        if self.cfg.event_capacity > 0 {
            self.events.push_back(ev);
        } else {
            self.events_dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceLoc;

    fn ev(txn: u64, cycle: u64) -> FlitEvent {
        FlitEvent {
            txn,
            cycle,
            at: TraceLoc::Pm { pm: 0 },
            kind: EventKind::Hop,
        }
    }

    #[test]
    fn counters_split_into_windows() {
        let mut r = Recorder::new(TraceConfig {
            window_cycles: 10,
            ..Default::default()
        });
        for cycle in 0..30 {
            r.on_cycle(cycle);
            // 1 per cycle in the first window, 3 per cycle afterwards.
            let n = if cycle < 10 { 1 } else { 3 };
            r.on_count(Counter::FlitsForwarded, n);
        }
        let rep = r.finish();
        let c = &rep.counters[Counter::FlitsForwarded as usize];
        assert_eq!(c.total, 10 + 30 + 30);
        assert_eq!(c.per_window.n, 3);
        assert_eq!(c.per_window.min, 10.0);
        assert_eq!(c.per_window.max, 30.0);
    }

    #[test]
    fn windows_are_relative_to_first_observed_cycle() {
        // A tracer attached after warm-up starts windows at the attach
        // cycle, not at absolute zero.
        let mut r = Recorder::new(TraceConfig {
            window_cycles: 100,
            ..Default::default()
        });
        for cycle in 1000..1200 {
            r.on_cycle(cycle);
            r.on_count(Counter::TxnsIssued, 1);
        }
        let rep = r.finish();
        assert_eq!(rep.cycles, 200);
        let c = &rep.counters[Counter::TxnsIssued as usize];
        assert_eq!(c.per_window.n, 2);
        assert_eq!(c.per_window.mean, 100.0);
    }

    #[test]
    fn skipped_windows_report_as_zero() {
        let mut r = Recorder::new(TraceConfig {
            window_cycles: 10,
            ..Default::default()
        });
        r.on_cycle(0);
        r.on_count(Counter::PacketsInjected, 4);
        r.on_cycle(35); // jumps over windows 1 and 2
        r.on_count(Counter::PacketsInjected, 6);
        let rep = r.finish();
        let c = &rep.counters[Counter::PacketsInjected as usize];
        assert_eq!(c.per_window.n, 4);
        assert_eq!(c.per_window.min, 0.0);
        assert_eq!(c.total, 10);
    }

    #[test]
    fn gauges_average_within_windows() {
        let mut r = Recorder::new(TraceConfig {
            window_cycles: 2,
            ..Default::default()
        });
        for (cycle, v) in [(0u64, 1.0), (1, 3.0), (2, 10.0), (3, 20.0)] {
            r.on_cycle(cycle);
            r.on_gauge(Gauge::InFlightPackets, v);
        }
        let rep = r.finish();
        let g = &rep.gauges[Gauge::InFlightPackets as usize];
        assert_eq!(g.per_window.n, 2);
        assert_eq!(g.per_window.min, 2.0);
        assert_eq!(g.per_window.max, 15.0);
        assert_eq!(g.mean, 8.5);
    }

    #[test]
    fn event_buffer_is_bounded_and_counts_drops() {
        let mut r = Recorder::new(TraceConfig {
            event_capacity: 3,
            ..Default::default()
        });
        for i in 0..5 {
            r.on_event(ev(i, i));
        }
        let rep = r.finish();
        assert_eq!(rep.events.len(), 3);
        assert_eq!(rep.events_dropped, 2);
        // Oldest dropped first: survivors are txns 2, 3, 4.
        assert_eq!(
            rep.events.iter().map(|e| e.txn).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn sampling_predicate_uses_modulo() {
        let r = Recorder::new(TraceConfig {
            sample_every: 4,
            ..Default::default()
        });
        assert!(r.samples_txn(0));
        assert!(!r.samples_txn(1));
        assert!(r.samples_txn(8));
    }

    #[test]
    fn heatmap_registration_round_trips() {
        let mut r = Recorder::new(TraceConfig::default());
        let id = r.add_heatmap(Heatmap::new("links", "r", "c", 2, 2));
        r.on_heatmap(id, 1, 0, 7);
        let rep = r.finish();
        assert_eq!(rep.heatmaps[0].get(1, 0), 7);
    }

    #[test]
    #[should_panic(expected = "trace window must be positive")]
    fn zero_window_rejected() {
        Recorder::new(TraceConfig {
            window_cycles: 0,
            ..Default::default()
        });
    }
}
