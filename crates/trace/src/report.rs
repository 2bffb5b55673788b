//! The finalized trace: per-counter summaries, heatmaps, events, and
//! exporters (text, CSV via [`ringmesh_stats::Table`], Chrome-trace
//! JSON).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ringmesh_snap::json::Quoted;
use ringmesh_stats::{Summary, Table};

use crate::event::{EventKind, FlitEvent, TraceLoc};
use crate::heatmap::Heatmap;
use crate::metric::{Counter, Gauge};

/// One counter's final numbers.
#[derive(Debug, Clone)]
pub struct CounterReport {
    /// Which counter.
    pub counter: Counter,
    /// Run total.
    pub total: u64,
    /// Per-window totals (mean ± CI across sampling windows).
    pub per_window: Summary,
}

/// One gauge's final numbers.
#[derive(Debug, Clone)]
pub struct GaugeReport {
    /// Which gauge.
    pub gauge: Gauge,
    /// Number of readings taken over the whole run.
    pub samples: u64,
    /// Mean over every reading taken.
    pub mean: f64,
    /// Per-window means (mean ± CI across sampling windows).
    pub per_window: Summary,
}

/// Everything a recording tracer collected, ready to render.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Cycles observed (first to last `cycle()` call, inclusive).
    pub cycles: u64,
    /// Sampling window length the run used.
    pub window_cycles: u64,
    /// Transaction sampling interval the run used.
    pub sample_every: u64,
    /// Counter summaries, indexed by `Counter as usize`.
    pub counters: Vec<CounterReport>,
    /// Gauge summaries, indexed by `Gauge as usize`.
    pub gauges: Vec<GaugeReport>,
    /// Registered heatmaps, in registration order.
    pub heatmaps: Vec<Heatmap>,
    /// Sampled lifecycle events, oldest first.
    pub events: Vec<FlitEvent>,
    /// Events discarded because the ring buffer was full.
    pub events_dropped: u64,
}

impl TraceReport {
    /// Counter summaries as a [`Table`] (render with `to_markdown` or
    /// `to_csv`). Counters that never fired are omitted.
    pub fn counter_table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "trace counters ({} cycles, window {})",
                self.cycles, self.window_cycles
            ),
            &["counter", "total", "per-window mean", "ci95"],
        );
        for c in &self.counters {
            if c.total == 0 {
                continue;
            }
            t.push_row(vec![
                c.counter.name().to_string(),
                c.total.to_string(),
                format!("{:.2}", c.per_window.mean),
                format!("{:.2}", c.per_window.ci95),
            ]);
        }
        t
    }

    /// Gauge summaries as a [`Table`]. Gauges never sampled are omitted.
    pub fn gauge_table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "trace gauges ({} cycles, window {})",
                self.cycles, self.window_cycles
            ),
            &["gauge", "mean", "per-window mean", "ci95"],
        );
        for g in &self.gauges {
            if g.samples == 0 {
                continue;
            }
            t.push_row(vec![
                g.gauge.name().to_string(),
                format!("{:.3}", g.mean),
                format!("{:.3}", g.per_window.mean),
                format!("{:.3}", g.per_window.ci95),
            ]);
        }
        t
    }

    /// Full human-readable rendering: counter and gauge tables, ASCII
    /// heatmaps, and an event-stream footer.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.counter_table().to_markdown());
        out.push('\n');
        out.push_str(&self.gauge_table().to_markdown());
        for map in &self.heatmaps {
            out.push('\n');
            out.push_str(&map.to_ascii());
        }
        let _ = writeln!(
            out,
            "\nevents: {} recorded ({} dropped), sampling 1 in {} transactions",
            self.events.len(),
            self.events_dropped,
            self.sample_every
        );
        out
    }

    /// Exports the sampled event stream in the Chrome trace-event JSON
    /// format (load in Perfetto / `chrome://tracing`).
    ///
    /// Layout: process "packets" holds one async span per sampled
    /// transaction (inject → eject); process "locations" holds one
    /// track per network location with a 1-cycle slice for every hop or
    /// ejection there. Timestamps are in microseconds with one
    /// simulated cycle mapped to 1 µs.
    pub fn chrome_trace_json(&self) -> String {
        const PID_PACKETS: u32 = 1;
        const PID_LOCS: u32 = 2;

        // Stable small thread ids per location, discovery order.
        let mut tids: BTreeMap<TraceLoc, u32> = BTreeMap::new();
        for ev in &self.events {
            let next = tids.len() as u32 + 1;
            tids.entry(ev.at).or_insert(next);
        }

        let mut parts: Vec<String> = Vec::with_capacity(self.events.len() + tids.len() + 2);
        parts.push(format!(
            r#"{{"ph":"M","pid":{PID_PACKETS},"name":"process_name","args":{{"name":"packets"}}}}"#
        ));
        parts.push(format!(
            r#"{{"ph":"M","pid":{PID_LOCS},"name":"process_name","args":{{"name":"locations"}}}}"#
        ));
        for (loc, tid) in &tids {
            parts.push(format!(
                r#"{{"ph":"M","pid":{PID_LOCS},"tid":{tid},"name":"thread_name","args":{{"name":{}}}}}"#,
                Quoted(&loc.to_string())
            ));
        }

        for ev in &self.events {
            let tid = tids[&ev.at];
            match ev.kind {
                EventKind::Inject { src, dst, flits } => {
                    // Async span start on the packets process; the pair
                    // is keyed by (cat, id, name) — use the txn for all.
                    let name = format!("txn{} pm{src}->pm{dst} ({flits} flits)", ev.txn);
                    parts.push(format!(
                        r#"{{"ph":"b","cat":"packet","id":{},"pid":{PID_PACKETS},"tid":1,"ts":{},"name":{}}}"#,
                        ev.txn,
                        ev.cycle,
                        Quoted(&name)
                    ));
                    parts.push(slice(
                        PID_LOCS,
                        tid,
                        ev.cycle,
                        &format!("inject txn{}", ev.txn),
                    ));
                }
                EventKind::Hop => {
                    parts.push(slice(PID_LOCS, tid, ev.cycle, &format!("txn{}", ev.txn)));
                }
                EventKind::Eject => {
                    parts.push(format!(
                        r#"{{"ph":"e","cat":"packet","id":{},"pid":{PID_PACKETS},"tid":1,"ts":{},"name":"txn{}"}}"#,
                        ev.txn, ev.cycle, ev.txn
                    ));
                    parts.push(slice(
                        PID_LOCS,
                        tid,
                        ev.cycle,
                        &format!("eject txn{}", ev.txn),
                    ));
                }
            }
        }

        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
            parts.join(",\n")
        )
    }
}

/// A 1-cycle complete ("X") slice on a location track.
fn slice(pid: u32, tid: u32, ts: u64, name: &str) -> String {
    format!(
        r#"{{"ph":"X","pid":{pid},"tid":{tid},"ts":{ts},"dur":1,"name":{}}}"#,
        Quoted(name)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Recorder, TraceConfig};
    use ringmesh_snap::json::Json;

    fn sample_report() -> TraceReport {
        let mut r = Recorder::new(TraceConfig {
            window_cycles: 5,
            ..Default::default()
        });
        let mut map = Heatmap::new("links", "level", "side", 1, 2);
        map.bump(0, 0, 0); // registered pre-populated maps keep their counts
        let id = r.add_heatmap(map);
        for cycle in 0..10u64 {
            r.on_cycle(cycle);
            r.on_count(Counter::FlitsForwarded, 2);
            r.on_gauge(Gauge::InFlightPackets, 1.5);
            r.on_heatmap(id, 0, (cycle % 2) as usize, 1);
        }
        r.on_event(FlitEvent {
            txn: 4,
            cycle: 0,
            at: TraceLoc::Pm { pm: 0 },
            kind: EventKind::Inject {
                src: 0,
                dst: 3,
                flits: 6,
            },
        });
        r.on_event(FlitEvent {
            txn: 4,
            cycle: 2,
            at: TraceLoc::RingStation {
                ring: 1,
                station: 2,
            },
            kind: EventKind::Hop,
        });
        r.on_event(FlitEvent {
            txn: 4,
            cycle: 5,
            at: TraceLoc::Pm { pm: 3 },
            kind: EventKind::Eject,
        });
        r.finish()
    }

    #[test]
    fn text_report_includes_tables_heatmap_and_event_footer() {
        let text = sample_report().to_text();
        assert!(text.contains("flits_forwarded"), "{text}");
        assert!(text.contains("in_flight_packets"), "{text}");
        assert!(text.contains("links (rows: level, cols: side)"), "{text}");
        assert!(text.contains("events: 3 recorded (0 dropped)"), "{text}");
    }

    #[test]
    fn counter_table_omits_silent_counters() {
        let table = sample_report().counter_table();
        let md = table.to_markdown();
        assert!(md.contains("flits_forwarded"));
        assert!(!md.contains("iri_crossings"), "{md}");
    }

    #[test]
    fn chrome_trace_pairs_async_span_and_places_hops_on_location_tracks() {
        let json = sample_report().chrome_trace_json();
        assert!(json.contains(r#""ph":"b","cat":"packet","id":4"#), "{json}");
        assert!(json.contains(r#""ph":"e","cat":"packet","id":4"#), "{json}");
        assert!(json.contains(r#""name":"ring1/st2""#), "{json}");
        assert!(
            json.contains(r#""name":"txn4 pm0->pm3 (6 flits)""#),
            "{json}"
        );
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let json = sample_report().chrome_trace_json();
        Json::parse(&json).expect("export must be syntactically valid JSON");
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(Quoted("a\"b\\c\nd").to_string(), r#""a\"b\\c\nd""#);
    }
}
