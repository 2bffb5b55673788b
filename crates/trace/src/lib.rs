//! Cycle-level observability for the `ringmesh` simulator.
//!
//! The simulator's headline numbers (latency, throughput) say *what*
//! happened; this crate exists to show *where* and *why*: which links
//! saturate on a hierarchical ring versus a mesh, where flits spend
//! their blocked cycles, how deep the inter-ring interface queues run.
//! It provides:
//!
//! - **Typed counters and gauges** ([`Counter`], [`Gauge`]) accumulated
//!   per sampling window, summarized with mean ± 95% CI via
//!   `ringmesh-stats` so trace numbers carry the same statistical
//!   discipline as the paper's batch means.
//! - **Host-work counts** ([`Work`]): side steps, router steps, due
//!   entries read — what the simulator did per cycle, kept out of the
//!   rendered reports so they read the same with or without them.
//! - **Utilization heatmaps** ([`Heatmap`]) — per-link flit counts over
//!   ring level × station-side or mesh row × column, rendered as ASCII
//!   shade plots or CSV.
//! - **A flit-lifecycle event stream** ([`FlitEvent`]: inject, per-hop,
//!   eject) with bounded memory (ring buffer plus transaction
//!   sampling), exportable as Chrome-trace JSON loadable in Perfetto.
//!
//! The emit side is [`Tracer`]: a [`Recorder`] or nothing, and nothing
//! by default. Instrumented code holds a `Tracer` and calls
//! `count`/`gauge`/`event`; every method starts with an inlined
//! enabled-check, so an un-traced simulation pays a predictable
//! never-taken branch at worst — hot loops guard a whole block with
//! [`Tracer::is_enabled`] and pay nothing per flit.
//!
//! # Example
//!
//! ```
//! use ringmesh_trace::{Counter, Heatmap, TraceConfig, Tracer};
//!
//! let mut t = Tracer::recording(TraceConfig { window_cycles: 100, ..Default::default() });
//! let links = t.add_heatmap(Heatmap::new("links", "level", "side", 2, 4)).unwrap();
//! for cycle in 0..200 {
//!     t.cycle(cycle);
//!     t.count(Counter::FlitsForwarded, 3);
//!     t.heatmap(links, (cycle % 2) as usize, 0, 1);
//! }
//! let report = t.finish().unwrap();
//! assert_eq!(report.counters[Counter::FlitsForwarded as usize].total, 600);
//! assert_eq!(report.heatmaps[0].total(), 200);
//! println!("{}", report.to_text());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod heatmap;
mod metric;
mod recorder;
mod report;
mod tracer;

pub use event::{EventKind, FlitEvent, TraceLoc};
pub use heatmap::{Heatmap, HeatmapId};
pub use metric::{Counter, Gauge, Work};
pub use recorder::{Recorder, TraceConfig};
pub use report::{CounterReport, GaugeReport, TraceReport};
pub use tracer::Tracer;
