//! Integration tests for the `ringmesh-trace` observability subsystem:
//! a traced run must produce per-counter batch summaries, populated
//! link heatmaps, a valid Chrome-trace export — and must not perturb
//! the simulation it observes.

use ringmesh::{NetworkSpec, SimParams, System, SystemConfig, TraceConfig, TraceReport};
use ringmesh_net::CacheLineSize;
use ringmesh_trace::EventKind;

fn quick_sim() -> SimParams {
    SimParams {
        warmup: 500,
        batch_cycles: 500,
        batches: 4,
    }
}

fn traced_run(network: NetworkSpec, tcfg: TraceConfig) -> (ringmesh::RunResult, TraceReport) {
    let cfg = SystemConfig::new(network, CacheLineSize::B32).with_sim(quick_sim());
    System::new(cfg).unwrap().run_traced(tcfg).unwrap()
}

fn counter_total(report: &TraceReport, name: &str) -> u64 {
    report
        .counters
        .iter()
        .find(|c| c.counter.name() == name)
        .map(|c| c.total)
        .unwrap_or_else(|| panic!("counter {name} missing from report"))
}

#[test]
fn two_level_ring_trace_reports_counters_heatmap_and_events() {
    let tcfg = TraceConfig {
        window_cycles: 500,
        sample_every: 4,
        ..TraceConfig::default()
    };
    let (r, report) = traced_run(NetworkSpec::ring("2:3".parse().unwrap()), tcfg);

    // The run itself measured something.
    assert!(r.workload.retired > 0);
    assert_eq!(report.cycles, quick_sim().warmup + 4 * 500);

    // Counters: flits moved, packets entered and left, txns tracked.
    assert!(counter_total(&report, "flits_forwarded") > 0);
    let injected = counter_total(&report, "packets_injected");
    let delivered_pkts = counter_total(&report, "packets_delivered");
    assert!(injected > 0);
    assert!(delivered_pkts > 0 && delivered_pkts <= injected);
    assert!(
        counter_total(&report, "iri_crossings") > 0,
        "2:3 crosses rings"
    );
    assert_eq!(counter_total(&report, "txns_issued"), r.workload.issued);
    assert_eq!(counter_total(&report, "txns_retired"), r.workload.retired);

    // Per-counter batch (window) summaries: multiple windows observed.
    let flits = report
        .counters
        .iter()
        .find(|c| c.counter.name() == "flits_forwarded")
        .unwrap();
    assert!(flits.per_window.n >= 4, "windows: {}", flits.per_window.n);
    assert!(flits.per_window.mean > 0.0);

    // Heatmap: 3 rings ("2:3" = 1 global + 2 locals), every ring busy.
    assert_eq!(report.heatmaps.len(), 1);
    let map = report.heatmaps[0].clone();
    let (rows, _cols) = map.dims();
    assert_eq!(rows, 3);
    assert!(map.total() > 0);
    let ascii = map.to_ascii();
    assert!(ascii.contains("flits forwarded per ring link"), "{ascii}");
    let csv = map.to_csv();
    assert!(csv.lines().count() >= 4, "header + 3 ring rows: {csv}");

    // Gauges sampled across windows.
    let occ = report
        .gauges
        .iter()
        .find(|g| g.gauge.name() == "ring_buffer_occupancy")
        .unwrap();
    assert!(occ.per_window.n >= 4);
    assert!(occ.mean > 0.0, "a loaded ring holds flits");

    // Event stream: inject/hop/eject present for sampled transactions,
    // in non-decreasing cycle order.
    assert!(!report.events.is_empty());
    assert!(report.events.windows(2).all(|w| w[0].cycle <= w[1].cycle));

    // Chrome-trace export: structurally a JSON object with paired
    // async begin/end spans and named location tracks.
    let json = report.chrome_trace_json();
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    assert!(json.contains(r#""traceEvents""#));
    assert!(json.contains(r#""ph":"b""#), "async span begins");
    assert!(json.contains(r#""ph":"e""#), "async span ends");
    assert!(json.contains(r#""ph":"X""#), "location slices");
    assert!(json.contains("ring"), "ring station tracks named");
    let begins = json.matches(r#""ph":"b""#).count();
    let ends = json.matches(r#""ph":"e""#).count();
    assert!(
        ends <= begins,
        "an eject without an inject: {ends} > {begins}"
    );
}

#[test]
fn mesh_trace_reports_grid_heatmap_and_input_occupancy() {
    let (_, report) = traced_run(NetworkSpec::mesh(3), TraceConfig::default());
    assert_eq!(report.heatmaps.len(), 1);
    assert_eq!(report.heatmaps[0].dims(), (3, 3));
    assert!(report.heatmaps[0].total() > 0);
    let occ = report
        .gauges
        .iter()
        .find(|g| g.gauge.name() == "mesh_input_occupancy")
        .unwrap();
    assert!(occ.mean > 0.0);
    assert!(counter_total(&report, "flits_forwarded") > 0);
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    // Same config, same seed: the traced run must reproduce the
    // untraced run's measurements exactly — observation only.
    let mk = || {
        SystemConfig::new(
            NetworkSpec::ring("2:3".parse().unwrap()),
            CacheLineSize::B32,
        )
        .with_sim(quick_sim())
    };
    let plain = System::new(mk()).unwrap().run().unwrap();
    let (traced, _) = System::new(mk())
        .unwrap()
        .run_traced(TraceConfig::default())
        .unwrap();
    assert_eq!(plain.latency, traced.latency);
    assert_eq!(plain.workload, traced.workload);
    assert_eq!(plain.percentiles, traced.percentiles);
}

#[test]
fn event_sampling_interval_filters_transactions() {
    let tcfg = TraceConfig {
        sample_every: 8,
        ..TraceConfig::default()
    };
    let (_, report) = traced_run(NetworkSpec::ring("6".parse().unwrap()), tcfg);
    assert!(!report.events.is_empty());
    assert!(
        report.events.iter().all(|e| e.txn % 8 == 0),
        "unsampled txn leaked into the event stream"
    );
}

/// The slotted ring has no tracing code of its own: `NetCore` counts
/// and times its packets as it does everyone's.
#[test]
fn slotted_ring_trace_accounts_for_every_packet() {
    let network = NetworkSpec::SlottedRing {
        spec: "2:3".parse().unwrap(),
    };
    let cfg = SystemConfig::new(network.clone(), CacheLineSize::B32).with_sim(quick_sim());
    let plain = System::new(cfg).unwrap().run().unwrap();
    let (traced, report) = traced_run(network, TraceConfig::default());
    assert_eq!(plain.fingerprint(), traced.fingerprint());

    // Every transaction is sampled and no event was evicted, so a
    // packet still in flight at the end is an Inject event that never
    // got its Eject.
    assert_eq!(report.events_dropped, 0);
    let events = |want: fn(&EventKind) -> bool| {
        report.events.iter().filter(|e| want(&e.kind)).count() as u64
    };
    let in_flight = events(|k| matches!(k, EventKind::Inject { .. }))
        - events(|k| matches!(k, EventKind::Eject));
    let injected = counter_total(&report, "packets_injected");
    let delivered = counter_total(&report, "packets_delivered");
    assert!(delivered > 0 && in_flight > 0, "{delivered} + {in_flight}");
    assert_eq!(injected, delivered + in_flight);
    assert_eq!(counter_total(&report, "packets_dropped"), 0);
    assert!(counter_total(&report, "flits_forwarded") > delivered);
    assert!(report.heatmaps.is_empty(), "it registers no heatmap");
}
