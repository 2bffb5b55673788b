//! Pins the one cycle kernel to the bytes of the last commit that had
//! two. Until 261a10e the mesh and hybrid `step` also had a phased
//! compute → commit → latch body (kernel threads ≥ 2, or a tracer
//! attached); it was the only second implementation the fused serial
//! loop was ever checked against. Before it was deleted, every value
//! below was captured on 261a10e at kernel threads 1 **and** 4, which
//! agreed on all of them.
//!
//! The ring rows were captured on 5e8e78f, the last commit on which
//! every network carried its own copy of the accounting that
//! `ringmesh_net::NetCore` now owns; the slotted ring could be neither
//! traced nor audited there, so its row says which digests are older
//! than the core and which are not.
//!
//! The `report_text` column is younger than every row: it was captured
//! for all of them on 1130071, before the ring tier's transit buffers
//! moved into one bank, to pin the blocked-cycle and IRI-crossing
//! counters and the occupancy gauges that nothing else pinned.
//!
//! Every `checkpoint_bytes` digest is younger still. Container version
//! 3 wrote state only — no FIFO's latched length, tail count or push
//! record, no free-slot or stop/go table, no worklist — but its ledger
//! carried a per-slot live set under `debug_assertions`, so each row
//! had a debug and a release digest. Version 4 writes the ledger's three
//! counters and no corruption marks: a checkpoint's bytes are the same
//! in every build, one digest a row, and each row quotes version 3's
//! pair.
//!
//! The horizon is 2 000 cycles rather than `SimParams::quick()`'s
//! 9 000 so the table stays near three seconds in a debug build.

use ringmesh::{
    FaultConfig, FaultPlan, NetworkSpec, RunError, SimParams, SnapError, System, SystemConfig,
    TraceConfig,
};
use ringmesh_net::CacheLineSize;
use ringmesh_snap::Fingerprint;

/// What one network produced on the commit its row names. `run` is
/// the `RunResult::fingerprint()` of the plain, the traced and the
/// checkpoint-resumed run alike; the rest are FNV-1a digests of bytes.
struct Golden {
    spec: &'static str,
    run: u64,
    /// `None`: the network exposes no fault domain and must refuse the
    /// plan with a typed error.
    faulty: Option<u64>,
    /// The checkpoint at half the horizon; the same in every build.
    checkpoint_bytes: u64,
    chrome_json: u64,
    heatmap_csv: u64,
    /// The traced run's `TraceReport::to_text()`: its counter and gauge
    /// tables (blocked cycles, IRI crossings, buffer occupancy), ASCII
    /// heatmaps and event footer.
    report_text: u64,
}

const GOLDEN: [Golden; 9] = [
    // Captured on 261a10e (debug and release builds, kernel threads 1
    // and 4).
    Golden {
        spec: "mesh:7",
        run: 0xd578_1c20_ff45_7552,
        faulty: Some(0x10be_9b25_c33b_9400),
        // Container version 3's [debug, release]: [0xabcd_0fa9_db66_e296, 0x4683_fd40_2ea6_3d72].
        checkpoint_bytes: 0x3568_d0a0_20c7_779d,
        chrome_json: 0x9d2a_2017_c0e3_27d9,
        heatmap_csv: 0xd37f_c4fd_b93b_bbf5,
        report_text: 0xb4b6_639f_df79_2669,
    },
    Golden {
        spec: "mesh:12:1flit",
        run: 0xabcc_93c1_5816_4ed9,
        faulty: Some(0x33d8_6f2c_cbbd_96fd),
        // Container version 3's [debug, release]: [0xf4eb_a5b5_bd58_37b2, 0x1d3e_3dc4_f64e_6f44].
        checkpoint_bytes: 0x3d86_75d2_36d6_8edb,
        chrome_json: 0x6841_99dc_640d_f34e,
        heatmap_csv: 0x82de_0a01_89a2_07ef,
        report_text: 0x912a_bbab_d99c_f39f,
    },
    Golden {
        spec: "mesh:5:cl",
        run: 0x6fe2_ecc1_069a_dff1,
        faulty: Some(0x8fe1_4630_be4a_0cf8),
        // Container version 3's [debug, release]: [0xa59b_8df9_c641_3484, 0x1ff6_78fe_b7df_0738].
        checkpoint_bytes: 0x07e5_2ece_2db9_aecf,
        chrome_json: 0x3c28_cc45_fbe7_1929,
        heatmap_csv: 0x461d_7558_2608_6d0a,
        report_text: 0xfaaa_51b1_36a6_c5e5,
    },
    // The hybrid registers no heatmap: its CSV digest is FNV-1a of "".
    // Its `checkpoint_bytes` were re-pinned by PR 22, which put its
    // local rings on the ring crate's `RingTier`: the station tables,
    // clock and reset tick now come first, in the hierarchical ring's
    // order and with its two-sided free-slot table, then the mesh
    // routers and the mesh flit count (261a10e's:
    // [0x9c5c_06ab_ec4e_fa86, 0x77d5_679b_dc82_c011] and
    // [0x1073_b9a8_db7e_79cd, 0x91fb_059d_5b82_85ae]). Everything
    // else in both rows is 261a10e's.
    Golden {
        spec: "hybrid:3x3:4",
        run: 0xe0ff_0042_48b5_6f62,
        faulty: Some(0x4169_5b36_f10c_64e5),
        // Container version 3's [debug, release]: [0xc582_d797_5746_ab9c, 0x5cef_36c4_4b3c_df53].
        checkpoint_bytes: 0x0340_bf1f_4da2_dc44,
        chrome_json: 0xf36c_58b9_cd2b_d0eb,
        heatmap_csv: 0xcbf2_9ce4_8422_2325,
        report_text: 0xb012_1cd5_1c68_7762,
    },
    Golden {
        spec: "hybrid:2x2:4",
        run: 0x1592_b0c8_91dd_4c69,
        faulty: Some(0xa52e_c8f4_dacc_06d5),
        // Container version 3's [debug, release]: [0x9c0c_a395_ac60_8da4, 0xe4ff_1d8f_1365_5833].
        checkpoint_bytes: 0xe3e8_a159_fcdb_c85a,
        chrome_json: 0x80bb_92d2_23dd_4d59,
        heatmap_csv: 0xcbf2_9ce4_8422_2325,
        report_text: 0x406a_612f_e2a4_f4d7,
    },
    // Captured on 5e8e78f (debug and release builds).
    Golden {
        spec: "ring:2:3:4",
        run: 0x8f50_2b5c_be55_e914,
        faulty: Some(0x008f_66d9_07bd_1dfb),
        // Container version 3's [debug, release]: [0x7219_9be3_7636_f926, 0x5711_2590_f530_0dbe].
        checkpoint_bytes: 0xdcff_292a_5176_4d35,
        chrome_json: 0x1343_f44b_b790_82a7,
        heatmap_csv: 0xc2c4_6fd8_5f2b_ff8f,
        report_text: 0x073d_96f2_0dc4_6cdf,
    },
    // The double-speed global ring: two kernel ticks per cycle.
    Golden {
        spec: "ring2x:2:2:4",
        run: 0xe7fa_a051_f420_8533,
        faulty: Some(0x3482_7517_81d4_ba51),
        // Container version 3's [debug, release]: [0x7c27_a91c_eef6_393b, 0x92ab_1600_4e74_3005].
        checkpoint_bytes: 0x161f_9664_3e60_e628,
        chrome_json: 0x7ce4_61f6_a5dc_88ce,
        heatmap_csv: 0x9a67_c06b_67c6_b7d9,
        report_text: 0x668a_ce05_a816_acb6,
    },
    // Four levels.
    Golden {
        spec: "ring:2:2:2:3",
        run: 0x42ec_d8f7_31a7_d5db,
        faulty: Some(0x8c3c_5482_ef48_6632),
        // Container version 3's [debug, release]: [0x4e64_9568_1f85_de65, 0x7ebc_f600_449b_1183].
        checkpoint_bytes: 0x8fba_21d4_afa4_a6de,
        chrome_json: 0x6bbb_40b5_2258_aac7,
        heatmap_csv: 0x0d56_c750_99fb_fb10,
        report_text: 0x3f80_c51a_20d5_8e89,
    },
    // `run` (plain and resumed) is 5e8e78f's. The other three are not:
    // there the slotted ring refused a tracer, and its checkpoint
    // (0x12c1_be04_aeea_115d in both builds) had no ledger or
    // corruption marks behind the watchdog. They were captured on the
    // commit that put it on `NetCore` and pin it from there on; it
    // registers no heatmap.
    Golden {
        spec: "slotted:2:3:4",
        run: 0x69a1_0c35_1bab_f6bd,
        faulty: None,
        // One outbox per station side since cbc79d5 ([0x86ed_3b07_8342_d29f, 0xa7cf_64f7_4220_1530]).
        // Container version 3's [debug, release]: [0x335c_dc6c_33f5_0bd9, 0x6f19_e0c0_e68d_884e].
        checkpoint_bytes: 0x2a96_86a0_bf9f_238d,
        chrome_json: 0x2f2d_cc27_6724_7826,
        heatmap_csv: 0xcbf2_9ce4_8422_2325,
        report_text: 0xfc19_5347_5850_e5bd,
    },
];

#[test]
fn every_run_path_reproduces_the_parent_commit() {
    let sim = SimParams {
        warmup: 500,
        batch_cycles: 500,
        batches: 3,
    };
    for g in &GOLDEN {
        let spec = g.spec;
        let network: NetworkSpec = spec.parse().unwrap();
        let cfg = SystemConfig::new(network, CacheLineSize::B32).with_sim(sim);
        let system = || System::new(cfg.clone()).unwrap();

        let run = system().run().unwrap().fingerprint();
        assert_eq!(run, g.run, "{spec}: run");

        // Corruption, link-down windows and one dead node, audited.
        let plan = FaultPlan::new(FaultConfig {
            seed: 21,
            corrupt_prob: 0.02,
            link_down_events: 3,
            link_down_cycles: 200,
            dead_nodes: 1,
            horizon: sim.horizon(),
        });
        match (system().run_faulty(&plan), g.faulty) {
            (Ok(report), Some(faulty)) => {
                assert_eq!(report.violation, None, "{spec}: conservation");
                assert_eq!(report.result.fingerprint(), faulty, "{spec}: run_faulty");
            }
            (Err(RunError::InvalidConfig(_)), None) => {}
            (other, _) => panic!("{spec}: run_faulty: {other:?}"),
        }

        // Checkpoint mid-measurement, restore into a fresh system. The
        // pinned byte digest is also what proves a checkpoint written
        // by the parent binary restores here: it is these bytes.
        let mut first = system();
        let mut state = first.begin();
        assert!(!first.run_to(&mut state, sim.horizon() / 2).unwrap());
        let bytes = first.checkpoint(&state).unwrap();
        assert_eq!(
            Fingerprint::of(&bytes),
            g.checkpoint_bytes,
            "{spec}: checkpoint bytes"
        );
        let mut second = system();
        let mut state = second.begin();
        second.restore(&mut state, &bytes).unwrap();
        assert!(second.run_to(&mut state, u64::MAX).unwrap());
        assert_eq!(
            second.finish(&state).fingerprint(),
            g.run,
            "{spec}: resumed"
        );

        // The traced run is the one whose loop body changed.
        let (result, trace) = system().run_traced(TraceConfig::default()).unwrap();
        assert_eq!(result.fingerprint(), g.run, "{spec}: traced");
        assert_eq!(
            Fingerprint::of(trace.chrome_trace_json().as_bytes()),
            g.chrome_json,
            "{spec}: Chrome trace"
        );
        let csv: String = trace.heatmaps.iter().map(|h| h.to_csv()).collect();
        assert_eq!(
            Fingerprint::of(csv.as_bytes()),
            g.heatmap_csv,
            "{spec}: heatmap CSV"
        );
        assert_eq!(
            Fingerprint::of(trace.to_text().as_bytes()),
            g.report_text,
            "{spec}: report text"
        );
    }
}

/// Restores `bytes` into a fresh `spec` system at the fixtures'
/// settings (32-byte lines, seed 41), which must refuse them with a
/// `Mismatch` naming the container version: a checkpoint of another
/// layout must be an error, because `run_job` turns a restore error
/// into a fresh start and has nothing to catch a panic with.
fn assert_refused_as_another_version(spec: &str, bytes: &[u8]) {
    let cfg = SystemConfig::new(spec.parse().unwrap(), CacheLineSize::B32)
        .with_sim(SimParams {
            warmup: 800,
            batch_cycles: 800,
            batches: 4,
        })
        .with_seed(41);
    let mut system = System::new(cfg).unwrap();
    let mut state = system.begin();
    match system.restore(&mut state, bytes) {
        Err(SnapError::Mismatch(msg)) => assert!(msg.contains("container version"), "{msg}"),
        other => panic!("{spec}: {other:?}"),
    }
}

/// A hybrid checkpoint in the layout before the ring tier (`fixtures/`:
/// cycle 1 200 of `hybrid:2x2:2`, seed 41, written by a debug build of
/// f38ca94, which restored it). Its reader once met the mesh routers'
/// section where the ring tier's station worklist was; it now stops at
/// the version word.
#[test]
fn a_hybrid_checkpoint_from_before_the_ring_tier_is_an_error() {
    let bytes = include_bytes!("fixtures/hybrid-2x2-2-pr20.ckpt");
    assert_refused_as_another_version("hybrid:2x2:2", bytes);
}

/// A slotted-ring checkpoint in the layout before its outboxes became
/// one per station side (`fixtures/`: cycle 1 200 of `slotted:2:3:4`,
/// seed 41, written by a debug build of cbc79d5, which restored it). It
/// held three outbox tables (per PM, IRI up, IRI down) and staged flit
/// trains behind a buffer pool; its reader once met the PM outbox count
/// where the station-side count was, and now stops at the version word.
#[test]
fn a_slotted_checkpoint_from_before_the_side_outboxes_is_an_error() {
    let bytes = include_bytes!("fixtures/slotted-2-3-4-cbc79d5.ckpt");
    assert_refused_as_another_version("slotted:2:3:4", bytes);
}

/// A hybrid checkpoint in container version 2 (`fixtures/`: cycle
/// 1 200 of `hybrid:2x2:2`, seed 41, written by a debug build of
/// 8af7e50, which restored it), the last layout to carry each FIFO's
/// latched length, tail count and push record, the ring tier's
/// free-slot table and worklist and the mesh's stop/go table and
/// activity flags.
#[test]
fn a_checkpoint_that_carries_caches_is_an_error() {
    let bytes = include_bytes!("fixtures/hybrid-2x2-2-8af7e50.ckpt");
    assert_refused_as_another_version("hybrid:2x2:2", bytes);
}

/// A hybrid checkpoint in container version 3 (`fixtures/`: cycle
/// 1 200 of `hybrid:2x2:2`, seed 41, written by a debug build of
/// df5e398, which restored it), the last layout whose ledger carried a
/// per-slot live set and a sticky violation, and whose network tail
/// carried the corruption marks.
#[test]
fn a_checkpoint_whose_ledger_tracks_slots_is_an_error() {
    let bytes = include_bytes!("fixtures/hybrid-2x2-2-df5e398.ckpt");
    assert_refused_as_another_version("hybrid:2x2:2", bytes);
}
