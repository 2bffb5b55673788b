//! Invariants at the sizes the benchmark times (ROADMAP 5e): the
//! conservation identity, the stall watchdogs and the zero-load model
//! at 4 096 PMs, and the linear set-up cost that makes 16 384 PMs a
//! matter of milliseconds.
//!
//! Per-slot conservation tracking and the per-cycle identity assert are
//! `debug_assertions`-gated in the networks, so this file checks most
//! under the tier-1 (debug) profile and under CI's
//! `-C debug-assertions` release jobs.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;

use ringmesh::analytic::mesh_zero_load_latency;
use ringmesh::{run_config, NetworkSpec, SimParams, System, SystemConfig};
use ringmesh_engine::Watchdog;
use ringmesh_net::{CacheLineSize, Interconnect, PacketFormat};
use ringmesh_workload::{
    MemoryParams, Mmrp, PacketSizer, Placement, Processor, Region, WorkloadParams,
};

/// Counts the bytes and the blocks each thread asks the allocator for,
/// so a test can read what a constructor allocated — transient buffers
/// included — whatever the tests on other threads are doing.
struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
    static BLOCKS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the only addition is two thread-local counters that themselves never
// allocate (const-initialised `Cell`s, no destructor).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: the allocator also runs during thread teardown.
        let _ = ALLOCATED.try_with(|a| a.set(a.get() + layout.size()));
        let _ = BLOCKS.try_with(|b| b.set(b.get() + 1));
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`,
        // with this `layout`.
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocated_by<T>(build: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let built = build();
    (built, ALLOCATED.with(Cell::get) - before)
}

/// Blocks and bytes `System::new` allocates for `spec`.
fn system_setup(spec: &str) -> (usize, usize) {
    let cfg = SystemConfig::new(spec.parse().expect(spec), CL);
    let blocks_before = BLOCKS.with(Cell::get);
    let (system, bytes) = allocated_by(|| System::new(cfg).expect(spec));
    let blocks = BLOCKS.with(Cell::get) - blocks_before;
    drop(system);
    (blocks, bytes)
}

const CL: CacheLineSize = CacheLineSize::B64;

fn network(spec: &NetworkSpec) -> Box<dyn Interconnect> {
    spec.build(CL).expect("spec was parsed")
}

fn workload(spec: &NetworkSpec) -> Mmrp {
    let sizer = PacketSizer {
        format: spec.format(),
        cache_line: CL,
    };
    Mmrp::new(
        spec.placement(),
        WorkloadParams::paper_baseline(),
        MemoryParams::default(),
        sizer,
        0x5ca1e,
    )
}

/// The `System::run_to` loop over the public layer API, so the test
/// can audit the network afterwards: network and system watchdogs must
/// stay clean and every injected packet must be delivered or in flight.
fn run_checked(spec: &str, cycles: u64) {
    let network_spec = spec.parse::<NetworkSpec>().expect(spec);
    let mut net = network(&network_spec);
    let mut wl = workload(&network_spec);
    let mut dog = Watchdog::new(2_000);
    let (mut delivered, mut samples) = (Vec::new(), Vec::new());
    let mut completed = 0u64;
    for now in 0..cycles {
        samples.clear();
        wl.pre_cycle(net.as_mut(), now, &mut samples);
        delivered.clear();
        net.step(&mut delivered)
            .unwrap_or_else(|e| panic!("{spec}: network watchdog: {e}"));
        wl.post_cycle(net.as_mut(), &delivered, now, &mut samples);
        completed += samples.len() as u64;
        dog.observe(now, samples.len() as u64, wl.outstanding());
        dog.check(now)
            .unwrap_or_else(|e| panic!("{spec}: system watchdog: {e}"));
    }
    net.verify_conservation()
        .unwrap_or_else(|e| panic!("{spec}: {e}"));
    let (injected, done, dropped) = net.conservation_counts();
    assert_eq!(injected, done + dropped + net.in_flight(), "{spec}");
    assert_eq!(dropped, 0, "{spec}: a fault-free run drops nothing");
    let stats = wl.stats();
    assert_eq!(stats.retired, completed, "{spec}");
    assert_eq!(wl.outstanding(), stats.issued - stats.retired, "{spec}");
    assert!(
        completed > 0,
        "{spec}: nothing completed in {cycles} cycles"
    );
}

#[test]
fn mesh_64_conserves_packets_under_a_clean_watchdog() {
    run_checked("mesh:64", 300);
}

#[test]
fn hybrid_16x16x16_conserves_packets_under_a_clean_watchdog() {
    run_checked("hybrid:16x16:16", 300);
}

/// The ring family at 64 PMs: the wormhole ring at its deepest, four
/// levels, and the slotted ring, which kept no ledger until `NetCore`
/// audited it like everyone else.
#[test]
fn rings_conserve_packets_under_a_clean_watchdog() {
    run_checked("ring:2:2:4:4", 600);
    run_checked("slotted:4:4:4", 600);
}

/// The zero-load analytic check of `tests/analytic_check.rs` at the
/// benchmark's largest mesh, in the same band. At 0.05 % misses and one
/// outstanding transaction the 64×64 mesh carries about two packets
/// per thousand routers; two short batches keep the debug build within
/// a few seconds.
#[test]
fn mesh_64_matches_the_zero_load_model() {
    let mut light = WorkloadParams::paper_baseline().with_outstanding(1);
    light.miss_rate = 0.0005;
    let predicted = mesh_zero_load_latency(64, CL, &light, 10);
    let sim = SimParams {
        warmup: 500,
        batch_cycles: 750,
        batches: 2,
    };
    let cfg = SystemConfig::new(NetworkSpec::mesh(64), CL)
        .with_workload(light)
        .with_sim(sim);
    let measured = run_config(cfg).unwrap().mean_latency();
    assert!(
        measured >= 0.98 * predicted && measured <= 1.25 * predicted,
        "mesh:64 {CL}: predicted {predicted:.1}, measured {measured:.1}"
    );
}

/// 16 384 PMs. With per-processor region tables and the P×P route
/// table this took about 1.3 GB and ten seconds before the first
/// cycle.
#[test]
fn mesh_128_constructs_and_steps() {
    run_checked("mesh:128", 50);
}

/// What a processor holds for its access region is a few words, not a
/// list: `Copy` rules out owning heap, the size bound rules out an
/// inline table.
#[test]
fn a_processor_owns_no_region_storage() {
    fn assert_copy<T: Copy>() {}
    assert_copy::<Region>();
    assert!(size_of::<Region>() <= 24, "{}", size_of::<Region>());
    // The issue parameters every processor shares live once, in the
    // driver: 168 bytes while each processor held its own copy.
    assert!(size_of::<Processor>() <= 120, "{}", size_of::<Processor>());
}

/// The workload's set-up is two heap blocks, the processors and the
/// memories, at any size: the due table is built by the first cycle,
/// not by `Mmrp::new`, so `System::new` allocates no more blocks.
#[test]
fn mmrp_new_allocates_two_blocks_at_any_size() {
    for pms in [1, 4, 144, 4_096] {
        let before = BLOCKS.with(Cell::get);
        let wl = Mmrp::new(
            Placement::Linear { pms },
            WorkloadParams::paper_baseline(),
            MemoryParams::default(),
            PacketSizer {
                format: PacketFormat::RING,
                cache_line: CL,
            },
            0x5ca1e,
        );
        let blocks = BLOCKS.with(Cell::get) - before;
        drop(wl);
        assert_eq!(blocks, 2, "{pms} PMs");
    }
}

/// Set-up allocates a fixed number of bytes per PM: quadrupling the
/// PM count must not raise the bytes allocated *per PM* (transient
/// buffers included), for the networks and for the workload. Either
/// quadratic table (P×P routes, P regions of P entries) at least
/// tripled it.
#[test]
fn setup_heap_is_linear_in_pms() {
    for (small, large) in [("mesh:32", "mesh:64"), ("hybrid:8x8:16", "hybrid:16x16:16")] {
        let per_pm = |spec: &str| {
            let network_spec = spec.parse::<NetworkSpec>().expect(spec);
            let pms = network_spec.num_pms() as f64;
            let (_net, net_bytes) = allocated_by(|| network(&network_spec));
            let (_wl, wl_bytes) = allocated_by(|| workload(&network_spec));
            (net_bytes as f64 / pms, wl_bytes as f64 / pms)
        };
        let (net_small, wl_small) = per_pm(small);
        let (net_large, wl_large) = per_pm(large);
        assert!(
            net_large <= 1.1 * net_small,
            "{large}: {net_large:.0} B/PM of network against {net_small:.0} for {small}"
        );
        assert!(
            wl_large <= 1.1 * wl_small,
            "{large}: {wl_large:.0} B/PM of workload against {wl_small:.0} for {small}"
        );
    }
}

/// What building a 4 096-PM mesh system costs, per PM: the router
/// input buffers are one allocation for the whole mesh, so the only
/// per-router blocks left are the two PM-side packet queues. Five
/// separately boxed FIFOs per router made this 7.2 blocks and 1 420
/// bytes.
#[test]
fn mesh_64_system_setup_is_three_blocks_a_pm() {
    let (blocks, bytes) = system_setup("mesh:64");
    let pms = 4096.0;
    assert!(
        blocks as f64 <= 3.0 * pms,
        "{:.2} allocations per PM",
        blocks as f64 / pms
    );
    assert!(
        bytes as f64 <= 900.0 * pms,
        "{:.0} bytes per PM",
        bytes as f64 / pms
    );
}

/// What building the benchmark's `sweep_mixed` systems allocates,
/// summed per family over its specs, may not exceed what it was after
/// that family's last reshaping. Each row is checked on its own, so
/// slack on one family cannot hide growth on another. A
/// sub-millisecond `setup_s` is too noisy to guard this; the allocator
/// is not.
#[test]
fn ring_slotted_and_hybrid_setup_allocates_no_more_than_before_their_reshaping() {
    // Rows of `benchmark/src/inputs.rs::SWEEP_TOPOLOGIES`, with the
    // blocks and bytes `System::new` allocates for them; the debug
    // profile tier-1 uses and release agree on both. Every row's bytes
    // came down by 48 per PM when the processors stopped holding their
    // own copies of the issue parameters (f461d75: 1 106 396, 305 960 and 288 664 bytes), the
    // blocks stayed. Every row came down again when a mesh router's
    // `active` and `go` vectors folded into its 32-byte crossbar block
    // and the fault injector was boxed out of `NetCore` (ff952cc:
    // 2 867 / 1 071 836, 449 / 288 680 and 821 / 271 384). The mesh
    // and hybrid bytes came down again when a mesh router's FIFO state
    // moved into its crossbar block and its buffered flits into 4-byte
    // lanes (5a17a1f: 2 857 / 1 069 376 and 811 / 266 944), the blocks
    // stayed. They came down again when the checkpoint stopped carrying
    // push records: a mesh router's `pushed` cycles (44 bytes a router
    // with padding) and a bank FIFO's `last_push` and `fresh` (10 bytes
    // a FIFO) went (8af7e50: 2 857 / 1 048 336 and 811 / 196 744), the
    // blocks stayed. Every row came down by 80 bytes a system when the
    // conservation ledger became three counters, its per-slot live set
    // and sticky violation gone (df5e398: 2 857 / 1 026 296,
    // 449 / 287 960 and 811 / 180 904), the blocks stayed. Every row
    // came down when `System::new` stopped boxing a topology builder
    // twice, two blocks a mesh or hybrid system, and cloning the ring
    // spec into each, two more a ring (17364c9: 2 857 / 1 025 496,
    // 449 / 287 560 and 811 / 180 504).
    const ROWS: [(&[&str], usize, usize); 3] = [
        // With every transit buffer in the ring tier's one `FifoBank`: a
        // heap block fewer per NIC and two fewer per IRI than the
        // separate buffers (3 945 blocks, 1 077 316 bytes), the bytes up
        // by the bank's slots for each NIC's unclocked upper side (f38ca94,
        // before the ring tier: 4 016 / 1 293 748).
        (
            &[
                "ring:2:2:4",
                "ring:2:3:6",
                "ring:2:2:4:4",
                "ring:2:2:5:5",
                "ring:2:3:4:6",
                "hybrid:2x2:4",
                "hybrid:3x3:4",
                "hybrid:4x4:4",
                "hybrid:5x5:4",
                "hybrid:6x6:4",
            ],
            2_827,
            1_024_952,
        ),
        // Without the route table (quadratic in P) and two of the three
        // outbox tables of cbc79d5 (493 blocks, 461 160 bytes).
        (
            &[
                "slotted:2:2:4",
                "slotted:2:3:6",
                "slotted:2:2:4:4",
                "slotted:2:2:5:5",
                "slotted:2:3:4:6",
            ],
            429,
            287_176,
        ),
        (
            &["mesh:4", "mesh:6", "mesh:8", "mesh:10", "mesh:12"],
            801,
            180_384,
        ),
    ];
    for (specs, parent_blocks, parent_bytes) in ROWS {
        let (mut blocks, mut bytes) = (0, 0);
        for spec in specs {
            let (b, n) = system_setup(spec);
            blocks += b;
            bytes += n;
        }
        assert!(
            blocks <= parent_blocks,
            "{}: {blocks} blocks against {parent_blocks}",
            specs[0]
        );
        assert!(
            bytes <= parent_bytes,
            "{}: {bytes} bytes against {parent_bytes}",
            specs[0]
        );
    }
}
