//! One simulated system: a network plus the M-MRP workload driving it.

use std::error::Error;
use std::fmt;

use ringmesh_engine::{StallError, Watchdog};
use ringmesh_faults::{ConservationError, FaultConfig, FaultInjector, FaultReport, FaultSchedule};
use ringmesh_net::{
    check_workload, snap_network, ConfigError, Interconnect, NodeId, Packet, UtilizationReport,
};
use ringmesh_snap::{header, Codec, Fingerprint, Snap, SnapError, SnapReader, SnapWriter};
use ringmesh_stats::{BatchMeans, Histogram, Summary};
use ringmesh_trace::{TraceConfig, TraceReport, Tracer};
use ringmesh_workload::{Mmrp, MmrpStats, PacketSizer, RetryPolicy, RetryStats};

use crate::config::SystemConfig;

/// Failure modes of a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The network watchdog detected a deadlock-like stall.
    Stall(StallError),
    /// The configuration is invalid (e.g. a non-square mesh size).
    InvalidConfig(ConfigError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Stall(e) => write!(f, "simulation stalled: {e}"),
            RunError::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
        }
    }
}

impl Error for RunError {}

impl From<StallError> for RunError {
    fn from(e: StallError) -> Self {
        RunError::Stall(e)
    }
}

impl From<ConfigError> for RunError {
    fn from(e: ConfigError) -> Self {
        RunError::InvalidConfig(e)
    }
}

/// Results of one simulation point.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Round-trip access latency across batch means, in network cycles.
    pub latency: Summary,
    /// Latency percentiles `(p50, p95, p99)` over all post-warm-up
    /// transactions (to ~5% bucket resolution); `None` if none
    /// completed.
    pub percentiles: Option<(f64, f64, f64)>,
    /// Completed transactions per cycle over the measurement horizon
    /// (system throughput).
    pub throughput: f64,
    /// Network utilization over the measurement horizon.
    pub utilization: UtilizationReport,
    /// Workload counters over the whole run (including warm-up).
    pub workload: MmrpStats,
    /// Number of processing modules simulated.
    pub pms: u32,
}

impl RunResult {
    /// Mean round-trip latency in cycles — the paper's primary measure.
    pub fn mean_latency(&self) -> f64 {
        self.latency.mean
    }

    /// A 64-bit digest over the raw bits of every field: two results
    /// fingerprint equal exactly when they are bit-identical. Used to
    /// prove a resumed run matches an uninterrupted one and to verify
    /// cached serve results against fresh re-runs.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        fp.write_u64(self.latency.n as u64);
        fp.write_f64(self.latency.mean);
        fp.write_f64(self.latency.std_dev);
        fp.write_f64(self.latency.ci95);
        fp.write_f64(self.latency.min);
        fp.write_f64(self.latency.max);
        match self.percentiles {
            Some((p50, p95, p99)) => {
                fp.write_u64(1);
                fp.write_f64(p50);
                fp.write_f64(p95);
                fp.write_f64(p99);
            }
            None => fp.write_u64(0),
        }
        fp.write_f64(self.throughput);
        fp.write_f64(self.utilization.overall);
        fp.write_u64(self.utilization.levels.len() as u64);
        for level in &self.utilization.levels {
            fp.write_str(&level.label);
            fp.write_f64(level.utilization);
        }
        fp.write_u64(self.workload.issued);
        fp.write_u64(self.workload.retired);
        fp.write_u64(self.workload.local_retired);
        fp.write_u64(u64::from(self.pms));
        fp.finish()
    }
}

/// What to break during a [`System::run_faulty`] run and how the
/// endpoints should defend themselves.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Fault classes, rates and seed (see [`FaultConfig`]).
    pub faults: FaultConfig,
    /// End-to-end timeout/retry policy at the processors; `None` leaves
    /// dropped transactions unrecovered (their slots leak until the
    /// stall watchdog trips — useful to demonstrate why the layer
    /// exists).
    pub retry: Option<RetryPolicy>,
}

impl FaultPlan {
    /// A plan running `faults` with the default retry policy.
    pub fn new(faults: FaultConfig) -> Self {
        FaultPlan {
            faults,
            retry: Some(RetryPolicy::default()),
        }
    }

    /// Returns the plan with a specific retry policy.
    #[must_use]
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Returns the plan with the retry layer disabled.
    #[must_use]
    pub fn without_retry(mut self) -> Self {
        self.retry = None;
        self
    }

    // Inert: only the frozen `benchmark/` harness calls this. Every
    // faulty run is audited against the packet store.
    #[doc(hidden)]
    #[must_use]
    pub fn with_check(self) -> Self {
        self
    }
}

/// Results of a faulty run: the usual measurements plus fault, retry
/// and conservation accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRunReport {
    /// The ordinary measurement results (latency only samples
    /// transactions that completed; throughput is *delivered*
    /// throughput).
    pub result: RunResult,
    /// What the injector did: drops by reason, corruption marks,
    /// link-down events applied, nodes killed.
    pub faults: FaultReport,
    /// End-to-end layer counters (zero when retry was disabled).
    pub retry: RetryStats,
    /// `(injected, delivered, dropped)` conservation-ledger totals.
    pub conservation: (u64, u64, u64),
    /// A detected conservation violation — always `None` unless the
    /// simulator itself is buggy; surfaced so harnesses can fail loudly
    /// instead of publishing corrupt numbers.
    pub violation: Option<ConservationError>,
}

/// A ready-to-run simulation: network + workload + measurement plan.
///
/// # Example
///
/// ```
/// use ringmesh::{NetworkSpec, SimParams, System, SystemConfig};
/// use ringmesh_net::CacheLineSize;
///
/// let cfg = SystemConfig::new(NetworkSpec::mesh(2), CacheLineSize::B32)
///     .with_sim(SimParams::quick());
/// let result = System::new(cfg)?.run()?;
/// assert!(result.mean_latency() > 0.0);
/// # Ok::<(), ringmesh::RunError>(())
/// ```
pub struct System {
    cfg: SystemConfig,
    net: Box<dyn Interconnect>,
    workload: Mmrp,
}

impl fmt::Debug for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("System")
            .field("network", &self.cfg.network.label())
            .field("pms", &self.cfg.network.num_pms())
            .finish()
    }
}

impl System {
    /// Builds the network and workload described by `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::InvalidConfig`] for inconsistent
    /// configurations.
    pub fn new(cfg: SystemConfig) -> Result<System, RunError> {
        cfg.validate()?;
        let net = cfg.network.build(cfg.cache_line)?;
        System::with_network(cfg, net)
    }

    // Inert: only the frozen `benchmark/` harness calls this.
    #[doc(hidden)]
    pub fn set_kernel_threads(&mut self, _threads: usize) {}

    /// Builds a system around a hand-built network (for ablations that
    /// tune network internals beyond what [`crate::NetworkSpec`]
    /// exposes). The placement and packet format are derived from
    /// `cfg.network`, which must describe the same network shape as
    /// `net`.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::InvalidConfig`] if `net` does not have
    /// `cfg.network`'s PM count.
    pub fn with_network(cfg: SystemConfig, net: Box<dyn Interconnect>) -> Result<System, RunError> {
        if net.num_pms() != cfg.network.num_pms() as usize {
            return Err(RunError::InvalidConfig(
                "hand-built network size does not match the config".into(),
            ));
        }
        let sizer = PacketSizer {
            format: cfg.network.format(),
            cache_line: cfg.cache_line,
        };
        let workload = Mmrp::new(
            cfg.network.placement(),
            cfg.workload,
            cfg.memory,
            sizer,
            cfg.seed,
        );
        Ok(System { cfg, net, workload })
    }

    /// Runs the full batch-means measurement and reports the results.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Stall`] if the network deadlocks.
    pub fn run(mut self) -> Result<RunResult, RunError> {
        self.run_mut()
    }

    /// Runs like [`run`](System::run) with a recording tracer installed
    /// in the network, and returns the finalized trace alongside the
    /// results.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Stall`] if the network deadlocks.
    pub fn run_traced(mut self, tcfg: TraceConfig) -> Result<(RunResult, TraceReport), RunError> {
        self.net.set_tracer(Tracer::recording(tcfg));
        let result = self.run_mut()?;
        let report = self
            .net
            .take_tracer()
            .and_then(Tracer::finish)
            .expect("recording tracer was installed");
        Ok((result, report))
    }

    /// Runs like [`run`](System::run) with a fault schedule installed
    /// in the network and (optionally) the end-to-end retry layer
    /// protecting transactions, then audits packet conservation.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::InvalidConfig`] if `plan` asks for faults on
    /// a network that exposes no fault domain (e.g. the slotted ring),
    /// and [`RunError::Stall`] if the network — or the system as a
    /// whole — stops making progress.
    pub fn run_faulty(mut self, plan: &FaultPlan) -> Result<FaultRunReport, RunError> {
        let domain = self.net.fault_domain();
        if plan.faults.is_active() && domain.is_empty() {
            return Err(RunError::InvalidConfig(ConfigError::Invalid(format!(
                "network '{}' does not support fault injection",
                self.cfg.network.label()
            ))));
        }
        let schedule = FaultSchedule::generate(&plan.faults, domain);
        self.net.set_faults(FaultInjector::new(&schedule, domain));
        if let Some(policy) = plan.retry {
            self.workload.set_retry(policy);
        }
        let result = self.run_mut()?;
        let violation = self.net.verify_conservation().err();
        Ok(FaultRunReport {
            result,
            faults: self
                .net
                .take_faults()
                .map(|f| f.report())
                .unwrap_or_default(),
            retry: self.workload.retry_stats(),
            conservation: self.net.conservation_counts(),
            violation,
        })
    }

    fn run_mut(&mut self) -> Result<RunResult, RunError> {
        let mut state = self.begin();
        self.run_to(&mut state, u64::MAX)?;
        Ok(self.finish(&state))
    }

    /// Starts a measurement, returning the loop state that
    /// [`run_to`](Self::run_to) advances. The split run API exists for
    /// checkpoint/resume: `begin` + `run_to(u64::MAX)` + `finish` is
    /// exactly [`run`](Self::run).
    pub fn begin(&self) -> RunState {
        let sim = self.cfg.sim;
        RunState {
            latency: BatchMeans::new(sim.warmup, sim.batch_cycles, sim.batches),
            histogram: Histogram::new(),
            // System-level watchdog: the networks watch their own
            // flits, but a wedged memory module or a workload whose
            // transactions all vanish (faults without retry) stalls
            // with an idle network. Completions count as end-to-end
            // progress, and so does retry-layer activity — attempt
            // counters are bounded per transaction, so sustained
            // retries/give-ups mean the protocol is live even when
            // nothing is getting through.
            dog: Watchdog::new((sim.horizon() / 4).max(2_000)),
            prev_activity: 0,
        }
    }

    /// Advances the measurement until it completes or the network clock
    /// reaches `stop`, whichever comes first. Returns `true` when the
    /// measurement is complete (call [`finish`](Self::finish)), `false`
    /// when it paused at `stop` (checkpoint and/or call again).
    /// Stopping and resuming at any cycle is invisible to the result:
    /// the loop carries no state outside `self` and `state`.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Stall`] if the network deadlocks.
    pub fn run_to(&mut self, state: &mut RunState, stop: u64) -> Result<bool, RunError> {
        let sim = self.cfg.sim;
        let mut delivered: Vec<(NodeId, Packet)> = Vec::new();
        let mut samples: Vec<(u64, f64)> = Vec::new();
        let net = self.net.as_mut();
        while !state.latency.is_complete(net.cycle()) {
            let now = net.cycle();
            if now >= stop {
                return Ok(false);
            }
            if now == sim.warmup {
                net.reset_counters();
            }
            samples.clear();
            self.workload.pre_cycle(net, now, &mut samples);
            delivered.clear();
            net.step(&mut delivered)?;
            // Deliveries happen during cycle `now`; timestamp them so.
            self.workload.post_cycle(net, &delivered, now, &mut samples);
            for &(t, v) in &samples {
                state.latency.record(t, v);
                if t >= sim.warmup {
                    state.histogram.record(v);
                }
            }
            let activity = self.workload.retry_stats().activity();
            let progress = samples.len() as u64 + (activity - state.prev_activity);
            state.prev_activity = activity;
            state
                .dog
                .observe(now, progress, self.workload.outstanding());
            state.dog.check(now)?;
        }
        Ok(true)
    }

    /// Assembles the results of a completed measurement.
    pub fn finish(&self, state: &RunState) -> RunResult {
        RunResult {
            latency: state.latency.summary(),
            percentiles: state.histogram.p50_p95_p99(),
            throughput: state.latency.rate_per_cycle(),
            utilization: self.net.utilization(),
            workload: self.workload.stats(),
            pms: self.cfg.network.num_pms(),
        }
    }

    /// The network clock, for choosing checkpoint instants.
    pub fn cycle(&self) -> u64 {
        self.net.cycle()
    }

    /// Workload counters so far — live progress for streaming callers
    /// of [`run_to`](Self::run_to).
    pub fn workload_stats(&self) -> MmrpStats {
        self.workload.stats()
    }

    /// Serializes the full mutable simulation state — network, workload
    /// and measurement loop — between cycles. A [`System`] freshly
    /// built from the same [`SystemConfig`] can
    /// [`restore`](Self::restore) these bytes and continue
    /// bit-identically to a run that never stopped.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError::Mismatch`] for networks that do not support
    /// snapshots or have a fault injector installed.
    pub fn checkpoint(&mut self, state: &RunState) -> Result<Vec<u8>, SnapError> {
        let mut w = SnapWriter::new();
        self.snap(&mut state.clone(), &mut w)?;
        Ok(w.into_bytes())
    }

    /// Restores a [`checkpoint`](Self::checkpoint) into this system,
    /// which must have been built from the *same* configuration (the
    /// config fingerprint is validated). On success the measurement
    /// continues from the checkpointed cycle via
    /// [`run_to`](Self::run_to).
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on truncated, corrupt or mismatched bytes;
    /// `self` may be partially restored and must be discarded then.
    pub fn restore(&mut self, state: &mut RunState, bytes: &[u8]) -> Result<(), SnapError> {
        self.snap(state, &mut SnapReader::new(bytes))
    }

    /// The checkpoint container: the header, the config fingerprint,
    /// the cycle, the network, the workload and `state`. Every packet
    /// a restore puts in flight must be one the workload could have
    /// sent on this machine, and every transaction a processor counts
    /// must be in flight or at a memory (the census's workload share,
    /// checked on every read and on debug builds' writes).
    fn snap<C: Codec>(&mut self, state: &mut RunState, c: &mut C) -> Result<(), SnapError> {
        header(c, "checkpoint")?;
        c.exact(self.cfg.fingerprint(), "config fingerprint")?;
        let mut cycle = self.net.cycle();
        cycle.snap(c)?;
        snap_network(&mut *self.net, c)?;
        if self.net.cycle() != cycle {
            return Err(SnapError::Corrupt(format!(
                "network restored to cycle {}, checkpoint header says {cycle}",
                self.net.cycle()
            )));
        }
        if c.reading() {
            let format = self.cfg.network.format();
            let store = self.net.core().store();
            store.validate_packets(self.net.num_pms(), format, self.cfg.cache_line)?;
        }
        self.workload.snap(c)?;
        if let Some(census) = c.census() {
            check_workload(census, self.net.core().store(), cycle)?;
        }
        state.snap(c)?;
        if c.reading() {
            // What the loop last saw of the retry layer is what the
            // workload's counters say now, as at every cycle's end.
            state.prev_activity = self.workload.retry_stats().activity();
        }
        Ok(())
    }
}

/// Resumable state of the measurement loop — everything
/// [`System::run_to`] tracks outside the network and workload. Created
/// by [`System::begin`], serialized inside [`System::checkpoint`].
#[derive(Debug, Clone)]
pub struct RunState {
    latency: BatchMeans,
    histogram: Histogram,
    dog: Watchdog,
    prev_activity: u64,
}

impl Snap for RunState {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        self.latency.snap(c)?;
        self.histogram.snap(c)?;
        self.dog.snap(c)?;
        self.prev_activity.snap(c)
    }
}

/// Builds and runs `cfg` in one call.
///
/// # Errors
///
/// Propagates [`System::new`] and [`System::run`] errors.
pub fn run_config(cfg: SystemConfig) -> Result<RunResult, RunError> {
    System::new(cfg)?.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{NetworkSpec, SimParams};
    use ringmesh_net::CacheLineSize;
    use ringmesh_workload::WorkloadParams;

    fn quick(network: NetworkSpec, cl: CacheLineSize) -> SystemConfig {
        SystemConfig::new(network, cl).with_sim(SimParams::quick())
    }

    #[test]
    fn small_ring_runs_and_measures() {
        let cfg = quick(NetworkSpec::ring("4".parse().unwrap()), CacheLineSize::B32);
        let r = run_config(cfg).unwrap();
        assert!(r.latency.n >= 4, "batches populated: {:?}", r.latency);
        // Zero-load-ish latency on a 4-ring: a couple of hops + memory.
        assert!(
            r.mean_latency() > 10.0 && r.mean_latency() < 100.0,
            "{}",
            r.mean_latency()
        );
        assert!(r.throughput > 0.0);
        assert!(r.workload.retired > 0);
    }

    #[test]
    fn small_mesh_runs_and_measures() {
        let cfg = quick(NetworkSpec::mesh(2), CacheLineSize::B32);
        let r = run_config(cfg).unwrap();
        assert!(
            r.mean_latency() > 10.0 && r.mean_latency() < 200.0,
            "{}",
            r.mean_latency()
        );
        assert!(r.utilization.overall > 0.0);
    }

    #[test]
    fn equal_seeds_replay_exactly() {
        let cfg = quick(
            NetworkSpec::ring("2:3".parse().unwrap()),
            CacheLineSize::B64,
        );
        let a = run_config(cfg.clone()).unwrap();
        let b = run_config(cfg).unwrap();
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.workload, b.workload);
    }

    #[test]
    fn different_seeds_differ() {
        let base = quick(
            NetworkSpec::ring("2:3".parse().unwrap()),
            CacheLineSize::B64,
        );
        let a = run_config(base.clone().with_seed(1)).unwrap();
        let b = run_config(base.with_seed(2)).unwrap();
        assert_ne!(a.latency.mean, b.latency.mean);
    }

    #[test]
    fn issued_eventually_retire() {
        let cfg = quick(NetworkSpec::mesh(3), CacheLineSize::B16);
        let r = run_config(cfg).unwrap();
        // Closed-loop with T=4: in-flight at the end is at most 4 per PM.
        assert!(r.workload.issued - r.workload.retired <= 4 * 9);
    }

    #[test]
    fn locality_reduces_latency_on_rings() {
        let mk = |r: f64| {
            quick(
                NetworkSpec::ring("3:3:6".parse().unwrap()),
                CacheLineSize::B64,
            )
            .with_workload(
                WorkloadParams::paper_baseline()
                    .with_region(r)
                    .with_outstanding(2),
            )
        };
        let no_loc = run_config(mk(1.0)).unwrap();
        let loc = run_config(mk(0.1)).unwrap();
        assert!(
            loc.mean_latency() < no_loc.mean_latency(),
            "R=0.1 {} !< R=1.0 {}",
            loc.mean_latency(),
            no_loc.mean_latency()
        );
    }

    #[test]
    fn invalid_mesh_rejected() {
        let cfg = quick(
            NetworkSpec::Mesh {
                side: 0,
                buffers: ringmesh_net::BufferRegime::FourFlit,
            },
            CacheLineSize::B32,
        );
        assert!(matches!(System::new(cfg), Err(RunError::InvalidConfig(_))));
    }

    #[test]
    fn invalid_workload_rejected() {
        // The builder asserts on this itself; a hand-rolled struct can
        // still smuggle the value in, and validate() must catch it.
        let cfg = quick(NetworkSpec::mesh(2), CacheLineSize::B32).with_workload(WorkloadParams {
            region: 0.0,
            ..WorkloadParams::paper_baseline()
        });
        assert!(matches!(System::new(cfg), Err(RunError::InvalidConfig(_))));
    }

    fn fault_plan(horizon: u64) -> FaultPlan {
        FaultPlan::new(FaultConfig {
            seed: 9,
            corrupt_prob: 0.02,
            link_down_events: 4,
            link_down_cycles: 300,
            dead_nodes: 1,
            horizon,
        })
    }

    #[test]
    fn faulty_ring_run_conserves_and_reports() {
        let cfg = quick(
            NetworkSpec::ring("2:4".parse().unwrap()),
            CacheLineSize::B32,
        );
        let plan = fault_plan(cfg.sim.horizon());
        let r = System::new(cfg).unwrap().run_faulty(&plan).unwrap();
        assert!(r.violation.is_none(), "{:?}", r.violation);
        assert!(r.faults.nodes_killed == 1);
        assert!(r.result.workload.retired > 0, "traffic still flows");
        let (injected, delivered, dropped) = r.conservation;
        assert!(injected >= delivered + dropped);
        assert_eq!(r.faults.drops.total(), dropped);
    }

    #[test]
    fn faulty_mesh_run_conserves_and_reports() {
        let cfg = quick(NetworkSpec::mesh(3), CacheLineSize::B32);
        let plan = fault_plan(cfg.sim.horizon());
        let r = System::new(cfg).unwrap().run_faulty(&plan).unwrap();
        assert!(r.violation.is_none(), "{:?}", r.violation);
        assert!(r.result.workload.retired > 0, "traffic still flows");
        let (injected, delivered, dropped) = r.conservation;
        assert!(injected >= delivered + dropped);
    }

    #[test]
    fn faulty_runs_replay_bit_for_bit() {
        let cfg = quick(
            NetworkSpec::ring("2:4".parse().unwrap()),
            CacheLineSize::B32,
        );
        let plan = fault_plan(cfg.sim.horizon());
        let a = System::new(cfg.clone()).unwrap().run_faulty(&plan).unwrap();
        let b = System::new(cfg).unwrap().run_faulty(&plan).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn faults_on_slotted_ring_rejected() {
        let cfg = quick(
            NetworkSpec::SlottedRing {
                spec: "4".parse().unwrap(),
            },
            CacheLineSize::B32,
        );
        let plan = fault_plan(1_000);
        let r = System::new(cfg).unwrap().run_faulty(&plan);
        assert!(matches!(r, Err(RunError::InvalidConfig(_))));
    }

    #[test]
    fn inactive_fault_plan_matches_clean_run() {
        let cfg = quick(
            NetworkSpec::ring("2:3".parse().unwrap()),
            CacheLineSize::B64,
        );
        let clean = System::new(cfg.clone()).unwrap().run().unwrap();
        // An installed-but-empty schedule (plus the retry layer idling
        // above it) must not perturb the simulation in any way.
        let plan = FaultPlan::new(FaultConfig::none(5));
        let faulty = System::new(cfg).unwrap().run_faulty(&plan).unwrap();
        assert_eq!(clean, faulty.result);
        assert_eq!(faulty.faults.drops.total(), 0);
        assert_eq!(faulty.retry, ringmesh_workload::RetryStats::default());
        assert!(faulty.violation.is_none());
    }
}
