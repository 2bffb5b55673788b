//! Running one sweep-point job: windowed progress, periodic
//! checkpoints, deterministic resume, cooperative interruption.
//!
//! The runner drives [`System::run_to`] in pauses aligned to the
//! ringmesh-trace sampling window ([`TraceConfig::window_cycles`]), so
//! streamed progress lines cover the same cycle spans a trace recorder
//! would summarize. Pausing at boundaries works uniformly across every
//! network model — including the slotted ring, which has no tracer
//! instrumentation — because per-window transaction counts come from
//! the workload's cumulative counters, not from trace callbacks.
//!
//! Checkpoints are a crash-safety side effect of the same loop: every
//! `checkpoint_every` cycles the full engine + network + workload state
//! is serialized next to the job's cache entry. If the server dies and
//! the job is resubmitted (or replayed from the batch journal), the
//! runner restores and continues; the determinism contract (enforced by
//! `tests/checkpoint_resume.rs`) says the resumed run
//! fingerprint-matches an uninterrupted one.
//!
//! The same window boundaries double as interruption points: a graceful
//! shutdown sets a [`StopFlag`], the runner notices at the next
//! boundary, flushes a final checkpoint, and returns
//! [`JobError::Interrupted`] — so SIGTERM loses at most one window of
//! progress and never a completed result.
//!
//! [`TraceConfig::window_cycles`]: ringmesh_trace::TraceConfig

use std::fmt;
use std::fs;
use std::path::Path;

use ringmesh::{RunResult, StopFlag, System, SystemConfig};

use crate::cache::write_atomic;

/// Progress for one sampling window of a running job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowEvent {
    /// Network cycle at the end of the window.
    pub cycle: u64,
    /// Transactions issued during the window.
    pub issued: u64,
    /// Transactions retired during the window.
    pub retired: u64,
}

/// What one job run produced.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The simulation result.
    pub result: RunResult,
    /// Final network cycle.
    pub cycles: u64,
    /// True if the run continued from an on-disk checkpoint.
    pub resumed: bool,
}

/// Why a job run did not produce a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// A graceful stop was requested; if the job had a checkpoint path,
    /// its state was flushed there so a restart resumes mid-run.
    Interrupted,
    /// The run itself failed (invalid config, stall, checkpoint I/O).
    Failed(String),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Interrupted => f.write_str("interrupted by shutdown; state checkpointed"),
            JobError::Failed(msg) => f.write_str(msg),
        }
    }
}

impl From<String> for JobError {
    fn from(msg: String) -> Self {
        JobError::Failed(msg)
    }
}

/// Runs `cfg` to completion, emitting a [`WindowEvent`] per sampling
/// window and (optionally) checkpointing to `ckpt` every
/// `checkpoint_every` cycles. If `ckpt` names an existing readable
/// checkpoint for this config, the run resumes from it; a stale or
/// corrupt file is ignored and the run starts fresh. The checkpoint is
/// removed once the run completes.
///
/// If `stop` is set while running, the job halts at the next window
/// boundary: with a `ckpt` path the full state is flushed there first,
/// then [`JobError::Interrupted`] is returned.
///
/// # Errors
///
/// [`JobError::Failed`] for config errors, stalls, or checkpoint I/O
/// failures; [`JobError::Interrupted`] for a cooperative stop.
pub fn run_job(
    cfg: &SystemConfig,
    window_cycles: u64,
    checkpoint_every: u64,
    ckpt: Option<&Path>,
    stop: Option<&StopFlag>,
    emit: &mut dyn FnMut(WindowEvent),
) -> Result<JobOutcome, JobError> {
    let window = window_cycles.max(1);
    let mut sys = System::new(cfg.clone()).map_err(|e| e.to_string())?;
    let mut state = sys.begin();

    let mut resumed = false;
    if let Some(path) = ckpt {
        if let Ok(bytes) = fs::read(path) {
            match sys.restore(&mut state, &bytes) {
                Ok(()) => resumed = true,
                Err(_) => {
                    // A failed restore may leave partial state behind;
                    // rebuild from scratch rather than trust it.
                    sys = System::new(cfg.clone()).map_err(|e| e.to_string())?;
                    state = sys.begin();
                }
            }
        }
    }

    let flush =
        |sys: &mut System, state: &ringmesh::RunState, path: &Path| -> Result<(), JobError> {
            let bytes = sys.checkpoint(state).map_err(|e| e.to_string())?;
            write_atomic(path, &bytes).map_err(|e| {
                JobError::Failed(format!("writing checkpoint {}: {e}", path.display()))
            })
        };

    let mut prev = sys.workload_stats();
    let mut last_ckpt = sys.cycle();
    loop {
        let stop_at = (sys.cycle() / window + 1) * window;
        let done = sys.run_to(&mut state, stop_at).map_err(|e| e.to_string())?;
        let stats = sys.workload_stats();
        emit(WindowEvent {
            cycle: sys.cycle(),
            issued: stats.issued - prev.issued,
            retired: stats.retired - prev.retired,
        });
        prev = stats;
        if done {
            break;
        }
        if stop.is_some_and(StopFlag::is_set) {
            if let Some(path) = ckpt {
                flush(&mut sys, &state, path)?;
            }
            return Err(JobError::Interrupted);
        }
        if let Some(path) = ckpt {
            if checkpoint_every > 0 && sys.cycle() - last_ckpt >= checkpoint_every {
                flush(&mut sys, &state, path)?;
                last_ckpt = sys.cycle();
            }
        }
    }

    let outcome = JobOutcome {
        result: sys.finish(&state),
        cycles: sys.cycle(),
        resumed,
    };
    if let Some(path) = ckpt {
        let _ = fs::remove_file(path);
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    use ringmesh::{NetworkSpec, SimParams};
    use ringmesh_net::CacheLineSize;

    use super::*;

    fn quick(network: NetworkSpec) -> SystemConfig {
        SystemConfig::new(network, CacheLineSize::B32)
            .with_sim(SimParams {
                warmup: 800,
                batch_cycles: 800,
                batches: 3,
            })
            .with_seed(17)
    }

    fn temppath(tag: &str) -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "ringmesh-runner-{tag}-{}-{}.ckpt",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn windows_align_to_the_sampling_grid_and_cover_the_run() {
        let cfg = quick(NetworkSpec::ring("6".parse().unwrap()));
        let mut windows = Vec::new();
        let out = run_job(&cfg, 1_000, 0, None, None, &mut |w| windows.push(w)).unwrap();
        assert!(!out.resumed);
        assert!(!windows.is_empty());
        for w in &windows[..windows.len() - 1] {
            assert_eq!(w.cycle % 1_000, 0, "interior window ends on the grid");
        }
        assert_eq!(windows.last().unwrap().cycle, out.cycles);
        let issued: u64 = windows.iter().map(|w| w.issued).sum();
        assert_eq!(
            issued, out.result.workload.issued,
            "windows partition the run"
        );
    }

    /// The slotted ring has no tracer hooks at all; windows must still
    /// stream because they come from run_to pauses, not trace sinks.
    #[test]
    fn slotted_ring_jobs_stream_windows_too() {
        let cfg = quick(NetworkSpec::SlottedRing {
            spec: "2:2:3".parse().unwrap(),
        });
        let mut n = 0;
        let out = run_job(&cfg, 500, 0, None, None, &mut |w| {
            n += 1;
            assert!(w.cycle > 0);
        })
        .unwrap();
        assert!(n >= 4, "expected several windows, got {n}");
        assert!(out.result.workload.retired > 0);
    }

    #[test]
    fn resume_from_checkpoint_matches_uninterrupted() {
        let cfg = quick(NetworkSpec::mesh(3));
        let clean = run_job(&cfg, 1_000, 0, None, None, &mut |_| {}).unwrap();

        // Produce a mid-run checkpoint the way an interrupted server
        // would have left one on disk.
        let path = temppath("resume");
        let mut sys = System::new(cfg.clone()).unwrap();
        let mut state = sys.begin();
        assert!(!sys.run_to(&mut state, 1_200).unwrap());
        fs::write(&path, sys.checkpoint(&state).unwrap()).unwrap();

        let out = run_job(&cfg, 1_000, 0, Some(&path), None, &mut |_| {}).unwrap();
        assert!(out.resumed, "checkpoint on disk must be picked up");
        assert_eq!(
            out.result.fingerprint(),
            clean.result.fingerprint(),
            "resumed run must be bit-identical"
        );
        assert!(!path.exists(), "checkpoint is removed on completion");
    }

    #[test]
    fn corrupt_checkpoint_falls_back_to_a_fresh_run() {
        let cfg = quick(NetworkSpec::ring("2:4".parse().unwrap()));
        let clean = run_job(&cfg, 1_000, 0, None, None, &mut |_| {}).unwrap();
        let path = temppath("corrupt");
        fs::write(&path, b"not a checkpoint").unwrap();
        let out = run_job(&cfg, 1_000, 0, Some(&path), None, &mut |_| {}).unwrap();
        assert!(!out.resumed);
        assert_eq!(out.result.fingerprint(), clean.result.fingerprint());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn periodic_checkpoints_are_written_while_running() {
        let cfg = quick(NetworkSpec::ring("6".parse().unwrap()));
        let path = temppath("periodic");
        let mut saw_file = false;
        let path2 = path.clone();
        let out = run_job(&cfg, 400, 800, Some(&path), None, &mut |_| {
            saw_file |= path2.exists();
        })
        .unwrap();
        assert!(saw_file, "a checkpoint should exist mid-run");
        assert!(!path.exists(), "and be cleaned up at the end");
        assert!(out.result.workload.retired > 0);
    }

    /// A stop mid-run flushes a checkpoint and a later run resumes from
    /// it to a fingerprint identical to an uninterrupted run — the unit
    /// form of the kill-and-resume chaos invariant.
    #[test]
    fn interruption_checkpoints_and_resume_matches_clean() {
        let cfg = quick(NetworkSpec::mesh(3));
        let clean = run_job(&cfg, 1_000, 0, None, None, &mut |_| {}).unwrap();

        let path = temppath("interrupt");
        let stop = StopFlag::new();
        let mut windows = 0;
        let stop2 = stop.clone();
        let err = run_job(&cfg, 1_000, 0, Some(&path), Some(&stop), &mut |_| {
            windows += 1;
            if windows == 2 {
                stop2.set();
            }
        })
        .unwrap_err();
        assert_eq!(err, JobError::Interrupted);
        assert!(path.exists(), "interruption must flush a checkpoint");

        let out = run_job(&cfg, 1_000, 0, Some(&path), None, &mut |_| {}).unwrap();
        assert!(out.resumed);
        assert_eq!(out.result.fingerprint(), clean.result.fingerprint());
        assert!(!path.exists());
    }

    /// A stop that is already set before the run reaches its first
    /// boundary still interrupts; without a checkpoint path nothing is
    /// written anywhere.
    #[test]
    fn preset_stop_interrupts_without_checkpoint() {
        let cfg = quick(NetworkSpec::ring("6".parse().unwrap()));
        let stop = StopFlag::new();
        stop.set();
        let err = run_job(&cfg, 1_000, 0, None, Some(&stop), &mut |_| {}).unwrap_err();
        assert_eq!(err, JobError::Interrupted);
    }
}
