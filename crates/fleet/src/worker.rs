//! The remote worker: connects to a coordinator, registers with its
//! code-version hash, and runs dispatched jobs until told goodbye.
//!
//! A worker is deliberately **stateless**: it writes no checkpoints and
//! owns no cache. Crash recovery is entirely the coordinator's job —
//! a worker that dies mid-job simply never completes its lease, and the
//! coordinator re-dispatches elsewhere. That keeps the byte-identical
//! recovery argument in exactly one place (the coordinator's merge in
//! job-submission order) instead of spreading it across machines.
//!
//! Every completed job is answered with the canonical
//! [`result_payload`] text plus its FNV-1a content hash, and the worker
//! independently recomputes the content key from the dispatched spec —
//! a coordinator/worker disagreement on either is surfaced, never
//! papered over.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ringmesh::StopFlag;
use ringmesh_serve::wire::{self, LineReader, LineWriter, MAX_LINE_BYTES};
use ringmesh_serve::{parse_job, result_payload, run_job, JobError, ResultCache};
use ringmesh_snap::{hex64, Fingerprint};

use crate::protocol::{code_hash, CoordMsg, WorkerMsg};

/// How often a blocked coordinator-socket read wakes to poll the stop
/// flag.
const READ_TICK: Duration = Duration::from_millis(250);

/// The write half, shared by the read loop, the heartbeat pump and the
/// dispatch threads; the lock keeps their lines whole.
type Writer = Arc<Mutex<LineWriter<TcpStream>>>;

/// Worker tuning knobs.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Concurrent dispatches to accept (advertised at registration).
    pub threads: u32,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions { threads: 1 }
    }
}

/// How a worker session ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerExit {
    /// The coordinator said goodbye (or closed the connection) after a
    /// normal session.
    Done,
    /// Registration was refused — typed, with both code hashes, so the
    /// operator can see exactly which build is out of date.
    Refused {
        /// Machine-readable refusal reason from the coordinator.
        reason: String,
        /// The coordinator's code hash.
        expect: u64,
        /// This worker's code hash.
        got: u64,
    },
    /// The local stop flag was set (SIGTERM in the CLI).
    Stopped,
}

/// Connects to a coordinator at `addr`, registers, and serves
/// dispatches until the coordinator says goodbye, the connection drops,
/// or `stop` is set.
///
/// # Errors
///
/// Propagates connect and transport errors. A refused registration is
/// **not** an error — it returns [`WorkerExit::Refused`] so the CLI can
/// exit with a typed status.
pub fn run_worker(addr: &str, opts: &WorkerOptions, stop: &StopFlag) -> io::Result<WorkerExit> {
    let stream = TcpStream::connect(addr)?;
    wire::prepare(&stream, READ_TICK, Some(Duration::from_secs(5)))?;
    let mut reader = LineReader::new(BufReader::new(stream.try_clone()?), MAX_LINE_BYTES);
    let writer: Writer = Arc::new(Mutex::new(LineWriter::new(stream)));

    send(
        &writer,
        &WorkerMsg::Register {
            code: code_hash(),
            threads: opts.threads.max(1),
        },
    )?;
    let (worker_id, heartbeat_ms) = match read_msg(&mut reader, stop)? {
        Some(CoordMsg::Welcome {
            worker,
            heartbeat_ms,
        }) => (worker, heartbeat_ms),
        Some(CoordMsg::Refused {
            reason,
            expect,
            got,
        }) => {
            eprintln!(
                "ringmesh worker: registration refused ({reason}): \
                 coordinator has code {} but this build is {}",
                hex64(expect),
                hex64(got)
            );
            return Ok(WorkerExit::Refused {
                reason,
                expect,
                got,
            });
        }
        Some(_) | None => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "coordinator did not answer the registration",
            ))
        }
    };
    eprintln!("ringmesh worker: registered as worker {worker_id} with {addr}");

    // Per-dispatch cancellation flags, so a `cancel` (or shutdown)
    // interrupts the simulation at its next window instead of wasting
    // the rest of the run.
    let cancels: Mutex<HashMap<String, StopFlag>> = Mutex::new(HashMap::new());
    // Set once the read loop decides to exit, so the heartbeat pump
    // (and any dispatch threads) stop and the scope can join them.
    let session_over = StopFlag::new();
    let exit = std::thread::scope(|s| -> io::Result<WorkerExit> {
        // Heartbeat pump: liveness only, no payload.
        let hb_writer = Arc::clone(&writer);
        let hb_stop = stop.clone();
        let hb_over = session_over.clone();
        s.spawn(move || {
            let cadence = Duration::from_millis(heartbeat_ms.max(100));
            while !hb_stop.is_set() && !hb_over.is_set() {
                std::thread::sleep(cadence / 2);
                if send(&hb_writer, &WorkerMsg::Heartbeat).is_err() {
                    return; // connection gone; the read loop will exit
                }
            }
        });

        let exit = loop {
            if stop.is_set() {
                break WorkerExit::Stopped;
            }
            match read_msg(&mut reader, stop)? {
                None => break WorkerExit::Done, // EOF: coordinator gone
                Some(CoordMsg::Bye) => break WorkerExit::Done,
                Some(CoordMsg::Cancel { task }) => {
                    if let Some(flag) = cancels.lock().expect("cancel map").get(&task) {
                        flag.set();
                    }
                }
                Some(CoordMsg::Dispatch {
                    task,
                    key,
                    lease_ms: _,
                    window,
                    spec,
                }) => {
                    let task_stop = StopFlag::new();
                    cancels
                        .lock()
                        .expect("cancel map")
                        .insert(task.clone(), task_stop.clone());
                    let writer = Arc::clone(&writer);
                    let global_stop = stop.clone();
                    s.spawn(move || {
                        run_dispatch(&writer, &task, key, window, &spec, &task_stop, &global_stop);
                    });
                }
                Some(CoordMsg::Welcome { .. } | CoordMsg::Refused { .. }) => {
                    // Out-of-order handshake replay; ignore.
                }
            }
        };
        // Interrupt any still-running dispatches before the scope joins
        // them; their results are no longer deliverable anyway.
        session_over.set();
        for flag in cancels.lock().expect("cancel map").values() {
            flag.set();
        }
        Ok(exit)
    })?;
    Ok(exit)
}

/// Runs one dispatched job and reports `done` / `fail` (or nothing, if
/// canceled mid-run). Never panics the worker: every failure path turns
/// into a typed `fail` message.
fn run_dispatch(
    writer: &Writer,
    task: &str,
    key: u64,
    window: u64,
    spec: &ringmesh_serve::json::Json,
    task_stop: &StopFlag,
    global_stop: &StopFlag,
) {
    let fail = |reason: String| {
        let _ = send(
            writer,
            &WorkerMsg::Fail {
                task: task.to_string(),
                reason,
            },
        );
    };
    let spec = match parse_job(spec, task) {
        Ok(s) => s,
        Err(e) => return fail(format!("bad spec: {e}")),
    };
    // The key must reproduce from the spec alone: a mismatch means the
    // coordinator and worker disagree on canonicalization (mixed builds
    // slipping past the hash check) and the result must not be trusted.
    let computed = ResultCache::key(&spec.cfg);
    if computed != key {
        return fail(format!(
            "content-key mismatch: dispatched {} but spec canonicalizes to {}",
            hex64(key),
            hex64(computed)
        ));
    }
    // Stateless on purpose: no checkpoint path. Either of two stops
    // interrupts at the next window — a cancel for this dispatch, or
    // worker shutdown.
    let merged = StopFlag::new();
    let outcome = {
        let mut on_window = |w: ringmesh_serve::WindowEvent| {
            if task_stop.is_set() || global_stop.is_set() {
                merged.set();
            }
            let _ = send(
                writer,
                &WorkerMsg::Window {
                    task: task.to_string(),
                    cycle: w.cycle,
                    issued: w.issued,
                    retired: w.retired,
                },
            );
        };
        run_job(
            &spec.cfg,
            window.max(1),
            0,
            None,
            Some(&merged),
            &mut on_window,
        )
    };
    match outcome {
        Ok(o) => {
            let payload = result_payload(&spec.cfg, &o.result, key);
            let hash = Fingerprint::of(payload.as_bytes());
            let _ = send(
                writer,
                &WorkerMsg::Done {
                    task: task.to_string(),
                    key,
                    hash,
                    payload,
                },
            );
        }
        Err(JobError::Interrupted) => {} // canceled; nothing to report
        Err(JobError::Failed(e)) => fail(e),
    }
}

/// Writes one message line under the shared writer lock.
fn send(writer: &Writer, msg: &WorkerMsg) -> io::Result<()> {
    writer.lock().expect("writer poisoned").line(msg.encode())
}

/// Reads one coordinator message, polling `stop` through read
/// timeouts. `None` is EOF or stop; an oversized or undecodable line is
/// a transport error.
fn read_msg<R: BufRead>(
    reader: &mut LineReader<R>,
    stop: &StopFlag,
) -> io::Result<Option<CoordMsg>> {
    let Some(line) = reader.next_message(|| !stop.is_set())? else {
        return Ok(None);
    };
    CoordMsg::decode(&line)
        .map(Some)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad coordinator message"))
}
