//! `ringmesh-serve` — simulation as a service.
//!
//! A sweep-job server for the `ringmesh` simulator: clients submit
//! batches of sweep-point jobs as line-delimited JSON (over stdin/stdout
//! or a TCP socket), the server schedules them on the shared
//! [`WorkerPool`](ringmesh::WorkerPool), streams per-job windowed
//! progress, and answers repeated questions instantly from a
//! content-addressed result cache:
//!
//! - **Content-addressed caching** ([`ResultCache`]) — jobs are keyed
//!   by a digest of the canonicalized configuration (every
//!   output-relevant field, floats as raw IEEE-754 bits) plus the code
//!   version. Because simulations are deterministic, a key identifies
//!   one bit-exact result forever; resubmitting a sweep costs a file
//!   read per point. `verify_fraction` re-runs a deterministic sample
//!   of hits and diffs payloads bit for bit.
//! - **Checkpoint/resume** ([`run_job`]) — long jobs periodically
//!   serialize full engine + network + workload state next to their
//!   cache entry; a resubmitted job picks up where the dead server
//!   left off, and the resumed run fingerprint-matches an
//!   uninterrupted one.
//! - **Windowed streaming** — progress events cover ringmesh-trace
//!   sampling windows, so live stats line up with trace reports.
//! - **Crash safety** ([`Journal`]) — accepted batches append to an
//!   fsync'd write-ahead log before simulating; a server killed
//!   mid-batch finishes the work at its next startup (resuming from
//!   checkpoints) with fingerprint-identical results.
//! - **Self-healing cache** — every entry carries an FNV integrity
//!   footer verified on read; corrupt or torn entries are quarantined
//!   and recomputed, and a `--cache-budget` evicts
//!   least-recently-touched entries deterministically.
//! - **Multi-client serving** — [`Server::serve_tcp`] runs concurrent
//!   sessions with read/write deadlines over shared state; load beyond
//!   the admission limits is shed with typed `busy` events instead of
//!   queued unboundedly.
//! - **Fleet dispatch** ([`fleet`]) — an attached worker fleet runs
//!   batch misses under time-bounded leases with heartbeat-driven
//!   re-dispatch and straggler speculation; results merge in
//!   job-submission order, so a batch is byte-identical to a
//!   single-process run no matter how many workers served it or died
//!   mid-flight, and byte-divergent duplicate results are surfaced as
//!   hard determinism violations.
//!
//! ```text
//! $ printf '%s\n' \
//!     '{"op":"job","id":"r24","topology":"ring:2:3:4","scale":"quick"}' \
//!     '{"op":"run"}' '{"op":"quit"}' | ringmesh serve
//! {"event":"accepted","id":"r24","key":"...","cached":false}
//! {"event":"window","id":"r24","cycle":1000,"issued":...,"retired":...}
//! ...
//! {"event":"result","id":"r24","cached":false,"resumed":false,"data":{...}}
//! {"event":"batch","jobs":1,"cache_hits":0,"cache_misses":1,...}
//! {"event":"bye"}
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod coordinator;
mod jobspec;
mod journal;
mod protocol;
mod runner;
mod server;
pub mod wire;
mod worker;

/// The protocol's JSON value, parser and writer. The module lives in the
/// `ringmesh-snap` leaf, where the trace exporter can reach it too.
pub use ringmesh_snap::json;

pub use cache::{write_atomic, ResultCache, CODE_VERSION, QUARANTINE_STRIKE_LIMIT};
pub use jobspec::{parse_job, JobSpec};
pub use journal::{Journal, RecoveredJob, Recovery};
pub use runner::{run_job, JobError, JobOutcome, WindowEvent};
pub use server::{result_payload, ServeExit, ServeOptions, Server, MAX_PENDING_JOBS};
pub use wire::MAX_LINE_BYTES;

/// A fault-tolerant distributed sweep fleet: the server beyond one
/// machine.
///
/// A coordinator ([`FleetPool`](fleet::FleetPool)) accepts TCP
/// connections from remote workers ([`run_worker`](fleet::run_worker))
/// and, once attached with [`Server::set_fleet`], runs the cache misses
/// of each batch on them under **time-bounded leases**, keeping the
/// server's determinism contract intact across worker crashes:
///
/// - **Line-JSON protocol over `std::net`**
///   ([`WorkerMsg`](fleet::WorkerMsg), [`CoordMsg`](fleet::CoordMsg)),
///   framed by [`wire`] like every other socket — one message per line,
///   self-describing, forward-skippable.
/// - **Code-version handshake** — a worker registers with the FNV hash
///   of [`CODE_VERSION`] and the wire format's
///   [`PROTOCOL_VERSION`](fleet::PROTOCOL_VERSION)
///   ([`code_hash`](fleet::code_hash)); a mismatched build is refused
///   with a typed message naming both hashes, because a fleet of mixed
///   builds could silently produce non-reproducible sweeps.
/// - **Leases, heartbeats, re-dispatch** — every dispatch carries a
///   deadline; the jobs of a worker that dies or misses its heartbeats
///   re-enqueue (on a worker that has not run them when one is free,
///   or the local pool as a fallback) under capped exponential backoff.
/// - **Straggler speculation with first-result-wins** — a job whose
///   lease expires without a progress window is speculatively
///   dispatched a second time, once; a silent lease that cannot be
///   speculated is handed back. Duplicate results deduplicate by
///   content hash, and **byte-divergent** duplicates are reported as a
///   hard determinism violation rather than silently picking one.
/// - **Byte-identical merges** — the server emits results in job
///   submission order, so a batch's output (and its batch fingerprint)
///   is identical whether it ran on zero, one, or ten workers, and
///   regardless of which of them died mid-flight. A chaos test pins
///   this by `kill -9`ing workers mid-batch and diffing against a
///   single-process control run.
pub mod fleet {
    pub use crate::coordinator::{FleetOptions, FleetPool, RemoteEvent, RemoteOutcome, RemoteTask};
    pub use crate::protocol::{code_hash, CoordMsg, WorkerMsg, PROTOCOL_VERSION};
    pub use crate::worker::{run_worker, WorkerExit};
}
