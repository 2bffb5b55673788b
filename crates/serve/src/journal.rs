//! Durable batch journal: an append-only, fsync'd line-JSON WAL.
//!
//! The cache makes *completed* work crash-safe (atomic writes, integrity
//! footers); the journal makes *accepted* work crash-safe. Before a
//! batch's cache misses start simulating, the server appends one `job`
//! record per miss — key plus the original wire-form job object — and
//! fsyncs. Each completed attempt appends a `done` record; a finished
//! batch appends `end`. Record shapes:
//!
//! ```text
//! {"rec":"job","batch":3,"key":"ab…ef","spec":{"op":"job","topology":"mesh:5",…}}
//! {"rec":"done","key":"ab…ef"}
//! {"rec":"end","batch":3}
//! ```
//!
//! On startup [`Journal::open`] replays the log: any `job` without a
//! matching `done` is work a dead server accepted but never finished.
//! Those records are rewritten as a fresh *recovery batch* (so a crash
//! during recovery loses nothing), and the server re-runs them —
//! resuming from their `.ckpt` checkpoints where present — before
//! accepting new connections. A SIGKILL at any point therefore yields a
//! cache whose completed batch is fingerprint-identical to an
//! uninterrupted run.
//!
//! Torn tails are expected: a record is only trusted if its line parses
//! as complete JSON, so a write cut short by the kill is ignored, never
//! misread. `done` is recorded for failed attempts too (the journal
//! tracks *attempts*, not successes) so a config that deterministically
//! stalls cannot wedge every subsequent startup in a recovery loop.
//!
//! Fleet dispatch adds an informational `lease` record — which worker
//! holds which job under what deadline — so a post-mortem can
//! reconstruct who was computing what when a machine died:
//!
//! ```text
//! {"rec":"lease","key":"ab…ef","worker":2,"attempt":1,"lease_ms":15000}
//! ```
//!
//! Replay ignores `lease` records (recovery cares only about
//! job-vs-done); they are an audit trail, not state.
//!
//! **Truncate-on-checkpoint:** the WAL does not grow without bound.
//! The journal tracks open batches and not-yet-done jobs; when the last
//! open batch ends with nothing pending, the file is truncated to empty
//! (the cache holds every completed result, so a fully-settled journal
//! carries no information). A server that runs for weeks therefore
//! keeps a journal proportional to its *in-flight* work, not its
//! history.

use std::collections::HashSet;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use ringmesh_snap::{hex64, parse_hex64};

use crate::json::{obj, Json};

/// Name of the journal file under the cache root.
const JOURNAL_FILE: &str = "journal.wal";

/// One job a dead server accepted but never finished.
#[derive(Debug, Clone)]
pub struct RecoveredJob {
    /// The job's content key (also names its checkpoint file).
    pub key: u64,
    /// The original wire-form job object, re-parseable by
    /// [`parse_job`](crate::parse_job).
    pub spec: Json,
}

/// Unfinished work found in the journal at startup, already re-staged
/// as a fresh batch so recovery itself is crash-safe.
#[derive(Debug)]
pub struct Recovery {
    /// The recovery batch's journal id (close it with
    /// [`Journal::end_batch`] once every job is done).
    pub batch: u64,
    /// The unfinished jobs, in original acceptance order.
    pub jobs: Vec<RecoveredJob>,
}

/// The append-only batch journal. All appends fsync before returning,
/// so an acknowledged record survives a SIGKILL.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
    next_batch: u64,
    /// Jobs begun but not yet recorded done (drives truncation).
    pending: HashSet<u64>,
    /// Batches begun but not yet ended (drives truncation).
    open_batches: u64,
}

impl Journal {
    /// Opens (creating if needed) the journal in `dir`, replays it, and
    /// compacts it down to the unfinished work (if any) as a fresh
    /// recovery batch.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors on the journal file itself.
    pub fn open(dir: &Path) -> io::Result<(Journal, Option<Recovery>)> {
        fs::create_dir_all(dir)?;
        let path = dir.join(JOURNAL_FILE);
        let pending = match fs::read_to_string(&path) {
            Ok(text) => replay(&text),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };

        // Rewrite compacted: pending jobs re-staged as batch 0, then
        // fsync, so a crash mid-recovery still finds them next time.
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        let recovery = if pending.is_empty() {
            None
        } else {
            for job in &pending {
                writeln!(file, "{}", job_record(0, job.key, &job.spec))?;
            }
            Some(Recovery {
                batch: 0,
                jobs: pending,
            })
        };
        file.sync_data()?;
        let pending: HashSet<u64> = recovery
            .iter()
            .flat_map(|r| r.jobs.iter().map(|j| j.key))
            .collect();
        let open_batches = u64::from(!pending.is_empty());
        Ok((
            Journal {
                path,
                file,
                next_batch: 1,
                pending,
                open_batches,
            },
            recovery,
        ))
    }

    /// Path of the journal file (for diagnostics and tests).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records that a batch of jobs is about to simulate; returns the
    /// batch id for [`end_batch`](Self::end_batch). Durable on return.
    ///
    /// # Errors
    ///
    /// Propagates write/fsync errors.
    pub fn begin_batch(&mut self, jobs: &[(u64, Json)]) -> io::Result<u64> {
        let batch = self.next_batch;
        self.next_batch += 1;
        for (key, spec) in jobs {
            writeln!(self.file, "{}", job_record(batch, *key, spec))?;
            self.pending.insert(*key);
        }
        self.open_batches += 1;
        self.file.sync_data()?;
        Ok(batch)
    }

    /// Records that a job was leased to a fleet worker — an audit-trail
    /// record replay ignores, durable on return so a post-mortem of a
    /// dead coordinator shows who held what.
    ///
    /// # Errors
    ///
    /// Propagates write/fsync errors.
    pub fn record_lease(
        &mut self,
        key: u64,
        worker: u64,
        attempt: u32,
        lease_ms: u64,
    ) -> io::Result<()> {
        writeln!(
            self.file,
            "{}",
            obj(vec![
                ("rec", Json::Str("lease".into())),
                ("key", Json::Str(hex64(key))),
                ("worker", Json::Num(worker as f64)),
                ("attempt", Json::Num(f64::from(attempt))),
                ("lease_ms", Json::Num(lease_ms as f64)),
            ])
        )?;
        self.file.sync_data()
    }

    /// Records that a job attempt ran to completion (success or
    /// deterministic failure — either way it must not replay at
    /// startup). Durable on return.
    ///
    /// # Errors
    ///
    /// Propagates write/fsync errors.
    pub fn record_done(&mut self, key: u64) -> io::Result<()> {
        writeln!(
            self.file,
            "{}",
            obj(vec![
                ("rec", Json::Str("done".into())),
                ("key", Json::Str(hex64(key))),
            ])
        )?;
        self.pending.remove(&key);
        self.file.sync_data()
    }

    /// Records that every job in `batch` is accounted for. Durable on
    /// return. When this closes the *last* open batch and no job is
    /// pending, the journal compacts itself to empty (the cache holds
    /// every completed result, so a settled WAL carries no state) —
    /// this is what keeps the file from growing across server
    /// lifetimes.
    ///
    /// # Errors
    ///
    /// Propagates write/fsync/truncate errors.
    pub fn end_batch(&mut self, batch: u64) -> io::Result<()> {
        writeln!(
            self.file,
            "{}",
            obj(vec![
                ("rec", Json::Str("end".into())),
                ("batch", Json::Num(batch as f64)),
            ])
        )?;
        self.open_batches = self.open_batches.saturating_sub(1);
        if self.open_batches == 0 && self.pending.is_empty() {
            // Truncate-on-checkpoint: everything the log records is
            // settled, so the history (this `end` line included) is
            // dead weight. Rewind before truncating so the next append
            // starts at offset zero.
            self.file.seek(SeekFrom::Start(0))?;
            self.file.set_len(0)?;
        }
        self.file.sync_data()
    }

    /// Jobs begun but not yet recorded done (diagnostics and tests).
    pub fn pending_jobs(&self) -> usize {
        self.pending.len()
    }

    /// Forces everything appended so far to disk (a no-op given every
    /// append fsyncs; kept as the explicit flush point for graceful
    /// shutdown).
    ///
    /// # Errors
    ///
    /// Propagates fsync errors.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }
}

/// Builds one `job` record line.
fn job_record(batch: u64, key: u64, spec: &Json) -> String {
    obj(vec![
        ("rec", Json::Str("job".into())),
        ("batch", Json::Num(batch as f64)),
        ("key", Json::Str(hex64(key))),
        ("spec", spec.clone()),
    ])
    .to_string()
}

/// Replays journal text into the list of unfinished jobs, in acceptance
/// order. Unparseable lines (torn tails) and malformed records are
/// skipped.
fn replay(text: &str) -> Vec<RecoveredJob> {
    let mut jobs: Vec<RecoveredJob> = Vec::new();
    for line in text.lines() {
        let Ok(rec) = Json::parse(line) else {
            continue; // torn tail from a kill mid-append
        };
        match rec.get("rec").and_then(Json::as_str) {
            Some("job") => {
                let key = rec.get("key").and_then(Json::as_str).and_then(parse_hex64);
                let spec = rec.get("spec");
                if let (Some(key), Some(spec)) = (key, spec) {
                    // Re-accepted job: latest spec wins, order preserved.
                    jobs.retain(|j| j.key != key);
                    jobs.push(RecoveredJob {
                        key,
                        spec: spec.clone(),
                    });
                }
            }
            Some("done") => {
                if let Some(key) = rec.get("key").and_then(Json::as_str).and_then(parse_hex64) {
                    jobs.retain(|j| j.key != key);
                }
            }
            _ => {} // `end` carries no per-job state; unknown recs skip
        }
    }
    jobs
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ringmesh-journal-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn spec(n: u64) -> Json {
        obj(vec![
            ("op", Json::Str("job".into())),
            ("seed", Json::Num(n as f64)),
        ])
    }

    #[test]
    fn clean_history_recovers_nothing() {
        let dir = tempdir("clean");
        {
            let (mut j, rec) = Journal::open(&dir).unwrap();
            assert!(rec.is_none());
            let b = j.begin_batch(&[(1, spec(1)), (2, spec(2))]).unwrap();
            j.record_done(1).unwrap();
            j.record_done(2).unwrap();
            j.end_batch(b).unwrap();
        }
        let (_, rec) = Journal::open(&dir).unwrap();
        assert!(rec.is_none(), "fully-done batches leave nothing pending");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unfinished_jobs_come_back_in_order() {
        let dir = tempdir("pending");
        {
            let (mut j, _) = Journal::open(&dir).unwrap();
            j.begin_batch(&[(5, spec(5)), (6, spec(6)), (7, spec(7))])
                .unwrap();
            j.record_done(6).unwrap();
            // Server dies here: 5 and 7 never ran to completion.
        }
        let (_, rec) = Journal::open(&dir).unwrap();
        let rec = rec.expect("two jobs pending");
        let keys: Vec<u64> = rec.jobs.iter().map(|job| job.key).collect();
        assert_eq!(keys, vec![5, 7]);
        assert_eq!(
            rec.jobs[0].spec.get("seed").and_then(Json::as_u64),
            Some(5),
            "original wire spec survives the crash"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_itself_is_crash_safe() {
        let dir = tempdir("rerecover");
        {
            let (mut j, _) = Journal::open(&dir).unwrap();
            j.begin_batch(&[(9, spec(9))]).unwrap();
        }
        // First restart stages a recovery batch but dies before done.
        {
            let (_, rec) = Journal::open(&dir).unwrap();
            assert_eq!(rec.unwrap().jobs.len(), 1);
        }
        // Second restart still sees the job.
        let (mut j, rec) = Journal::open(&dir).unwrap();
        let rec = rec.expect("still pending");
        assert_eq!(rec.jobs[0].key, 9);
        j.record_done(9).unwrap();
        j.end_batch(rec.batch).unwrap();
        let (_, rec) = Journal::open(&dir).unwrap();
        assert!(rec.is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_ignored_not_misread() {
        let dir = tempdir("torn");
        {
            let (mut j, _) = Journal::open(&dir).unwrap();
            j.begin_batch(&[(3, spec(3))]).unwrap();
        }
        // Simulate a kill mid-append: garbage half-line at the end.
        let path = dir.join(JOURNAL_FILE);
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        write!(file, "{{\"rec\":\"done\",\"key\":\"00000000000").unwrap();
        drop(file);
        let (_, rec) = Journal::open(&dir).unwrap();
        assert_eq!(
            rec.expect("torn done must not count").jobs[0].key,
            3,
            "job 3 is still pending because its done record tore"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn settled_journal_truncates_to_empty() {
        let dir = tempdir("compact");
        let (mut j, _) = Journal::open(&dir).unwrap();
        let b = j.begin_batch(&[(1, spec(1)), (2, spec(2))]).unwrap();
        assert_eq!(j.pending_jobs(), 2);
        j.record_done(1).unwrap();
        j.record_done(2).unwrap();
        assert!(fs::metadata(j.path()).unwrap().len() > 0);
        j.end_batch(b).unwrap();
        assert_eq!(
            fs::metadata(j.path()).unwrap().len(),
            0,
            "a settled WAL must truncate, not grow forever"
        );
        assert_eq!(j.pending_jobs(), 0);
        // And the journal keeps working after the truncation.
        let b2 = j.begin_batch(&[(3, spec(3))]).unwrap();
        drop(j);
        let (_, rec) = Journal::open(&dir).unwrap();
        assert_eq!(rec.expect("job 3 pending").jobs[0].key, 3);
        let _ = b2;
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_waits_for_every_open_batch() {
        let dir = tempdir("compact-overlap");
        let (mut j, _) = Journal::open(&dir).unwrap();
        // Two concurrent batches (max_batches > 1 in the server).
        let a = j.begin_batch(&[(1, spec(1))]).unwrap();
        let b = j.begin_batch(&[(2, spec(2))]).unwrap();
        j.record_done(1).unwrap();
        j.end_batch(a).unwrap();
        assert!(
            fs::metadata(j.path()).unwrap().len() > 0,
            "batch b is still open; its job record must survive"
        );
        j.record_done(2).unwrap();
        j.end_batch(b).unwrap();
        assert_eq!(fs::metadata(j.path()).unwrap().len(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lease_records_are_durable_audit_but_invisible_to_replay() {
        let dir = tempdir("lease");
        {
            let (mut j, _) = Journal::open(&dir).unwrap();
            j.begin_batch(&[(8, spec(8))]).unwrap();
            j.record_lease(8, 2, 1, 15_000).unwrap();
            j.record_lease(8, 3, 2, 15_000).unwrap();
            let text = fs::read_to_string(j.path()).unwrap();
            assert_eq!(text.matches("\"rec\":\"lease\"").count(), 2);
            assert!(text.contains("\"worker\":2") && text.contains("\"attempt\":2"));
        }
        // Replay: the job is still pending exactly once — leases do not
        // complete, duplicate, or reorder it.
        let (_, rec) = Journal::open(&dir).unwrap();
        let rec = rec.expect("leased-but-unfinished job is pending");
        assert_eq!(rec.jobs.len(), 1);
        assert_eq!(rec.jobs[0].key, 8);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resubmitted_key_keeps_one_pending_record() {
        let dir = tempdir("dup");
        {
            let (mut j, _) = Journal::open(&dir).unwrap();
            j.begin_batch(&[(4, spec(1))]).unwrap();
            j.begin_batch(&[(4, spec(2))]).unwrap();
        }
        let (_, rec) = Journal::open(&dir).unwrap();
        let rec = rec.unwrap();
        assert_eq!(rec.jobs.len(), 1);
        assert_eq!(
            rec.jobs[0].spec.get("seed").and_then(Json::as_u64),
            Some(2),
            "latest spec wins"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
