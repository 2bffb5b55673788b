//! Content-addressed result cache with integrity footers, quarantine,
//! and deterministic size-budgeted eviction.
//!
//! A cache key digests the *canonicalized* configuration (every
//! output-relevant field, floats as raw bits — see
//! [`SystemConfig::canonical`]) together with the code version, so a
//! key can only ever map to one bit-exact result. Layout on disk:
//!
//! ```text
//! .ringmesh-cache/
//!   ab/abcd0123deadbeef.json   sealed result payload (FNV footer)
//!   ab/abcd0123deadbeef.ckpt   in-progress checkpoint (deleted on completion)
//!   access.log                 append-only key-touch order (eviction recency)
//!   journal.wal                durable batch journal (see crate::journal)
//!   quarantine/                entries that failed integrity verification
//! ```
//!
//! Three robustness layers compose:
//!
//! - **Atomic writes.** Entries land via a temp file + rename, so a
//!   crash can never leave a half-written file at the entry path.
//! - **Integrity footers.** Every sealed entry ends with an FNV-1a
//!   digest of its payload (`\n#fnv64=<16 hex>\n`). [`ResultCache::lookup`]
//!   verifies the footer on every read; a torn, truncated, or tampered
//!   entry is moved to `quarantine/` and reported as a miss, so the
//!   server transparently recomputes it — the cache self-heals instead
//!   of serving poison.
//! - **Deterministic eviction.** Key touches (stores and hits) append to
//!   `access.log`; [`ResultCache::evict_to_budget`] drops
//!   least-recently-touched entries (ties broken by key) until the
//!   cache fits the budget. Recency comes from the log, never from
//!   filesystem timestamps, so two hosts that served the same request
//!   history evict the same entries in the same order. Both forms of
//!   the history are bounded by the number of distinct keys, not of
//!   touches: memory holds each key's last touch only, and the log is
//!   rewritten to one line per key whenever the lines appended since
//!   the last rewrite exceed [`LOG_SLACK`] times the keys it would
//!   keep — a server answering a million hits does not grow.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use ringmesh::SystemConfig;
use ringmesh_snap::{hex64, parse_hex64, Fingerprint};

/// The code-version component of every cache key. Bumping the crate
/// version invalidates all cached results, which is exactly right: a
/// new simulator build may produce different (still deterministic)
/// numbers.
pub const CODE_VERSION: &str = env!("CARGO_PKG_VERSION");

/// Marker that introduces the integrity footer of a sealed entry.
pub const FOOTER_PREFIX: &str = "\n#fnv64=";

/// How many times one key may be quarantined before the cache stops
/// rewriting its slot. A slot that keeps corrupting (bad sector, bad
/// RAM, hostile tampering) would otherwise drive an unbounded
/// quarantine → recompute → store → corrupt loop; past this limit the
/// key is answered by recomputation alone and the server emits a
/// `warn` event instead of churning the disk.
pub const QUARANTINE_STRIKE_LIMIT: u32 = 3;

/// Name of the quarantine directory under the cache root.
const QUARANTINE_DIR: &str = "quarantine";

/// Name of the key-touch order log under the cache root.
const ACCESS_LOG: &str = "access.log";

/// `access.log` is rewritten once it holds this many appended lines per
/// key it would keep (and at least [`LOG_SLACK_FLOOR`] of them).
const LOG_SLACK: usize = 4;

/// Fewest appended lines that trigger a rewrite of `access.log`. A
/// rewrite is a temp file, a rename and a reopen (~250 µs measured);
/// spread over 2 048 touches it is 0.1 µs on a 5 µs lookup, and a cache
/// of a few keys still keeps its log under 40 KB.
const LOG_SLACK_FLOOR: usize = 2048;

/// A directory of content-addressed result payloads plus hit/miss,
/// quarantine, and eviction accounting for the server's summary lines.
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
    /// Jobs answered from a stored payload without simulating.
    pub hits: u64,
    /// Jobs that had to simulate (their results are then stored).
    pub misses: u64,
    /// Entries that failed integrity verification and were quarantined.
    pub quarantined: u64,
    /// Entries evicted by the size budget.
    pub evicted: u64,
    /// Stores suppressed because the key struck out (see
    /// [`QUARANTINE_STRIKE_LIMIT`]).
    pub suppressed_stores: u64,
    /// Per-key quarantine counts this process lifetime.
    strikes: HashMap<u64, u32>,
    /// Each key's last touch, as its number in the sequence of touches
    /// (mirrored, touch by touch, to `access.log`).
    last_touch: HashMap<u64, u64>,
    /// Touches so far.
    touch_seq: u64,
    /// Open append handle for `access.log`.
    log: Option<File>,
    /// Lines appended to `access.log` since it was last rewritten.
    appended: usize,
}

impl ResultCache {
    /// Opens (creating if needed) a cache rooted at `dir`, loading and
    /// compacting the access log.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created.
    pub fn open(dir: &Path) -> io::Result<ResultCache> {
        fs::create_dir_all(dir)?;
        let mut cache = ResultCache {
            dir: dir.to_path_buf(),
            hits: 0,
            misses: 0,
            quarantined: 0,
            evicted: 0,
            suppressed_stores: 0,
            strikes: HashMap::new(),
            last_touch: HashMap::new(),
            touch_seq: 0,
            log: None,
            appended: 0,
        };
        // Anything unparseable is skipped: a torn tail after a crash is
        // expected, not an error.
        if let Ok(log) = File::open(dir.join(ACCESS_LOG)) {
            for line in BufReader::new(log).lines().map_while(Result::ok) {
                if let Some(key) = parse_hex64(&line) {
                    cache.note_touch(key);
                }
            }
        }
        cache.compact_log()?;
        Ok(cache)
    }

    /// The content key for a configuration under the current code
    /// version.
    pub fn key(cfg: &SystemConfig) -> u64 {
        let mut fp = Fingerprint::new();
        fp.write_str(&cfg.canonical());
        fp.write_str("|code=");
        fp.write_str(CODE_VERSION);
        fp.finish()
    }

    /// Path of the stored result payload for `key` under `dir` — usable
    /// without holding the cache itself (the server computes checkpoint
    /// paths from worker threads while the cache is locked elsewhere).
    pub fn result_path_in(dir: &Path, key: u64) -> PathBuf {
        dir.join(&hex64(key)[..2])
            .join(format!("{}.json", hex64(key)))
    }

    /// Path of the in-progress checkpoint for `key` under `dir`.
    pub fn checkpoint_path_in(dir: &Path, key: u64) -> PathBuf {
        dir.join(&hex64(key)[..2])
            .join(format!("{}.ckpt", hex64(key)))
    }

    /// Path of the stored result payload for `key`.
    pub fn result_path(&self, key: u64) -> PathBuf {
        ResultCache::result_path_in(&self.dir, key)
    }

    /// Path of the in-progress checkpoint for `key`.
    pub fn checkpoint_path(&self, key: u64) -> PathBuf {
        ResultCache::checkpoint_path_in(&self.dir, key)
    }

    /// Seals `payload` for storage: appends the FNV-1a integrity footer
    /// that [`lookup`](Self::lookup) verifies on every read.
    pub fn seal(payload: &str) -> String {
        format!(
            "{payload}{FOOTER_PREFIX}{}\n",
            hex64(Fingerprint::of(payload.as_bytes()))
        )
    }

    /// Splits a sealed entry back into its payload, verifying the
    /// footer; `None` means the entry is torn, truncated, or tampered.
    pub fn unseal(sealed: &str) -> Option<&str> {
        let at = sealed.rfind(FOOTER_PREFIX)?;
        let payload = &sealed[..at];
        let digest = sealed[at + FOOTER_PREFIX.len()..].strip_suffix('\n')?;
        (parse_hex64(digest)? == Fingerprint::of(payload.as_bytes())).then_some(payload)
    }

    /// The stored payload for `key`, if a verified entry exists. A
    /// present-but-corrupt entry is moved to `quarantine/` and reported
    /// as a miss so the caller recomputes it.
    pub fn lookup(&mut self, key: u64) -> Option<String> {
        let path = self.result_path(key);
        let sealed = fs::read_to_string(&path).ok()?;
        match ResultCache::unseal(&sealed) {
            Some(payload) => {
                let payload = payload.to_string();
                self.touch(key);
                Some(payload)
            }
            None => {
                self.quarantine(key, &path);
                None
            }
        }
    }

    /// [`lookup`](Self::lookup) on a cache that sessions share behind a
    /// lock. The entry is read and verified *before* the lock is taken —
    /// entries land by rename, so a reader needs no lock to see a whole
    /// one — and only the touch runs under it: sessions do not queue
    /// behind each other's file reads. Anything but a verified entry
    /// (absent, torn, evicted meanwhile) is looked up again under the
    /// lock, so quarantine and its counters see each bad entry once.
    pub fn lookup_shared(cache: &Mutex<ResultCache>, dir: &Path, key: u64) -> Option<String> {
        let verified = fs::read_to_string(ResultCache::result_path_in(dir, key))
            .ok()
            .and_then(|sealed| ResultCache::unseal(&sealed).map(str::to_string));
        let mut cache = cache.lock().expect("cache lock poisoned");
        match verified {
            Some(payload) => {
                cache.touch(key);
                Some(payload)
            }
            None => cache.lookup(key),
        }
    }

    /// Times `key` has been quarantined this process lifetime; at
    /// [`QUARANTINE_STRIKE_LIMIT`] the slot is struck out and
    /// [`store`](Self::store) backs off.
    pub fn strikes(&self, key: u64) -> u32 {
        self.strikes.get(&key).copied().unwrap_or(0)
    }

    /// True once `key` has struck out: its slot keeps corrupting, so
    /// rewriting it is suppressed and callers should emit a `warn`.
    pub fn struck_out(&self, key: u64) -> bool {
        self.strikes(key) >= QUARANTINE_STRIKE_LIMIT
    }

    /// Stores `payload` (sealed, atomic via rename) as the result for
    /// `key` and drops any leftover checkpoint. A key that has struck
    /// out ([`struck_out`](Self::struck_out)) is *not* rewritten — the
    /// slot keeps corrupting, so the write is suppressed (counted in
    /// `suppressed_stores`) and the key is served by recomputation.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; the cache is an optimization, so
    /// callers may choose to log and continue.
    pub fn store(&mut self, key: u64, payload: &str) -> io::Result<()> {
        if self.struck_out(key) {
            self.suppressed_stores += 1;
            let _ = fs::remove_file(self.checkpoint_path(key));
            return Ok(());
        }
        let path = self.result_path(key);
        write_atomic(&path, ResultCache::seal(payload).as_bytes())?;
        let _ = fs::remove_file(self.checkpoint_path(key));
        self.touch(key);
        Ok(())
    }

    /// Moves a failed entry into `quarantine/` (falling back to removal
    /// if the move itself fails) and counts it — both globally and as a
    /// strike against `key`.
    fn quarantine(&mut self, key: u64, path: &Path) {
        let qdir = self.dir.join(QUARANTINE_DIR);
        let ok = fs::create_dir_all(&qdir).is_ok()
            && path.file_name().is_some_and(|name| {
                let dest = qdir.join(name);
                let _ = fs::remove_file(&dest);
                fs::rename(path, &dest).is_ok()
            });
        if !ok {
            let _ = fs::remove_file(path);
        }
        self.quarantined += 1;
        *self.strikes.entry(key).or_insert(0) += 1;
    }

    /// Records a key touch for eviction recency: in memory and appended
    /// to `access.log` (best-effort — the log is an eviction-order
    /// record, not a durability structure).
    fn touch(&mut self, key: u64) {
        self.note_touch(key);
        if let Some(log) = &mut self.log {
            // One `write`: the handle is unbuffered.
            let mut line = hex64(key);
            line.push('\n');
            if log.write_all(line.as_bytes()).is_ok() {
                self.appended += 1;
            }
        }
        if self.appended > (LOG_SLACK * self.last_touch.len()).max(LOG_SLACK_FLOOR) {
            let _ = self.compact_log();
        }
    }

    /// Makes `key` the most recently touched, in memory only.
    fn note_touch(&mut self, key: u64) {
        self.last_touch.insert(key, self.touch_seq);
        self.touch_seq += 1;
    }

    /// Known keys, least recently touched first.
    fn recency_order(&self) -> Vec<u64> {
        let mut keys: Vec<(u64, u64)> = self.last_touch.iter().map(|(&k, &at)| (at, k)).collect();
        keys.sort_unstable();
        keys.into_iter().map(|(_, k)| k).collect()
    }

    /// Rewrites `access.log` to one line per known key in recency order
    /// and reopens it for appending.
    fn compact_log(&mut self) -> io::Result<()> {
        self.log = None; // close before rewriting
        let mut text = String::with_capacity(self.last_touch.len() * 17);
        for key in self.recency_order() {
            text.push_str(&hex64(key));
            text.push('\n');
        }
        let path = self.dir.join(ACCESS_LOG);
        write_atomic(&path, text.as_bytes())?;
        self.appended = 0;
        self.log = Some(OpenOptions::new().append(true).open(path)?);
        Ok(())
    }

    /// Evicts least-recently-touched entries (oldest first, ties broken
    /// by key) until completed payloads fit in `budget` bytes, then
    /// compacts the access log. Entries never touched in recorded
    /// history sort oldest of all. Returns the number of entries
    /// evicted.
    ///
    /// # Errors
    ///
    /// Propagates failures rewriting the access log; individual entry
    /// removals are best-effort.
    pub fn evict_to_budget(&mut self, budget: u64) -> io::Result<u64> {
        // (last touch, key, size): `None` (never touched) sorts first.
        let mut entries: Vec<(Option<u64>, u64, u64)> = Vec::new();
        let mut total = 0u64;
        for (key, size) in self.disk_entries() {
            entries.push((self.last_touch.get(&key).copied(), key, size));
            total += size;
        }
        entries.sort_unstable();
        let mut evicted = 0u64;
        for &(_, key, size) in &entries {
            if total <= budget {
                break;
            }
            let _ = fs::remove_file(self.result_path(key));
            let _ = fs::remove_file(self.checkpoint_path(key));
            total -= size;
            evicted += 1;
        }
        self.evicted += evicted;
        // Compact: surviving keys only, in recency order.
        let dir = &self.dir;
        self.last_touch
            .retain(|&k, _| ResultCache::result_path_in(dir, k).exists());
        self.compact_log()?;
        Ok(evicted)
    }

    /// Completed `(key, payload size)` entries on disk, shard order.
    fn disk_entries(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for shard in shard_dirs(&self.dir) {
            let Ok(files) = fs::read_dir(&shard) else {
                continue;
            };
            for f in files.flatten() {
                let path = f.path();
                if path.extension().is_some_and(|e| e == "json") {
                    if let Some(key) = path
                        .file_stem()
                        .and_then(|s| s.to_str())
                        .and_then(parse_hex64)
                    {
                        let size = f.metadata().map(|m| m.len()).unwrap_or(0);
                        out.push((key, size));
                    }
                }
            }
        }
        out
    }

    /// Number of completed result entries on disk (quarantine excluded).
    pub fn entries(&self) -> usize {
        self.disk_entries().len()
    }

    /// Total bytes of completed result entries on disk.
    pub fn entry_bytes(&self) -> u64 {
        self.disk_entries().iter().map(|&(_, size)| size).sum()
    }
}

/// The two-hex-digit shard directories under the cache root (skips
/// `quarantine/` and any stray files).
fn shard_dirs(dir: &Path) -> Vec<PathBuf> {
    let Ok(rd) = fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut shards: Vec<PathBuf> = rd
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.is_dir()
                && p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.len() == 2 && n.bytes().all(|b| b.is_ascii_hexdigit()))
        })
        .collect();
    shards.sort();
    shards
}

/// Writes `bytes` to `path` through a sibling temp file + rename, so a
/// crash can never leave a half-written file at `path`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use ringmesh::{NetworkSpec, SystemConfig};
    use ringmesh_net::CacheLineSize;

    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ringmesh-serve-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn keys_track_config_identity_and_code_version() {
        let a = SystemConfig::new(NetworkSpec::mesh(3), CacheLineSize::B64);
        assert_eq!(ResultCache::key(&a), ResultCache::key(&a.clone()));
        assert_ne!(
            ResultCache::key(&a),
            ResultCache::key(&a.clone().with_seed(1))
        );
        // The key covers more than the config alone.
        assert_ne!(ResultCache::key(&a), a.fingerprint());
    }

    #[test]
    fn store_then_lookup_round_trips() {
        let dir = tempdir("store");
        let mut cache = ResultCache::open(&dir).unwrap();
        let cfg = SystemConfig::new(NetworkSpec::mesh(3), CacheLineSize::B64);
        let key = ResultCache::key(&cfg);
        assert_eq!(cache.lookup(key), None);
        assert_eq!(cache.entries(), 0);
        cache.store(key, "{\"x\":1}").unwrap();
        assert_eq!(cache.lookup(key).as_deref(), Some("{\"x\":1}"));
        assert_eq!(cache.entries(), 1);
        // Overwrites are atomic replacements, not appends.
        cache.store(key, "{\"x\":2}").unwrap();
        assert_eq!(cache.lookup(key).as_deref(), Some("{\"x\":2}"));
        assert_eq!(cache.entries(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn storing_a_result_clears_its_checkpoint() {
        let dir = tempdir("ckpt");
        let mut cache = ResultCache::open(&dir).unwrap();
        let key = 0xabcd_0123_dead_beef;
        write_atomic(&cache.checkpoint_path(key), b"state").unwrap();
        assert!(cache.checkpoint_path(key).exists());
        cache.store(key, "{}").unwrap();
        assert!(!cache.checkpoint_path(key).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn seal_and_unseal_are_inverse_and_tamper_evident() {
        let sealed = ResultCache::seal("{\"pms\":24}");
        assert_eq!(ResultCache::unseal(&sealed), Some("{\"pms\":24}"));
        // Any payload byte flip invalidates the footer.
        let tampered = sealed.replace("24", "25");
        assert_eq!(ResultCache::unseal(&tampered), None);
        // So does a truncated footer or a missing one.
        assert_eq!(ResultCache::unseal(&sealed[..sealed.len() - 2]), None);
        assert_eq!(ResultCache::unseal("{\"pms\":24}"), None);
        // A payload that itself contains the footer marker still seals.
        let tricky = format!("{{\"note\":\"{}abc\"}}", "#fnv64=");
        assert_eq!(
            ResultCache::unseal(&ResultCache::seal(&tricky)),
            Some(tricky.as_str())
        );
    }

    #[test]
    fn corrupt_entries_are_quarantined_and_reported_as_misses() {
        let dir = tempdir("heal");
        let mut cache = ResultCache::open(&dir).unwrap();
        let key = 0x1122_3344_5566_7788;
        cache.store(key, "{\"ok\":true}").unwrap();

        // Tear the entry mid-file, as a crashed write or bad disk would.
        let path = cache.result_path(key);
        let sealed = fs::read_to_string(&path).unwrap();
        fs::write(&path, &sealed[..sealed.len() / 2]).unwrap();

        assert_eq!(cache.lookup(key), None, "torn entry must miss");
        assert_eq!(cache.quarantined, 1);
        assert!(!path.exists(), "entry removed from the serving path");
        assert!(
            dir.join(QUARANTINE_DIR)
                .join(path.file_name().unwrap())
                .exists(),
            "entry preserved for post-mortem"
        );
        // Recompute-and-store heals the slot.
        cache.store(key, "{\"ok\":true}").unwrap();
        assert_eq!(cache.lookup(key).as_deref(), Some("{\"ok\":true}"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_shared_lookup_touches_hits_and_leaves_the_rest_to_the_locked_path() {
        let dir = tempdir("shared");
        let cache = Mutex::new(ResultCache::open(&dir).unwrap());
        let shared = |key| ResultCache::lookup_shared(&cache, &dir, key);
        for key in [1u64, 2, 3] {
            let payload = format!("{{\"k\":{key}}}");
            cache.lock().unwrap().store(key, &payload).unwrap();
        }
        assert_eq!(shared(9), None, "absent");
        assert_eq!(shared(1).as_deref(), Some("{\"k\":1}"));
        assert_eq!(
            cache.lock().unwrap().recency_order(),
            vec![2, 3, 1],
            "the hit was touched, as `lookup` touches it"
        );
        // A torn entry is quarantined once, by the locked path.
        let path = cache.lock().unwrap().result_path(2);
        fs::write(&path, "{\"k\":2}\n#fnv64=torn").unwrap();
        assert_eq!(shared(2), None);
        assert_eq!(shared(2), None);
        let cache = cache.into_inner().unwrap();
        assert_eq!((cache.quarantined, cache.strikes(2)), (1, 1));
        assert!(!path.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn repeated_corruption_strikes_the_key_out_and_suppresses_stores() {
        let dir = tempdir("strikes");
        let mut cache = ResultCache::open(&dir).unwrap();
        let key = 0x0bad_0bad_0bad_0bad;
        let corrupt_slot = |cache: &mut ResultCache| {
            let path = cache.result_path(key);
            let sealed = fs::read_to_string(&path).unwrap();
            fs::write(&path, &sealed[..sealed.len() / 2]).unwrap();
        };

        // The recompute → store → corrupt loop runs up to the limit…
        for round in 0..QUARANTINE_STRIKE_LIMIT {
            assert!(!cache.struck_out(key), "round {round}: not out yet");
            cache.store(key, "{\"v\":1}").unwrap();
            assert!(cache.result_path(key).exists());
            corrupt_slot(&mut cache);
            assert_eq!(cache.lookup(key), None);
            assert_eq!(cache.strikes(key), round + 1);
        }

        // …then the slot is struck out: stores become no-ops (but still
        // clear checkpoints) and are counted, and lookups keep missing.
        assert!(cache.struck_out(key));
        write_atomic(&cache.checkpoint_path(key), b"state").unwrap();
        cache.store(key, "{\"v\":1}").unwrap();
        assert!(!cache.result_path(key).exists(), "store suppressed");
        assert!(!cache.checkpoint_path(key).exists(), "ckpt still cleared");
        assert_eq!(cache.suppressed_stores, 1);
        assert_eq!(cache.lookup(key), None);
        assert_eq!(
            cache.quarantined,
            u64::from(QUARANTINE_STRIKE_LIMIT),
            "no further quarantine churn once the slot is empty"
        );

        // Other keys are unaffected.
        cache.store(1, "{\"ok\":true}").unwrap();
        assert_eq!(cache.lookup(1).as_deref(), Some("{\"ok\":true}"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_unsealed_entries_are_recycled_not_served() {
        let dir = tempdir("legacy");
        let mut cache = ResultCache::open(&dir).unwrap();
        let key = 0xfeed_beef_0000_0001;
        // A pre-footer entry written by an older build.
        write_atomic(&cache.result_path(key), b"{\"old\":1}").unwrap();
        assert_eq!(cache.lookup(key), None);
        assert_eq!(cache.quarantined, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_is_oldest_first_and_deterministic() {
        let run = |dir: &Path| -> Vec<u64> {
            let mut cache = ResultCache::open(dir).unwrap();
            for key in [1u64, 2, 3, 4] {
                cache.store(key, &format!("{{\"k\":{key}}}")).unwrap();
            }
            // Touch 1 again: recency order is now 2, 3, 4, 1.
            assert!(cache.lookup(1).is_some());
            let budget = cache.entry_bytes() - 1; // forces evictions
            cache.evict_to_budget(budget / 2).unwrap();
            let mut left: Vec<u64> = [1u64, 2, 3, 4]
                .into_iter()
                .filter(|&k| cache.result_path(k).exists())
                .collect();
            left.sort_unstable();
            left
        };
        let (a, b) = (tempdir("evict-a"), tempdir("evict-b"));
        let left_a = run(&a);
        let left_b = run(&b);
        assert_eq!(left_a, left_b, "same history ⇒ identical eviction");
        assert!(
            left_a.contains(&1),
            "most recently touched key must survive: {left_a:?}"
        );
        assert!(!left_a.contains(&2), "oldest key evicts first: {left_a:?}");
        let _ = fs::remove_dir_all(&a);
        let _ = fs::remove_dir_all(&b);
    }

    #[test]
    fn eviction_survives_reopen_via_the_access_log() {
        let dir = tempdir("evict-reopen");
        {
            let mut cache = ResultCache::open(&dir).unwrap();
            for key in [10u64, 20, 30] {
                cache
                    .store(key, "{\"payload\":\"xxxxxxxxxxxxxxxx\"}")
                    .unwrap();
            }
            assert!(cache.lookup(10).is_some()); // recency: 20, 30, 10
        }
        let mut cache = ResultCache::open(&dir).unwrap();
        let one_entry = cache.entry_bytes() / 3;
        cache.evict_to_budget(one_entry).unwrap();
        assert!(cache.result_path(10).exists(), "recent key survives reopen");
        assert!(!cache.result_path(20).exists());
        assert_eq!(cache.evicted, 2);
        assert_eq!(cache.entries(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_long_hit_history_stays_bounded_by_the_keys_not_the_touches() {
        const KEYS: u64 = 64;
        let dir = tempdir("touch-bound");
        let mut cache = ResultCache::open(&dir).unwrap();
        for key in 0..KEYS {
            cache
                .store(key, "{\"payload\":\"xxxxxxxxxxxxxxxx\"}")
                .unwrap();
        }
        // A scrambled but reproducible hit stream.
        let mut x = 0x9e37_79b9_u64;
        let history: Vec<u64> = (0..200_000)
            .map(|_| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (x >> 33) % KEYS
            })
            .collect();
        for &key in &history {
            assert!(cache.lookup(key).is_some());
        }
        assert!(cache.last_touch.len() <= KEYS as usize);
        let log_bytes = fs::metadata(dir.join(ACCESS_LOG)).unwrap().len();
        assert!(log_bytes < 64 << 10, "access.log is {log_bytes} bytes");

        // The same recency a history of one touch per key gives: each
        // key at its last occurrence.
        let mut short: Vec<u64> = Vec::new();
        for &key in history.iter().rev() {
            if !short.contains(&key) {
                short.insert(0, key);
            }
        }
        assert_eq!(short.len(), KEYS as usize, "every key was hit");
        let control_dir = tempdir("touch-bound-control");
        let mut control = ResultCache::open(&control_dir).unwrap();
        for key in 0..KEYS {
            control
                .store(key, "{\"payload\":\"xxxxxxxxxxxxxxxx\"}")
                .unwrap();
        }
        for &key in &short {
            assert!(control.lookup(key).is_some());
        }
        assert_eq!(cache.recency_order(), short);
        assert_eq!(control.recency_order(), short);

        // …and so the same eviction, also after a reopen from the log.
        drop(cache);
        let mut cache = ResultCache::open(&dir).unwrap();
        assert_eq!(cache.recency_order(), short);
        let budget = cache.entry_bytes() / 4;
        assert_eq!(
            cache.evict_to_budget(budget).unwrap(),
            control.evict_to_budget(budget).unwrap()
        );
        for key in 0..KEYS {
            assert_eq!(
                cache.result_path(key).exists(),
                short[short.len() - 16..].contains(&key),
                "key {key}: only the 16 most recently touched survive"
            );
            assert_eq!(
                cache.result_path(key).exists(),
                control.result_path(key).exists()
            );
        }
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&control_dir);
    }

    #[test]
    fn zero_budget_clears_everything_and_compacts_the_log() {
        let dir = tempdir("evict-zero");
        let mut cache = ResultCache::open(&dir).unwrap();
        for key in [7u64, 8] {
            cache.store(key, "{}").unwrap();
        }
        cache.evict_to_budget(0).unwrap();
        assert_eq!(cache.entries(), 0);
        assert_eq!(
            fs::read_to_string(dir.join(ACCESS_LOG)).unwrap(),
            "",
            "log compacts to the survivors"
        );
        // And the cache still works afterwards.
        cache.store(9, "{\"x\":1}").unwrap();
        assert_eq!(cache.lookup(9).as_deref(), Some("{\"x\":1}"));
        let _ = fs::remove_dir_all(&dir);
    }
}
