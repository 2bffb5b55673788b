//! Hand-rolled protocol fuzzing: no input a client can send — and no
//! corruption a disk can inflict — may panic the server, wedge a
//! session, or produce an unparseable event line.
//!
//! The corpus is deterministic (a seeded xorshift generator, no
//! `rand`), so a failure reproduces bit-for-bit from the seed printed
//! in the assertion message.

use std::fs;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use ringmesh_serve::json::Json;
use ringmesh_serve::{Journal, ResultCache, ServeExit, ServeOptions, Server};

fn tempdir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ringmesh-fuzz-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn opts(dir: &Path) -> ServeOptions {
    ServeOptions {
        cache_dir: dir.to_path_buf(),
        threads: Some(2),
        ..ServeOptions::default()
    }
}

/// Feeds raw bytes to one session; the server must terminate the
/// session cleanly (EOF ⇒ `Quit`) and every output line must parse as
/// an event object.
fn fuzz_session(server: &Server, input: &[u8], label: &str) -> Vec<Json> {
    let mut out = Vec::new();
    let exit = server
        .serve(BufReader::new(input), &mut out)
        .unwrap_or_else(|e| panic!("{label}: transport error {e}"));
    assert_eq!(exit, ServeExit::Quit, "{label}: session must end at EOF");
    String::from_utf8(out)
        .unwrap_or_else(|_| panic!("{label}: server wrote invalid UTF-8"))
        .lines()
        .map(|l| {
            let v = Json::parse(l).unwrap_or_else(|e| panic!("{label}: bad event line {l}: {e}"));
            assert!(
                v.get("event").and_then(Json::as_str).is_some(),
                "{label}: event line without an event field: {l}"
            );
            v
        })
        .collect()
}

/// Tiny deterministic generator (xorshift64*): the corpus depends only
/// on the seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const VALID_JOB: &str = r#"{"op":"job","id":"ok","topology":"mesh:3","warmup":600,"batch_cycles":600,"batches":2,"cache_line":32}"#;

#[test]
fn garbage_truncated_and_duplicated_lines_never_panic_or_wedge() {
    let dir = tempdir("garbage");
    let server = Server::new(opts(&dir)).unwrap();

    // Deterministic mutations of protocol-shaped text.
    let seeds: [&str; 6] = [
        VALID_JOB,
        r#"{"op":"run"}"#,
        r#"{"op":"stats"}"#,
        r#"{"op":"job","topology":"ring:2:4"}"#,
        r#"{"event":"result","data":{}}"#,
        "[1,[2,[3,[4]]]]",
    ];
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let mut script = Vec::new();
    for round in 0..200 {
        let base = seeds[rng.below(seeds.len())].as_bytes();
        match round % 5 {
            // Truncated at a random byte.
            0 => script.extend_from_slice(&base[..rng.below(base.len().max(1))]),
            // Duplicated (same line twice, one newline).
            1 => {
                script.extend_from_slice(base);
                script.extend_from_slice(base);
            }
            // Interleaved halves of two different lines.
            2 => {
                let other = seeds[rng.below(seeds.len())].as_bytes();
                script.extend_from_slice(&base[..base.len() / 2]);
                script.extend_from_slice(&other[other.len() / 2..]);
            }
            // Random bytes, newline-free garbage.
            3 => {
                for _ in 0..rng.below(64) {
                    let b = (rng.next() % 256) as u8;
                    if b != b'\n' {
                        script.push(b);
                    }
                }
            }
            // A byte-flipped valid line.
            _ => {
                let mut copy = base.to_vec();
                let at = rng.below(copy.len());
                copy[at] ^= 1 << rng.below(8);
                if copy[at] == b'\n' {
                    copy[at] = b'?';
                }
                script.extend_from_slice(&copy);
            }
        }
        script.push(b'\n');
    }
    let lines = fuzz_session(&server, &script, "garbage corpus");
    assert!(
        !lines.is_empty(),
        "malformed lines must draw typed error events, not silence"
    );
    // Still alive and well afterwards: a clean batch runs to completion.
    let clean = format!("{VALID_JOB}\n{{\"op\":\"run\"}}\n{{\"op\":\"quit\"}}\n");
    let after = fuzz_session(&server, clean.as_bytes(), "post-garbage batch");
    assert!(after
        .iter()
        .any(|l| l.get("event").and_then(Json::as_str) == Some("batch")));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn malformed_topology_specs_draw_typed_errors_not_panics() {
    let dir = tempdir("topology");
    let server = Server::new(opts(&dir)).unwrap();

    // Hand-picked near-misses plus deterministic mutations of valid
    // specs: every one must answer with a typed error event naming the
    // problem, and the session must stay usable.
    let mut specs: Vec<String> = [
        "",
        ":",
        "ring",
        "ring:",
        "ring:0",
        "ring:2:",
        "ringx:2",
        "ring3x:2:3",
        "mesh",
        "mesh:",
        "mesh:0",
        "mesh:-3",
        "mesh:3:5flit",
        "mesh:3:cl:extra",
        "hybrid",
        "hybrid:",
        "hybrid:4",
        "hybrid:4x",
        "hybrid:4x4",
        "hybrid:4x5:4",
        "hybrid:0x0:4",
        "hybrid:4x4:0",
        "hybrid:4x4:4:9",
        "torus:4",
        "slotted",
        "slotted:0:0",
        "MESH:3",
        "mesh:3 ",
        "hybrid:4×4:4",
        // PM counts that wrap u32 (65536² = 0), overflow it, or only
        // exceed the cap: a typed error, not an abort or a hang.
        "mesh:257",
        "mesh:65536",
        "mesh:70000",
        "mesh:4294967295",
        "hybrid:70000x70000:4",
        "ring:65536:65536",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rng = Rng(0x5eed_70b0);
    for base in ["ring:2:3:4", "mesh:12:cl", "hybrid:4x4:4", "slotted:2:2:3"] {
        for _ in 0..8 {
            let mut b = base.as_bytes().to_vec();
            let at = rng.below(b.len());
            b[at] = (rng.next() % 26) as u8 + b'a';
            if let Ok(s) = String::from_utf8(b) {
                if s.parse::<ringmesh::NetworkSpec>().is_err() {
                    specs.push(s);
                }
            }
        }
    }
    let mut script = String::new();
    for s in &specs {
        let esc = s.replace('\\', "\\\\").replace('"', "\\\"");
        script.push_str(&format!("{{\"op\":\"job\",\"topology\":\"{esc}\"}}\n"));
    }
    // The oversize shapes again, as whole request lines.
    let shaped = [
        r#"{"op":"job","topology":"mesh:65536"}"#,
        r#"{"op":"job","topology":"mesh:70000"}"#,
        r#"{"op":"job","topology":"hybrid:70000x70000:4"}"#,
        r#"{"op":"job","topology":"ring:70000:70000"}"#,
    ];
    for line in shaped {
        script.push_str(line);
        script.push('\n');
    }
    let lines = fuzz_session(&server, script.as_bytes(), "topology corpus");
    assert_eq!(
        lines.len(),
        specs.len() + shaped.len(),
        "one typed answer per bad spec"
    );
    for l in &lines {
        assert_eq!(l.get("event").and_then(Json::as_str), Some("error"));
    }
    // Still alive: a valid hybrid job keyed by its topology spec runs.
    let clean = "{\"op\":\"job\",\"id\":\"h\",\"topology\":\"hybrid:2x2:2\",\"cache_line\":32,\
                 \"warmup\":600,\"batch_cycles\":600,\"batches\":2}\n{\"op\":\"run\"}\n{\"op\":\"quit\"}\n";
    let after = fuzz_session(&server, clean.as_bytes(), "post-corpus hybrid");
    assert!(after
        .iter()
        .any(|l| l.get("event").and_then(Json::as_str) == Some("result")));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn deep_nesting_and_pathological_json_are_rejected_typed() {
    let dir = tempdir("nesting");
    let server = Server::new(opts(&dir)).unwrap();
    let mut script = String::new();
    // 1000 levels of nesting (the parser caps recursion), unbalanced
    // braces, bare values, huge numbers, NUL bytes in strings.
    script.push_str(&"[".repeat(1000));
    script.push_str(&"]".repeat(1000));
    script.push('\n');
    script.push_str(&"{".repeat(500));
    script.push('\n');
    script.push_str("1e999999\n");
    script.push_str("\"\\u0000\\uDEAD\"\n");
    script.push_str("{\"op\":\"job\",\"topology\":1e308,\"cache_line\":-0}\n");
    let lines = fuzz_session(&server, script.as_bytes(), "pathological json");
    for l in &lines {
        assert_eq!(l.get("event").and_then(Json::as_str), Some("error"));
    }
    assert!(!lines.is_empty());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn oversized_lines_in_the_middle_of_a_stream_do_not_desync_it() {
    let dir = tempdir("desync");
    let server = Server::new(opts(&dir)).unwrap();
    // A 2 MiB line split across many buffered reads, with real requests
    // on both sides; the reader must discard exactly through its
    // newline and resume at the next line.
    let mut script = Vec::new();
    script.extend_from_slice(b"{\"op\":\"stats\"}\n");
    script.extend_from_slice(&vec![b'A'; 2 << 20]);
    script.push(b'\n');
    script.extend_from_slice(b"{\"op\":\"stats\"}\n");
    let lines = fuzz_session(&server, &script, "oversized middle");
    let stats = lines
        .iter()
        .filter(|l| l.get("event").and_then(Json::as_str) == Some("stats"))
        .count();
    let errors = lines
        .iter()
        .filter(|l| l.get("event").and_then(Json::as_str) == Some("error"))
        .count();
    assert_eq!((stats, errors), (2, 1));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn torn_cache_files_of_every_shape_heal_instead_of_poisoning() {
    let dir = tempdir("torn-cache");
    let server = Server::new(opts(&dir)).unwrap();
    let script = format!("{VALID_JOB}\n{{\"op\":\"run\"}}\n{{\"op\":\"quit\"}}\n");
    let first = fuzz_session(&server, script.as_bytes(), "seed batch");
    let payload = first
        .iter()
        .find(|l| l.get("event").and_then(Json::as_str) == Some("result"))
        .and_then(|l| l.get("data"))
        .expect("seed result")
        .to_string();
    drop(server);

    let entry = {
        let mut found = None;
        for shard in fs::read_dir(&dir).unwrap().flatten() {
            if !shard.path().is_dir() || shard.file_name() == "quarantine" {
                continue;
            }
            for f in fs::read_dir(shard.path()).unwrap().flatten() {
                if f.path().extension().is_some_and(|e| e == "json") {
                    found = Some(f.path());
                }
            }
        }
        found.expect("one stored entry")
    };
    let sealed = fs::read(&entry).unwrap();

    // Every torn shape must verify-fail on read and recompute to the
    // same bytes: truncations at interesting offsets, bit flips in the
    // payload, bit flips in the footer, empty files, raw garbage.
    let mut corruptions: Vec<(String, Vec<u8>)> = Vec::new();
    for cut in [0, 1, sealed.len() / 2, sealed.len() - 2] {
        corruptions.push((format!("truncated@{cut}"), sealed[..cut].to_vec()));
    }
    for flip in [8, sealed.len() / 3, sealed.len() - 5] {
        let mut c = sealed.clone();
        c[flip] ^= 0x10;
        corruptions.push((format!("bitflip@{flip}"), c));
    }
    corruptions.push(("garbage".into(), b"!!not json at all!!".to_vec()));

    for (label, bytes) in corruptions {
        fs::write(&entry, &bytes).unwrap();
        let server = Server::new(opts(&dir)).unwrap();
        let lines = fuzz_session(&server, script.as_bytes(), &label);
        let healed = lines
            .iter()
            .find(|l| l.get("event").and_then(Json::as_str) == Some("result"))
            .and_then(|l| l.get("data"))
            .unwrap_or_else(|| panic!("{label}: no result event"))
            .to_string();
        assert_eq!(healed, payload, "{label}: healed payload must be identical");
        // The healed entry is sealed and verifiable again.
        let resealed = fs::read_to_string(&entry).unwrap();
        assert!(
            ResultCache::unseal(&resealed).is_some(),
            "{label}: entry not resealed"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn torn_journals_of_every_shape_open_and_serve() {
    let dir = tempdir("torn-journal");
    {
        let server = Server::new(opts(&dir)).unwrap();
        let script = format!("{VALID_JOB}\n{{\"op\":\"run\"}}\n{{\"op\":\"quit\"}}\n");
        fuzz_session(&server, script.as_bytes(), "seed journal");
    }
    // A settled journal truncates to empty, so there is nothing left to
    // tear; journal an in-flight batch the way a SIGKILL mid-batch
    // would leave one.
    {
        let (mut journal, recovery) = Journal::open(&dir).unwrap();
        assert!(recovery.is_none(), "seed batch must have settled");
        let spec = Json::parse(VALID_JOB).unwrap();
        journal
            .begin_batch(&[(0xdead_beef_0000_0001, spec)])
            .unwrap();
    }
    let wal = dir.join("journal.wal");
    let text = fs::read(&wal).unwrap();
    assert!(!text.is_empty(), "in-flight batch must persist records");
    let mut rng = Rng(42);
    for round in 0..12 {
        let mut torn = text.clone();
        match round % 3 {
            0 => torn.truncate(rng.below(torn.len().max(1))),
            1 => {
                let at = rng.below(torn.len());
                torn[at] ^= 0x20;
            }
            _ => torn.extend_from_slice(b"{\"rec\":\"job\",\"ba"),
        }
        fs::write(&wal, &torn).unwrap();
        // Opening must never fail or panic; whatever survives replay is
        // either recovered or dropped with a stderr note.
        let server = Server::new(opts(&dir)).unwrap();
        let lines = fuzz_session(&server, b"{\"op\":\"stats\"}\n", &format!("round {round}"));
        assert!(lines
            .iter()
            .any(|l| l.get("event").and_then(Json::as_str) == Some("stats")));
    }
    let _ = fs::remove_dir_all(&dir);
}
