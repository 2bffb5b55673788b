//! Chaos harness: the serve layer versus unclean process death and
//! concurrent clients, exercised end-to-end through the real binary.
//!
//! The crash-safety invariant under test: SIGKILL a server mid-batch,
//! restart it over the same cache directory, and the batch's results
//! are byte-identical to a never-interrupted run — the journal replays
//! the accepted work, the checkpoint resumes the simulation, and the
//! integrity-footed cache serves the healed result.
//!
//! These tests spawn the actual `ringmesh` binary (via
//! `CARGO_BIN_EXE_ringmesh`), so they cover the CLI wiring — signal
//! handling, exit codes, TCP accept loop — not just the library.

#![cfg(unix)]

use std::fs;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

fn tempdir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ringmesh-chaos-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A job big enough (~360k cycles ≈ seconds of wall clock) that killing
/// the server a few progress windows in is reliably mid-run.
const BIG_JOB: &str = r#"{"op":"job","id":"big","topology":"mesh:5","warmup":40000,"batch_cycles":40000,"batches":8,"cache_line":32,"seed":3}"#;

/// A small job for the multi-client smoke (~2.4k cycles).
const SMALL_JOB: &str = r#"{"op":"job","id":"small","topology":"mesh:3","warmup":600,"batch_cycles":600,"batches":2,"cache_line":32}"#;

struct Serve {
    child: Child,
    addr: String,
    stderr: Option<ChildStderr>,
}

/// Spawns `ringmesh serve --listen 127.0.0.1:0` over `cache` and waits
/// for the bound address on stderr.
fn spawn_serve(cache: &Path, extra: &[&str]) -> Serve {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ringmesh"))
        .arg("serve")
        .args(["--listen", "127.0.0.1:0"])
        .args(["--cache", cache.to_str().unwrap()])
        .args(["--checkpoint-every", "2000"])
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ringmesh serve");
    let mut stderr = child.stderr.take().expect("piped stderr");
    // Read stderr byte-by-byte until the listening line: recovery runs
    // before the bind, so this also waits out journal replay.
    let mut seen = String::new();
    let deadline = Instant::now() + Duration::from_secs(60);
    let addr = loop {
        assert!(
            Instant::now() < deadline,
            "no listening line; stderr: {seen}"
        );
        let mut byte = [0u8; 1];
        match stderr.read(&mut byte) {
            Ok(1) => seen.push(byte[0] as char),
            _ => panic!("serve exited early; stderr: {seen}"),
        }
        if let Some(rest) = seen
            .lines()
            .last()
            .and_then(|l| l.strip_prefix("ringmesh serve: listening on "))
        {
            if seen.ends_with('\n') {
                break rest.trim().to_string();
            }
        }
    };
    Serve {
        child,
        addr,
        stderr: Some(stderr),
    }
}

impl Serve {
    fn connect(&self) -> TcpStream {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match TcpStream::connect(&self.addr) {
                Ok(s) => return s,
                Err(e) if Instant::now() < deadline => {
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => panic!("connect {}: {e}", self.addr),
            }
        }
    }

    /// Drains remaining stderr on a thread so the child never blocks on
    /// a full pipe while we wait for it.
    fn drain_stderr(&mut self) {
        if let Some(mut err) = self.stderr.take() {
            std::thread::spawn(move || {
                let mut sink = String::new();
                let _ = err.read_to_string(&mut sink);
            });
        }
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn send_line(stream: &mut TcpStream, line: &str) {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    stream.flush().unwrap();
}

fn event_kind(line: &str) -> &str {
    // Events are flat objects with "event" first — cheap field grab
    // without a JSON dependency in this crate's test profile.
    line.split("\"event\":\"")
        .nth(1)
        .and_then(|r| r.split('"').next())
        .unwrap_or("")
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = line.split(&pat).nth(1)?;
    let rest = rest.trim_start();
    let end = rest
        .char_indices()
        .find(|&(i, c)| {
            if rest.starts_with('"') {
                i > 0 && c == '"'
            } else {
                c == ',' || c == '}'
            }
        })
        .map(|(i, _)| i)?;
    Some(rest[..end].trim_matches('"'))
}

/// Runs one scripted session over a fresh connection, returning every
/// event line received until the terminal event (or EOF).
fn run_session(serve: &Serve, requests: &[&str], until: &str) -> Vec<String> {
    let mut stream = serve.connect();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for r in requests {
        send_line(&mut stream, r);
    }
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let done = event_kind(&line) == until;
        lines.push(line.trim_end().to_string());
        if done {
            break;
        }
    }
    lines
}

/// The headline invariant: SIGKILL mid-batch, restart, byte-identical
/// results against a never-interrupted control run.
#[test]
fn sigkill_mid_batch_recovers_to_identical_results() {
    let cache = tempdir("sigkill");
    let control_cache = tempdir("sigkill-control");

    // Control: the same job on an untouched server.
    let control = {
        let serve = spawn_serve(&control_cache, &[]);
        let lines = run_session(
            &serve,
            &[BIG_JOB, r#"{"op":"run"}"#, r#"{"op":"quit"}"#],
            "bye",
        );
        lines
            .iter()
            .find(|l| event_kind(l) == "result")
            .expect("control result")
            .clone()
    };

    // Chaos: kill the server after a few progress windows stream back.
    {
        let mut serve = spawn_serve(&cache, &[]);
        let mut stream = serve.connect();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        send_line(&mut stream, BIG_JOB);
        send_line(&mut stream, r#"{"op":"run"}"#);
        let mut windows = 0;
        loop {
            let mut line = String::new();
            assert!(
                reader.read_line(&mut line).unwrap() > 0,
                "server closed before any windows"
            );
            match event_kind(&line) {
                "window" => windows += 1,
                "result" | "batch" => panic!("job finished before the kill; enlarge BIG_JOB"),
                _ => {}
            }
            if windows >= 3 {
                break;
            }
        }
        serve.drain_stderr();
        serve.child.kill().unwrap(); // SIGKILL: no atexit, no flushing
        serve.child.wait().unwrap();
    }

    // Restart over the same cache: the journal replays the accepted job
    // (resuming from its checkpoint) before the server accepts clients,
    // so the resubmission is answered from the healed cache.
    let serve = spawn_serve(&cache, &[]);
    let lines = run_session(
        &serve,
        &[BIG_JOB, r#"{"op":"run"}"#, r#"{"op":"quit"}"#],
        "bye",
    );
    let accepted = lines
        .iter()
        .find(|l| event_kind(l) == "accepted")
        .expect("accepted event");
    assert_eq!(
        field(accepted, "cached"),
        Some("true"),
        "recovery must have completed the journaled job: {accepted}"
    );
    let result = lines
        .iter()
        .find(|l| event_kind(l) == "result")
        .expect("recovered result");

    // Byte-identical payloads: compare the embedded result data (the
    // cached/resumed flags legitimately differ between the sessions).
    let data = |line: &str| {
        line.split("\"data\":")
            .nth(1)
            .expect("data field")
            .trim_end_matches('}')
            .to_string()
    };
    assert_eq!(
        data(result),
        data(&control),
        "recovered result must be byte-identical to the control run"
    );
    let _ = fs::remove_dir_all(&cache);
    let _ = fs::remove_dir_all(&control_cache);
}

/// Four concurrent clients over one server: every session completes,
/// identical jobs answer byte-identically, and admission never wedges.
#[test]
fn four_concurrent_clients_get_consistent_answers() {
    let cache = tempdir("clients");
    let serve = spawn_serve(&cache, &["--max-batches", "4"]);

    let results: Vec<(usize, String)> = std::thread::scope(|s| {
        let serve = &serve;
        let handles: Vec<_> = (0..4)
            .map(|i| {
                s.spawn(move || {
                    // Two jobs per client: one shared across all
                    // clients, one distinct per client (distinct seed).
                    let own = format!(
                        r#"{{"op":"job","id":"own","topology":"ring:2:4","warmup":600,"batch_cycles":600,"batches":2,"cache_line":32,"seed":{}}}"#,
                        100 + i
                    );
                    let lines = run_session(
                        serve,
                        &[SMALL_JOB, &own, r#"{"op":"run"}"#, r#"{"op":"quit"}"#],
                        "bye",
                    );
                    let batch = lines
                        .iter()
                        .find(|l| event_kind(l) == "batch")
                        .unwrap_or_else(|| panic!("client {i}: no batch event in {lines:?}"))
                        .clone();
                    assert_eq!(field(&batch, "jobs"), Some("2"), "client {i}: {batch}");
                    assert_eq!(field(&batch, "errors"), Some("0"), "client {i}: {batch}");
                    let shared = lines
                        .iter()
                        .find(|l| {
                            event_kind(l) == "result" && field(l, "id") == Some("small")
                        })
                        .unwrap_or_else(|| panic!("client {i}: no shared result"))
                        .split("\"data\":")
                        .nth(1)
                        .unwrap()
                        .to_string();
                    (i, shared)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(results.len(), 4);
    for (i, data) in &results {
        assert_eq!(
            data, &results[0].1,
            "client {i}: shared job must answer byte-identically"
        );
    }
    let _ = fs::remove_dir_all(&cache);
}

/// SIGTERM winds the server down gracefully with the documented
/// interrupted exit code (6), not a killed status.
#[test]
fn sigterm_exits_gracefully_with_the_interrupted_code() {
    let cache = tempdir("sigterm");
    let mut serve = spawn_serve(&cache, &[]);
    serve.drain_stderr();

    let ok = Command::new("kill")
        .args(["-TERM", &serve.child.id().to_string()])
        .status()
        .unwrap();
    assert!(ok.success());

    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = serve.child.try_wait().unwrap() {
            break status;
        }
        assert!(Instant::now() < deadline, "server ignored SIGTERM");
        std::thread::sleep(Duration::from_millis(25));
    };
    assert_eq!(
        status.code(),
        Some(6),
        "graceful shutdown must exit with ExitStatus::Interrupted"
    );
    let _ = fs::remove_dir_all(&cache);
}
