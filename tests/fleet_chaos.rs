//! Fleet chaos: kill -9 a remote worker mid-batch and prove the merged
//! results are byte-identical to a single-process control run.
//!
//! This is the acceptance test for the distributed sweep fleet: a
//! coordinator (`ringmesh serve --fleet`) plus three `ringmesh worker`
//! processes run a four-job batch; one worker is SIGKILLed while its
//! lease is live. The coordinator must detect the death, re-dispatch
//! the orphaned job, and emit results (and the batch fingerprint) in
//! job-submission order — so the client-visible stream matches the
//! control run byte for byte, and everything exits with the documented
//! codes.

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
        "ringmesh-fleet-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Four distinct jobs (seeds differ, so the keys differ), each long
/// enough (~50k cycles) that a worker killed a few progress windows in
/// is reliably mid-lease.
fn jobs() -> Vec<String> {
    (0..4)
        .map(|i| {
            format!(
                r#"{{"op":"job","id":"j{i}","topology":"mesh:4","warmup":10000,"batch_cycles":10000,"batches":4,"cache_line":32,"seed":{}}}"#,
                40 + i
            )
        })
        .collect()
}

struct Proc {
    child: Child,
    stderr: Option<ChildStderr>,
    /// Everything read from stderr while waiting for startup lines.
    seen: String,
}

impl Proc {
    /// Reads stderr byte-by-byte until `prefix` starts a complete line,
    /// returning the rest of that line.
    fn await_line(&mut self, prefix: &str) -> String {
        let stderr = self.stderr.as_mut().expect("stderr already drained");
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            assert!(
                Instant::now() < deadline,
                "no {prefix:?} line; stderr so far: {}",
                self.seen
            );
            let mut byte = [0u8; 1];
            match stderr.read(&mut byte) {
                Ok(1) => self.seen.push(byte[0] as char),
                _ => panic!("process exited early; stderr: {}", self.seen),
            }
            if !self.seen.ends_with('\n') {
                continue;
            }
            if let Some(rest) = self
                .seen
                .lines()
                .last()
                .and_then(|l| l.strip_prefix(prefix))
            {
                return rest.trim().to_string();
            }
        }
    }

    /// Discards the rest of stderr on a thread so the child never
    /// blocks on a full pipe.
    fn drain_stderr(&mut self) {
        if let Some(mut err) = self.stderr.take() {
            std::thread::spawn(move || {
                let mut sink = String::new();
                let _ = err.read_to_string(&mut sink);
            });
        }
    }

    /// Waits for exit with a deadline, returning the status code.
    fn wait_code(&mut self, what: &str) -> i32 {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Some(status) = self.child.try_wait().unwrap() {
                return status
                    .code()
                    .unwrap_or_else(|| panic!("{what}: killed by signal"));
            }
            assert!(Instant::now() < deadline, "{what} did not exit");
            std::thread::sleep(Duration::from_millis(25));
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn(args: &[&str]) -> Proc {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ringmesh"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ringmesh");
    let stderr = child.stderr.take().expect("piped stderr");
    Proc {
        child,
        stderr: Some(stderr),
        seen: String::new(),
    }
}

/// Spawns `ringmesh serve`, optionally with a fleet listener, and
/// returns the process plus (client_addr, fleet_addr).
fn spawn_serve(cache: &Path, fleet: bool) -> (Proc, String, Option<String>) {
    let cache = cache.to_str().unwrap().to_string();
    let mut args = vec!["serve", "--listen", "127.0.0.1:0", "--cache", &cache];
    if fleet {
        args.extend_from_slice(&["--fleet", "127.0.0.1:0"]);
    }
    let mut proc = spawn(&args);
    // The fleet listener binds before the client listener, so both
    // addresses are on stderr by the time the serve line appears.
    let fleet_addr = fleet.then(|| proc.await_line("ringmesh fleet: listening on "));
    let addr = proc.await_line("ringmesh serve: listening on ");
    proc.drain_stderr();
    (proc, addr, fleet_addr)
}

/// Spawns `ringmesh worker` and waits until the coordinator has
/// welcomed it (so dispatch can reach it).
fn spawn_worker(fleet_addr: &str) -> Proc {
    let mut proc = spawn(&["worker", "--connect", fleet_addr]);
    let line = proc.await_line("ringmesh worker: registered as worker ");
    assert!(!line.is_empty(), "registration line should name an id");
    proc.drain_stderr();
    proc
}

fn connect(addr: &str) -> TcpStream {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return s,
            Err(e) if Instant::now() >= deadline => panic!("connect {addr}: {e}"),
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn send_line(stream: &mut TcpStream, line: &str) {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    stream.flush().unwrap();
}

fn event_kind(line: &str) -> &str {
    line.split("\"event\":\"")
        .nth(1)
        .and_then(|r| r.split('"').next())
        .unwrap_or("")
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = line.split(&pat).nth(1)?;
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

/// The embedded result payload of a `result` event — the part that must
/// be byte-identical between runs.
fn result_data(line: &str) -> String {
    line.split("\"data\":")
        .nth(1)
        .expect("data field")
        .to_string()
}

/// Submits the four-job batch and returns every event line through the
/// `batch` summary. `mid_batch` runs once after a few progress windows
/// have streamed (i.e. reliably mid-simulation).
fn run_batch(addr: &str, mut mid_batch: impl FnMut()) -> Vec<String> {
    let mut stream = connect(addr);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for job in jobs() {
        send_line(&mut stream, &job);
    }
    send_line(&mut stream, r#"{"op":"run"}"#);
    let mut lines = Vec::new();
    let mut windows = 0;
    let mut fired = false;
    loop {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).unwrap_or(0) > 0,
            "server closed mid-batch; events so far: {lines:#?}"
        );
        let kind = event_kind(&line).to_string();
        lines.push(line.trim_end().to_string());
        if kind == "window" {
            windows += 1;
            if windows >= 2 && !fired {
                fired = true;
                mid_batch();
            }
        }
        if kind == "batch" {
            break;
        }
    }
    assert!(fired, "batch finished before any progress streamed");
    send_line(&mut stream, r#"{"op":"quit"}"#);
    lines
}

/// The headline invariant: three workers, one SIGKILLed mid-lease, and
/// the merged batch is byte-identical to a single-process control run.
#[test]
fn worker_killed_mid_batch_yields_byte_identical_results() {
    let control_cache = tempdir("control");
    let fleet_cache = tempdir("fleet");

    // Control: the same batch with no fleet attached.
    let control_lines = {
        let (mut serve, addr, _) = spawn_serve(&control_cache, false);
        let lines = run_batch(&addr, || {});
        let ok = Command::new("kill")
            .args(["-TERM", &serve.child.id().to_string()])
            .status()
            .unwrap();
        assert!(ok.success());
        assert_eq!(serve.wait_code("control serve"), 6);
        lines
    };

    // Chaos: three workers; the first (lowest id, so it certainly holds
    // a lease for this 4-job batch) is killed once progress streams.
    let (mut serve, addr, fleet_addr) = spawn_serve(&fleet_cache, true);
    let fleet_addr = fleet_addr.expect("fleet listener address");
    let mut victim = spawn_worker(&fleet_addr);
    let survivors = [spawn_worker(&fleet_addr), spawn_worker(&fleet_addr)];
    let victim_pid = victim.child.id().to_string();
    let fleet_lines = run_batch(&addr, || {
        let ok = Command::new("kill")
            .args(["-KILL", &victim_pid])
            .status()
            .unwrap();
        assert!(ok.success());
    });
    let _ = victim.child.wait(); // reap; SIGKILL leaves no exit code

    // The batch really ran on the fleet, and the kill really cost a
    // lease: a typed worker-death retry must be in the client stream.
    assert!(
        fleet_lines.iter().any(|l| event_kind(l) == "lease"),
        "no lease events — the fleet never dispatched: {fleet_lines:#?}"
    );
    assert!(
        fleet_lines
            .iter()
            .any(|l| event_kind(l) == "retry" && field(l, "reason") == Some("worker-death")),
        "the SIGKILL must surface as a worker-death retry: {}",
        fleet_lines
            .iter()
            .filter(|l| event_kind(l) != "window")
            .cloned()
            .collect::<Vec<_>>()
            .join("\n")
    );

    // Byte-identical merge: every result payload and the batch
    // fingerprint match the single-process control run exactly.
    let results = |lines: &[String]| -> Vec<(String, String)> {
        lines
            .iter()
            .filter(|l| event_kind(l) == "result")
            .map(|l| {
                (
                    field(l, "id").expect("result id").to_string(),
                    result_data(l),
                )
            })
            .collect()
    };
    let control_results = results(&control_lines);
    let fleet_results = results(&fleet_lines);
    assert_eq!(control_results.len(), 4, "control: {control_lines:#?}");
    assert_eq!(
        fleet_results, control_results,
        "fleet results must be byte-identical to the control run, in submission order"
    );
    let batch_field = |lines: &[String], key: &str| -> String {
        let batch = lines
            .iter()
            .find(|l| event_kind(l) == "batch")
            .expect("batch event");
        field(batch, key).unwrap_or_default().to_string()
    };
    assert_eq!(batch_field(&fleet_lines, "errors"), "0");
    assert_eq!(
        batch_field(&fleet_lines, "fingerprint"),
        batch_field(&control_lines, "fingerprint"),
        "batch fingerprints must match across lanes"
    );

    // Clean exits: SIGTERM winds the coordinator down (code 6), which
    // says bye to the surviving workers (code 0).
    let ok = Command::new("kill")
        .args(["-TERM", &serve.child.id().to_string()])
        .status()
        .unwrap();
    assert!(ok.success());
    assert_eq!(serve.wait_code("fleet serve"), 6);
    for (i, mut w) in survivors.into_iter().enumerate() {
        assert_eq!(w.wait_code(&format!("survivor {i}")), 0);
    }
    let _ = fs::remove_dir_all(&control_cache);
    let _ = fs::remove_dir_all(&fleet_cache);
}
