//! The serve transport, end to end through the real binary over TCP:
//! an event must cost a write, not a timer.
//!
//! Before the `wire` module every event left the server as several
//! small segments on a socket without `TCP_NODELAY`, so each one after
//! the first waited ~40 ms for the client's delayed ACK: a lone `job`
//! line took 44 ms to draw its `accepted`, a fully cached batch of
//! eight 44 ms more. The budget below is a timer detector, not a speed
//! test: what it times is a few milliseconds of work, the old transport
//! needed at least 2.6 s for it, and the limit sits at 1 s so that a
//! slow CI box passes and a timer coming back does not.

#![cfg(unix)]

use std::fs;
use std::io::{BufRead, BufReader, Cursor, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ringmesh_serve::{ServeOptions, Server};

fn tempdir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ringmesh-latency-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A small job (~1.8k cycles); `seed` makes it a distinct cache key.
fn small_job(id: &str, seed: u64) -> String {
    format!(
        r#"{{"op":"job","id":"{id}","topology":"mesh:3","warmup":600,"batch_cycles":600,"batches":2,"cache_line":32,"seed":{seed}}}"#
    )
}

/// A job long enough (~100k cycles, 25 progress windows) that its
/// first `window` and its `result` are far apart on any host.
const LONG_JOB: &str = r#"{"op":"job","id":"long","topology":"mesh:4","warmup":20000,"batch_cycles":20000,"batches":4,"cache_line":32,"seed":5}"#;

const RUN: &str = r#"{"op":"run"}"#;

/// A spawned `ringmesh serve --listen`, killed and reaped when dropped.
struct Serve {
    child: Child,
    addr: String,
}

fn spawn_serve(cache: &Path) -> Serve {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ringmesh"))
        .arg("serve")
        .args(["--listen", "127.0.0.1:0"])
        .args(["--cache", cache.to_str().unwrap()])
        .args(["--threads", "2"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ringmesh serve");
    let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
    let mut seen = String::new();
    let addr = loop {
        let mut line = String::new();
        let n = stderr.read_line(&mut line).expect("read stderr");
        assert!(n > 0, "serve exited before listening; stderr: {seen}");
        if let Some(addr) = line.trim().strip_prefix("ringmesh serve: listening on ") {
            break addr.to_string();
        }
        seen.push_str(&line);
    };
    // Keep the pipe drained so the server can never block on it.
    std::thread::spawn(move || {
        let mut sink = String::new();
        let _ = stderr.read_to_string(&mut sink);
    });
    Serve { child, addr }
}

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A client connection with `TCP_NODELAY`, so the only timers that can
/// show up in a measurement are the server's.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(serve: &Serve) -> Client {
        let stream = TcpStream::connect(&serve.addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client { stream, reader }
    }

    /// Sends `lines` in one write.
    fn send(&mut self, lines: &[&str]) {
        let mut text = lines.join("\n");
        text.push('\n');
        self.stream.write_all(text.as_bytes()).expect("write");
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read");
        assert!(n > 0, "server closed the connection");
        line
    }

    /// Sends `lines` and reads events through the first of kind `last`.
    fn exchange(&mut self, lines: &[&str], last: &str) -> Vec<String> {
        self.send(lines);
        let mut events = Vec::new();
        loop {
            let line = self.read_line();
            let done = event_kind(&line) == last;
            events.push(line);
            if done {
                return events;
            }
        }
    }
}

fn event_kind(line: &str) -> &str {
    line.strip_prefix("{\"event\":\"")
        .and_then(|r| r.split('"').next())
        .unwrap_or("")
}

#[test]
fn pings_and_cached_batches_cost_work_not_timers() {
    let cache = tempdir("pings");
    let serve = spawn_serve(&cache);
    let mut client = Client::connect(&serve);
    let jobs: Vec<String> = (0..8).map(|i| small_job(&format!("j{i}"), i)).collect();
    let mut batch: Vec<&str> = jobs.iter().map(String::as_str).collect();
    batch.push(RUN);

    // Set-up, not timed: simulate the eight keys once.
    let cold = client.exchange(&batch, "batch");
    assert!(
        cold.last().unwrap().contains("\"cache_misses\":8"),
        "{cold:?}"
    );

    let t0 = Instant::now();
    for i in 0..40 {
        let accepted = client.exchange(&[&jobs[i % 8]], "accepted");
        assert!(accepted[0].contains("\"cached\":true"), "{accepted:?}");
        if i % 8 == 7 {
            client.exchange(&[RUN], "batch");
        }
    }
    for _ in 0..20 {
        let events = client.exchange(&batch, "batch");
        assert_eq!(events.len(), 8 + 8 + 1, "{events:?}");
        assert!(events.last().unwrap().contains("\"cache_hits\":8"));
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "40 job->accepted ping-pongs and 20 cached batches of eight took {elapsed:?}: \
         a transport timer is back (the pre-`wire` server needed 2.6 s)"
    );
    client.exchange(&[r#"{"op":"shutdown"}"#], "bye");
    let _ = fs::remove_dir_all(&cache);
}

#[test]
fn the_tcp_event_stream_is_byte_identical_to_an_in_memory_session() {
    // Misses one at a time (a lone work item streams its windows in
    // one order), a hit beside a miss, a malformed line, an unknown op.
    let (a, b, again) = (small_job("a", 1), small_job("b", 2), small_job("again", 1));
    let script = [
        a.as_str(),
        RUN,
        again.as_str(),
        "this is not json",
        b.as_str(),
        RUN,
        r#"{"op":"warp"}"#,
        r#"{"op":"quit"}"#,
    ];

    let cache = tempdir("stream-tcp");
    let serve = spawn_serve(&cache);
    let mut client = Client::connect(&serve);
    let over_tcp = client.exchange(&script, "bye").concat();

    let control_cache = tempdir("stream-mem");
    let server = Server::new(ServeOptions {
        cache_dir: control_cache.clone(),
        threads: Some(2),
        ..ServeOptions::default()
    })
    .unwrap();
    let mut in_memory = Vec::new();
    let mut input = script.join("\n");
    input.push('\n');
    server.serve(Cursor::new(input), &mut in_memory).unwrap();

    assert!(over_tcp.contains("\"event\":\"window\""), "{over_tcp}");
    assert_eq!(over_tcp.matches("\"event\":\"error\"").count(), 2);
    assert_eq!(over_tcp, String::from_utf8(in_memory).unwrap());
    let _ = fs::remove_dir_all(&cache);
    let _ = fs::remove_dir_all(&control_cache);
}

#[test]
fn windows_reach_the_client_while_the_job_is_still_running() {
    let cache = tempdir("stream-live");
    let serve = spawn_serve(&cache);
    let mut client = Client::connect(&serve);
    let hit = small_job("hit", 1);
    client.exchange(&[&hit, RUN], "batch");

    // One hit, one miss. Nothing may be held back to share a write
    // with a later event: the first `window` has to be in the client's
    // hands long before the job that is streaming it finishes.
    let t0 = Instant::now();
    client.send(&[&hit, LONG_JOB, RUN]);
    let (mut first_window, mut windows) = (None, 0);
    let result_at = loop {
        let line = client.read_line();
        let now = t0.elapsed();
        match event_kind(&line) {
            "window" => {
                windows += 1;
                first_window.get_or_insert(now);
            }
            "result" if line.contains("\"id\":\"long\"") => break now,
            "batch" => panic!("no result for the long job"),
            _ => {}
        }
    };
    let first_window = first_window.expect("windows stream before the result");
    assert!(windows >= 10, "only {windows} windows; enlarge LONG_JOB");
    assert!(
        first_window * 4 < result_at,
        "first window read at {first_window:?}, the job's result at {result_at:?}: \
         progress events are being held back"
    );
    let _ = fs::remove_dir_all(&cache);
}
