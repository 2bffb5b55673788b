//! End-to-end serve protocol: a batch submitted twice must be computed
//! once and then served entirely from the content-addressed cache with
//! byte-identical results.

use std::fs;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use ringmesh_serve::json::Json;
use ringmesh_serve::{ResultCache, ServeExit, ServeOptions, Server};

fn tempdir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ringmesh-proto-{tag}-{}-{}",
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

/// Runs one session over in-memory buffers; returns parsed event lines.
fn session(server: &Server, script: &str) -> Vec<Json> {
    let mut out = Vec::new();
    let exit = server
        .serve(BufReader::new(script.as_bytes()), &mut out)
        .unwrap();
    assert_eq!(exit, ServeExit::Quit);
    String::from_utf8(out)
        .unwrap()
        .lines()
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("bad event line {l}: {e}")))
        .collect()
}

fn events<'a>(lines: &'a [Json], kind: &str) -> Vec<&'a Json> {
    lines
        .iter()
        .filter(|l| l.get("event").and_then(Json::as_str) == Some(kind))
        .collect()
}

const BATCH: &str = concat!(
    r#"{"op":"job","id":"ring","topology":"ring:2:4","warmup":800,"batch_cycles":800,"batches":3,"cache_line":32}"#,
    "\n",
    r#"{"op":"job","id":"slotted","topology":"slotted:2:2:3","warmup":800,"batch_cycles":800,"batches":3,"cache_line":32}"#,
    "\n",
    r#"{"op":"job","id":"mesh","topology":"mesh:3","warmup":800,"batch_cycles":800,"batches":3,"cache_line":32}"#,
    "\n",
    r#"{"op":"run"}"#,
    "\n",
    r#"{"op":"quit"}"#,
    "\n",
);

fn result_data(lines: &[Json], id: &str) -> String {
    events(lines, "result")
        .into_iter()
        .find(|r| r.get("id").and_then(Json::as_str) == Some(id))
        .unwrap_or_else(|| panic!("no result for {id}"))
        .get("data")
        .unwrap()
        .to_string()
}

#[test]
fn second_submission_is_served_from_cache_bit_for_bit() {
    let dir = tempdir("twice");
    let server = Server::new(opts(&dir)).unwrap();

    let first = session(&server, BATCH);
    let accepted = events(&first, "accepted");
    assert_eq!(accepted.len(), 3);
    assert!(accepted
        .iter()
        .all(|a| a.get("cached") == Some(&Json::Bool(false))));
    assert!(!events(&first, "window").is_empty(), "progress must stream");
    let batch1 = events(&first, "batch")[0];
    assert_eq!(batch1.get("cache_hits").and_then(Json::as_u64), Some(0));
    assert_eq!(batch1.get("cache_misses").and_then(Json::as_u64), Some(3));
    assert_eq!(batch1.get("errors").and_then(Json::as_u64), Some(0));

    // Same batch again — a fresh session, same server and cache.
    let second = session(&server, BATCH);
    let accepted = events(&second, "accepted");
    assert!(accepted
        .iter()
        .all(|a| a.get("cached") == Some(&Json::Bool(true))));
    assert!(events(&second, "window").is_empty(), "hits don't simulate");
    let batch2 = events(&second, "batch")[0];
    assert_eq!(batch2.get("cache_hits").and_then(Json::as_u64), Some(3));
    assert_eq!(batch2.get("cache_misses").and_then(Json::as_u64), Some(0));

    // Byte-identical payloads and an equal combined fingerprint.
    for id in ["ring", "slotted", "mesh"] {
        assert_eq!(result_data(&first, id), result_data(&second, id), "{id}");
    }
    assert_eq!(
        batch1.get("fingerprint").and_then(Json::as_str),
        batch2.get("fingerprint").and_then(Json::as_str)
    );
    assert_eq!(server.cache_counters(), (3, 3));

    // A restarted server over the same directory still hits.
    let fresh = Server::new(opts(&dir)).unwrap();
    let third = session(&fresh, BATCH);
    assert_eq!(
        events(&third, "batch")[0]
            .get("cache_hits")
            .and_then(Json::as_u64),
        Some(3)
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn verify_cache_rechecks_hits_and_reports_them() {
    let dir = tempdir("verify");
    let server = Server::new(ServeOptions {
        verify_fraction: 1.0,
        ..opts(&dir)
    })
    .unwrap();

    let first = session(&server, BATCH);
    assert_eq!(
        events(&first, "batch")[0]
            .get("verified")
            .and_then(Json::as_u64),
        Some(0),
        "misses have nothing to verify"
    );
    let second = session(&server, BATCH);
    let batch = events(&second, "batch")[0];
    assert_eq!(batch.get("cache_hits").and_then(Json::as_u64), Some(3));
    assert_eq!(batch.get("verified").and_then(Json::as_u64), Some(3));
    assert_eq!(batch.get("mismatches").and_then(Json::as_u64), Some(0));
    // Verified hits still serve the cached payload.
    for r in events(&second, "result") {
        assert_eq!(r.get("cached"), Some(&Json::Bool(true)));
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn verify_cache_detects_a_corrupted_entry() {
    let dir = tempdir("corrupt");
    let server = Server::new(ServeOptions {
        verify_fraction: 1.0,
        ..opts(&dir)
    })
    .unwrap();
    let job = r#"{"op":"job","id":"m","topology":"mesh:3","warmup":600,"batch_cycles":600,"batches":2,"cache_line":32}"#;
    let script = format!("{job}\n{{\"op\":\"run\"}}\n{{\"op\":\"quit\"}}\n");
    session(&server, &script);

    // Swap the single stored payload for a *validly sealed* wrong one
    // behind the server's back. The integrity footer checks out, so
    // only the verify re-run can catch it (a broken footer would be
    // quarantined on read instead — see the quarantine test).
    let mut corrupted = 0;
    for shard in fs::read_dir(&dir).unwrap().flatten() {
        if !shard.path().is_dir() {
            continue; // access.log / journal.wal live at the cache root
        }
        for f in fs::read_dir(shard.path()).unwrap().flatten() {
            if f.path().extension().is_some_and(|e| e == "json") {
                fs::write(f.path(), ResultCache::seal("{\"tampered\":true}")).unwrap();
                corrupted += 1;
            }
        }
    }
    assert_eq!(corrupted, 1);

    let second = session(&server, &script);
    let batch = events(&second, "batch")[0];
    assert_eq!(batch.get("mismatches").and_then(Json::as_u64), Some(1));
    assert!(!events(&second, "error").is_empty());

    // The mismatch repaired the entry: a third pass verifies cleanly.
    let third = session(&server, &script);
    let batch = events(&third, "batch")[0];
    assert_eq!(batch.get("verified").and_then(Json::as_u64), Some(1));
    assert_eq!(batch.get("mismatches").and_then(Json::as_u64), Some(0));
    let _ = fs::remove_dir_all(&dir);
}

/// A verification re-run that fails (here: its checkpoint path is a
/// non-empty directory, so the first checkpoint write fails) still
/// answers every job with its stored payload, plus a `cache` error
/// saying why the entry went unchecked.
#[test]
fn a_failed_verify_run_still_answers_with_the_stored_payload() {
    let dir = tempdir("verify-fails");
    let first = session(&Server::new(opts(&dir)).unwrap(), BATCH);
    for accepted in events(&first, "accepted") {
        let key = accepted.get("key").and_then(Json::as_str).unwrap();
        let ckpt = ResultCache::checkpoint_path_in(&dir, u64::from_str_radix(key, 16).unwrap());
        fs::create_dir_all(ckpt.join("occupied")).unwrap();
    }

    let server = Server::new(ServeOptions {
        verify_fraction: 1.0,
        checkpoint_every: 100,
        ..opts(&dir)
    })
    .unwrap();
    let second = session(&server, BATCH);
    for id in ["ring", "slotted", "mesh"] {
        assert_eq!(result_data(&first, id), result_data(&second, id), "{id}");
    }
    let errors = events(&second, "error");
    assert_eq!(errors.len(), 3);
    for e in errors {
        assert_eq!(e.get("code").and_then(Json::as_str), Some("cache"));
        let message = e.get("message").and_then(Json::as_str).unwrap();
        assert!(
            message.starts_with("cache verification could not run: "),
            "{message}"
        );
    }
    let (batch1, batch2) = (events(&first, "batch")[0], events(&second, "batch")[0]);
    assert_eq!(batch2.get("cache_hits").and_then(Json::as_u64), Some(3));
    assert_eq!(batch2.get("verified").and_then(Json::as_u64), Some(0));
    assert_eq!(batch2.get("errors").and_then(Json::as_u64), Some(3));
    assert_eq!(
        batch1.get("fingerprint").and_then(Json::as_str),
        batch2.get("fingerprint").and_then(Json::as_str),
        "each job is folded in as the payload it was answered with"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn duplicate_jobs_in_one_batch_simulate_once() {
    let dir = tempdir("dedup");
    let server = Server::new(opts(&dir)).unwrap();
    let script = concat!(
        r#"{"op":"job","id":"a","topology":"mesh:3","warmup":600,"batch_cycles":600,"batches":2,"cache_line":32}"#,
        "\n",
        r#"{"op":"job","id":"b","topology":"mesh:3","warmup":600,"batch_cycles":600,"batches":2,"cache_line":32}"#,
        "\n",
        r#"{"op":"run"}"#,
        "\n",
        r#"{"op":"quit"}"#,
        "\n",
    );
    let lines = session(&server, script);
    let batch = events(&lines, "batch")[0];
    assert_eq!(batch.get("jobs").and_then(Json::as_u64), Some(2));
    assert_eq!(batch.get("cache_misses").and_then(Json::as_u64), Some(1));
    assert_eq!(batch.get("cache_hits").and_then(Json::as_u64), Some(1));
    assert_eq!(result_data(&lines, "a"), result_data(&lines, "b"));
    let _ = fs::remove_dir_all(&dir);
}

/// Two jobs with one key, submitted as one batch.
const SAME_KEY_PAIR: &str = concat!(
    r#"{"op":"job","id":"a","topology":"mesh:3","warmup":600,"batch_cycles":600,"batches":2,"cache_line":32}"#,
    "\n",
    r#"{"op":"job","id":"b","topology":"mesh:3","warmup":600,"batch_cycles":600,"batches":2,"cache_line":32}"#,
    "\n",
    r#"{"op":"run"}"#,
    "\n",
    r#"{"op":"quit"}"#,
    "\n",
);

/// A job that shares the key of a verified hit is answered as that hit
/// is: from the store, even when the verify re-run disagrees with it.
#[test]
fn a_job_sharing_a_verified_key_gets_the_stored_payload_on_a_mismatch() {
    let dir = tempdir("verify-pair-mismatch");
    let server = Server::new(ServeOptions {
        verify_fraction: 1.0,
        ..opts(&dir)
    })
    .unwrap();
    session(&server, SAME_KEY_PAIR);
    // A validly sealed wrong payload: only the verify re-run catches it.
    let mut tampered = 0;
    for shard in fs::read_dir(&dir).unwrap().flatten() {
        for f in fs::read_dir(shard.path()).into_iter().flatten().flatten() {
            if f.path().extension().is_some_and(|e| e == "json") {
                fs::write(f.path(), ResultCache::seal("{\"tampered\":true}")).unwrap();
                tampered += 1;
            }
        }
    }
    assert_eq!(tampered, 1);

    let second = session(&server, SAME_KEY_PAIR);
    assert_eq!(result_data(&second, "a"), r#"{"tampered":true}"#);
    assert_eq!(result_data(&second, "a"), result_data(&second, "b"));
    for r in events(&second, "result") {
        assert_eq!(r.get("cached"), Some(&Json::Bool(true)));
    }
    let batch = events(&second, "batch")[0];
    assert_eq!(batch.get("cache_hits").and_then(Json::as_u64), Some(2));
    assert_eq!(batch.get("mismatches").and_then(Json::as_u64), Some(1));
    let _ = fs::remove_dir_all(&dir);
}

/// A job that shares the key of a verified hit whose re-run fails is
/// still answered, from the store, like the verified job itself.
#[test]
fn a_job_sharing_a_verified_key_gets_the_stored_payload_when_the_re_run_fails() {
    let dir = tempdir("verify-pair-fails");
    let first = session(&Server::new(opts(&dir)).unwrap(), SAME_KEY_PAIR);
    let key = events(&first, "accepted")[0]
        .get("key")
        .and_then(Json::as_str)
        .unwrap();
    let ckpt = ResultCache::checkpoint_path_in(&dir, u64::from_str_radix(key, 16).unwrap());
    fs::create_dir_all(ckpt.join("occupied")).unwrap();

    let server = Server::new(ServeOptions {
        verify_fraction: 1.0,
        checkpoint_every: 100,
        ..opts(&dir)
    })
    .unwrap();
    let second = session(&server, SAME_KEY_PAIR);
    for id in ["a", "b"] {
        assert_eq!(result_data(&first, id), result_data(&second, id), "{id}");
    }
    let batch = events(&second, "batch")[0];
    assert_eq!(batch.get("cache_hits").and_then(Json::as_u64), Some(2));
    assert_eq!(batch.get("errors").and_then(Json::as_u64), Some(1));
    assert_eq!(
        events(&first, "batch")[0].get("fingerprint"),
        batch.get("fingerprint"),
        "both jobs are folded in as the stored payload"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn protocol_errors_are_reported_not_fatal() {
    let dir = tempdir("errors");
    let server = Server::new(opts(&dir)).unwrap();
    let script = concat!(
        "this is not json\n",
        r#"{"op":"warp"}"#,
        "\n",
        r#"{"op":"job","id":"bad","topology":"torus:4"}"#,
        "\n",
        r#"{"op":"stats"}"#,
        "\n",
        r#"{"op":"quit"}"#,
        "\n",
    );
    let lines = session(&server, script);
    assert_eq!(events(&lines, "error").len(), 3);
    let stats = events(&lines, "stats")[0];
    assert_eq!(stats.get("cache_entries").and_then(Json::as_u64), Some(0));
    assert_eq!(events(&lines, "bye").len(), 1);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn oversized_lines_draw_a_typed_error_and_the_session_survives() {
    let dir = tempdir("oversized");
    let server = Server::new(opts(&dir)).unwrap();
    let huge = "x".repeat(ringmesh_serve::MAX_LINE_BYTES + 64);
    let script = format!("{huge}\n{{\"op\":\"stats\"}}\n{{\"op\":\"quit\"}}\n");
    let lines = session(&server, &script);
    let errors = events(&lines, "error");
    assert_eq!(errors.len(), 1);
    assert!(errors[0]
        .get("message")
        .and_then(Json::as_str)
        .unwrap()
        .contains("byte limit"));
    assert!(!events(&lines, "stats").is_empty(), "session kept serving");
    assert_eq!(events(&lines, "bye").len(), 1);
    assert_eq!(server.protocol_errors(), 1);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_footer_entries_are_quarantined_and_recomputed() {
    let dir = tempdir("quarantine");
    let server = Server::new(opts(&dir)).unwrap();
    let job = r#"{"op":"job","id":"m","topology":"mesh:3","warmup":600,"batch_cycles":600,"batches":2,"cache_line":32}"#;
    let script = format!("{job}\n{{\"op\":\"run\"}}\n{{\"op\":\"quit\"}}\n");
    let first = session(&server, &script);
    let data_first = result_data(&first, "m");

    // Tear the entry: a footer-less file fails integrity verification.
    let mut torn = 0;
    for shard in fs::read_dir(&dir).unwrap().flatten() {
        if !shard.path().is_dir() || shard.file_name() == "quarantine" {
            continue;
        }
        for f in fs::read_dir(shard.path()).unwrap().flatten() {
            if f.path().extension().is_some_and(|e| e == "json") {
                fs::write(f.path(), "{\"torn\":").unwrap();
                torn += 1;
            }
        }
    }
    assert_eq!(torn, 1);

    // The hit misses, the entry is quarantined, the job transparently
    // recomputes — and the healed payload is byte-identical.
    let second = session(&server, &script);
    let batch = events(&second, "batch")[0];
    assert_eq!(batch.get("cache_misses").and_then(Json::as_u64), Some(1));
    assert_eq!(batch.get("cache_hits").and_then(Json::as_u64), Some(0));
    assert_eq!(result_data(&second, "m"), data_first);
    assert!(
        fs::read_dir(dir.join("quarantine")).unwrap().count() >= 1,
        "failed entry preserved for post-mortem"
    );

    let third = session(&server, &script);
    assert_eq!(
        events(&third, "batch")[0]
            .get("cache_hits")
            .and_then(Json::as_u64),
        Some(1),
        "healed entry serves again"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn saturated_batch_gate_sheds_with_a_typed_busy_event() {
    let dir = tempdir("busy");
    let server = Server::new(ServeOptions {
        max_batches: 1,
        ..opts(&dir)
    })
    .unwrap();
    let guard = server.hold_batch_slot().expect("slot free");
    let job = r#"{"op":"job","id":"m","topology":"mesh:3","warmup":600,"batch_cycles":600,"batches":2,"cache_line":32}"#;
    let script = format!("{job}\n{{\"op\":\"run\"}}\n{{\"op\":\"quit\"}}\n");
    let lines = session(&server, &script);
    let busy = events(&lines, "busy");
    assert_eq!(busy.len(), 1, "saturated gate must shed the run");
    assert_eq!(busy[0].get("scope").and_then(Json::as_str), Some("batches"));
    assert_eq!(busy[0].get("retry"), Some(&Json::Bool(true)));
    assert!(events(&lines, "batch").is_empty(), "no batch ran");
    assert_eq!(server.protocol_errors(), 0, "busy is not a client error");

    drop(guard);
    let lines = session(&server, &script);
    assert_eq!(events(&lines, "batch").len(), 1, "freed slot admits runs");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn stop_flag_ends_sessions_with_a_graceful_bye() {
    let dir = tempdir("stop");
    let server = Server::new(opts(&dir)).unwrap();
    server.stop_handle().set();
    let mut out = Vec::new();
    let exit = server
        .serve(BufReader::new(BATCH.as_bytes()), &mut out)
        .unwrap();
    assert_eq!(exit, ServeExit::Terminated);
    let text = String::from_utf8(out).unwrap();
    let bye = Json::parse(text.lines().next().unwrap()).unwrap();
    assert_eq!(bye.get("event").and_then(Json::as_str), Some("bye"));
    assert_eq!(bye.get("reason").and_then(Json::as_str), Some("shutdown"));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn journaled_jobs_from_a_dead_server_recover_at_startup() {
    use ringmesh_serve::Journal;

    let dir = tempdir("recover");
    let job = r#"{"op":"job","id":"m","topology":"mesh:3","warmup":600,"batch_cycles":600,"batches":2,"cache_line":32}"#;
    let spec = ringmesh_serve::parse_job(&Json::parse(job).unwrap(), "m").unwrap();
    let key = ResultCache::key(&spec.cfg);

    // A server journals the batch, then dies before simulating it.
    {
        fs::create_dir_all(&dir).unwrap();
        let (mut journal, recovery) = Journal::open(&dir).unwrap();
        assert!(recovery.is_none());
        journal
            .begin_batch(&[(key, Json::parse(job).unwrap())])
            .unwrap();
    }

    // The next startup completes the promised work before serving.
    let server = Server::new(opts(&dir)).unwrap();
    assert_eq!(server.recovered_jobs(), 1);
    let script = format!("{job}\n{{\"op\":\"run\"}}\n{{\"op\":\"quit\"}}\n");
    let lines = session(&server, &script);
    let batch = events(&lines, "batch")[0];
    assert_eq!(
        batch.get("cache_hits").and_then(Json::as_u64),
        Some(1),
        "recovered result is already cached"
    );

    // And the journal is clean: a further restart recovers nothing.
    let fresh = Server::new(opts(&dir)).unwrap();
    assert_eq!(fresh.recovered_jobs(), 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn results_carry_percentiles_and_fingerprint() {
    let dir = tempdir("payload");
    let server = Server::new(opts(&dir)).unwrap();
    let script = concat!(
        r#"{"op":"job","id":"r","topology":"ring:6","warmup":800,"batch_cycles":800,"batches":3,"cache_line":32}"#,
        "\n",
        r#"{"op":"run"}"#,
        "\n",
        r#"{"op":"quit"}"#,
        "\n",
    );
    let lines = session(&server, script);
    let data_text = result_data(&lines, "r");
    let data = Json::parse(&data_text).unwrap();
    assert_eq!(
        data.get("schema").and_then(Json::as_str),
        Some("ringmesh-serve/1")
    );
    let p = data.get("percentiles").expect("percentiles present");
    for q in ["p50", "p95", "p99"] {
        assert!(p.get(q).and_then(Json::as_f64).unwrap() > 0.0);
    }
    assert!(
        data.get("latency")
            .unwrap()
            .get("mean")
            .and_then(Json::as_f64)
            .unwrap()
            > 0.0
    );
    assert_eq!(
        data.get("fingerprint")
            .and_then(Json::as_str)
            .unwrap()
            .len(),
        16
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn stats_report_latency_summaries_and_accept_is_fast_over_loopback() {
    use std::io::{BufRead, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    use ringmesh_serve::wire;

    let dir = tempdir("latency");
    let server = Server::new(opts(&dir)).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let job = r#"{"op":"job","id":"m","topology":"mesh:3","warmup":600,"batch_cycles":600,"batches":2,"cache_line":32}"#;

    let stats_line = std::thread::scope(|s| {
        s.spawn(|| {
            let (stream, _) = listener.accept().unwrap();
            wire::prepare(
                &stream,
                Duration::from_secs(1),
                Some(Duration::from_secs(5)),
            )
            .unwrap();
            let reader = BufReader::new(stream.try_clone().unwrap());
            assert_eq!(server.serve(reader, stream).unwrap(), ServeExit::Quit);
        });
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut stream = stream;
        let mut exchange = |request: &str, last: &str| {
            stream.write_all(request.as_bytes()).unwrap();
            let mut line = String::new();
            loop {
                line.clear();
                assert!(reader.read_line(&mut line).unwrap() > 0, "server hung up");
                if line.contains(last) {
                    return line;
                }
            }
        };
        // One real batch so every stage has something to report, then
        // 200 job -> accepted ping-pongs against the now-cached key.
        exchange(
            &format!("{job}\n{{\"op\":\"run\"}}\n"),
            "\"event\":\"batch\"",
        );
        for i in 0..200 {
            exchange(&format!("{job}\n"), "\"event\":\"accepted\"");
            if i % 50 == 49 {
                exchange("{\"op\":\"run\"}\n", "\"event\":\"batch\"");
            }
        }
        let stats = exchange("{\"op\":\"stats\"}\n", "\"event\":\"stats\"");
        exchange("{\"op\":\"quit\"}\n", "\"event\":\"bye\"");
        stats
    });

    let stats = Json::parse(stats_line.trim_end()).unwrap();
    // The members that were there before keep their places in front.
    let Json::Obj(members) = &stats else {
        panic!("stats is an object")
    };
    let names: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        names,
        [
            "event",
            "cache_hits",
            "cache_misses",
            "cache_entries",
            "cache_bytes",
            "quarantined",
            "evicted",
            "suppressed_stores",
            "recovered",
            "pending",
            "batches_in_flight",
            "fleet_workers",
            "determinism_violations",
            "accept",
            "batch",
            "cache_lookup",
            "journal",
            "simulate",
            "emit",
        ]
    );
    let field = |stage: &str, f: &str| {
        stats
            .get(stage)
            .and_then(|s| s.get(f))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("stats.{stage}.{f} missing: {stats_line}"))
    };
    for stage in [
        "accept",
        "batch",
        "cache_lookup",
        "journal",
        "simulate",
        "emit",
    ] {
        assert!(field(stage, "count") >= 1.0, "{stage}: {stats_line}");
        assert!(field(stage, "p50") <= field(stage, "p90"), "{stage}");
        assert!(field(stage, "p90") <= field(stage, "p99"), "{stage}");
    }
    assert_eq!(field("accept", "count"), 201.0);
    assert_eq!(field("batch", "count"), 5.0);
    assert_eq!(field("simulate", "count"), 1.0);
    assert!(
        field("accept", "p99") < 5_000.0,
        "accept p99 {} us over 200 loopback pings",
        field("accept", "p99")
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_burst_is_answered_in_one_write_and_nothing_waits_behind_a_simulation() {
    /// Keeps each `write` the session makes apart.
    #[derive(Default)]
    struct Writes(Vec<String>);

    impl std::io::Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(String::from_utf8(buf.to_vec()).unwrap());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let dir = tempdir("burst");
    let server = Server::new(opts(&dir)).unwrap();
    // The whole script is buffered at once, as a client's burst is:
    // a cold batch of three, then the same batch again, now cached.
    let script = format!("{}{BATCH}", BATCH.replace("{\"op\":\"quit\"}\n", ""));
    let mut out = Writes::default();
    server
        .serve(BufReader::new(script.as_bytes()), &mut out)
        .unwrap();
    let writes = out.0;
    let kinds = |write: &str| -> Vec<String> {
        write
            .lines()
            .map(|l| {
                let event = Json::parse(l).unwrap();
                event.get("event").and_then(Json::as_str).unwrap().into()
            })
            .collect()
    };
    for w in &writes {
        assert!(w.ends_with('\n'), "an event is never cut: {w:?}");
    }
    // The three `accepted` leave together, before the simulations start…
    assert_eq!(kinds(&writes[0]), ["accepted"; 3]);
    // …every streamed event and computed result is a write of its own…
    let last = writes.len() - 1;
    for w in &writes[1..last] {
        let kinds = kinds(w);
        assert_eq!(kinds.len(), 1, "{w:?}");
        assert!(kinds[0] == "window" || kinds[0] == "result", "{w:?}");
    }
    assert_eq!(
        writes[1..last]
            .iter()
            .filter(|w| w.contains("\"event\":\"result\""))
            .count(),
        3
    );
    // …and the first batch's summary, the cached batch and `bye` —
    // produced without waiting for anything — are one write.
    assert_eq!(
        kinds(&writes[last]),
        [
            "batch", "accepted", "accepted", "accepted", "result", "result", "result", "batch",
            "bye"
        ]
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A checkpoint on disk that restores but cannot be run must not crash
/// every restart: recovery refuses it, runs the journaled job fresh and
/// completes it, with the result of a run that was never interrupted.
/// Byte 550 of this job's cycle-1 200 checkpoint is the packet slot of
/// a flit in a ring transit buffer: xor 0x01 moves the flit from the
/// worm of slot 22 into that of slot 23. A restore without the census
/// took that, and the step then panicked inside the worker pool, so
/// every restart died on the same file.
#[test]
fn a_checkpoint_that_restores_corrupt_state_is_refused_at_recovery() {
    use ringmesh::{SnapError, System};
    use ringmesh_serve::Journal;

    let dir = tempdir("bad-ckpt");
    let job = r#"{"op":"job","id":"r","topology":"ring:2:2:3","warmup":800,"batch_cycles":800,"batches":4,"cache_line":32,"seed":41}"#;
    let spec = ringmesh_serve::parse_job(&Json::parse(job).unwrap(), "r").unwrap();
    let key = ResultCache::key(&spec.cfg);
    let mut sys = System::new(spec.cfg.clone()).unwrap();
    let mut state = sys.begin();
    assert!(!sys.run_to(&mut state, 1_200).unwrap());
    let mut bytes = sys.checkpoint(&state).unwrap();
    bytes[550] ^= 0x01;
    let ckpt = ResultCache::checkpoint_path_in(&dir, key);
    fs::create_dir_all(ckpt.parent().unwrap()).unwrap();
    fs::write(&ckpt, &bytes).unwrap();
    {
        let (mut journal, _) = Journal::open(&dir).unwrap();
        journal
            .begin_batch(&[(key, Json::parse(job).unwrap())])
            .unwrap();
    }

    let server = Server::new(opts(&dir)).unwrap();
    assert_eq!(server.recovered_jobs(), 1);
    assert!(!ckpt.exists(), "a completed job leaves no checkpoint");
    let script = format!("{job}\n{{\"op\":\"run\"}}\n{{\"op\":\"quit\"}}\n");
    let lines = session(&server, &script);
    let data = Json::parse(&result_data(&lines, "r")).unwrap();
    let clean = ringmesh::run_config(spec.cfg.clone())
        .unwrap()
        .fingerprint();
    assert_eq!(
        data.get("fingerprint").and_then(Json::as_str),
        Some(ringmesh_snap::hex64(clean).as_str()),
        "the recovered result is a fresh run's"
    );

    let mut fresh = System::new(spec.cfg).unwrap();
    let mut state = fresh.begin();
    let refused = fresh.restore(&mut state, &bytes);
    assert!(matches!(refused, Err(SnapError::Corrupt(_))), "{refused:?}");
    let _ = fs::remove_dir_all(&dir);
}
