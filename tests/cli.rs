//! The `ringmesh` binary's own arguments, run as a process: the one way
//! to name a network (`--topology`), the flags that used to be four
//! more, `--format`, and the `figure` subcommand over the experiment
//! registry.

use std::process::{Command, Output};

use ringmesh::figures;
use ringmesh::DEFAULT_SEED;

fn ringmesh(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ringmesh"))
        .args(args)
        .env_remove("RINGMESH_FULL")
        .env_remove("RINGMESH_CSV_DIR")
        .output()
        .expect("spawn ringmesh")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

#[test]
fn run_takes_a_topology_spec_and_prints_csv() {
    let o = ringmesh(&[
        "run",
        "--topology",
        "mesh:3",
        "--warmup",
        "200",
        "--batch",
        "200",
        "--batches",
        "2",
        "--format",
        "csv",
    ]);
    assert_eq!(o.status.code(), Some(0), "{}", stderr(&o));
    let out = stdout(&o);
    let mut lines = out.lines();
    assert_eq!(
        lines.next(),
        Some("network,pms,latency,ci95,throughput,utilization")
    );
    assert!(lines.next().is_some_and(|row| row.starts_with("mesh 3x3")));
}

#[test]
fn the_removed_network_flags_are_unrecognized_arguments() {
    for args in [
        &["--ring", "2:3:4"][..],
        &["--mesh", "4"],
        &["--slotted-ring", "2:4"],
        &["--topology", "mesh:4", "--buffers", "1flit"],
        &["--topology", "ring:2:4", "--double-global"],
    ] {
        let o = ringmesh(args);
        assert_eq!(o.status.code(), Some(1), "{args:?}");
        assert!(
            stderr(&o).contains("unrecognized"),
            "{args:?}: {}",
            stderr(&o)
        );
    }
}

#[test]
fn a_run_without_a_network_asks_for_topology() {
    let o = ringmesh(&["run", "--batches", "2"]);
    assert_eq!(o.status.code(), Some(1));
    assert!(stderr(&o).contains("--topology"), "{}", stderr(&o));
}

#[test]
fn an_unknown_format_is_a_usage_error() {
    let o = ringmesh(&["run", "--topology", "mesh:3", "--format", "xml"]);
    assert_eq!(o.status.code(), Some(1));
    assert!(stderr(&o).contains("--format"), "{}", stderr(&o));
    assert!(stdout(&o).is_empty(), "nothing ran");
}

#[test]
fn figure_runs_a_registry_row_by_name() {
    let o = ringmesh(&["figure", "table1"]);
    assert_eq!(o.status.code(), Some(0), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.starts_with("ringmesh experiment table1 at quick scale"));
    let ring128 = out
        .lines()
        .find(|l| l.contains("ring") && l.contains("128B"))
        .expect("the 128B ring row of Table 1");
    assert!(ring128.contains("144"), "{ring128}");
    assert!(out.contains("[table1 completed in"));
}

/// `RINGMESH_CSV_DIR` adds a CSV of every table and panel beside the
/// text, which it leaves as it was: for `table1`, one file holding the
/// printed table's rows.
#[test]
fn figure_writes_every_table_as_csv_when_asked() {
    let dir = std::env::temp_dir().join(format!("ringmesh-csv-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let with_csv = Command::new(env!("CARGO_BIN_EXE_ringmesh"))
        .args(["figure", "table1"])
        .env_remove("RINGMESH_FULL")
        .env("RINGMESH_CSV_DIR", &dir)
        .output()
        .expect("spawn ringmesh");
    assert_eq!(with_csv.status.code(), Some(0), "{}", stderr(&with_csv));
    let untimed = |o: &Output| {
        stdout(o)
            .lines()
            .filter(|l| !l.contains("completed in"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        untimed(&with_csv),
        untimed(&ringmesh(&["figure", "table1"]))
    );
    let files: Vec<_> = std::fs::read_dir(&dir)
        .expect("the CSV directory")
        .map(|f| f.expect("a directory entry").file_name())
        .collect();
    assert_eq!(files, ["table1_0.csv"]);
    let csv = std::fs::read_to_string(dir.join("table1_0.csv")).expect("the CSV");
    let _ = std::fs::remove_dir_all(&dir);
    // The printed rows follow the header and its dashes; a cell of
    // Table 1 holds no blank.
    let text = stdout(&with_csv);
    let printed: Vec<String> = text
        .lines()
        .skip_while(|l| !l.trim_start().starts_with("---"))
        .skip(1)
        .take_while(|l| !l.is_empty())
        .map(|l| l.split_whitespace().collect::<Vec<_>>().join(","))
        .collect();
    assert_eq!(printed.len(), 8, "{text}");
    let mut lines = csv.lines();
    assert_eq!(
        lines.next(),
        Some("network,cache line,cl-sized,4-flit,1-flit")
    );
    assert_eq!(lines.collect::<Vec<_>>(), printed);
}

/// A reader that stops early (`ringmesh figure table1 | head -1`) ends
/// the binary quietly: a print that finds the pipe closed must not
/// panic (status 101, "panicked" on stderr). The pipe's reading end is
/// closed before the binary starts, so its first print finds it closed
/// on every run; reading a line first would race the binary, which may
/// print all of `table1` before the reader lets go.
#[test]
fn figure_ends_quietly_when_its_reader_stops_reading() {
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    let o = Command::new(env!("CARGO_BIN_EXE_ringmesh"))
        .args(["figure", "table1"])
        .env_remove("RINGMESH_FULL")
        .env_remove("RINGMESH_CSV_DIR")
        .stdout(writer)
        .output()
        .expect("spawn ringmesh");
    assert_eq!(o.status.code(), Some(0), "{}", stderr(&o));
    assert!(!stderr(&o).contains("panicked"), "{}", stderr(&o));
}

#[test]
fn figure_rejects_unknown_and_missing_names_with_the_registry_list() {
    for args in [
        &["figure", "fig99"][..],
        &["figure"],
        &["figure", "table1", "fig99"],
    ] {
        let o = ringmesh(args);
        assert_eq!(o.status.code(), Some(1), "{args:?}");
        assert!(stderr(&o).contains("fig14"), "{args:?}: {}", stderr(&o));
        assert!(stdout(&o).is_empty(), "{args:?}: nothing ran");
    }
}

#[test]
fn help_lists_every_experiment_and_none_of_the_removed_flags() {
    let o = ringmesh(&["--help"]);
    assert_eq!(o.status.code(), Some(0));
    let help = stdout(&o);
    for row in figures::rows() {
        assert!(help.contains(row.name), "--help lacks {}", row.name);
    }
    for gone in [
        "--ring",
        "--slotted-ring",
        "--mesh",
        "--buffers",
        "--double-global",
        "--fleet-attempts",
    ] {
        assert!(!help.contains(gone), "--help still mentions {gone}");
    }
}

#[test]
fn design_section_4_names_every_experiment() {
    let design = include_str!("../DESIGN.md");
    let start = design.find("\n## 4.").expect("DESIGN §4");
    let section = &design[start..];
    let end = section[1..].find("\n## ").map_or(section.len(), |i| i + 1);
    for row in figures::rows() {
        assert!(
            section[..end].contains(&format!("`{}`", row.name)),
            "DESIGN §4 lacks `{}`",
            row.name
        );
    }
}

/// `--help` prints the seed a run uses when none is given, and passing
/// the printed number reproduces a default run.
#[test]
fn the_seed_default_in_help_reproduces_a_default_run() {
    let help = stdout(&ringmesh(&["--help"]));
    let line = help
        .lines()
        .find(|l| l.trim_start().starts_with("--seed"))
        .expect("--help documents --seed");
    let printed = line
        .rsplit_once("[default: ")
        .and_then(|(_, d)| d.strip_suffix(']'))
        .expect("--seed has a default");
    assert_eq!(printed, DEFAULT_SEED.to_string());
    let run = |seed: Option<&str>| {
        let mut args = vec![
            "run",
            "--topology",
            "ring:2:3",
            "--warmup",
            "300",
            "--batch",
            "300",
            "--batches",
            "2",
            "--format",
            "csv",
        ];
        args.extend(seed.map(|s| ["--seed", s]).iter().flatten());
        let o = ringmesh(&args);
        assert_eq!(o.status.code(), Some(0), "{}", stderr(&o));
        stdout(&o)
    };
    let default = run(None);
    assert_eq!(run(Some(printed)), default);
    // The literal `--help` once printed names another run.
    assert_ne!(run(Some("1380011591")), default);
}
