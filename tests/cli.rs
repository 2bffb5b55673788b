//! The `ringmesh` binary's own arguments, run as a process: the one way
//! to name a network (`--topology`), the flags that used to be four
//! more, `--format`, and the `figure` subcommand over the experiment
//! registry.

use std::process::{Command, Output};

use ringmesh::figures::EXPERIMENTS;

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
    for e in EXPERIMENTS {
        assert!(help.contains(e.name), "--help lacks {}", e.name);
    }
    for gone in [
        "--ring",
        "--slotted-ring",
        "--mesh",
        "--buffers",
        "--double-global",
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
    for e in EXPERIMENTS {
        assert!(
            section[..end].contains(&format!("`{}`", e.name)),
            "DESIGN §4 lacks `{}`",
            e.name
        );
    }
}
