//! Every experiment's numbers, pinned: each row of the registry but the
//! host-work record runs at a small scale built here, and the digest of
//! its `Record` — every table cell and the bits of every `(x, y)` — must
//! equal the pinned one. A change that moves any number of any table or
//! figure fails here, in tier-1, not only in CI's diff of the quick-scale
//! text (`tests/fixtures/figures-quick.txt`).
//!
//! When a change means to move a number, the failure prints every row's
//! new digest in the table's own form, ready to paste.

use std::sync::OnceLock;

use ringmesh::figures::{plan, Record, EXPERIMENTS};
use ringmesh::{Scale, SimParams};
use ringmesh_snap::{hex64, Fingerprint};

/// Short runs and small systems: every row, every code path, a few
/// seconds in a debug build.
fn pin_scale() -> Scale {
    Scale {
        sim: SimParams {
            warmup: 200,
            batch_cycles: 200,
            batches: 2,
        },
        max_pms: 16,
        quick: true,
    }
}

/// Row name → digest of its record at [`pin_scale`].
const PINNED: &[(&str, &str)] = &[
    ("table1", "f7fca6b0b52204ff"),
    ("table2", "ebea5ae22185c985"),
    ("fig06", "013dde9064c1de4c"),
    ("fig07", "248775180fe7e5ac"),
    ("fig08", "c70802b5da2db112"),
    ("fig09", "2fbeac69d304f082"),
    ("fig10", "de5b47426fb9bbb8"),
    ("fig11", "a7c36ed0de111410"),
    ("fig12", "9912489b46b40d99"),
    ("fig13", "2b153e248afe399c"),
    ("fig14", "c8827904b0b3697a"),
    ("fig15", "6ed83dda90b9bee2"),
    ("fig16", "e7a456478cf3503f"),
    ("fig17", "79cf8da4c98f4103"),
    ("fig18", "6c2cedf5e39404d0"),
    ("fig19", "0e8af903325b4005"),
    ("fig20", "b7673e3025d1e92a"),
    ("fig21", "7de2f2c2278b7448"),
    ("crossover", "7f28a1a9446fbfd9"),
    ("ablations", "e2eeb5ac74ee10e8"),
    ("slotted", "ef52b3cda6603787"),
    ("hotspot", "15517a6162e19d71"),
];

/// The records of the named rows, run as `ringmesh figure` runs them:
/// one sweep per entry of the plan.
fn run(names: &[&str]) -> Vec<(&'static str, Record)> {
    let mut out = Vec::new();
    for (e, rows) in plan(names).expect("registry names") {
        let records = (e.run)(pin_scale());
        assert_eq!(records.len(), e.rows.len(), "one record per row");
        for i in rows {
            out.push((e.rows[i].name, records[i].clone()));
        }
    }
    out
}

/// `figure all` at the pin scale, run once for every test here.
fn all() -> &'static [(&'static str, Record)] {
    static ALL: OnceLock<Vec<(&'static str, Record)>> = OnceLock::new();
    ALL.get_or_init(|| run(&["all"]))
}

fn digest(r: &Record) -> u64 {
    let mut f = Fingerprint::new();
    f.write_str(&format!("{:?}", r.layout));
    for t in &r.tables {
        f.write_str(&t.title);
        for cell in t.columns.iter().chain(t.rows.iter().flatten()) {
            f.write_str(cell);
        }
    }
    for p in &r.panels {
        f.write_str(&p.title);
        f.write_str(p.x_label);
        for s in &p.series {
            f.write_str(&s.label);
            f.write_u64(s.points.len() as u64);
            for &(x, y) in &s.points {
                f.write_f64(x);
                f.write_f64(y);
            }
        }
    }
    f.finish()
}

#[test]
fn every_row_record_matches_its_pin() {
    let got: Vec<(&str, String)> = all()
        .iter()
        .map(|(name, r)| (*name, hex64(digest(r))))
        .collect();
    let table: String = got
        .iter()
        .map(|(name, d)| format!("    ({name:?}, {d:?}),\n"))
        .collect();
    let pinned: Vec<(&str, String)> = PINNED
        .iter()
        .map(|&(name, d)| (name, d.to_string()))
        .collect();
    assert_eq!(got, pinned, "records moved; the new pins:\n{table}");
}

/// A row whose sweep it shares with its partner prints the same record
/// whether it runs alone or after that partner.
#[test]
fn a_shared_sweep_row_alone_matches_its_pair() {
    let partners: Vec<&str> = EXPERIMENTS
        .iter()
        .filter(|e| e.rows.len() == 2)
        .map(|e| e.rows[1].name)
        .collect();
    assert_eq!(partners, ["fig08", "fig10", "fig13", "fig20"]);
    for name in partners {
        let alone = run(&[name]);
        let paired = all().iter().find(|(n, _)| *n == name).expect("in all");
        assert_eq!(alone.len(), 1);
        assert_eq!(digest(&alone[0].1), digest(&paired.1), "{name}");
    }
}
