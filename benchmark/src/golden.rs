//! `golden.json`: the default seed's result fingerprints and exact
//! counts, for the four point workloads and the 60 sweep points. A
//! mismatch counts into `failure_rate` and names the point that moved.
//! `--bless` rewrites the file; doing so is a change to the benchmark,
//! never part of a change that claims a gain.

use std::fs;
use std::path::Path;

use ringmesh::{run_config, RunResult, WorkerPool};
use ringmesh_serve::json::Json;

use crate::inputs::{sweep_points, DEFAULT_SEED, POINTS, SMOKE_DIVISOR};
use crate::jsonw::J;
use crate::procfs;
use crate::report::Checks;

/// Fingerprint and exact counts of one simulated point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Workload name, or the sweep point's `index:topology`.
    pub label: String,
    pub fingerprint: u64,
    pub issued: u64,
    pub retired: u64,
}

impl Entry {
    pub fn of(label: String, r: &RunResult) -> Entry {
        Entry {
            label,
            fingerprint: r.fingerprint(),
            issued: r.workload.issued,
            retired: r.workload.retired,
        }
    }

    fn to_json(&self) -> J {
        J::obj([
            ("label", J::str(&self.label)),
            ("fingerprint", J::hex(self.fingerprint)),
            ("issued", J::Num(self.issued as f64)),
            ("retired", J::Num(self.retired as f64)),
        ])
    }

    fn from_json(v: &Json) -> Option<Entry> {
        Some(Entry {
            label: v.get("label")?.as_str()?.to_string(),
            fingerprint: u64::from_str_radix(v.get("fingerprint")?.as_str()?, 16).ok()?,
            issued: v.get("issued")?.as_u64()?,
            retired: v.get("retired")?.as_u64()?,
        })
    }

    fn check(&self, got: &Entry, checks: &mut Checks) {
        checks.check(self == got, || {
            format!(
                "{} moved from golden.json: fingerprint {:016x} -> {:016x}, issued {} -> {}, retired {} -> {}",
                self.label,
                self.fingerprint,
                got.fingerprint,
                self.issued,
                got.issued,
                self.retired,
                got.retired
            )
        });
    }
}

/// The golden results at one size (full, or `--smoke`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Golden {
    pub points: Vec<Entry>,
    pub sweep: Vec<Entry>,
}

fn size_key(divisor: u64) -> &'static str {
    if divisor == 1 {
        "full"
    } else {
        "smoke"
    }
}

/// The label of sweep point `i`.
pub fn sweep_label(i: usize, topology: &str) -> String {
    format!("{i}:{topology}")
}

impl Golden {
    /// Simulates every point at the default seed.
    pub fn compute(divisor: u64) -> Result<Golden, String> {
        let mut points = Vec::new();
        for w in &POINTS {
            let r = run_config(w.config(DEFAULT_SEED, divisor)).map_err(|e| e.to_string())?;
            points.push(Entry::of(w.name.to_string(), &r));
        }
        let sweep = WorkerPool::new(procfs::nproc().min(4))
            .map(sweep_points(DEFAULT_SEED, divisor), |i, p| {
                let label = sweep_label(i, &p.cfg.network.to_string());
                run_config(p.cfg)
                    .map(|r| Entry::of(label.clone(), &r))
                    .map_err(|e| format!("{label}: {e}"))
            })
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Golden { points, sweep })
    }

    /// Loads the entries for `divisor` from `path`. `None` when the
    /// file is absent; an unreadable file is an error, not a skipped
    /// check.
    pub fn load(path: &Path, divisor: u64) -> Result<Option<Golden>, String> {
        let text = match fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("{}: {e}", path.display())),
        };
        let bad = || format!("{}: not a golden file", path.display());
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("seed").and_then(Json::as_u64) != Some(DEFAULT_SEED) {
            return Err(bad());
        }
        let size = doc.get(size_key(divisor)).ok_or_else(bad)?;
        let entries = |key: &str| -> Result<Vec<Entry>, String> {
            match size.get(key) {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|v| Entry::from_json(v).ok_or_else(bad))
                    .collect(),
                _ => Err(bad()),
            }
        };
        Ok(Some(Golden {
            points: entries("points")?,
            sweep: entries("sweep")?,
        }))
    }

    /// Recomputes both sizes and rewrites `path`.
    pub fn bless(path: &Path) -> Result<(), String> {
        let mut members = vec![("seed".to_string(), J::Num(DEFAULT_SEED as f64))];
        for divisor in [1, SMOKE_DIVISOR] {
            let g = Golden::compute(divisor)?;
            let arr = |e: &[Entry]| J::Arr(e.iter().map(Entry::to_json).collect());
            members.push((
                size_key(divisor).to_string(),
                J::obj([("points", arr(&g.points)), ("sweep", arr(&g.sweep))]),
            ));
        }
        // One entry per line keeps a moved point a one-line diff.
        let text = J::Obj(members)
            .to_string()
            .replace("{\"label\"", "\n  {\"label\"");
        fs::write(path, format!("{text}\n")).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Checks a point workload's result against its golden entry.
    pub fn check_point(&self, name: &str, r: &RunResult, checks: &mut Checks) {
        match self.points.iter().find(|e| e.label == name) {
            Some(want) => want.check(&Entry::of(name.to_string(), r), checks),
            None => checks.check(false, || format!("golden.json has no entry for {name}")),
        }
    }

    /// Checks the sweep's results, in point order, against the golden
    /// entries.
    pub fn check_sweep(&self, got: &[Entry], checks: &mut Checks) {
        checks.check(self.sweep.len() == got.len(), || {
            format!(
                "golden.json holds {} sweep points, the sweep ran {}",
                self.sweep.len(),
                got.len()
            )
        });
        for (want, got) in self.sweep.iter().zip(got) {
            want.check(got, checks);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_round_trip_and_name_what_moved() {
        let e = Entry {
            label: "31:mesh:4".into(),
            fingerprint: 0xfeed_face_cafe_beef,
            issued: 1234,
            retired: 1200,
        };
        let back = Entry::from_json(&Json::parse(&e.to_json().to_string()).unwrap());
        assert_eq!(back.as_ref(), Some(&e));

        let mut checks = Checks::default();
        e.check(&e, &mut checks);
        let mut moved = e.clone();
        moved.retired = 1201;
        e.check(&moved, &mut checks);
        assert_eq!((checks.attempted, checks.failed), (2, 1));
        assert!(
            checks.failures[0].contains("31:mesh:4"),
            "{:?}",
            checks.failures
        );
        assert!(checks.failures[0].contains("1200 -> 1201"));
    }
}
