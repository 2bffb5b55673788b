//! Comparing two sets of runs, and summarising one.
//!
//! `--compare A.json B.json` reads two result files (A the parent, B
//! the change; or two sets of runs of one commit) and prints one row
//! per workload and metric: `better`, `same`, `worse` or `unresolved`.
//! The rules are those of the choosing-metrics guide; README.md spells
//! them out.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::process::ExitCode;

use ringmesh_serve::json::Json;

use crate::contract::{Contract, DEFAULT_BOUND};
use crate::jsonw::J;
use crate::report::Better;
use crate::stats::{median, quartiles, Spread};

/// Fewest pairs a gain may be claimed on.
const MIN_PAIRS_FOR_GAIN: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Decides one workload x metric from the parent's runs `a` and the
/// change's runs `b`, paired in run order.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    // `good` grows as the metric improves, whichever way that is.
    let good = |x: f64| match better {
        Better::Lower => -x,
        _ => x,
    };
    if better == Better::Exact {
        // Pair by pair: runs of one set differ from each other (each
        // has its own seed), run `i` of both sets must not.
        return if a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x == y) {
            Verdict::Same
        } else {
            Verdict::Worse
        };
    }
    let (ma, mb) = (
        median(a).expect("parent has runs"),
        median(b).expect("change has runs"),
    );
    let iqr_a = quartiles(a).map_or(0.0, |(q1, q3)| q3 - q1);
    let scale = ma.abs().max(f64::MIN_POSITIVE);
    let worse_by = (good(ma) - good(mb)) / scale;
    // A spread wider than the bound means the medians cannot settle
    // it; only complete separation of the two sets can.
    let noisy = iqr_a / scale > bound;
    let separated = |lo: &[f64], hi: &[f64]| {
        let worst_hi = hi.iter().map(|&x| good(x)).fold(f64::INFINITY, f64::min);
        let best_lo = lo
            .iter()
            .map(|&x| good(x))
            .fold(f64::NEG_INFINITY, f64::max);
        worst_hi > best_lo
    };
    if worse_by > bound {
        return if noisy && !separated(b, a) {
            Verdict::Unresolved
        } else {
            Verdict::Worse
        };
    }
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(&x, &y)| good(y) > good(x)).count();
    let gain = pairs >= MIN_PAIRS_FOR_GAIN
        && wins * 10 >= pairs * 9
        && good(mb) > good(ma)
        && (mb - ma).abs() > iqr_a;
    if gain || (noisy && separated(a, b)) {
        Verdict::Better
    } else if noisy {
        Verdict::Unresolved
    } else {
        Verdict::Same
    }
}

/// The values of one metric of one workload over a set of runs.
#[derive(Debug, Clone, PartialEq)]
struct Series {
    unit: String,
    better: Better,
    values: Vec<f64>,
}

/// (workload, traced pass?, metric) -> its values in run order.
type Table = BTreeMap<(String, bool, String), Series>;

fn table(records: &[Json]) -> Table {
    let mut t = Table::new();
    for r in records {
        let (Some(workload), Some(traced), Some(Json::Obj(metrics))) = (
            r.get("workload").and_then(Json::as_str),
            r.get("traced").and_then(Json::as_bool),
            r.get("metrics"),
        ) else {
            continue;
        };
        for (name, m) in metrics {
            let Some(value) = m.get("value").and_then(Json::as_f64) else {
                continue;
            };
            let better = match m.get("better").and_then(Json::as_str) {
                Some("higher") => Better::Higher,
                Some("exact") => Better::Exact,
                _ => Better::Lower,
            };
            t.entry((workload.to_string(), traced, name.clone()))
                .or_insert_with(|| Series {
                    unit: m
                        .get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                    better,
                    values: Vec::new(),
                })
                .values
                .push(value);
        }
        // Failures and the result digest ride along as exact metrics.
        let failed = r.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        let attempted = r.get("attempted").and_then(Json::as_f64).unwrap_or(1.0);
        t.entry((workload.to_string(), traced, "failure_rate".into()))
            .or_insert_with(|| Series {
                unit: "failed/attempted".into(),
                better: Better::Lower,
                values: Vec::new(),
            })
            .values
            .push(failed / attempted.max(1.0));
    }
    t
}

/// Median and quartiles of every metric across `records`, per
/// workload; what `baseline.json` holds.
pub fn summarize(records: &[Json], contract: &Contract) -> J {
    let mut workloads: Vec<(String, Vec<(String, J)>)> = Vec::new();
    for ((workload, traced, metric), series) in table(records) {
        let s = Spread::of(&series.values);
        if let (Some(bound), true) = (contract.bound(&metric), series.values.len() >= 2) {
            if metric != "setup_s" && s.relative_iqr() > bound / 2.0 {
                println!(
                    "{workload} note: {metric} spreads {:.1} % of its median across {} runs, over half its {:.0} % bound",
                    s.relative_iqr() * 100.0,
                    s.n,
                    bound * 100.0
                );
            }
        }
        let entry = J::obj([
            ("median", J::Num(s.median)),
            ("q1", J::Num(s.q1)),
            ("q3", J::Num(s.q3)),
            ("n", J::Num(s.n as f64)),
            ("unit", J::str(series.unit)),
            ("better", J::str(series.better.as_str())),
            ("traced", J::Bool(traced)),
        ]);
        match workloads.iter_mut().find(|(w, _)| *w == workload) {
            Some((_, metrics)) => metrics.push((metric, entry)),
            None => workloads.push((workload, vec![(metric, entry)])),
        }
    }
    J::obj(workloads.into_iter().map(|(w, m)| (w, J::obj(m))))
}

/// (workload, traced pass?, seed) -> the pass's `sim_fingerprint`.
type Digests = BTreeMap<(String, bool, u64), String>;

fn load(path: &Path) -> Result<(Vec<Json>, Digests), String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(Json::Arr(runs)) = doc.get("runs").filter(|r| **r != Json::Arr(Vec::new())) else {
        return Err(format!("{}: no runs in it", path.display()));
    };
    let digests = runs
        .iter()
        .filter_map(|r| {
            let key = (
                r.get("workload")?.as_str()?.to_string(),
                r.get("traced")?.as_bool()?,
                r.get("seed")?.as_u64()?,
            );
            Some((key, r.get("sim_fingerprint")?.as_str()?.to_string()))
        })
        .collect();
    Ok((runs.clone(), digests))
}

/// `--compare A B`.
pub fn run(a: &Path, b: &Path, contract: &Contract) -> Result<ExitCode, String> {
    let ((runs_a, digests_a), (runs_b, digests_b)) = (load(a)?, load(b)?);
    let (ta, tb) = (table(&runs_a), table(&runs_b));
    println!(
        "{:<13} {:<38} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound"
    );
    let mut worse = 0usize;
    for (key, sa) in &ta {
        let Some(sb) = tb.get(key) else { continue };
        let (workload, traced, metric) = key;
        let (ma, mb) = (
            median(&sa.values).expect("non-empty series"),
            median(&sb.values).expect("non-empty series"),
        );
        let change = if ma == 0.0 {
            0.0
        } else {
            (mb - ma) / ma.abs() * 100.0
        };
        // A bound exists for end-to-end metrics only; a layer metric
        // gets a verdict when it is an exact count, a row otherwise.
        let judged = !*traced || sa.better == Better::Exact;
        let bound = contract.bound(metric).unwrap_or(DEFAULT_BOUND);
        let label = if judged {
            let v = verdict(&sa.values, &sb.values, sa.better, bound);
            worse += usize::from(v == Verdict::Worse);
            v.as_str()
        } else {
            "-"
        };
        let bound = if judged && sa.better != Better::Exact {
            format!("{:.0}%", bound * 100.0)
        } else {
            "-".into()
        };
        println!(
            "{workload:<13} {metric:<38} {ma:>14.6} {mb:>14.6} {change:>+7.1}% {bound:>6}  {label}  ({} {}, n={}/{})",
            sa.unit,
            sa.better.as_str(),
            sa.values.len(),
            sb.values.len()
        );
    }
    // Same workload, pass and seed: the simulated results must be the
    // same.
    for ((workload, traced, seed), da) in &digests_a {
        let pass = if *traced { "traced" } else { "end to end" };
        match digests_b.get(&(workload.clone(), *traced, *seed)) {
            Some(db) if db != da => {
                worse += 1;
                println!(
                    "{workload:<13} sim_fingerprint ({pass}, seed {seed}) {da} -> {db}  worse"
                );
            }
            _ => {}
        }
    }
    println!("{worse} row(s) worse");
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, step: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + step * (f64::from(i) - 4.5))
            .collect()
    }

    #[test]
    fn within_the_bound_is_same_beyond_it_is_worse() {
        let a = around(100.0, 0.2);
        assert_eq!(
            verdict(&a, &around(104.0, 0.2), Better::Lower, 0.10),
            Verdict::Same
        );
        assert_eq!(
            verdict(&a, &around(115.0, 0.2), Better::Lower, 0.10),
            Verdict::Worse
        );
        // The same numbers read the other way for a rate.
        assert_eq!(
            verdict(&a, &around(115.0, 0.2), Better::Higher, 0.10),
            Verdict::Better
        );
        assert_eq!(
            verdict(&a, &around(85.0, 0.2), Better::Higher, 0.10),
            Verdict::Worse
        );
    }

    #[test]
    fn a_gain_needs_ten_pairs_nine_wins_and_a_gap_over_the_parents_iqr() {
        let a = around(100.0, 0.2);
        assert_eq!(
            verdict(&a, &around(97.0, 0.2), Better::Lower, 0.10),
            Verdict::Better
        );
        // Too few pairs.
        assert_eq!(
            verdict(&a[..5], &around(97.0, 0.2)[..5], Better::Lower, 0.10),
            Verdict::Same
        );
        // Gap inside the parent's inter-quartile distance.
        assert_eq!(
            verdict(&a, &around(99.9, 0.2), Better::Lower, 0.10),
            Verdict::Same
        );
        // Two of ten pairs lost.
        let mut b = around(97.0, 0.2);
        b[0] = 120.0;
        b[1] = 120.0;
        assert_eq!(verdict(&a, &b, Better::Lower, 0.10), Verdict::Same);
    }

    #[test]
    fn a_spread_over_the_bound_is_unresolved_unless_the_sets_separate() {
        let noisy = around(100.0, 8.0); // IQR ~ 44 % of the median
        assert_eq!(
            verdict(&noisy, &around(101.0, 8.0), Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &around(130.0, 8.0), Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &around(300.0, 8.0), Better::Lower, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&noisy, &around(20.0, 1.0), Better::Lower, 0.10),
            Verdict::Better
        );
    }

    #[test]
    fn exact_metrics_must_not_move_and_single_runs_still_compare() {
        // Run by run: seeds differ within a set, not between the sets.
        let exact = |a: &[f64], b: &[f64]| verdict(a, b, Better::Exact, 0.0);
        assert_eq!(exact(&[7.0, 9.0], &[7.0, 9.0]), Verdict::Same);
        assert_eq!(exact(&[7.0, 9.0], &[7.0, 9.5]), Verdict::Worse);
        assert_eq!(exact(&[7.0, 9.0], &[7.0]), Verdict::Worse);
        assert_eq!(verdict(&[1.0], &[1.05], Better::Lower, 0.10), Verdict::Same);
        assert_eq!(verdict(&[1.0], &[1.2], Better::Lower, 0.10), Verdict::Worse);
    }

    #[test]
    fn summaries_and_tables_come_from_run_records() {
        let record = |wall: f64| {
            Json::parse(&format!(
                "{{\"workload\":\"mesh_sat\",\"seed\":1,\"traced\":false,\"attempted\":4,\"failed\":1,\
                 \"metrics\":{{\"wall_s\":{{\"value\":{wall},\"unit\":\"s\",\"better\":\"lower\"}}}}}}"
            ))
            .unwrap()
        };
        let t = table(&[record(1.0), record(3.0), record(2.0)]);
        let wall = &t[&("mesh_sat".to_string(), false, "wall_s".to_string())];
        assert_eq!(wall.values, [1.0, 3.0, 2.0]);
        assert_eq!(wall.better, Better::Lower);
        let failures = &t[&("mesh_sat".to_string(), false, "failure_rate".to_string())];
        assert_eq!(failures.values, [0.25, 0.25, 0.25]);

        let contract = Contract::parse(
            "{\"run_seconds\":10,\"workloads\":[],\"end_to_end\":[{\"name\":\"wall_s\",\"bound\":0.1}],\"per_layer\":[]}",
        )
        .unwrap();
        let s = Json::parse(
            &summarize(&[record(1.0), record(3.0), record(2.0)], &contract).to_string(),
        )
        .unwrap();
        let wall = s.get("mesh_sat").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.get("median").and_then(Json::as_f64), Some(2.0));
        assert_eq!(wall.get("n").and_then(Json::as_u64), Some(3));
    }
}
