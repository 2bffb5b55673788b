//! What one workload pass produces: named metrics, correctness-check
//! counts, and the two forms they are printed in — one line per metric
//! for people, one JSON object on the last line for the driver.

use crate::jsonw::J;
use crate::stats::Spread;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
    /// A simulated statistic or a count: it must repeat exactly, any
    /// movement is a model change.
    Exact,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
            Better::Exact => "exact",
        }
    }
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub value: f64,
    /// Quartiles and sample count when the value is a median.
    pub spread: Option<Spread>,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, better: Better, value: f64) -> Metric {
        Metric {
            name,
            unit,
            better,
            value,
            spread: None,
        }
    }

    /// A metric whose value is the median of `samples`.
    pub fn median(
        name: &'static str,
        unit: &'static str,
        better: Better,
        samples: &[f64],
    ) -> Metric {
        let spread = Spread::of(samples);
        Metric {
            name,
            unit,
            better,
            value: spread.median,
            spread: Some(spread),
        }
    }

    fn to_json(&self) -> J {
        let mut members = vec![
            ("value", J::Num(self.value)),
            ("unit", J::str(self.unit)),
            ("better", J::str(self.better.as_str())),
        ];
        if let Some(s) = self.spread {
            members.push(("q1", J::Num(s.q1)));
            members.push(("q3", J::Num(s.q3)));
            members.push(("n", J::Num(s.n as f64)));
        }
        J::obj(members)
    }
}

/// Correctness checks: every check is an attempted operation, and
/// `failed / attempted` is the run's `failure_rate`.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one check; `what` is only rendered when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Adds the checks another thread made.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }

    pub fn failure_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Everything one pass over one workload measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub metrics: Vec<Metric>,
    pub checks: Checks,
    /// Digest over every simulated result of the pass, so two commits
    /// can be diffed for a model change.
    pub sim_fingerprint: Option<u64>,
    /// Warnings and refusals (a p90 read off too few samples, a spread
    /// wider than half the bound): printed, never fatal.
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str, seed: u64, traced: bool) -> Report {
        Report {
            workload,
            seed,
            traced,
            metrics: Vec::new(),
            checks: Checks::default(),
            sim_fingerprint: None,
            notes: Vec::new(),
        }
    }

    pub fn push(&mut self, m: Metric) {
        debug_assert!(
            !self.metrics.iter().any(|x| x.name == m.name),
            "metric {} reported twice",
            m.name
        );
        self.metrics.push(m);
    }

    /// Reports one value.
    pub fn add(&mut self, name: &'static str, unit: &'static str, better: Better, value: f64) {
        self.push(Metric::new(name, unit, better, value));
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// `workload metric value unit`, quartiles beside every median.
    pub fn print_lines(&self) {
        for m in &self.metrics {
            let spread = m.spread.map_or(String::new(), |s| {
                format!("  q1={} q3={} n={}", s.q1, s.q3, s.n)
            });
            println!(
                "{} {} {} {}{spread}",
                self.workload, m.name, m.value, m.unit
            );
        }
        println!(
            "{} failure_rate {} failed/attempted  failed={} attempted={}",
            self.workload,
            self.checks.failure_rate(),
            self.checks.failed,
            self.checks.attempted
        );
        if let Some(fp) = self.sim_fingerprint {
            println!("{} sim_fingerprint {fp:016x} digest", self.workload);
        }
        for f in &self.checks.failures {
            println!("{} CHECK FAILED: {f}", self.workload);
        }
        for n in &self.notes {
            println!("{} note: {n}", self.workload);
        }
    }

    /// The full record kept in `results.json`.
    pub fn to_json(&self) -> J {
        J::obj([
            ("workload", J::str(self.workload)),
            ("seed", J::Num(self.seed as f64)),
            ("traced", J::Bool(self.traced)),
            ("attempted", J::Num(self.checks.attempted as f64)),
            ("failed", J::Num(self.checks.failed as f64)),
            (
                "failures",
                J::Arr(self.checks.failures.iter().map(J::str).collect()),
            ),
            (
                "sim_fingerprint",
                self.sim_fingerprint.map_or(J::Null, J::hex),
            ),
            ("notes", J::Arr(self.notes.iter().map(J::str).collect())),
            (
                "metrics",
                J::obj(self.metrics.iter().map(|m| (m.name, m.to_json()))),
            ),
        ])
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the last holding exactly the metrics named in
    /// `contract` (the `end_to_end` or `per_layer` list of
    /// `BENCHMARK.json`).
    ///
    /// # Errors
    ///
    /// Names a contract metric this pass did not measure.
    pub fn contract_line<S: AsRef<str>>(&self, contract: &[S]) -> Result<J, String> {
        let mut members = Vec::with_capacity(contract.len());
        for name in contract.iter().map(AsRef::as_ref) {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == name)
                .ok_or_else(|| format!("{}: metric {name} was not measured", self.workload))?;
            members.push((
                name,
                J::obj([("value", J::Num(m.value)), ("unit", J::str(m.unit))]),
            ));
        }
        Ok(J::obj([
            ("correct", J::Bool(self.checks.failed == 0)),
            ("attempted", J::Num(self.checks.attempted.max(1) as f64)),
            ("failed", J::Num(self.checks.failed as f64)),
            ("metrics", J::obj(members)),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringmesh_serve::json::Json;

    #[test]
    fn checks_count_every_attempt_and_render_only_failures() {
        let mut c = Checks::default();
        c.check(true, || unreachable!("passing checks render nothing"));
        c.check(false, || "fingerprint moved".into());
        assert_eq!((c.attempted, c.failed), (2, 1));
        assert_eq!(c.failure_rate(), 0.5);
        assert_eq!(c.failures, vec!["fingerprint moved".to_string()]);
    }

    #[test]
    fn contract_line_has_exactly_the_contract_metrics() {
        let mut r = Report::new("mesh_sat", 7, false);
        r.push(Metric::median(
            "wall_s",
            "s",
            Better::Lower,
            &[0.5, 0.7, 0.6],
        ));
        r.push(Metric::new("setup_s", "s", Better::Lower, 0.001));
        r.push(Metric::new("extra", "count", Better::Exact, 3.0));
        r.checks.check(true, String::new);
        let line = r.contract_line(&["setup_s", "wall_s"]).unwrap().to_string();
        let v = Json::parse(&line).unwrap();
        let Json::Obj(top) = &v else { panic!() };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Json::Obj(metrics)) = v.get("metrics") else {
            panic!()
        };
        assert_eq!(metrics.len(), 2);
        let wall = v.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(0.6));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
        assert!(r.contract_line(&["latency_ms"]).is_err());
        // The full record keeps the quartiles and the extra metric.
        let full = Json::parse(&r.to_json().to_string()).unwrap();
        let wall = full.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.get("n").and_then(Json::as_u64), Some(3));
        assert!(full.get("metrics").unwrap().get("extra").is_some());
    }
}
