//! What `BENCHMARK.json` at the root of the repo promises: the metric
//! names the driver's JSON line must carry, and each end-to-end
//! metric's bound. Read at run time, so the file is the only place the
//! lists live.

use std::fs;
use std::path::Path;

use ringmesh_serve::json::Json;

/// Bound applied by `--compare` to a timing the contract does not list
/// (the serve-only and per-layer metrics).
pub const DEFAULT_BOUND: f64 = 0.10;

#[derive(Debug, Clone, PartialEq)]
pub struct Contract {
    /// Seconds one run measures for.
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<String>,
    bounds: Vec<f64>,
    pub per_layer: Vec<String>,
}

impl Contract {
    pub fn load(path: &Path) -> Result<Contract, String> {
        let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Contract::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn parse(text: &str) -> Result<Contract, String> {
        let doc = Json::parse(text)?;
        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => Ok(items),
            _ => Err(format!("no '{key}' list")),
        };
        let name = |m: &Json| {
            m.get("name")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or("a metric has no name")
        };
        let mut c = Contract {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("no 'run_seconds'")?,
            workloads: Vec::new(),
            end_to_end: Vec::new(),
            bounds: Vec::new(),
            per_layer: Vec::new(),
        };
        for m in list("end_to_end")? {
            c.end_to_end.push(name(m)?);
            c.bounds.push(
                m.get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("an end-to-end metric has no bound")?,
            );
        }
        for m in list("per_layer")? {
            c.per_layer.push(name(m)?);
        }
        for w in list("workloads")? {
            c.workloads.push(name(w)?);
        }
        Ok(c)
    }

    /// The bound of an end-to-end metric; `None` for any other name.
    pub fn bound(&self, metric: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .position(|n| n == metric)
            .map(|i| self.bounds[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_contract_is_well_formed() {
        let c = Contract::load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the root of the repo");
        assert_eq!(c.workloads, crate::inputs::WORKLOADS);
        assert!(c.run_seconds >= 1.0 && c.run_seconds <= 60.0);
        assert!(c.end_to_end.iter().any(|n| n == "setup_s"));
        assert!(c.bound("setup_s").is_some_and(|b| b > 0.0 && b <= 0.25));
        assert_eq!(c.bound("net.step_s"), None);
        assert!(!c.per_layer.is_empty() && c.per_layer.len() <= 128);
        let mut all: Vec<&String> = c.end_to_end.iter().chain(&c.per_layer).collect();
        all.sort();
        all.dedup();
        assert_eq!(
            all.len(),
            c.end_to_end.len() + c.per_layer.len(),
            "a name is used twice"
        );
    }
}
