//! Translating job objects from the wire into [`SystemConfig`]s.
//!
//! A job is a flat JSON object; every field beyond the `topology` spec
//! string is optional and defaults to the paper-baseline configuration.
//! Example:
//!
//! ```json
//! {"op":"job","id":"r24","topology":"ring:2:3:4",
//!  "cache_line":128,"miss_rate":0.1,"seed":7,"scale":"quick"}
//! ```

use ringmesh::{NetworkSpec, SimParams, SystemConfig};
use ringmesh_net::CacheLineSize;
use ringmesh_workload::{HotSpot, MissProcess};

use crate::json::Json;

/// One submitted job: a client-chosen label plus the full simulation
/// configuration it denotes.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Client-chosen job label, echoed on every event for this job.
    pub id: String,
    /// The simulation point to run.
    pub cfg: SystemConfig,
}

/// Builds a [`JobSpec`] from a parsed `{"op":"job",...}` object.
///
/// # Errors
///
/// Returns a human-readable message naming the offending field; the
/// config is also passed through [`SystemConfig::validate`].
pub fn parse_job(v: &Json, default_id: &str) -> Result<JobSpec, String> {
    let id = match v.get("id") {
        Some(j) => j.as_str().ok_or("field 'id' must be a string")?.to_string(),
        None => default_id.to_string(),
    };

    let network = parse_network(v)?;
    let cache_line = match v.get("cache_line") {
        Some(j) => {
            let bytes = j
                .as_u64()
                .ok_or("field 'cache_line' must be 16/32/64/128")?;
            CacheLineSize::from_bytes(u32::try_from(bytes).map_err(|_| "cache_line too large")?)?
        }
        None => CacheLineSize::B128,
    };
    let mut cfg = SystemConfig::new(network, cache_line);

    if let Some(j) = v.get("region") {
        cfg.workload.region = f64_field(j, "region")?;
    }
    if let Some(j) = v.get("miss_rate") {
        cfg.workload.miss_rate = f64_field(j, "miss_rate")?;
    }
    if let Some(j) = v.get("outstanding") {
        cfg.workload.outstanding = u32_field(j, "outstanding")?;
    }
    if let Some(j) = v.get("read_fraction") {
        cfg.workload.read_fraction = f64_field(j, "read_fraction")?;
    }
    if let Some(j) = v.get("miss_process") {
        cfg.workload.miss_process = match j.as_str() {
            Some("det") => MissProcess::Deterministic,
            Some("geo") => MissProcess::Geometric,
            _ => return Err("field 'miss_process' must be \"det\" or \"geo\"".into()),
        };
    }
    match (v.get("hot_node"), v.get("hot_fraction")) {
        (Some(n), Some(f)) => {
            cfg.workload.hot_spot = Some(HotSpot {
                node: u32_field(n, "hot_node")?,
                fraction: f64_field(f, "hot_fraction")?,
            });
        }
        (None, None) => {}
        _ => return Err("'hot_node' and 'hot_fraction' must be given together".into()),
    }
    if let Some(j) = v.get("mem_latency") {
        cfg.memory.latency = u32_field(j, "mem_latency")?;
    }
    if let Some(j) = v.get("mem_occupancy") {
        cfg.memory.occupancy = u32_field(j, "mem_occupancy")?;
    }

    if let Some(j) = v.get("scale") {
        cfg.sim = match j.as_str() {
            Some("quick") => SimParams::quick(),
            Some("full") => SimParams::full(),
            _ => return Err("field 'scale' must be \"quick\" or \"full\"".into()),
        };
    }
    if let Some(j) = v.get("warmup") {
        cfg.sim.warmup = u64_field(j, "warmup")?;
    }
    if let Some(j) = v.get("batch_cycles") {
        cfg.sim.batch_cycles = u64_field(j, "batch_cycles")?;
    }
    if let Some(j) = v.get("batches") {
        cfg.sim.batches = u64_field(j, "batches")? as usize;
    }
    if let Some(j) = v.get("seed") {
        cfg.seed = u64_field(j, "seed")?;
    }

    cfg.validate().map_err(|e| e.to_string())?;
    Ok(JobSpec { id, cfg })
}

/// The network is named by its registry spec string ("ring:2:3:4",
/// "mesh:12:cl", "hybrid:4x4:4", ...) and by nothing else.
fn parse_network(v: &Json) -> Result<NetworkSpec, String> {
    v.get("topology")
        .and_then(Json::as_str)
        .ok_or("field 'topology' must be a spec string like \"ring:2:3:4\"")?
        .parse()
        .map_err(|e| format!("bad topology spec: {e}"))
}

fn f64_field(j: &Json, name: &str) -> Result<f64, String> {
    j.as_f64()
        .ok_or_else(|| format!("field '{name}' must be a number"))
}

fn u64_field(j: &Json, name: &str) -> Result<u64, String> {
    j.as_u64()
        .ok_or_else(|| format!("field '{name}' must be a non-negative integer"))
}

fn u32_field(j: &Json, name: &str) -> Result<u32, String> {
    u64_field(j, name)
        .and_then(|n| u32::try_from(n).map_err(|_| format!("field '{name}' is out of range")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<JobSpec, String> {
        parse_job(&Json::parse(text).unwrap(), "job-0")
    }

    #[test]
    fn minimal_ring_job_uses_paper_defaults() {
        let job = parse(r#"{"topology":"ring:2:3:4"}"#).unwrap();
        assert_eq!(job.id, "job-0");
        assert_eq!(job.cfg.network.label(), "ring 2:3:4");
        assert_eq!(job.cfg.cache_line, CacheLineSize::B128);
        assert_eq!(
            job.cfg,
            SystemConfig::new(job.cfg.network.clone(), CacheLineSize::B128)
        );
    }

    #[test]
    fn every_field_lands_in_the_config() {
        let job = parse(
            r#"{"id":"m5","topology":"mesh:5:cl","cache_line":32,
                "region":0.5,"miss_rate":0.2,"outstanding":8,"read_fraction":0.6,
                "miss_process":"geo","hot_node":3,"hot_fraction":0.1,
                "mem_latency":12,"mem_occupancy":5,
                "warmup":900,"batch_cycles":700,"batches":3,"seed":99}"#,
        )
        .unwrap();
        assert_eq!(job.id, "m5");
        let c = &job.cfg;
        assert_eq!(c.network.label(), "mesh 5x5 (cl-sized buffers)");
        assert_eq!(c.cache_line, CacheLineSize::B32);
        assert_eq!(c.workload.region, 0.5);
        assert_eq!(c.workload.miss_rate, 0.2);
        assert_eq!(c.workload.outstanding, 8);
        assert_eq!(c.workload.read_fraction, 0.6);
        assert_eq!(c.workload.miss_process, MissProcess::Geometric);
        assert_eq!(
            c.workload.hot_spot,
            Some(HotSpot {
                node: 3,
                fraction: 0.1
            })
        );
        assert_eq!(c.memory.latency, 12);
        assert_eq!(c.memory.occupancy, 5);
        assert_eq!(
            (c.sim.warmup, c.sim.batch_cycles, c.sim.batches),
            (900, 700, 3)
        );
        assert_eq!(c.seed, 99);
    }

    #[test]
    fn topology_field_reaches_every_registered_network() {
        for (text, label) in [
            (r#"{"topology":"ring:2:3:4"}"#, "ring 2:3:4"),
            (r#"{"topology":"ring2x:2:4"}"#, "ring 2:4 (2x global)"),
            (r#"{"topology":"slotted:2:2:3"}"#, "slotted ring 2:2:3"),
            (r#"{"topology":"mesh:5:cl"}"#, "mesh 5x5 (cl-sized buffers)"),
            (
                r#"{"topology":"hybrid:4x4:4"}"#,
                "hybrid 4x4 mesh of 4-PM rings",
            ),
        ] {
            let job = parse(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(job.cfg.network.label(), label);
        }
    }

    #[test]
    fn malformed_topology_fields_draw_errors_not_panics() {
        for (text, needle) in [
            (r#"{"topology":"torus:4"}"#, "topology"),
            (r#"{"topology":"hybrid:4x5:4"}"#, "square"),
            (r#"{"topology":"hybrid:4x4:0"}"#, "positive"),
            (r#"{"topology":"mesh:0"}"#, "mesh"),
            (r#"{"topology":42}"#, "string"),
        ] {
            let err = parse(text).unwrap_err();
            assert!(err.contains(needle), "{text} -> {err}");
        }
    }

    #[test]
    fn scale_presets_then_overrides() {
        let job = parse(r#"{"topology":"mesh:3","scale":"quick","batches":2}"#).unwrap();
        assert_eq!(job.cfg.sim.warmup, SimParams::quick().warmup);
        assert_eq!(job.cfg.sim.batches, 2);
    }

    #[test]
    fn bad_jobs_name_the_offending_field() {
        for (text, needle) in [
            (r#"{"cache_line":64}"#, "'topology'"),
            (r#"{"topology":"ring:0:9"}"#, "topology spec"),
            (r#"{"topology":"mesh:3","cache_line":48}"#, "48"),
            (r#"{"topology":"mesh:3","hot_node":1}"#, "together"),
            (r#"{"topology":"mesh:3","miss_rate":2.0}"#, "miss rate"),
            (r#"{"topology":"mesh:3","batches":0}"#, "batch"),
        ] {
            let err = parse(text).unwrap_err();
            assert!(err.contains(needle), "{text} -> {err}");
        }
    }

    #[test]
    fn only_the_topology_field_names_a_network() {
        let old_form = r#""network":"mesh","side":3"#;
        let err = parse(&format!("{{{old_form}}}")).unwrap_err();
        assert!(err.contains("'topology'"), "{err}");
        // Unknown members are ignored, these like any other.
        let job = parse(&format!(r#"{{"topology":"mesh:4",{old_form}}}"#)).unwrap();
        assert_eq!(job.cfg.network.label(), "mesh 4x4 (4-flit buffers)");
    }
}
