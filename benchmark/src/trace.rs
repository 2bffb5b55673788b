//! Spans recorded from outside the program: one per call (or per
//! folded group of calls) into a layer, kept in memory and written as
//! Chrome-trace JSON when the workload ends.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;
use std::time::Instant;

use crate::jsonw::J;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer and call, e.g. `net.step`.
    pub name: &'static str,
    /// Nanoseconds since the trace origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Repetition, measurement batch or request batch this span belongs
    /// to; spans of one request share it.
    pub id: u64,
    /// Display lane: 0 for the harness thread, 1.. for serve clients.
    pub lane: u32,
}

/// All spans of one traced workload pass.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the trace origin to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span and returns its index, for use as a parent.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        id: u64,
        lane: u32,
    ) -> usize {
        debug_assert!(end_ns >= start_ns, "span {name} ends before it starts");
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            id,
            lane,
        });
        self.spans.len() - 1
    }

    /// Self time in seconds summed by span name, over the subtree rooted
    /// at span `root` (the whole trace for `None`): a span's duration
    /// minus the durations of its direct children.
    pub fn self_times(&self, root: Option<usize>) -> BTreeMap<&'static str, f64> {
        let mut own: Vec<i128> = self
            .spans
            .iter()
            .map(|s| i128::from(s.end_ns - s.start_ns))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= i128::from(s.end_ns - s.start_ns);
            }
        }
        // Parents are pushed before their children, so one forward pass
        // settles membership.
        let mut inside = vec![root.is_none(); self.spans.len()];
        let mut by_name = BTreeMap::new();
        for (i, (s, ns)) in self.spans.iter().zip(own).enumerate() {
            inside[i] |= Some(i) == root || s.parent.is_some_and(|p| inside[p]);
            if inside[i] {
                *by_name.entry(s.name).or_insert(0.0) += ns as f64 / 1e9;
            }
        }
        by_name
    }

    /// The trace as a Chrome trace-event document (`chrome://tracing`,
    /// Perfetto): complete (`X`) events, microsecond timestamps, the
    /// parent index and shared id under `args`.
    pub fn to_chrome_json(&self, workload: &str) -> J {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                J::obj([
                    ("name", J::str(s.name)),
                    ("cat", J::str(workload)),
                    ("ph", J::str("X")),
                    ("ts", J::Num(s.start_ns as f64 / 1e3)),
                    ("dur", J::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", J::Num(1.0)),
                    ("tid", J::Num(f64::from(s.lane))),
                    (
                        "args",
                        J::obj([
                            ("span", J::Num(i as f64)),
                            ("parent", s.parent.map_or(J::Null, |p| J::Num(p as f64))),
                            ("id", J::Num(s.id as f64)),
                        ]),
                    ),
                ])
            })
            .collect();
        J::obj([
            ("displayTimeUnit", J::str("ms")),
            ("traceEvents", J::Arr(events)),
        ])
    }

    pub fn write_chrome(&self, path: &Path, workload: &str) -> io::Result<()> {
        fs::write(path, format!("{}\n", self.to_chrome_json(workload)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringmesh_serve::json::Json;

    fn sample() -> Trace {
        let mut t = Trace::new();
        let root = t.push("core.run_loop", 0, 1_000, None, 0, 0);
        let batch = t.push("core.loop_other", 100, 900, Some(root), 1, 0);
        t.push("net.step", 100, 600, Some(batch), 1, 0);
        t.push("workload.pre_cycle", 600, 800, Some(batch), 1, 0);
        t
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let t = sample();
        let own = t.self_times(None);
        assert_eq!(own["core.run_loop"], 200e-9);
        assert_eq!(own["core.loop_other"], 100e-9);
        assert_eq!(own["net.step"], 500e-9);
        assert_eq!(own["workload.pre_cycle"], 200e-9);
        // Self times partition the root span.
        let total: f64 = own.values().sum();
        assert!((total - 1_000e-9).abs() < 1e-15);
        // A subtree holds its root and everything below it, nothing else.
        let batch = t.self_times(Some(1));
        assert_eq!(batch.len(), 3);
        assert_eq!(batch["core.loop_other"], 100e-9);
        assert!(!batch.contains_key("core.run_loop"));
    }

    #[test]
    fn chrome_trace_parses_back_through_the_serve_parser() {
        let doc = Json::parse(&sample().to_chrome_json("mesh_sat").to_string()).unwrap();
        let Some(Json::Arr(events)) = doc.get("traceEvents") else {
            panic!("traceEvents missing");
        };
        assert_eq!(events.len(), 4);
        let step = &events[2];
        assert_eq!(step.get("name").and_then(Json::as_str), Some("net.step"));
        assert_eq!(step.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(step.get("ts").and_then(Json::as_f64), Some(0.1));
        assert_eq!(step.get("dur").and_then(Json::as_f64), Some(0.5));
        let args = step.get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_u64), Some(1));
        assert_eq!(
            events[0].get("args").unwrap().get("parent"),
            Some(&Json::Null)
        );
    }
}
