//! The coordinator ↔ worker wire protocol: line-delimited JSON over
//! TCP, one message per line, using the same hand-rolled [`Json`] type
//! as the serve protocol (the workspace takes no external
//! dependencies).
//!
//! A connection opens with a handshake — the worker sends `register`
//! carrying its code-version hash, the coordinator answers `welcome`
//! (assigning a worker id and the heartbeat cadence) or `refused`
//! (typed, with the expected and offered hashes) — and then becomes a
//! full-duplex message stream: the coordinator pushes `dispatch` /
//! `cancel` / `bye`, the worker pushes `heartbeat` / `window` / `done`
//! / `fail`.
//!
//! Every `done` carries the FNV-1a content hash of its canonical
//! payload; the coordinator recomputes the hash on receipt, so a
//! corrupted line degrades into a retried attempt rather than a wrong
//! cached result, and byte-divergent duplicate results are detectable
//! without shipping payloads twice.

use ringmesh_serve::json::{obj, Json};
use ringmesh_serve::CODE_VERSION;
use ringmesh_snap::{hex64, parse_hex64, Fingerprint};

/// The code-version hash exchanged at registration: an FNV-1a digest of
/// the crate version every result key is already scoped by. Coordinator
/// and worker must match exactly — a mixed-version fleet could produce
/// byte-divergent results for one content key.
pub fn code_hash() -> u64 {
    Fingerprint::of(CODE_VERSION.as_bytes())
}

/// A message from a worker to the coordinator.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerMsg {
    /// Handshake: the worker offers its code hash and thread capacity.
    Register {
        /// FNV-1a hash of the worker's code version ([`code_hash`]).
        code: u64,
        /// Concurrent dispatches the worker will run.
        threads: u32,
    },
    /// Liveness signal, sent on the cadence the `welcome` prescribed.
    Heartbeat,
    /// Windowed progress for one running dispatch.
    Window {
        /// Dispatch id being reported on.
        task: String,
        /// Network cycle at the end of the window.
        cycle: u64,
        /// Transactions issued during the window.
        issued: u64,
        /// Transactions retired during the window.
        retired: u64,
    },
    /// A dispatch completed; `payload` is the canonical result text and
    /// `hash` its FNV-1a content hash as computed by the worker.
    Done {
        /// Dispatch id that completed.
        task: String,
        /// Content key the worker computed from the parsed spec.
        key: u64,
        /// FNV-1a hash of `payload` as the worker serialized it.
        hash: u64,
        /// Canonical result payload (serialized JSON).
        payload: String,
    },
    /// A dispatch failed for a task-intrinsic reason.
    Fail {
        /// Dispatch id that failed.
        task: String,
        /// Human-readable cause.
        reason: String,
    },
}

impl WorkerMsg {
    /// Serializes to one protocol line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            WorkerMsg::Register { code, threads } => obj(vec![
                ("op", Json::Str("register".into())),
                ("code", Json::Str(hex64(*code))),
                ("threads", Json::Num(f64::from(*threads))),
            ])
            .to_string(),
            WorkerMsg::Heartbeat => obj(vec![("op", Json::Str("heartbeat".into()))]).to_string(),
            WorkerMsg::Window {
                task,
                cycle,
                issued,
                retired,
            } => obj(vec![
                ("op", Json::Str("window".into())),
                ("task", Json::Str(task.clone())),
                ("cycle", Json::Num(*cycle as f64)),
                ("issued", Json::Num(*issued as f64)),
                ("retired", Json::Num(*retired as f64)),
            ])
            .to_string(),
            WorkerMsg::Done {
                task,
                key,
                hash,
                payload,
            } => {
                let head = obj(vec![
                    ("op", Json::Str("done".into())),
                    ("task", Json::Str(task.clone())),
                    ("key", Json::Str(hex64(*key))),
                    ("hash", Json::Str(hex64(*hash))),
                ])
                .to_string();
                // Splice the payload verbatim: it is already serialized
                // JSON and must survive the trip byte-identically.
                format!("{},\"data\":{}}}", &head[..head.len() - 1], payload)
            }
            WorkerMsg::Fail { task, reason } => obj(vec![
                ("op", Json::Str("fail".into())),
                ("task", Json::Str(task.clone())),
                ("reason", Json::Str(reason.clone())),
            ])
            .to_string(),
        }
    }

    /// Parses one protocol line. `None` means the line is not a valid
    /// worker message (the peer is broken; drop the connection).
    pub fn decode(line: &str) -> Option<WorkerMsg> {
        let v = Json::parse(line).ok()?;
        match v.get("op")?.as_str()? {
            "register" => Some(WorkerMsg::Register {
                code: parse_hex64(v.get("code")?.as_str()?)?,
                threads: u32::try_from(v.get("threads")?.as_u64()?).ok()?,
            }),
            "heartbeat" => Some(WorkerMsg::Heartbeat),
            "window" => Some(WorkerMsg::Window {
                task: v.get("task")?.as_str()?.to_string(),
                cycle: v.get("cycle")?.as_u64()?,
                issued: v.get("issued")?.as_u64()?,
                retired: v.get("retired")?.as_u64()?,
            }),
            "done" => Some(WorkerMsg::Done {
                task: v.get("task")?.as_str()?.to_string(),
                key: parse_hex64(v.get("key")?.as_str()?)?,
                hash: parse_hex64(v.get("hash")?.as_str()?)?,
                // Re-serializing through the deterministic writer
                // reproduces the worker's exact bytes; the hash check
                // on receipt guards the round trip.
                payload: v.get("data")?.to_string(),
            }),
            "fail" => Some(WorkerMsg::Fail {
                task: v.get("task")?.as_str()?.to_string(),
                reason: v.get("reason")?.as_str()?.to_string(),
            }),
            _ => None,
        }
    }
}

/// A message from the coordinator to a worker.
#[derive(Debug, Clone, PartialEq)]
pub enum CoordMsg {
    /// Registration accepted: the worker's id and heartbeat cadence.
    Welcome {
        /// Coordinator-assigned worker id.
        worker: u64,
        /// How often the worker must send [`WorkerMsg::Heartbeat`].
        heartbeat_ms: u64,
    },
    /// Registration refused — typed, so the worker can report exactly
    /// why (today always a code-version mismatch).
    Refused {
        /// Machine-readable reason (`"code-version-mismatch"`).
        reason: String,
        /// The coordinator's code hash.
        expect: u64,
        /// The hash the worker offered.
        got: u64,
    },
    /// Run one job: `spec` is the wire-form job object, `key` the
    /// content key the worker must independently reproduce from it.
    Dispatch {
        /// Dispatch id (unique per attempt; echoed on every reply).
        task: String,
        /// Expected content key of the parsed spec.
        key: u64,
        /// Lease granted, in milliseconds (informational for the
        /// worker; enforcement is coordinator-side).
        lease_ms: u64,
        /// Progress-window length in cycles.
        window: u64,
        /// The job object, re-parseable by `parse_job`.
        spec: Json,
    },
    /// Abandon a dispatch (its result is no longer wanted).
    Cancel {
        /// Dispatch id to abandon.
        task: String,
    },
    /// Orderly goodbye; the worker should exit.
    Bye,
}

impl CoordMsg {
    /// Serializes to one protocol line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            CoordMsg::Welcome {
                worker,
                heartbeat_ms,
            } => obj(vec![
                ("ev", Json::Str("welcome".into())),
                ("worker", Json::Num(*worker as f64)),
                ("heartbeat_ms", Json::Num(*heartbeat_ms as f64)),
            ])
            .to_string(),
            CoordMsg::Refused {
                reason,
                expect,
                got,
            } => obj(vec![
                ("ev", Json::Str("refused".into())),
                ("reason", Json::Str(reason.clone())),
                ("expect", Json::Str(hex64(*expect))),
                ("got", Json::Str(hex64(*got))),
            ])
            .to_string(),
            CoordMsg::Dispatch {
                task,
                key,
                lease_ms,
                window,
                spec,
            } => obj(vec![
                ("ev", Json::Str("dispatch".into())),
                ("task", Json::Str(task.clone())),
                ("key", Json::Str(hex64(*key))),
                ("lease_ms", Json::Num(*lease_ms as f64)),
                ("window", Json::Num(*window as f64)),
                ("spec", spec.clone()),
            ])
            .to_string(),
            CoordMsg::Cancel { task } => obj(vec![
                ("ev", Json::Str("cancel".into())),
                ("task", Json::Str(task.clone())),
            ])
            .to_string(),
            CoordMsg::Bye => obj(vec![("ev", Json::Str("bye".into()))]).to_string(),
        }
    }

    /// Parses one protocol line. `None` means the line is not a valid
    /// coordinator message.
    pub fn decode(line: &str) -> Option<CoordMsg> {
        let v = Json::parse(line).ok()?;
        match v.get("ev")?.as_str()? {
            "welcome" => Some(CoordMsg::Welcome {
                worker: v.get("worker")?.as_u64()?,
                heartbeat_ms: v.get("heartbeat_ms")?.as_u64()?,
            }),
            "refused" => Some(CoordMsg::Refused {
                reason: v.get("reason")?.as_str()?.to_string(),
                expect: parse_hex64(v.get("expect")?.as_str()?)?,
                got: parse_hex64(v.get("got")?.as_str()?)?,
            }),
            "dispatch" => Some(CoordMsg::Dispatch {
                task: v.get("task")?.as_str()?.to_string(),
                key: parse_hex64(v.get("key")?.as_str()?)?,
                lease_ms: v.get("lease_ms")?.as_u64()?,
                window: v.get("window")?.as_u64()?,
                spec: v.get("spec")?.clone(),
            }),
            "cancel" => Some(CoordMsg::Cancel {
                task: v.get("task")?.as_str()?.to_string(),
            }),
            "bye" => Some(CoordMsg::Bye),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_messages_round_trip() {
        let msgs = [
            WorkerMsg::Register {
                code: code_hash(),
                threads: 4,
            },
            WorkerMsg::Heartbeat,
            WorkerMsg::Window {
                task: "3:1".into(),
                cycle: 4000,
                issued: 120,
                retired: 118,
            },
            WorkerMsg::Fail {
                task: "0:2".into(),
                reason: "bad spec".into(),
            },
        ];
        for m in msgs {
            assert_eq!(WorkerMsg::decode(&m.encode()), Some(m));
        }
    }

    #[test]
    fn done_payload_survives_the_wire_byte_identically() {
        let payload = r#"{"schema":"ringmesh-serve/1","pms":24,"latency":{"mean":3.5}}"#;
        let m = WorkerMsg::Done {
            task: "1:1".into(),
            key: 0xabcd,
            hash: Fingerprint::of(payload.as_bytes()),
            payload: payload.into(),
        };
        let Some(WorkerMsg::Done {
            hash,
            payload: back,
            ..
        }) = WorkerMsg::decode(&m.encode())
        else {
            panic!("done failed to decode")
        };
        assert_eq!(back, payload);
        assert_eq!(Fingerprint::of(back.as_bytes()), hash);
    }

    #[test]
    fn coordinator_messages_round_trip() {
        let spec = Json::parse(r#"{"op":"job","topology":"mesh:3"}"#).unwrap();
        let msgs = [
            CoordMsg::Welcome {
                worker: 2,
                heartbeat_ms: 2000,
            },
            CoordMsg::Refused {
                reason: "code-version-mismatch".into(),
                expect: 1,
                got: 2,
            },
            CoordMsg::Dispatch {
                task: "0:1".into(),
                key: 77,
                lease_ms: 30_000,
                window: 4000,
                spec,
            },
            CoordMsg::Cancel { task: "0:1".into() },
            CoordMsg::Bye,
        ];
        for m in msgs {
            assert_eq!(CoordMsg::decode(&m.encode()), Some(m));
        }
    }

    #[test]
    fn garbage_lines_decode_to_none() {
        for line in ["", "{", "[]", r#"{"op":"nope"}"#, r#"{"ev":7}"#] {
            assert_eq!(WorkerMsg::decode(line), None, "{line}");
            assert_eq!(CoordMsg::decode(line), None, "{line}");
        }
    }
}
