//! The harness's own JSON writer. Result files and trace files are
//! written without going through the program under test, so a change
//! to `ringmesh_serve::json` cannot change what the benchmark records;
//! the self-tests check that what is written here parses there.

use std::fmt;

/// A JSON value to be written. Object members keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum J {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
    /// Text that is already JSON, spliced in as it stands.
    Raw(String),
}

impl J {
    pub fn str(s: impl Into<String>) -> J {
        J::Str(s.into())
    }

    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, J)>) -> J {
        J::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A 64-bit digest as 16 hex digits: f64 cannot hold one exactly.
    pub fn hex(v: u64) -> J {
        J::Str(format!("{v:016x}"))
    }
}

impl fmt::Display for J {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            J::Null => f.write_str("null"),
            J::Bool(b) => write!(f, "{b}"),
            // `{}` on f64 prints the shortest digits that read back to
            // the same value and never an exponent: every measured
            // digit is kept. JSON has no NaN or infinity.
            J::Num(n) if n.is_finite() => write!(f, "{n}"),
            J::Num(_) => f.write_str("null"),
            J::Str(s) => write_str(f, s),
            J::Raw(text) => f.write_str(text),
            J::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            J::Obj(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_str(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringmesh_serve::json::Json;

    #[test]
    fn written_values_parse_back_through_the_serve_parser() {
        let v = J::obj([
            ("name", J::str("a \"quoted\"\\ line\nwith\ttabs")),
            ("tiny", J::Num(1.25e-9)),
            ("big", J::Num(123_456_789_012.5)),
            ("whole", J::Num(42.0)),
            ("nan", J::Num(f64::NAN)),
            ("flag", J::Bool(true)),
            ("digest", J::hex(0xdead_beef_0000_0001)),
            ("list", J::Arr(vec![J::Null, J::Num(-0.5)])),
            ("raw", J::Raw("{\"k\":[1,2]}".into())),
        ]);
        let parsed = Json::parse(&v.to_string()).expect("valid JSON");
        assert_eq!(
            parsed.get("name").and_then(Json::as_str),
            Some("a \"quoted\"\\ line\nwith\ttabs")
        );
        assert_eq!(parsed.get("tiny").and_then(Json::as_f64), Some(1.25e-9));
        assert_eq!(
            parsed.get("big").and_then(Json::as_f64),
            Some(123_456_789_012.5)
        );
        assert_eq!(parsed.get("whole").and_then(Json::as_u64), Some(42));
        assert_eq!(parsed.get("nan"), Some(&Json::Null));
        assert_eq!(parsed.get("flag").and_then(Json::as_bool), Some(true));
        assert_eq!(
            parsed.get("digest").and_then(Json::as_str),
            Some("deadbeef00000001")
        );
        assert_eq!(
            parsed.get("list"),
            Some(&Json::Arr(vec![Json::Null, Json::Num(-0.5)]))
        );
        let raw = parsed.get("raw").and_then(|r| r.get("k"));
        assert_eq!(raw, Some(&Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)])));
    }
}
