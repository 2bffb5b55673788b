//! A minimal JSON value type with a parser and a deterministic writer.
//!
//! The serve protocol is line-delimited JSON, the trace exporter writes
//! Chrome trace-event JSON, and the workspace takes no external
//! dependencies, so this module hand-rolls the little JSON they need
//! (it lives in this leaf crate so both can reach it). Two properties
//! matter more than generality:
//!
//! - **Deterministic output.** Object members keep insertion order and
//!   floats render via Rust's shortest-round-trip formatter, so equal
//!   values always serialize to byte-identical text. The result cache
//!   and `--verify-cache` compare serialized payloads bit for bit.
//! - **Bounded input.** Nesting is capped; a malformed line yields an
//!   error string, never a panic.

use std::fmt;

/// Maximum nesting depth accepted by the parser.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; members keep insertion order (no sorting, no dedup).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member of an object by key (first match), if this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an exact unsigned integer, if this is a
    /// non-negative whole number small enough for f64 to hold exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9_007_199_254_740_992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Parses one complete JSON value; trailing non-whitespace is an
    /// error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => write_num(f, *n),
            Json::Str(s) => Quoted(s).fmt(f),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    Quoted(k).fmt(f)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Writes a number: whole values in integer form, everything else via
/// the shortest-round-trip float formatter. Non-finite values (which
/// JSON cannot express) render as `null`.
fn write_num(f: &mut fmt::Formatter<'_>, n: f64) -> fmt::Result {
    if !n.is_finite() {
        f.write_str("null")
    } else if n.fract() == 0.0 && n.abs() <= 9_007_199_254_740_992.0 {
        write!(f, "{}", n as i64)
    } else {
        write!(f, "{n:?}")
    }
}

/// Displays a string as a JSON string literal, quotes and escapes
/// included: what [`Json::Str`] writes, for code that formats JSON text
/// directly.
pub struct Quoted<'a>(pub &'a str);

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("\"")?;
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => write!(f, "{c}")?,
            }
        }
        f.write_str("\"")
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".into());
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!("unexpected '{}' at byte {}", b as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            members.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let cp = self.unicode_escape()?;
                            out.push(cp);
                            continue;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                _ => return Err("unterminated string".into()),
            }
        }
    }

    /// Parses the `uXXXX` part of a unicode escape (the `\` is already
    /// consumed and `pos` is on the `u`), including surrogate pairs.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let hex4 = |p: &mut Self| -> Result<u32, String> {
            p.pos += 1; // the 'u'
            let end = p.pos + 4;
            if end > p.bytes.len() {
                return Err("truncated \\u escape".into());
            }
            let s = std::str::from_utf8(&p.bytes[p.pos..end])
                .map_err(|_| "bad \\u escape".to_string())?;
            let v = u32::from_str_radix(s, 16).map_err(|_| "bad \\u escape".to_string())?;
            p.pos = end;
            Ok(v)
        };
        let hi = hex4(self)?;
        if (0xd800..0xdc00).contains(&hi) {
            if self.peek() == Some(b'\\') {
                self.pos += 1;
                if self.peek() == Some(b'u') {
                    let lo = hex4(self)?;
                    if (0xdc00..0xe000).contains(&lo) {
                        let cp = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                        return char::from_u32(cp).ok_or_else(|| "bad surrogate pair".into());
                    }
                }
            }
            return Err("unpaired surrogate".into());
        }
        char::from_u32(hi).ok_or_else(|| "bad \\u escape".into())
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        s.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{s}' at byte {start}"))
    }
}

/// Convenience builder for object literals.
pub fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_structures() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-7",
            "1.5",
            "\"hi \\\"there\\\"\\n\"",
            "[1,2,[3]]",
            "{\"a\":1,\"b\":{\"c\":[true,null]}}",
        ] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.to_string(), text, "round trip of {text}");
        }
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for x in [0.1, 1.0 / 3.0, f64::MIN_POSITIVE, 1e308, -2.5e-10] {
            let text = Json::Num(x).to_string();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(x.to_bits(), back.to_bits(), "{text}");
        }
    }

    #[test]
    fn accessors() {
        let v = Json::parse("{\"op\":\"job\",\"seed\":41,\"deep\":{\"x\":true}}").unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("job"));
        assert_eq!(v.get("seed").and_then(Json::as_u64), Some(41));
        assert_eq!(
            v.get("deep")
                .and_then(|d| d.get("x"))
                .and_then(Json::as_bool),
            Some(true)
        );
        assert!(v.get("missing").is_none());
        assert_eq!(Json::parse("1.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(
            Json::parse("\"\\u0041\\ud83d\\ude00\"").unwrap(),
            Json::Str("A\u{1f600}".into())
        );
        assert!(Json::parse("\"\\ud800\"").is_err());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\"}",
            "nul",
            "1 2",
            "\"unterminated",
            "{\"a\":}",
            "--1",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
        // Depth bomb: fails cleanly instead of blowing the stack.
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn control_characters_escape_on_output() {
        assert_eq!(Json::Str("\u{1}".into()).to_string(), "\"\\u0001\"");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }
}
