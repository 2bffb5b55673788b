//! `ringmesh-snap` — a minimal, dependency-free binary snapshot codec.
//!
//! Deterministic checkpoint/resume needs every piece of mutable
//! simulation state to round-trip through bytes *exactly*: a resumed
//! run must be bit-identical to one that never stopped. This crate
//! provides the codec the rest of the workspace builds on:
//!
//! * [`SnapWriter`] / [`SnapReader`] — little-endian, length-prefixed
//!   primitives with checked reads (no panics on truncated input);
//! * [`Snapshot`] — value types that serialize whole (counters,
//!   packets, queues of plain data);
//! * [`SnapshotState`] — stateful components that restore *in place*
//!   into a freshly rebuilt instance (networks re-derive their
//!   immutable topology from configuration and only their mutable
//!   state travels through the checkpoint);
//! * [`Fingerprint`] — a 64-bit FNV-1a accumulator used to compare
//!   run outputs bit-for-bit (cache verification, resume validation).
//!
//! The container format is versioned with a magic header
//! ([`write_header`]/[`read_header`]) so stale checkpoint files are
//! rejected instead of misinterpreted.
//!
//! As the workspace's dependency-free leaf it also holds [`json`], the
//! one JSON value, parser and deterministic writer the serve protocol
//! and the Chrome-trace exporter share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

pub mod json;

/// Magic bytes opening every snapshot container.
pub const MAGIC: &[u8; 6] = b"RMSNAP";

/// Current container format version.
pub const VERSION: u16 = 2;

/// Error raised when decoding a snapshot fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The input ended before the expected value.
    Eof,
    /// The input decoded to an invalid value (bad tag, bad magic...).
    Corrupt(String),
    /// The container version or section label does not match.
    Mismatch(String),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Eof => write!(f, "snapshot truncated"),
            SnapError::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
            SnapError::Mismatch(what) => write!(f, "snapshot mismatch: {what}"),
        }
    }
}

impl Error for SnapError {}

/// Append-only byte sink for snapshot encoding.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        SnapWriter::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its raw IEEE-754 bits (bit-exact round-trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes a length-prefixed byte slice.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// Checked cursor over snapshot bytes.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Eof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, SnapError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads an `f64` from raw IEEE-754 bits.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `usize` (stored as `u64`), rejecting values that do not
    /// fit the platform or are absurdly large for a length prefix.
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapError::Corrupt(format!("length {v} overflows usize")))
    }

    /// Reads a `bool`, rejecting bytes other than 0/1.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapError::Corrupt(format!("bool byte {b}"))),
        }
    }

    /// Reads a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.usize()?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| SnapError::Corrupt("non-UTF-8 string".into()))
    }

    /// Reads a length prefix that must equal `want`: the size of a
    /// table the restoring instance rebuilt from its configuration,
    /// which a snapshot may fill but never resize.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError::Mismatch`] naming `what` when the snapshot
    /// holds a different length.
    pub fn len_exact(&mut self, want: usize, what: &str) -> Result<(), SnapError> {
        let got = self.usize()?;
        if got == want {
            Ok(())
        } else {
            Err(SnapError::Mismatch(format!(
                "{what}: snapshot has {got}, this instance has {want}"
            )))
        }
    }

    /// Reads a `Vec<T>` as [`Snapshot`] writes one, of exactly `want`
    /// entries; the length is checked before any entry is decoded.
    ///
    /// # Errors
    ///
    /// As [`len_exact`](Self::len_exact), and any entry's decode error.
    pub fn vec_exact<T: Snapshot>(&mut self, want: usize, what: &str) -> Result<Vec<T>, SnapError> {
        self.len_exact(want, what)?;
        (0..want).map(|_| T::load(self)).collect()
    }
}

/// Writes the versioned container header with a free-form `kind` label
/// (e.g. `"checkpoint"`), so different snapshot species cannot be
/// confused for one another.
pub fn write_header(w: &mut SnapWriter, kind: &str) {
    w.bytes(MAGIC);
    w.u16(VERSION);
    w.str(kind);
}

/// Reads and validates the container header, expecting `kind`.
///
/// # Errors
///
/// Returns [`SnapError`] on bad magic, version or kind.
pub fn read_header(r: &mut SnapReader<'_>, kind: &str) -> Result<(), SnapError> {
    let magic = r.bytes()?;
    if magic != MAGIC {
        return Err(SnapError::Corrupt("bad magic".into()));
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(SnapError::Mismatch(format!(
            "container version {version}, expected {VERSION}"
        )));
    }
    let found = r.str()?;
    if found != kind {
        return Err(SnapError::Mismatch(format!(
            "snapshot kind {found:?}, expected {kind:?}"
        )));
    }
    Ok(())
}

/// A value that serializes whole and reconstructs from bytes.
pub trait Snapshot: Sized {
    /// Appends this value's encoding to `w`.
    fn save(&self, w: &mut SnapWriter);
    /// Decodes one value from `r`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on truncated or invalid input.
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

/// A component that restores *in place*: the caller rebuilds the
/// immutable skeleton (topology, configuration, capacities) and the
/// snapshot only carries the mutable state poured back into it.
pub trait SnapshotState {
    /// Appends this component's mutable state to `w`.
    fn save_state(&self, w: &mut SnapWriter);
    /// Restores mutable state from `r` into `self`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on truncated or invalid input, or when the
    /// snapshot does not fit this instance's shape (e.g. a different
    /// topology size).
    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

macro_rules! snapshot_prim {
    ($ty:ty, $w:ident, $r:ident) => {
        impl Snapshot for $ty {
            fn save(&self, w: &mut SnapWriter) {
                w.$w(*self);
            }
            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                r.$r()
            }
        }
    };
}

snapshot_prim!(u8, u8, u8);
snapshot_prim!(u16, u16, u16);
snapshot_prim!(u32, u32, u32);
snapshot_prim!(u64, u64, u64);
snapshot_prim!(i64, i64, i64);
snapshot_prim!(f64, f64, f64);
snapshot_prim!(usize, usize, usize);
snapshot_prim!(bool, bool, bool);

impl Snapshot for String {
    fn save(&self, w: &mut SnapWriter) {
        w.str(self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.str()
    }
}

impl<T: Snapshot> Snapshot for Option<T> {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.save(w);
            }
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(r)?)),
            b => Err(SnapError::Corrupt(format!("Option tag {b}"))),
        }
    }
}

impl<T: Snapshot> Snapshot for Vec<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.usize()?;
        // Guard capacity against corrupt length prefixes: grow as we
        // decode rather than trusting `n` up front.
        let mut out = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            out.push(T::load(r)?);
        }
        Ok(out)
    }
}

impl<T: Snapshot> Snapshot for VecDeque<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.usize()?;
        let mut out = VecDeque::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            out.push_back(T::load(r)?);
        }
        Ok(out)
    }
}

impl<A: Snapshot, B: Snapshot> Snapshot for (A, B) {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

impl<A: Snapshot, B: Snapshot, C: Snapshot> Snapshot for (A, B, C) {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
        self.2.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::load(r)?, B::load(r)?, C::load(r)?))
    }
}

impl<T: Snapshot, const N: usize> Snapshot for [T; N] {
    fn save(&self, w: &mut SnapWriter) {
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::load(r)?);
        }
        out.try_into()
            .map_err(|_| SnapError::Corrupt("array length".into()))
    }
}

/// Streaming 64-bit FNV-1a hash, used as the bit-exactness fingerprint
/// for run results and cached artifacts.
///
/// # Example
///
/// ```
/// use ringmesh_snap::Fingerprint;
///
/// let mut a = Fingerprint::new();
/// a.update(b"hello");
/// assert_eq!(a.finish(), Fingerprint::of(b"hello"));
/// assert_ne!(Fingerprint::of(b"hello"), Fingerprint::of(b"hellp"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fingerprint {
    /// Creates a fresh accumulator.
    pub fn new() -> Self {
        Fingerprint { state: FNV_OFFSET }
    }

    /// Hashes `bytes` in one call.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut f = Fingerprint::new();
        f.update(bytes);
        f.finish()
    }

    /// Absorbs a byte slice.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// Absorbs an `f64` by its raw bits, so fingerprint equality means
    /// bit-exact equality (including the sign of zero).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Absorbs a string (length-prefixed, so concatenation cannot
    /// collide across field boundaries).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.update(s.as_bytes());
    }

    /// The accumulated 64-bit digest.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint::new()
    }
}

/// Formats a fingerprint the way every surface of the suite prints it.
pub fn hex64(v: u64) -> String {
    format!("{v:016x}")
}

/// Parses a [`hex64`]-formatted digest back into its value. Strict
/// inverse: exactly 16 lowercase hex digits, nothing else — the cache
/// integrity footer and the batch journal reject anything looser as
/// corruption rather than guessing.
pub fn parse_hex64(s: &str) -> Option<u64> {
    if s.len() != 16 || !s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        w.u8(7);
        w.u16(300);
        w.u32(70_000);
        w.u64(u64::MAX - 3);
        w.i64(-42);
        w.f64(-0.0);
        w.usize(99);
        w.bool(true);
        w.str("hé");
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.usize().unwrap(), 99);
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "hé");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let mut w = SnapWriter::new();
        w.u64(1);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..5]);
        assert_eq!(r.u64(), Err(SnapError::Eof));
    }

    #[test]
    fn containers_round_trip() {
        let v: Vec<u64> = vec![1, 2, 3];
        let d: VecDeque<(u64, bool)> = VecDeque::from(vec![(9, true), (0, false)]);
        let o: Option<String> = Some("x".into());
        let arr: [i64; 3] = [-1, 0, 1];
        let mut w = SnapWriter::new();
        v.save(&mut w);
        d.save(&mut w);
        o.save(&mut w);
        None::<u32>.save(&mut w);
        arr.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(Vec::<u64>::load(&mut r).unwrap(), v);
        assert_eq!(VecDeque::<(u64, bool)>::load(&mut r).unwrap(), d);
        assert_eq!(Option::<String>::load(&mut r).unwrap(), o);
        assert_eq!(Option::<u32>::load(&mut r).unwrap(), None);
        assert_eq!(<[i64; 3]>::load(&mut r).unwrap(), arr);
    }

    #[test]
    fn exact_length_reads_refuse_any_other_length() {
        let mut w = SnapWriter::new();
        vec![7i64, 8, 9].save(&mut w);
        let bytes = w.into_bytes();
        let read = |want| SnapReader::new(&bytes).vec_exact::<i64>(want, "credit table");
        assert_eq!(read(3).unwrap(), vec![7, 8, 9]);
        for want in [2, 4] {
            match read(want) {
                Err(SnapError::Mismatch(msg)) => {
                    assert!(msg.contains("credit table: snapshot has 3"), "{msg}");
                }
                other => panic!("{want}: {other:?}"),
            }
        }
        // The right length over too few bytes is still a short read.
        let mut r = SnapReader::new(&bytes[..bytes.len() - 1]);
        assert_eq!(r.vec_exact::<i64>(3, "credit table"), Err(SnapError::Eof));
    }

    #[test]
    fn header_checks_magic_version_kind() {
        let mut w = SnapWriter::new();
        write_header(&mut w, "checkpoint");
        w.u64(5);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        read_header(&mut r, "checkpoint").unwrap();
        assert_eq!(r.u64().unwrap(), 5);

        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            read_header(&mut r, "result"),
            Err(SnapError::Mismatch(_))
        ));

        let mut garbage = bytes.clone();
        garbage[8] ^= 0xff; // flip a magic byte (after the length prefix)
        let mut r = SnapReader::new(&garbage);
        assert!(matches!(
            read_header(&mut r, "checkpoint"),
            Err(SnapError::Corrupt(_))
        ));
    }

    #[test]
    fn corrupt_bool_rejected() {
        let bytes = [2u8];
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(r.bool(), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn fingerprint_is_order_sensitive_and_stable() {
        let mut a = Fingerprint::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Fingerprint::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
        // Known FNV-1a vector: empty input hashes to the offset basis.
        assert_eq!(Fingerprint::of(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hex64(0xab), "00000000000000ab");
        assert_eq!(parse_hex64("00000000000000ab"), Some(0xab));
        assert_eq!(parse_hex64(&hex64(u64::MAX)), Some(u64::MAX));
        for bad in [
            "",
            "ab",
            "00000000000000AB",
            "00000000000000zz",
            "00000000000000ab0",
        ] {
            assert_eq!(parse_hex64(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn str_fingerprint_is_prefix_safe() {
        let mut a = Fingerprint::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fingerprint::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }
}
