//! `ringmesh-snap` — a minimal, dependency-free binary snapshot codec.
//!
//! Deterministic checkpoint/resume needs every piece of mutable
//! simulation state to round-trip through bytes *exactly*: a resumed
//! run must be bit-identical to one that never stopped. This crate
//! provides the codec the rest of the workspace builds on:
//!
//! * [`Snap`] — the one trait: a type describes its state once, in one
//!   `snap` function, and that function both writes and reads it;
//! * [`Codec`] — the two ends that drive a `snap`: [`SnapWriter`]
//!   encodes, [`SnapReader`] decodes in place with checked reads (no
//!   panics on truncated input). Networks and workloads restore into a
//!   freshly rebuilt instance: their immutable topology comes from
//!   configuration and only their mutable state travels;
//! * [`Census`] — what a walk passed: the packets, flits, queues,
//!   drains and assemblers the shared types' `Snap`s report, for the
//!   one checker (in `ringmesh-net`) that proves every packet sits in
//!   exactly one place;
//! * [`Fingerprint`] — a 64-bit FNV-1a accumulator used to compare
//!   run outputs bit-for-bit (cache verification, resume validation).
//!
//! The container format is versioned with a magic [`header`], so stale
//! checkpoint files are rejected instead of misinterpreted.
//!
//! As the workspace's dependency-free leaf it also holds [`json`], the
//! one JSON value, parser and deterministic writer the serve protocol
//! and the Chrome-trace exporter share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::ops::Range;

pub mod json;

/// Magic bytes opening every snapshot container.
pub const MAGIC: &[u8; 6] = b"RMSNAP";

/// Current container format version.
pub const VERSION: u16 = 4;

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

/// State that snapshots through one function, driven by either end of
/// the [`Codec`]: under a [`SnapWriter`] `snap` appends `self`, under
/// a [`SnapReader`] it overwrites `self` with what it decodes. So the
/// fields are named once, in one order, and the two directions cannot
/// drift apart.
///
/// A `snap` decodes first, then validates what it decoded (returning
/// [`SnapError`], never panicking, on anything the rest of the program
/// would trip over), then installs whatever the bytes do not carry —
/// the few steps that only a restore needs sit behind
/// [`Codec::reading`].
///
/// # Example
///
/// ```
/// use ringmesh_snap::{Codec, Snap, SnapError, SnapReader, SnapWriter};
///
/// #[derive(Debug, Default, PartialEq)]
/// struct Counter {
///     hits: u64,
///     log: Vec<u32>,
/// }
///
/// impl Snap for Counter {
///     fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
///         self.hits.snap(c)?;
///         self.log.snap(c)
///     }
/// }
///
/// let mut a = Counter { hits: 3, log: vec![1, 2] };
/// let mut w = SnapWriter::new();
/// a.snap(&mut w).unwrap();
/// let bytes = w.into_bytes();
/// let mut b = Counter::default();
/// b.snap(&mut SnapReader::new(&bytes)).unwrap();
/// assert_eq!(a, b);
/// ```
pub trait Snap {
    /// Writes `self` to, or reads it back from, `c`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on truncated or invalid input, or when the
    /// snapshot does not fit this instance's shape (e.g. a different
    /// topology size). Writing never fails on a consistent value.
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError>;
}

/// One end of the snapshot codec: [`SnapWriter`] or [`SnapReader`].
///
/// A [`Snap`] is generic over it, so the write path is compiled
/// without the read path's branches ([`READING`](Self::READING) is a
/// constant). Beside the raw bytes it carries four helpers:
/// [`exact`](Self::exact) for values the configuration fixes,
/// [`fixed`](Self::fixed) for tables of a fixed length,
/// [`variant`](Self::variant) for field-less enums and
/// [`reading`](Self::reading) for install steps. What a reader can
/// recompute, or what nothing reads after a restore, is not written:
/// the reader rebuilds it behind `reading`.
pub trait Codec: Sized {
    /// Whether this end decodes.
    const READING: bool;

    /// Appends `bytes`, or overwrites them with the next `N` bytes.
    ///
    /// # Errors
    ///
    /// [`SnapError::Eof`] when fewer than `N` bytes remain.
    fn raw<const N: usize>(&mut self, bytes: &mut [u8; N]) -> Result<(), SnapError>;

    /// Runs `value`'s [`Snap`] from behind a trait object.
    ///
    /// # Errors
    ///
    /// As `value`'s [`Snap::snap`].
    fn object<T: DynSnap + ?Sized>(&mut self, value: &mut T) -> Result<(), SnapError>;

    /// The [`Census`] this end carries: always a reader's, a writer's
    /// only when asked for (and in debug builds).
    fn census(&mut self) -> Option<&mut Census>;

    /// Whether this end decodes: guards the install steps a restore
    /// needs and a checkpoint must not run.
    fn reading(&self) -> bool {
        Self::READING
    }

    /// Reports to the [`Census`], if this end carries one.
    fn report(&mut self, what: impl FnOnce(&mut Census)) {
        if let Some(census) = self.census() {
            what(census);
        }
    }

    /// Walks one FIFO's flits, front first: the flits `walk` reports
    /// are one [`Census::runs`] entry.
    ///
    /// # Errors
    ///
    /// As `walk`.
    fn run(
        &mut self,
        walk: impl FnOnce(&mut Self) -> Result<(), SnapError>,
    ) -> Result<(), SnapError> {
        let from = self.census().map(|census| census.flits.len());
        walk(self)?;
        if let Some(from) = from {
            self.report(|census| census.runs.push(from..census.flits.len()));
        }
        Ok(())
    }

    /// A value fixed by this instance's configuration — a table size,
    /// a PM number, a capacity. The writer writes `want`; the reader
    /// refuses any other value.
    ///
    /// # Errors
    ///
    /// [`SnapError::Mismatch`] naming `what` when the snapshot holds a
    /// different value.
    fn exact<T: Snap + PartialEq + Copy + fmt::Debug>(
        &mut self,
        want: T,
        what: &str,
    ) -> Result<(), SnapError> {
        let mut got = want;
        got.snap(self)?;
        if got == want {
            Ok(())
        } else {
            Err(SnapError::Mismatch(format!(
                "{what}: snapshot has {got:?}, this instance has {want:?}"
            )))
        }
    }

    /// A table this instance rebuilt from its configuration, which a
    /// snapshot may fill but never resize: its length as
    /// [`exact`](Self::exact), then each entry.
    ///
    /// # Errors
    ///
    /// As [`exact`](Self::exact), and any entry's error.
    fn fixed<T: Snap>(&mut self, table: &mut [T], what: &str) -> Result<(), SnapError> {
        self.exact(table.len(), what)?;
        table.iter_mut().try_for_each(|v| v.snap(self))
    }

    /// A field-less enum as one byte: its index in `all`, which lists
    /// every variant.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] naming `what` on a byte past the list.
    fn variant<T: Copy + PartialEq>(
        &mut self,
        value: &mut T,
        all: &[T],
        what: &str,
    ) -> Result<(), SnapError> {
        let at = all.iter().position(|v| v == value);
        let mut tag = at.expect("`all` lists every variant") as u8;
        tag.snap(self)?;
        *value = *all
            .get(usize::from(tag))
            .ok_or_else(|| SnapError::Corrupt(format!("{what} tag {tag}")))?;
        Ok(())
    }
}

/// [`Snap`] through a trait object (`Snap::snap` is generic, so a
/// `dyn` trait cannot carry it). Implemented for every sized `Snap`;
/// a trait that names it as a supertrait hands its objects to
/// [`Codec::object`].
pub trait DynSnap {
    /// [`Snap::snap`] under a [`SnapWriter`].
    ///
    /// # Errors
    ///
    /// As [`Snap::snap`].
    fn snap_write(&mut self, w: &mut SnapWriter) -> Result<(), SnapError>;

    /// [`Snap::snap`] under a [`SnapReader`].
    ///
    /// # Errors
    ///
    /// As [`Snap::snap`].
    fn snap_read(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

impl<T: Snap> DynSnap for T {
    fn snap_write(&mut self, w: &mut SnapWriter) -> Result<(), SnapError> {
        self.snap(w)
    }

    fn snap_read(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.snap(r)
    }
}

/// Append-only byte sink for snapshot encoding.
#[derive(Debug)]
pub struct SnapWriter {
    buf: Vec<u8>,
    census: Option<Census>,
}

impl SnapWriter {
    /// Creates an empty writer; in debug builds it takes a [`Census`]
    /// of what it writes.
    pub fn new() -> Self {
        SnapWriter {
            buf: Vec::new(),
            census: cfg!(debug_assertions).then(Census::default),
        }
    }

    /// Creates an empty writer that takes a [`Census`] in every build.
    pub fn with_census() -> Self {
        SnapWriter {
            buf: Vec::new(),
            census: Some(Census::default()),
        }
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

impl Codec for SnapWriter {
    const READING: bool = false;

    fn raw<const N: usize>(&mut self, bytes: &mut [u8; N]) -> Result<(), SnapError> {
        self.buf.extend_from_slice(bytes);
        Ok(())
    }

    fn object<T: DynSnap + ?Sized>(&mut self, value: &mut T) -> Result<(), SnapError> {
        value.snap_write(self)
    }

    fn census(&mut self) -> Option<&mut Census> {
        self.census.as_mut()
    }
}

impl Default for SnapWriter {
    fn default() -> Self {
        SnapWriter::new()
    }
}

/// Checked cursor over snapshot bytes, with the [`Census`] of what it
/// decoded.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
    census: Census,
}

impl<'a> SnapReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader {
            buf,
            pos: 0,
            census: Census::default(),
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

impl Codec for SnapReader<'_> {
    const READING: bool = true;

    fn raw<const N: usize>(&mut self, bytes: &mut [u8; N]) -> Result<(), SnapError> {
        if self.remaining() < N {
            return Err(SnapError::Eof);
        }
        bytes.copy_from_slice(&self.buf[self.pos..self.pos + N]);
        self.pos += N;
        Ok(())
    }

    fn object<T: DynSnap + ?Sized>(&mut self, value: &mut T) -> Result<(), SnapError> {
        value.snap_read(self)
    }

    fn census(&mut self) -> Option<&mut Census> {
        Some(&mut self.census)
    }
}

/// What a [`Snap`] walk passed: every packet it named and every place
/// a packet or one of its flits sat, in raw packet-store slots. The
/// shared buffer types' `Snap`s report here as they pass, so the walk
/// that writes and reads a checkpoint is also its census; the checker
/// in `ringmesh-net` then proves that each live packet is in exactly
/// one place, queued whole or split into in-order worm pieces.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Census {
    /// Slots named by a packet reference: each must be live.
    pub names: Vec<u32>,
    /// Buffered flits: packet slot, sequence number, tail bit.
    pub flits: Vec<(u32, u32, bool)>,
    /// Ranges of [`flits`](Self::flits) that are one FIFO each, front
    /// first: each must be made of worm pieces.
    pub runs: Vec<Range<usize>>,
    /// Slots of packets queued whole.
    pub queued: Vec<u32>,
    /// Drains: packet slot, next flit, the packet's length in flits.
    /// Flits `next..length` are still in the drain.
    pub drains: Vec<(u32, u32, u32)>,
    /// Assemblers: packet slot and the flits received, `0..received`.
    pub prefixes: Vec<(u32, u32)>,
    /// Slots of packets whose flits ahead of the first one placed were
    /// consumed where they stand: by a sink at a dead interface, or by
    /// a store-and-forward pump that queues the packet at its tail.
    pub consumed: Vec<u32>,
    /// FIFOs whose front worm a held route steers: an index into
    /// [`runs`](Self::runs) and the packet the route holds, if any. The
    /// front flit must be that packet's, or a head where no route is
    /// held.
    pub routed: Vec<(usize, Option<u32>)>,
    /// What the holders of packets say of their destinations: packet
    /// slot, a range of PMs, and whether the destination is inside it.
    /// A route claims what its decision says of the destination (a
    /// worm leaves its ring, or ejects, here exactly when...), an
    /// assembler that its packet is for the PMs it delivers to.
    pub claims: Vec<(u32, Range<u32>, bool)>,
    /// Each processor's outstanding transactions, in PM order; empty
    /// when the workload does not claim them (a retry layer keeps
    /// timed-out and duplicate transactions of its own).
    pub outstanding: Vec<u32>,
    /// The PM of each transaction held outside the network: the
    /// requester of a response queued at a memory, the PM of a local
    /// access.
    pub held: Vec<u32>,
    /// The cycles transactions were issued at, as their packets and
    /// records carry them: none may be later than the checkpoint's.
    pub stamps: Vec<u64>,
}

/// The versioned container header with a free-form `kind` label (e.g.
/// `"checkpoint"`), so different snapshot species cannot be confused
/// for one another.
///
/// # Errors
///
/// Returns [`SnapError`] on bad magic, version or kind.
pub fn header<C: Codec>(c: &mut C, kind: &str) -> Result<(), SnapError> {
    let mut magic = MAGIC.to_vec();
    magic.snap(c)?;
    if magic != MAGIC {
        return Err(SnapError::Corrupt("bad magic".into()));
    }
    c.exact(VERSION, "container version")?;
    let mut found = kind.to_owned();
    found.snap(c)?;
    if found != kind {
        return Err(SnapError::Mismatch(format!(
            "snapshot kind {found:?}, expected {kind:?}"
        )));
    }
    Ok(())
}

macro_rules! snap_le {
    ($($ty:ty),*) => {$(
        impl Snap for $ty {
            fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
                let mut bytes = self.to_le_bytes();
                c.raw(&mut bytes)?;
                *self = <$ty>::from_le_bytes(bytes);
                Ok(())
            }
        }
    )*};
}

snap_le!(u8, u16, u32, u64, i64);

/// Raw IEEE-754 bits, so the round trip is bit-exact.
impl Snap for f64 {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        let mut bits = self.to_bits();
        bits.snap(c)?;
        *self = f64::from_bits(bits);
        Ok(())
    }
}

/// A `u64`, refused when it does not fit the platform.
impl Snap for usize {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        let mut v = *self as u64;
        v.snap(c)?;
        *self = usize::try_from(v)
            .map_err(|_| SnapError::Corrupt(format!("length {v} overflows usize")))?;
        Ok(())
    }
}

/// One byte, 0 or 1.
impl Snap for bool {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        let mut b = u8::from(*self);
        b.snap(c)?;
        *self = match b {
            0 => false,
            1 => true,
            b => return Err(SnapError::Corrupt(format!("bool byte {b}"))),
        };
        Ok(())
    }
}

/// Length-prefixed UTF-8.
impl Snap for String {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        let mut bytes = std::mem::take(self).into_bytes();
        bytes.snap(c)?;
        *self =
            String::from_utf8(bytes).map_err(|_| SnapError::Corrupt("non-UTF-8 string".into()))?;
        Ok(())
    }
}

/// A tag byte (0 or 1), then the value.
impl<T: Snap + Default> Snap for Option<T> {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        let mut tag = u8::from(self.is_some());
        tag.snap(c)?;
        match tag {
            0 => *self = None,
            1 => self.get_or_insert_with(T::default).snap(c)?,
            t => return Err(SnapError::Corrupt(format!("Option tag {t}"))),
        }
        Ok(())
    }
}

/// Entries a corrupt length prefix may make a reader reserve up front;
/// past it the vector grows as entries actually decode.
const PREALLOC: usize = 1 << 16;

/// The length, then each entry.
impl<T: Snap + Default> Snap for Vec<T> {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        let mut n = self.len();
        n.snap(c)?;
        if c.reading() {
            self.clear();
            self.reserve(n.min(PREALLOC));
            for _ in 0..n {
                let mut v = T::default();
                v.snap(c)?;
                self.push(v);
            }
            return Ok(());
        }
        self.iter_mut().try_for_each(|v| v.snap(c))
    }
}

/// As `Vec`, front first.
impl<T: Snap + Default> Snap for VecDeque<T> {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        let mut n = self.len();
        n.snap(c)?;
        if c.reading() {
            self.clear();
            self.reserve(n.min(PREALLOC));
            for _ in 0..n {
                let mut v = T::default();
                v.snap(c)?;
                self.push_back(v);
            }
            return Ok(());
        }
        self.iter_mut().try_for_each(|v| v.snap(c))
    }
}

/// Each entry; the length is the type's.
impl<T: Snap, const N: usize> Snap for [T; N] {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        self.iter_mut().try_for_each(|v| v.snap(c))
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        self.0.snap(c)?;
        self.1.snap(c)
    }
}

impl<A: Snap, B: Snap, D: Snap> Snap for (A, B, D) {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        self.0.snap(c)?;
        self.1.snap(c)?;
        self.2.snap(c)
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

    fn encode<T: Snap>(mut v: T) -> Vec<u8> {
        let mut w = SnapWriter::new();
        v.snap(&mut w).unwrap();
        w.into_bytes()
    }

    #[test]
    fn primitives_round_trip() {
        type All = (
            u8,
            (u16, (u32, (u64, (i64, (f64, (usize, (bool, String))))))),
        );
        let v: All = (
            7,
            (
                300,
                (
                    70_000,
                    (u64::MAX - 3, (-42, (-0.0, (99, (true, "hé".into()))))),
                ),
            ),
        );
        let bytes = encode(v.clone());
        assert_eq!(bytes.len(), 1 + 2 + 4 + 8 + 8 + 8 + 8 + 1 + 8 + 3);
        assert_eq!(&bytes[..3], &[7, 44, 1], "little-endian");
        let mut r = SnapReader::new(&bytes);
        let mut back: All = Default::default();
        back.snap(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        let bits = |v: &All| (v.1 .1 .1 .1 .1 .0).to_bits();
        assert_eq!(bits(&back), (-0.0f64).to_bits());
        assert_eq!(format!("{back:?}"), format!("{v:?}"));
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let bytes = encode(1u64);
        let mut v = 0u64;
        assert_eq!(
            v.snap(&mut SnapReader::new(&bytes[..5])),
            Err(SnapError::Eof)
        );
    }

    #[test]
    fn containers_round_trip() {
        type All = (
            Vec<u64>,
            (
                VecDeque<(u64, bool)>,
                (Option<String>, (Option<u32>, [i64; 3])),
            ),
        );
        let v: All = (
            vec![1, 2, 3],
            (
                VecDeque::from(vec![(9, true), (0, false)]),
                (Some("x".into()), (None, [-1, 0, 1])),
            ),
        );
        let bytes = encode(v.clone());
        let mut back: All = Default::default();
        back.snap(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(back, v);
        // Decoding replaces what a container held.
        back.snap(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn exact_length_reads_refuse_any_other_length() {
        let bytes = encode(vec![7i64, 8, 9]);
        let read = |len| {
            let mut table = vec![0i64; len];
            SnapReader::new(&bytes)
                .fixed(&mut table, "credit table")
                .map(|()| table)
        };
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
        let mut table = [0i64; 3];
        let mut r = SnapReader::new(&bytes[..bytes.len() - 1]);
        assert_eq!(r.fixed(&mut table, "credit table"), Err(SnapError::Eof));
    }

    #[test]
    fn variants_round_trip_and_refuse_unknown_tags() {
        let all = ['a', 'b', 'c'];
        let mut w = SnapWriter::new();
        w.variant(&mut 'c', &all, "letter").unwrap();
        assert_eq!(w.into_bytes(), [2]);
        let mut v = 'a';
        SnapReader::new(&[1])
            .variant(&mut v, &all, "letter")
            .unwrap();
        assert_eq!(v, 'b');
        assert_eq!(
            SnapReader::new(&[3]).variant(&mut v, &all, "letter"),
            Err(SnapError::Corrupt("letter tag 3".into()))
        );
    }

    #[test]
    fn header_checks_magic_version_kind() {
        let mut w = SnapWriter::new();
        header(&mut w, "checkpoint").unwrap();
        5u64.snap(&mut w).unwrap();
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        header(&mut r, "checkpoint").unwrap();
        let mut v = 0u64;
        v.snap(&mut r).unwrap();
        assert_eq!(v, 5);

        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            header(&mut r, "result"),
            Err(SnapError::Mismatch(_))
        ));

        let mut garbage = bytes.clone();
        garbage[8] ^= 0xff; // flip a magic byte (after the length prefix)
        let mut r = SnapReader::new(&garbage);
        assert!(matches!(
            header(&mut r, "checkpoint"),
            Err(SnapError::Corrupt(_))
        ));
    }

    /// A reader always takes a census, a writer when asked or in debug
    /// builds; a run spans the flits its walk reported.
    #[test]
    fn a_run_spans_the_flits_its_walk_reports() {
        assert!(SnapReader::new(&[]).census().is_some());
        assert_eq!(SnapWriter::new().census().is_some(), cfg!(debug_assertions));
        let mut w = SnapWriter::with_census();
        w.report(|census| census.flits.push((0, 0, true)));
        w.run(|c| {
            c.report(|census| census.flits.extend([(1, 0, false), (1, 1, true)]));
            Ok(())
        })
        .unwrap();
        w.run(|_| Ok(())).unwrap();
        assert_eq!(w.census().unwrap().runs, [1..3, 3..3]);
    }

    #[test]
    fn corrupt_bool_rejected() {
        let mut b = false;
        assert!(matches!(
            b.snap(&mut SnapReader::new(&[2])),
            Err(SnapError::Corrupt(_))
        ));
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
