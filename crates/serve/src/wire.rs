//! Line framing for every socket and pipe in the tree: serve sessions,
//! the fleet coordinator and the remote worker all read and write
//! newline-terminated JSON through this module and nothing else.
//!
//! The source paper's point about small messages applies to the
//! service's own transport: what a ~90-byte event costs is set by how
//! many units it is cut into. An event handed to a `TcpStream` as a
//! payload `write` and a separate `"\n"` `write` is two segments, and
//! the second waits for the peer's delayed ACK (~40 ms). So:
//!
//! - **An event is never cut.** [`LineWriter`] formats the whole line,
//!   newline included, into a reused buffer and hands it over in one
//!   `write_all` followed by one `flush`: [`LineWriter::line`] at once
//!   (one event = one write; a `window` reaches the client while its
//!   job is still simulating), [`LineWriter::hold`] together with the
//!   events that follow it, for replies a serve session produces
//!   without waiting for anything in between. Such a session calls
//!   [`LineWriter::flush`] before it blocks on input
//!   ([`LineReader::has_line`] says whether it would) or on a
//!   simulation, so nothing held ever waits for the peer.
//! - **`TCP_NODELAY` on every stream**, set by [`prepare`] and nowhere
//!   else.
//! - **Capped, timeout-transparent reads.** [`LineReader`] never
//!   buffers more than its cap whatever the peer sends, and a socket
//!   read timeout (the poll tick) surfaces as [`LineRead::TimedOut`]
//!   with the partial line still buffered, so a message that straddles
//!   a tick arrives whole.

use std::fmt::Display;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Longest accepted line, in bytes (1 MiB). Anything longer is
/// discarded up to its newline; a serve session answers it with a typed
/// `error` event and carries on, the fleet drops the connection. Part
/// of the documented protocol.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Prepares an accepted or connected stream for line traffic:
/// `TCP_NODELAY`, a read timeout of `read_tick` (how often a blocked
/// read wakes so its owner can poll a stop flag or an idle deadline)
/// and a write deadline after which a peer that stopped draining
/// errors the writer instead of wedging its thread.
///
/// # Errors
///
/// Propagates the socket-option failures.
pub fn prepare(
    stream: &TcpStream,
    read_tick: Duration,
    write_deadline: Option<Duration>,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(read_tick))?;
    stream.set_write_timeout(write_deadline)
}

/// Most bytes [`LineWriter::hold`] keeps before it writes them out by
/// itself: a burst of cached results leaves in segments of this size
/// instead of growing the buffer with the batch.
const HELD_MAX: usize = 32 << 10;

/// Writes newline-terminated lines, whole, in one `write_all` and one
/// `flush` — each by itself ([`line`](Self::line)) or several held
/// lines together ([`hold`](Self::hold), [`flush`](Self::flush)).
#[derive(Debug)]
pub struct LineWriter<W> {
    out: W,
    /// Lines formatted and not yet written, in order.
    buf: Vec<u8>,
}

impl<W: Write> LineWriter<W> {
    /// Wraps `out`; the line buffer is allocated on first use and
    /// reused from then on.
    pub fn new(out: W) -> Self {
        LineWriter {
            out,
            buf: Vec::new(),
        }
    }

    /// Writes `line` and its newline as one unit, now — behind any held
    /// lines, in the same write.
    ///
    /// # Errors
    ///
    /// Propagates the transport's write and flush errors.
    pub fn line(&mut self, line: impl Display) -> io::Result<()> {
        writeln!(self.buf, "{line}")?;
        self.flush()
    }

    /// Formats `line` and its newline behind the lines already held; the
    /// next [`flush`](Self::flush) or [`line`](Self::line) writes them
    /// all at once. For replies produced back to back: the caller must
    /// flush before it waits for anything.
    ///
    /// # Errors
    ///
    /// As [`line`](Self::line), once `HELD_MAX` (32 KiB) is held.
    pub fn hold(&mut self, line: impl Display) -> io::Result<()> {
        writeln!(self.buf, "{line}")?;
        if self.buf.len() >= HELD_MAX {
            self.flush()?;
        }
        Ok(())
    }

    /// Whether [`flush`](Self::flush) has anything to write.
    pub fn holds_lines(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Writes out the held lines, if any, as one unit.
    ///
    /// # Errors
    ///
    /// Propagates the transport's write and flush errors; the lines are
    /// dropped either way, as a failed `line` drops its event.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let written = self.out.write_all(&self.buf);
        self.buf.clear();
        written?;
        self.out.flush()
    }

    /// The transport underneath (to shut a socket down, say).
    pub fn get_ref(&self) -> &W {
        &self.out
    }
}

/// What one bounded line read produced.
#[derive(Debug, PartialEq, Eq)]
pub enum LineRead {
    /// A complete line (newline stripped), at most the cap in bytes.
    Line(Vec<u8>),
    /// A line longer than the cap; the excess was discarded through its
    /// newline.
    Oversized,
    /// The transport reported a read timeout (poll tick); the partial
    /// line, if any, stays buffered.
    TimedOut,
    /// End of input (a final unterminated line is returned first).
    Eof,
}

/// A line reader with a hard byte cap and timeout transparency: reads
/// never allocate beyond the cap no matter what the peer sends, and a
/// socket read timeout surfaces as [`LineRead::TimedOut`] without
/// losing buffered partial input.
#[derive(Debug)]
pub struct LineReader<R> {
    inner: R,
    scratch: Vec<u8>,
    /// Inside an oversized line, discarding until its newline.
    discarding: bool,
    max: usize,
}

impl<R: BufRead> LineReader<R> {
    /// Reads lines of at most `max` bytes from `inner`.
    pub fn new(inner: R, max: usize) -> Self {
        LineReader {
            inner,
            scratch: Vec::new(),
            discarding: false,
            max,
        }
    }

    /// The next line, or why there is none yet.
    ///
    /// # Errors
    ///
    /// Propagates transport errors other than a timeout.
    pub fn next_line(&mut self) -> io::Result<LineRead> {
        loop {
            let buf = match self.inner.fill_buf() {
                Ok(buf) => buf,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) =>
                {
                    return Ok(LineRead::TimedOut);
                }
                Err(e) => return Err(e),
            };
            if buf.is_empty() {
                // EOF: flush any final unterminated line first.
                if self.discarding {
                    self.discarding = false;
                    return Ok(LineRead::Oversized);
                }
                if self.scratch.is_empty() {
                    return Ok(LineRead::Eof);
                }
                return Ok(LineRead::Line(std::mem::take(&mut self.scratch)));
            }
            let newline = buf.iter().position(|&b| b == b'\n');
            if self.discarding {
                let n = newline.map_or(buf.len(), |p| p + 1);
                self.inner.consume(n);
                if newline.is_some() {
                    self.discarding = false;
                    return Ok(LineRead::Oversized);
                }
                continue;
            }
            match newline {
                Some(p) => {
                    self.scratch.extend_from_slice(&buf[..p]);
                    self.inner.consume(p + 1);
                    if self.scratch.len() > self.max {
                        self.scratch.clear();
                        return Ok(LineRead::Oversized);
                    }
                    return Ok(LineRead::Line(std::mem::take(&mut self.scratch)));
                }
                None => {
                    let n = buf.len();
                    self.scratch.extend_from_slice(buf);
                    self.inner.consume(n);
                    if self.scratch.len() > self.max {
                        // Too long already; drop it and skip to newline.
                        self.scratch.clear();
                        self.discarding = true;
                    }
                }
            }
        }
    }

    /// The next line as text from a peer that must speak the protocol
    /// (the fleet): blocks across read ticks for as long as
    /// `keep_waiting` says so. `None` is end of input, or
    /// `keep_waiting` answering no.
    ///
    /// # Errors
    ///
    /// Transport errors, and `InvalidData` for a non-UTF-8 line or one
    /// past the cap (reported at its newline or at the first tick past
    /// the cap, whichever comes first) — such a peer is broken and its
    /// connection is to be dropped, not answered.
    pub fn next_message(
        &mut self,
        mut keep_waiting: impl FnMut() -> bool,
    ) -> io::Result<Option<String>> {
        loop {
            match self.next_line()? {
                LineRead::Line(bytes) => {
                    return String::from_utf8(bytes)
                        .map(Some)
                        .map_err(|_| invalid("line is not valid UTF-8"));
                }
                LineRead::Eof => return Ok(None),
                // A tick inside a line already past the cap: no need to
                // wait for its newline.
                LineRead::TimedOut if !self.discarding => {
                    if !keep_waiting() {
                        return Ok(None);
                    }
                }
                LineRead::Oversized | LineRead::TimedOut => {
                    return Err(invalid("line exceeds the byte limit"));
                }
            }
        }
    }
}

impl<T: Read> LineReader<BufReader<T>> {
    /// Whether [`next_line`](Self::next_line) would answer from what is
    /// already buffered, without reading from (and so possibly blocking
    /// on) the transport. A writer that holds replies flushes them when
    /// this says no.
    pub fn has_line(&self) -> bool {
        self.inner.buffer().contains(&b'\n')
    }
}

fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

#[cfg(test)]
mod tests {
    use std::io::{BufReader, Read};

    use super::*;

    /// A transport that serves scripted chunks; `None` is a read
    /// timeout, as a socket past its poll tick reports it.
    struct Script(Vec<Option<&'static [u8]>>);

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.0.is_empty() {
                return Ok(0);
            }
            match self.0.remove(0) {
                None => Err(io::ErrorKind::WouldBlock.into()),
                Some(chunk) => {
                    let n = chunk.len().min(buf.len());
                    buf[..n].copy_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        self.0.insert(0, Some(&chunk[n..]));
                    }
                    Ok(n)
                }
            }
        }
    }

    fn reader(script: Vec<Option<&'static [u8]>>, max: usize) -> LineReader<BufReader<Script>> {
        LineReader::new(BufReader::with_capacity(8, Script(script)), max)
    }

    fn line(text: &str) -> LineRead {
        LineRead::Line(text.as_bytes().to_vec())
    }

    #[test]
    fn lines_split_on_newlines_and_a_final_unterminated_line_is_returned() {
        let mut r = reader(vec![Some(&b"one\ntwo\n\nlast"[..])], 64);
        assert_eq!(r.next_line().unwrap(), line("one"));
        assert_eq!(r.next_line().unwrap(), line("two"));
        assert_eq!(r.next_line().unwrap(), line(""));
        assert_eq!(r.next_line().unwrap(), line("last"));
        assert_eq!(r.next_line().unwrap(), LineRead::Eof);
    }

    #[test]
    fn a_timeout_keeps_the_partial_line_buffered() {
        let mut r = reader(
            vec![
                Some(&b"{\"op\":\"do"[..]),
                None,
                None,
                Some(&b"ne\"}\nx\n"[..]),
            ],
            64,
        );
        assert_eq!(r.next_line().unwrap(), LineRead::TimedOut);
        assert_eq!(r.next_line().unwrap(), LineRead::TimedOut);
        assert_eq!(r.next_line().unwrap(), line("{\"op\":\"done\"}"));
        assert_eq!(r.next_line().unwrap(), line("x"));
    }

    #[test]
    fn an_oversized_line_is_discarded_through_its_newline_and_never_buffered() {
        let mut r = reader(
            vec![
                Some(&b"0123456789abcdefghij"[..]),
                None,
                Some(&b"klm\nok\n"[..]),
            ],
            10,
        );
        assert_eq!(r.next_line().unwrap(), LineRead::TimedOut);
        assert!(r.scratch.capacity() <= 32, "the cap bounds the buffer");
        assert_eq!(r.next_line().unwrap(), LineRead::Oversized);
        assert_eq!(r.next_line().unwrap(), line("ok"));
        // Exactly at the cap is fine; one over is not; an oversized
        // tail without a newline is still reported.
        let mut r = reader(
            vec![Some(&b"0123456789\n0123456789a\n0123456789abc"[..])],
            10,
        );
        assert_eq!(r.next_line().unwrap(), line("0123456789"));
        assert_eq!(r.next_line().unwrap(), LineRead::Oversized);
        assert_eq!(r.next_line().unwrap(), LineRead::Oversized);
        assert_eq!(r.next_line().unwrap(), LineRead::Eof);
    }

    #[test]
    fn next_message_waits_across_ticks_and_refuses_broken_peers() {
        let mut ticks = 0;
        let mut r = reader(
            vec![Some(&b"he"[..]), None, None, Some(&b"llo\n"[..]), None],
            64,
        );
        let got = r.next_message(|| {
            ticks += 1;
            true
        });
        assert_eq!(got.unwrap().as_deref(), Some("hello"));
        assert_eq!(ticks, 2);
        assert_eq!(r.next_message(|| false).unwrap(), None, "told to stop");
        assert_eq!(r.next_message(|| true).unwrap(), None, "end of input");

        let mut r = reader(vec![Some(&b"0123456789abc\n"[..])], 10);
        let e = r.next_message(|| true).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        // A peer that never sends the newline is refused at the next tick.
        let mut r = reader(vec![Some(&b"0123456789abc"[..]), None, None], 10);
        let e = r.next_message(|| true).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        let mut r = reader(vec![Some(&b"\xff\xfe\n"[..])], 10);
        let e = r.next_message(|| true).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
    }

    /// Records what reached the transport, call by call.
    #[derive(Default)]
    struct Recording {
        writes: Vec<Vec<u8>>,
        flushes: usize,
    }

    impl Write for Recording {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    #[test]
    fn one_event_is_one_write_newline_included() {
        let mut out = LineWriter::new(Recording::default());
        out.line("{\"event\":\"bye\"}").unwrap();
        out.line(format_args!(
            "{},\"data\":{}}}",
            "{\"event\":\"result\"", "{\"pms\":9}"
        ))
        .unwrap();
        let rec = out.get_ref();
        assert_eq!(
            rec.writes,
            vec![
                b"{\"event\":\"bye\"}\n".to_vec(),
                b"{\"event\":\"result\",\"data\":{\"pms\":9}}\n".to_vec(),
            ],
            "exactly one write per event"
        );
        assert_eq!(rec.flushes, 2);
    }

    #[test]
    fn held_lines_leave_whole_in_order_and_in_one_write() {
        let mut out = LineWriter::new(Recording::default());
        out.hold("a").unwrap();
        out.hold("b").unwrap();
        assert!(out.get_ref().writes.is_empty(), "held, not written");
        out.flush().unwrap();
        out.flush().unwrap(); // nothing held: no empty write
        out.hold("c").unwrap();
        out.line("d").unwrap();
        assert!(!out.holds_lines());
        assert_eq!(
            out.get_ref().writes,
            vec![b"a\nb\n".to_vec(), b"c\nd\n".to_vec()]
        );
        // A long burst is written out as it grows, never cut mid-line.
        let big = "x".repeat(HELD_MAX / 2 + 1);
        out.hold(&big).unwrap();
        assert!(out.holds_lines());
        out.hold(&big).unwrap();
        assert!(!out.holds_lines());
        let last = out.get_ref().writes.last().unwrap();
        assert_eq!(last.len(), 2 * (big.len() + 1));
        assert!(last.ends_with(b"x\n"));
    }

    #[test]
    fn has_line_says_whether_the_next_read_could_block() {
        let script = vec![Some(&b"one\ntw"[..]), None, Some(&b"o\n\n"[..])];
        let mut r = LineReader::new(BufReader::new(Script(script)), 64);
        assert!(!r.has_line(), "nothing buffered yet");
        assert_eq!(r.next_line().unwrap(), line("one"));
        assert!(!r.has_line(), "a partial line is not a line");
        assert_eq!(r.next_line().unwrap(), LineRead::TimedOut);
        assert!(!r.has_line());
        assert_eq!(r.next_line().unwrap(), line("two"));
        assert!(r.has_line(), "the empty line is buffered");
        assert_eq!(r.next_line().unwrap(), line(""));
        assert!(!r.has_line());
    }
}
