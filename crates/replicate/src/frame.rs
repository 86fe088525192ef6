//! The replication wire format.
//!
//! Replication rides the server's newline text protocol: a replica opens
//! a normal connection and sends `REPLICATE <lsn> [<epoch>]` (the first
//! LSN it needs, plus the highest primary generation it has followed —
//! omitted or 0 means "don't care", the pre-epoch handshake). From then
//! on the primary streams *frames* — a text header line, optionally
//! followed by a fixed-size binary payload — while the replica sends
//! `ACK <lsn>` lines back on the same socket:
//!
//! ```text
//! primary -> replica
//!   EPOCH <e>\n
//!       the primary's current generation; sent as the first frame of
//!       every stream and repeated as an idle heartbeat. A replica that
//!       has followed a *newer* generation aborts (the sender is a
//!       fenced stale primary); otherwise it durably adopts `e`.
//!   CKPT <lsn> <nbytes>\n  <nbytes raw snapshot bytes>
//!       checkpoint bootstrap: install this snapshot (covers records
//!       1..=lsn); sent when the requested LSN is already pruned.
//!   REC <lsn> <count> <head>\n  <count x 5 bytes: op u8, object u32 LE>
//!       one WAL record; `head` is the primary's newest LSN at send
//!       time, so the replica can report its lag. `op` is 1 for add,
//!       0 for remove — the WAL record payload encoding.
//!   TRC <lsn> <trace>\n
//!       request-tracing annotation: the record at `lsn` was written by
//!       a client request carrying trace id `trace`. Sent immediately
//!       after that record's `REC` frame (no payload); replicas log it
//!       into their observability ring so one trace id correlates
//!       events across the whole primary+replica topology. A replica
//!       that does not care simply ignores it.
//!   ERR <message>\n
//!       refusal (not a primary, no WAL, readonly, or a fencing
//!       rejection — the message starts with `fenced:` when the
//!       *replica* has the newer generation); the replica backs off and
//!       retries (fenced refusals are also counted separately).
//!
//! replica -> primary
//!   ACK <lsn>\n
//!       everything up to and including `lsn` is durably applied; feeds
//!       the primary's segment-retention floor and the sync-commit
//!       quorum check.
//! ```
//!
//! Record payloads are binary (the same 5-byte tuple layout as WAL
//! records) because a catch-up ships millions of tuples; headers are
//! text so a session is still inspectable with `nc`.
//!
//! This module is the replication plane's only codec, for both ends:
//! the handshake ([`encode_replicate`]), the frames and the acks. It
//! cannot use the server's request codec, because `sprofile-server`
//! depends on this crate and not the other way round. The handshake is
//! the one line both codecs write; a server-side test checks that
//! [`encode_replicate`] writes exactly the bytes the server's text
//! encoder writes for the same request, and that the server parses
//! them back into it.

use std::io::{self, Read, Write};

use sprofile::Tuple;
use sprofile_persist::MAX_RECORD_TUPLES;

/// Upper bound on a `CKPT` payload a replica will accept (1 GiB) — a
/// corrupt or hostile header must not make it allocate unbounded memory.
pub const MAX_SNAPSHOT_BYTES: u64 = 1 << 30;

/// Bytes one tuple occupies in a `REC` payload.
pub const TUPLE_BYTES: usize = 5;

/// A parsed primary→replica frame header.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameHeader {
    /// `CKPT <lsn> <nbytes>`: a checkpoint bootstrap follows.
    Ckpt {
        /// LSN the checkpoint covers (records `1..=lsn`).
        lsn: u64,
        /// Snapshot payload size in bytes.
        nbytes: u64,
    },
    /// `REC <lsn> <count> <head>`: one record follows.
    Rec {
        /// The record's LSN.
        lsn: u64,
        /// Tuples in the payload.
        count: u64,
        /// The primary's newest LSN at send time (lag = head − applied).
        head: u64,
    },
    /// `TRC <lsn> <trace>`: the record at `lsn` carried a request
    /// trace id (no payload; purely observational).
    Trace {
        /// The traced record's LSN.
        lsn: u64,
        /// The request trace id (never 0 on the wire).
        trace: u64,
    },
    /// `EPOCH <e>`: the primary's generation (stream greeting and idle
    /// heartbeat).
    Epoch(u64),
    /// `ERR <message>`: the primary refused the stream.
    Err(String),
}

/// Parses a primary→replica frame header line (no trailing newline).
pub fn parse_header(line: &str) -> Result<FrameHeader, String> {
    let line = line.trim_end_matches(['\r', '\n']);
    if let Some(msg) = line.strip_prefix("ERR ") {
        return Ok(FrameHeader::Err(msg.to_string()));
    }
    let mut words = line.split_whitespace();
    let word = words.next().unwrap_or("");
    let mut num = |what: &str| -> Result<u64, String> {
        words
            .next()
            .ok_or_else(|| format!("{word} header missing {what}"))?
            .parse()
            .map_err(|_| format!("{word} header has invalid {what}"))
    };
    let header = match word {
        "CKPT" => {
            let lsn = num("lsn")?;
            let nbytes = num("nbytes")?;
            if nbytes > MAX_SNAPSHOT_BYTES {
                return Err(format!(
                    "CKPT payload {nbytes} exceeds {MAX_SNAPSHOT_BYTES}"
                ));
            }
            FrameHeader::Ckpt { lsn, nbytes }
        }
        "REC" => {
            let lsn = num("lsn")?;
            let count = num("count")?;
            let head = num("head")?;
            if count > MAX_RECORD_TUPLES as u64 {
                return Err(format!("REC count {count} exceeds {MAX_RECORD_TUPLES}"));
            }
            FrameHeader::Rec { lsn, count, head }
        }
        "TRC" => {
            let lsn = num("lsn")?;
            let trace = num("trace")?;
            FrameHeader::Trace { lsn, trace }
        }
        "EPOCH" => FrameHeader::Epoch(num("epoch")?),
        other => return Err(format!("unknown replication frame '{other}'")),
    };
    if words.next().is_some() {
        return Err(format!("{word} header has trailing fields"));
    }
    Ok(header)
}

/// Writes a `REC` frame (header + binary tuples); returns the bytes
/// written. The caller batches flushes. Tuples are encoded straight
/// into the (buffered) writer through a stack scratch — a catch-up
/// ships millions of records, so the hot path materializes no payload
/// buffer.
pub fn write_rec<W: Write>(w: &mut W, lsn: u64, head: u64, tuples: &[Tuple]) -> io::Result<u64> {
    let header = format!("REC {lsn} {} {head}\n", tuples.len());
    w.write_all(header.as_bytes())?;
    for t in tuples {
        let mut b = [0u8; TUPLE_BYTES];
        b[0] = u8::from(t.is_add);
        b[1..5].copy_from_slice(&t.object.to_le_bytes());
        w.write_all(&b)?;
    }
    Ok((header.len() + tuples.len() * TUPLE_BYTES) as u64)
}

/// Writes a `CKPT` frame (header + raw snapshot bytes); returns the
/// bytes written.
pub fn write_ckpt<W: Write>(w: &mut W, lsn: u64, snapshot: &[u8]) -> io::Result<u64> {
    let header = format!("CKPT {lsn} {}\n", snapshot.len());
    w.write_all(header.as_bytes())?;
    w.write_all(snapshot)?;
    Ok((header.len() + snapshot.len()) as u64)
}

/// Writes a `TRC` frame (request-tracing annotation for the record at
/// `lsn`); returns the bytes written.
pub fn write_trace<W: Write>(w: &mut W, lsn: u64, trace: u64) -> io::Result<u64> {
    let header = format!("TRC {lsn} {trace}\n");
    w.write_all(header.as_bytes())?;
    Ok(header.len() as u64)
}

/// Writes an `EPOCH` frame (the stream greeting / idle heartbeat);
/// returns the bytes written.
pub fn write_epoch<W: Write>(w: &mut W, epoch: u64) -> io::Result<u64> {
    let header = format!("EPOCH {epoch}\n");
    w.write_all(header.as_bytes())?;
    Ok(header.len() as u64)
}

/// Decodes a `REC` payload previously read off the wire.
pub fn decode_tuples(payload: &[u8]) -> Result<Vec<Tuple>, String> {
    if !payload.len().is_multiple_of(TUPLE_BYTES) {
        return Err("REC payload is not a whole number of tuples".into());
    }
    Ok(payload
        .chunks_exact(TUPLE_BYTES)
        .map(|chunk| Tuple {
            object: u32::from_le_bytes(chunk[1..5].try_into().expect("4 bytes")),
            is_add: chunk[0] != 0,
        })
        .collect())
}

/// The `REPLICATE <lsn> <epoch>` handshake line a replica opens its
/// stream with (with trailing newline): the first LSN it needs and the
/// highest generation it has followed.
pub fn encode_replicate(lsn: u64, epoch: u64) -> String {
    format!("REPLICATE {lsn} {epoch}\n")
}

/// The `ACK` line for `lsn` (with trailing newline).
pub fn encode_ack(lsn: u64) -> String {
    format!("ACK {lsn}\n")
}

/// Parses an `ACK <lsn>` line; `None` when the line is not an ack.
pub fn parse_ack(line: &str) -> Option<u64> {
    line.trim_end_matches(['\r', '\n'])
        .strip_prefix("ACK ")?
        .trim()
        .parse()
        .ok()
}

/// One step of a timeout-tolerant line read ([`read_line_step`]).
pub enum LineStep {
    /// A complete line (or an EOF-terminated final fragment) is in the
    /// buffer.
    Line,
    /// Clean end of stream (nothing buffered).
    Eof,
    /// The read timed out with no complete line; callers can do idle
    /// work (acks, lag refresh) and call again — a partial line survives
    /// across calls.
    Timeout,
    /// `stop` returned true.
    Stopped,
}

/// Reads toward one `\n`-terminated line into `buf`, tolerating the
/// short read timeouts replication sockets run with (so stop flags stay
/// responsive). Surfaces `Timeout` to the caller instead of spinning;
/// `read_until` appends, so a line split across timeouts accumulates.
pub fn read_line_step<R: io::BufRead>(
    reader: &mut R,
    buf: &mut Vec<u8>,
    stop: &dyn Fn() -> bool,
) -> io::Result<LineStep> {
    loop {
        if stop() {
            return Ok(LineStep::Stopped);
        }
        match reader.read_until(b'\n', buf) {
            Ok(0) => {
                return Ok(if buf.is_empty() {
                    LineStep::Eof
                } else {
                    // EOF cut the final line short; hand it up as-is.
                    LineStep::Line
                });
            }
            Ok(_) => {
                if buf.ends_with(b"\n") {
                    return Ok(LineStep::Line);
                }
                // Partial line: keep accumulating.
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(LineStep::Timeout)
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Reads an exact-length binary payload, tolerating read timeouts (the
/// sockets involved poll with short timeouts so shutdown flags stay
/// responsive). `stop` aborts the wait; EOF mid-payload is an error.
pub fn read_payload<R: Read>(
    reader: &mut R,
    len: usize,
    stop: &dyn Fn() -> bool,
) -> io::Result<Option<Vec<u8>>> {
    let mut buf = vec![0u8; len];
    let mut at = 0;
    while at < len {
        if stop() {
            return Ok(None);
        }
        match reader.read(&mut buf[at..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "replication stream closed mid-payload",
                ))
            }
            Ok(n) => at += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(Some(buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn rec_frames_round_trip() {
        let tuples = vec![Tuple::add(7), Tuple::remove(0), Tuple::add(u32::MAX)];
        let mut wire = Vec::new();
        let n = write_rec(&mut wire, 42, 99, &tuples).unwrap();
        assert_eq!(n as usize, wire.len());
        let newline = wire.iter().position(|&b| b == b'\n').unwrap();
        let header = std::str::from_utf8(&wire[..newline]).unwrap();
        assert_eq!(
            parse_header(header).unwrap(),
            FrameHeader::Rec {
                lsn: 42,
                count: 3,
                head: 99
            }
        );
        let mut reader = Cursor::new(&wire[newline + 1..]);
        let payload = read_payload(&mut reader, 3 * TUPLE_BYTES, &|| false)
            .unwrap()
            .unwrap();
        assert_eq!(decode_tuples(&payload).unwrap(), tuples);
    }

    #[test]
    fn ckpt_frames_round_trip() {
        let snap = b"snapshot-bytes";
        let mut wire = Vec::new();
        write_ckpt(&mut wire, 10, snap).unwrap();
        let newline = wire.iter().position(|&b| b == b'\n').unwrap();
        let header = std::str::from_utf8(&wire[..newline]).unwrap();
        assert_eq!(
            parse_header(header).unwrap(),
            FrameHeader::Ckpt {
                lsn: 10,
                nbytes: snap.len() as u64
            }
        );
        assert_eq!(&wire[newline + 1..], snap);
    }

    #[test]
    fn acks_round_trip_and_junk_is_rejected() {
        assert_eq!(parse_ack(&encode_ack(17)), Some(17));
        assert_eq!(parse_ack("ACK 0\r\n"), Some(0));
        for junk in ["ACK", "ACK x", "NACK 3", ""] {
            assert_eq!(parse_ack(junk), None, "{junk:?}");
        }
    }

    #[test]
    fn hostile_headers_are_errors_not_allocations() {
        for line in [
            "REC 1 2",                  // missing head
            "REC 1 99999999999999 5",   // count over bound
            "CKPT 1 99999999999999999", // snapshot over bound
            "REC x 1 1",                // junk lsn
            "FOO 1",                    // unknown frame
            "REC 1 1 1 junk",           // trailing fields
            "EPOCH",                    // missing epoch
            "EPOCH x",                  // junk epoch
            "EPOCH 3 4",                // trailing fields
            "",                         // empty
        ] {
            assert!(parse_header(line).is_err(), "{line:?}");
        }
        // ERR passes the message through.
        assert_eq!(
            parse_header("ERR no wal").unwrap(),
            FrameHeader::Err("no wal".into())
        );
    }

    #[test]
    fn trace_frames_round_trip() {
        let mut wire = Vec::new();
        let n = write_trace(&mut wire, 42, 0xDEAD_BEEF).unwrap();
        assert_eq!(n as usize, wire.len());
        let line = std::str::from_utf8(&wire).unwrap().trim_end();
        assert_eq!(
            parse_header(line).unwrap(),
            FrameHeader::Trace {
                lsn: 42,
                trace: 0xDEAD_BEEF
            }
        );
        for junk in ["TRC 1", "TRC x 2", "TRC 1 2 3"] {
            assert!(parse_header(junk).is_err(), "{junk:?}");
        }
    }

    #[test]
    fn epoch_frames_round_trip() {
        let mut wire = Vec::new();
        let n = write_epoch(&mut wire, 6).unwrap();
        assert_eq!(n as usize, wire.len());
        let line = std::str::from_utf8(&wire).unwrap().trim_end();
        assert_eq!(parse_header(line).unwrap(), FrameHeader::Epoch(6));
    }

    #[test]
    fn payload_reads_tolerate_interruptions_and_reject_eof() {
        // A reader that returns one byte at a time exercises the loop.
        struct Trickle<'a>(&'a [u8], usize);
        impl Read for Trickle<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.1.is_multiple_of(2) {
                    self.1 += 1;
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "later"));
                }
                let i = self.1 / 2;
                if i >= self.0.len() {
                    return Ok(0);
                }
                buf[0] = self.0[i];
                self.1 += 1;
                Ok(1)
            }
        }
        let data = b"abcdef";
        let mut r = Trickle(data, 0);
        let got = read_payload(&mut r, 6, &|| false).unwrap().unwrap();
        assert_eq!(&got, data);
        // EOF mid-payload is an error, not a short read.
        let mut r = Cursor::new(b"abc".to_vec());
        assert!(read_payload(&mut r, 6, &|| false).is_err());
        // Stop aborts cleanly.
        let mut r = Trickle(data, 0);
        assert!(read_payload(&mut r, 6, &|| true).unwrap().is_none());
    }
}
