//! The length-prefixed binary wire protocol (opt-in via `BIN`).
//!
//! This module is one of the server's two codecs, and it serves both
//! ends of the wire. On the server, `decode` turns a request frame
//! into the same [`Request`] the text protocol produces, and `encode`
//! writes the server's [`Response`] as a response frame; between the
//! two, one `execute` in the connection state machine serves every verb
//! for both protocols. On the client, [`encode_request`] is the inverse
//! of `decode` (built on the `put_*` request encoders) and
//! [`read_response`] the inverse of `encode` (built on [`read_reply`]);
//! [`crate::Client`] speaks binary through those two alone.
//!
//! All integers are little-endian. A connection enters binary mode by
//! sending the text line `BIN` (answered with the text line `OK BIN`);
//! after that, both directions speak framed binary. The verbs without
//! an opcode stay on the text plane: `METRICS`, `LOGTAIL`, `SPANS`,
//! `MAPSET`, `MIGRATE`, `ADOPT`, `REPLICATE`, `PROMOTE` and
//! `SNAPSHOT <path>` ([`encode_request`] refuses them). A single `ADD`
//! or `RM` travels as a one-tuple `BATCH`. Request frames:
//!
//! ```text
//! opcode  name      layout after the opcode byte
//! ------  ----      ----------------------------
//! 0x01    BATCH     u32 count, then count × 5-byte tuples
//!                   (op u8: 1=add 0=remove, object u32 — the exact
//!                   layout of `replicate::frame`'s REC payload)
//! 0x02    MODE      —
//! 0x03    LEAST     —
//! 0x04    MEDIAN    —
//! 0x05    STATS     —
//! 0x06    FREQ      u32 object
//! 0x07    TOPK      u32 k
//! 0x08    CAL       i64 threshold
//! 0x09    QUIT      —
//! 0x0A    SHUTDOWN  —
//! 0x0B    SNAPSHOT  —
//! 0x0C    TRACE     u64 trace id (0 clears; answered with OK 0)
//! 0x0D    MAP       —
//! ```
//!
//! Response frames (first byte is the tag):
//!
//! ```text
//! tag     name      layout after the tag byte
//! ---     ----      -------------------------
//! 0x80    OK        u32 count          (tuples accepted; 0 for QUIT/SHUTDOWN)
//! 0x81    ERR       u16 len, utf-8 message
//! 0x82    PAIR      u8 present, u32 object, i64 freq   (MODE/LEAST; present=0 ⇒ NONE)
//! 0x83    FREQ      u32 object, i64 freq
//! 0x84    MEDIAN    u8 present, i64 freq
//! 0x85    TOPK      u32 n, then n × (u32 object, i64 freq)
//! 0x86    STATS     u32 len, utf-8 payload (same text as the STATS line)
//! 0x87    CAL       u32 count
//! 0x88    SNAPSHOT  u32 len, raw checkpoint bytes (the same format
//!                   `SNAPSHOT <path>` writes to disk)
//! 0x89    MAP       u32 len, utf-8 wire-encoded partition map (the
//!                   same text as the MAP line)
//! ```
//!
//! A frame is decoded only once all of it has arrived: `BATCH` tuples
//! go from the read buffer straight into the request's tuple vector.
//! Framing errors (unknown opcode, `BATCH` count over [`MAX_BATCH`])
//! are unrecoverable — the server answers with an `ERR` frame and
//! closes. Semantic errors inside a well-framed `BATCH` (bad op byte,
//! object outside the universe) consume the frame, answer `ERR`, and
//! leave the connection usable, mirroring the text protocol.

use std::io::{self, BufRead, Read};

use sprofile::Tuple;
use sprofile_replicate::frame::TUPLE_BYTES;

use crate::protocol::{Decoded, Request, Response, MAX_ADOPT_BYTES, MAX_BATCH};

/// `BATCH` request opcode.
pub const REQ_BATCH: u8 = 0x01;
/// `MODE` request opcode.
pub const REQ_MODE: u8 = 0x02;
/// `LEAST` request opcode.
pub const REQ_LEAST: u8 = 0x03;
/// `MEDIAN` request opcode.
pub const REQ_MEDIAN: u8 = 0x04;
/// `STATS` request opcode.
pub const REQ_STATS: u8 = 0x05;
/// `FREQ` request opcode.
pub const REQ_FREQ: u8 = 0x06;
/// `TOPK` request opcode.
pub const REQ_TOPK: u8 = 0x07;
/// `CAL` request opcode.
pub const REQ_CAL: u8 = 0x08;
/// `QUIT` request opcode.
pub const REQ_QUIT: u8 = 0x09;
/// `SHUTDOWN` request opcode.
pub const REQ_SHUTDOWN: u8 = 0x0A;
/// `SNAPSHOT` request opcode (fetch a checkpoint inline).
pub const REQ_SNAPSHOT: u8 = 0x0B;
/// `TRACE` request opcode (set/clear the connection's trace id).
pub const REQ_TRACE: u8 = 0x0C;
/// `MAP` request opcode (fetch the node's partition map).
pub const REQ_MAP: u8 = 0x0D;

/// `OK` response tag.
pub const TAG_OK: u8 = 0x80;
/// `ERR` response tag.
pub const TAG_ERR: u8 = 0x81;
/// `PAIR` (MODE/LEAST) response tag.
pub const TAG_PAIR: u8 = 0x82;
/// `FREQ` response tag.
pub const TAG_FREQ: u8 = 0x83;
/// `MEDIAN` response tag.
pub const TAG_MEDIAN: u8 = 0x84;
/// `TOPK` response tag.
pub const TAG_TOPK: u8 = 0x85;
/// `STATS` response tag.
pub const TAG_STATS: u8 = 0x86;
/// `CAL` response tag.
pub const TAG_CAL: u8 = 0x87;
/// `SNAPSHOT` response tag.
pub const TAG_SNAPSHOT: u8 = 0x88;
/// `MAP` response tag.
pub const TAG_MAP: u8 = 0x89;

/// Encodes one tuple in the shared 5-byte replication layout.
pub fn put_tuple(buf: &mut Vec<u8>, t: Tuple) {
    buf.push(u8::from(t.is_add));
    buf.extend_from_slice(&t.object.to_le_bytes());
}

/// Decodes one tuple from a 5-byte chunk, validating the op byte.
pub fn get_tuple(chunk: &[u8]) -> Result<Tuple, String> {
    debug_assert_eq!(chunk.len(), TUPLE_BYTES);
    let is_add = match chunk[0] {
        0 => false,
        1 => true,
        other => return Err(format!("bad tuple op byte 0x{other:02x}")),
    };
    let object = u32::from_le_bytes(chunk[1..5].try_into().expect("4 bytes"));
    Ok(Tuple { object, is_add })
}

/// Appends a `BATCH` request frame for `tuples`.
pub fn put_batch(buf: &mut Vec<u8>, tuples: &[Tuple]) {
    buf.push(REQ_BATCH);
    buf.extend_from_slice(&(tuples.len() as u32).to_le_bytes());
    for &t in tuples {
        put_tuple(buf, t);
    }
}

/// Appends an argument-less request frame (`MODE`, `LEAST`, `MEDIAN`,
/// `STATS`, `QUIT`, `SHUTDOWN`, `SNAPSHOT`, `MAP`).
pub fn put_simple(buf: &mut Vec<u8>, opcode: u8) {
    buf.push(opcode);
}

/// Appends a `FREQ` request frame.
pub fn put_freq(buf: &mut Vec<u8>, object: u32) {
    buf.push(REQ_FREQ);
    buf.extend_from_slice(&object.to_le_bytes());
}

/// Appends a `TOPK` request frame.
pub fn put_topk(buf: &mut Vec<u8>, k: u32) {
    buf.push(REQ_TOPK);
    buf.extend_from_slice(&k.to_le_bytes());
}

/// Appends a `CAL` request frame.
pub fn put_cal(buf: &mut Vec<u8>, threshold: i64) {
    buf.push(REQ_CAL);
    buf.extend_from_slice(&threshold.to_le_bytes());
}

/// Appends a `TRACE` request frame. `trace = 0` clears the
/// connection's trace id; anything else tags every subsequent request
/// on this connection until changed. Answered with an `OK 0` frame so
/// the FIFO request/reply pairing is preserved.
pub fn put_trace(buf: &mut Vec<u8>, trace: u64) {
    buf.push(REQ_TRACE);
    buf.extend_from_slice(&trace.to_le_bytes());
}

/// The fixed-size argument after a frame's opcode byte, or `None`
/// until it has arrived.
fn arg<const N: usize>(buf: &[u8]) -> Option<[u8; N]> {
    buf.get(1..1 + N)?.try_into().ok()
}

/// Decodes the request frame at the front of `buf`: `(bytes consumed,
/// outcome)`. An incomplete frame consumes nothing.
pub(crate) fn decode(buf: &[u8]) -> (usize, Decoded) {
    let Some(&op) = buf.first() else {
        return (0, Decoded::Incomplete);
    };
    let frame = match op {
        REQ_MODE => Some((1, Request::Mode)),
        REQ_LEAST => Some((1, Request::Least)),
        REQ_MEDIAN => Some((1, Request::Median)),
        REQ_STATS => Some((1, Request::Stats)),
        REQ_QUIT => Some((1, Request::Quit)),
        REQ_SHUTDOWN => Some((1, Request::Shutdown)),
        REQ_SNAPSHOT => Some((1, Request::SnapshotFetch)),
        REQ_MAP => Some((1, Request::Map)),
        REQ_FREQ => arg(buf).map(|a| (5, Request::Freq(u32::from_le_bytes(a)))),
        REQ_TOPK => arg(buf).map(|a| (5, Request::TopK(u32::from_le_bytes(a)))),
        REQ_CAL => arg(buf).map(|a| (9, Request::Cal(i64::from_le_bytes(a)))),
        REQ_TRACE => arg(buf).map(|a| (9, Request::Trace(u64::from_le_bytes(a)))),
        REQ_BATCH => return decode_batch(buf),
        other => {
            let msg = format!("unknown binary opcode 0x{other:02x}");
            return (0, Decoded::Malformed { msg, fatal: true });
        }
    };
    match frame {
        Some((used, req)) => (used, Decoded::Request(req)),
        None => (0, Decoded::Incomplete),
    }
}

fn decode_batch(buf: &[u8]) -> (usize, Decoded) {
    let Some(count) = arg(buf).map(u32::from_le_bytes) else {
        return (0, Decoded::Incomplete);
    };
    let count = count as usize;
    if count > MAX_BATCH {
        // Refuse before buffering the payload; the length prefix
        // itself is hostile, so the connection closes.
        let msg = format!("BATCH size {count} exceeds maximum {MAX_BATCH}");
        return (0, Decoded::Malformed { msg, fatal: true });
    }
    let Some(body) = buf.get(5..5 + count * TUPLE_BYTES) else {
        return (0, Decoded::Incomplete);
    };
    let mut tuples = Vec::with_capacity(count);
    let mut bad = None;
    for (i, chunk) in body.chunks_exact(TUPLE_BYTES).enumerate() {
        match get_tuple(chunk) {
            Ok(t) => tuples.push(t),
            Err(msg) => {
                bad = Some(format!("tuple {}: {msg}", i + 1));
                break;
            }
        }
    }
    let req = Request::BatchFrame { count, tuples, bad };
    (5 + body.len(), Decoded::Request(req))
}

/// Encodes one reply as a binary response frame, in the layout
/// [`read_reply`] reads.
pub(crate) fn encode(out: &mut Vec<u8>, reply: &Response) {
    match reply {
        Response::Ok | Response::Bye => encode(out, &Response::Count(0)),
        Response::Count(n) => {
            out.push(TAG_OK);
            out.extend_from_slice(&u32::try_from(*n).unwrap_or(u32::MAX).to_le_bytes());
        }
        Response::Upgraded => out.extend_from_slice(b"OK BIN\n"),
        Response::Err(msg) => {
            // Truncated to the u16 length prefix.
            let msg = &msg.as_bytes()[..msg.len().min(u16::MAX as usize)];
            out.push(TAG_ERR);
            out.extend_from_slice(&(msg.len() as u16).to_le_bytes());
            out.extend_from_slice(msg);
        }
        Response::Mode(pair) | Response::Least(pair) => {
            // An empty universe sends `present = 0` and a zeroed pair.
            let (object, freq) = pair.unwrap_or_default();
            out.extend_from_slice(&[TAG_PAIR, u8::from(pair.is_some())]);
            out.extend_from_slice(&object.to_le_bytes());
            out.extend_from_slice(&freq.to_le_bytes());
        }
        Response::Freq(object, freq) => {
            out.push(TAG_FREQ);
            out.extend_from_slice(&object.to_le_bytes());
            out.extend_from_slice(&freq.to_le_bytes());
        }
        Response::Median(median) => {
            out.extend_from_slice(&[TAG_MEDIAN, u8::from(median.is_some())]);
            out.extend_from_slice(&median.unwrap_or_default().to_le_bytes());
        }
        Response::TopK(entries) => {
            out.push(TAG_TOPK);
            out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
            for (object, freq) in entries {
                out.extend_from_slice(&object.to_le_bytes());
                out.extend_from_slice(&freq.to_le_bytes());
            }
        }
        Response::Cal(count) => {
            out.push(TAG_CAL);
            out.extend_from_slice(&count.to_le_bytes());
        }
        Response::Stats(payload) => put_sized(out, TAG_STATS, payload.as_bytes()),
        Response::Snapshot(bytes) => put_sized(out, TAG_SNAPSHOT, bytes),
        Response::Map(wire) => put_sized(out, TAG_MAP, wire.as_bytes()),
        // Text-only verbs: the binary decoder never produces their
        // requests.
        Response::Metrics(_)
        | Response::Logtail(_)
        | Response::Spans(_)
        | Response::Promoted { .. } => {
            encode(out, &Response::Err("reply has no binary encoding".into()))
        }
        Response::Stream { .. } => {}
    }
}

/// A response frame carrying `tag`, a u32 length and `bytes`.
fn put_sized(out: &mut Vec<u8>, tag: u8, bytes: &[u8]) {
    out.push(tag);
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Encodes one request as a binary frame, the inverse of `decode`: the
/// bytes decode back to `req`, except that a single `ADD`/`RM` decodes as
/// its one-tuple `BATCH` frame. `Err` names a request binary cannot
/// carry and writes nothing: the text-only verbs, `BIN`, a bodiless
/// `BATCH`/`ADOPT` header, or a `BATCH` frame with an undecoded tuple or
/// more than [`MAX_BATCH`] tuples.
pub fn encode_request(out: &mut Vec<u8>, req: &Request) -> Result<(), String> {
    match req {
        Request::BatchFrame { tuples, .. } if req.is_sendable_batch() => put_batch(out, tuples),
        Request::Add(object) => put_batch(out, &[Tuple::add(*object)]),
        Request::Remove(object) => put_batch(out, &[Tuple::remove(*object)]),
        Request::Mode => put_simple(out, REQ_MODE),
        Request::Least => put_simple(out, REQ_LEAST),
        Request::Median => put_simple(out, REQ_MEDIAN),
        Request::Stats => put_simple(out, REQ_STATS),
        Request::Quit => put_simple(out, REQ_QUIT),
        Request::Shutdown => put_simple(out, REQ_SHUTDOWN),
        Request::SnapshotFetch => put_simple(out, REQ_SNAPSHOT),
        Request::Map => put_simple(out, REQ_MAP),
        Request::Freq(object) => put_freq(out, *object),
        Request::TopK(k) => put_topk(out, *k),
        Request::Cal(threshold) => put_cal(out, *threshold),
        Request::Trace(id) => put_trace(out, *id),
        _ => return Err(format!("{} has no binary encoding", req.name())),
    }
    Ok(())
}

/// A decoded binary response frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// `OK <count>`.
    Ok(u32),
    /// `ERR <message>`.
    Err(String),
    /// `MODE`/`LEAST` result (`None` ⇒ empty universe).
    Pair(Option<(u32, i64)>),
    /// `FREQ` result.
    Freq(u32, i64),
    /// `MEDIAN` result.
    Median(Option<i64>),
    /// `TOPK` result.
    TopK(Vec<(u32, i64)>),
    /// `STATS` payload (same text as the STATS line).
    Stats(String),
    /// `CAL` result.
    Cal(u32),
    /// `SNAPSHOT` checkpoint bytes.
    Snapshot(Vec<u8>),
    /// `MAP` payload: the wire-encoded partition map.
    Map(String),
}

fn read_exact_vec<R: Read>(r: &mut R, n: usize) -> io::Result<Vec<u8>> {
    let mut buf = vec![0u8; n];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_i64<R: Read>(r: &mut R) -> io::Result<i64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(i64::from_le_bytes(b))
}

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Reads the u32 length and utf-8 text of a `STATS` or `MAP` reply.
fn read_text<R: Read>(r: &mut R, what: &str) -> io::Result<String> {
    let len = read_u32(r)? as usize;
    if len > 1 << 24 {
        return Err(bad_data(format!(
            "{what} reply length {len} is implausible"
        )));
    }
    let payload = read_exact_vec(r, len)?;
    Ok(String::from_utf8_lossy(&payload).into_owned())
}

/// Reads one response frame off a blocking reader (client side).
pub fn read_reply<R: BufRead>(r: &mut R) -> io::Result<Reply> {
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    match tag[0] {
        TAG_OK => Ok(Reply::Ok(read_u32(r)?)),
        TAG_ERR => {
            let mut len = [0u8; 2];
            r.read_exact(&mut len)?;
            let msg = read_exact_vec(r, u16::from_le_bytes(len) as usize)?;
            Ok(Reply::Err(String::from_utf8_lossy(&msg).into_owned()))
        }
        TAG_PAIR => {
            let mut present = [0u8; 1];
            r.read_exact(&mut present)?;
            let object = read_u32(r)?;
            let freq = read_i64(r)?;
            Ok(Reply::Pair((present[0] != 0).then_some((object, freq))))
        }
        TAG_FREQ => Ok(Reply::Freq(read_u32(r)?, read_i64(r)?)),
        TAG_MEDIAN => {
            let mut present = [0u8; 1];
            r.read_exact(&mut present)?;
            let freq = read_i64(r)?;
            Ok(Reply::Median((present[0] != 0).then_some(freq)))
        }
        TAG_TOPK => {
            let n = read_u32(r)? as usize;
            // A hostile server can't make us allocate unboundedly.
            if n > MAX_BATCH {
                return Err(bad_data(format!("TOPK reply count {n} is implausible")));
            }
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                entries.push((read_u32(r)?, read_i64(r)?));
            }
            Ok(Reply::TopK(entries))
        }
        TAG_STATS => Ok(Reply::Stats(read_text(r, "STATS")?)),
        TAG_CAL => Ok(Reply::Cal(read_u32(r)?)),
        TAG_SNAPSHOT => {
            let len = read_u32(r)? as usize;
            if len > MAX_ADOPT_BYTES {
                return Err(bad_data(format!(
                    "SNAPSHOT reply length {len} is implausible"
                )));
            }
            Ok(Reply::Snapshot(read_exact_vec(r, len)?))
        }
        TAG_MAP => Ok(Reply::Map(read_text(r, "MAP")?)),
        other => Err(bad_data(format!("unknown reply tag 0x{other:02x}"))),
    }
}

/// Reads the binary reply to `req` off a blocking reader (client side),
/// the inverse of `encode`: one frame through [`read_reply`], yielding
/// the [`Response`] the server encoded. A frame that does not answer
/// `req` is an [`io::ErrorKind::InvalidData`] error.
pub fn read_response<R: BufRead>(r: &mut R, req: &Request) -> io::Result<Response> {
    Ok(match (read_reply(r)?, req) {
        (Reply::Err(msg), _) => Response::Err(msg),
        (Reply::Ok(n), Request::BatchFrame { .. }) => Response::Count(u64::from(n)),
        (Reply::Ok(_), Request::Add(_) | Request::Remove(_) | Request::Trace(_)) => Response::Ok,
        (Reply::Ok(_), Request::Quit | Request::Shutdown) => Response::Bye,
        (Reply::Pair(pair), Request::Mode) => Response::Mode(pair),
        (Reply::Pair(pair), Request::Least) => Response::Least(pair),
        (Reply::Freq(object, freq), Request::Freq(_)) => Response::Freq(object, freq),
        (Reply::Median(median), Request::Median) => Response::Median(median),
        (Reply::TopK(entries), Request::TopK(_)) => Response::TopK(entries),
        (Reply::Cal(count), Request::Cal(_)) => Response::Cal(count),
        (Reply::Stats(payload), Request::Stats) => Response::Stats(payload),
        (Reply::Snapshot(bytes), Request::SnapshotFetch) => Response::Snapshot(bytes),
        (Reply::Map(wire), Request::Map) => Response::Map(wire),
        _ => return Err(bad_data(format!("unexpected reply to {}", req.name()))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: &[u8]) -> Reply {
        let mut cursor = io::Cursor::new(frame.to_vec());
        read_reply(&mut cursor).expect("decode")
    }

    #[test]
    fn tuples_use_the_replication_layout() {
        let mut buf = Vec::new();
        put_tuple(
            &mut buf,
            Tuple {
                object: 0x01020304,
                is_add: true,
            },
        );
        assert_eq!(buf, [1, 0x04, 0x03, 0x02, 0x01]);
        let t = get_tuple(&buf).expect("decode");
        assert_eq!(
            t,
            Tuple {
                object: 0x01020304,
                is_add: true
            }
        );
        // Agreement with replicate::frame's decoder.
        let via_frame = sprofile_replicate::frame::decode_tuples(&buf).expect("frame decode");
        assert_eq!(via_frame, vec![t]);
        assert!(get_tuple(&[2, 0, 0, 0, 0]).is_err(), "op byte 2 is invalid");
    }

    #[test]
    fn batch_frames_are_length_prefixed() {
        let mut buf = Vec::new();
        let tuples = [
            Tuple {
                object: 1,
                is_add: true,
            },
            Tuple {
                object: 2,
                is_add: false,
            },
        ];
        put_batch(&mut buf, &tuples);
        assert_eq!(buf[0], REQ_BATCH);
        assert_eq!(u32::from_le_bytes(buf[1..5].try_into().unwrap()), 2);
        assert_eq!(buf.len(), 5 + 2 * TUPLE_BYTES);
    }

    #[test]
    fn truncated_replies_are_io_errors() {
        let mut buf = Vec::new();
        encode(&mut buf, &Response::TopK(vec![(1, 10), (2, 5)]));
        for cut in 1..buf.len() {
            let mut cursor = io::Cursor::new(buf[..cut].to_vec());
            assert!(read_reply(&mut cursor).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn frames_decode_only_once_complete() {
        let mut wire = Vec::new();
        put_batch(&mut wire, &[Tuple::add(7), Tuple::remove(2)]);
        put_cal(&mut wire, -3);
        let batch_len = 5 + 2 * TUPLE_BYTES;
        for cut in 0..batch_len {
            assert_eq!(decode(&wire[..cut]), (0, Decoded::Incomplete), "cut {cut}");
        }
        let want = Request::BatchFrame {
            count: 2,
            tuples: vec![Tuple::add(7), Tuple::remove(2)],
            bad: None,
        };
        assert_eq!(decode(&wire), (batch_len, Decoded::Request(want)));
        assert_eq!(
            decode(&wire[batch_len..]),
            (9, Decoded::Request(Request::Cal(-3)))
        );
        for hostile in [&[0x7Fu8][..], b"BX", &[REQ_BATCH, 0xFF, 0xFF, 0xFF, 0xFF]] {
            let (_, got) = decode(hostile);
            assert!(
                matches!(got, Decoded::Malformed { fatal: true, .. }),
                "{got:?}"
            );
        }
    }

    #[test]
    fn encoded_replies_read_back() {
        for (reply, want) in [
            (Response::Count(64), Reply::Ok(64)),
            (Response::Bye, Reply::Ok(0)),
            (
                Response::Err("moved 3".into()),
                Reply::Err("moved 3".into()),
            ),
            (Response::Mode(None), Reply::Pair(None)),
            (Response::Mode(Some((7, -3))), Reply::Pair(Some((7, -3)))),
            (Response::Least(Some((2, -4))), Reply::Pair(Some((2, -4)))),
            (Response::Freq(1, 9), Reply::Freq(1, 9)),
            (Response::Median(Some(3)), Reply::Median(Some(3))),
            (Response::Median(None), Reply::Median(None)),
            (Response::TopK(vec![(5, 6)]), Reply::TopK(vec![(5, 6)])),
            (Response::Cal(2), Reply::Cal(2)),
            (Response::Stats("m=4".into()), Reply::Stats("m=4".into())),
            (Response::Snapshot(vec![1, 2]), Reply::Snapshot(vec![1, 2])),
        ] {
            let mut out = Vec::new();
            encode(&mut out, &reply);
            assert_eq!(round_trip(&out), want, "{reply:?}");
        }
        let mut out = Vec::new();
        encode(&mut out, &Response::Upgraded);
        assert_eq!(out, b"OK BIN\n");
    }

    #[test]
    fn map_travels_in_both_directions() {
        let mut wire = Vec::new();
        encode_request(&mut wire, &Request::Map).expect("MAP has an opcode");
        assert_eq!(wire, [REQ_MAP]);
        assert_eq!(decode(&wire), (1, Decoded::Request(Request::Map)));
        let map = "2 4 a:1,b:2 0,1,0,1";
        let mut out = Vec::new();
        encode(&mut out, &Response::Map(map.into()));
        assert_eq!(out[..5], [TAG_MAP, map.len() as u8, 0, 0, 0]);
        assert_eq!(round_trip(&out), Reply::Map(map.into()));
        let got = read_response(&mut &out[..], &Request::Map).expect("MAP reply");
        assert_eq!(got, Response::Map(map.into()));
    }

    #[test]
    fn unknown_tags_are_rejected() {
        let mut cursor = io::Cursor::new(vec![0x7Fu8]);
        let err = read_reply(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
