//! A small synchronous client for both wire protocols — the building
//! block of the load generator, the CLI front end, the cluster router
//! and the test suites.
//!
//! The client knows no wire format of its own. [`Client::send`]
//! encodes a [`Request`] through the codec of the protocol the
//! connection speaks ([`protocol::encode_request`] or
//! [`bin_proto::encode_request`]) into an output buffer, and
//! [`Client::recv`] reads the reply to a request back into the
//! [`Response`] the server encoded ([`protocol::read_response`] or
//! [`bin_proto::read_response`]). These are the same two codecs the
//! server runs, so a request and its reply mean the same thing at both
//! ends of the wire.
//!
//! Replies come back in request order, so any request can be
//! pipelined: `send` a window of requests, [`Client::flush_out`], then
//! `recv` each in the order sent. The typed methods ([`Client::mode`],
//! [`Client::batch`], …) are one round trip each; [`Client::batch_send`]
//! / [`Client::batch_recv`] are the pipelined halves of
//! [`Client::batch`].
//!
//! A client starts in the text protocol; [`Client::upgrade_bin`] (or
//! [`Client::connect_with`] with [`WireProto::Bin`]) switches the
//! connection to the length-prefixed binary protocol. A request the
//! current protocol cannot carry (a text-only verb over binary, the
//! inline snapshot fetch over text) fails with
//! [`ClientError::Protocol`] before anything is sent.

use std::fmt;
use std::io::{self, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use sprofile::Tuple;
use sprofile_persist::PartitionMap;

use crate::bin_proto;
use crate::protocol::{self, Request, Response, WireProto};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server answered `ERR <message>`.
    Server(String),
    /// The server answered something the client cannot interpret, or
    /// the request cannot be carried by the connection's protocol.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Convenience alias.
pub type ClientResult<T> = Result<T, ClientError>;

/// One connection to a running server.
pub struct Client {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
    /// Encoded requests not yet written to the socket.
    out: Vec<u8>,
    proto: WireProto,
}

/// One round trip of `$req` on `$client`, unpacking the one reply shape
/// that answers it. The codecs already refuse a reply of any other
/// shape, so the fallback arm only guards the pairing.
macro_rules! round_trip {
    ($client:expr, $req:expr, $shape:pat => $value:expr) => {{
        let req = $req;
        match $client.call(&req)? {
            $shape => Ok($value),
            _ => Err(unexpected(&req)),
        }
    }};
}

fn unexpected(req: &Request) -> ClientError {
    ClientError::Protocol(format!("unexpected reply to {}", req.name()))
}

impl Client {
    /// Connects to `addr` in text mode.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> ClientResult<Client> {
        Client::over(TcpStream::connect(addr)?)
    }

    /// Connects to `addr` in text mode with `timeout` bounding the
    /// connect and every later read and write, so a dead or wedged peer
    /// costs at most `timeout` per step.
    pub fn connect_timeout<A: ToSocketAddrs>(addr: A, timeout: Duration) -> ClientResult<Client> {
        let sock = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolves to nothing")
        })?;
        let stream = TcpStream::connect_timeout(&sock, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Client::over(stream)
    }

    fn over(stream: TcpStream) -> ClientResult<Client> {
        stream.set_nodelay(true).ok();
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            stream,
            out: Vec::new(),
            proto: WireProto::Text,
        })
    }

    /// Connects and, for [`WireProto::Bin`], performs the `BIN` upgrade
    /// handshake. Every connection starts in text, so the handshake is
    /// the same against every server.
    pub fn connect_with<A: ToSocketAddrs>(addr: A, proto: WireProto) -> ClientResult<Client> {
        let mut client = Client::connect(addr)?;
        if proto == WireProto::Bin {
            client.upgrade_bin()?;
        }
        Ok(client)
    }

    /// The protocol this connection currently speaks.
    pub fn proto(&self) -> WireProto {
        self.proto
    }

    /// Upgrades this connection to the binary protocol: sends the `BIN`
    /// verb and expects the text `OK BIN` acknowledgement; every request
    /// after that is a binary frame. There is no downgrade.
    pub fn upgrade_bin(&mut self) -> ClientResult<()> {
        round_trip!(self, Request::BinUpgrade, Response::Upgraded => ())?;
        self.proto = WireProto::Bin;
        Ok(())
    }

    /// Encodes `req` in the connection's protocol into the output
    /// buffer, **without flushing or reading the reply**. Pair each
    /// `send` with a later [`Client::recv`] of the same request, in
    /// order, after a [`Client::flush_out`]. A request the protocol
    /// cannot carry is a [`ClientError::Protocol`] and sends nothing.
    pub fn send(&mut self, req: &Request) -> ClientResult<()> {
        match self.proto {
            WireProto::Text => protocol::encode_request(&mut self.out, req),
            WireProto::Bin => bin_proto::encode_request(&mut self.out, req),
        }
        .map_err(ClientError::Protocol)
    }

    /// Reads the reply to `req`, the oldest request sent and not yet
    /// received. An `ERR` reply is [`ClientError::Server`]; a reply that
    /// does not answer `req` is [`ClientError::Protocol`].
    pub fn recv(&mut self, req: &Request) -> ClientResult<Response> {
        let reply = match self.proto {
            WireProto::Text => protocol::read_response(&mut self.reader, req),
            WireProto::Bin => bin_proto::read_response(&mut self.reader, req),
        };
        match reply {
            Ok(Response::Err(msg)) => Err(ClientError::Server(msg)),
            Ok(reply) => Ok(reply),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                Err(ClientError::Protocol(e.to_string()))
            }
            Err(e) => Err(ClientError::Io(e)),
        }
    }

    /// Writes every buffered request to the socket. The buffer is
    /// emptied either way: after a failed write the connection's framing
    /// is lost, and resending bytes that may already be out would not
    /// restore it.
    pub fn flush_out(&mut self) -> ClientResult<()> {
        let written = self.stream.write_all(&self.out);
        self.out.clear();
        Ok(written?)
    }

    /// One request, one reply.
    fn call(&mut self, req: &Request) -> ClientResult<Response> {
        self.send(req)?;
        self.flush_out()?;
        self.recv(req)
    }

    /// Sends one raw request line (no trailing newline) without reading
    /// a reply. Exposed for protocol tests; pair with
    /// [`Client::recv_line`].
    pub fn send_line(&mut self, line: &str) -> ClientResult<()> {
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.flush_out()
    }

    /// Reads one raw reply line (newline stripped). Errors on EOF.
    pub fn recv_line(&mut self) -> ClientResult<String> {
        Ok(protocol::read_line(&mut self.reader)?)
    }

    /// `ADD id` (buffered server-side until the next flush or query).
    /// In binary mode this is a one-tuple `BATCH` frame — the binary
    /// protocol has no single-tuple opcode.
    pub fn add(&mut self, id: u32) -> ClientResult<()> {
        round_trip!(self, Request::Add(id), Response::Ok => ())
    }

    /// `RM id`.
    pub fn remove(&mut self, id: u32) -> ClientResult<()> {
        round_trip!(self, Request::Remove(id), Response::Ok => ())
    }

    /// `BATCH`: one frame of tuples in one write; returns the
    /// acknowledged tuple count.
    pub fn batch(&mut self, tuples: &[Tuple]) -> ClientResult<u64> {
        round_trip!(self, Request::batch(tuples.to_vec()), Response::Count(n) => n)
    }

    /// Writes one `BATCH` frame into the connection's output buffer
    /// **without flushing or reading the reply** — the pipelining half
    /// of [`Client::batch`]. Callers keep a bounded window of frames in
    /// flight and pair each with a later [`Client::batch_recv`]; call
    /// [`Client::flush_out`] before draining replies.
    pub fn batch_send(&mut self, tuples: &[Tuple]) -> ClientResult<()> {
        self.send(&Request::batch(tuples.to_vec()))
    }

    /// Reads one `BATCH` acknowledgement (the reply to one earlier
    /// [`Client::batch_send`]): the acknowledged tuple count.
    pub fn batch_recv(&mut self) -> ClientResult<u64> {
        let req = Request::batch(Vec::new());
        match self.recv(&req)? {
            Response::Count(n) => Ok(n),
            _ => Err(unexpected(&req)),
        }
    }

    /// `MODE` → `(object, frequency)` or `None` on an empty universe.
    pub fn mode(&mut self) -> ClientResult<Option<(u32, i64)>> {
        round_trip!(self, Request::Mode, Response::Mode(pair) => pair)
    }

    /// `LEAST` → `(object, frequency)` or `None`.
    pub fn least(&mut self) -> ClientResult<Option<(u32, i64)>> {
        round_trip!(self, Request::Least, Response::Least(pair) => pair)
    }

    /// `FREQ id` → the object's current frequency.
    pub fn freq(&mut self, id: u32) -> ClientResult<i64> {
        round_trip!(self, Request::Freq(id), Response::Freq(_, f) => f)
    }

    /// `MEDIAN` → the lower median frequency, `None` on an empty
    /// universe.
    pub fn median(&mut self) -> ClientResult<Option<i64>> {
        round_trip!(self, Request::Median, Response::Median(median) => median)
    }

    /// `TOPK k` → up to `k` `(object, frequency)` pairs, most frequent
    /// first.
    pub fn top_k(&mut self, k: u32) -> ClientResult<Vec<(u32, i64)>> {
        round_trip!(self, Request::TopK(k), Response::TopK(entries) => entries)
    }

    /// `CAL f` → count of objects with frequency ≥ `threshold`.
    pub fn count_at_least(&mut self, threshold: i64) -> ClientResult<u32> {
        round_trip!(self, Request::Cal(threshold), Response::Cal(n) => n)
    }

    /// `STATS` → the raw `key=value` payload (after `STATS `).
    pub fn stats(&mut self) -> ClientResult<String> {
        round_trip!(self, Request::Stats, Response::Stats(payload) => payload)
    }

    /// One `key=value` field out of a [`Client::stats`] payload.
    pub fn stats_field(stats: &str, key: &str) -> Option<u64> {
        stats
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix(&format!("{key}=")))
            .and_then(|v| v.parse().ok())
    }

    /// `METRICS` → the Prometheus text-exposition payload. Text-protocol
    /// only.
    pub fn metrics(&mut self) -> ClientResult<String> {
        round_trip!(self, Request::Metrics, Response::Metrics(payload) => payload)
    }

    /// `LOGTAIL n` → the last `n` buffered log events, rendered in the
    /// server's configured format (`n = 0`: the whole ring buffer).
    /// Text-protocol only.
    pub fn logtail(&mut self, n: usize) -> ClientResult<String> {
        round_trip!(self, Request::Logtail(n), Response::Logtail(payload) => payload)
    }

    /// `SPANS n` → the `n` slowest recent request spans with their
    /// per-phase timings (`n = 0`: the whole flight recorder).
    /// Text-protocol only.
    pub fn spans(&mut self, n: usize) -> ClientResult<String> {
        round_trip!(self, Request::Spans(n), Response::Spans(payload) => payload)
    }

    /// `TRACE id` → tags every subsequent request on this connection
    /// with `id` in the server's log ring (0 clears). Works in both
    /// protocols.
    pub fn trace(&mut self, id: u64) -> ClientResult<()> {
        round_trip!(self, Request::Trace(id), Response::Ok => ())
    }

    /// `SNAPSHOT path` → bytes written server-side. Text-protocol only
    /// (admin commands stay on the text plane).
    pub fn snapshot(&mut self, path: &str) -> ClientResult<u64> {
        round_trip!(self, Request::Snapshot(path.to_string()), Response::Count(n) => n)
    }

    /// Binary `SNAPSHOT` → the server's checkpoint bytes, fetched
    /// inline over the wire. Binary-protocol only.
    pub fn snapshot_fetch(&mut self) -> ClientResult<Vec<u8>> {
        round_trip!(self, Request::SnapshotFetch, Response::Snapshot(bytes) => bytes)
    }

    /// `MAP` → the node's current partition map. Works in both
    /// protocols.
    pub fn map(&mut self) -> ClientResult<PartitionMap> {
        let wire = round_trip!(self, Request::Map, Response::Map(wire) => wire)?;
        PartitionMap::from_wire(&wire).map_err(ClientError::Protocol)
    }

    /// `MAPSET` → pushes a partition map to the node; returns the
    /// version it runs afterwards. Text-protocol only.
    pub fn mapset(&mut self, map: &PartitionMap) -> ClientResult<u64> {
        round_trip!(self, Request::MapSet(map.clone()), Response::Count(version) => version)
    }

    /// `MIGRATE slice target` → hands a slice to another node; returns
    /// the bumped map version. Text-protocol only.
    pub fn migrate(&mut self, slice: u32, target: u32) -> ClientResult<u64> {
        round_trip!(self, Request::Migrate { slice, target }, Response::Count(version) => version)
    }

    /// `ADOPT` → ships `bytes` for `slice` to the node: the frequency of
    /// each object of the slice (`slice, slice + S, …`), 8 little-endian
    /// bytes each. Returns the tuple count the node applied to match
    /// them. Text header, raw binary body. Text-protocol only.
    pub fn adopt(&mut self, slice: u32, version: u64, bytes: &[u8]) -> ClientResult<u64> {
        let req = Request::AdoptFrame {
            slice,
            version,
            body: bytes.to_vec(),
        };
        round_trip!(self, req, Response::Count(applied) => applied)
    }

    /// `PROMOTE` → the `(lsn, epoch)` the (former) replica was promoted
    /// at — its applied LSN and the freshly bumped generation. Errors
    /// with `ERR not a replica` on other servers. Text-protocol only.
    pub fn promote(&mut self) -> ClientResult<(u64, u64)> {
        round_trip!(self, Request::Promote, Response::Promoted { lsn, epoch } => (lsn, epoch))
    }

    /// `QUIT`: closes this connection politely.
    pub fn quit(mut self) -> ClientResult<()> {
        round_trip!(self, Request::Quit, Response::Bye => ())
    }

    /// `SHUTDOWN`: asks the whole server to drain and stop.
    pub fn shutdown_server(mut self) -> ClientResult<()> {
        round_trip!(self, Request::Shutdown, Response::Bye => ())
    }
}
