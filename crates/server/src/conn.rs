//! Per-connection non-blocking state machine: one request core behind
//! two wire codecs.
//!
//! An event-loop worker owns many [`Conn`]s. Each tick it `fill`s the
//! read buffer from the socket (bounded per tick for fairness),
//! `process`es as many complete frames as the buffer holds, and
//! flushes the write buffer back out. Every frame, text or binary,
//! runs through the same steps:
//!
//! 1. **decode** — the connection's codec ([`protocol::TextDecoder`]
//!    or [`bin_proto::decode`]) turns bytes into a [`Request`], timed
//!    as the span's `parse` phase. Text `BATCH` lines and `ADOPT`
//!    bytes accumulate in the text decoder and come out as one
//!    complete request, so a body spread over several reads is still
//!    one span; its clock starts at the first byte the decoder took.
//! 2. **execute** — [`Conn::execute`] serves the request: each verb's
//!    semantics (write gates, universe and cluster-ownership checks,
//!    flush-before-read, owned-shard queries, counters) are written once,
//!    for both protocols.
//! 3. **encode** — the reply goes through the connection's codec into
//!    the write buffer, and `finish_request` seals the span, timing
//!    execute and encode together as `apply`.
//!
//! Replies accumulate in the write buffer; when a slow reader lets it
//! grow past [`WBUF_PAUSE`], the parser pauses (and the worker drops
//! read interest) until the backlog drains — per-connection
//! backpressure instead of unbounded memory.
//!
//! Acked tuples always reach the backend (the worker drains `pending`
//! however the connection ends), a `BATCH` cut off mid-body is dropped
//! whole, `QUIT`/`SHUTDOWN` flush before `BYE`, and a validated
//! `REPLICATE` detaches the raw stream (plus any pipelined leftover
//! bytes) to a dedicated thread.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sprofile::{SProfile, Tuple};
use sprofile_concurrent::ShardedProfile;
use sprofile_obs::span::{Phase, Span};
use sprofile_obs::{log, Level};
use sprofile_persist::slice_snapshot_bytes;

use crate::backend;
use crate::bin_proto;
use crate::client::Client;
use crate::cluster;
use crate::metrics::Verb;
use crate::protocol::{self, Decoded, Request, Response, TextDecoder, WireProto};
use crate::server::{flush_pending, resolve_snapshot_path, Shared};

/// Pause parsing when the un-flushed write buffer exceeds this.
pub(crate) const WBUF_PAUSE: usize = 1 << 20;
/// Read at most this much per tick, so one firehose connection cannot
/// starve its siblings on the same worker.
const READ_BUDGET: usize = 256 * 1024;
/// One socket read's size.
const READ_CHUNK: usize = 16 * 1024;
/// A frame (text line, or binary frame header + payload) that still
/// isn't complete past this much buffered input is hostile — the
/// protocol's own `MAX_BATCH` cap keeps every legitimate frame far
/// smaller.
const MAX_FRAME_BYTES: usize = 8 << 20;

/// The refusal every write gets once the WAL has fail-stopped.
const WAL_FAILED: &str = "wal failed; writes refused (fail over or restart)";

/// Saturating whole microseconds in `d`.
fn micros(d: Duration) -> u64 {
    d.as_micros().min(u64::MAX as u128) as u64
}

/// The span phases stamped *inside* the apply window (by
/// [`flush_pending`] and the migration fan-out) — subtracted from the
/// apply window's wall-clock time so [`Phase::Apply`] excludes them and
/// the phases stay a partition of the total.
const SUB_PHASES: [Phase; 5] = [
    Phase::WalLockWait,
    Phase::WalAppend,
    Phase::Fsync,
    Phase::CommitWait,
    Phase::Fanout,
];

/// Microseconds `span` has accumulated in the [`SUB_PHASES`].
fn sub_phase_us(span: &Span) -> u64 {
    SUB_PHASES.iter().map(|&p| span.get(p)).sum()
}

/// What `process` asks of the worker.
pub(crate) enum Flow {
    /// Keep the connection registered.
    Continue,
    /// Input side is finished (QUIT, EOF, fatal error): close once the
    /// write buffer drains.
    Done,
    /// Validated `REPLICATE`: detach to a dedicated stream thread.
    Stream {
        /// First LSN the replica wants shipped.
        start_lsn: u64,
        /// Highest epoch the replica has followed.
        epoch: u64,
    },
}

/// One decode-execute-encode step.
enum Step {
    /// Consumed input and/or produced output; go again.
    Progress,
    /// The next frame is incomplete; wait for more bytes.
    NeedMore,
    /// Validated `REPLICATE`.
    Stream { start_lsn: u64, epoch: u64 },
}

/// The request being decoded or served: its clock, started by the
/// first decode that consumed any of its bytes, and the profiling span
/// accumulating its per-phase timings.
struct Inflight {
    /// Set once the frame decodes to a request that has a latency
    /// histogram.
    verb: Option<Verb>,
    t0: Instant,
    /// Per-phase microsecond accumulator; sealed by `finish_request`
    /// into the phase histograms and the flight recorder.
    span: Span,
    /// Frame size (batch tuple count / adopt body bytes; 0 otherwise),
    /// for the slow-op event.
    items: u64,
}

/// One client connection owned by an event-loop worker.
pub(crate) struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    rpos: usize,
    wbuf: Vec<u8>,
    wpos: usize,
    /// Acked-but-unflushed tuples; the worker drains these whenever and
    /// however the connection ends.
    pub(crate) pending: Vec<Tuple>,
    proto: WireProto,
    /// Text codec state (a `BATCH`/`ADOPT` body in progress).
    text: TextDecoder,
    /// Server-unique connection id, for log correlation.
    pub(crate) id: u64,
    /// Sticky trace id set by `TRACE <id>` (0 = untraced). Stamped on
    /// every event this connection's requests emit, noted with the
    /// replication source on flush, and forwarded on `MIGRATE` hops.
    pub(crate) trace: u64,
    inflight: Option<Inflight>,
    /// When the oldest unparsed bytes arrived — the next request's
    /// [`Phase::Queue`] wait. Set by `fill`, consumed when a request's
    /// clock starts.
    queued_at: Option<Instant>,
    eof: bool,
    done: bool,
}

impl Conn {
    /// Wraps an accepted (already non-blocking) stream; every
    /// connection starts in the text protocol.
    pub(crate) fn new(stream: TcpStream, flush_every: usize, id: u64) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            rpos: 0,
            wbuf: Vec::new(),
            wpos: 0,
            pending: Vec::with_capacity(flush_every),
            proto: WireProto::Text,
            text: TextDecoder::default(),
            id,
            trace: 0,
            inflight: None,
            queued_at: None,
            eof: false,
            done: false,
        }
    }

    /// Unsent reply bytes.
    pub(crate) fn wants_write(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    /// Backpressure: stop parsing (and reading) until the peer drains
    /// some of the reply backlog.
    pub(crate) fn paused(&self) -> bool {
        self.wbuf.len() - self.wpos > WBUF_PAUSE
    }

    /// Input side finished; close once the write buffer drains.
    pub(crate) fn finished(&self) -> bool {
        self.done
    }

    /// Whether this connection has work to do even without a fresh
    /// readiness event (buffered replies, unparsed input, or a close
    /// waiting on the write buffer).
    pub(crate) fn wants_step(&self) -> bool {
        self.wants_write() || self.done || self.rpos < self.rbuf.len()
    }

    /// Reads whatever the socket has, up to the per-tick budget.
    /// Returns whether the budget was exhausted (the fairness throttle
    /// engaged — the worker counts those ticks). Transport errors mark
    /// EOF and propagate — the caller closes, and the worker drains
    /// `pending` (those tuples were already acked).
    pub(crate) fn fill(&mut self) -> io::Result<bool> {
        let mut total = 0usize;
        while !self.eof && total < READ_BUDGET {
            // Don't buffer unboundedly ahead of the parser.
            if self.rbuf.len() - self.rpos > MAX_FRAME_BYTES {
                break;
            }
            let old = self.rbuf.len();
            self.rbuf.resize(old + READ_CHUNK, 0);
            match self.stream.read(&mut self.rbuf[old..]) {
                Ok(0) => {
                    self.rbuf.truncate(old);
                    self.eof = true;
                }
                Ok(n) => {
                    self.rbuf.truncate(old + n);
                    total += n;
                    // The queue clock starts when input lands, so the
                    // next request's span sees its pre-parse wait.
                    self.queued_at.get_or_insert_with(Instant::now);
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    self.rbuf.truncate(old);
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                    self.rbuf.truncate(old);
                }
                Err(e) => {
                    self.rbuf.truncate(old);
                    self.eof = true;
                    return Err(e);
                }
            }
        }
        Ok(total >= READ_BUDGET)
    }

    /// Writes buffered replies until the socket would block.
    pub(crate) fn flush_socket(&mut self) -> io::Result<()> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.wpos += n,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos > 64 * 1024 {
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
        Ok(())
    }

    /// Best-effort synchronous flush of the remaining reply bytes, used
    /// on shutdown so a final `BYE` still reaches the client.
    pub(crate) fn blocking_flush(&mut self, timeout: std::time::Duration) {
        if !self.wants_write() {
            return;
        }
        if self.stream.set_nonblocking(false).is_err() {
            return;
        }
        self.stream.set_write_timeout(Some(timeout)).ok();
        let _ = self.stream.write_all(&self.wbuf[self.wpos..]);
        let _ = self.stream.flush();
        self.wbuf.clear();
        self.wpos = 0;
    }

    /// Dismantles the connection for replication-stream handoff: the
    /// raw stream, any bytes read past the `REPLICATE` line (a replica
    /// may pipeline its first ACK), and any unsent reply bytes.
    pub(crate) fn into_stream_parts(self) -> (TcpStream, Vec<u8>, Vec<u8>) {
        let leftover = self.rbuf[self.rpos..].to_vec();
        let unsent = self.wbuf[self.wpos..].to_vec();
        (self.stream, leftover, unsent)
    }

    /// Decodes and serves as many complete frames as the read buffer
    /// holds. Never blocks; backend applies and queries run inline.
    pub(crate) fn process(&mut self, backend: &ShardedProfile, shared: &Arc<Shared>) -> Flow {
        loop {
            if self.done {
                return Flow::Done;
            }
            if shared.stopping() {
                // The worker is about to drain and exit; don't start
                // serving fresh requests.
                return Flow::Continue;
            }
            if self.paused() {
                return Flow::Continue;
            }
            let step = self.step(backend, shared);
            self.compact_rbuf();
            match step {
                Step::Progress => {}
                Step::NeedMore => {
                    if self.eof {
                        // A partial trailing frame (including a BATCH
                        // cut off mid-body) is dropped whole.
                        return Flow::Done;
                    }
                    if self.rbuf.len() - self.rpos > MAX_FRAME_BYTES {
                        self.send(shared, &Response::Err("frame too large".into()));
                        self.done = true;
                        return Flow::Done;
                    }
                    return Flow::Continue;
                }
                Step::Stream { start_lsn, epoch } => return Flow::Stream { start_lsn, epoch },
            }
        }
    }

    fn compact_rbuf(&mut self) {
        if self.rpos == self.rbuf.len() {
            self.rbuf.clear();
            self.rpos = 0;
        } else if self.rpos >= 1 << 16 {
            self.rbuf.drain(..self.rpos);
            self.rpos = 0;
        }
    }

    /// One frame through decode → [`Conn::execute`] → encode, the same
    /// steps for both protocols.
    fn step(&mut self, backend: &ShardedProfile, shared: &Arc<Shared>) -> Step {
        if self.rpos == self.rbuf.len() {
            return Step::NeedMore;
        }
        let t = Instant::now();
        let (used, decoded) = match self.proto {
            WireProto::Text => self.text.decode(&self.rbuf[self.rpos..], self.eof),
            WireProto::Bin => bin_proto::decode(&self.rbuf[self.rpos..]),
        };
        self.rpos += used;
        let decoded_at = Instant::now();
        let req = match decoded {
            Decoded::Request(req) => Some(req),
            Decoded::Incomplete => None,
            // Neither starts a request: no span, and the queue wait the
            // line held is over.
            Decoded::Blank => {
                self.queued_at = None;
                return Step::Progress;
            }
            Decoded::Malformed { msg, fatal } => {
                self.queued_at = None;
                self.send(shared, &Response::Err(msg));
                self.done |= fatal;
                return Step::Progress;
            }
        };
        if used > 0 && self.inflight.is_none() {
            // A request's clock starts at the first decode that took any
            // of its bytes; its queue wait ends there, so the phases stay
            // disjoint.
            let queued = self
                .queued_at
                .take()
                .map_or(Duration::ZERO, |q| t.duration_since(q));
            let mut span = Span::new("", self.trace, self.id);
            span.add(Phase::Queue, micros(queued));
            self.inflight = Some(Inflight {
                verb: None,
                t0: t,
                span,
                items: 0,
            });
        }
        if let Some(inf) = self.inflight.as_mut() {
            inf.span
                .add(Phase::Parse, micros(decoded_at.duration_since(t)));
        }
        let Some(req) = req else {
            return Step::NeedMore;
        };
        // Lifecycle verbs (QUIT, SHUTDOWN, BIN, REPLICATE) have no
        // latency histogram: their span is dropped here.
        match (Verb::of(&req), self.inflight.as_mut()) {
            (Some(verb), Some(inf)) => {
                inf.verb = Some(verb);
                inf.span.set_label(verb.name());
            }
            _ => self.inflight = None,
        }
        let sub0 = self
            .inflight
            .as_ref()
            .map_or(0, |inf| sub_phase_us(&inf.span));
        let reply = self
            .execute(req, backend, shared)
            .unwrap_or_else(Response::Err);
        if let Response::Stream { start_lsn, epoch } = reply {
            return Step::Stream { start_lsn, epoch };
        }
        self.send(shared, &reply);
        self.finish_request(shared, decoded_at, sub0);
        Step::Progress
    }

    /// Encodes `reply` in the connection's protocol (an `ERR` is
    /// counted in `errors`).
    fn send(&mut self, shared: &Shared, reply: &Response) {
        if matches!(reply, Response::Err(_)) {
            shared.metrics.errors.inc();
        }
        match self.proto {
            WireProto::Text => protocol::encode(&mut self.wbuf, reply),
            WireProto::Bin => bin_proto::encode(&mut self.wbuf, reply),
        }
    }

    /// [`flush_pending`] with this connection's trace id attached and
    /// the in-flight request's span (if any) receiving the durability
    /// sub-phase breakdown.
    fn flush_now(&mut self, backend: &ShardedProfile, shared: &Shared) {
        let span = self.inflight.as_mut().map(|inf| &mut inf.span);
        flush_pending(&mut self.pending, backend, shared, self.trace, span);
    }

    fn flush_if_due(&mut self, backend: &ShardedProfile, shared: &Shared) {
        if self.pending.len() >= shared.flush_every {
            self.flush_now(backend, shared);
        }
    }

    /// Records the frame size the slow-op event reports.
    fn frame_items(&mut self, n: usize) {
        if let Some(inf) = self.inflight.as_mut() {
            inf.items = n as u64;
        }
    }

    /// A read query sees this connection's own writes: flush them, then
    /// count the query.
    fn begin_query(&mut self, backend: &ShardedProfile, shared: &Shared) {
        self.flush_now(backend, shared);
        shared.metrics.queries.inc();
    }

    /// Closes out the in-flight request's timing. The window since
    /// `apply_start` — executing the request and encoding its reply —
    /// goes to [`Phase::Apply`], minus the sub-phase microseconds accrued
    /// inside it (`sub_before` was sampled at `apply_start`), so
    /// WAL/commit/fan-out time is not counted twice. The span is then
    /// sealed (reply residual absorbs unstamped time) and fed to the
    /// per-verb and per-phase histograms plus the flight recorder; the
    /// slow-op check logs the phase breakdown; a traced connection gets
    /// a `trace`-target event. No-op when nothing is in flight.
    fn finish_request(&mut self, shared: &Shared, apply_start: Instant, sub_before: u64) {
        let Some(Inflight {
            verb: Some(verb),
            t0,
            mut span,
            items,
        }) = self.inflight.take()
        else {
            return;
        };
        let now = Instant::now();
        let sub_delta = sub_phase_us(&span).saturating_sub(sub_before);
        let apply_us = micros(now.duration_since(apply_start)).saturating_sub(sub_delta);
        span.add(Phase::Apply, apply_us);
        // The total covers queue wait too: the span's phases partition
        // it exactly (queue accrued before `t0`, everything else after).
        let total_us = micros(now.duration_since(t0)).saturating_add(span.get(Phase::Queue));
        shared.verb_us.record(verb, total_us);
        let rec = span.finish(total_us);
        shared.phase_us.record_span(&rec);
        if shared.slow_us.is_some_and(|slow| total_us >= slow) {
            log!(
                shared.obs,
                Level::Warn,
                "slow",
                "slow op";
                trace = self.trace,
                verb = verb.name(),
                total_us = total_us,
                items = items,
                conn = self.id,
                phases = rec.render_phases(),
            );
        }
        if self.trace != 0 {
            log!(
                shared.obs,
                Level::Info,
                "trace",
                "request";
                trace = self.trace,
                verb = verb.name(),
                total_us = total_us,
                conn = self.id,
            );
        }
        shared.spans.record(rec);
    }

    /// Serves one decoded request — every verb's semantics, written
    /// once for both wire protocols. `Err` is the message of the `ERR`
    /// reply.
    fn execute(
        &mut self,
        req: Request,
        backend: &ShardedProfile,
        shared: &Arc<Shared>,
    ) -> Result<Response, String> {
        Ok(match req {
            Request::Add(id) | Request::Remove(id) => {
                writable(shared)?;
                in_universe(shared, id)?;
                owns_all(shared, [id])?;
                let is_add = matches!(req, Request::Add(_));
                if is_add {
                    shared.metrics.ops_add.inc();
                } else {
                    shared.metrics.ops_remove.inc();
                }
                self.pending.push(Tuple { object: id, is_add });
                self.flush_if_due(backend, shared);
                Response::Ok
            }
            Request::BatchFrame { count, tuples, bad } => {
                self.frame_items(count);
                // A frame with any bad tuple is refused whole; the first
                // bad one in frame order names the error.
                writable(shared)?;
                for (i, t) in tuples.iter().enumerate() {
                    in_universe(shared, t.object).map_err(|e| format!("tuple {}: {e}", i + 1))?;
                }
                if let Some(msg) = bad {
                    return Err(msg);
                }
                owns_all(shared, tuples.iter().map(|t| t.object))?;
                shared.metrics.ops_batch.inc();
                shared.metrics.batch_tuples.add(count as u64);
                self.pending.extend_from_slice(&tuples);
                self.flush_if_due(backend, shared);
                Response::Count(count as u64)
            }
            Request::Mode => {
                self.begin_query(backend, shared);
                Response::Mode(backend.mode_in(query_shards(shared)))
            }
            Request::Least => {
                self.begin_query(backend, shared);
                Response::Least(backend.least_in(query_shards(shared)))
            }
            Request::Freq(id) => {
                in_universe(shared, id)?;
                if let Some(cs) = &shared.cluster {
                    if !cs.mask().owned(id) {
                        return Err(cs.moved_msg());
                    }
                }
                self.begin_query(backend, shared);
                Response::Freq(id, backend.frequency(id))
            }
            Request::Median => {
                self.begin_query(backend, shared);
                Response::Median(backend.median_in(query_shards(shared)))
            }
            Request::TopK(k) => {
                self.begin_query(backend, shared);
                // Clamp so a hostile k cannot force an over-allocation
                // in the per-shard merge.
                let k = k.min(shared.m);
                Response::TopK(match &shared.cluster {
                    // A node's reply over-fetches the tie class at its
                    // cut; the router sorts the node lists together and
                    // truncates.
                    Some(cs) => backend.top_k_with_ties_in(cs.owned_shards(), k),
                    None => backend.top_k(k),
                })
            }
            Request::Cal(threshold) => {
                self.begin_query(backend, shared);
                Response::Cal(backend.count_at_least_in(query_shards(shared), threshold))
            }
            Request::Stats => {
                self.flush_now(backend, shared);
                Response::Stats(crate::prom::stats(shared))
            }
            Request::Metrics => {
                // Flush first, like STATS, so the exposition and a STATS
                // taken in the same quiesced instant agree.
                self.flush_now(backend, shared);
                Response::Metrics(crate::prom::render(shared))
            }
            Request::Logtail(n) => Response::Logtail(shared.obs.tail(n)),
            Request::Spans(n) => Response::Spans(shared.spans.render(n)),
            Request::Trace(id) => {
                self.trace = id;
                if id != 0 {
                    log!(
                        shared.obs,
                        Level::Info,
                        "trace",
                        "begin";
                        trace = id,
                        conn = self.id,
                    );
                }
                Response::Ok
            }
            Request::Snapshot(path) => {
                let target = resolve_snapshot_path(&shared.snapshot_dir, &path)
                    .ok_or("snapshot path must be relative, without '..' components")?;
                let bytes = self.checkpoint(backend, shared)?;
                std::fs::write(&target, &bytes)
                    .map_err(|e| format!("snapshot write failed: {e}"))?;
                shared.metrics.snapshots.inc();
                Response::Count(bytes.len() as u64)
            }
            Request::SnapshotFetch => {
                let bytes = self.checkpoint(backend, shared)?;
                shared.metrics.snapshots.inc();
                Response::Snapshot(bytes)
            }
            Request::Replicate { start_lsn, epoch } => {
                self.flush_now(backend, shared);
                if shared.readonly() {
                    return Err("readonly replica cannot serve replication".into());
                }
                if shared.repl.source.is_none() {
                    return Err("replication requires --wal".into());
                }
                Response::Stream { start_lsn, epoch }
            }
            Request::Promote => {
                self.flush_now(backend, shared);
                let replica = shared.repl.replica.as_ref().ok_or("not a replica")?;
                // Stop pulling from the (possibly dead) primary, open a
                // new generation, then open the write path. Idempotent:
                // a second PROMOTE reports the same position and epoch
                // (only the first one bumps).
                let already = replica.promoted.load(Ordering::Acquire);
                replica.stop_applier();
                let epoch = match &shared.durability {
                    Some(d) if already => d.epoch(),
                    // A failed marker write (disk) refuses the promotion
                    // rather than open a generation a restart would
                    // forget.
                    Some(d) => d.bump_epoch(replica.stats.epoch())?,
                    None => replica.stats.epoch().max(1),
                };
                replica.promoted.store(true, Ordering::Release);
                shared.readonly.store(false, Ordering::Release);
                let lsn = replica.stats.applied_lsn();
                Response::Promoted { lsn, epoch }
            }
            Request::Map => Response::Map(cluster_node(shared)?.wire()),
            Request::MapSet(map) => Response::Count(cluster_node(shared)?.install(map)?),
            Request::Migrate { slice, target } => {
                Response::Count(self.migrate(slice, target, backend, shared)?)
            }
            Request::AdoptFrame { slice, body, .. } => {
                self.frame_items(body.len());
                Response::Count(self.adopt(slice, &body, backend, shared)?)
            }
            // Headers only: the text decoder reads their bodies and hands
            // over the complete frames.
            Request::Batch(_) | Request::Adopt { .. } => {
                return Err("frame header without its body".into())
            }
            Request::BinUpgrade => {
                // Everything after the `OK BIN` line, in either
                // direction, is binary.
                self.proto = WireProto::Bin;
                Response::Upgraded
            }
            Request::Quit => {
                // Flush before BYE: a client that saw BYE may assume its
                // writes are applied (the agreement tests rely on it).
                self.flush_now(backend, shared);
                self.done = true;
                Response::Bye
            }
            Request::Shutdown => {
                self.flush_now(backend, shared);
                shared.trigger_stop();
                self.done = true;
                Response::Bye
            }
        })
    }

    /// Flushes this connection's writes and returns the backend's
    /// checkpoint bytes, round-trip-validated: a backend bug producing
    /// corrupt bytes is a protocol `ERR`, not a worker-thread panic.
    fn checkpoint(&mut self, backend: &ShardedProfile, shared: &Shared) -> Result<Vec<u8>, String> {
        self.flush_now(backend, shared);
        backend::validated_snapshot_bytes(backend)
            .map_err(|e| format!("snapshot validation failed: {e}"))
    }

    /// The migration sink: turns a shipped key-filtered snapshot into a
    /// per-object delta against the local state and applies it through
    /// the normal write path — WAL-logged and auto-replicated to this
    /// node's replicas, exactly like client writes. Idempotent: adopting
    /// the same snapshot twice produces an empty second delta, which is
    /// what lets the migration source re-ship until convergence.
    fn adopt(
        &mut self,
        slice: u32,
        body: &[u8],
        backend: &ShardedProfile,
        shared: &Shared,
    ) -> Result<u64, String> {
        let cs = cluster_node(shared)?;
        writable(shared)?;
        let slices = cs.slices();
        if slice >= slices {
            return Err(format!("slice {slice} out of range"));
        }
        let shipped = SProfile::from_snapshot_bytes(body)
            .map_err(|e| format!("ADOPT snapshot invalid: {e}"))?;
        if shipped.num_objects() != shared.m {
            return Err(format!(
                "ADOPT universe mismatch: snapshot m={}, server m={}",
                shipped.num_objects(),
                shared.m
            ));
        }
        // Flush local writes before diffing against the state.
        self.flush_now(backend, shared);
        let current = backend.merged_frequencies();
        let mut delta: Vec<Tuple> = Vec::new();
        for x in (slice..shared.m).step_by(slices.max(1) as usize) {
            let have = current[x as usize];
            let want = shipped.frequency(x);
            let is_add = want > have;
            for _ in 0..want.abs_diff(have) {
                delta.push(Tuple { object: x, is_add });
            }
        }
        for chunk in delta.chunks(protocol::MAX_BATCH) {
            self.pending.extend_from_slice(chunk);
            self.flush_now(backend, shared);
        }
        Ok(delta.len() as u64)
    }

    /// The migration source: ships `slice` to `target` (bulk `ADOPT`),
    /// flips the local map (new writes for the slice are refused with
    /// the bumped version from that point), re-ships until the slice is
    /// stable, and finally pushes the new map to the target. Runs
    /// inline on the event-loop worker — an admin operation, not a data
    /// path. Global queries racing the window between the flip and the
    /// target's `MAPSET` may exclude the migrating slice; routers treat
    /// `MIGRATE` as a barrier.
    fn migrate(
        &mut self,
        slice: u32,
        target: u32,
        backend: &ShardedProfile,
        shared: &Shared,
    ) -> Result<u64, String> {
        let cs = cluster_node(shared)?;
        writable(shared)?;
        let owner = cs
            .owner_of_slice(slice)
            .ok_or_else(|| format!("slice {slice} out of range ({})", cs.slices()))?;
        if owner != cs.node() {
            return Err(format!(
                "slice {slice} is owned by node {owner}, not this node"
            ));
        }
        if target == cs.node() {
            return Err("target is this node".into());
        }
        let addr = cs
            .node_addr(target)
            .ok_or_else(|| format!("target node {target} out of range"))?;
        self.flush_now(backend, shared);
        let slices = cs.slices();
        // Everything from here to the map handoff is cross-node work:
        // the window lands in the span's fan-out phase (success path;
        // an error returns before the stamp and stays in apply).
        let t_fanout = Instant::now();
        let mut client = Client::connect(&addr).map_err(|e| format!("connect to {addr}: {e}"))?;
        // Propagate this connection's trace id across the migration hop,
        // so the target's ring records the ADOPTs under the same id.
        if self.trace != 0 {
            client
                .trace(self.trace)
                .map_err(|e| format!("TRACE on {addr}: {e}"))?;
            log!(
                shared.obs,
                Level::Info,
                "trace",
                "migrate";
                trace = self.trace,
                slice = slice,
                target = addr,
            );
        }
        // Bulk ship while still owning the slice (writes keep flowing).
        let mut shipped = slice_snapshot_bytes(&backend.merged_frequencies(), slices, slice);
        client
            .adopt(slice, cs.version(), &shipped)
            .map_err(|e| format!("bulk ADOPT: {e}"))?;
        // Flip: from here, writes for the slice get `ERR moved <v+1>`.
        let new_version = cs.flip_owner(slice, target)?;
        // Catch-up: frames accepted before the flip may still land after
        // the bulk read; re-ship (idempotent deltas) until stable. With
        // `flush_every` 1 every acked tuple is visible by the time its
        // OK went out, so a stable re-read means nothing acked is
        // missing.
        for _ in 0..100 {
            let now = slice_snapshot_bytes(&backend.merged_frequencies(), slices, slice);
            if now == shipped {
                break;
            }
            client
                .adopt(slice, new_version, &now)
                .map_err(|e| format!("catch-up ADOPT: {e}"))?;
            shipped = now;
            std::thread::sleep(Duration::from_millis(2));
        }
        // Hand the flipped map to the new owner; everyone else learns
        // from `ERR moved` redirects.
        client
            .mapset(&cs.current_map())
            .map_err(|e| format!("MAPSET on target: {e}"))?;
        let _ = client.quit();
        if let Some(inf) = self.inflight.as_mut() {
            inf.span.add(Phase::Fanout, micros(t_fanout.elapsed()));
        }
        cs.migrations.inc();
        Ok(new_version)
    }
}

/// The write gate: a replica (until `PROMOTE`) and a fail-stopped WAL
/// refuse every write.
fn writable(shared: &Shared) -> Result<(), String> {
    if shared.readonly() {
        Err("readonly".into())
    } else if shared.wal_failed() {
        Err(WAL_FAILED.into())
    } else {
        Ok(())
    }
}

fn in_universe(shared: &Shared, id: u32) -> Result<(), String> {
    if id < shared.m {
        Ok(())
    } else {
        Err(format!("object {id} outside universe [0, {})", shared.m))
    }
}

/// The cluster ownership gate for writes: a frame touching any object
/// this node does not own is refused whole with the typed
/// `ERR moved <ver>` redirect — partially applying a frame would make
/// retries non-idempotent.
fn owns_all(shared: &Shared, objects: impl IntoIterator<Item = u32>) -> Result<(), String> {
    if let Some(cs) = &shared.cluster {
        let mask = cs.mask();
        if !objects.into_iter().all(|x| mask.owned(x)) {
            cs.moved_rejects.inc();
            return Err(cs.moved_msg());
        }
    }
    Ok(())
}

/// The shards a query answers over: all of them on a standalone server,
/// the ones inside the owned slices on a cluster node.
fn query_shards(shared: &Shared) -> impl Fn(usize) -> bool {
    let owned = shared
        .cluster
        .as_ref()
        .map(cluster::ClusterState::owned_shards);
    move |s| owned.as_ref().is_none_or(|owns| owns(s))
}

/// This node's cluster state; `ERR not a cluster node` on a standalone
/// server.
fn cluster_node(shared: &Shared) -> Result<&cluster::ClusterState, String> {
    shared
        .cluster
        .as_ref()
        .ok_or_else(|| "not a cluster node".into())
}
