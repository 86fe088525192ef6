//! The primary side: serving one replica's `REPLICATE` stream out of
//! the live WAL.
//!
//! A stream has two regimes, stitched together without gap or overlap by
//! subscribing to the WAL tail *under the WAL lock*:
//!
//! 1. **Catch-up** — records below the subscription point are fully
//!    flushed segment files; they are read back with
//!    [`SegmentReader`] (never re-parsing in-flight appends). If the
//!    requested LSN is older than the oldest retained segment, the
//!    stream opens with a `CKPT` bootstrap from the newest valid
//!    checkpoint instead.
//! 2. **Live tailing** — records at or past the subscription point
//!    arrive on the tail channel as they are committed. A receiver that
//!    lags more than [`TAIL_CAPACITY`](sprofile_persist::TAIL_CAPACITY)
//!    records is disconnected by the WAL, and the stream transparently
//!    re-subscribes and catches up from the files again.
//!
//! Acknowledgements are read off the socket by a separate thread (the
//! server owns the socket; see [`AckState`]) and folded into the
//! [`ReplicaRegistry`] so checkpoint pruning never deletes segments the
//! slowest replica still needs.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{RecvTimeoutError, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sprofile_obs::hist::AtomicLogHistogram;
use sprofile_persist::{
    newest_checkpoint, PersistError, ReplicaRegistry, SegmentReader, TailRecord, Wal, WalMetrics,
};

use crate::frame;

/// How long the live-tail loop waits for a record before flushing and
/// re-checking the stop/ack state.
const TAIL_POLL: Duration = Duration::from_millis(25);

/// How often an idle stream repeats its `EPOCH` heartbeat — the liveness
/// signal replicas' failover promoters watch (measured in consecutive
/// [`TAIL_POLL`] timeouts: 8 × 25 ms = 200 ms).
const HEARTBEAT_TIMEOUTS: u32 = 8;

/// Most recent LSN→trace annotations retained for shipping. Traces are
/// best-effort observability: an annotation evicted before its record
/// ships (a replica catching up from far behind) is simply not
/// propagated, never an error.
const TRACE_TABLE_CAPACITY: usize = 512;

/// Most recent shipped-but-unacknowledged records tracked per stream
/// for ack-latency sampling. When a replica falls further behind than
/// this, the oldest samples are dropped (best-effort observability,
/// never backpressure).
const ACK_WINDOW_CAPACITY: usize = 1024;

/// Shipping counters for `STATS` (`repl_records` / `repl_bytes` /
/// `fenced_rejects`) plus the ship→ack round-trip histogram.
#[derive(Debug, Default)]
pub struct SourceMetrics {
    records: AtomicU64,
    bytes: AtomicU64,
    fenced_rejects: AtomicU64,
    ack_latency_us: AtomicLogHistogram,
}

impl SourceMetrics {
    /// Records shipped to replicas (all streams, lifetime).
    pub fn records(&self) -> u64 {
        self.records.load(Ordering::Relaxed)
    }

    /// Bytes shipped to replicas (headers + payloads, including
    /// checkpoint bootstraps). `EPOCH` heartbeats are not data and are
    /// not counted.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Streams refused because the replica had followed a newer epoch
    /// than this primary's — each one is a fenced-out stale head being
    /// told so.
    pub fn fenced_rejects(&self) -> u64 {
        self.fenced_rejects.load(Ordering::Relaxed)
    }

    /// Per-record ship→acknowledge round-trip latency (microseconds),
    /// sampled at ship time across all streams. Covers the socket,
    /// the replica's apply, and its `ACK` write-back.
    pub fn ack_latency_us(&self) -> &AtomicLogHistogram {
        &self.ack_latency_us
    }

    fn on_ship(&self, records: u64, bytes: u64) {
        self.records.fetch_add(records, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    fn on_fenced_reject(&self) {
        self.fenced_rejects.fetch_add(1, Ordering::Relaxed);
    }
}

/// Acknowledgement state for one replica stream, fed by whoever reads
/// the socket's replica→primary direction (see [`read_acks`]) and
/// consumed by [`ReplicationSource::stream`].
#[derive(Debug, Default)]
pub struct AckState {
    acked: AtomicU64,
    closed: AtomicBool,
}

impl AckState {
    /// A fresh state (nothing acknowledged, stream open).
    pub fn new() -> Arc<AckState> {
        Arc::new(AckState::default())
    }

    /// Records an acknowledgement (monotonic).
    pub fn ack(&self, lsn: u64) {
        self.acked.fetch_max(lsn, Ordering::Relaxed);
    }

    /// Highest acknowledged LSN seen so far.
    pub fn acked(&self) -> u64 {
        self.acked.load(Ordering::Relaxed)
    }

    /// Marks the replica's read side as gone (EOF or protocol junk);
    /// the stream loop exits on its next poll.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    /// Whether the read side reported the stream closed.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }
}

/// Reads `ACK` lines off a replica connection into `state` until EOF,
/// junk, or `stop`. Runs on its own thread (reads and writes on the
/// socket are independent); expects the usual short read timeout so the
/// stop flag stays responsive.
pub fn read_acks<R: io::BufRead>(mut reader: R, state: &AckState, stop: &dyn Fn() -> bool) {
    let mut buf = Vec::new();
    loop {
        match frame::read_line_step(&mut reader, &mut buf, stop) {
            Ok(frame::LineStep::Stopped) => return,
            Ok(frame::LineStep::Timeout) => continue,
            Ok(frame::LineStep::Eof) | Err(_) => break, // replica hung up
            Ok(frame::LineStep::Line) => {
                match frame::parse_ack(&String::from_utf8_lossy(&buf)) {
                    Some(lsn) => state.ack(lsn),
                    None => break, // protocol junk: drop the stream
                }
                buf.clear();
            }
        }
    }
    state.close();
}

/// The primary's replication source: hands each `REPLICATE` connection a
/// catch-up + live-tail stream over the shared WAL.
pub struct ReplicationSource {
    wal: Arc<Mutex<Wal>>,
    /// The WAL's shared counters — read for the head LSN without taking
    /// the WAL mutex (a checkpoint holds it across an O(m) snapshot).
    wal_metrics: Arc<WalMetrics>,
    dir: PathBuf,
    registry: Arc<ReplicaRegistry>,
    metrics: SourceMetrics,
    /// Recent LSN→trace-id annotations ([`Self::note_trace`]), shipped
    /// as `TRC` frames right after the matching `REC`.
    traces: Mutex<VecDeque<(u64, u64)>>,
}

fn to_io(e: PersistError) -> io::Error {
    match e {
        PersistError::Io(e) => e,
        other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
    }
}

impl ReplicationSource {
    /// A source over the WAL behind `wal` (the same mutex the appending
    /// server holds), whose files live in `dir`, registering replicas in
    /// `registry` (the one pruning consults).
    pub fn new(
        wal: Arc<Mutex<Wal>>,
        dir: impl Into<PathBuf>,
        registry: Arc<ReplicaRegistry>,
    ) -> ReplicationSource {
        let wal_metrics = wal.lock().expect("wal lock poisoned").metrics();
        ReplicationSource {
            wal,
            wal_metrics,
            dir: dir.into(),
            registry,
            metrics: SourceMetrics::default(),
            traces: Mutex::new(VecDeque::new()),
        }
    }

    /// Annotates the record at `lsn` with a request `trace` id, to be
    /// shipped as a `TRC` frame alongside its `REC` on every stream.
    /// Bounded (`TRACE_TABLE_CAPACITY`, oldest evicted first); a 0
    /// trace is a no-op.
    pub fn note_trace(&self, lsn: u64, trace: u64) {
        if trace == 0 {
            return;
        }
        let mut traces = self.traces.lock().expect("trace table poisoned");
        if traces.len() >= TRACE_TABLE_CAPACITY {
            traces.pop_front();
        }
        traces.push_back((lsn, trace));
    }

    /// The trace annotation for `lsn`, if still retained.
    fn trace_for(&self, lsn: u64) -> Option<u64> {
        self.traces
            .lock()
            .expect("trace table poisoned")
            .iter()
            .rev()
            .find(|&&(l, _)| l == lsn)
            .map(|&(_, t)| t)
    }

    /// Ships the `TRC` annotation for `lsn`, when one is retained.
    fn ship_trace<W: Write>(&self, writer: &mut W, lsn: u64) -> io::Result<()> {
        if let Some(trace) = self.trace_for(lsn) {
            let bytes = frame::write_trace(writer, lsn, trace)?;
            self.metrics.on_ship(0, bytes);
        }
        Ok(())
    }

    /// Shipping counters.
    pub fn metrics(&self) -> &SourceMetrics {
        &self.metrics
    }

    /// Replicas currently streaming.
    pub fn replicas(&self) -> usize {
        self.registry.len()
    }

    /// The slowest streaming replica's acknowledged LSN.
    pub fn floor(&self) -> Option<u64> {
        self.registry.floor()
    }

    /// The newest committed LSN (0: empty log). Lock-free — safe to
    /// poll from `STATS` while a checkpoint holds the WAL mutex.
    pub fn head_lsn(&self) -> u64 {
        self.wal_metrics.head_lsn()
    }

    /// This primary's replication epoch (the WAL's durable generation
    /// marker, mirrored lock-free).
    pub fn epoch(&self) -> u64 {
        self.wal_metrics.epoch()
    }

    /// Serves one replica that requested records from `start_lsn` and
    /// has followed generations up to `replica_epoch` (0: don't care):
    /// catch-up from the segment files (or a `CKPT` bootstrap when the
    /// request predates the retained log), then live tailing, until the
    /// replica disconnects ([`AckState::is_closed`]) or `stopping`
    /// returns true. Registers the replica in the retention registry for
    /// the duration of the stream.
    ///
    /// A replica that has followed a *newer* epoch than ours proves this
    /// node is a restarted stale primary: the stream is refused with an
    /// `ERR fenced: …` frame (counted in
    /// [`SourceMetrics::fenced_rejects`]). Otherwise the stream opens
    /// with an `EPOCH` greeting and repeats it as an idle heartbeat so
    /// followers can both adopt the generation and watch liveness.
    pub fn stream<W: Write>(
        &self,
        start_lsn: u64,
        replica_epoch: u64,
        writer: &mut W,
        acks: &AckState,
        stopping: &dyn Fn() -> bool,
    ) -> io::Result<()> {
        let my_epoch = self.epoch();
        if replica_epoch > my_epoch {
            self.metrics.on_fenced_reject();
            let msg = format!(
                "ERR fenced: stale primary at epoch {my_epoch}; \
                 replica has followed epoch {replica_epoch}\n"
            );
            writer.write_all(msg.as_bytes())?;
            writer.flush()?;
            return Err(io::Error::other("fenced: replica followed a newer epoch"));
        }
        frame::write_epoch(writer, my_epoch)?;
        let mut cursor = start_lsn.max(1);
        let slot = self.registry.register(cursor.saturating_sub(1));
        let reader = SegmentReader::new(&self.dir);
        let done = || stopping() || acks.is_closed();
        // Shipped-but-unacked records, oldest first, for ack-latency
        // sampling ([`SourceMetrics::ack_latency_us`]).
        let mut in_flight: VecDeque<(u64, Instant)> = VecDeque::new();
        'session: loop {
            if done() {
                return Ok(());
            }
            // Subscribe under the WAL lock: records below `sub_next` are
            // fully flushed files, records at/after arrive on the
            // channel — no gap, no overlap.
            let (sub_next, tail) = self.wal.lock().expect("wal lock poisoned").subscribe();
            // A replica claiming a position *past* our head has a longer
            // history than we do — the failback-without-fencing shape (a
            // promoted node's old primary restarting as its replica, or
            // vice versa). Refuse loudly: silently idling here would
            // report a healthy, zero-lag stream while the peer never
            // receives a record (and would mis-apply ours when our LSNs
            // eventually caught up to its divergent ones).
            if cursor > sub_next {
                let msg = format!(
                    "ERR replica position {cursor} is ahead of this primary's head {} \
                     (divergent history; wipe the replica's wal to re-sync)\n",
                    sub_next - 1
                );
                writer.write_all(msg.as_bytes())?;
                writer.flush()?;
                return Err(io::Error::other("replica ahead of primary head"));
            }
            // Bootstrap when the files no longer reach back to `cursor`.
            if cursor < sub_next
                && reader
                    .first_lsn()
                    .map_err(to_io)?
                    .is_none_or(|f| f > cursor)
            {
                let Some((ck_lsn, snap)) = newest_checkpoint(&self.dir).map_err(to_io)? else {
                    return Err(io::Error::other(
                        "records pruned and no valid checkpoint to bootstrap from",
                    ));
                };
                if ck_lsn + 1 < cursor {
                    return Err(io::Error::other(
                        "retained checkpoint predates the requested lsn",
                    ));
                }
                let bytes = frame::write_ckpt(writer, ck_lsn, &snap)?;
                self.metrics.on_ship(0, bytes);
                cursor = ck_lsn + 1;
            }
            // Catch-up from the files to the subscription point. The
            // stop/closed state is re-checked per record — a multi-GB
            // catch-up must not pin this worker past a shutdown request
            // (the abort is surfaced as an `Interrupted` sentinel that
            // unwinds the whole scan).
            if cursor < sub_next {
                let result = reader.read_range(cursor, sub_next, |lsn, _epoch, tuples| {
                    if done() {
                        return Err(PersistError::Io(io::Error::new(
                            io::ErrorKind::Interrupted,
                            "replication stream stopped mid-catch-up",
                        )));
                    }
                    // Fold acks into the retention slot *during* a long
                    // catch-up too — a replica advancing through
                    // millions of records must not look stalled to the
                    // pruning byte-budget, which would delete the very
                    // segments this scan is about to read.
                    slot.ack(acks.acked());
                    self.drain_acked(&mut in_flight, acks.acked());
                    let bytes = frame::write_rec(writer, lsn, self.head_lsn(), &tuples)
                        .map_err(PersistError::Io)?;
                    self.metrics.on_ship(1, bytes);
                    note_shipped(&mut in_flight, lsn);
                    self.ship_trace(writer, lsn).map_err(PersistError::Io)?;
                    Ok(())
                });
                match result {
                    Err(PersistError::Io(e)) if e.kind() == io::ErrorKind::Interrupted => {
                        return Ok(())
                    }
                    other => other.map_err(to_io)?,
                }
                cursor = sub_next;
            }
            writer.flush()?;
            // Live tailing. Records are written eagerly and flushed when
            // the channel momentarily empties; an idle stream repeats
            // its EPOCH heartbeat so followers can watch liveness.
            let mut idle_timeouts = 0u32;
            loop {
                slot.ack(acks.acked());
                self.drain_acked(&mut in_flight, acks.acked());
                if done() {
                    return Ok(());
                }
                let step = match tail.try_recv() {
                    Ok(rec) => {
                        idle_timeouts = 0;
                        self.ship(writer, &mut cursor, &mut in_flight, rec)?
                    }
                    Err(TryRecvError::Empty) => {
                        writer.flush()?;
                        match tail.recv_timeout(TAIL_POLL) {
                            Ok(rec) => {
                                idle_timeouts = 0;
                                self.ship(writer, &mut cursor, &mut in_flight, rec)?
                            }
                            Err(RecvTimeoutError::Timeout) => {
                                idle_timeouts += 1;
                                if idle_timeouts >= HEARTBEAT_TIMEOUTS {
                                    idle_timeouts = 0;
                                    // Re-read the gauge each beat: a
                                    // PROMOTE on this node mid-stream
                                    // must surface its bumped epoch.
                                    frame::write_epoch(writer, self.epoch())?;
                                    writer.flush()?;
                                }
                                Step::Shipped
                            }
                            // Lagged past TAIL_CAPACITY (or the WAL went
                            // away): re-subscribe and catch up from the
                            // files.
                            Err(RecvTimeoutError::Disconnected) => Step::Resync,
                        }
                    }
                    Err(TryRecvError::Disconnected) => Step::Resync,
                };
                if matches!(step, Step::Resync) {
                    continue 'session;
                }
            }
        }
    }

    /// Pops every in-flight record at or below `acked`, recording its
    /// ship→ack round trip.
    fn drain_acked(&self, in_flight: &mut VecDeque<(u64, Instant)>, acked: u64) {
        while in_flight.front().is_some_and(|&(lsn, _)| lsn <= acked) {
            let (_, shipped) = in_flight.pop_front().expect("front checked");
            let us = shipped.elapsed().as_micros().min(u64::MAX as u128) as u64;
            self.metrics.ack_latency_us.record(us);
        }
    }

    fn ship<W: Write>(
        &self,
        writer: &mut W,
        cursor: &mut u64,
        in_flight: &mut VecDeque<(u64, Instant)>,
        rec: TailRecord,
    ) -> io::Result<Step> {
        if rec.lsn < *cursor {
            // Already shipped during catch-up.
            return Ok(Step::Shipped);
        }
        if rec.lsn > *cursor {
            // A hole means the channel dropped records: resync.
            return Ok(Step::Resync);
        }
        // `head` is the *current* newest LSN (the lock-free gauge), not
        // this record's — with a backlog queued behind this frame, the
        // replica's lag must read as the real gap, not zero.
        let bytes = frame::write_rec(writer, rec.lsn, self.head_lsn(), &rec.tuples)?;
        self.metrics.on_ship(1, bytes);
        note_shipped(in_flight, rec.lsn);
        self.ship_trace(writer, rec.lsn)?;
        *cursor = rec.lsn + 1;
        Ok(Step::Shipped)
    }
}

/// Remembers when `lsn` was shipped, dropping the oldest sample past
/// [`ACK_WINDOW_CAPACITY`].
fn note_shipped(in_flight: &mut VecDeque<(u64, Instant)>, lsn: u64) {
    if in_flight.len() >= ACK_WINDOW_CAPACITY {
        in_flight.pop_front();
    }
    in_flight.push_back((lsn, Instant::now()));
}

enum Step {
    Shipped,
    Resync,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{parse_header, FrameHeader};
    use sprofile::{SProfile, Tuple};
    use sprofile_persist::{SyncPolicy, WalOptions};

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sprofile-source-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Decodes a captured primary→replica byte stream into headers (and
    /// consumes payloads).
    fn decode_stream(mut bytes: &[u8]) -> Vec<FrameHeader> {
        let mut out = Vec::new();
        while !bytes.is_empty() {
            let newline = bytes.iter().position(|&b| b == b'\n').expect("header line");
            let header = parse_header(std::str::from_utf8(&bytes[..newline]).unwrap()).unwrap();
            bytes = &bytes[newline + 1..];
            let payload = match &header {
                FrameHeader::Ckpt { nbytes, .. } => *nbytes as usize,
                FrameHeader::Rec { count, .. } => *count as usize * frame::TUPLE_BYTES,
                FrameHeader::Trace { .. } | FrameHeader::Epoch(_) | FrameHeader::Err(_) => 0,
            };
            bytes = &bytes[payload..];
            out.push(header);
        }
        out
    }

    /// A stop predicate that ends the stream once `n` records have been
    /// shipped (the stop state is also polled per catch-up record, so a
    /// call-counting predicate would abort mid-catch-up).
    fn stop_after_records(source: &ReplicationSource, n: u64) -> impl Fn() -> bool + '_ {
        move || source.metrics().records() >= n
    }

    #[test]
    fn catch_up_ships_every_record_in_order() {
        let dir = temp_dir("catchup");
        let mut wal = Wal::open(
            WalOptions {
                dir: dir.clone(),
                sync: SyncPolicy::Never,
                segment_bytes: 96,
                ..WalOptions::default()
            },
            1,
        )
        .unwrap();
        for i in 0..12u32 {
            wal.append(&[Tuple::add(i % 4)]).unwrap();
        }
        wal.sync().unwrap();
        let registry = ReplicaRegistry::new();
        let source = ReplicationSource::new(Arc::new(Mutex::new(wal)), &dir, Arc::clone(&registry));
        assert_eq!(source.head_lsn(), 12);
        let mut wire = Vec::new();
        let acks = AckState::new();
        // Everything is pre-acked: each shipped record's latency sample
        // drains on the next per-record poll.
        acks.ack(12);
        source
            .stream(5, 0, &mut wire, &acks, &stop_after_records(&source, 8))
            .unwrap();
        let frames = decode_stream(&wire);
        assert_eq!(frames.len(), 9, "{frames:?}");
        assert_eq!(frames[0], FrameHeader::Epoch(1), "greeting first");
        for (i, f) in frames[1..].iter().enumerate() {
            assert_eq!(
                *f,
                FrameHeader::Rec {
                    lsn: 5 + i as u64,
                    count: 1,
                    head: 12
                }
            );
        }
        assert_eq!(source.metrics().records(), 8);
        assert!(source.metrics().bytes() > 0);
        assert!(
            source.metrics().ack_latency_us().count() >= 7,
            "acked ship samples were drained: {}",
            source.metrics().ack_latency_us().count()
        );
        // The registry slot was dropped when the stream ended.
        assert_eq!(source.replicas(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn noted_traces_ship_as_trc_frames_after_their_rec() {
        let dir = temp_dir("traces");
        let mut wal = Wal::open(
            WalOptions {
                dir: dir.clone(),
                sync: SyncPolicy::Never,
                ..WalOptions::default()
            },
            1,
        )
        .unwrap();
        for i in 0..6u32 {
            wal.append(&[Tuple::add(i)]).unwrap();
        }
        wal.sync().unwrap();
        let source =
            ReplicationSource::new(Arc::new(Mutex::new(wal)), &dir, ReplicaRegistry::new());
        source.note_trace(3, 0); // 0 = untraced, dropped
        source.note_trace(3, 777);
        source.note_trace(5, 888);
        let mut wire = Vec::new();
        let acks = AckState::new();
        source
            .stream(1, 0, &mut wire, &acks, &stop_after_records(&source, 6))
            .unwrap();
        let frames = decode_stream(&wire);
        let pos = |f: &FrameHeader| frames.iter().position(|g| g == f);
        let trc3 = pos(&FrameHeader::Trace { lsn: 3, trace: 777 }).expect("TRC 3 shipped");
        let trc5 = pos(&FrameHeader::Trace { lsn: 5, trace: 888 }).expect("TRC 5 shipped");
        let rec3 = frames
            .iter()
            .position(|f| matches!(f, FrameHeader::Rec { lsn: 3, .. }))
            .unwrap();
        assert_eq!(trc3, rec3 + 1, "TRC rides right behind its REC");
        assert!(trc5 > trc3);
        assert_eq!(
            frames
                .iter()
                .filter(|f| matches!(f, FrameHeader::Trace { .. }))
                .count(),
            2,
            "untraced records ship no TRC: {frames:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pruned_start_bootstraps_from_the_newest_checkpoint() {
        let dir = temp_dir("bootstrap");
        let mut wal = Wal::open(
            WalOptions {
                dir: dir.clone(),
                sync: SyncPolicy::Never,
                segment_bytes: 64,
                keep_checkpoints: 1,
                ..WalOptions::default()
            },
            1,
        )
        .unwrap();
        let mut state = SProfile::new(8);
        for i in 0..30u32 {
            let t = Tuple::add(i % 8);
            state.apply(t);
            wal.append(&[t]).unwrap();
        }
        // Checkpoint at lsn 30 prunes every sealed segment; then a few
        // more records land past it.
        wal.checkpoint(&state.to_snapshot_bytes()).unwrap();
        for i in 0..4u32 {
            wal.append(&[Tuple::remove(i)]).unwrap();
        }
        wal.sync().unwrap();
        let source =
            ReplicationSource::new(Arc::new(Mutex::new(wal)), &dir, ReplicaRegistry::new());
        // The replica asks for lsn 1, long pruned.
        let mut wire = Vec::new();
        let acks = AckState::new();
        source
            .stream(1, 0, &mut wire, &acks, &stop_after_records(&source, 4))
            .unwrap();
        let frames = decode_stream(&wire);
        assert_eq!(frames[0], FrameHeader::Epoch(1));
        match &frames[1] {
            FrameHeader::Ckpt { lsn, nbytes } => {
                assert_eq!(*lsn, 30);
                assert!(*nbytes > 0);
            }
            other => panic!("expected CKPT after the greeting, got {other:?}"),
        }
        let recs: Vec<_> = frames[2..].to_vec();
        assert_eq!(recs.len(), 4, "{recs:?}");
        assert!(matches!(recs[0], FrameHeader::Rec { lsn: 31, .. }));
        assert!(matches!(recs[3], FrameHeader::Rec { lsn: 34, .. }));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_replica_ahead_of_the_head_is_refused_loudly() {
        let dir = temp_dir("ahead");
        let mut wal = Wal::open(
            WalOptions {
                dir: dir.clone(),
                sync: SyncPolicy::Never,
                ..WalOptions::default()
            },
            1,
        )
        .unwrap();
        for i in 0..3u32 {
            wal.append(&[Tuple::add(i)]).unwrap();
        }
        let source =
            ReplicationSource::new(Arc::new(Mutex::new(wal)), &dir, ReplicaRegistry::new());
        // Divergent-history shape: the "replica" claims lsn 99 while our
        // head is 3. The stream must refuse with an ERR frame instead of
        // idling with a healthy-looking zero-lag connection.
        let mut wire = Vec::new();
        let acks = AckState::new();
        let err = source
            .stream(99, 0, &mut wire, &acks, &|| false)
            .expect_err("must refuse");
        assert!(err.to_string().contains("ahead"), "{err}");
        let text = String::from_utf8_lossy(&wire);
        assert!(text.starts_with("EPOCH 1\nERR "), "{text}");
        assert!(text.contains("head 3"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_replica_from_a_newer_epoch_fences_this_stale_primary() {
        let dir = temp_dir("fenced");
        let mut wal = Wal::open(
            WalOptions {
                dir: dir.clone(),
                sync: SyncPolicy::Never,
                ..WalOptions::default()
            },
            1,
        )
        .unwrap();
        wal.append(&[Tuple::add(0)]).unwrap();
        assert_eq!(wal.epoch(), 1);
        let source =
            ReplicationSource::new(Arc::new(Mutex::new(wal)), &dir, ReplicaRegistry::new());
        // The replica followed generation 3; we are a restarted epoch-1
        // head. The stream must refuse with a fenced ERR, not ship.
        let mut wire = Vec::new();
        let acks = AckState::new();
        let err = source
            .stream(1, 3, &mut wire, &acks, &|| false)
            .expect_err("must fence");
        assert!(err.to_string().contains("fenced"), "{err}");
        let text = String::from_utf8_lossy(&wire);
        assert!(text.starts_with("ERR fenced:"), "{text}");
        assert!(text.contains("epoch 3"), "{text}");
        assert_eq!(source.metrics().fenced_rejects(), 1);
        assert_eq!(source.metrics().records(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn acks_feed_the_retention_registry_and_eof_ends_the_stream() {
        let dir = temp_dir("acks");
        let wal = Wal::open(
            WalOptions {
                dir: dir.clone(),
                sync: SyncPolicy::Never,
                ..WalOptions::default()
            },
            1,
        )
        .unwrap();
        let registry = ReplicaRegistry::new();
        let source = ReplicationSource::new(Arc::new(Mutex::new(wal)), &dir, Arc::clone(&registry));
        let acks = AckState::new();
        acks.ack(7);
        // Closing before the stream starts: it exits immediately, having
        // folded the ack into the slot and then dropped it.
        acks.close();
        let mut wire = Vec::new();
        source.stream(8, 0, &mut wire, &acks, &|| false).unwrap();
        assert_eq!(&wire, b"EPOCH 1\n", "only the greeting was written");
        assert_eq!(registry.len(), 0);

        // read_acks: ACK lines accumulate, junk closes.
        let state = AckState::new();
        read_acks(
            io::Cursor::new(b"ACK 3\nACK 9\nACK 5\n".to_vec()),
            &state,
            &|| false,
        );
        assert_eq!(state.acked(), 9);
        assert!(state.is_closed(), "EOF closes the state");
        let state = AckState::new();
        read_acks(
            io::Cursor::new(b"ACK 2\ngarbage\n".to_vec()),
            &state,
            &|| false,
        );
        assert_eq!(state.acked(), 2);
        assert!(state.is_closed());
        std::fs::remove_dir_all(&dir).ok();
    }
}
