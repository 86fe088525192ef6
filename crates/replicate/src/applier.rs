//! The replica side: a background thread that connects to the primary,
//! requests the log from its durable position, and applies records in
//! LSN order to an [`ApplySink`].
//!
//! The applier owns the whole session lifecycle: connect, handshake
//! (`REPLICATE <lsn> <epoch>`), bootstrap (`CKPT`) when the primary has
//! pruned past our position, ordered record apply (`REC`), periodic
//! acknowledgements (`ACK`), and reconnection with exponential backoff
//! when anything goes wrong. The sink decides what "apply" means — the
//! server's sink writes through its local WAL before the backend, so a
//! restarted replica resumes from what it durably applied.
//!
//! Epoch fencing runs on both ends of the handshake. The replica sends
//! the highest generation it has ever followed; a primary whose own
//! epoch is older refuses with `ERR fenced: …` (it is a restarted stale
//! head). Symmetrically, the primary greets (and periodically
//! heartbeats) with `EPOCH <e>`; a replica that has followed a newer
//! generation aborts the session — counted in
//! [`ApplierStats::fenced`] — instead of re-following a zombie. Every
//! received frame also bumps [`ApplierStats::beats`], the liveness
//! signal the failover promoter watches.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sprofile::Tuple;

use crate::frame::{self, FrameHeader};

/// Read-timeout granularity; bounds how long stop/promotion waits.
const POLL: Duration = Duration::from_millis(25);

/// How often an idle replica re-acknowledges its position (keeps the
/// primary's retention floor fresh when nothing ships).
const IDLE_ACK: Duration = Duration::from_millis(200);

/// Applier knobs.
#[derive(Clone, Debug)]
pub struct ApplierOptions {
    /// The primary's address (`HOST:PORT`).
    pub primary: String,
    /// Send an `ACK` every this many applied records (an idle ack also
    /// fires when the stream quiesces).
    pub ack_every: u64,
    /// Reconnect backoff ceiling (starts at 100 ms, doubles per
    /// consecutive failure).
    pub max_backoff: Duration,
}

impl ApplierOptions {
    /// Defaults for a primary at `addr`: ack every 64 records, back off
    /// up to 2 s.
    pub fn new(addr: impl Into<String>) -> ApplierOptions {
        ApplierOptions {
            primary: addr.into(),
            ack_every: 64,
            max_backoff: Duration::from_secs(2),
        }
    }
}

/// Live applier counters, shared with whoever renders `STATS`.
#[derive(Debug, Default)]
pub struct ApplierStats {
    connected: AtomicU64,
    applied_lsn: AtomicU64,
    head_lsn: AtomicU64,
    records: AtomicU64,
    bytes: AtomicU64,
    errors: AtomicU64,
    epoch: AtomicU64,
    beats: AtomicU64,
    fenced: AtomicU64,
}

impl ApplierStats {
    /// A zeroed stats block.
    pub fn new() -> Arc<ApplierStats> {
        Arc::new(ApplierStats::default())
    }

    /// Whether a session with the primary is currently established.
    pub fn connected(&self) -> bool {
        self.connected.load(Ordering::Relaxed) == 1
    }

    /// Highest LSN durably applied.
    pub fn applied_lsn(&self) -> u64 {
        self.applied_lsn.load(Ordering::Relaxed)
    }

    /// The primary's newest LSN as last reported in a frame.
    pub fn head_lsn(&self) -> u64 {
        self.head_lsn.load(Ordering::Relaxed)
    }

    /// Replication lag in LSNs (last reported head − applied).
    pub fn lag_lsn(&self) -> u64 {
        self.head_lsn().saturating_sub(self.applied_lsn())
    }

    /// Records applied (lifetime, across reconnects).
    pub fn records(&self) -> u64 {
        self.records.load(Ordering::Relaxed)
    }

    /// Frame bytes received and applied (headers + payloads).
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Session/apply failures (each is followed by a backoff+reconnect).
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// The highest primary generation followed (seeded from the sink's
    /// durable epoch, advanced by `EPOCH` frames).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Frames received from the primary (lifetime) — the liveness
    /// heartbeat counter the failover promoter samples: a primary that
    /// is up keeps this advancing (idle streams still send `EPOCH`
    /// heartbeats).
    pub fn beats(&self) -> u64 {
        self.beats.load(Ordering::Relaxed)
    }

    /// Sessions aborted because the primary's generation was older than
    /// one this replica already followed (stale-primary fencing).
    pub fn fenced(&self) -> u64 {
        self.fenced.load(Ordering::Relaxed)
    }
}

/// Where applied records land. Implemented by the server over its
/// backend (+ local WAL); kept abstract so the applier is testable
/// without a server.
pub trait ApplySink: Send {
    /// The next LSN this replica needs (everything below is durably
    /// applied locally). Re-read after every reconnect.
    fn position(&mut self) -> u64;

    /// The highest primary generation this replica has followed (0 when
    /// it has never seen one — e.g. a fresh non-durable replica).
    fn epoch(&mut self) -> u64;

    /// Records that the followed primary reports generation `epoch`
    /// (durably, when the sink is backed by a WAL). Only ever called
    /// with `epoch >= self.epoch()`.
    fn adopt_epoch(&mut self, epoch: u64) -> Result<(), String>;

    /// Installs a checkpoint bootstrap: replace local state with
    /// `snapshot` (which covers records `1..=lsn`).
    fn bootstrap(&mut self, lsn: u64, snapshot: &[u8]) -> Result<(), String>;

    /// Applies one record (already validated to be the next in order).
    fn apply(&mut self, lsn: u64, tuples: &[Tuple]) -> Result<(), String>;

    /// Observes a `TRC` annotation: the record at `lsn` was written by
    /// a request carrying `trace`. Purely observational (the server's
    /// sink logs it into its ring so cross-node tracing works); the
    /// default ignores it.
    fn trace(&mut self, lsn: u64, trace: u64) {
        let _ = (lsn, trace);
    }
}

/// A running applier thread. Stop it with [`Applier::stop`] (promotion,
/// shutdown); dropping it also stops and joins.
pub struct Applier {
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl Applier {
    /// Spawns the applier thread. Progress is visible through `stats`;
    /// the thread reconnects forever (with backoff) until stopped.
    pub fn spawn(
        opts: ApplierOptions,
        sink: Box<dyn ApplySink>,
        stats: Arc<ApplierStats>,
    ) -> Applier {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let join = std::thread::Builder::new()
            .name("sprofile-replica-applier".into())
            .spawn(move || run(opts, sink, stats, flag))
            .expect("spawn applier");
        Applier {
            stop,
            join: Some(join),
        }
    }

    /// Signals the thread to stop and joins it. The thread polls every
    /// 25 ms, so this returns promptly.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for Applier {
    fn drop(&mut self) {
        self.halt();
    }
}

fn run(
    opts: ApplierOptions,
    mut sink: Box<dyn ApplySink>,
    stats: Arc<ApplierStats>,
    stop: Arc<AtomicBool>,
) {
    // Seed the position counters from the sink's durable state before
    // anything else: a restarted replica that never hears from its
    // (possibly dead) primary must still report the prefix it serves —
    // `PROMOTE`'s reply and `repl_applied_lsn` come from here.
    let durable = sink.position().saturating_sub(1);
    stats.applied_lsn.fetch_max(durable, Ordering::Relaxed);
    stats.head_lsn.fetch_max(durable, Ordering::Relaxed);
    stats.epoch.fetch_max(sink.epoch(), Ordering::Relaxed);
    let stopped = || stop.load(Ordering::Acquire);
    let mut backoff = Duration::from_millis(100);
    while !stopped() {
        let outcome = TcpStream::connect(&opts.primary)
            .map_err(|e| e.to_string())
            .and_then(|stream| {
                session(stream, &opts, sink.as_mut(), &stats, &stopped).map_err(|e| e.to_string())
            });
        stats.connected.store(0, Ordering::Relaxed);
        match outcome {
            // A session that ended cleanly (stop, or the primary went
            // away after streaming) retries promptly.
            Ok(applied_any) => {
                if applied_any {
                    backoff = Duration::from_millis(100);
                }
            }
            Err(_) => {
                stats.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        if stopped() {
            return;
        }
        // Backoff, sliced so a stop request interrupts it.
        let until = Instant::now() + backoff;
        while Instant::now() < until && !stopped() {
            std::thread::sleep(POLL.min(until - Instant::now()));
        }
        backoff = (backoff * 2).min(opts.max_backoff);
    }
}

/// One connected session. Returns whether anything was applied (resets
/// the caller's backoff); `Err` is a transport/protocol/apply failure.
fn session(
    stream: TcpStream,
    opts: &ApplierOptions,
    sink: &mut dyn ApplySink,
    stats: &ApplierStats,
    stopped: &dyn Fn() -> bool,
) -> io::Result<bool> {
    stream.set_read_timeout(Some(POLL))?;
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut expected = sink.position();
    writer.write_all(frame::encode_replicate(expected, sink.epoch()).as_bytes())?;
    writer.flush()?;
    stats.connected.store(1, Ordering::Relaxed);

    let mut line: Vec<u8> = Vec::new();
    let mut applied_any = false;
    let mut since_ack = 0u64;
    let mut last_ack = Instant::now();
    let ack = |writer: &mut BufWriter<TcpStream>, lsn: u64| -> io::Result<()> {
        writer.write_all(frame::encode_ack(lsn).as_bytes())?;
        writer.flush()
    };
    loop {
        match frame::read_line_step(&mut reader, &mut line, stopped)? {
            frame::LineStep::Eof | frame::LineStep::Stopped => return Ok(applied_any),
            frame::LineStep::Timeout => {
                // Eager ack: a quiescent wire with unacked records means
                // the primary may be blocked in a sync-commit wait —
                // acknowledge immediately rather than batching further.
                // An idle refresh also keeps the retention floor fresh.
                if since_ack > 0 || (applied_any && last_ack.elapsed() >= IDLE_ACK) {
                    ack(&mut writer, stats.applied_lsn())?;
                    last_ack = Instant::now();
                    since_ack = 0;
                }
                continue;
            }
            frame::LineStep::Line => {}
        }
        let header_len = line.len() as u64;
        let header = frame::parse_header(&String::from_utf8_lossy(&line))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        line.clear();
        stats.beats.fetch_add(1, Ordering::Relaxed);
        match header {
            FrameHeader::Err(msg) => {
                // A fenced refusal means *we* carry the newer
                // generation — count it so health checks can see a
                // zombie primary being refused, then back off like any
                // other refusal (the stale head must be wiped or
                // re-pointed by an operator).
                if msg.starts_with("fenced") {
                    stats.fenced.fetch_add(1, Ordering::Relaxed);
                }
                return Err(io::Error::other(format!("primary refused: {msg}")));
            }
            FrameHeader::Trace { lsn, trace } => {
                sink.trace(lsn, trace);
                stats.bytes.fetch_add(header_len, Ordering::Relaxed);
            }
            FrameHeader::Epoch(e) => {
                let local = sink.epoch();
                if e < local {
                    // The sender is a stale primary from a generation
                    // this replica already moved past: fence it out.
                    stats.fenced.fetch_add(1, Ordering::Relaxed);
                    return Err(io::Error::other(format!(
                        "fenced: primary at epoch {e}, this replica followed epoch {local}"
                    )));
                }
                if e > local {
                    sink.adopt_epoch(e).map_err(io::Error::other)?;
                }
                stats.epoch.fetch_max(e, Ordering::Relaxed);
                stats.bytes.fetch_add(header_len, Ordering::Relaxed);
            }
            FrameHeader::Ckpt { lsn, nbytes } => {
                let Some(snapshot) = frame::read_payload(&mut reader, nbytes as usize, stopped)?
                else {
                    return Ok(applied_any);
                };
                sink.bootstrap(lsn, &snapshot).map_err(io::Error::other)?;
                expected = lsn + 1;
                applied_any = true;
                stats.applied_lsn.store(lsn, Ordering::Relaxed);
                stats.head_lsn.fetch_max(lsn, Ordering::Relaxed);
                stats
                    .bytes
                    .fetch_add(nbytes + header_len, Ordering::Relaxed);
                ack(&mut writer, lsn)?;
                last_ack = Instant::now();
                since_ack = 0;
            }
            FrameHeader::Rec { lsn, count, head } => {
                let payload_len = count as usize * frame::TUPLE_BYTES;
                let Some(payload) = frame::read_payload(&mut reader, payload_len, stopped)? else {
                    return Ok(applied_any);
                };
                stats.head_lsn.store(head, Ordering::Relaxed);
                if lsn < expected {
                    continue; // duplicate of something already applied
                }
                if lsn > expected {
                    return Err(io::Error::other(format!(
                        "gap in the record stream: expected lsn {expected}, got {lsn}"
                    )));
                }
                let tuples = frame::decode_tuples(&payload)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                sink.apply(lsn, &tuples).map_err(io::Error::other)?;
                expected = lsn + 1;
                applied_any = true;
                stats.applied_lsn.store(lsn, Ordering::Relaxed);
                stats.records.fetch_add(1, Ordering::Relaxed);
                stats
                    .bytes
                    .fetch_add(payload_len as u64 + header_len, Ordering::Relaxed);
                since_ack += 1;
                if since_ack >= opts.ack_every {
                    ack(&mut writer, lsn)?;
                    last_ack = Instant::now();
                    since_ack = 0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;
    use std::net::TcpListener;
    use std::sync::Mutex;

    type Shared<T> = Arc<Mutex<Vec<(u64, T)>>>;

    /// A sink that records everything into shared vectors.
    #[derive(Clone, Default)]
    struct RecordingSink {
        applied: Shared<Vec<Tuple>>,
        bootstraps: Shared<Vec<u8>>,
        traces: Shared<u64>,
        position: Arc<AtomicU64>,
        epoch: Arc<AtomicU64>,
    }

    impl ApplySink for RecordingSink {
        fn position(&mut self) -> u64 {
            self.position.load(Ordering::Relaxed).max(1)
        }
        fn epoch(&mut self) -> u64 {
            self.epoch.load(Ordering::Relaxed)
        }
        fn adopt_epoch(&mut self, epoch: u64) -> Result<(), String> {
            self.epoch.fetch_max(epoch, Ordering::Relaxed);
            Ok(())
        }
        fn bootstrap(&mut self, lsn: u64, snapshot: &[u8]) -> Result<(), String> {
            self.bootstraps
                .lock()
                .unwrap()
                .push((lsn, snapshot.to_vec()));
            self.position.store(lsn + 1, Ordering::Relaxed);
            Ok(())
        }
        fn apply(&mut self, lsn: u64, tuples: &[Tuple]) -> Result<(), String> {
            self.applied.lock().unwrap().push((lsn, tuples.to_vec()));
            self.position.store(lsn + 1, Ordering::Relaxed);
            Ok(())
        }
        fn trace(&mut self, lsn: u64, trace: u64) {
            self.traces.lock().unwrap().push((lsn, trace));
        }
    }

    fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
        for _ in 0..400 {
            if cond() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("timed out waiting for {what}");
    }

    #[test]
    fn applier_handshakes_applies_in_order_and_acks() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Fake primary: expect the handshake, ship a CKPT + 3 RECs, then
        // read the acks.
        let primary = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = BufWriter::new(stream);
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line.trim(), "REPLICATE 1 0");
            frame::write_epoch(&mut writer, 3).unwrap();
            frame::write_ckpt(&mut writer, 10, b"fake-snapshot").unwrap();
            for lsn in 11..14u64 {
                frame::write_rec(
                    &mut writer,
                    lsn,
                    13,
                    &[Tuple::add(lsn as u32), Tuple::remove(0)],
                )
                .unwrap();
                if lsn == 12 {
                    frame::write_trace(&mut writer, lsn, 4242).unwrap();
                }
            }
            writer.flush().unwrap();
            // The CKPT triggers an immediate ack; 3 records with
            // ack_every=2 produce at least one more.
            let mut acks = Vec::new();
            let mut line = String::new();
            while acks.last() != Some(&13) {
                line.clear();
                if reader.read_line(&mut line).unwrap() == 0 {
                    break;
                }
                if let Some(lsn) = frame::parse_ack(&line) {
                    acks.push(lsn);
                }
            }
            acks
        });
        let sink = RecordingSink::default();
        let stats = ApplierStats::new();
        let applier = Applier::spawn(
            ApplierOptions {
                ack_every: 2,
                ..ApplierOptions::new(addr.to_string())
            },
            Box::new(sink.clone()),
            Arc::clone(&stats),
        );
        wait_until("records applied", || stats.applied_lsn() == 13);
        assert!(stats.connected());
        assert_eq!(stats.records(), 3);
        assert_eq!(stats.head_lsn(), 13);
        assert_eq!(stats.lag_lsn(), 0);
        assert_eq!(stats.epoch(), 3, "greeting epoch adopted");
        assert_eq!(sink.epoch.load(Ordering::Relaxed), 3);
        assert!(stats.beats() >= 5, "every frame beats: {}", stats.beats());
        assert_eq!(
            sink.bootstraps.lock().unwrap().as_slice(),
            &[(10, b"fake-snapshot".to_vec())]
        );
        let applied = sink.applied.lock().unwrap().clone();
        assert_eq!(
            applied.iter().map(|(l, _)| *l).collect::<Vec<_>>(),
            vec![11, 12, 13]
        );
        assert_eq!(applied[0].1, vec![Tuple::add(11), Tuple::remove(0)]);
        assert_eq!(
            sink.traces.lock().unwrap().as_slice(),
            &[(12, 4242)],
            "TRC annotation reached the sink"
        );
        let acks = primary.join().unwrap();
        assert!(acks.contains(&10), "{acks:?}");
        assert!(acks.contains(&13), "{acks:?}");
        applier.stop();
        assert!(!stats.connected());
    }

    #[test]
    fn applier_reconnects_with_backoff_and_resumes_position() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let primary = std::thread::spawn(move || {
            // Session 1: one record, then hang up mid-stream.
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = BufWriter::new(stream);
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line.trim(), "REPLICATE 1 0");
            frame::write_rec(&mut writer, 1, 2, &[Tuple::add(5)]).unwrap();
            writer.flush().unwrap();
            drop((reader, writer));
            // Session 2: the replica resumes from lsn 2.
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = BufWriter::new(stream);
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line.trim(), "REPLICATE 2 0");
            frame::write_rec(&mut writer, 2, 2, &[Tuple::add(6)]).unwrap();
            writer.flush().unwrap();
            // Hold the session open until the test stops the applier.
            let mut buf = String::new();
            while reader.read_line(&mut buf).unwrap_or(0) > 0 {
                buf.clear();
            }
        });
        let sink = RecordingSink::default();
        let stats = ApplierStats::new();
        let applier = Applier::spawn(
            ApplierOptions::new(addr.to_string()),
            Box::new(sink.clone()),
            Arc::clone(&stats),
        );
        wait_until("both sessions applied", || stats.applied_lsn() == 2);
        assert_eq!(
            sink.applied
                .lock()
                .unwrap()
                .iter()
                .map(|(l, _)| *l)
                .collect::<Vec<_>>(),
            vec![1, 2]
        );
        applier.stop();
        primary.join().unwrap();
    }

    #[test]
    fn a_restarted_replica_reports_its_durable_position_without_a_primary() {
        // The sink recovered a durable prefix through lsn 100; the
        // primary is unreachable (nothing listens on the port). The
        // stats must still report that position — PROMOTE's reply and
        // repl_applied_lsn read it — not a zeroed counter.
        let sink = RecordingSink::default();
        sink.position.store(101, Ordering::Relaxed);
        let stats = ApplierStats::new();
        let applier = Applier::spawn(
            ApplierOptions::new("127.0.0.1:1".to_string()),
            Box::new(sink),
            Arc::clone(&stats),
        );
        wait_until("position seeded", || stats.applied_lsn() == 100);
        assert_eq!(stats.lag_lsn(), 0);
        applier.stop();
    }

    #[test]
    fn a_primary_err_line_counts_as_an_error_and_backs_off() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let primary = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = BufWriter::new(stream.try_clone().unwrap());
            let mut line = String::new();
            BufReader::new(stream).read_line(&mut line).unwrap();
            writer
                .write_all(b"ERR replication requires --wal\n")
                .unwrap();
            writer.flush().unwrap();
        });
        let stats = ApplierStats::new();
        let applier = Applier::spawn(
            ApplierOptions::new(addr.to_string()),
            Box::new(RecordingSink::default()),
            Arc::clone(&stats),
        );
        wait_until("error counted", || stats.errors() >= 1);
        applier.stop();
        primary.join().unwrap();
    }

    #[test]
    fn a_stale_primary_epoch_is_fenced_and_nothing_is_applied() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let primary = std::thread::spawn(move || {
            // A restarted stale head: greets with epoch 2 and tries to
            // stream a record anyway.
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = BufWriter::new(stream);
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line.trim(), "REPLICATE 1 5", "handshake carries the epoch");
            frame::write_epoch(&mut writer, 2).unwrap();
            frame::write_rec(&mut writer, 1, 1, &[Tuple::add(9)]).unwrap();
            writer.flush().unwrap();
            // Hold the socket open; the replica must hang up on us.
            let mut buf = String::new();
            while reader.read_line(&mut buf).unwrap_or(0) > 0 {
                buf.clear();
            }
        });
        let sink = RecordingSink::default();
        sink.epoch.store(5, Ordering::Relaxed);
        let stats = ApplierStats::new();
        let applier = Applier::spawn(
            ApplierOptions::new(addr.to_string()),
            Box::new(sink.clone()),
            Arc::clone(&stats),
        );
        wait_until("fenced", || stats.fenced() >= 1);
        assert!(sink.applied.lock().unwrap().is_empty(), "nothing applied");
        assert_eq!(stats.epoch(), 5, "local epoch untouched");
        applier.stop();
        primary.join().unwrap();
    }

    #[test]
    fn a_fenced_err_refusal_is_counted_as_fenced() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let primary = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = BufWriter::new(stream.try_clone().unwrap());
            let mut line = String::new();
            BufReader::new(stream).read_line(&mut line).unwrap();
            writer
                .write_all(b"ERR fenced: stale primary at epoch 1; replica has followed epoch 2\n")
                .unwrap();
            writer.flush().unwrap();
        });
        let stats = ApplierStats::new();
        let applier = Applier::spawn(
            ApplierOptions::new(addr.to_string()),
            Box::new(RecordingSink::default()),
            Arc::clone(&stats),
        );
        wait_until("fenced refusal", || stats.fenced() >= 1);
        assert!(stats.errors() >= 1);
        applier.stop();
        primary.join().unwrap();
    }
}
