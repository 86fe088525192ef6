//! Multi-threaded load generator: `threads` clients each replay a
//! deterministic synthetic stream against a live server, mixing single
//! `ADD`/`RM` requests with `BATCH` frames.
//!
//! Determinism is the point: [`thread_tuples`] exposes exactly the
//! tuples thread `t` sends, so a test (or the CLI's final report) can
//! feed the union to an offline [`sprofile::SProfile`] oracle and check
//! the server's answers tuple-for-tuple.
//!
//! Every request's round-trip latency lands in a per-thread
//! [`LogHistogram`], merged into the report's [`LatencySummary`]
//! (p50/p99/p999/max in microseconds) — tail latency is a first-class
//! output next to throughput, and the server benchmark records both.
//!
//! Frames and singles alike go through one window of requests in
//! flight per connection ([`Client::send`] / [`Client::recv`]). In
//! binary mode ([`WireProto::Bin`]) the window keeps many requests in
//! flight instead of one round trip per request; the recorded latency
//! is still send-to-reply for each request, so queueing inside the
//! window is visible in the tail.

use std::collections::VecDeque;
use std::thread;
use std::time::{Duration, Instant};

use sprofile::Tuple;
use sprofile_obs::hist::LogHistogram;
use sprofile_streamgen::StreamConfig;

use crate::client::{Client, ClientError, ClientResult};
use crate::protocol::{Request, WireProto};

/// Requests kept in flight per connection in binary mode. Text
/// mode stays strictly request/reply (window 1): the text protocol is
/// the compatibility baseline, and the benchmark's text-vs-binary
/// comparison measures the protocols as clients actually drive them.
const BIN_WINDOW: usize = 32;

/// Load-generation knobs.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Server address, e.g. `127.0.0.1:7979`.
    pub addr: String,
    /// Concurrent client connections.
    pub threads: usize,
    /// Tuples each thread sends.
    pub events_per_thread: usize,
    /// Tuples per `BATCH` frame (`1` sends everything as singles).
    pub batch: usize,
    /// Universe size the tuples are drawn from (must match the server).
    pub m: u32,
    /// Base RNG seed; thread `t` uses `seed + t`.
    pub seed: u64,
    /// Wire protocol each connection speaks ([`WireProto::Bin`]
    /// upgrades with `BIN` right after connecting and pipelines).
    pub proto: WireProto,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7979".into(),
            threads: 4,
            events_per_thread: 25_000,
            batch: 512,
            m: 1 << 20,
            seed: 20190612,
            proto: WireProto::Text,
        }
    }
}

/// Request-latency quantiles over one run, in microseconds. Measured
/// client-side, send-to-reply, per request (each `BATCH` frame counts
/// once; single `ADD`/`RM` round trips count once each).
#[derive(Clone, Debug)]
pub struct LatencySummary {
    /// Requests measured.
    pub samples: u64,
    /// Median.
    pub p50_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// 99.9th percentile.
    pub p999_us: u64,
    /// Worst observed.
    pub max_us: u64,
}

impl LatencySummary {
    fn from_hist(h: &LogHistogram) -> LatencySummary {
        LatencySummary {
            samples: h.count(),
            p50_us: h.quantile(0.5),
            p99_us: h.quantile(0.99),
            p999_us: h.quantile(0.999),
            max_us: h.max(),
        }
    }
}

/// What one run sent and how fast.
#[derive(Clone, Debug)]
pub struct LoadgenReport {
    /// Tuples sent across all threads.
    pub tuples_sent: u64,
    /// `BATCH` frames sent.
    pub batches_sent: u64,
    /// Single `ADD`/`RM` requests sent.
    pub singles_sent: u64,
    /// Wall-clock duration of the send phase.
    pub elapsed: Duration,
    /// Per-request latency quantiles, merged across threads.
    pub latency: LatencySummary,
    /// The server's `STATS` payload read after all threads finished.
    pub final_stats: String,
}

impl LoadgenReport {
    /// Tuples per second over the send phase.
    pub fn tuples_per_sec(&self) -> f64 {
        self.tuples_sent as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// The deterministic tuple stream thread `t` sends (paper Stream1 shape:
/// uniform adds/removes over `[0, m)`).
pub fn thread_tuples(cfg: &LoadgenConfig, t: usize) -> Vec<Tuple> {
    StreamConfig::stream1(cfg.m, cfg.seed.wrapping_add(t as u64))
        .take_events(cfg.events_per_thread)
        .into_iter()
        .map(|e| Tuple {
            object: e.object,
            is_add: e.is_add,
        })
        .collect()
}

fn elapsed_us(since: Instant) -> u64 {
    since.elapsed().as_micros().min(u64::MAX as u128) as u64
}

/// The requests in flight on one connection, oldest first, each with
/// its send time.
struct Window {
    depth: usize,
    inflight: VecDeque<(Instant, Request)>,
}

impl Window {
    /// Sends `req`; once the window is full, flushes and receives the
    /// oldest reply, so at most `depth` requests are ever in flight.
    fn push(
        &mut self,
        client: &mut Client,
        req: Request,
        hist: &mut LogHistogram,
    ) -> ClientResult<()> {
        let sent_at = Instant::now();
        client.send(&req)?;
        // A reply is read by its request's shape alone, so a frame's
        // tuples are dropped now rather than held for a whole window.
        let req = match req {
            Request::BatchFrame { .. } => Request::batch(Vec::new()),
            other => other,
        };
        self.inflight.push_back((sent_at, req));
        if self.inflight.len() >= self.depth {
            client.flush_out()?;
            self.recv_oldest(client, hist)?;
        }
        Ok(())
    }

    /// Receives the oldest reply and records its send-to-reply latency.
    fn recv_oldest(&mut self, client: &mut Client, hist: &mut LogHistogram) -> ClientResult<()> {
        let (sent_at, req) = self.inflight.pop_front().expect("inflight not empty");
        client.recv(&req)?;
        hist.record(elapsed_us(sent_at));
        Ok(())
    }

    fn drain(&mut self, client: &mut Client, hist: &mut LogHistogram) -> ClientResult<()> {
        client.flush_out()?;
        while !self.inflight.is_empty() {
            self.recv_oldest(client, hist)?;
        }
        Ok(())
    }
}

/// Sends one thread's stream: every 8th chunk as single `ADD`/`RM`
/// requests (exercising the per-connection write buffer), the rest as
/// `BATCH` frames, all through one [`Window`] — [`BIN_WINDOW`] deep in
/// binary mode, strict request/reply in text. Returns
/// `(batches, singles)` sent.
fn drive_one(
    client: &mut Client,
    tuples: &[Tuple],
    batch: usize,
    hist: &mut LogHistogram,
) -> ClientResult<(u64, u64)> {
    let batch = batch.max(1);
    let depth = if client.proto() == WireProto::Bin {
        BIN_WINDOW
    } else {
        1
    };
    let mut window = Window {
        depth,
        inflight: VecDeque::with_capacity(depth),
    };
    let mut batches = 0u64;
    let mut singles = 0u64;
    for (i, chunk) in tuples.chunks(batch).enumerate() {
        if batch > 1 && i % 8 != 7 {
            window.push(client, Request::batch(chunk.to_vec()), hist)?;
            batches += 1;
            continue;
        }
        for t in chunk {
            let req = if t.is_add {
                Request::Add(t.object)
            } else {
                Request::Remove(t.object)
            };
            window.push(client, req, hist)?;
            singles += 1;
        }
    }
    window.drain(client, hist)?;
    // Read barrier: force the server to flush this connection's buffer
    // so `applied` in STATS reflects everything sent here.
    if let Some(first) = tuples.first() {
        client.freq(first.object)?;
    }
    Ok((batches, singles))
}

/// Runs the full load generation: spawn threads, send, join, then read
/// the server's `STATS` over a fresh connection.
pub fn run(cfg: &LoadgenConfig) -> ClientResult<LoadgenReport> {
    let start = Instant::now();
    let mut handles = Vec::with_capacity(cfg.threads);
    for t in 0..cfg.threads.max(1) {
        let cfg = cfg.clone();
        handles.push(thread::spawn(
            move || -> ClientResult<(u64, u64, u64, LogHistogram)> {
                let tuples = thread_tuples(&cfg, t);
                let mut client = Client::connect_with(&cfg.addr, cfg.proto)?;
                let mut hist = LogHistogram::new();
                let (batches, singles) = drive_one(&mut client, &tuples, cfg.batch, &mut hist)?;
                client.quit()?;
                Ok((tuples.len() as u64, batches, singles, hist))
            },
        ));
    }
    let mut tuples_sent = 0u64;
    let mut batches_sent = 0u64;
    let mut singles_sent = 0u64;
    let mut merged = LogHistogram::new();
    for h in handles {
        let (tuples, batches, singles, hist) = h
            .join()
            .map_err(|_| ClientError::Protocol("loadgen thread panicked".into()))??;
        tuples_sent += tuples;
        batches_sent += batches;
        singles_sent += singles;
        merged.merge(&hist);
    }
    let elapsed = start.elapsed();
    let mut probe = Client::connect_with(&cfg.addr, cfg.proto)?;
    let final_stats = probe.stats()?;
    probe.quit()?;
    Ok(LoadgenReport {
        tuples_sent,
        batches_sent,
        singles_sent,
        elapsed,
        latency: LatencySummary::from_hist(&merged),
        final_stats,
    })
}
