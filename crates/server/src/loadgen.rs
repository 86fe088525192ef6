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
//! In binary mode ([`WireProto::Bin`]) each connection keeps a bounded
//! window of `BATCH` frames in flight instead of waiting out one
//! round trip per frame; the recorded latency is still send-to-reply
//! for each frame, so queueing inside the window is visible in the
//! tail.

use std::collections::VecDeque;
use std::thread;
use std::time::{Duration, Instant};

use sprofile::Tuple;
use sprofile_obs::hist::LogHistogram;
use sprofile_streamgen::StreamConfig;

use crate::client::{Client, ClientError, ClientResult};
use crate::protocol::WireProto;

/// `BATCH` frames kept in flight per connection in binary mode. Text
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

/// Receives the oldest in-flight `BATCH` reply and records its
/// send-to-reply latency.
fn recv_oldest(
    client: &mut Client,
    inflight: &mut VecDeque<Instant>,
    hist: &mut LogHistogram,
) -> ClientResult<()> {
    let sent_at = inflight.pop_front().expect("inflight not empty");
    client.batch_recv()?;
    hist.record(elapsed_us(sent_at));
    Ok(())
}

fn drain(
    client: &mut Client,
    inflight: &mut VecDeque<Instant>,
    hist: &mut LogHistogram,
) -> ClientResult<()> {
    client.flush_out()?;
    while !inflight.is_empty() {
        recv_oldest(client, inflight, hist)?;
    }
    Ok(())
}

/// Sends one thread's stream: every 8th chunk as single `ADD`/`RM`
/// requests (exercising the per-connection write buffer), the rest as
/// `BATCH` frames. In binary mode everything — frames and singles
/// alike — is pipelined up to [`BIN_WINDOW`] deep; text mode is strict
/// request/reply. Returns `(batches, singles)` sent.
fn drive_one(
    client: &mut Client,
    tuples: &[Tuple],
    batch: usize,
    hist: &mut LogHistogram,
) -> ClientResult<(u64, u64)> {
    let batch = batch.max(1);
    let window = if client.proto() == WireProto::Bin {
        BIN_WINDOW
    } else {
        1
    };
    let mut inflight: VecDeque<Instant> = VecDeque::with_capacity(window);
    let mut batches = 0u64;
    let mut singles = 0u64;
    let send_single = |client: &mut Client, t: &Tuple, hist: &mut LogHistogram| {
        let start = Instant::now();
        let res = if t.is_add {
            client.add(t.object)
        } else {
            client.remove(t.object)
        };
        hist.record(elapsed_us(start));
        res
    };
    for (i, chunk) in tuples.chunks(batch).enumerate() {
        if (batch > 1 && i % 8 == 7) || batch == 1 {
            if window > 1 {
                // A binary single *is* a one-tuple BATCH frame on the
                // wire (the client has no separate ADD/RM opcode), so
                // it rides the same pipeline window instead of
                // stalling a round trip.
                for t in chunk {
                    if inflight.len() >= window {
                        client.flush_out()?;
                        recv_oldest(client, &mut inflight, hist)?;
                    }
                    inflight.push_back(Instant::now());
                    client.batch_send(std::slice::from_ref(t))?;
                    singles += 1;
                }
            } else {
                // Text singles are strict round trips; the window is
                // already empty (window 1 receives eagerly).
                drain(client, &mut inflight, hist)?;
                for t in chunk {
                    send_single(client, t, hist)?;
                    singles += 1;
                }
            }
        } else {
            if inflight.len() >= window {
                client.flush_out()?;
                recv_oldest(client, &mut inflight, hist)?;
            }
            inflight.push_back(Instant::now());
            client.batch_send(chunk)?;
            if window == 1 {
                client.flush_out()?;
                recv_oldest(client, &mut inflight, hist)?;
            }
            batches += 1;
        }
    }
    drain(client, &mut inflight, hist)?;
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
