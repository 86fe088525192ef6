//! The traced run: per-layer metrics and the layer ladder.
//!
//! The ladder replays the workload's own write frames through one rung
//! per layer — `SProfile` → `ShardedProfile` → server (binary pipelined,
//! binary request/reply, text) → WAL with fsync per append → plus one
//! replica → cluster router — each over one connection, and records
//! wall-clock ns per acknowledged tuple and the ns each rung adds over
//! the one below it. The replica rung also checks that the replica
//! converges and that a crash-stopped primary recovers every
//! acknowledged tuple from its WAL. Query timings call the core and
//! sharded queries on the `query_mix` state: a seeded Zipf preload at
//! m = 2^20, built in process. The server-side numbers come from the
//! workload's own traced run where it has that layer, else from the
//! rung that adds the layer; every metric says which it used.

use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use sprofile::{SProfile, Tuple};
use sprofile_cluster::ClusterClient;
use sprofile_concurrent::ShardedProfile;
use sprofile_server::{
    Client, ClientResult, DurabilityConfig, Server, ServerConfig, SyncPolicy, WireProto,
};
use sprofile_streamgen::StreamConfig;

use crate::scrape::{ratio, Delta, Scrape};
use crate::stats::{json_num, Report};
use crate::workloads::{
    fetch_state, start_cluster, sub_seed, Ctx, Oracle, Query, RouterObs, RunOut, Workload,
};

/// Every per-layer metric: name, unit, better, and the end-to-end
/// metric and workload it should move. `durable` (text `BATCH` over a
/// WAL with fsync per append, plus a replica) and `query_mix` (reads
/// over a Zipf state at m = 2^20) are workloads the benchmark does not
/// run; the metrics tagged with them come from the rungs and the
/// in-process `query_mix` state.
pub const PER_LAYER: &[(&str, &str, &str, &str, &str)] = &[
    (
        "core.apply_ns_per_tuple",
        "ns",
        "lower",
        "ingest_tuples_per_s",
        "ingest",
    ),
    ("core.mode_ns", "ns", "lower", "query_p50_us", "query_mix"),
    ("core.top_k_ns", "ns", "lower", "query_p50_us", "query_mix"),
    ("core.median_ns", "ns", "lower", "query_p50_us", "query_mix"),
    ("core.cal_ns", "ns", "lower", "query_p50_us", "query_mix"),
    ("core.freq_ns", "ns", "lower", "query_p50_us", "query_mix"),
    (
        "concurrent.apply_ns_per_tuple",
        "ns",
        "lower",
        "ingest_tuples_per_s",
        "ingest",
    ),
    (
        "concurrent.added_ns_per_tuple",
        "ns",
        "lower",
        "ingest_tuples_per_s",
        "ingest",
    ),
    (
        "concurrent.mode_ns",
        "ns",
        "lower",
        "query_p50_us",
        "query_mix",
    ),
    (
        "concurrent.top_k_ns",
        "ns",
        "lower",
        "query_p50_us",
        "query_mix",
    ),
    (
        "concurrent.cal_ns",
        "ns",
        "lower",
        "query_p50_us",
        "query_mix",
    ),
    (
        "concurrent.median_ns",
        "ns",
        "lower",
        "query_p90_us",
        "query_mix",
    ),
    (
        "server.ns_per_tuple.bin",
        "ns",
        "lower",
        "ingest_tuples_per_s",
        "ingest",
    ),
    (
        "server.added_ns_per_tuple.bin",
        "ns",
        "lower",
        "ingest_tuples_per_s",
        "ingest",
    ),
    (
        "server.ns_per_tuple.text",
        "ns",
        "lower",
        "ingest_tuples_per_s",
        "durable",
    ),
    (
        "server.added_ns_per_tuple.text",
        "ns",
        "lower",
        "ingest_tuples_per_s",
        "durable",
    ),
    (
        "server.ns_per_tuple.bin_rr",
        "ns",
        "lower",
        "ingest_tuples_per_s",
        "cluster_mix",
    ),
    (
        "server.phase_us.queue",
        "us",
        "lower",
        "write_p50_us",
        "ingest",
    ),
    (
        "server.phase_us.parse",
        "us",
        "lower",
        "write_p50_us",
        "ingest",
    ),
    (
        "server.phase_us.apply",
        "us",
        "lower",
        "write_p50_us",
        "ingest",
    ),
    (
        "server.phase_us.reply",
        "us",
        "lower",
        "write_p50_us",
        "ingest",
    ),
    (
        "server.outside_span_share",
        "ratio",
        "lower",
        "write_p50_us",
        "ingest+durable",
    ),
    (
        "server.conns_per_tick_avg",
        "count",
        "lower",
        "write_p50_us",
        "durable",
    ),
    (
        "server.poll_wait_p50_us",
        "us",
        "lower",
        "write_p50_us",
        "durable",
    ),
    (
        "server.flush_tuples_avg",
        "tuples",
        "higher",
        "ingest_tuples_per_s",
        "ingest",
    ),
    (
        "server.verb_p99_us.mode",
        "us",
        "lower",
        "query_p90_us",
        "query_mix",
    ),
    (
        "server.verb_p99_us.topk",
        "us",
        "lower",
        "query_p90_us",
        "query_mix",
    ),
    (
        "server.verb_p99_us.median",
        "us",
        "lower",
        "query_p90_us",
        "query_mix",
    ),
    (
        "server.verb_p99_us.cal",
        "us",
        "lower",
        "query_p90_us",
        "query_mix",
    ),
    (
        "server.verb_p99_us.freq",
        "us",
        "lower",
        "query_p90_us",
        "query_mix",
    ),
    (
        "persist.ns_per_tuple",
        "ns",
        "lower",
        "ingest_tuples_per_s",
        "durable",
    ),
    (
        "persist.added_ns_per_tuple",
        "ns",
        "lower",
        "ingest_tuples_per_s",
        "durable",
    ),
    (
        "persist.fsyncs_per_ktuple",
        "count",
        "lower",
        "ingest_tuples_per_s",
        "durable",
    ),
    (
        "persist.group_batch_avg",
        "tuples",
        "higher",
        "ingest_tuples_per_s",
        "durable",
    ),
    (
        "persist.bytes_per_tuple",
        "B",
        "lower",
        "ingest_tuples_per_s",
        "durable",
    ),
    (
        "persist.fsync_p50_us",
        "us",
        "lower",
        "write_p90_us",
        "durable",
    ),
    (
        "persist.fsync_p99_us",
        "us",
        "lower",
        "write_p90_us",
        "durable",
    ),
    (
        "persist.lock_wait_p99_us",
        "us",
        "lower",
        "write_p90_us",
        "durable",
    ),
    (
        "persist.checkpoint_pause_p99_us",
        "us",
        "lower",
        "write_p90_us",
        "durable",
    ),
    (
        "replicate.ns_per_tuple",
        "ns",
        "lower",
        "ingest_tuples_per_s",
        "durable",
    ),
    (
        "replicate.added_ns_per_tuple",
        "ns",
        "lower",
        "ingest_tuples_per_s",
        "durable",
    ),
    (
        "replicate.lag_lsn_max",
        "lsn",
        "lower",
        "ingest_tuples_per_s",
        "durable",
    ),
    (
        "cluster.ns_per_tuple",
        "ns",
        "lower",
        "ingest_tuples_per_s",
        "cluster_mix",
    ),
    (
        "cluster.added_ns_per_tuple",
        "ns",
        "lower",
        "ingest_tuples_per_s",
        "cluster_mix",
    ),
    (
        "cluster.node_rtts_per_query",
        "count",
        "lower",
        "query_p50_us",
        "cluster_mix",
    ),
    (
        "cluster.node_wait_share",
        "ratio",
        "lower",
        "query_p50_us",
        "cluster_mix",
    ),
    (
        "cluster.median_rtts",
        "count",
        "lower",
        "query_p90_us",
        "cluster_mix",
    ),
];

/// Binary frames in flight on the pipelined rung (as on `ingest`).
const DEPTH: usize = 32;
/// Merged queries the router rung times after its writes.
const ROUTER_QUERIES: u64 = 40;
/// The `query_mix` state the query timings run on: universe, Zipf
/// exponent, and preloaded tuples.
const QUERY_M: u32 = 1 << 20;
const QUERY_ZIPF: f64 = 1.1;
const QUERY_PRELOAD: usize = 1 << 21;

/// How one networked rung sends its frames.
#[derive(Clone, Copy)]
enum Shape {
    BinPipelined,
    BinRequestReply,
    TextRequestReply,
}

/// One rung's outcome.
#[derive(Default)]
struct Rung {
    ns_per_tuple: f64,
    delta: Delta,
    after: Option<Scrape>,
    lag: Option<f64>,
    router: Option<RouterObs>,
    /// Replica or recovery mismatches.
    problems: Vec<String>,
}

/// Computed per-layer values with where each came from.
#[derive(Default)]
struct Values(HashMap<&'static str, (f64, String)>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64, source: impl Into<String>) {
        self.0.insert(name, (value, source.into()));
    }
}

/// The traced run's report: per-layer metrics only.
pub fn traced(ctx: &Ctx, w: Workload, run: RunOut) -> Report {
    let mut r = Report::default();
    let mut v = Values::default();
    let pool = w.frame_pool(ctx.seed, 0);
    let secs = Duration::from_secs_f64((ctx.seconds / 10.0).clamp(0.25, 1.0));
    match ladder(ctx, w, &pool, secs) {
        Ok(mut rungs) => {
            compose(w, &run, &rungs, &mut v);
            for rung in rungs.values_mut() {
                r.problems.append(&mut rung.problems);
            }
        }
        Err(e) => r.problems.push(format!("ladder: {e}")),
    }
    queries(ctx.seed, &mut v);
    for &(name, unit, _, moves, on) in PER_LAYER {
        let (value, source) = v.0.remove(name).unwrap_or((0.0, "missing".into()));
        println!(
            "# layer {name} {} {unit} moves={moves} on={on} source={source}",
            json_num(value)
        );
        r.metric(name, value, unit);
    }
    r.meta("rung_seconds", json_num(secs.as_secs_f64()));
    crate::finish(r, run)
}

/// Runs every rung on the workload's frames.
fn ladder(
    ctx: &Ctx,
    w: Workload,
    pool: &[Vec<Tuple>],
    secs: Duration,
) -> io::Result<HashMap<&'static str, Rung>> {
    let m = w.m();
    let mut rungs = HashMap::new();
    rungs.insert(
        "core",
        in_process(pool, secs, SProfile::new(m), |p, f| p.apply_batch(f)),
    );
    rungs.insert(
        "concurrent",
        in_process(pool, secs, ShardedProfile::new(m, 8), |p, f| {
            p.apply_batch(f)
        }),
    );
    let plain = || ctx.server_config(m, ctx.nproc);
    let always = || ctx.wal_config(m, "rung-wal", Some(SyncPolicy::Always));
    let net = |config: ServerConfig, replica: bool, shape: Shape| {
        server_rung(ctx, config, replica, shape, pool, secs)
    };
    rungs.insert("bin", net(plain(), false, Shape::BinPipelined)?);
    rungs.insert("bin_rr", net(plain(), false, Shape::BinRequestReply)?);
    rungs.insert("text", net(plain(), false, Shape::TextRequestReply)?);
    rungs.insert("wal", net(always(), false, Shape::TextRequestReply)?);
    rungs.insert("replica", net(always(), true, Shape::TextRequestReply)?);
    rungs.insert("router", router_rung(ctx, m, pool, secs)?);
    Ok(rungs)
}

/// Replays frames into an in-process structure for `secs`.
fn in_process<P>(
    pool: &[Vec<Tuple>],
    secs: Duration,
    mut p: P,
    apply: impl Fn(&mut P, &[Tuple]) -> u64,
) -> Rung {
    let t0 = Instant::now();
    let (mut tuples, mut i) = (0u64, 0usize);
    while t0.elapsed() < secs {
        for _ in 0..64 {
            tuples += apply(&mut p, black_box(&pool[i]));
            i = (i + 1) % pool.len();
        }
    }
    black_box(&p);
    Rung {
        ns_per_tuple: ratio(t0.elapsed().as_nanos() as f64, tuples as f64),
        ..Rung::default()
    }
}

/// Replays frames over one connection to a fresh server (optionally
/// with an attached replica), reading `METRICS` around the replay.
fn server_rung(
    ctx: &Ctx,
    config: ServerConfig,
    with_replica: bool,
    shape: Shape,
    pool: &[Vec<Tuple>],
    secs: Duration,
) -> io::Result<Rung> {
    let m = config.m;
    let wal_dir = config.wal.as_ref().map(|d| d.dir.clone());
    let server = Server::start(config, "127.0.0.1:0")?;
    let addr = server.local_addr();
    let replica = match with_replica {
        true => Some(start_replica(ctx, m, addr)?),
        false => None,
    };
    let result = (|| -> ClientResult<(Rung, u64)> {
        let before = Scrape::take(addr)?;
        let end = Instant::now() + secs;
        let (replayed, lag) = std::thread::scope(|s| {
            let lag = replica
                .as_ref()
                .map(|r| s.spawn(move || sample_lag(addr, r.local_addr(), end)));
            let replayed = replay(addr, shape, pool, end);
            (
                replayed,
                lag.map(|h| h.join().expect("lag sampler panicked")),
            )
        });
        let (ns_per_tuple, frames) = replayed?;
        let after = Scrape::take(addr)?;
        let rung = Rung {
            ns_per_tuple,
            delta: Delta::between(&before, &after),
            after: Some(after),
            lag,
            ..Rung::default()
        };
        Ok((rung, frames))
    })();
    let (mut rung, frames) = match result {
        Ok(done) => done,
        Err(e) => {
            if let Some(r) = replica {
                r.shutdown();
            }
            server.shutdown();
            return Err(io::Error::other(e.to_string()));
        }
    };
    match (replica, wal_dir) {
        (Some(replica), Some(dir)) => {
            let mut oracle = Oracle::new(m);
            for f in pool.iter().cycle().take(frames as usize) {
                oracle.apply(f, 1);
            }
            check_replica_and_recovery(ctx, m, server, replica, &dir, &oracle, &mut rung.problems);
        }
        (replica, _) => {
            if let Some(r) = replica {
                r.shutdown();
            }
            server.shutdown();
        }
    }
    Ok(rung)
}

/// Waits for the replica to reach the primary's head and compares its
/// state with the oracle; then crash-stops the primary with
/// `Server::kill`, recovers it from `wal_dir`, and checks that every
/// acknowledged tuple is present.
fn check_replica_and_recovery(
    ctx: &Ctx,
    m: u32,
    primary: Server,
    replica: Server,
    wal_dir: &std::path::Path,
    oracle: &Oracle,
    problems: &mut Vec<String>,
) {
    let (paddr, raddr) = (primary.local_addr(), replica.local_addr());
    let head = stat(paddr, "repl_head_lsn").unwrap_or(u64::MAX);
    if wait_until(|| stat(raddr, "repl_applied_lsn").is_some_and(|a| a >= head)) {
        match fetch_state(raddr) {
            Ok(state) => oracle.check("replica state", &state, problems),
            Err(e) => problems.push(format!("replica state fetch: {e}")),
        }
    } else {
        problems.push(format!("replica did not reach head lsn {head} within 30 s"));
    }
    primary.kill();
    replica.shutdown();
    let recovered = Server::start(
        ServerConfig {
            wal: Some(DurabilityConfig::new(wal_dir)),
            ..ctx.server_config(m, 1)
        },
        "127.0.0.1:0",
    );
    match recovered {
        Ok(server) => {
            match fetch_state(server.local_addr()) {
                Ok(state) => oracle.check("recovered primary", &state, problems),
                Err(e) => problems.push(format!("recovered state fetch: {e}")),
            }
            server.shutdown();
        }
        Err(e) => problems.push(format!("recovery: {e}")),
    }
}

/// Polls `cond` every 2 ms for up to 30 s.
fn wait_until(mut cond: impl FnMut() -> bool) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_secs(30) {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    false
}

/// A `STATS` field read over a fresh connection.
fn stat(addr: SocketAddr, key: &str) -> Option<u64> {
    let mut c = Client::connect(addr).ok()?;
    let stats = c.stats().ok()?;
    let _ = c.quit();
    Client::stats_field(&stats, key)
}

/// Starts a replica of `primary` and waits until it is attached.
fn start_replica(ctx: &Ctx, m: u32, primary: SocketAddr) -> io::Result<Server> {
    let replica = Server::start(
        ServerConfig {
            replica_of: Some(primary.to_string()),
            ..ctx.wal_config(m, "replica", None)
        },
        "127.0.0.1:0",
    )?;
    if !wait_until(|| stat(replica.local_addr(), "repl_connected") == Some(1)) {
        replica.shutdown();
        return Err(io::Error::other("replica did not attach within 30 s"));
    }
    Ok(replica)
}

/// Samples primary head minus replica applied LSN every 20 ms until
/// `end`; returns the largest lag seen.
fn sample_lag(primary: SocketAddr, replica: SocketAddr, end: Instant) -> f64 {
    let (Ok(mut p), Ok(mut r)) = (Client::connect(primary), Client::connect(replica)) else {
        return 0.0;
    };
    let mut max = 0u64;
    while Instant::now() < end {
        let head = p
            .stats()
            .ok()
            .and_then(|s| Client::stats_field(&s, "repl_head_lsn"));
        let applied = r
            .stats()
            .ok()
            .and_then(|s| Client::stats_field(&s, "repl_applied_lsn"));
        if let (Some(h), Some(a)) = (head, applied) {
            max = max.max(h.saturating_sub(a));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = p.quit();
    let _ = r.quit();
    max as f64
}

/// Sends frames from the start of `pool` (cycled) until `end`; returns
/// wall ns per acknowledged tuple and the frames acknowledged.
fn replay(
    addr: SocketAddr,
    shape: Shape,
    pool: &[Vec<Tuple>],
    end: Instant,
) -> ClientResult<(f64, u64)> {
    let proto = match shape {
        Shape::TextRequestReply => WireProto::Text,
        _ => WireProto::Bin,
    };
    let mut c = Client::connect_with(addr, proto)?;
    let t0 = Instant::now();
    let (mut tuples, mut frames, mut i) = (0u64, 0u64, 0usize);
    match shape {
        Shape::BinPipelined => {
            let mut inflight = VecDeque::with_capacity(DEPTH);
            loop {
                let open = Instant::now() < end;
                while open && inflight.len() < DEPTH {
                    c.batch_send(&pool[i])?;
                    inflight.push_back(i);
                    i = (i + 1) % pool.len();
                }
                c.flush_out()?;
                if inflight.pop_front().is_none() {
                    break;
                }
                tuples += c.batch_recv()?;
                frames += 1;
            }
        }
        Shape::BinRequestReply | Shape::TextRequestReply => {
            while Instant::now() < end {
                tuples += c.batch(&pool[i])?;
                frames += 1;
                i = (i + 1) % pool.len();
            }
        }
    }
    let ns = t0.elapsed().as_nanos() as f64;
    c.quit()?;
    Ok((ratio(ns, tuples as f64), frames))
}

/// Routes frames through a two-node cluster for `secs`, then times a
/// fixed rotation of merged queries.
fn router_rung(ctx: &Ctx, m: u32, pool: &[Vec<Tuple>], secs: Duration) -> io::Result<Rung> {
    let nodes = start_cluster(ctx, m, 2, 12)?;
    let result = (|| -> ClientResult<Rung> {
        let mut router = ClusterClient::connect(&nodes[0].local_addr().to_string())?;
        let t0 = Instant::now();
        let (mut tuples, mut i) = (0u64, 0usize);
        while t0.elapsed() < secs {
            tuples += router.batch(&pool[i])?;
            i = (i + 1) % pool.len();
        }
        let ns_per_tuple = ratio(t0.elapsed().as_nanos() as f64, tuples as f64);
        let mut obs = RouterObs::default();
        for q in 0..ROUTER_QUERIES {
            let query = match q % 4 {
                0 => Query::Mode,
                1 => Query::TopK(10),
                2 => Query::Cal(1),
                _ => Query::Median,
            };
            obs.ask(&mut router, query).0?;
        }
        router.close()?;
        Ok(Rung {
            ns_per_tuple,
            router: Some(obs),
            ..Rung::default()
        })
    })();
    for n in nodes {
        n.shutdown();
    }
    result.map_err(|e| io::Error::other(e.to_string()))
}

/// Fills in every per-layer metric but the query timings.
fn compose(w: Workload, run: &RunOut, rungs: &HashMap<&'static str, Rung>, v: &mut Values) {
    let ns = |name: &str| rungs.get(name).map_or(0.0, |r| r.ns_per_tuple);
    let rung = |name: &str| format!("rung:{name}");
    for (metric, name, base) in [
        ("core.apply_ns_per_tuple", "core", None),
        ("concurrent.apply_ns_per_tuple", "concurrent", None),
        ("concurrent.added_ns_per_tuple", "concurrent", Some("core")),
        ("server.ns_per_tuple.bin", "bin", None),
        ("server.added_ns_per_tuple.bin", "bin", Some("concurrent")),
        ("server.ns_per_tuple.text", "text", None),
        ("server.added_ns_per_tuple.text", "text", Some("concurrent")),
        ("server.ns_per_tuple.bin_rr", "bin_rr", None),
        ("persist.ns_per_tuple", "wal", None),
        ("persist.added_ns_per_tuple", "wal", Some("text")),
        ("replicate.ns_per_tuple", "replica", None),
        ("replicate.added_ns_per_tuple", "replica", Some("wal")),
        ("cluster.ns_per_tuple", "router", None),
        ("cluster.added_ns_per_tuple", "router", Some("bin_rr")),
    ] {
        match base {
            None => v.set(metric, ns(name), rung(name)),
            Some(b) => v.set(metric, ns(name) - ns(b), format!("rung:{name}-rung:{b}")),
        }
    }

    // Event loop and codec: the workload's own servers.
    let d = &run.observed.delta;
    let src = "run";
    for phase in ["queue", "parse", "apply", "reply"] {
        let name = match phase {
            "queue" => "server.phase_us.queue",
            "parse" => "server.phase_us.parse",
            "apply" => "server.phase_us.apply",
            _ => "server.phase_us.reply",
        };
        v.set(
            name,
            d.mean("sprofile_phase_duration_us", &format!("phase=\"{phase}\"")),
            src,
        );
    }
    v.set(
        "server.outside_span_share",
        1.0 - ratio(d.span_us(), run.observed.client_rtt_us),
        src,
    );
    v.set(
        "server.conns_per_tick_avg",
        d.mean("sprofile_conns_per_tick", ""),
        src,
    );
    v.set(
        "server.poll_wait_p50_us",
        d.quantile("sprofile_tick_poll_wait_us", "", 0.5),
        src,
    );
    v.set(
        "server.flush_tuples_avg",
        ratio(
            d.get("sprofile_applied_total"),
            d.get("sprofile_flushes_total"),
        ),
        src,
    );
    for (name, verb) in [
        ("server.verb_p99_us.mode", "mode"),
        ("server.verb_p99_us.topk", "topk"),
        ("server.verb_p99_us.median", "median"),
        ("server.verb_p99_us.cal", "cal"),
        ("server.verb_p99_us.freq", "freq"),
    ] {
        let labels = format!("verb=\"{verb}\"");
        let samples = d.count("sprofile_request_duration_us", &labels);
        v.set(
            name,
            d.quantile("sprofile_request_duration_us", &labels, 0.99),
            format!("run({samples} samples)"),
        );
    }

    // The WAL and replication: no kept workload has them, so the rungs
    // that add them.
    let wal_rung = &rungs["wal"];
    let (d, src) = (&wal_rung.delta, rung("wal"));
    let Some(stats) = &wal_rung.after else {
        return;
    };
    let tuples = d.get("sprofile_wal_tuples_total");
    v.set(
        "persist.fsyncs_per_ktuple",
        1e3 * ratio(d.get("sprofile_wal_fsyncs_total"), tuples),
        src.clone(),
    );
    v.set(
        "persist.group_batch_avg",
        d.mean("sprofile_wal_group_batch_tuples", ""),
        src.clone(),
    );
    v.set(
        "persist.bytes_per_tuple",
        ratio(d.get("sprofile_wal_bytes_total"), tuples),
        src.clone(),
    );
    v.set(
        "persist.fsync_p50_us",
        stats.stat("wal_fsync_p50_us"),
        src.clone(),
    );
    v.set(
        "persist.fsync_p99_us",
        stats.stat("wal_fsync_p99_us"),
        src.clone(),
    );
    v.set(
        "persist.lock_wait_p99_us",
        stats.stat("wal_lock_wait_p99_us"),
        src.clone(),
    );
    v.set(
        "persist.checkpoint_pause_p99_us",
        d.quantile("sprofile_wal_checkpoint_pause_us", "", 0.99),
        src,
    );

    v.set(
        "replicate.lag_lsn_max",
        rungs["replica"].lag.unwrap_or(0.0),
        rung("replica"),
    );

    // Router fan-out: cluster_mix's own queries, else the router rung.
    let (obs, src) = match (w, &run.observed.router) {
        (Workload::ClusterMix, Some(obs)) => (obs, "run".to_string()),
        _ => match &rungs["router"].router {
            Some(obs) => (obs, rung("router")),
            None => return,
        },
    };
    v.set(
        "cluster.node_rtts_per_query",
        ratio(obs.node_rtts as f64, obs.queries as f64),
        src.clone(),
    );
    v.set(
        "cluster.node_wait_share",
        ratio(obs.node_us, obs.query_wall_us),
        src.clone(),
    );
    v.set(
        "cluster.median_rtts",
        ratio(obs.median_rtts as f64, obs.medians as f64),
        src,
    );
}

/// Mean ns per call of `f`, repeated for about 20 ms (at least 3 calls).
fn time_ns<T>(mut f: impl FnMut(usize) -> T) -> f64 {
    let t0 = Instant::now();
    let mut n = 0usize;
    while n < 3 || (t0.elapsed() < Duration::from_millis(20) && n < 1 << 20) {
        black_box(f(n));
        n += 1;
    }
    t0.elapsed().as_nanos() as f64 / n as f64
}

/// Times the core and sharded query calls on the `query_mix` state.
fn queries(seed: u64, v: &mut Values) {
    let src = "query_mix state (Zipf preload, m=2^20)";
    let tuples: Vec<Tuple> = StreamConfig::zipf(QUERY_M, QUERY_ZIPF, sub_seed(seed, 1))
        .generator()
        .take(QUERY_PRELOAD)
        .map(|e| e.to_tuple())
        .collect();
    let mut state = SProfile::new(QUERY_M);
    state.apply_batch(&tuples);
    let key = |i: usize| tuples[i % tuples.len()].object;
    let threshold = state.median().unwrap_or(0);
    let freqs: Vec<i64> = (0..QUERY_M).map(|x| state.frequency(x)).collect();
    let sharded = ShardedProfile::from_frequencies(&freqs, 8);
    v.set("core.mode_ns", time_ns(|_| state.mode()), src);
    v.set("core.top_k_ns", time_ns(|_| state.top_k(10)), src);
    v.set("core.median_ns", time_ns(|_| state.median()), src);
    v.set(
        "core.cal_ns",
        time_ns(|_| state.count_at_least(threshold)),
        src,
    );
    v.set("core.freq_ns", time_ns(|i| state.frequency(key(i))), src);
    v.set("concurrent.mode_ns", time_ns(|_| sharded.mode()), src);
    v.set("concurrent.top_k_ns", time_ns(|_| sharded.top_k(10)), src);
    v.set(
        "concurrent.cal_ns",
        time_ns(|_| sharded.count_at_least(threshold)),
        src,
    );
    v.set("concurrent.median_ns", time_ns(|_| sharded.median()), src);
}
