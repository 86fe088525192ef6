//! The workloads, their seeded inputs, set-up, measured phase and
//! oracle checks. Every server is started in process through
//! `Server::start`, and every request goes through the public `Client`
//! or `ClusterClient`.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use sprofile::{SProfile, Tuple};
use sprofile_cluster::ClusterClient;
use sprofile_server::bin_proto::{self, Reply};
use sprofile_server::{
    BackendKind, Client, ClientError, ClientResult, ClusterConfig, DurabilityConfig, Server,
    ServerConfig, SyncPolicy, WireProto,
};
use sprofile_streamgen::StreamConfig;

use crate::scrape::{Delta, Scrape};
use crate::stats::{ns_since, Clock, Lat, SEGMENTS};

/// Binary requests kept in flight per connection on `ingest`.
const DEPTH: usize = 32;
/// `ingest`: a query takes the next free slot of the window once this
/// long has passed since the previous one; every other slot is a
/// `BATCH` frame.
const QUERY_GAP: Duration = Duration::from_millis(1);
/// `cluster_mix`: one scatter-gather query after this many batches.
const CLUSTER_QUERY_EVERY: u64 = 4;
/// Unmeasured load before each round's measured segment, seconds: the
/// poll loop and caches settle into their steady state.
const WARMUP_S: f64 = 0.25;
/// Frames in each connection's replay pool (cycled).
const POOL_FRAMES: usize = 2048;
/// Preload frame length (the whole preload rides big frames).
const PRELOAD_FRAME: usize = 4096;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Ingest,
    ClusterMix,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::Ingest, Workload::ClusterMix];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::ClusterMix => "cluster_mix",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Why the workload exists: the layer it loads and the one it
    /// leaves nearly idle.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Ingest => {
                "binary BATCH 64 pipelined 32 deep, one query in the window per ms, Stream1 at \
                 m=4096, no WAL: the profile fits in cache, so the server's event loop and codec \
                 dominate and persist is idle"
            }
            Workload::ClusterMix => {
                "routed 512-tuple batches over two hash-partitioned primaries plus a \
                 scatter-gather query every 4th batch: the cluster router's fan-out and merges"
            }
        }
    }

    /// Universe size.
    pub fn m(self) -> u32 {
        match self {
            Workload::Ingest => 4096,
            Workload::ClusterMix => 65536,
        }
    }

    /// Tuples per write request.
    pub fn frame_len(self) -> usize {
        match self {
            Workload::Ingest => 64,
            Workload::ClusterMix => 512,
        }
    }

    /// Tuples preloaded during set-up.
    fn preload_len(self) -> usize {
        match self {
            Workload::Ingest => 1 << 20,
            Workload::ClusterMix => 1 << 19,
        }
    }

    /// The write stream: paper Stream1 (uniform add/remove).
    pub fn stream(self, seed: u64) -> StreamConfig {
        StreamConfig::stream1(self.m(), seed)
    }

    /// The frames connection `conn` replays, cycled.
    pub fn frame_pool(self, seed: u64, conn: usize) -> Vec<Vec<Tuple>> {
        let mut events = self.stream(sub_seed(seed, 100 + conn as u64)).generator();
        (0..POOL_FRAMES)
            .map(|_| {
                (&mut events)
                    .take(self.frame_len())
                    .map(|e| e.to_tuple())
                    .collect()
            })
            .collect()
    }

    fn preload(self, seed: u64) -> Vec<Vec<Tuple>> {
        let tuples: Vec<Tuple> = self
            .stream(sub_seed(seed, 1))
            .generator()
            .take(self.preload_len())
            .map(|e| e.to_tuple())
            .collect();
        tuples
            .chunks(PRELOAD_FRAME)
            .map(<[Tuple]>::to_vec)
            .collect()
    }
}

/// Derives an independent stream seed from the run seed (splitmix64).
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small seeded generator for request choices.
pub struct Rng64(u64);

impl Rng64 {
    pub fn new(seed: u64) -> Rng64 {
        Rng64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        sub_seed(self.0, 0)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Run-wide settings shared by every workload.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub nproc: usize,
    /// Scratch directory for WAL directories, inside the working tree.
    pub tmp: PathBuf,
    dirs: AtomicU64,
}

impl Ctx {
    pub fn new(seed: u64, seconds: f64, nproc: usize, tmp: PathBuf) -> Ctx {
        Ctx {
            seed,
            seconds,
            nproc,
            tmp,
            dirs: AtomicU64::new(0),
        }
    }

    /// A fresh directory name under the scratch directory.
    pub fn fresh_dir(&self, label: &str) -> PathBuf {
        let n = self.dirs.fetch_add(1, Ordering::Relaxed);
        self.tmp.join(format!("{label}-{n}"))
    }

    /// A server config with the benchmark's sizing: `workers` event-loop
    /// threads and the default sharded backend with 8 shards.
    pub fn server_config(&self, m: u32, workers: usize) -> ServerConfig {
        ServerConfig {
            m,
            workers,
            backend: BackendKind::Sharded { shards: 8 },
            snapshot_dir: self.tmp.clone(),
            ..ServerConfig::default()
        }
    }

    /// A WAL-backed config rooted at a fresh directory; `sync` `None`
    /// keeps the default interval policy.
    pub fn wal_config(&self, m: u32, label: &str, sync: Option<SyncPolicy>) -> ServerConfig {
        let mut wal = DurabilityConfig::new(self.fresh_dir(label));
        if let Some(sync) = sync {
            wal.sync = sync;
        }
        ServerConfig {
            wal: Some(wal),
            ..self.server_config(m, self.nproc)
        }
    }
}

/// Frequencies every acknowledged write should have produced.
pub struct Oracle {
    freqs: Vec<i64>,
}

impl Oracle {
    pub fn new(m: u32) -> Oracle {
        Oracle {
            freqs: vec![0; m as usize],
        }
    }

    pub fn apply(&mut self, tuples: &[Tuple], times: u64) {
        let times = times as i64;
        for t in tuples {
            let f = &mut self.freqs[t.object as usize];
            *f += if t.is_add { times } else { -times };
        }
    }

    /// Applies each pool frame as often as it was acknowledged.
    pub fn apply_counts(&mut self, pool: &[Vec<Tuple>], acked: &[u64]) {
        for (frame, &n) in pool.iter().zip(acked) {
            if n > 0 {
                self.apply(frame, n);
            }
        }
    }

    pub fn profile(&self) -> SProfile {
        SProfile::from_frequencies(&self.freqs)
    }

    /// Compares a fetched state frequency by frequency.
    pub fn check(&self, what: &str, got: &SProfile, problems: &mut Vec<String>) {
        if got.num_objects() as usize != self.freqs.len() {
            problems.push(format!(
                "{what}: universe {} != {}",
                got.num_objects(),
                self.freqs.len()
            ));
            return;
        }
        let wrong: Vec<usize> = (0..self.freqs.len())
            .filter(|&x| got.frequency(x as u32) != self.freqs[x])
            .collect();
        if let Some(&x) = wrong.first() {
            problems.push(format!(
                "{what}: {} objects differ from the oracle, first {x}: {} != {}",
                wrong.len(),
                got.frequency(x as u32),
                self.freqs[x]
            ));
        }
    }
}

/// One read request.
#[derive(Clone, Copy, Debug)]
pub enum Query {
    Mode,
    TopK(u32),
    Cal(i64),
    Freq(u32),
    Median,
}

/// The query kinds, in [`Query::kind`] order.
pub const QUERY_KINDS: [&str; 5] = ["mode", "topk", "cal", "freq", "median"];

impl Query {
    /// Index of the query's kind in [`QUERY_KINDS`].
    pub fn kind(self) -> usize {
        match self {
            Query::Mode => 0,
            Query::TopK(_) => 1,
            Query::Cal(_) => 2,
            Query::Freq(_) => 3,
            Query::Median => 4,
        }
    }
}

/// The read verbs, over one server or a whole cluster.
pub trait Queries {
    fn q_mode(&mut self) -> ClientResult<Option<(u32, i64)>>;
    fn q_top_k(&mut self, k: u32) -> ClientResult<Vec<(u32, i64)>>;
    fn q_cal(&mut self, threshold: i64) -> ClientResult<u32>;
    fn q_freq(&mut self, x: u32) -> ClientResult<i64>;
    fn q_median(&mut self) -> ClientResult<Option<i64>>;

    fn ask(&mut self, q: Query) -> ClientResult<()> {
        match q {
            Query::Mode => self.q_mode().map(drop),
            Query::TopK(k) => self.q_top_k(k).map(drop),
            Query::Cal(t) => self.q_cal(t).map(drop),
            Query::Freq(x) => self.q_freq(x).map(drop),
            Query::Median => self.q_median().map(drop),
        }
    }
}

impl Queries for Client {
    fn q_mode(&mut self) -> ClientResult<Option<(u32, i64)>> {
        self.mode()
    }
    fn q_top_k(&mut self, k: u32) -> ClientResult<Vec<(u32, i64)>> {
        self.top_k(k)
    }
    fn q_cal(&mut self, threshold: i64) -> ClientResult<u32> {
        self.count_at_least(threshold)
    }
    fn q_freq(&mut self, x: u32) -> ClientResult<i64> {
        self.freq(x)
    }
    fn q_median(&mut self) -> ClientResult<Option<i64>> {
        self.median()
    }
}

impl Queries for ClusterClient {
    fn q_mode(&mut self) -> ClientResult<Option<(u32, i64)>> {
        self.mode()
    }
    fn q_top_k(&mut self, k: u32) -> ClientResult<Vec<(u32, i64)>> {
        self.top_k(k)
    }
    fn q_cal(&mut self, threshold: i64) -> ClientResult<u32> {
        self.count_at_least(threshold)
    }
    fn q_freq(&mut self, x: u32) -> ClientResult<i64> {
        self.freq(x)
    }
    fn q_median(&mut self) -> ClientResult<Option<i64>> {
        self.median()
    }
}

/// Checks MODE, TOPK, MEDIAN and CAL answers against the oracle.
pub fn check_answers(
    what: &str,
    q: &mut impl Queries,
    oracle: &SProfile,
    problems: &mut Vec<String>,
) {
    let mut result = || -> ClientResult<Vec<String>> {
        let mut bad = Vec::new();
        let mode = oracle.mode().map(|e| {
            let obj = oracle
                .mode_objects()
                .iter()
                .copied()
                .min()
                .unwrap_or(e.object);
            (obj, e.frequency)
        });
        let got = q.q_mode()?;
        if got != mode {
            bad.push(format!("MODE {got:?} != {mode:?}"));
        }
        let got = q.q_top_k(10)?;
        if got != oracle.top_k(10) {
            bad.push(format!("TOPK 10 {got:?} != {:?}", oracle.top_k(10)));
        }
        let med = oracle.median();
        let got = q.q_median()?;
        if got != med {
            bad.push(format!("MEDIAN {got:?} != {med:?}"));
        }
        for t in [1, med.unwrap_or(0), mode.map_or(0, |m| m.1)] {
            let got = q.q_cal(t)?;
            if got != oracle.count_at_least(t) {
                bad.push(format!("CAL {t} {got} != {}", oracle.count_at_least(t)));
            }
        }
        Ok(bad)
    };
    match result() {
        Ok(bad) => problems.extend(bad.into_iter().map(|b| format!("{what}: {b}"))),
        Err(e) => problems.push(format!("{what}: query failed: {e}")),
    }
}

/// A server's whole state, fetched inline over the binary protocol.
pub fn fetch_state(addr: SocketAddr) -> ClientResult<SProfile> {
    let mut c = Client::connect_with(addr, WireProto::Bin)?;
    let bytes = c.snapshot_fetch()?;
    c.quit()?;
    SProfile::from_snapshot_bytes(&bytes).map_err(|e| ClientError::Protocol(e.to_string()))
}

/// Sends `frames` over one binary connection, request/reply.
pub fn preload(addr: SocketAddr, frames: &[Vec<Tuple>]) -> ClientResult<()> {
    let mut c = Client::connect_with(addr, WireProto::Bin)?;
    for f in frames {
        c.batch(f)?;
    }
    c.quit()
}

/// Reserves `n` loopback addresses for cluster nodes, which must know
/// every peer's address before they start.
fn reserve_addrs(n: usize) -> io::Result<Vec<String>> {
    let listeners = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<io::Result<Vec<_>>>()?;
    listeners
        .iter()
        .map(|l| l.local_addr().map(|a| a.to_string()))
        .collect()
}

/// Starts a cluster of `nodes` hash-partitioned primaries over `slices`
/// slices, one event-loop worker each, no WAL.
pub fn start_cluster(ctx: &Ctx, m: u32, nodes: usize, slices: u32) -> io::Result<Vec<Server>> {
    let addrs = reserve_addrs(nodes)?;
    (0..nodes)
        .map(|i| {
            Server::start(
                ServerConfig {
                    cluster: Some(ClusterConfig {
                        slices,
                        node: i as u32,
                        nodes: addrs.clone(),
                    }),
                    ..ctx.server_config(m, 1)
                },
                &addrs[i],
            )
        })
        .collect()
}

/// What a client saw of one workload's observed calls into the cluster
/// router: node round trips behind each merged query.
#[derive(Default)]
pub struct RouterObs {
    pub queries: u64,
    pub query_wall_us: f64,
    pub node_rtts: u64,
    pub node_us: f64,
    pub medians: u64,
    pub median_rtts: u64,
}

impl RouterObs {
    /// Runs one merged query, attributing the node round trips it made.
    pub fn ask(&mut self, router: &mut ClusterClient, q: Query) -> (ClientResult<()>, u64) {
        let totals = |r: &ClusterClient| {
            r.node_latency_us()
                .iter()
                .fold((0u64, 0u64), |(c, s), h| (c + h.count(), s + h.sum()))
        };
        let (c0, s0) = totals(router);
        let t0 = Instant::now();
        let result = router.ask(q);
        let ns = ns_since(t0);
        let (c1, s1) = totals(router);
        self.queries += 1;
        self.query_wall_us += ns as f64 / 1e3;
        self.node_rtts += c1 - c0;
        self.node_us += (s1 - s0) as f64;
        if matches!(q, Query::Median) {
            self.medians += 1;
            self.median_rtts += c1 - c0;
        }
        (result, ns)
    }

    /// Adds another round's observations.
    pub fn absorb(&mut self, o: RouterObs) {
        self.queries += o.queries;
        self.query_wall_us += o.query_wall_us;
        self.node_rtts += o.node_rtts;
        self.node_us += o.node_us;
        self.medians += o.medians;
        self.median_rtts += o.median_rtts;
    }
}

/// Server-side readings around the measured phase: the client/server
/// reconciliation of every run, and the traced run's per-layer metrics.
#[derive(Default)]
pub struct Observed {
    /// `METRICS` growth over the measured phase, summed over servers.
    pub delta: Delta,
    pub router: Option<RouterObs>,
    /// Σ client send-to-reply time over the measured phase, µs.
    pub client_rtt_us: f64,
}

/// One workload run.
#[derive(Default)]
pub struct RunOut {
    pub setup_s: Vec<f64>,
    pub writes: Lat,
    /// Query latencies, one set per kind of [`QUERY_KINDS`].
    pub queries: [Lat; 5],
    /// Tuples acknowledged in each segment of the measured phase.
    pub tuples: [u64; SEGMENTS],
    pub segment_s: f64,
    pub elapsed_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub meta: Vec<(String, String)>,
    pub observed: Observed,
}

impl RunOut {
    fn fail(&mut self, what: &str, e: impl std::fmt::Display) {
        self.problems.push(format!("{what}: {e}"));
    }

    fn meta(&mut self, key: &str, json: impl Into<String>) {
        self.meta.push((key.to_string(), json.into()));
    }

    fn absorb(&mut self, c: ConnOut) {
        self.writes.extend(c.writes);
        for (mine, theirs) in self.queries.iter_mut().zip(c.queries) {
            mine.extend(theirs);
        }
        for (mine, theirs) in self.tuples.iter_mut().zip(c.tuples) {
            *mine += theirs;
        }
        self.segment_s = c.clock.segment_seconds();
        self.attempted += c.attempted;
        self.failed += c.failed;
        self.observed.client_rtt_us += c.rtt_ns as f64 / 1e3;
        if let Some(e) = c.error {
            self.problems.push(format!("connection ended early: {e}"));
        }
    }
}

/// What one client connection saw.
struct ConnOut {
    clock: Clock,
    writes: Lat,
    queries: [Lat; 5],
    /// Acknowledgements per pool frame.
    acked: Vec<u64>,
    tuples: [u64; SEGMENTS],
    attempted: u64,
    failed: u64,
    rtt_ns: u64,
    error: Option<String>,
}

impl ConnOut {
    fn new(frames: usize, clock: Clock) -> ConnOut {
        ConnOut {
            clock,
            writes: Lat::default(),
            queries: Default::default(),
            acked: vec![0; frames],
            tuples: [0; SEGMENTS],
            attempted: 0,
            failed: 0,
            rtt_ns: 0,
            error: None,
        }
    }

    /// Records one acknowledged write of `tuples`: its latency and its
    /// send-to-reply time. Nothing is recorded during the warm-up.
    fn wrote(&mut self, lat_ns: u64, rtt_ns: u64, tuples: u64) {
        if let Some(seg) = self.clock.segment() {
            self.writes.push(seg, lat_ns);
            self.tuples[seg] += tuples;
            self.rtt_ns += rtt_ns;
        }
    }

    /// Records one answered query, as [`ConnOut::wrote`] does a write.
    fn answered(&mut self, q: Query, lat_ns: u64, rtt_ns: u64) {
        if let Some(seg) = self.clock.segment() {
            self.queries[q.kind()].push(seg, lat_ns);
            self.rtt_ns += rtt_ns;
        }
    }
}

/// The rotation of `ingest`'s queries.
fn ingest_query(rng: &mut Rng64, i: u64, m: u32) -> Query {
    match i % 5 {
        0 => Query::Mode,
        1 => Query::TopK(10),
        2 => Query::Cal(rng.below(64) as i64),
        3 => Query::Freq(rng.below(u64::from(m)) as u32),
        _ => Query::Median,
    }
}

/// Runs `w` once, in `SEGMENTS` rounds. Each round sets up afresh (its
/// servers, connections and preload, timed for `setup_s`), warms up,
/// measures one segment, and ends with the oracle checks. A server
/// settles into one of several states for its lifetime (which worker
/// took which connection; how a closed-loop client locks onto the
/// poller's park cycle), so every round draws that state anew and the
/// per-segment medians follow the common one.
pub fn run(ctx: &Ctx, w: Workload) -> RunOut {
    let mut out = RunOut::default();
    out.meta("nproc", ctx.nproc.to_string());
    out.meta("seed", ctx.seed.to_string());
    let preload = w.preload(ctx.seed);
    let conns = match w {
        Workload::Ingest => ingest_conns(ctx),
        Workload::ClusterMix => 1,
    };
    let pools: Vec<_> = (0..conns).map(|c| w.frame_pool(ctx.seed, c)).collect();
    for round in 0..SEGMENTS {
        let result = match w {
            Workload::Ingest => ingest(ctx, round, &preload, &pools, &mut out),
            Workload::ClusterMix => cluster_mix(ctx, round, &preload, &pools[0], &mut out),
        };
        if let Err(e) = result {
            out.fail(&format!("round {round} aborted"), e);
            break;
        }
    }
    match w {
        Workload::Ingest => {
            out.meta("server_workers", ctx.nproc.to_string());
            out.meta("client_threads", conns.to_string());
            out.meta("connections", conns.to_string());
            out.meta("pipeline_depth", DEPTH.to_string());
            out.meta("query_gap_us", QUERY_GAP.as_micros().to_string());
        }
        Workload::ClusterMix => {
            out.meta("server_workers", "1".to_string());
            out.meta("cluster_nodes", "2".to_string());
            out.meta("cluster_slices", "12".to_string());
            out.meta("client_threads", "1".to_string());
            out.meta("connections", "2".to_string());
            out.meta("query_every", CLUSTER_QUERY_EVERY.to_string());
        }
    }
    out.meta("warmup_s_per_round", WARMUP_S.to_string());
    out
}

fn io_err(e: ClientError) -> io::Error {
    match e {
        ClientError::Io(e) => e,
        other => io::Error::other(other.to_string()),
    }
}

/// Scrapes every address, before and after each measured phase.
fn scrape_all(addrs: &[SocketAddr]) -> io::Result<Vec<Scrape>> {
    addrs
        .iter()
        .map(|&a| Scrape::take(a).map_err(io_err))
        .collect()
}

/// Waits out the warm-up, then reads the servers: the "before" side of
/// the measured phase's deltas.
fn scrape_at_start(clock: &Clock, addrs: &[SocketAddr]) -> io::Result<Vec<Scrape>> {
    if let Some(wait) = clock.t0.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
    scrape_all(addrs)
}

fn join_all<T>(handles: Vec<std::thread::ScopedJoinHandle<'_, T>>) -> Vec<T> {
    handles
        .into_iter()
        .map(|h| h.join().expect("client thread panicked"))
        .collect()
}

fn absorb_deltas(out: &mut RunOut, before: &[Scrape], after: &[Scrape]) {
    for (b, a) in before.iter().zip(after) {
        out.observed.delta.absorb(Delta::between(b, a));
    }
}

/// `ingest`'s pipelined connections, one client thread each. Each keeps
/// its thread and a server worker busy, so `nproc / 2` of them fit the
/// cores.
fn ingest_conns(ctx: &Ctx) -> usize {
    (ctx.nproc / 2).max(1)
}

/// One slot of an `ingest` window: a pool frame or a query.
#[derive(Clone, Copy)]
enum Slot {
    Write(usize),
    Query(Query),
}

/// One `ingest` connection, speaking the public binary wire format
/// (`bin_proto`) itself: `Client` pipelines only `BATCH` frames, and
/// `ingest` keeps its queries in the same window as its writes.
struct Pipe {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// The pool's frames, encoded once.
    frames: Vec<Vec<u8>>,
    buf: Vec<u8>,
}

impl Pipe {
    /// Connects and makes the `BIN` upgrade handshake.
    fn connect(addr: SocketAddr, pool: &[Vec<Tuple>]) -> io::Result<Pipe> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut pipe = Pipe {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            frames: pool
                .iter()
                .map(|f| {
                    let mut b = Vec::new();
                    bin_proto::put_batch(&mut b, f);
                    b
                })
                .collect(),
            buf: Vec::new(),
        };
        pipe.writer.write_all(b"BIN\n")?;
        pipe.writer.flush()?;
        let mut line = String::new();
        pipe.reader.read_line(&mut line)?;
        if line.trim_end() != "OK BIN" {
            return Err(io::Error::other(format!("expected OK BIN, got {line:?}")));
        }
        Ok(pipe)
    }

    /// Buffers one request; [`Pipe::flush`] sends it.
    fn send(&mut self, slot: Slot) -> io::Result<()> {
        let b = &mut self.buf;
        b.clear();
        match slot {
            Slot::Write(f) => return self.writer.write_all(&self.frames[f]),
            Slot::Query(Query::Mode) => bin_proto::put_simple(b, bin_proto::REQ_MODE),
            Slot::Query(Query::TopK(k)) => bin_proto::put_topk(b, k),
            Slot::Query(Query::Cal(t)) => bin_proto::put_cal(b, t),
            Slot::Query(Query::Freq(x)) => bin_proto::put_freq(b, x),
            Slot::Query(Query::Median) => bin_proto::put_simple(b, bin_proto::REQ_MEDIAN),
        }
        self.writer.write_all(b)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    fn recv(&mut self) -> io::Result<Reply> {
        bin_proto::read_reply(&mut self.reader)
    }
}

/// Whether `reply` is the kind of answer `q` asks for.
fn answers(q: Query, reply: &Reply) -> bool {
    match (q, reply) {
        (Query::Freq(x), Reply::Freq(y, _)) => x == *y,
        (Query::Mode, Reply::Pair(_))
        | (Query::TopK(_), Reply::TopK(_))
        | (Query::Cal(_), Reply::Cal(_))
        | (Query::Median, Reply::Median(_)) => true,
        _ => false,
    }
}

fn ingest(
    ctx: &Ctx,
    round: usize,
    preload_frames: &[Vec<Tuple>],
    pools: &[Vec<Vec<Tuple>>],
    out: &mut RunOut,
) -> io::Result<()> {
    let w = Workload::Ingest;
    let t0 = Instant::now();
    let server = Server::start(ctx.server_config(w.m(), ctx.nproc), "127.0.0.1:0")?;
    let addr = server.local_addr();
    let mut pipes = pools
        .iter()
        .map(|pool| Pipe::connect(addr, pool))
        .collect::<io::Result<Vec<_>>>()?;
    preload(addr, preload_frames).map_err(io_err)?;
    out.setup_s.push(t0.elapsed().as_secs_f64());

    let clock = Clock::round(Instant::now(), WARMUP_S, ctx.seconds, round);
    let (conns, before) = std::thread::scope(|s| {
        let handles: Vec<_> = pipes
            .iter_mut()
            .enumerate()
            .map(|(i, pipe)| {
                let seed = sub_seed(ctx.seed, 200 + (round * pools.len() + i) as u64);
                s.spawn(move || ingest_conn(pipe, clock, seed, w.m()))
            })
            .collect();
        let before = scrape_at_start(&clock, &[addr]);
        (join_all(handles), before)
    });
    out.elapsed_s += clock.t0.elapsed().as_secs_f64();
    drop(pipes);
    let after = scrape_all(&[addr])?;
    absorb_deltas(out, &before?, &after);
    let mut oracle = Oracle::new(w.m());
    for f in preload_frames {
        oracle.apply(f, 1);
    }
    for (c, pool) in conns.into_iter().zip(pools) {
        oracle.apply_counts(pool, &c.acked);
        out.absorb(c);
    }
    let what = format!("ingest round {round}");
    match fetch_state(addr) {
        Ok(state) => oracle.check(&format!("{what} state"), &state, &mut out.problems),
        Err(e) => out.fail(&format!("{what} state fetch"), e),
    }
    let expected = oracle.profile();
    match Client::connect(addr) {
        Ok(mut c) => check_answers(
            &format!("{what} answers"),
            &mut c,
            &expected,
            &mut out.problems,
        ),
        Err(e) => out.fail(&format!("{what} connect"), e),
    }
    server.shutdown();
    Ok(())
}

/// One `ingest` connection: keeps `DEPTH` binary requests in flight
/// until the measured phase ends, then drains them. A query takes the
/// next free slot once `QUERY_GAP` has passed since the previous one,
/// so the window never drains for it; every other slot is the next
/// pool frame. Each request is timed from its send to its reply.
fn ingest_conn(pipe: &mut Pipe, clock: Clock, seed: u64, m: u32) -> ConnOut {
    let mut out = ConnOut::new(pipe.frames.len(), clock);
    let end = clock.end();
    let mut rng = Rng64::new(seed);
    let mut inflight: VecDeque<(Slot, Instant)> = VecDeque::with_capacity(DEPTH);
    let (mut next, mut queries) = (0usize, 0u64);
    let mut next_query = Instant::now() + QUERY_GAP;
    let result = (|| -> io::Result<()> {
        loop {
            if Instant::now() < end {
                while inflight.len() < DEPTH {
                    let now = Instant::now();
                    let slot = if now >= next_query {
                        next_query = now + QUERY_GAP;
                        queries += 1;
                        Slot::Query(ingest_query(&mut rng, queries - 1, m))
                    } else {
                        next += 1;
                        Slot::Write((next - 1) % pipe.frames.len())
                    };
                    pipe.send(slot)?;
                    inflight.push_back((slot, now));
                    out.attempted += 1;
                }
                pipe.flush()?;
            }
            let Some((slot, t0)) = inflight.pop_front() else {
                return Ok(());
            };
            let reply = pipe.recv().inspect_err(|_| {
                out.failed += 1 + inflight.len() as u64;
            })?;
            let ns = ns_since(t0);
            match (slot, reply) {
                (_, Reply::Err(_)) => out.failed += 1,
                (Slot::Write(f), Reply::Ok(n)) => {
                    out.wrote(ns, ns, u64::from(n));
                    out.acked[f] += 1;
                }
                (Slot::Query(q), reply) if answers(q, &reply) => out.answered(q, ns, ns),
                (_, reply) => {
                    out.failed += 1 + inflight.len() as u64;
                    return Err(io::Error::other(format!("unexpected reply {reply:?}")));
                }
            }
        }
    })();
    if let Err(e) = result {
        out.error = Some(e.to_string());
    }
    out
}

fn cluster_mix(
    ctx: &Ctx,
    round: usize,
    preload_frames: &[Vec<Tuple>],
    pool: &[Vec<Tuple>],
    out: &mut RunOut,
) -> io::Result<()> {
    let w = Workload::ClusterMix;
    let t0 = Instant::now();
    let nodes = start_cluster(ctx, w.m(), 2, 12)?;
    let seed_addr = nodes[0].local_addr().to_string();
    let mut router = ClusterClient::connect(&seed_addr).map_err(io_err)?;
    for f in preload_frames {
        router.batch(f).map_err(io_err)?;
    }
    out.setup_s.push(t0.elapsed().as_secs_f64());

    let addrs: Vec<SocketAddr> = nodes.iter().map(Server::local_addr).collect();
    let clock = Clock::round(Instant::now(), WARMUP_S, ctx.seconds, round);
    let end = clock.end();
    let mut conn = ConnOut::new(pool.len(), clock);
    let mut obs = RouterObs::default();
    let mut before = None;
    let mut rng = Rng64::new(sub_seed(ctx.seed, 200 + round as u64));
    let (mut next, mut i) = (0usize, 0u64);
    let result = (|| -> ClientResult<()> {
        while Instant::now() < end {
            if before.is_none() && Instant::now() >= clock.t0 {
                // The measured phase starts: read the nodes, and count
                // router fan-out from here on.
                before = Some(scrape_all(&addrs).map_err(ClientError::Io)?);
                obs = RouterObs::default();
            }
            conn.attempted += 1;
            let t = Instant::now();
            let r = router.batch(&pool[next]);
            let ns = ns_since(t);
            match r {
                Ok(n) => {
                    conn.wrote(ns, ns, n);
                    conn.acked[next] += 1;
                }
                Err(ClientError::Server(_)) => conn.failed += 1,
                Err(e) => {
                    conn.failed += 1;
                    return Err(e);
                }
            }
            next = (next + 1) % pool.len();
            i += 1;
            if i % CLUSTER_QUERY_EVERY == 0 {
                let q = match (i / CLUSTER_QUERY_EVERY) % 4 {
                    0 => Query::Mode,
                    1 => Query::TopK(10),
                    2 => Query::Cal(1 + rng.below(16) as i64),
                    _ => Query::Median,
                };
                conn.attempted += 1;
                let (r, ns) = obs.ask(&mut router, q);
                match r {
                    Ok(()) => conn.answered(q, ns, ns),
                    Err(ClientError::Server(_)) => conn.failed += 1,
                    Err(e) => {
                        conn.failed += 1;
                        return Err(e);
                    }
                }
            }
        }
        Ok(())
    })();
    if let Err(e) = result {
        conn.error = Some(e.to_string());
    }
    out.elapsed_s += clock.t0.elapsed().as_secs_f64();
    let after = scrape_all(&addrs)?;
    absorb_deltas(out, &before.unwrap_or_default(), &after);
    out.observed
        .router
        .get_or_insert_with(RouterObs::default)
        .absorb(obs);
    let mut oracle = Oracle::new(w.m());
    for f in preload_frames {
        oracle.apply(f, 1);
    }
    oracle.apply_counts(pool, &conn.acked);
    out.absorb(conn);
    let expected = oracle.profile();
    let what = format!("cluster round {round}");
    check_answers(
        &format!("{what} merged answers"),
        &mut router,
        &expected,
        &mut out.problems,
    );
    let _ = router.close();
    // The nodes own disjoint slices: their states sum to the oracle.
    let mut sum = vec![0i64; w.m() as usize];
    for &a in &addrs {
        match fetch_state(a) {
            Ok(s) => (0..w.m()).for_each(|x| sum[x as usize] += s.frequency(x)),
            Err(e) => out.fail(&format!("{what} node state fetch"), e),
        }
    }
    oracle.check(
        &format!("{what} node states"),
        &SProfile::from_frequencies(&sum),
        &mut out.problems,
    );
    for n in nodes {
        n.shutdown();
    }
    Ok(())
}
