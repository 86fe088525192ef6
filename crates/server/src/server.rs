//! The TCP server: a readiness-driven event loop over one shared
//! [`ShardedProfile`].
//!
//! Design notes:
//!
//! * **No async runtime, no FFI.** The offline dependency set has no
//!   tokio and the workspace forbids `unsafe`; the reactor is the
//!   `polling` shim (`shims/polling`) — level-triggered readiness over
//!   non-blocking `peek` probes with a condvar-backed `notify` for
//!   wakeups. Each of the `workers` event-loop threads owns a
//!   [`polling::Poller`] and a set of [`Conn`] state machines
//!   (read buffer → frame parser → backend apply → write buffer), and
//!   non-blockingly accepts from the shared listener each tick.
//! * **Backpressure and shedding.** A connection whose reply backlog
//!   outgrows its write buffer pauses parsing (and read interest) until
//!   the peer drains it. Every accepted connection reserves a slot in
//!   one server-wide budget of `max_conns` (whichever worker accepts
//!   it); one past the budget is refused with `ERR overloaded` and
//!   counted in the `shed` metric — explicit shedding instead of
//!   unbounded accept queueing.
//! * **Per-connection write batching.** `ADD`/`RM` (and small `BATCH`
//!   frames) accumulate in a per-connection buffer that is flushed into
//!   [`ShardedProfile::apply_batch`] at `flush_every` tuples. Every read
//!   query flushes first, so a connection always reads its own writes.
//! * **Graceful shutdown.** `SHUTDOWN` (or [`Server::shutdown`]) flips
//!   a flag and notifies every poller; workers drain each connection's
//!   pending buffer (complete frames are never dropped; a `BATCH` cut
//!   off mid-body is dropped whole), flush final replies, and exit.
//! * **Replication streams stay on dedicated threads.** A validated
//!   `REPLICATE` deregisters the connection from its event loop and
//!   hands the raw stream (plus any pipelined leftover bytes) to a
//!   blocking stream thread, so a replica tailing the log for hours
//!   never occupies event-loop capacity.

use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Component, Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use polling::{Event, Poller};
use sprofile::Tuple;
use sprofile_concurrent::ShardedProfile;
use sprofile_obs::hist::AtomicLogHistogram;
use sprofile_obs::span::{register_panic_dump, FlightRecorder, Phase, Span};
use sprofile_obs::{log, Level, Meter, Obs, ObsConfig};
use sprofile_replicate::{
    read_acks, AckState, Applier, ApplierOptions, ApplierStats, ReplicationSource,
};

use crate::backend::BackendKind;
use crate::cluster::{ClusterConfig, ClusterState};
use crate::conn::{Conn, Flow};
use crate::durability::{Durability, DurabilityConfig};
use crate::metrics::{Metrics, PhaseHists, TickHists, VerbHists};
use crate::protocol::{self, Response};
use crate::repl::{BackendSink, ReplState, ReplicaState};

/// Poller wait when a worker has live connections.
const ACTIVE_WAIT: Duration = Duration::from_millis(1);
/// Poller wait when a worker is idle (accept latency bound).
const IDLE_WAIT: Duration = Duration::from_millis(5);
/// Read timeout for detached replication-stream ack readers, so they
/// poll the stop flag.
const STREAM_READ_TIMEOUT: Duration = Duration::from_millis(25);
/// Slowest spans the flight recorder retains (the `SPANS` verb's pool).
const FLIGHT_RECORDER_SPANS: usize = 32;

/// Synchronous-commit mode (`serve --sync-commit`): how many replica
/// acknowledgements a flushed batch waits for before the primary
/// acknowledges the writes that produced it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncCommit {
    /// Asynchronous replication (the default): acks never wait.
    Off,
    /// Wait until a majority of the replication group (this primary
    /// plus its attached replicas) holds the batch — `⌈R/2⌉` replica
    /// acks for `R` attached replicas.
    Quorum,
    /// Wait for every attached replica.
    All,
}

impl SyncCommit {
    /// Parses a `--sync-commit` value (`off` | `quorum` | `all`).
    pub fn parse(s: &str) -> Option<SyncCommit> {
        match s {
            "off" => Some(SyncCommit::Off),
            "quorum" => Some(SyncCommit::Quorum),
            "all" => Some(SyncCommit::All),
            _ => None,
        }
    }

    /// The wire/CLI name.
    pub fn name(self) -> &'static str {
        match self {
            SyncCommit::Off => "off",
            SyncCommit::Quorum => "quorum",
            SyncCommit::All => "all",
        }
    }

    /// Whether acks gate on replicas at all.
    pub fn is_on(self) -> bool {
        self != SyncCommit::Off
    }

    /// Replica acks required for a batch, given `attached` replicas.
    fn required(self, attached: usize) -> usize {
        match self {
            SyncCommit::Off => 0,
            SyncCommit::Quorum => attached.div_ceil(2),
            SyncCommit::All => attached,
        }
    }
}

/// Automatic-failover knobs (`serve --auto-failover`), for a replica
/// that should monitor its primary and hold an election with its peer
/// replicas when the primary goes silent.
#[derive(Clone, Debug)]
pub struct FailoverConfig {
    /// The *other* replicas of the same primary (client addresses).
    /// The election requires a majority of `peers ∪ {self}` reachable.
    pub peers: Vec<String>,
    /// Liveness sampling interval.
    pub heartbeat: Duration,
    /// Consecutive silent samples before an election is attempted. The
    /// stream heartbeats every ~200 ms, so the detection window is
    /// roughly `heartbeat × grace`.
    pub grace: u32,
}

impl FailoverConfig {
    /// Defaults for a peer set: sample every 500 ms, elect after 4
    /// silent samples (~2 s detection).
    pub fn new(peers: Vec<String>) -> FailoverConfig {
        FailoverConfig {
            peers,
            heartbeat: Duration::from_millis(500),
            grace: 4,
        }
    }
}

/// Server construction knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Universe size `m`; wire ids must lie in `[0, m)`.
    pub m: u32,
    /// The engine's shape: how many shards the one [`ShardedProfile`]
    /// every connection shares splits the universe into. A cluster node
    /// rounds the count up to a multiple of its slice count
    /// ([`Server::shards`] reports the count in effect).
    pub backend: BackendKind,
    /// Event-loop worker threads. Unlike the old accept pool, this does
    /// **not** bound concurrent connections — each worker multiplexes
    /// many; [`ServerConfig::max_conns`] is the connection bound.
    pub workers: usize,
    /// Connections served concurrently across all workers before new
    /// ones are shed with `ERR overloaded` (and counted in `shed`).
    pub max_conns: usize,
    /// Per-connection write-buffer flush threshold, in tuples.
    pub flush_every: usize,
    /// Directory `SNAPSHOT <path>` writes are confined to. Clients may
    /// only name **relative** paths without `..`, resolved against this
    /// directory — a remote peer must never gain an arbitrary-file-write
    /// primitive.
    pub snapshot_dir: PathBuf,
    /// Durability: when set, the server recovers its state from this
    /// WAL directory at startup, logs every flushed batch before the
    /// backend apply, and checkpoints in the background. `None` (the
    /// default) keeps the pre-durability in-memory behaviour.
    pub wal: Option<DurabilityConfig>,
    /// Replica mode: when set to a primary's `HOST:PORT`, the server
    /// starts read-only, connects to the primary with `REPLICATE`, and
    /// applies its log continuously (through the local WAL first when
    /// [`ServerConfig::wal`] is also set, so restarts resume from the
    /// durable position). `PROMOTE` flips it writable.
    pub replica_of: Option<String>,
    /// Synchronous commit: when on, every write is logged, shipped, and
    /// acknowledged by enough replicas *before* its `OK` goes out
    /// (RPO = 0 for acknowledged writes) — which forces a flush per
    /// write request, trading the batching throughput for the
    /// guarantee. A batch that cannot gather its acks within
    /// [`ServerConfig::sync_commit_timeout`] degrades to asynchronous
    /// (and `STATS` reports `sync_commit=degraded`) instead of hanging
    /// writers forever. Each wait's duration lands in the commit-wait
    /// histogram surfaced by `STATS`.
    pub sync_commit: SyncCommit,
    /// How long one batch waits for replica acks before degrading.
    pub sync_commit_timeout: Duration,
    /// Health-check-driven failover (replica side, requires
    /// [`ServerConfig::replica_of`]): monitor the primary's frame
    /// stream and, when it goes silent, elect a new head among `peers`.
    pub failover: Option<FailoverConfig>,
    /// Cluster membership: when set, this server is one primary of a
    /// hash-partitioned cluster — it owns a subset of the slices under
    /// a versioned partition map (persisted in the WAL directory when
    /// [`ServerConfig::wal`] is set), refuses writes for non-owned
    /// objects with `ERR moved <ver>`, masks global queries to its
    /// owned objects, and serves the `MAP`/`MAPSET`/`MIGRATE`/`ADOPT`
    /// verbs. Cluster exactness relies on per-write durability ordering,
    /// so pair it with `flush_every: 1` when acked-write loss across a
    /// migration matters.
    pub cluster: Option<ClusterConfig>,
    /// Observability: structured-log level/format/sink and ring-buffer
    /// retention. The default records `info`-level events into the ring
    /// (for `LOGTAIL` and panic dumps) with no output stream.
    pub obs: ObsConfig,
    /// Slow-op threshold in milliseconds: a served request whose total
    /// service time reaches it gets a structured `slow` event with its
    /// verb, phase timings, and connection id. `None` (the default)
    /// disables the check entirely.
    pub slow_ms: Option<u64>,
    /// When set, a plain-HTTP listener on this address serves the same
    /// Prometheus text exposition as the `METRICS` verb on `GET
    /// /metrics` — for scrapers that speak HTTP, not sprofile.
    pub metrics_addr: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            m: 1 << 20,
            backend: BackendKind::Sharded { shards: 8 },
            workers: 4,
            max_conns: 1024,
            flush_every: 256,
            snapshot_dir: PathBuf::from("."),
            wal: None,
            replica_of: None,
            sync_commit: SyncCommit::Off,
            sync_commit_timeout: Duration::from_secs(1),
            failover: None,
            cluster: None,
            obs: ObsConfig::default(),
            slow_ms: None,
            metrics_addr: None,
        }
    }
}

/// Per-second meters rendered by `METRICS`: rejection-class counters
/// whose *rate* is the operational signal (a nonzero total is history;
/// a nonzero rate is a live problem).
#[derive(Default)]
pub(crate) struct Meters {
    /// Connections shed at `--max-conns`.
    pub(crate) shed: Meter,
    /// Replication streams refused/aborted on epoch grounds.
    pub(crate) fenced_rejects: Meter,
    /// Write frames refused with `ERR moved`.
    pub(crate) moved_rejects: Meter,
}

/// Shared state between the server handle and its workers.
pub(crate) struct Shared {
    pub(crate) metrics: Metrics,
    pub(crate) m: u32,
    /// The backend's effective shard count: `--shards` after a cluster
    /// node's slice alignment and the clamp to `m`.
    pub(crate) shards: usize,
    /// Connections the event loops serve at once, across all workers
    /// (`metrics.conns` counts the slots in use).
    max_conns: u64,
    pub(crate) flush_every: usize,
    pub(crate) snapshot_dir: PathBuf,
    /// Structured logging + event ring (always present; level may be
    /// off). Workers log through it, `LOGTAIL` dumps it.
    pub(crate) obs: Arc<Obs>,
    /// Per-verb service-time histograms (µs).
    pub(crate) verb_us: VerbHists,
    /// Cross-verb phase histograms (one per request [`Phase`], fed by
    /// every finished request span), plus the per-flush histogram.
    pub(crate) phase_us: PhaseHists,
    /// Per-event-loop tick instrumentation (poll wait, conns serviced
    /// per tick, read-budget exhaustion), aggregated across workers.
    pub(crate) ticks: TickHists,
    /// Flight recorder retaining the slowest recent request spans —
    /// the `SPANS` verb reads it; panics dump it next to the log ring.
    pub(crate) spans: Arc<FlightRecorder>,
    /// Slow-op threshold in µs; `None` = check disabled.
    pub(crate) slow_us: Option<u64>,
    /// Monotonic connection-id source (per-worker poller keys repeat
    /// across workers; log events need a server-unique id).
    pub(crate) conn_ids: AtomicU64,
    /// Scrape-time per-second meters (see [`Meters`]).
    pub(crate) meters: Meters,
    /// Server start, for `uptime_s`.
    pub(crate) start: Instant,
    pub(crate) durability: Option<Arc<Durability>>,
    pub(crate) repl: ReplState,
    /// Cluster layer (slice ownership, partition map, moved counters);
    /// `None` on a standalone server.
    pub(crate) cluster: Option<ClusterState>,
    /// Write requests answered `ERR readonly` while set (replica mode;
    /// cleared by `PROMOTE`).
    pub(crate) readonly: AtomicBool,
    pub(crate) sync_commit: SyncCommit,
    sync_timeout: Duration,
    /// Set when synchronous commit last timed out waiting for replica
    /// acks (the batch was acknowledged asynchronously); cleared by the
    /// next batch that gathers its acks in time.
    sync_degraded: AtomicBool,
    /// Commit-wait observability: microseconds each synchronous commit
    /// spent waiting for replica acks (degraded waits included).
    pub(crate) commit_wait: AtomicLogHistogram,
    /// Dedicated replication-stream threads, joined on shutdown.
    stream_threads: Mutex<Vec<JoinHandle<()>>>,
    /// Every worker's poller, so `trigger_stop` can wake parked waits.
    pollers: Mutex<Vec<Arc<Poller>>>,
    stop: AtomicBool,
    stop_lock: Mutex<bool>,
    stop_cond: Condvar,
}

impl Shared {
    pub(crate) fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    pub(crate) fn readonly(&self) -> bool {
        self.readonly.load(Ordering::Acquire)
    }

    /// Whether the WAL has fail-stopped: new writes are refused rather
    /// than acknowledged into a state that can never be logged (and that
    /// replicas would silently diverge from while reporting zero lag).
    pub(crate) fn wal_failed(&self) -> bool {
        self.durability.as_ref().is_some_and(|d| d.failed())
    }

    pub(crate) fn trigger_stop(&self) {
        self.stop.store(true, Ordering::Release);
        *self.stop_lock.lock().expect("stop lock poisoned") = true;
        self.stop_cond.notify_all();
        // Wake every event loop parked in a poller wait.
        for p in self.pollers.lock().expect("pollers lock poisoned").iter() {
            p.notify();
        }
    }

    /// Sleeps up to `dur` on the stop condvar; `true` means the server
    /// is stopping (wake up and exit).
    pub(crate) fn sleep_or_stop(&self, dur: Duration) -> bool {
        let stopped = self.stop_lock.lock().expect("stop lock poisoned");
        if *stopped {
            return true;
        }
        let (stopped, _) = self
            .stop_cond
            .wait_timeout(stopped, dur)
            .expect("stop cond poisoned");
        *stopped
    }

    /// The `sync_commit` STATS value.
    pub(crate) fn sync_commit_state(&self) -> &'static str {
        if self.sync_commit.is_on() && self.sync_degraded.load(Ordering::Relaxed) {
            "degraded"
        } else {
            self.sync_commit.name()
        }
    }

    /// The synchronous-commit gate: blocks until enough attached
    /// replicas acknowledge `lsn`, the timeout degrades the batch to
    /// asynchronous, or the server stops. The replica count is
    /// re-sampled each poll, so a replica detaching mid-wait lowers the
    /// requirement instead of stranding the writer. Every wait's
    /// duration is recorded in the commit-wait histogram and returned
    /// (µs) for the flushing request's span.
    fn sync_commit_wait(&self, d: &Durability, lsn: u64) -> u64 {
        if !self.sync_commit.is_on() || self.readonly() {
            return 0;
        }
        let registry = d.registry();
        let start = Instant::now();
        let deadline = start + self.sync_timeout;
        loop {
            if registry.count_acked_at_least(lsn) >= self.sync_commit.required(registry.len()) {
                self.sync_degraded.store(false, Ordering::Relaxed);
                break;
            }
            if self.stopping() || Instant::now() >= deadline {
                self.sync_degraded.store(true, Ordering::Relaxed);
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let waited = start.elapsed().as_micros().min(u64::MAX as u128) as u64;
        self.commit_wait.record(waited);
        waited
    }

    /// A fresh server-unique connection id (1-based; 0 is "no conn").
    pub(crate) fn next_conn_id(&self) -> u64 {
        self.conn_ids.fetch_add(1, Ordering::Relaxed) + 1
    }
}

/// A running server. Dropping it does **not** stop the workers; call
/// [`Server::shutdown`] (or have a client send `SHUTDOWN`) and then
/// [`Server::wait`].
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    workers: Vec<JoinHandle<()>>,
    checkpointer: Option<JoinHandle<()>>,
    promoter: Option<JoinHandle<()>>,
    metrics_http: Option<JoinHandle<()>>,
    backend: Arc<ShardedProfile>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// spawns the event-loop workers. In WAL mode ([`ServerConfig::wal`])
    /// the backend first recovers the state persisted in the WAL
    /// directory — a corrupt log fails startup here rather than serving
    /// wrong answers.
    pub fn start<A: ToSocketAddrs>(config: ServerConfig, addr: A) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let obs = Obs::new(config.obs.clone())?;
        // A cluster node aligns its shards to its slices, so each query
        // can fold the owned shards' own answers.
        let kind = match (&config.cluster, config.backend) {
            (Some(c), BackendKind::Sharded { shards }) => BackendKind::Sharded {
                shards: c.aligned_shards(shards),
            },
            (None, kind) => kind,
        };
        let (durability, backend) = match &config.wal {
            Some(wal_cfg) => {
                let (d, recovered) = Durability::open(wal_cfg, config.m)?;
                (Some(Arc::new(d)), kind.recover(&recovered.profile))
            }
            None => (None, kind.build(config.m)),
        };
        let backend = Arc::new(backend);
        // Any durable server can feed replicas; a `--replica-of` server
        // additionally runs the applier (and starts read-only).
        let source = durability.as_ref().map(|d| {
            Arc::new(ReplicationSource::new(
                d.wal_handle(),
                d.dir().clone(),
                d.registry(),
            ))
        });
        let replica = config.replica_of.as_ref().map(|primary| {
            let stats = ApplierStats::new();
            let sink = BackendSink::new(Arc::clone(&backend), durability.clone(), config.m)
                .with_obs(Arc::clone(&obs));
            let applier = Applier::spawn(
                ApplierOptions::new(primary.clone()),
                Box::new(sink),
                Arc::clone(&stats),
            );
            ReplicaState {
                stats,
                applier: Mutex::new(Some(applier)),
                promoted: AtomicBool::new(false),
            }
        });
        // The cluster map marker persists next to the WAL; a memory-only
        // node rebuilds the bootstrap map each boot.
        let cluster = match &config.cluster {
            Some(cfg) => Some(
                ClusterState::new(cfg, config.wal.as_ref().map(|w| w.dir.clone()))
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?,
            ),
            None => None,
        };
        let shared = Arc::new(Shared {
            metrics: Metrics::default(),
            m: config.m,
            shards: backend.num_shards(),
            max_conns: config.max_conns.max(1) as u64,
            // Sync commit acknowledges nothing it has not replicated,
            // so the reply to each write request must sit behind its
            // own flush: threshold 1.
            flush_every: if config.sync_commit.is_on() {
                1
            } else {
                config.flush_every.max(1)
            },
            snapshot_dir: config.snapshot_dir.clone(),
            obs,
            verb_us: VerbHists::default(),
            phase_us: PhaseHists::default(),
            ticks: TickHists::default(),
            spans: Arc::new(FlightRecorder::new(FLIGHT_RECORDER_SPANS)),
            slow_us: config.slow_ms.map(|ms| ms.saturating_mul(1000)),
            conn_ids: AtomicU64::new(0),
            meters: Meters::default(),
            start: Instant::now(),
            durability,
            readonly: AtomicBool::new(replica.is_some()),
            repl: ReplState { source, replica },
            cluster,
            sync_commit: config.sync_commit,
            sync_timeout: config.sync_commit_timeout,
            sync_degraded: AtomicBool::new(false),
            commit_wait: AtomicLogHistogram::new(),
            stream_threads: Mutex::new(Vec::new()),
            pollers: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
            stop_lock: Mutex::new(false),
            stop_cond: Condvar::new(),
        });
        if config.obs.dump_on_panic {
            // The span recorder dumps next to the log ring on panic, so
            // a crash report carries the latency decomposition of the
            // slowest requests around it.
            register_panic_dump(&shared.spans);
        }
        let worker_count = config.workers.max(1);
        log!(
            shared.obs,
            Level::Info,
            "server",
            "listening",
            addr = addr,
            backend = "sharded",
            workers = worker_count,
        );
        // Optional plain-HTTP metrics endpoint; a bad address is a
        // startup error (the operator asked for it explicitly).
        let metrics_http = match &config.metrics_addr {
            Some(a) => {
                let http = TcpListener::bind(a)?;
                http.set_nonblocking(true)?;
                log!(
                    shared.obs,
                    Level::Info,
                    "server",
                    "metrics http listening",
                    addr = http
                        .local_addr()
                        .map_or_else(|_| a.clone(), |v| v.to_string()),
                );
                let shared_m = Arc::clone(&shared);
                Some(
                    std::thread::Builder::new()
                        .name("sprofile-metrics-http".into())
                        .spawn(move || metrics_http_loop(http, shared_m))
                        .expect("spawn metrics http"),
                )
            }
            None => None,
        };
        let mut workers = Vec::with_capacity(worker_count);
        for i in 0..worker_count {
            let listener = listener.try_clone()?;
            let backend = Arc::clone(&backend);
            let shared_w = Arc::clone(&shared);
            let poller = Arc::new(Poller::new());
            shared
                .pollers
                .lock()
                .expect("pollers lock poisoned")
                .push(Arc::clone(&poller));
            workers.push(
                std::thread::Builder::new()
                    .name(format!("sprofile-worker-{i}"))
                    .spawn(move || event_worker(listener, backend, shared_w, poller))
                    .expect("spawn event worker"),
            );
        }
        let checkpointer = shared.durability.as_ref().map(|d| {
            let d = Arc::clone(d);
            let backend = Arc::clone(&backend);
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("sprofile-wal-housekeeping".into())
                .spawn(move || housekeeping_loop(d, backend, shared))
                .expect("spawn wal housekeeping")
        });
        // Health-check-driven failover: a replica with a peer set
        // monitors the primary's heartbeat stream and runs elections.
        let promoter = match (&config.failover, &config.replica_of) {
            (Some(f), Some(primary)) => {
                let ctx = crate::failover::FailoverCtx {
                    shared: Arc::clone(&shared),
                    backend: Arc::clone(&backend),
                    m: config.m,
                    primary: primary.clone(),
                    self_addr: addr.to_string(),
                    peers: f.peers.clone(),
                    heartbeat: f.heartbeat.max(Duration::from_millis(10)),
                    grace: f.grace.max(1),
                };
                Some(
                    std::thread::Builder::new()
                        .name("sprofile-failover".into())
                        .spawn(move || crate::failover::promoter_loop(ctx))
                        .expect("spawn failover promoter"),
                )
            }
            _ => None,
        };
        Ok(Server {
            shared,
            addr,
            workers,
            checkpointer,
            promoter,
            metrics_http,
            backend,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The backend's effective shard count: the configured count, rounded
    /// up to a multiple of the slice count on a cluster node, then
    /// clamped to the universe size.
    pub fn shards(&self) -> usize {
        self.backend.num_shards()
    }

    /// The server's metrics (live view).
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// The server's observability handle (live view): the event ring
    /// behind `LOGTAIL`, usable directly by embedding tests.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.shared.obs
    }

    /// Asks the workers to stop (idempotent, non-blocking).
    pub fn request_shutdown(&self) {
        self.shared.trigger_stop();
    }

    /// Blocks until shutdown is requested (by [`Self::request_shutdown`]
    /// or a client's `SHUTDOWN`), then joins every worker — each drains
    /// its connections' pending write buffers first — and seals the WAL
    /// (if any) with a final checkpoint. Returns the total number of
    /// tuples applied over the server's lifetime.
    pub fn wait(mut self) -> u64 {
        {
            let mut stopped = self.shared.stop_lock.lock().expect("stop lock poisoned");
            while !*stopped {
                stopped = self
                    .shared
                    .stop_cond
                    .wait(stopped)
                    .expect("stop cond poisoned");
            }
        }
        self.join_threads();
        // Seal the log with a final checkpoint so the next boot is
        // instant; a failure only costs restart-time replay.
        if let Some(d) = &self.shared.durability {
            d.checkpoint_counting_errors(&self.backend);
        }
        self.shared.metrics.applied.get()
    }

    /// Joins every server thread after the stop flag is up: event-loop
    /// workers, the housekeeping checkpointer, detached replication
    /// streams, the failover promoter, and finally the replica applier.
    fn join_threads(&mut self) {
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(cp) = self.checkpointer.take() {
            let _ = cp.join();
        }
        if let Some(http) = self.metrics_http.take() {
            let _ = http.join();
        }
        let streams: Vec<_> = self
            .shared
            .stream_threads
            .lock()
            .expect("stream threads lock poisoned")
            .drain(..)
            .collect();
        for s in streams {
            let _ = s.join();
        }
        if let Some(p) = self.promoter.take() {
            let _ = p.join();
        }
        // Stop the replica applier (if any) before the final checkpoint,
        // so everything it applied is captured.
        if let Some(replica) = &self.shared.repl.replica {
            replica.stop_applier();
        }
    }

    /// [`Self::request_shutdown`] + [`Self::wait`].
    pub fn shutdown(self) -> u64 {
        self.request_shutdown();
        self.wait()
    }

    /// Crash-stop, for failure testing: stops and joins every thread
    /// like [`Self::shutdown`] but skips the final checkpoint, so the
    /// WAL directory is left exactly as a `kill -9`'d process would
    /// leave it — recovery must replay the log tail, and anything not
    /// yet logged is lost.
    pub fn kill(mut self) {
        self.shared.trigger_stop();
        self.join_threads();
    }
}

/// Background WAL housekeeping: sleeps on the stop condvar, waking every
/// poll interval to (1) fire the idle-sync timer — the interval sync
/// policy only fsyncs when appends arrive, so a quiescent server would
/// otherwise hold an unbounded crash-loss window — and (2) check whether
/// the background-checkpoint tuple threshold has been crossed. Exits
/// when the server stops (the final checkpoint is `wait`'s job, after
/// every worker has drained its buffers). A checkpoint is an O(m)
/// snapshot under the WAL lock, so failures (full disk) back off
/// exponentially instead of hot-retrying against ingest.
fn housekeeping_loop(d: Arc<Durability>, backend: Arc<ShardedProfile>, shared: Arc<Shared>) {
    const CHECK_EVERY: Duration = Duration::from_millis(100);
    let mut failures: u32 = 0;
    let mut cooldown: u32 = 0;
    loop {
        if shared.sleep_or_stop(CHECK_EVERY) {
            return;
        }
        d.idle_sync();
        if !d.background_enabled() {
            continue;
        }
        if cooldown > 0 {
            cooldown -= 1;
            continue;
        }
        if d.wants_checkpoint() {
            if d.checkpoint_counting_errors(&backend) {
                failures = 0;
            } else {
                failures = (failures + 1).min(8);
                cooldown = 1 << failures; // 0.2 s doubling to ~25 s
            }
        }
    }
}

/// Confines a client-supplied `SNAPSHOT` path to `dir`: only relative
/// paths made of normal components (no `..`, no root, no drive prefix)
/// are accepted, so a remote peer cannot write outside the configured
/// snapshot directory. Returns the resolved target, or `None` when the
/// path is rejected.
pub(crate) fn resolve_snapshot_path(dir: &Path, client_path: &str) -> Option<PathBuf> {
    let requested = Path::new(client_path);
    if requested.components().count() == 0
        || !requested
            .components()
            .all(|c| matches!(c, Component::Normal(_)))
    {
        return None;
    }
    Some(dir.join(requested))
}

/// Flushes a per-connection write buffer into the backend — through
/// the WAL first when durability is on (*log before apply*), so every
/// tuple the backend ever sees is re-derivable from the log. A nonzero
/// `trace` tags the flush: the appended LSN is noted with the
/// replication source (so the record ships with a `TRC` frame and every
/// replica's ring sees the id) and a `trace`-target event lands in this
/// node's own ring. When the flush happens on behalf of an in-flight
/// request, `span` receives the durability sub-phase breakdown (WAL
/// lock wait / append / fsync / commit wait); worker drain paths pass
/// `None` and only the flush histogram records.
pub(crate) fn flush_pending(
    pending: &mut Vec<Tuple>,
    backend: &ShardedProfile,
    shared: &Shared,
    trace: u64,
    span: Option<&mut Span>,
) {
    if pending.is_empty() {
        return;
    }
    let t0 = Instant::now();
    let mut flushed_lsn = 0u64;
    match &shared.durability {
        Some(d) => {
            let fb = d.log_and_apply(pending, backend);
            let mut commit_wait_us = 0;
            if let Some(lsn) = fb.lsn {
                flushed_lsn = lsn;
                if trace != 0 {
                    if let Some(source) = &shared.repl.source {
                        source.note_trace(lsn, trace);
                    }
                }
                // Synchronous commit: the batch's OKs (sent after this
                // flush returns) are gated on replica acks for its LSN.
                commit_wait_us = shared.sync_commit_wait(d, lsn);
            }
            if let Some(span) = span {
                span.add(Phase::WalLockWait, fb.lock_wait_us);
                span.add(Phase::WalAppend, fb.append_us);
                span.add(Phase::Fsync, fb.fsync_us);
                span.add(Phase::CommitWait, commit_wait_us);
            }
        }
        None => {
            backend.apply_batch(pending);
        }
    }
    shared
        .phase_us
        .flush_us
        .record(t0.elapsed().as_micros().min(u64::MAX as u128) as u64);
    if trace != 0 {
        log!(
            shared.obs,
            Level::Info,
            "trace",
            "flush";
            trace = trace,
            tuples = pending.len(),
            lsn = flushed_lsn,
        );
    }
    shared.metrics.applied.add(pending.len() as u64);
    shared.metrics.flushes.inc();
    pending.clear();
}

/// The `--metrics-addr` accept loop: one scrape per connection, served
/// synchronously (the payload is a point-in-time render; scrapers poll
/// at second granularity, so this thread never needs to multiplex).
fn metrics_http_loop(listener: TcpListener, shared: Arc<Shared>) {
    while !shared.stopping() {
        match listener.accept() {
            Ok((stream, _peer)) => serve_metrics_http(stream, &shared),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if shared.sleep_or_stop(Duration::from_millis(25)) {
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                if shared.sleep_or_stop(Duration::from_millis(100)) {
                    return;
                }
            }
        }
    }
}

/// Answers one HTTP request: `GET /metrics` (or `/`) gets the
/// Prometheus text exposition, anything else a 404. Minimal by design —
/// this is a scrape endpoint, not a web server.
fn serve_metrics_http(mut stream: TcpStream, shared: &Arc<Shared>) {
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    stream
        .set_read_timeout(Some(Duration::from_millis(500)))
        .ok();
    stream
        .set_write_timeout(Some(Duration::from_millis(500)))
        .ok();
    // Read up to the end of the request head; only the request line
    // matters.
    let mut head: Vec<u8> = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 8192 {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    let line = head.split(|&b| b == b'\n').next().unwrap_or(&[]);
    let line = String::from_utf8_lossy(line);
    let mut parts = line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (status, body) = if method == "GET" && (path == "/metrics" || path == "/") {
        ("200 OK", crate::prom::render(shared))
    } else {
        ("404 Not Found", "not found\n".to_string())
    };
    let _ = write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// One event-loop worker: non-blockingly accepts from the shared
/// listener, then multiplexes its connections through the poller.
fn event_worker(
    listener: TcpListener,
    backend: Arc<ShardedProfile>,
    shared: Arc<Shared>,
    poller: Arc<Poller>,
) {
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut events: Vec<Event> = Vec::new();
    let mut ready: Vec<usize> = Vec::new();
    let mut next_key: usize = 0;
    while !shared.stopping() {
        accept_burst(&listener, &shared, &poller, &mut conns, &mut next_key);
        let timeout = if conns.is_empty() {
            IDLE_WAIT
        } else {
            ACTIVE_WAIT
        };
        let t_wait = Instant::now();
        let _ = poller.wait(&mut events, Some(timeout));
        shared
            .ticks
            .poll_wait_us
            .record(t_wait.elapsed().as_micros().min(u64::MAX as u128) as u64);
        if shared.stopping() {
            break;
        }
        // Step every readable connection, plus any with leftover work
        // (buffered replies, unparsed input, a deferred close).
        ready.clear();
        ready.extend(events.iter().map(|e| e.key));
        ready.extend(
            conns
                .iter()
                .filter(|(_, c)| c.wants_step())
                .map(|(&k, _)| k),
        );
        ready.sort_unstable();
        ready.dedup();
        if !ready.is_empty() {
            shared.ticks.conns_per_tick.record(ready.len() as u64);
        }
        for key in ready.drain(..) {
            let Some(conn) = conns.get_mut(&key) else {
                continue;
            };
            match step_conn(conn, &backend, &shared) {
                StepResult::Keep => {
                    poller.modify(Event {
                        key,
                        readable: !conn.paused() && !conn.finished(),
                    });
                }
                StepResult::Close => {
                    poller.delete(key);
                    let mut conn = conns.remove(&key).expect("conn present");
                    flush_pending(&mut conn.pending, &backend, &shared, conn.trace, None);
                    log!(shared.obs, Level::Debug, "conn", "closed", conn = conn.id);
                    shared.metrics.conns.dec();
                    shared.metrics.connections_active.dec();
                }
                StepResult::Detach { start_lsn, epoch } => {
                    poller.delete(key);
                    let conn = conns.remove(&key).expect("conn present");
                    shared.metrics.conns.dec();
                    // `pending` was flushed by the REPLICATE arm; the
                    // stream thread owns the active count from here.
                    if detach_stream(conn, &shared, start_lsn, epoch).is_err() {
                        shared.metrics.connections_active.dec();
                    }
                }
            }
        }
    }
    // Drain: acked tuples always reach the backend, and buffered
    // replies (e.g. the SHUTDOWN conn's BYE) get a best-effort
    // synchronous flush.
    for (key, mut conn) in conns.drain() {
        poller.delete(key);
        flush_pending(&mut conn.pending, &backend, &shared, conn.trace, None);
        conn.blocking_flush(Duration::from_millis(500));
        shared.metrics.conns.dec();
        shared.metrics.connections_active.dec();
    }
}

/// Accepts every connection the listener has queued. Each one first
/// reserves a slot in the server-wide `max_conns` budget (released on
/// close or detach); with none left, it is shed with `ERR overloaded`.
fn accept_burst(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    poller: &Arc<Poller>,
    conns: &mut HashMap<usize, Conn>,
    next_key: &mut usize,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.metrics.connections_accepted.inc();
                if !shared.metrics.conns.try_inc_below(shared.max_conns) {
                    shed(stream, shared);
                    continue;
                }
                let key = *next_key;
                *next_key += 1;
                let registered = stream.set_nonblocking(true).is_ok()
                    && poller.add(&stream, Event::readable(key)).is_ok();
                if !registered {
                    shared.metrics.conns.dec();
                    continue;
                }
                stream.set_nodelay(true).ok();
                shared.metrics.connections_active.inc();
                let id = shared.next_conn_id();
                log!(shared.obs, Level::Debug, "conn", "accepted", conn = id);
                conns.insert(key, Conn::new(stream, shared.flush_every, id));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // Transient accept failures (EMFILE under fd pressure,
            // ECONNABORTED, …) must not kill the worker: the next tick
            // retries, and the loop top still honours the stop flag.
            Err(_) => break,
        }
    }
}

/// Refuses a connection accepted over the budget: a short blocking
/// write of the typed error (a text line: every connection starts in
/// text), then close. The `shed`
/// counter is the operator's overload signal.
fn shed(mut stream: TcpStream, shared: &Shared) {
    shared.metrics.shed.inc();
    shared.metrics.errors.inc();
    log!(shared.obs, Level::Warn, "server", "connection shed");
    if stream.set_nonblocking(false).is_ok() {
        stream
            .set_write_timeout(Some(Duration::from_millis(100)))
            .ok();
        let mut reply = Vec::new();
        protocol::encode(&mut reply, &Response::Err("overloaded".into()));
        let _ = stream.write_all(&reply);
    }
}

enum StepResult {
    Keep,
    Close,
    Detach { start_lsn: u64, epoch: u64 },
}

/// One tick of one connection: read, parse/serve, write.
fn step_conn(conn: &mut Conn, backend: &ShardedProfile, shared: &Arc<Shared>) -> StepResult {
    let mut fatal = false;
    if !conn.paused() {
        match conn.fill() {
            Ok(exhausted) => {
                if exhausted {
                    // The connection hit its per-tick read budget — the
                    // fairness throttle engaged. A sustained rate here
                    // means some connection's input keeps outpacing it.
                    shared.ticks.read_budget_exhausted.inc();
                }
            }
            // Transport read error: `fill` marked EOF; whatever
            // complete frames arrived still get served below, then the
            // close path drains `pending` (those tuples were acked).
            Err(_) => fatal = true,
        }
    }
    let flow = conn.process(backend, shared);
    if let Flow::Stream { start_lsn, epoch } = flow {
        return StepResult::Detach { start_lsn, epoch };
    }
    if conn.flush_socket().is_err() {
        fatal = true;
    }
    let done = matches!(flow, Flow::Done);
    if fatal || (done && !conn.wants_write()) {
        StepResult::Close
    } else {
        StepResult::Keep
    }
}

/// Hands a validated `REPLICATE` connection to a dedicated blocking
/// stream thread, so a replica tailing the log for hours never occupies
/// event-loop capacity. The thread is joined on shutdown.
fn detach_stream(conn: Conn, shared: &Arc<Shared>, start_lsn: u64, epoch: u64) -> io::Result<()> {
    let (stream, leftover, unsent) = conn.into_stream_parts();
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(STREAM_READ_TIMEOUT))?;
    // A write timeout bounds how long a stalled replica (full send
    // window) can pin the stream thread — without it, a blocked
    // write_all would never reach the stop check and graceful shutdown
    // would hang. On timeout the stream errors out and the replica
    // reconnects and resumes.
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let mut writer = BufWriter::new(stream.try_clone()?);
    // Replies queued before the REPLICATE line go out first, in order.
    if !unsent.is_empty() {
        writer.write_all(&unsent)?;
    }
    spawn_stream_thread(writer, stream, leftover, shared, start_lsn, epoch)
}

/// Spawns the named stream thread (plus its ack reader). Any bytes the
/// event loop read past the `REPLICATE` line (a replica may pipeline
/// its first ACK) are prepended to the ack input — dropping them, or
/// parsing a line split across the boundary as junk, would lose acks.
fn spawn_stream_thread(
    mut writer: BufWriter<TcpStream>,
    ack_stream: TcpStream,
    leftover: Vec<u8>,
    shared: &Arc<Shared>,
    start_lsn: u64,
    epoch: u64,
) -> io::Result<()> {
    let source = shared
        .repl
        .source
        .clone()
        .expect("REPLICATE validated against a source");
    let registrar = Arc::clone(shared);
    let shared = Arc::clone(shared);
    let handle = std::thread::Builder::new()
        .name("sprofile-repl-stream".into())
        .spawn(move || {
            let acks = AckState::new();
            let ack_join = {
                let acks = Arc::clone(&acks);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name("sprofile-repl-acks".into())
                    .spawn(move || {
                        let input = io::Cursor::new(leftover).chain(BufReader::new(ack_stream));
                        read_acks(input, &acks, &|| shared.stopping() || acks.is_closed())
                    })
                    .expect("spawn ack reader")
            };
            let _ = source.stream(start_lsn, epoch, &mut writer, &acks, &|| shared.stopping());
            // Unblock the ack thread (it also exits on stop/EOF) and
            // close the connection: a stream never goes back to
            // request/reply mode.
            acks.close();
            let _ = ack_join.join();
            shared.metrics.connections_active.dec();
        })?;
    registrar
        .stream_threads
        .lock()
        .expect("stream threads lock poisoned")
        .push(handle);
    Ok(())
}
