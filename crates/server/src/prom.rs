//! The reporting layer: one table, [`FIELDS`], defines every field the
//! server reports, and both report verbs render from it.
//!
//! A [`Field`] holds a `STATS` key (or none), a Prometheus family (or
//! none), a help text and one reader. [`stats`] renders the rows that
//! have a key, as space-separated `key=value` pairs in table order —
//! the `STATS` payload. [`render`] renders the rows that have a family
//! as Prometheus text exposition (format 0.0.4) — the `METRICS` payload,
//! also served on `GET /metrics` by the optional `--metrics-addr`
//! listener. README's field reference is the same rows as a markdown
//! table, and a test keeps the two equal. A row whose plane is off (no
//! WAL, sync commit off, no cluster) reads `None` and is left out of
//! both views.
//!
//! A family's `# TYPE` is derived, not stored: a histogram reading is a
//! histogram; any other family is a counter when its name ends in
//! `_total` and a gauge when it does not.
//!
//! Each render takes one [`Reading`]: the replication snapshot and the
//! cluster's slice ownership are read once, and every row reads from
//! that, so `repl_lag_lsn` is always the `head − applied` of the same
//! instant. Both views read the same lock-free counters, so they can
//! disagree only by whatever traffic lands between two renders.
//!
//! Histograms use the shared log-bucketed histograms' exactness
//! guarantee: `count_below(b)` is exact when `b` is a power of two, so
//! the `le` boundaries here are all powers of two (microseconds). One
//! deliberate deviation from strict Prometheus semantics: a sample
//! exactly equal to a boundary counts in the *next* bucket (the
//! underlying probe is `< b`, not `≤ b`). Cumulative monotonicity — the
//! property scrapers and `histogram_quantile` rely on — holds
//! regardless.
//!
//! The per-second meters ([`Meters`](crate::server::Meters)) update at
//! scrape time: `*_per_s` is the rate since the previous scrape,
//! `*_per_s_ewma` a 10 s EWMA of it. Scrape cadence therefore sets the
//! resolution; an unscraped server pays nothing for them, and `STATS`
//! never reads them.

use std::fmt::{self, Write as _};

use sprofile_obs::hist::AtomicLogHistogram;
use sprofile_obs::span::Phase;
use sprofile_obs::MeterReading;
use sprofile_persist::WalMetrics;

use crate::cluster::ClusterState;
use crate::durability::Durability;
use crate::metrics::Verb;
use crate::repl::ReplSnapshot;
use crate::server::Shared;

use Value::{Hist, Hists, Info, Num, Rate};

/// Histogram `le` boundaries, in microseconds. All powers of two, so
/// every cumulative count is exact (see the module docs).
const LE_BOUNDS: [u64; 9] = [16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576];

/// The server version, for `version` and `sprofile_build_info`.
const VERSION: &str = env!("CARGO_PKG_VERSION");

/// The compile profile, for `build_profile` and `sprofile_build_info`.
const BUILD_PROFILE: &str = if cfg!(debug_assertions) {
    "debug"
} else {
    "release"
};

/// One reported field.
struct Field {
    /// The `STATS` key, or `None` for a `METRICS`-only field.
    key: Option<&'static str>,
    /// The Prometheus family, or `None` for a `STATS`-only field.
    family: Option<&'static str>,
    /// What the field means: the family's `# HELP` and README's text.
    help: &'static str,
    /// The field's value in one reading; `None` while its plane is off.
    read: for<'r> fn(&'r Reading<'r>) -> Option<Value<'r>>,
}

/// One field's value in one reading.
enum Value<'r> {
    /// A number: a counter or a gauge.
    Num(u64),
    /// Text. `STATS` prints the first label's value; a family renders a
    /// constant-1 gauge carrying the labels.
    Info(Vec<(&'static str, &'r str)>),
    /// A per-second meter: the family holds the rate and a `_ewma`
    /// family its 10 s EWMA.
    Rate(MeterReading),
    /// One histogram.
    Hist(&'r AtomicLogHistogram),
    /// One histogram per value of a label, e.g. `verb="add"`.
    Hists(&'static str, Vec<(&'static str, &'r AtomicLogHistogram)>),
}

impl Value<'_> {
    /// The `# TYPE` of `family` when it renders this value.
    fn kind(&self, family: &str) -> &'static str {
        match self {
            Hist(_) | Hists(..) => "histogram",
            _ if family.ends_with("_total") => "counter",
            _ => "gauge",
        }
    }
}

/// What one render reads: the server, plus the planes whose fields must
/// come from a single reading.
struct Reading<'a> {
    shared: &'a Shared,
    repl: ReplSnapshot,
    /// `(owned, total)` slices on a cluster node.
    slices: Option<(u64, u64)>,
}

impl<'a> Reading<'a> {
    fn new(shared: &'a Shared) -> Reading<'a> {
        Reading {
            shared,
            repl: shared.repl.snapshot(),
            slices: shared.cluster.as_ref().map(ClusterState::ownership),
        }
    }

    fn durability(&self) -> Option<&'a Durability> {
        self.shared.durability.as_deref()
    }

    fn wal(&self) -> Option<&'a WalMetrics> {
        self.durability().map(Durability::wal_metrics)
    }

    fn cluster(&self) -> Option<&'a ClusterState> {
        self.shared.cluster.as_ref()
    }

    /// The commit-wait histogram, while synchronous commit is on.
    fn commit_wait(&self) -> Option<&'a AtomicLogHistogram> {
        let shared = self.shared;
        shared.sync_commit.is_on().then_some(&shared.commit_wait)
    }
}

/// Every reported field, in `STATS` order.
static FIELDS: &[Field] = &[
    Field {
        key: Some("backend"),
        family: None,
        help: "Engine shape: always `sharded` (one ShardedProfile).",
        read: |_| Some(Info(vec![("backend", "sharded")])),
    },
    Field {
        key: Some("shards"),
        family: Some("sprofile_shards"),
        help: "Effective shard count of the profile (cluster nodes align it to their slices).",
        read: |r| Some(Num(r.shared.shards as u64)),
    },
    Field {
        key: Some("m"),
        family: Some("sprofile_universe_m"),
        help: "Configured universe size m.",
        read: |r| Some(Num(r.shared.m.into())),
    },
    Field {
        key: Some("uptime_s"),
        family: Some("sprofile_uptime_seconds"),
        help: "Seconds since the server started.",
        read: |r| Some(Num(r.shared.start.elapsed().as_secs())),
    },
    Field {
        key: Some("version"),
        family: None,
        help: "Server version.",
        read: |_| Some(Info(vec![("version", VERSION)])),
    },
    Field {
        key: Some("build_profile"),
        family: None,
        help: "Compile profile: `release` or `debug`.",
        read: |_| Some(Info(vec![("profile", BUILD_PROFILE)])),
    },
    Field {
        key: None,
        family: Some("sprofile_build_info"),
        help: "Constant 1, labelled with the server version and build profile.",
        read: |_| Some(Info(vec![("version", VERSION), ("profile", BUILD_PROFILE)])),
    },
    Field {
        key: None,
        family: Some("sprofile_readonly"),
        help: "1 while the node refuses writes (replica before PROMOTE).",
        read: |r| Some(Num(r.shared.readonly().into())),
    },
    Field {
        key: Some("accepted"),
        family: Some("sprofile_connections_accepted_total"),
        help: "Connections accepted over the server's lifetime.",
        read: |r| Some(Num(r.shared.metrics.connections_accepted.get())),
    },
    Field {
        key: Some("active"),
        family: Some("sprofile_connections_active"),
        help: "Connections currently open (replication streams included).",
        read: |r| Some(Num(r.shared.metrics.connections_active.get())),
    },
    Field {
        key: Some("conns"),
        family: Some("sprofile_worker_conns"),
        help: "Connections currently owned by the event-loop workers.",
        read: |r| Some(Num(r.shared.metrics.conns.get())),
    },
    Field {
        key: Some("shed"),
        family: Some("sprofile_shed_total"),
        help: "Connections refused with ERR overloaded at --max-conns.",
        read: |r| Some(Num(r.shared.metrics.shed.get())),
    },
    Field {
        key: None,
        family: Some("sprofile_shed_per_s"),
        help: "Connections shed per second since the previous scrape.",
        read: |r| Some(Rate(r.shared.meters.shed.observe(r.shared.metrics.shed.get()))),
    },
    Field {
        key: Some("adds"),
        family: Some("sprofile_adds_total"),
        help: "ADD requests received.",
        read: |r| Some(Num(r.shared.metrics.ops_add.get())),
    },
    Field {
        key: Some("removes"),
        family: Some("sprofile_removes_total"),
        help: "RM requests received.",
        read: |r| Some(Num(r.shared.metrics.ops_remove.get())),
    },
    Field {
        key: Some("batches"),
        family: Some("sprofile_batches_total"),
        help: "BATCH frames successfully applied.",
        read: |r| Some(Num(r.shared.metrics.ops_batch.get())),
    },
    Field {
        key: Some("batch_tuples"),
        family: Some("sprofile_batch_tuples_total"),
        help: "Tuples received inside successful BATCH frames.",
        read: |r| Some(Num(r.shared.metrics.batch_tuples.get())),
    },
    Field {
        key: Some("applied"),
        family: Some("sprofile_applied_total"),
        help: "Tuples applied to the backend: flushed client writes, plus each record a replica applies (a bootstrap installs a state and counts none).",
        read: |r| Some(Num(r.shared.metrics.applied.get())),
    },
    Field {
        key: Some("flushes"),
        family: Some("sprofile_flushes_total"),
        help: "Write-buffer flushes performed.",
        read: |r| Some(Num(r.shared.metrics.flushes.get())),
    },
    // Flushes count flushes, not requests, so their durations are a
    // family of their own rather than a tenth `phase`.
    Field {
        key: None,
        family: Some("sprofile_flush_duration_us"),
        help: "Write-buffer flush time (WAL append, fsync, apply, commit wait), microseconds.",
        read: |r| Some(Hist(&r.shared.phase_us.flush_us)),
    },
    Field {
        key: Some("queries"),
        family: Some("sprofile_queries_total"),
        help: "Read queries served.",
        read: |r| Some(Num(r.shared.metrics.queries.get())),
    },
    Field {
        key: Some("snapshots"),
        family: Some("sprofile_snapshots_total"),
        help: "Snapshots written.",
        read: |r| Some(Num(r.shared.metrics.snapshots.get())),
    },
    Field {
        key: Some("errors"),
        family: Some("sprofile_errors_total"),
        help: "ERR replies sent.",
        read: |r| Some(Num(r.shared.metrics.errors.get())),
    },
    // Every verb is always exposed (zero-count series included) so
    // scrapers see a stable set of label values.
    Field {
        key: None,
        family: Some("sprofile_request_duration_us"),
        help: "Server-side service time per verb, microseconds (bytes buffered to reply queued).",
        read: |r| {
            let hists = Verb::ALL.map(|v| (v.name(), r.shared.verb_us.get(v)));
            Some(Hists("verb", hists.to_vec()))
        },
    },
    // Every finished request records every phase, zeros included, so
    // the counts stay aligned and the sums partition the verb totals.
    Field {
        key: None,
        family: Some("sprofile_phase_duration_us"),
        help: "Time requests spend in each processing phase, microseconds.",
        read: |r| {
            let hists = Phase::ALL.map(|p| (p.name(), r.shared.phase_us.get(p)));
            Some(Hists("phase", hists.to_vec()))
        },
    },
    Field {
        key: None,
        family: Some("sprofile_tick_poll_wait_us"),
        help: "Idle wait before an event-loop sweep that moved bytes, capped at 1 ms (5 ms without connections), microseconds (all workers).",
        read: |r| Some(Hist(&r.shared.ticks.poll_wait_us)),
    },
    Field {
        key: None,
        family: Some("sprofile_conns_per_tick"),
        help: "Connections that moved bytes per event-loop sweep that moved any (all workers).",
        read: |r| Some(Hist(&r.shared.ticks.conns_per_tick)),
    },
    Field {
        key: None,
        family: Some("sprofile_read_budget_exhausted_total"),
        help: "Sweeps on which a connection exhausted its per-sweep read budget.",
        read: |r| Some(Num(r.shared.ticks.read_budget_exhausted.get())),
    },
    Field {
        key: Some("wal"),
        family: None,
        help: "1 when the server runs with a WAL (`--wal`), else 0.",
        read: |r| Some(Num(r.durability().is_some().into())),
    },
    Field {
        key: Some("wal_records"),
        family: Some("sprofile_wal_records_total"),
        help: "Records appended to the WAL.",
        read: |r| r.wal().map(|w| Num(w.records())),
    },
    Field {
        key: Some("wal_tuples"),
        family: Some("sprofile_wal_tuples_total"),
        help: "Tuples inside appended WAL records.",
        read: |r| r.wal().map(|w| Num(w.tuples())),
    },
    Field {
        key: Some("wal_bytes"),
        family: Some("sprofile_wal_bytes_total"),
        help: "Bytes written to WAL segments.",
        read: |r| r.wal().map(|w| Num(w.bytes())),
    },
    Field {
        key: Some("wal_segments"),
        family: Some("sprofile_wal_segments"),
        help: "Live WAL segment files.",
        read: |r| r.wal().map(|w| Num(w.segments())),
    },
    Field {
        key: Some("wal_fsyncs"),
        family: Some("sprofile_wal_fsyncs_total"),
        help: "fsync calls issued by the WAL.",
        read: |r| r.wal().map(|w| Num(w.fsyncs())),
    },
    Field {
        key: Some("wal_checkpoints"),
        family: Some("sprofile_wal_checkpoints_total"),
        help: "Checkpoints written.",
        read: |r| r.wal().map(|w| Num(w.checkpoints())),
    },
    Field {
        key: None,
        family: Some("sprofile_wal_checkpoint_duration_us"),
        help: "Wall-clock latency of each durable checkpoint write, microseconds.",
        read: |r| r.wal().map(|w| Hist(w.checkpoint_us())),
    },
    Field {
        key: None,
        family: Some("sprofile_wal_checkpoint_pause_us"),
        help: "WAL-lock hold time across each full checkpoint (the pause writers observe), microseconds.",
        read: |r| r.wal().map(|w| Hist(w.checkpoint_pause_us())),
    },
    Field {
        key: None,
        family: Some("sprofile_wal_head_lsn"),
        help: "Newest committed LSN.",
        read: |r| r.wal().map(|w| Num(w.head_lsn())),
    },
    Field {
        key: Some("wal_errors"),
        family: Some("sprofile_wal_errors_total"),
        help: "WAL append/checkpoint failures.",
        read: |r| r.durability().map(|d| Num(d.error_count())),
    },
    Field {
        key: Some("wal_failed"),
        family: Some("sprofile_wal_failed"),
        help: "1 once the WAL has fail-stopped and new writes are refused.",
        read: |r| r.durability().map(|d| Num(d.failed().into())),
    },
    Field {
        key: Some("wal_fsync_p50_us"),
        family: None,
        help: "Median WAL fsync latency, microseconds (log-bucketed).",
        read: |r| r.wal().map(|w| Num(w.fsync_us().quantile(0.5))),
    },
    Field {
        key: Some("wal_fsync_p99_us"),
        family: None,
        help: "p99 WAL fsync latency, microseconds (log-bucketed).",
        read: |r| r.wal().map(|w| Num(w.fsync_us().quantile(0.99))),
    },
    Field {
        key: Some("wal_fsync_max_us"),
        family: None,
        help: "Slowest WAL fsync, microseconds.",
        read: |r| r.wal().map(|w| Num(w.fsync_us().max())),
    },
    Field {
        key: None,
        family: Some("sprofile_wal_fsync_duration_us"),
        help: "Wall-clock latency of each WAL fsync, microseconds.",
        read: |r| r.wal().map(|w| Hist(w.fsync_us())),
    },
    Field {
        key: Some("wal_lock_wait_p99_us"),
        family: None,
        help: "p99 wait for the WAL mutex across appends and checkpoints, microseconds.",
        read: |r| r.wal().map(|w| Num(w.lock_wait_us().quantile(0.99))),
    },
    Field {
        key: None,
        family: Some("sprofile_wal_lock_wait_us"),
        help: "Time spent waiting to acquire the WAL mutex, microseconds.",
        read: |r| r.wal().map(|w| Hist(w.lock_wait_us())),
    },
    Field {
        key: Some("wal_group_batch_avg"),
        family: None,
        help: "Mean tuples per appended WAL record (the group-commit batch).",
        read: |r| {
            let batch = r.wal()?.group_batch();
            Some(Num(batch.sum().checked_div(batch.count()).unwrap_or(0)))
        },
    },
    Field {
        key: None,
        family: Some("sprofile_wal_group_batch_tuples"),
        help: "Tuples carried by each appended WAL record (group-commit batch size).",
        read: |r| r.wal().map(|w| Hist(w.group_batch())),
    },
    Field {
        key: Some("repl_role"),
        family: Some("sprofile_repl_role"),
        help: "Replication role: none, primary, replica or promoted (METRICS: the role label of a constant 1).",
        read: |r| Some(Info(vec![("role", r.repl.role)])),
    },
    Field {
        key: Some("repl_epoch"),
        family: Some("sprofile_repl_epoch"),
        help: "Current replication epoch (generation id).",
        read: |r| Some(Num(r.repl.epoch)),
    },
    Field {
        key: Some("repl_connected"),
        family: Some("sprofile_repl_connected"),
        help: "Attached replicas (primary) or 0/1 stream liveness (replica).",
        read: |r| Some(Num(r.repl.connected)),
    },
    Field {
        key: Some("repl_head_lsn"),
        family: Some("sprofile_repl_head_lsn"),
        help: "Newest LSN the node knows about.",
        read: |r| Some(Num(r.repl.head)),
    },
    Field {
        key: Some("repl_applied_lsn"),
        family: Some("sprofile_repl_applied_lsn"),
        help: "Newest LSN applied locally.",
        read: |r| Some(Num(r.repl.applied)),
    },
    Field {
        key: Some("repl_lag_lsn"),
        family: Some("sprofile_repl_lag_lsn"),
        help: "head - applied: records still to apply.",
        read: |r| Some(Num(r.repl.lag())),
    },
    Field {
        key: Some("repl_records"),
        family: Some("sprofile_repl_records_total"),
        help: "Replication records shipped (primary) or applied (replica).",
        read: |r| Some(Num(r.repl.records)),
    },
    Field {
        key: Some("repl_bytes"),
        family: Some("sprofile_repl_bytes_total"),
        help: "Replication bytes shipped (primary) or applied (replica).",
        read: |r| Some(Num(r.repl.bytes)),
    },
    Field {
        key: None,
        family: Some("sprofile_repl_ack_latency_us"),
        help: "Ship-to-acknowledge round trip per replicated record, microseconds.",
        read: |r| r.shared.repl.source.as_ref().map(|s| Hist(s.metrics().ack_latency_us())),
    },
    Field {
        key: Some("repl_beats"),
        family: Some("sprofile_repl_beats_total"),
        help: "Frames received from the primary (liveness signal; 0 on a primary).",
        read: |r| Some(Num(r.repl.beats)),
    },
    Field {
        key: Some("fenced_rejects"),
        family: Some("sprofile_fenced_rejects_total"),
        help: "Replication streams refused or aborted on epoch grounds.",
        read: |r| Some(Num(r.repl.fenced)),
    },
    Field {
        key: None,
        family: Some("sprofile_fenced_rejects_per_s"),
        help: "Epoch-fenced replication rejects per second since the previous scrape.",
        read: |r| Some(Rate(r.shared.meters.fenced_rejects.observe(r.repl.fenced))),
    },
    Field {
        key: Some("sync_commit"),
        family: Some("sprofile_sync_commit"),
        help: "Synchronous-commit state: off, quorum, all or degraded (METRICS: the state label of a constant 1).",
        read: |r| Some(Info(vec![("state", r.shared.sync_commit_state())])),
    },
    Field {
        key: Some("commit_waits"),
        family: None,
        help: "Synchronous commits that waited for replica acks.",
        read: |r| r.commit_wait().map(|h| Num(h.count())),
    },
    Field {
        key: Some("commit_wait_p50_us"),
        family: None,
        help: "Median synchronous-commit wait, microseconds (log-bucketed).",
        read: |r| r.commit_wait().map(|h| Num(h.quantile(0.5))),
    },
    Field {
        key: Some("commit_wait_p99_us"),
        family: None,
        help: "p99 synchronous-commit wait, microseconds (log-bucketed).",
        read: |r| r.commit_wait().map(|h| Num(h.quantile(0.99))),
    },
    Field {
        key: Some("commit_wait_max_us"),
        family: None,
        help: "Longest synchronous-commit wait, microseconds.",
        read: |r| r.commit_wait().map(|h| Num(h.max())),
    },
    Field {
        key: None,
        family: Some("sprofile_commit_wait_us"),
        help: "Time each synchronous commit waited for replica acks, microseconds.",
        read: |r| r.commit_wait().map(Hist),
    },
    Field {
        key: Some("cluster_slices"),
        family: Some("sprofile_cluster_slices"),
        help: "Total slices in the partition map.",
        read: |r| r.slices.map(|(_, total)| Num(total)),
    },
    Field {
        key: Some("cluster_node"),
        family: Some("sprofile_cluster_node"),
        help: "This node's index in the cluster map.",
        read: |r| r.cluster().map(|c| Num(c.node().into())),
    },
    Field {
        key: Some("cluster_owned"),
        family: Some("sprofile_cluster_owned_slices"),
        help: "Slices this node currently owns.",
        read: |r| r.slices.map(|(owned, _)| Num(owned)),
    },
    Field {
        key: Some("map_version"),
        family: Some("sprofile_cluster_map_version"),
        help: "Version of the installed partition map.",
        read: |r| r.cluster().map(|c| Num(c.version())),
    },
    Field {
        key: Some("moved_rejects"),
        family: Some("sprofile_moved_rejects_total"),
        help: "Write frames refused with ERR moved.",
        read: |r| r.cluster().map(|c| Num(c.moved_rejects.get())),
    },
    Field {
        key: None,
        family: Some("sprofile_moved_rejects_per_s"),
        help: "ERR moved rejects per second since the previous scrape.",
        read: |r| {
            let moved = r.cluster().map_or(0, |c| c.moved_rejects.get());
            Some(Rate(r.shared.meters.moved_rejects.observe(moved)))
        },
    },
    Field {
        key: Some("migrations"),
        family: Some("sprofile_migrations_total"),
        help: "Slice migrations completed with this node as the source.",
        read: |r| r.cluster().map(|c| Num(c.migrations.get())),
    },
];

/// Renders the `STATS` payload (everything after `STATS `): the rows
/// with a key, as `key=value` in table order.
pub(crate) fn stats(shared: &Shared) -> String {
    let r = Reading::new(shared);
    let mut out = String::with_capacity(1024);
    for f in FIELDS {
        let Some(key) = f.key else { continue };
        let Some(value) = (f.read)(&r) else { continue };
        let sep = if out.is_empty() { "" } else { " " };
        let _ = match value {
            Num(n) => write!(out, "{sep}{key}={n}"),
            Info(labels) => write!(out, "{sep}{key}={}", labels[0].1),
            Rate(_) | Hist(_) | Hists(..) => unreachable!("STATS field {key} is not a scalar"),
        };
    }
    out
}

/// Renders the full Prometheus exposition page: the rows with a family.
pub(crate) fn render(shared: &Shared) -> String {
    let r = Reading::new(shared);
    let mut out = String::with_capacity(16 << 10);
    for f in FIELDS {
        let Some(name) = f.family else { continue };
        let Some(value) = (f.read)(&r) else { continue };
        let _ = family(&mut out, name, f.help, value);
    }
    out
}

/// Appends one family: its `# HELP` and `# TYPE` lines and its samples.
fn family(out: &mut String, name: &str, help: &str, value: Value<'_>) -> fmt::Result {
    writeln!(out, "# HELP {name} {help}")?;
    writeln!(out, "# TYPE {name} {}", value.kind(name))?;
    match value {
        Num(n) => writeln!(out, "{name} {n}"),
        Info(labels) => {
            let labels: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
            writeln!(out, "{name}{{{}}} 1", labels.join(","))
        }
        Rate(reading) => {
            writeln!(out, "{name} {:.3}", reading.rate)?;
            let ewma = format!("{name}_ewma");
            writeln!(out, "# HELP {ewma} 10s EWMA of the rate above.")?;
            writeln!(out, "# TYPE {ewma} gauge\n{ewma} {:.3}", reading.ewma)
        }
        Hist(h) => hist_series(out, name, "", h),
        Hists(label, hists) => hists
            .into_iter()
            .try_for_each(|(v, h)| hist_series(out, name, &format!("{label}=\"{v}\""), h)),
    }
}

/// Appends the `_bucket`/`_sum`/`_count` series of one histogram.
/// `labels` is either empty or `key="value"` pairs *without* braces,
/// e.g. `verb="add"`.
fn hist_series(out: &mut String, name: &str, labels: &str, h: &AtomicLogHistogram) -> fmt::Result {
    let sep = if labels.is_empty() { "" } else { "," };
    for b in LE_BOUNDS {
        let below = h.count_below(b);
        writeln!(out, "{name}_bucket{{{labels}{sep}le=\"{b}\"}} {below}")?;
    }
    let count = h.count();
    writeln!(out, "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {count}")?;
    let braces = if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    };
    writeln!(out, "{name}_sum{braces} {}", h.sum())?;
    writeln!(out, "{name}_count{braces} {count}")
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};
    use std::fmt::Write as _;
    use std::net::SocketAddr;
    use std::path::PathBuf;
    use std::time::{Duration, Instant};

    use sprofile::Tuple;

    use super::*;
    use crate::{Client, ClusterConfig, DurabilityConfig, Server, ServerConfig, SyncCommit};

    /// The markers around README's field reference.
    const BEGIN: &str = "<!-- field-reference:begin -->";
    const END: &str = "<!-- field-reference:end -->";

    /// STATS fields that move on a quiesced server: the clock, and a
    /// replica's count of the primary's heartbeat frames.
    const CLOCKS: [&str; 2] = ["uptime_s", "repl_beats"];

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sprofile-server-prom-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn config() -> ServerConfig {
        ServerConfig {
            m: 64,
            workers: 2,
            flush_every: 4,
            ..ServerConfig::default()
        }
    }

    fn cluster_node() -> ClusterConfig {
        ClusterConfig {
            slices: 4,
            node: 0,
            nodes: vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()],
        }
    }

    /// The optional plane a field belongs to, judged by its name alone:
    /// the spec each reader's `None` has to match.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Plane {
        Always,
        Wal,
        SyncCommit,
        Cluster,
    }

    fn plane(f: &Field) -> Plane {
        let name = f.key.or(f.family).expect("a field is in at least one view");
        let name = name.strip_prefix("sprofile_").unwrap_or(name);
        let cluster = [
            "map_version",
            "moved_rejects",
            "moved_rejects_total",
            "migrations",
            "migrations_total",
        ];
        if name.starts_with("wal_") || name == "repl_ack_latency_us" {
            Plane::Wal
        } else if name.starts_with("commit_wait") {
            Plane::SyncCommit
        } else if name.starts_with("cluster_") || cluster.contains(&name) {
            Plane::Cluster
        } else {
            Plane::Always
        }
    }

    fn pairs(stats: &str) -> Vec<(&str, &str)> {
        stats
            .split(' ')
            .map(|kv| kv.split_once('=').expect("key=value"))
            .collect()
    }

    /// One exposition: each family's `# HELP` and `# TYPE`, and each
    /// sample as `name{labels}` → value.
    #[derive(Default)]
    struct Page {
        help: BTreeMap<String, String>,
        kind: BTreeMap<String, String>,
        samples: BTreeMap<String, String>,
    }

    fn page(text: &str) -> Page {
        let mut p = Page::default();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let (name, help) = rest.split_once(' ').expect("HELP name text");
                let dup = p.help.insert(name.into(), help.into());
                assert!(dup.is_none(), "two HELP lines for {name}");
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (name, kind) = rest.split_once(' ').expect("TYPE name kind");
                let dup = p.kind.insert(name.into(), kind.into());
                assert!(dup.is_none(), "two TYPE lines for {name}");
            } else {
                let (sample, value) = line.rsplit_once(' ').expect("sample value");
                let dup = p.samples.insert(sample.into(), value.into());
                assert!(dup.is_none(), "two {sample} samples");
            }
        }
        p
    }

    /// STATS, METRICS, then STATS again, retried until both STATS agree
    /// on every field but [`CLOCKS`]: METRICS then lies between them.
    fn quiesced(addr: SocketAddr) -> (String, String, String) {
        let mut c = Client::connect(addr).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let before = c.stats().unwrap();
            let metrics = c.metrics().unwrap();
            let after = c.stats().unwrap();
            let still = |stats| {
                let mut p = pairs(stats);
                p.retain(|(k, _)| !CLOCKS.contains(k));
                p
            };
            if still(&before) == still(&after) {
                c.quit().unwrap();
                return (before, metrics, after);
            }
            assert!(Instant::now() < deadline, "never quiet:\n{before}\n{after}");
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    fn wait_for(what: &str, mut ok: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !ok() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Checks both views of one quiesced server against the table and
    /// returns its STATS line.
    fn check_shape(shape: &str, addr: SocketAddr, planes: &[Plane]) -> String {
        let on = |f: &&Field| plane(f) == Plane::Always || planes.contains(&plane(f));
        let (stats, metrics, after) = quiesced(addr);
        let (before, after, page) = (pairs(&stats), pairs(&after), page(&metrics));

        // Each key exactly once, in table order, exactly when its plane
        // is on.
        let keys: Vec<&str> = before.iter().map(|(k, _)| *k).collect();
        let want: Vec<&str> = FIELDS.iter().filter(on).filter_map(|f| f.key).collect();
        assert_eq!(keys, want, "{shape}: STATS keys");

        // Each family with the table's help and its derived type; the
        // only other families are the meters' `_ewma` twins.
        let mut families = BTreeSet::new();
        for f in FIELDS.iter().filter(on) {
            let Some(name) = f.family else { continue };
            families.insert(name.to_string());
            if name.ends_with("_per_s") {
                families.insert(format!("{name}_ewma"));
            }
            let help = page.help.get(name).map(String::as_str);
            assert_eq!(help, Some(f.help), "{shape}: HELP of {name}");
            let kind = page.kind.get(name).map(String::as_str);
            if kind == Some("histogram") {
                let count = format!("{name}_count");
                assert!(
                    page.samples.keys().any(|s| s.starts_with(&count)),
                    "{shape}: {name} has no _count series"
                );
                assert!(!page.samples.contains_key(name), "{shape}: bare {name}");
            } else {
                let derived = if name.ends_with("_total") {
                    "counter"
                } else {
                    "gauge"
                };
                assert_eq!(kind, Some(derived), "{shape}: TYPE of {name}");
            }
        }
        let rendered: BTreeSet<String> = page.kind.keys().cloned().collect();
        assert_eq!(rendered, families, "{shape}: METRICS families");

        // A field in both views reads the same in both.
        let stat = |pairs: &[(&str, &str)], key| -> String {
            let (_, v) = pairs.iter().find(|(k, _)| *k == key).expect("key");
            v.to_string()
        };
        for f in FIELDS.iter().filter(on) {
            let (Some(key), Some(name)) = (f.key, f.family) else {
                continue;
            };
            let (low, high) = (stat(&before, key), stat(&after, key));
            match page.samples.get(name) {
                Some(value) => {
                    let [low, value, high] = [&low, value, &high].map(|v| {
                        v.parse::<u64>()
                            .unwrap_or_else(|_| panic!("{shape}: {key} reads {v}"))
                    });
                    assert!(
                        low <= value && value <= high,
                        "{shape}: STATS {key} {low}..={high}, METRICS {name} {value}"
                    );
                    assert!(high - low <= 1, "{shape}: {key} moved {low} -> {high}");
                }
                None => {
                    // Text: the constant-1 gauge carries it as a label.
                    assert_eq!(low, high, "{shape}: {key}");
                    let labelled = page
                        .samples
                        .iter()
                        .find(|(s, _)| s.starts_with(&format!("{name}{{")));
                    let (sample, value) = labelled.expect("a labelled sample");
                    assert!(
                        sample.ends_with(&format!("=\"{low}\"}}")),
                        "{shape}: {sample}"
                    );
                    assert_eq!(value, "1", "{shape}: {sample}");
                }
            }
        }
        stats
    }

    /// Asserts that `stats` holds every `key=value` of `want`.
    fn assert_reads(stats: &str, want: &[&str]) {
        let have = pairs(stats);
        for kv in want {
            let kv = kv.split_once('=').unwrap();
            assert!(have.contains(&kv), "{kv:?} not in {stats}");
        }
    }

    #[test]
    fn stats_and_metrics_render_each_field_once_on_every_shape() {
        let dir = temp_dir("shapes");
        let plain = Server::start(config(), "127.0.0.1:0").unwrap();
        let primary = Server::start(
            ServerConfig {
                wal: Some(DurabilityConfig::new(dir.join("primary"))),
                sync_commit: SyncCommit::Quorum,
                ..config()
            },
            "127.0.0.1:0",
        )
        .unwrap();
        let replica = Server::start(
            ServerConfig {
                wal: Some(DurabilityConfig::new(dir.join("replica"))),
                replica_of: Some(primary.local_addr().to_string()),
                ..config()
            },
            "127.0.0.1:0",
        )
        .unwrap();
        let node = Server::start(
            ServerConfig {
                cluster: Some(cluster_node()),
                ..config()
            },
            "127.0.0.1:0",
        )
        .unwrap();

        let writes = [Tuple::add(2), Tuple::add(2), Tuple::remove(6)];
        let mut c = Client::connect(plain.local_addr()).unwrap();
        c.batch(&writes).unwrap();
        c.add(4).unwrap();
        assert_eq!(c.freq(2).unwrap(), 2);
        c.quit().unwrap();

        // Writes wait for the replica's ack, so attach it first.
        let mut c = Client::connect(primary.local_addr()).unwrap();
        let field = |c: &mut Client, key| Client::stats_field(&c.stats().unwrap(), key);
        wait_for("the replica to attach", || {
            field(&mut c, "repl_connected") == Some(1)
        });
        c.batch(&writes).unwrap();
        c.add(4).unwrap();
        assert_eq!(c.freq(2).unwrap(), 2);
        let head = field(&mut c, "repl_head_lsn").unwrap();
        assert!(head >= 2, "two flushes logged");
        c.quit().unwrap();
        let mut rc = Client::connect(replica.local_addr()).unwrap();
        wait_for("the replica to catch up", || {
            field(&mut rc, "repl_applied_lsn") == Some(head)
        });
        rc.quit().unwrap();

        // Slice 0 is node 0's, slice 1 node 1's: one write lands, one
        // is moved.
        let mut c = Client::connect(node.local_addr()).unwrap();
        c.add(4).unwrap();
        assert!(c.add(1).is_err(), "object 1 lives on node 1");
        assert_eq!(c.freq(4).unwrap(), 1);
        c.quit().unwrap();

        // The views agree with each other; a few known values pin the
        // readers themselves.
        let stats = check_shape("plain", plain.local_addr(), &[]);
        let plain_values = ["wal=0", "repl_role=none", "adds=1", "batch_tuples=3"];
        assert_reads(&stats, &plain_values);
        let planes = [Plane::Wal, Plane::SyncCommit];
        let stats = check_shape("primary", primary.local_addr(), &planes);
        let primary_values = ["wal=1", "repl_role=primary", "repl_connected=1"];
        assert_reads(&stats, &primary_values);
        assert_reads(&stats, &["sync_commit=quorum", "repl_lag_lsn=0"]);
        let stats = check_shape("replica", replica.local_addr(), &[Plane::Wal]);
        let replica_values = ["repl_role=replica", "repl_lag_lsn=0", "sync_commit=off"];
        assert_reads(&stats, &replica_values);
        let stats = check_shape("cluster node", node.local_addr(), &[Plane::Cluster]);
        let slices = ["cluster_slices=4", "cluster_node=0", "cluster_owned=2"];
        assert_reads(&stats, &slices);
        assert_reads(
            &stats,
            &["map_version=1", "moved_rejects=1", "migrations=0"],
        );

        for server in [plain, replica, primary, node] {
            server.shutdown();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn readme_field_reference_is_the_table() {
        // With every plane on, every row renders, and each family's type
        // is the one a scrape of this build reports.
        let dir = temp_dir("readme");
        let server = Server::start(
            ServerConfig {
                wal: Some(DurabilityConfig::new(&dir)),
                sync_commit: SyncCommit::Quorum,
                cluster: Some(cluster_node()),
                ..config()
            },
            "127.0.0.1:0",
        )
        .unwrap();
        let mut c = Client::connect(server.local_addr()).unwrap();
        let stats = c.stats().unwrap();
        let page = page(&c.metrics().unwrap());
        c.quit().unwrap();
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();

        let keys: Vec<&str> = pairs(&stats).into_iter().map(|(k, _)| k).collect();
        let mut table = String::from("| STATS key | METRICS family | Type | Meaning |\n");
        table.push_str("|---|---|---|---|\n");
        for f in FIELDS {
            let key = f.key.map_or(String::new(), |k| {
                assert!(keys.contains(&k), "{k} missing with every plane on");
                format!("`{k}`")
            });
            let (family, kind) = match f.family {
                None => (String::new(), ""),
                Some(name) => {
                    let kind = page.kind.get(name);
                    let kind = kind.unwrap_or_else(|| panic!("{name} missing with every plane on"));
                    let ewma = format!("{name}_ewma");
                    match page.kind.contains_key(&ewma) {
                        true => (format!("`{name}`, `{ewma}`"), kind.as_str()),
                        false => (format!("`{name}`"), kind.as_str()),
                    }
                }
            };
            let help = f.help.replace('|', "\\|");
            let _ = writeln!(table, "| {key} | {family} | {kind} | {help} |");
        }

        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
        let readme = std::fs::read_to_string(path).unwrap();
        let current = readme
            .split_once(BEGIN)
            .and_then(|(_, rest)| rest.split_once(END))
            .map(|(block, _)| block.trim());
        assert!(
            current == Some(table.trim()),
            "README's field reference is not prom::FIELDS; put this between {BEGIN} and {END}:\n\n{table}"
        );
    }
}
