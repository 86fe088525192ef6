//! The `METRICS` renderer: Prometheus text exposition (format 0.0.4)
//! over the server's shared state.
//!
//! One function, [`render`], produces the whole page; the `METRICS`
//! verb (both framings) and the optional `--metrics-addr` HTTP endpoint
//! serve its output verbatim. Everything rendered here reads the same
//! lock-free counters `STATS` reads — the two views can disagree only
//! by whatever traffic lands between the two reads.
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
//! resolution; an unscraped server pays nothing for them.

use std::fmt::Write as _;
use std::sync::atomic::Ordering;

use sprofile_obs::hist::AtomicLogHistogram;
use sprofile_obs::span::Phase;
use sprofile_obs::MeterReading;

use crate::metrics::Verb;
use crate::server::{build_profile, Shared};

/// Histogram `le` boundaries, in microseconds. All powers of two, so
/// every cumulative count is exact (see the module docs).
const LE_BOUNDS: [u64; 9] = [16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576];

/// Appends `# HELP` / `# TYPE` header lines for one metric family.
fn head(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Appends one un-labelled counter or gauge sample.
fn scalar(out: &mut String, name: &str, kind: &str, help: &str, value: u64) {
    head(out, name, kind, help);
    let _ = writeln!(out, "{name} {value}");
}

/// Appends one un-labelled gauge holding a rate (float).
fn rate(out: &mut String, name: &str, help: &str, reading: MeterReading) {
    head(out, name, "gauge", help);
    let _ = writeln!(out, "{name} {:.3}", reading.rate);
    let ewma = format!("{name}_ewma");
    head(out, &ewma, "gauge", "10s EWMA of the rate above.");
    let _ = writeln!(out, "{ewma} {:.3}", reading.ewma);
}

/// Appends the `_bucket`/`_sum`/`_count` series of one histogram.
/// `labels` is either empty or `key="value"` pairs *without* braces,
/// e.g. `verb="add"`.
fn hist_series(out: &mut String, name: &str, labels: &str, h: &AtomicLogHistogram) {
    let sep = if labels.is_empty() { "" } else { "," };
    for b in LE_BOUNDS {
        let _ = writeln!(
            out,
            "{name}_bucket{{{labels}{sep}le=\"{b}\"}} {}",
            h.count_below(b)
        );
    }
    let count = h.count();
    let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {count}");
    let braces = if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    };
    let _ = writeln!(out, "{name}_sum{braces} {}", h.sum());
    let _ = writeln!(out, "{name}_count{braces} {count}");
}

/// Appends one single-histogram family (header + series, no labels).
fn hist(out: &mut String, name: &str, help: &str, h: &AtomicLogHistogram) {
    head(out, name, "histogram", help);
    hist_series(out, name, "", h);
}

/// Renders the full Prometheus exposition page for `shared`.
pub(crate) fn render(shared: &Shared) -> String {
    let mut out = String::with_capacity(16 << 10);

    // Identity and liveness.
    head(
        &mut out,
        "sprofile_build_info",
        "gauge",
        "Constant 1, labelled with the server version and build profile.",
    );
    let _ = writeln!(
        out,
        "sprofile_build_info{{version=\"{}\",profile=\"{}\"}} 1",
        env!("CARGO_PKG_VERSION"),
        build_profile()
    );
    scalar(
        &mut out,
        "sprofile_uptime_seconds",
        "gauge",
        "Seconds since the server started.",
        shared.start.elapsed().as_secs(),
    );
    scalar(
        &mut out,
        "sprofile_universe_m",
        "gauge",
        "Configured universe size m.",
        u64::from(shared.m),
    );
    scalar(
        &mut out,
        "sprofile_readonly",
        "gauge",
        "1 while the node refuses writes (replica before PROMOTE).",
        u64::from(shared.readonly.load(Ordering::Relaxed)),
    );

    // The STATS counter block, one family per key (same sources, so
    // METRICS and STATS can only differ by in-between traffic).
    let m = &shared.metrics;
    for (name, kind, help, value) in [
        (
            "sprofile_connections_accepted_total",
            "counter",
            "Connections accepted over the server's lifetime.",
            m.connections_accepted.get(),
        ),
        (
            "sprofile_connections_active",
            "gauge",
            "Connections currently open (replication streams included).",
            m.connections_active.get(),
        ),
        (
            "sprofile_worker_conns",
            "gauge",
            "Connections currently owned by the event-loop workers.",
            m.conns.get(),
        ),
        (
            "sprofile_shed_total",
            "counter",
            "Connections refused with ERR overloaded at --max-conns.",
            m.shed.get(),
        ),
        (
            "sprofile_adds_total",
            "counter",
            "ADD requests received.",
            m.ops_add.get(),
        ),
        (
            "sprofile_removes_total",
            "counter",
            "RM requests received.",
            m.ops_remove.get(),
        ),
        (
            "sprofile_batches_total",
            "counter",
            "BATCH frames successfully applied.",
            m.ops_batch.get(),
        ),
        (
            "sprofile_batch_tuples_total",
            "counter",
            "Tuples received inside successful BATCH frames.",
            m.batch_tuples.get(),
        ),
        (
            "sprofile_applied_total",
            "counter",
            "Tuples handed to the backend after write-buffer flushes.",
            m.applied.get(),
        ),
        (
            "sprofile_flushes_total",
            "counter",
            "Write-buffer flushes performed.",
            m.flushes.get(),
        ),
        (
            "sprofile_queries_total",
            "counter",
            "Read queries served.",
            m.queries.get(),
        ),
        (
            "sprofile_snapshots_total",
            "counter",
            "Snapshots written.",
            m.snapshots.get(),
        ),
        (
            "sprofile_errors_total",
            "counter",
            "ERR replies sent.",
            m.errors.get(),
        ),
    ] {
        scalar(&mut out, name, kind, help, value);
    }

    // Per-verb service time. Every verb is always exposed (zero-count
    // series included) so scrapers see a stable set of label values.
    head(
        &mut out,
        "sprofile_request_duration_us",
        "histogram",
        "Server-side service time per verb, microseconds (bytes buffered to reply queued).",
    );
    for verb in Verb::ALL {
        hist_series(
            &mut out,
            "sprofile_request_duration_us",
            &format!("verb=\"{}\"", verb.name()),
            shared.verb_us.get(verb),
        );
    }

    // Cross-verb phase timings: one series per span phase (every
    // finished request records all of them, zeros included, so the
    // counts stay aligned and the sums partition the verb totals).
    head(
        &mut out,
        "sprofile_phase_duration_us",
        "histogram",
        "Time requests spend in each processing phase, microseconds.",
    );
    for phase in Phase::ALL {
        hist_series(
            &mut out,
            "sprofile_phase_duration_us",
            &format!("phase=\"{}\"", phase.name()),
            shared.phase_us.get(phase),
        );
    }
    // Write-buffer flushes count flushes, not requests, so they are a
    // family of their own rather than a tenth `phase`.
    hist(
        &mut out,
        "sprofile_flush_duration_us",
        "Write-buffer flush time (WAL append, fsync, apply, commit wait), microseconds.",
        &shared.phase_us.flush_us,
    );

    // Event-loop health: how long each tick slept in the poller, how
    // many connections a non-idle tick serviced, and how often the
    // per-connection read budget (the fairness throttle) was hit.
    hist(
        &mut out,
        "sprofile_tick_poll_wait_us",
        "Poller wait per event-loop tick, microseconds (all workers).",
        &shared.ticks.poll_wait_us,
    );
    hist(
        &mut out,
        "sprofile_conns_per_tick",
        "Connections serviced per non-idle event-loop tick.",
        &shared.ticks.conns_per_tick,
    );
    scalar(
        &mut out,
        "sprofile_read_budget_exhausted_total",
        "counter",
        "Ticks on which a connection exhausted its per-tick read budget.",
        shared.ticks.read_budget_exhausted.get(),
    );

    // Durability plane.
    if let Some(d) = &shared.durability {
        let wm = d.wal_metrics();
        for (name, kind, help, value) in [
            (
                "sprofile_wal_records_total",
                "counter",
                "Records appended to the WAL.",
                wm.records(),
            ),
            (
                "sprofile_wal_tuples_total",
                "counter",
                "Tuples inside appended WAL records.",
                wm.tuples(),
            ),
            (
                "sprofile_wal_bytes_total",
                "counter",
                "Bytes written to WAL segments.",
                wm.bytes(),
            ),
            (
                "sprofile_wal_fsyncs_total",
                "counter",
                "fsync calls issued by the WAL.",
                wm.fsyncs(),
            ),
            (
                "sprofile_wal_segments",
                "gauge",
                "Live WAL segment files.",
                wm.segments(),
            ),
            (
                "sprofile_wal_checkpoints_total",
                "counter",
                "Checkpoints written.",
                wm.checkpoints(),
            ),
            (
                "sprofile_wal_head_lsn",
                "gauge",
                "Newest committed LSN.",
                wm.head_lsn(),
            ),
            (
                "sprofile_wal_errors_total",
                "counter",
                "WAL append/checkpoint failures.",
                d.error_count(),
            ),
            (
                "sprofile_wal_failed",
                "gauge",
                "1 once the WAL has fail-stopped and new writes are refused.",
                u64::from(d.failed()),
            ),
        ] {
            scalar(&mut out, name, kind, help, value);
        }
        hist(
            &mut out,
            "sprofile_wal_fsync_duration_us",
            "Wall-clock latency of each WAL fsync, microseconds.",
            wm.fsync_us(),
        );
        hist(
            &mut out,
            "sprofile_wal_checkpoint_duration_us",
            "Wall-clock latency of each durable checkpoint write, microseconds.",
            wm.checkpoint_us(),
        );
        hist(
            &mut out,
            "sprofile_wal_lock_wait_us",
            "Time spent waiting to acquire the WAL mutex, microseconds.",
            wm.lock_wait_us(),
        );
        hist(
            &mut out,
            "sprofile_wal_group_batch_tuples",
            "Tuples carried by each appended WAL record (group-commit batch size).",
            wm.group_batch(),
        );
        hist(
            &mut out,
            "sprofile_wal_checkpoint_pause_us",
            "WAL-lock hold time across each full checkpoint (the pause writers observe), microseconds.",
            wm.checkpoint_pause_us(),
        );
    }

    // Replication plane (same snapshot STATS renders from).
    let repl = shared.repl.snapshot();
    head(
        &mut out,
        "sprofile_repl_role",
        "gauge",
        "Constant 1, labelled with the node's replication role.",
    );
    let _ = writeln!(out, "sprofile_repl_role{{role=\"{}\"}} 1", repl.role);
    head(
        &mut out,
        "sprofile_sync_commit",
        "gauge",
        "Constant 1, labelled with the synchronous-commit state.",
    );
    let _ = writeln!(
        out,
        "sprofile_sync_commit{{state=\"{}\"}} 1",
        shared.sync_commit_state()
    );
    for (name, kind, help, value) in [
        (
            "sprofile_repl_epoch",
            "gauge",
            "Current replication epoch (generation id).",
            repl.epoch,
        ),
        (
            "sprofile_repl_connected",
            "gauge",
            "Attached replicas (primary) or 0/1 stream liveness (replica).",
            repl.connected,
        ),
        (
            "sprofile_repl_head_lsn",
            "gauge",
            "Newest LSN the node knows about.",
            repl.head,
        ),
        (
            "sprofile_repl_applied_lsn",
            "gauge",
            "Newest LSN applied locally.",
            repl.applied,
        ),
        (
            "sprofile_repl_lag_lsn",
            "gauge",
            "head - applied: records still to apply.",
            repl.lag(),
        ),
        (
            "sprofile_repl_records_total",
            "counter",
            "Replication records shipped (primary) or applied (replica).",
            repl.records,
        ),
        (
            "sprofile_repl_bytes_total",
            "counter",
            "Replication bytes shipped (primary) or applied (replica).",
            repl.bytes,
        ),
        (
            "sprofile_repl_beats_total",
            "counter",
            "Frames received from the primary (liveness signal; 0 on a primary).",
            repl.beats,
        ),
        (
            "sprofile_fenced_rejects_total",
            "counter",
            "Replication streams refused or aborted on epoch grounds.",
            repl.fenced,
        ),
    ] {
        scalar(&mut out, name, kind, help, value);
    }
    if let Some(source) = &shared.repl.source {
        hist(
            &mut out,
            "sprofile_repl_ack_latency_us",
            "Ship-to-acknowledge round trip per replicated record, microseconds.",
            source.metrics().ack_latency_us(),
        );
    }
    if shared.sync_commit.is_on() {
        hist(
            &mut out,
            "sprofile_commit_wait_us",
            "Time each synchronous commit waited for replica acks, microseconds.",
            &shared.commit_wait,
        );
    }

    // Cluster plane.
    let moved_total = if let Some(c) = &shared.cluster {
        let (owned, slices) = c.ownership();
        for (name, kind, help, value) in [
            (
                "sprofile_cluster_node",
                "gauge",
                "This node's index in the cluster map.",
                u64::from(c.node()),
            ),
            (
                "sprofile_cluster_slices",
                "gauge",
                "Total slices in the partition map.",
                slices,
            ),
            (
                "sprofile_cluster_owned_slices",
                "gauge",
                "Slices this node currently owns.",
                owned,
            ),
            (
                "sprofile_cluster_map_version",
                "gauge",
                "Version of the installed partition map.",
                c.version(),
            ),
            (
                "sprofile_moved_rejects_total",
                "counter",
                "Write frames refused with ERR moved.",
                c.moved_rejects.get(),
            ),
            (
                "sprofile_migrations_total",
                "counter",
                "Slice migrations completed with this node as the source.",
                c.migrations.get(),
            ),
        ] {
            scalar(&mut out, name, kind, help, value);
        }
        c.moved_rejects.get()
    } else {
        0
    };

    // Scrape-to-scrape rejection rates: a nonzero total is history, a
    // nonzero rate is a live problem.
    rate(
        &mut out,
        "sprofile_shed_per_s",
        "Connections shed per second since the previous scrape.",
        shared.meters.shed.observe(m.shed.get()),
    );
    rate(
        &mut out,
        "sprofile_fenced_rejects_per_s",
        "Epoch-fenced replication rejects per second since the previous scrape.",
        shared.meters.fenced_rejects.observe(repl.fenced),
    );
    rate(
        &mut out,
        "sprofile_moved_rejects_per_s",
        "ERR moved rejects per second since the previous scrape.",
        shared.meters.moved_rejects.observe(moved_total),
    );

    out
}
