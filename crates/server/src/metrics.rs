//! Server-wide metrics storage: lock-free `AtomicU64` counters plus the
//! per-verb, per-phase and event-loop histograms. The field table in
//! `prom` reads them for both `STATS` and `METRICS`; nothing here
//! renders.

use std::sync::atomic::{AtomicU64, Ordering};

use sprofile_obs::hist::AtomicLogHistogram;
use sprofile_obs::span::{Phase, SpanRecord};

use crate::protocol::Request;

/// One monotonically increasing counter (relaxed ordering — counters are
/// diagnostics, not synchronisation).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Adds one unless the value has reached `limit`; returns whether
    /// it did. One atomic read-modify-write, so concurrent callers never
    /// push a gauge past its limit together (relaxed is enough: the
    /// count publishes no other data).
    pub(crate) fn try_inc_below(&self, limit: u64) -> bool {
        self.0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < limit).then_some(n + 1)
            })
            .is_ok()
    }

    /// Decrement by one.
    ///
    /// **Gauge-only.** `Counter` doubles as a gauge for values like
    /// active connections; `dec` exists solely for that use. Never call
    /// it on a monotonic counter — Prometheus-style scrapers treat any
    /// decrease as a process restart and mis-compute rates. Debug
    /// builds assert the value was nonzero, since a wrap to
    /// `u64::MAX` would otherwise poison every later reading.
    #[inline]
    pub fn dec(&self) {
        let prev = self.0.fetch_sub(1, Ordering::Relaxed);
        debug_assert!(prev != 0, "Counter::dec underflow: gauge was already 0");
    }
}

/// All per-server counters. One instance is shared (via `Arc`) by every
/// connection worker; `STATS` and `METRICS` render a point-in-time
/// reading.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Connections accepted over the server's lifetime.
    pub connections_accepted: Counter,
    /// Connections currently open (gauge). Includes replication streams
    /// that have been detached to dedicated threads.
    pub connections_active: Counter,
    /// Connections currently owned by the event-loop workers (gauge):
    /// the slots in use of the server-wide `max_conns` budget. Excludes
    /// detached replication streams.
    pub conns: Counter,
    /// Connections refused with `ERR overloaded` because the server was
    /// at its `--max-conns` limit.
    pub shed: Counter,
    /// `ADD` requests received.
    pub ops_add: Counter,
    /// `RM` requests received.
    pub ops_remove: Counter,
    /// `BATCH` frames successfully applied.
    pub ops_batch: Counter,
    /// Tuples received inside successful `BATCH` frames.
    pub batch_tuples: Counter,
    /// Tuples actually applied to the backend: adds, removes and batch
    /// tuples after write-buffer flushes, and on a replica the tuples of
    /// every shipped record (a bootstrap installs a state and adds none).
    pub applied: Counter,
    /// Write-buffer flushes performed.
    pub flushes: Counter,
    /// Read queries served (`MODE`/`LEAST`/`FREQ`/`MEDIAN`/`TOPK`/`CAL`).
    pub queries: Counter,
    /// Snapshots written.
    pub snapshots: Counter,
    /// `ERR` replies sent.
    pub errors: Counter,
}

/// Every request verb that gets a server-side latency histogram. The
/// connection state machines classify each parsed request once; the
/// discriminant indexes [`VerbHists`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verb {
    /// `ADD`
    Add,
    /// `RM`
    Remove,
    /// `BATCH` (text body or binary frame)
    Batch,
    /// `MODE`
    Mode,
    /// `LEAST`
    Least,
    /// `FREQ`
    Freq,
    /// `MEDIAN`
    Median,
    /// `TOPK`
    TopK,
    /// `CAL`
    Cal,
    /// `STATS`
    Stats,
    /// `SNAPSHOT`
    Snapshot,
    /// `MAP` / `MAPSET`
    Map,
    /// `MIGRATE`
    Migrate,
    /// `ADOPT`
    Adopt,
    /// `METRICS`
    Metrics,
    /// `LOGTAIL`
    Logtail,
    /// `TRACE`
    Trace,
    /// `PROMOTE`
    Promote,
    /// `SPANS`
    Spans,
}

impl Verb {
    /// All verbs, in rendering order.
    pub const ALL: [Verb; 19] = [
        Verb::Add,
        Verb::Remove,
        Verb::Batch,
        Verb::Mode,
        Verb::Least,
        Verb::Freq,
        Verb::Median,
        Verb::TopK,
        Verb::Cal,
        Verb::Stats,
        Verb::Snapshot,
        Verb::Map,
        Verb::Migrate,
        Verb::Adopt,
        Verb::Metrics,
        Verb::Logtail,
        Verb::Trace,
        Verb::Promote,
        Verb::Spans,
    ];

    /// Lowercase name, used as the `verb` label value in `METRICS`.
    pub fn name(self) -> &'static str {
        match self {
            Verb::Add => "add",
            Verb::Remove => "rm",
            Verb::Batch => "batch",
            Verb::Mode => "mode",
            Verb::Least => "least",
            Verb::Freq => "freq",
            Verb::Median => "median",
            Verb::TopK => "topk",
            Verb::Cal => "cal",
            Verb::Stats => "stats",
            Verb::Snapshot => "snapshot",
            Verb::Map => "map",
            Verb::Migrate => "migrate",
            Verb::Adopt => "adopt",
            Verb::Metrics => "metrics",
            Verb::Logtail => "logtail",
            Verb::Trace => "trace",
            Verb::Promote => "promote",
            Verb::Spans => "spans",
        }
    }

    /// Classifies a parsed request. `None` for the verbs that leave the
    /// request/reply regime (`QUIT`, `SHUTDOWN`, `BIN`, `REPLICATE`) —
    /// their "latency" is connection lifetime, not service time.
    pub fn of(req: &Request) -> Option<Verb> {
        Some(match req {
            Request::Add(_) => Verb::Add,
            Request::Remove(_) => Verb::Remove,
            Request::Batch(_) | Request::BatchFrame { .. } => Verb::Batch,
            Request::Mode => Verb::Mode,
            Request::Least => Verb::Least,
            Request::Freq(_) => Verb::Freq,
            Request::Median => Verb::Median,
            Request::TopK(_) => Verb::TopK,
            Request::Cal(_) => Verb::Cal,
            Request::Stats => Verb::Stats,
            Request::Snapshot(_) | Request::SnapshotFetch => Verb::Snapshot,
            Request::Map | Request::MapSet(_) => Verb::Map,
            Request::Migrate { .. } => Verb::Migrate,
            Request::Adopt { .. } | Request::AdoptFrame { .. } => Verb::Adopt,
            Request::Metrics => Verb::Metrics,
            Request::Logtail(_) => Verb::Logtail,
            Request::Spans(_) => Verb::Spans,
            Request::Trace(_) => Verb::Trace,
            Request::Promote => Verb::Promote,
            Request::Replicate { .. } | Request::BinUpgrade | Request::Quit | Request::Shutdown => {
                return None
            }
        })
    }
}

/// Per-verb server-side request latency histograms (microseconds,
/// request bytes buffered → reply queued, queue wait included). Shared
/// lock-free across all event-loop workers.
#[derive(Debug)]
pub struct VerbHists {
    hists: [AtomicLogHistogram; Verb::ALL.len()],
}

impl Default for VerbHists {
    fn default() -> Self {
        VerbHists {
            hists: std::array::from_fn(|_| AtomicLogHistogram::new()),
        }
    }
}

impl VerbHists {
    /// Record one served request of `verb` taking `us` microseconds.
    #[inline]
    pub fn record(&self, verb: Verb, us: u64) {
        self.hists[verb as usize].record(us);
    }

    /// The histogram for one verb.
    pub fn get(&self, verb: Verb) -> &AtomicLogHistogram {
        &self.hists[verb as usize]
    }
}

/// Cross-verb phase timing histograms (microseconds): one histogram
/// per request [`Phase`], fed by every finished request span, plus the
/// per-flush histogram. Because [`PhaseHists::record_span`] records
/// *every* phase of *every* span — zeros included — all per-phase
/// counts are equal (to the number of requests served), and the
/// per-phase sums partition the per-verb totals exactly.
#[derive(Debug)]
pub struct PhaseHists {
    phases: [AtomicLogHistogram; Phase::COUNT],
    /// Write-buffer flush: WAL append + fsync + backend apply (+
    /// synchronous-commit wait when enabled), one sample per flush. It
    /// overlaps the `wal_lock_wait`/`wal_append`/`fsync`/`commit_wait`
    /// phases and counts flushes, not requests, so `METRICS` renders it
    /// as its own family, `sprofile_flush_duration_us`.
    pub flush_us: AtomicLogHistogram,
}

impl Default for PhaseHists {
    fn default() -> Self {
        PhaseHists {
            phases: std::array::from_fn(|_| AtomicLogHistogram::new()),
            flush_us: AtomicLogHistogram::default(),
        }
    }
}

impl PhaseHists {
    /// Folds one finished span in: every phase recorded, zeros
    /// included, so the phase histograms stay count-aligned.
    pub fn record_span(&self, rec: &SpanRecord) {
        for phase in Phase::ALL {
            self.phases[phase as usize].record(rec.phases[phase as usize]);
        }
    }

    /// The histogram for one phase.
    pub fn get(&self, phase: Phase) -> &AtomicLogHistogram {
        &self.phases[phase as usize]
    }
}

/// Event-loop instrumentation, aggregated across workers: how long each
/// wait window idled before a sweep moved bytes, how many connections
/// moved bytes in that sweep, and how often a connection exhausted its
/// per-sweep read budget (a fairness signal: sustained exhaustion means
/// one connection's input keeps outpacing the budget).
#[derive(Debug, Default)]
pub struct TickHists {
    /// Idle stretch of each wait window, in microseconds: up to the
    /// start of the first sweep that moved bytes, or the window's cap.
    pub poll_wait_us: AtomicLogHistogram,
    /// Connections that moved bytes per sweep (recorded only for sweeps
    /// that moved any, so an idle server does not drown the
    /// distribution in zeros).
    pub conns_per_tick: AtomicLogHistogram,
    /// Sweeps on which a connection hit its per-sweep read budget.
    pub read_budget_exhausted: Counter,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_count() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.dec();
        assert_eq!(c.get(), 4);
    }

    #[test]
    fn every_verb_is_classified_and_named_uniquely() {
        let mut names: Vec<&str> = Verb::ALL.iter().map(|v| v.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Verb::ALL.len());
        assert_eq!(Verb::of(&Request::Batch(3)), Some(Verb::Batch));
        assert_eq!(Verb::of(&Request::Metrics), Some(Verb::Metrics));
        assert_eq!(Verb::of(&Request::Spans(5)), Some(Verb::Spans));
        assert_eq!(Verb::of(&Request::Quit), None);
        assert_eq!(
            Verb::of(&Request::Replicate {
                start_lsn: 0,
                epoch: 0
            }),
            None
        );
    }

    #[test]
    fn phase_hists_stay_count_aligned_across_spans() {
        use sprofile_obs::span::Span;
        let h = PhaseHists::default();
        let mut span = Span::new("batch", 0, 1);
        span.add(Phase::Parse, 5);
        span.add(Phase::Fsync, 90);
        h.record_span(&span.finish(100));
        let mut span = Span::new("mode", 0, 2);
        span.add(Phase::Parse, 2);
        h.record_span(&span.finish(10));
        for phase in Phase::ALL {
            assert_eq!(h.get(phase).count(), 2, "{phase:?}");
        }
        assert_eq!(h.get(Phase::Parse).sum(), 7);
        assert_eq!(h.get(Phase::Fsync).sum(), 90);
        // Residuals land in Reply: (100-95) + (10-2).
        assert_eq!(h.get(Phase::Reply).sum(), 13);
        let phase_sum: u64 = Phase::ALL.iter().map(|&p| h.get(p).sum()).sum();
        assert_eq!(phase_sum, 110, "phases partition the totals");
    }

    #[test]
    fn verb_hists_record_independently() {
        let h = VerbHists::default();
        h.record(Verb::Add, 10);
        h.record(Verb::Add, 20);
        h.record(Verb::TopK, 500);
        assert_eq!(h.get(Verb::Add).count(), 2);
        assert_eq!(h.get(Verb::TopK).count(), 1);
        assert_eq!(h.get(Verb::Mode).count(), 0);
        assert_eq!(h.get(Verb::Add).sum(), 30);
    }
}
