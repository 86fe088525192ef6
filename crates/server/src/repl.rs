//! Server-side replication glue: the replica's [`ApplySink`] over a
//! backend (+ optional local WAL), the per-server replication role, and
//! the point-in-time reading `STATS` and `METRICS` report.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use sprofile::{SProfile, Tuple};
use sprofile_concurrent::ShardedProfile;
use sprofile_obs::{log, Level, Obs};
use sprofile_replicate::{Applier, ApplierStats, ApplySink, ReplicationSource};

use crate::backend;
use crate::durability::Durability;

/// A server's replication role, held in the shared state.
pub(crate) struct ReplState {
    /// Primary side: present whenever the server runs with a WAL (any
    /// durable server can feed replicas).
    pub source: Option<Arc<ReplicationSource>>,
    /// Replica side: present when `--replica-of` is set.
    pub replica: Option<ReplicaState>,
}

/// The replica-side handles: applier thread + its live counters.
pub(crate) struct ReplicaState {
    pub stats: Arc<ApplierStats>,
    /// Taken (stopped + joined) by `PROMOTE` or shutdown.
    pub applier: Mutex<Option<Applier>>,
    /// Set by `PROMOTE`: the server stays in its replica identity for
    /// `STATS` but accepts writes.
    pub promoted: AtomicBool,
}

impl ReplicaState {
    /// Stops and joins the applier (idempotent).
    pub fn stop_applier(&self) {
        if let Some(applier) = self.applier.lock().expect("applier lock poisoned").take() {
            applier.stop();
        }
    }
}

/// A point-in-time reading of the replication plane. Each `STATS` or
/// `METRICS` render takes one, so every replication field of a render
/// (`repl_lag_lsn` included) comes from the same instant.
pub(crate) struct ReplSnapshot {
    pub role: &'static str,
    pub epoch: u64,
    pub connected: u64,
    pub head: u64,
    pub applied: u64,
    pub records: u64,
    pub bytes: u64,
    pub beats: u64,
    pub fenced: u64,
}

impl ReplSnapshot {
    /// LSNs the replica side still has to apply (0 on a primary).
    pub fn lag(&self) -> u64 {
        self.head.saturating_sub(self.applied)
    }
}

impl ReplState {
    /// Reads the replication counters for the node's current role.
    /// Roles: `none` (no WAL, no primary), `primary` (durable, can feed
    /// replicas), `replica` (read-only, applying a primary's log),
    /// `promoted` (was a replica, now writable). A promoted node with a
    /// WAL is a primary in all but name: its counters switch to the
    /// source side (attached replicas, shipped records) — exactly what
    /// failover monitoring needs to watch on the new head — rather than
    /// staying frozen at promotion-time applier values.
    pub fn snapshot(&self) -> ReplSnapshot {
        let promoted = self
            .replica
            .as_ref()
            .is_some_and(|r| r.promoted.load(Ordering::Relaxed));
        let source_side = |s: &ReplicationSource, role: &'static str| {
            let head = s.head_lsn();
            let applied = s.floor().unwrap_or(head);
            (
                role,
                s.replicas() as u64,
                head,
                applied,
                s.metrics().records(),
                s.metrics().bytes(),
            )
        };
        let (role, connected, head, applied, records, bytes) = match (&self.replica, &self.source) {
            (Some(_), Some(s)) if promoted => source_side(s, "promoted"),
            (Some(r), _) => (
                if promoted { "promoted" } else { "replica" },
                u64::from(r.stats.connected()),
                r.stats.head_lsn(),
                r.stats.applied_lsn(),
                r.stats.records(),
                r.stats.bytes(),
            ),
            (None, Some(s)) => source_side(s, "primary"),
            (None, None) => ("none", 0, 0, 0, 0, 0),
        };
        let epoch = self
            .source
            .as_ref()
            .map(|s| s.epoch())
            .into_iter()
            .chain(self.replica.as_ref().map(|r| r.stats.epoch()))
            .max()
            .unwrap_or(0);
        let beats = self.replica.as_ref().map_or(0, |r| r.stats.beats());
        let fenced = self.replica.as_ref().map_or(0, |r| r.stats.fenced())
            + self
                .source
                .as_ref()
                .map_or(0, |s| s.metrics().fenced_rejects());
        ReplSnapshot {
            role,
            epoch,
            connected,
            head,
            applied,
            records,
            bytes,
            beats,
            fenced,
        }
    }
}

/// The replica's sink: every shipped record goes through the local WAL
/// (when the replica runs durable) and then the backend, in primary LSN
/// order — so the replica's restart position is exactly what it durably
/// applied, and its LSNs always line up with the primary's.
pub(crate) struct BackendSink {
    backend: Arc<ShardedProfile>,
    durability: Option<Arc<Durability>>,
    m: u32,
    /// Resume position when running without a local WAL (volatile: a
    /// restarted non-durable replica re-syncs from scratch).
    next: u64,
    /// Followed epoch when running without a local WAL (volatile, like
    /// `next`: a restarted non-durable replica forgets its fencing
    /// history along with its data).
    epoch: u64,
    /// This replica's observability handle: shipped `TRC` frames land
    /// in its event ring, correlating a traced primary write with every
    /// replica that applied it.
    obs: Arc<Obs>,
}

impl BackendSink {
    pub fn new(
        backend: Arc<ShardedProfile>,
        durability: Option<Arc<Durability>>,
        m: u32,
    ) -> BackendSink {
        let next = durability.as_ref().map_or(1, |d| d.next_lsn());
        let epoch = durability.as_ref().map_or(1, |d| d.epoch());
        BackendSink {
            backend,
            durability,
            m,
            next,
            epoch,
            obs: Obs::disabled(),
        }
    }

    /// Attaches the server's observability handle (the default is a
    /// disabled stand-in, which keeps unit tests quiet).
    pub fn with_obs(mut self, obs: Arc<Obs>) -> BackendSink {
        self.obs = obs;
        self
    }

    fn check_universe(&self, tuples: &[Tuple]) -> Result<(), String> {
        for t in tuples {
            if t.object >= self.m {
                return Err(format!(
                    "shipped object {} outside universe [0, {}) — replica --m must match the primary",
                    t.object, self.m
                ));
            }
        }
        Ok(())
    }
}

impl ApplySink for BackendSink {
    fn position(&mut self) -> u64 {
        match &self.durability {
            Some(d) => d.next_lsn(),
            None => self.next,
        }
    }

    fn epoch(&mut self) -> u64 {
        match &self.durability {
            Some(d) => d.epoch(),
            None => self.epoch,
        }
    }

    fn adopt_epoch(&mut self, epoch: u64) -> Result<(), String> {
        match &self.durability {
            Some(d) => {
                d.adopt_epoch(epoch)?;
            }
            None => self.epoch = self.epoch.max(epoch),
        }
        Ok(())
    }

    fn bootstrap(&mut self, lsn: u64, snapshot: &[u8]) -> Result<(), String> {
        let target = SProfile::from_snapshot_bytes(snapshot)
            .map_err(|e| format!("shipped checkpoint failed to parse: {e}"))?;
        if target.num_objects() != self.m {
            return Err(format!(
                "shipped checkpoint is for m={}, replica runs m={}",
                target.num_objects(),
                self.m
            ));
        }
        // Install the snapshot state into the live backend wholesale —
        // no backend teardown, read queries stay answerable throughout,
        // and the cost is O(m log m), never proportional to the total
        // event count the checkpoint encodes. With a local WAL, the
        // install and the log reset happen in one WAL-lock critical
        // section so a concurrent background checkpoint can never
        // capture a half-installed backend against the old LSNs.
        match &self.durability {
            Some(d) => d.bootstrap_install(lsn, snapshot, &target, &self.backend)?,
            None => backend::install(&self.backend, &target),
        }
        self.next = lsn + 1;
        Ok(())
    }

    fn apply(&mut self, lsn: u64, tuples: &[Tuple]) -> Result<(), String> {
        self.check_universe(tuples)?;
        match &self.durability {
            Some(d) => d.replicate_apply(lsn, tuples, &self.backend)?,
            None => {
                self.backend.apply_batch(tuples);
            }
        }
        self.next = lsn + 1;
        Ok(())
    }

    fn trace(&mut self, lsn: u64, trace: u64) {
        log!(
            self.obs,
            Level::Info,
            "trace",
            "replicated";
            trace = trace,
            lsn = lsn,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendKind;
    use crate::durability::DurabilityConfig;

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sprofile-repl-sink-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn sink_applies_through_the_local_wal_and_resumes_position() {
        let dir = temp_dir("wal");
        let cfg = DurabilityConfig {
            checkpoint_every: 0,
            ..DurabilityConfig::new(&dir)
        };
        {
            let (d, recovered) = Durability::open(&cfg, 16).unwrap();
            let b = BackendKind::Sharded { shards: 2 }.recover(&recovered.profile);
            let mut sink = BackendSink::new(Arc::new(b), Some(Arc::new(d)), 16);
            assert_eq!(sink.position(), 1);
            sink.apply(1, &[Tuple::add(3), Tuple::add(3)]).unwrap();
            sink.apply(2, &[Tuple::remove(7)]).unwrap();
            // Out-of-order records are refused, not silently applied.
            let err = sink.apply(9, &[Tuple::add(1)]).unwrap_err();
            assert!(err.contains("lsn"), "{err}");
            // Out-of-universe records are refused with a pointer at --m.
            let err = sink.apply(3, &[Tuple::add(99)]).unwrap_err();
            assert!(err.contains("--m"), "{err}");
            assert_eq!(sink.position(), 3);
        }
        // Restart: the durable position carries over.
        let (d, recovered) = Durability::open(&cfg, 16).unwrap();
        assert_eq!(recovered.profile.frequency(3), 2);
        let b = BackendKind::Sharded { shards: 1 }.recover(&recovered.profile);
        let mut sink = BackendSink::new(Arc::new(b), Some(Arc::new(d)), 16);
        assert_eq!(sink.position(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bootstrap_morphs_the_backend_and_restarts_the_local_log() {
        for kind in [
            BackendKind::Sharded { shards: 3 },
            BackendKind::Sharded { shards: 1 },
        ] {
            let dir = temp_dir(&format!("bootstrap-{kind:?}"));
            let cfg = DurabilityConfig {
                checkpoint_every: 0,
                ..DurabilityConfig::new(&dir)
            };
            let (d, recovered) = Durability::open(&cfg, 8).unwrap();
            let b = Arc::new(kind.recover(&recovered.profile));
            let mut sink = BackendSink::new(Arc::clone(&b), Some(Arc::new(d)), 8);
            // The replica had diverged state (from an older history).
            sink.apply(1, &[Tuple::add(0), Tuple::add(1), Tuple::add(1)])
                .unwrap();
            // The primary ships a checkpoint at lsn 50 with different
            // frequencies.
            let mut target = SProfile::new(8);
            for t in [
                Tuple::add(1),
                Tuple::add(2),
                Tuple::add(2),
                Tuple::remove(5),
            ] {
                target.apply(t);
            }
            sink.bootstrap(50, &target.to_snapshot_bytes()).unwrap();
            for x in 0..8 {
                assert_eq!(b.frequency(x), target.frequency(x), "{kind:?} object {x}");
            }
            assert_eq!(sink.position(), 51);
            // And the next record chains at 51.
            sink.apply(51, &[Tuple::add(4)]).unwrap();
            drop(sink);
            // A restart recovers the bootstrapped state + the tail.
            let (_, recovered) = Durability::open(&cfg, 8).unwrap();
            assert_eq!(recovered.checkpoint_lsn, Some(50));
            assert_eq!(recovered.next_lsn, 52);
            assert_eq!(recovered.profile.frequency(2), 2);
            assert_eq!(recovered.profile.frequency(4), 1);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn a_mismatched_universe_bootstrap_is_refused() {
        let b = BackendKind::Sharded { shards: 2 }.build(8);
        let mut sink = BackendSink::new(Arc::new(b), None, 8);
        let err = sink
            .bootstrap(5, &SProfile::new(16).to_snapshot_bytes())
            .unwrap_err();
        assert!(err.contains("m=16"), "{err}");
    }
}
