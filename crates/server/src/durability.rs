//! Durability glue: the server's `--wal` mode, built on
//! [`sprofile_persist`].
//!
//! The contract with the connection workers is *log before apply*:
//! every batch leaving a per-connection write buffer is appended to the
//! WAL (one record, group-committed per the [`SyncPolicy`]) and only
//! then applied to the backend — both under one mutex, so a checkpoint
//! can never capture backend state and a WAL position that disagree.
//! Recovery therefore restores exactly the flushed (durable) prefix of
//! acknowledged writes; what a crash can lose is bounded by the
//! per-connection flush threshold plus the sync policy's window.

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use sprofile::Tuple;
use sprofile_persist::{
    recover, PersistError, Recovered, ReplicaRegistry, SyncPolicy, Wal, WalMetrics, WalOptions,
};

use sprofile_concurrent::ShardedProfile;

use crate::backend;

/// `--wal` knobs.
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// WAL directory (segments + checkpoints), created if absent.
    pub dir: PathBuf,
    /// fsync cadence for appended records.
    pub sync: SyncPolicy,
    /// Segment rotation threshold, in bytes.
    pub segment_bytes: u64,
    /// Background-checkpoint threshold, in *tuples* logged since the
    /// last checkpoint (records vary wildly in size with batching, so
    /// tuples are the meaningful unit of replay debt); `0` disables
    /// background checkpointing (a final checkpoint is still written on
    /// graceful shutdown).
    pub checkpoint_every: u64,
    /// Byte budget for checkpoint-covered segments retained only
    /// because a lagging replica still needs them; beyond it, the oldest
    /// are pruned anyway and the replica re-bootstraps from a
    /// checkpoint. `u64::MAX`: unlimited.
    pub max_retain_bytes: u64,
}

impl DurabilityConfig {
    /// Defaults for a WAL rooted at `dir`: 50 ms interval sync, 8 MiB
    /// segments, checkpoint every 65 536 records, unlimited replica
    /// retention.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            sync: SyncPolicy::Interval(Duration::from_millis(50)),
            segment_bytes: 8 << 20,
            checkpoint_every: 1 << 16,
            max_retain_bytes: u64::MAX,
        }
    }
}

/// The live WAL shared by every connection worker, the housekeeping
/// thread, and (behind [`Durability::wal_handle`]) the replication
/// source.
pub(crate) struct Durability {
    wal: Arc<Mutex<Wal>>,
    dir: PathBuf,
    registry: Arc<ReplicaRegistry>,
    metrics: Arc<WalMetrics>,
    /// WAL append/checkpoint failures (disk full, …); surfaces in
    /// `STATS` as `wal_errors`.
    errors: AtomicU64,
    /// Set once an append fail-stops the log. From then on the server
    /// refuses *new* writes (`ERR wal failed…`): acknowledging writes
    /// that can never be logged would silently diverge from the durable
    /// log — and from every replica tailing it, while `repl_lag_lsn`
    /// still read 0. Reads keep serving; surfaces as `wal_failed=1`.
    failed: AtomicBool,
    checkpoint_every: u64,
    tuples_at_last_checkpoint: AtomicU64,
}

fn elapsed_us(t0: Instant) -> u64 {
    t0.elapsed().as_micros().min(u64::MAX as u128) as u64
}

fn to_io(e: PersistError) -> io::Error {
    match e {
        PersistError::Io(e) => e,
        other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
    }
}

/// Where the time of one [`Durability::log_and_apply`] call went, so
/// the caller can stamp its request span without the WAL growing a
/// span dependency. All values in microseconds.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct FlushBreakdown {
    /// The appended record's LSN (`None`: the append failed).
    pub lsn: Option<u64>,
    /// Waiting to acquire the WAL mutex.
    pub lock_wait_us: u64,
    /// Encoding + writing the record (fsync excluded).
    pub append_us: u64,
    /// fsync issued by this append, per the sync policy (0 when the
    /// policy skipped it).
    pub fsync_us: u64,
}

impl Durability {
    /// Recovers `cfg.dir` (checkpoint + WAL tail) and opens the log for
    /// appending. Returns the recovered state so the caller can seed
    /// the backend from it.
    pub(crate) fn open(cfg: &DurabilityConfig, m: u32) -> io::Result<(Durability, Recovered)> {
        let recovered = recover(&cfg.dir, m).map_err(to_io)?;
        let registry = ReplicaRegistry::new();
        let wal = Wal::open(
            WalOptions {
                dir: cfg.dir.clone(),
                sync: cfg.sync,
                segment_bytes: cfg.segment_bytes,
                keep_checkpoints: 2,
                registry: Some(Arc::clone(&registry)),
                max_retain_bytes: cfg.max_retain_bytes,
            },
            recovered.next_lsn,
        )
        .map_err(to_io)?;
        let metrics = wal.metrics();
        Ok((
            Durability {
                wal: Arc::new(Mutex::new(wal)),
                dir: cfg.dir.clone(),
                registry,
                metrics,
                errors: AtomicU64::new(0),
                failed: AtomicBool::new(false),
                checkpoint_every: cfg.checkpoint_every,
                tuples_at_last_checkpoint: AtomicU64::new(0),
            },
            recovered,
        ))
    }

    /// Whether the log has fail-stopped (an append error exhausted its
    /// rotate-retry); the server refuses new writes from then on.
    pub(crate) fn failed(&self) -> bool {
        self.failed.load(Ordering::Acquire)
    }

    /// Locks the WAL, timing the acquisition: the wait lands in the
    /// shared lock-wait histogram and is returned (µs) for the
    /// caller's request span.
    fn lock_wal(&self) -> (MutexGuard<'_, Wal>, u64) {
        let t0 = Instant::now();
        let wal = self.wal.lock().expect("wal lock poisoned");
        let us = elapsed_us(t0);
        self.metrics.on_lock_wait(us);
        (wal, us)
    }

    /// The WAL mutex itself, for the replication source (which
    /// subscribes to the tail under the same lock appends hold).
    pub(crate) fn wal_handle(&self) -> Arc<Mutex<Wal>> {
        Arc::clone(&self.wal)
    }

    /// The WAL directory.
    pub(crate) fn dir(&self) -> &PathBuf {
        &self.dir
    }

    /// The replica registry pruning consults.
    pub(crate) fn registry(&self) -> Arc<ReplicaRegistry> {
        Arc::clone(&self.registry)
    }

    /// The LSN the next append will be assigned — a restarted replica's
    /// resume position.
    pub(crate) fn next_lsn(&self) -> u64 {
        self.wal.lock().expect("wal lock poisoned").next_lsn()
    }

    /// The current replication epoch (generation id), from the WAL's
    /// durable marker. Reads the lock-free gauge so `STATS` and the
    /// failover promoter never contend with appends.
    pub(crate) fn epoch(&self) -> u64 {
        self.metrics.epoch()
    }

    /// Durably bumps the epoch past `floor` (promotion: the new primary
    /// starts a generation newer than anything it has seen). Returns the
    /// new epoch.
    pub(crate) fn bump_epoch(&self, floor: u64) -> Result<u64, String> {
        self.wal
            .lock()
            .expect("wal lock poisoned")
            .bump_epoch(floor)
            .map_err(|e| format!("epoch bump failed: {e}"))
    }

    /// Durably adopts `epoch` if it is newer than the local one (a
    /// replica following a freshly promoted primary). Returns the
    /// resulting epoch.
    pub(crate) fn adopt_epoch(&self, epoch: u64) -> Result<u64, String> {
        self.wal
            .lock()
            .expect("wal lock poisoned")
            .adopt_epoch(epoch)
            .map_err(|e| format!("epoch adopt failed: {e}"))
    }

    /// Logs `batch` then applies it to `backend`, atomically with
    /// respect to checkpoints. A failed append bumps `wal_errors`,
    /// marks the log [`failed`](Self::failed), and still applies the
    /// batch — every tuple in it was already acknowledged `OK`, so
    /// keeping the acked in-memory state correct beats dropping it.
    /// What stops is *new* acknowledgements: the server refuses further
    /// writes once `failed` is set, bounding the divergence from the
    /// durable log (and from replicas) to the in-flight flush buffers.
    /// Returns a [`FlushBreakdown`]: the appended record's LSN (`None`
    /// when the append failed) so synchronous commit can wait for
    /// replica acks on it, plus where the call's time went (lock wait /
    /// append / fsync) for the caller's request span.
    pub(crate) fn log_and_apply(
        &self,
        batch: &[Tuple],
        backend: &ShardedProfile,
    ) -> FlushBreakdown {
        let (mut wal, lock_wait_us) = self.lock_wal();
        // The fsync the sync policy issues happens inside `append`;
        // the fsync-histogram sum delta across the call is exactly
        // this append's share, because every other fsync site
        // (idle sync, checkpoint, rotation) also runs under the WAL
        // mutex we are holding.
        let fsync_sum_before = self.metrics.fsync_us().sum();
        let t0 = Instant::now();
        let lsn = match wal.append(batch) {
            Ok(lsn) => Some(lsn),
            Err(_) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                self.failed.store(true, Ordering::Release);
                None
            }
        };
        let append_total_us = elapsed_us(t0);
        let fsync_us = self.metrics.fsync_us().sum().wrapping_sub(fsync_sum_before);
        backend.apply_batch(batch);
        FlushBreakdown {
            lsn,
            lock_wait_us,
            append_us: append_total_us.saturating_sub(fsync_us),
            fsync_us,
        }
    }

    /// The replica-side apply: logs one *shipped* record at exactly its
    /// primary-assigned LSN, then applies it to the backend. Unlike
    /// [`Self::log_and_apply`], an append failure does **not** reach the
    /// backend — the replica's invariant is backend == durable log, and
    /// the record will simply be re-requested after the reconnect.
    pub(crate) fn replicate_apply(
        &self,
        lsn: u64,
        batch: &[Tuple],
        backend: &ShardedProfile,
    ) -> Result<(), String> {
        let (mut wal, _) = self.lock_wal();
        if wal.next_lsn() != lsn {
            return Err(format!(
                "replica log at lsn {}, record arrived at {lsn}",
                wal.next_lsn()
            ));
        }
        match wal.append(batch) {
            Ok(_) => {
                backend.apply_batch(batch);
                Ok(())
            }
            Err(e) => {
                // An append error means the log fail-stopped (the
                // rotate-retry is inside `append`): surface it exactly
                // like the primary path does, so `wal_failed=1` shows
                // before an operator promotes this replica and the
                // write path refuses new writes immediately afterwards.
                self.errors.fetch_add(1, Ordering::Relaxed);
                self.failed.store(true, Ordering::Release);
                Err(format!("replica wal append failed: {e}"))
            }
        }
    }

    /// The replica-side bootstrap, in **one** WAL-lock critical
    /// section: install `target` into the backend, discard the local
    /// log (it belongs to a history the primary has pruned past), and
    /// restart it at the shipped checkpoint — which is immediately
    /// written locally, so a restart recovers straight into the
    /// bootstrapped state. Holding the lock throughout keeps the
    /// housekeeping checkpointer (which snapshots under the same lock)
    /// from persisting a half-installed backend against the old LSNs.
    pub(crate) fn bootstrap_install(
        &self,
        lsn: u64,
        snapshot: &[u8],
        target: &sprofile::SProfile,
        backend: &ShardedProfile,
    ) -> Result<(), String> {
        let mut wal = self.wal.lock().expect("wal lock poisoned");
        backend::install(backend, target);
        // Checkpoint-first reset: a crash at any point leaves either the
        // old recoverable log (re-bootstrap on restart) or the new
        // checkpoint — never a checkpointless log starting past LSN 1.
        wal.reset_to_checkpoint(lsn, snapshot).map_err(|e| {
            self.errors.fetch_add(1, Ordering::Relaxed);
            format!("replica wal reset failed: {e}")
        })?;
        // The reset wiped whatever torn tail poisoned the old log, so a
        // previous fail-stop no longer applies: the fresh log appends
        // fine, and writes after a later PROMOTE must not stay refused.
        self.failed.store(false, Ordering::Release);
        Ok(())
    }

    /// Idle-timer sync: fsyncs the unsynced tail once the interval
    /// policy's cadence elapses without an append to piggyback on,
    /// bounding the crash-loss window of a quiescent server. Called by
    /// the housekeeping thread.
    pub(crate) fn idle_sync(&self) {
        let (mut wal, _) = self.lock_wal();
        if wal.sync_if_stale().is_err() {
            // A failed idle fsync fail-stops the log (the dirty pages'
            // fate is unknowable) — same contract as the append path.
            self.errors.fetch_add(1, Ordering::Relaxed);
            self.failed.store(true, Ordering::Release);
        }
    }

    /// Whether background checkpointing is configured at all.
    pub(crate) fn background_enabled(&self) -> bool {
        self.checkpoint_every > 0
    }

    /// Whether enough records have accumulated for a background
    /// checkpoint.
    pub(crate) fn wants_checkpoint(&self) -> bool {
        self.checkpoint_every > 0
            && self.metrics.tuples() - self.tuples_at_last_checkpoint.load(Ordering::Relaxed)
                >= self.checkpoint_every
    }

    /// Takes a checkpoint of `backend`'s current state: under the WAL
    /// lock (no appends can interleave), snapshots it with round-trip
    /// validation, writes the checkpoint, and prunes covered segments.
    /// Errors bump `wal_errors` at the caller.
    pub(crate) fn checkpoint_now(&self, backend: &ShardedProfile) -> Result<u64, PersistError> {
        let (mut wal, _) = self.lock_wal();
        // The whole critical section is the pause concurrent writers
        // observe as lock wait; record it even when the checkpoint
        // fails partway — the pause happened either way.
        let t0 = Instant::now();
        let result = (|| {
            let bytes = backend::validated_snapshot_bytes(backend)?;
            let lsn = wal.checkpoint(&bytes)?;
            self.tuples_at_last_checkpoint
                .store(self.metrics.tuples(), Ordering::Relaxed);
            Ok(lsn)
        })();
        self.metrics.on_checkpoint_pause(elapsed_us(t0));
        result
    }

    /// [`Self::checkpoint_now`], with failures counted instead of
    /// propagated — the background checkpointer's shape. Returns whether
    /// the checkpoint succeeded (the caller backs off on failure:
    /// checkpointing is an O(m) snapshot under the WAL lock, so
    /// hot-retrying against a full disk would stall ingest).
    pub(crate) fn checkpoint_counting_errors(&self, backend: &ShardedProfile) -> bool {
        match self.checkpoint_now(backend) {
            Ok(_) => true,
            Err(_) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// The WAL's lock-free metrics block (counters plus the fsync /
    /// checkpoint duration histograms), read by the field table in
    /// `prom` for `STATS` and `METRICS`.
    pub(crate) fn wal_metrics(&self) -> &WalMetrics {
        &self.metrics
    }

    /// WAL append/checkpoint failures so far (the `wal_errors` stat).
    pub(crate) fn error_count(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendKind;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sprofile-server-durability-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn log_apply_checkpoint_recover_cycle() {
        for (kind, name) in [
            (BackendKind::Sharded { shards: 3 }, "sharded"),
            (BackendKind::Sharded { shards: 1 }, "one-shard"),
        ] {
            let dir = temp_dir(&format!("cycle-{name}"));
            let cfg = DurabilityConfig {
                checkpoint_every: 0,
                ..DurabilityConfig::new(&dir)
            };
            {
                let (d, recovered) = Durability::open(&cfg, 16).unwrap();
                let b = kind.recover(&recovered.profile);
                d.log_and_apply(&[Tuple::add(2), Tuple::add(2)], &b);
                let fb = d.log_and_apply(&[Tuple::remove(5)], &b);
                assert!(fb.lsn.is_some(), "{kind:?}");
                assert!(d.wal_metrics().group_batch().count() >= 2, "{kind:?}");
                assert_eq!(d.wal_metrics().group_batch().max(), 2, "{kind:?}");
                assert!(d.wal_metrics().lock_wait_us().count() >= 2, "{kind:?}");
                assert_eq!(b.frequency(2), 2, "{kind:?}");
                d.checkpoint_now(&b).unwrap();
            }
            // The next boot of the same dir picks the state back up.
            let (_d, recovered) = Durability::open(&cfg, 16).unwrap();
            assert_eq!(recovered.profile.frequency(2), 2, "{kind:?}");
            assert_eq!(recovered.profile.frequency(5), -1, "{kind:?}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn wants_checkpoint_tracks_the_record_threshold() {
        let dir = temp_dir("threshold");
        let cfg = DurabilityConfig {
            checkpoint_every: 3,
            ..DurabilityConfig::new(&dir)
        };
        let (d, recovered) = Durability::open(&cfg, 8).unwrap();
        let b = BackendKind::Sharded { shards: 1 }.recover(&recovered.profile);
        assert!(!d.wants_checkpoint());
        for _ in 0..3 {
            d.log_and_apply(&[Tuple::add(1)], &b);
        }
        assert!(d.wants_checkpoint());
        d.checkpoint_counting_errors(&b);
        assert!(!d.wants_checkpoint());
        std::fs::remove_dir_all(&dir).ok();
    }
}
