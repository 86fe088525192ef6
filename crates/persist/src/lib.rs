//! # sprofile-persist — durability for the profile service
//!
//! The TCP server acknowledges writes from in-memory state; before this
//! crate, a crash lost everything since the last manually requested
//! `SNAPSHOT`. This crate is the missing durability layer, built from
//! three pieces that compose into standard write-ahead logging:
//!
//! * **Segmented WAL** ([`Wal`]) — applied batches are appended as
//!   CRC-32-checksummed records to numbered segment files
//!   (`wal-<first_lsn>.seg`), rotated at a size threshold. Appends are
//!   *group-committed*: one record (and at most one fsync) per applied
//!   batch, with the fsync cadence picked by [`SyncPolicy`].
//! * **Checkpoints** ([`Wal::checkpoint`]) — the profile's snapshot
//!   (the [`SProfile::write_snapshot`](sprofile::SProfile::write_snapshot)
//!   format, which carries its own CRC-32 footer) is written
//!   atomically (temp file + rename) as `ckpt-<lsn>.ck`, covering every
//!   record up to `lsn`. Fully covered segments and superseded
//!   checkpoints are then pruned.
//! * **Recovery** ([`recover`]) — loads the newest *valid* checkpoint
//!   (falling back to the retained previous one if the newest is
//!   corrupt) and replays the WAL tail on top. A torn or truncated
//!   final record — the signature of a crash mid-write — ends replay
//!   cleanly rather than failing it; a gap or corruption *before* the
//!   tail is a hard error, because silently skipping acknowledged
//!   records would un-acknowledge them.
//!
//! Every multi-byte integer is little-endian. The log is append-only;
//! no record is ever rewritten in place, so the only partially written
//! bytes possible are at the tail of the newest segment.
//!
//! Since PR 5 the crate also carries the read-side hooks log shipping
//! needs: [`SegmentReader`] (range reads of durable records without
//! touching the in-flight tail), [`Wal::subscribe`] (a bounded live-tail
//! broadcast of freshly committed records), [`ReplicaRegistry`] (a
//! pruning floor at the slowest replica's acknowledged LSN, with a
//! [`WalOptions::max_retain_bytes`] escape hatch), [`Wal::sync_if_stale`]
//! (an idle timer bounding the crash-loss window of a quiescent
//! interval-sync log), and [`Wal::reset_to_checkpoint`] (replica
//! checkpoint bootstrap — checkpoint-first, so every crash point leaves
//! a recoverable directory). A failed append *write* now rotates to a
//! fresh segment and retries once before fail-stopping.
//!
//! ```
//! use sprofile::Tuple;
//! use sprofile_persist::{recover, SyncPolicy, Wal, WalOptions};
//!
//! let dir = std::env::temp_dir().join(format!("wal-doc-{}", std::process::id()));
//! let opts = WalOptions { dir: dir.clone(), ..WalOptions::default() };
//!
//! // Writer side: append acknowledged batches.
//! let mut wal = Wal::open(opts.clone(), 1).unwrap();
//! wal.append(&[Tuple::add(3), Tuple::add(3), Tuple::remove(9)]).unwrap();
//! wal.sync().unwrap();
//! drop(wal);
//!
//! // After a crash: rebuild the profile from the log.
//! let recovered = recover(&dir, 16).unwrap();
//! assert_eq!(recovered.profile.frequency(3), 2);
//! assert_eq!(recovered.profile.frequency(9), -1);
//! assert_eq!(recovered.replayed_records, 1);
//! std::fs::remove_dir_all(&dir).ok();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

mod epoch;
mod metrics;
mod partition;
mod reader;
mod record;
mod recover;
mod retention;
mod segment;
mod wal;

pub use epoch::{read_epoch, write_epoch, EPOCH_FILE};
pub use metrics::WalMetrics;
pub use partition::{read_partition_map, write_partition_map, PartitionMap, PARTITION_FILE};
pub use reader::SegmentReader;
pub use record::MAX_RECORD_TUPLES;
pub use recover::{dump_records, newest_checkpoint, recover, RecordInfo, Recovered};
pub use retention::{ReplicaRegistry, ReplicaSlot};
pub use segment::{checkpoint_path, is_checkpoint_file, is_segment_file, segment_path};
pub use wal::{TailRecord, Wal, WalOptions, TAIL_CAPACITY};

use std::fmt;
use std::io;
use std::path::PathBuf;
use std::time::Duration;

use sprofile::SnapshotError;

/// When the WAL forces appended records onto stable storage.
///
/// Regardless of policy, every committed record is `write(2)`-flushed to
/// the kernel before the append returns — a killed *process* loses
/// nothing committed. The policy only chooses how often `fsync` is paid,
/// i.e. what an *OS crash or power loss* can take with it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// fsync before every append returns: an acknowledged batch survives
    /// even power loss. One fsync per applied batch (group commit).
    Always,
    /// fsync at most once per interval, piggybacked on appends; power
    /// loss can cost up to one interval of acknowledged records.
    Interval(Duration),
    /// Never fsync during operation (only on clean shutdown); the OS
    /// decides when dirty pages hit disk.
    Never,
}

impl SyncPolicy {
    /// Parses `always` / `interval` / `never` (case-insensitive);
    /// `interval_ms` is the cadence an interval policy uses.
    pub fn parse(s: &str, interval_ms: u64) -> Option<SyncPolicy> {
        match s.to_ascii_lowercase().as_str() {
            "always" => Some(SyncPolicy::Always),
            "interval" => Some(SyncPolicy::Interval(Duration::from_millis(
                interval_ms.max(1),
            ))),
            "never" => Some(SyncPolicy::Never),
            _ => None,
        }
    }

    /// Short name for reports (`always` / `interval` / `never`).
    pub fn name(&self) -> &'static str {
        match self {
            SyncPolicy::Always => "always",
            SyncPolicy::Interval(_) => "interval",
            SyncPolicy::Never => "never",
        }
    }
}

/// Errors from the durability layer.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A structural validation failed; the message says which and where.
    Corrupt {
        /// What was wrong.
        what: &'static str,
        /// The file it was found in, when known.
        path: Option<PathBuf>,
    },
    /// A checkpoint's embedded snapshot failed to load.
    Snapshot(SnapshotError),
    /// Another live writer holds the WAL directory's advisory lock.
    Locked {
        /// The contested WAL directory.
        dir: PathBuf,
    },
    /// The log was written for a different universe size than requested.
    UniverseMismatch {
        /// Universe size recorded in the log/checkpoint.
        wal_m: u32,
        /// Universe size the caller asked to recover into.
        requested_m: u32,
    },
}

impl PersistError {
    pub(crate) fn corrupt(what: &'static str, path: Option<&std::path::Path>) -> Self {
        PersistError::Corrupt {
            what,
            path: path.map(|p| p.to_path_buf()),
        }
    }
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "wal i/o error: {e}"),
            PersistError::Corrupt { what, path } => match path {
                Some(p) => write!(f, "corrupt wal: {what} ({})", p.display()),
                None => write!(f, "corrupt wal: {what}"),
            },
            PersistError::Snapshot(e) => write!(f, "corrupt checkpoint: {e}"),
            PersistError::Locked { dir } => write!(
                f,
                "wal directory {} is locked by another live writer (a running server?)",
                dir.display()
            ),
            PersistError::UniverseMismatch { wal_m, requested_m } => write!(
                f,
                "universe mismatch: log holds m={wal_m}, requested m={requested_m}"
            ),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<SnapshotError> for PersistError {
    fn from(e: SnapshotError) -> Self {
        PersistError::Snapshot(e)
    }
}
