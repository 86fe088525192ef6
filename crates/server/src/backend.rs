//! The server's engine: one [`ShardedProfile`], shared by every
//! connection worker as an `Arc`. An update locks one universe shard
//! and has been applied when it returns, so a read issued after a flush
//! always observes it — the server needs no barrier anywhere.
//!
//! What the server needs beyond the profile's own API lives here:
//! building the engine (fresh, or resumed from a recovered
//! [`SProfile`]), installing a shipped state wholesale, and
//! round-trip-validated snapshot bytes.

use sprofile::{SProfile, SnapshotError};
use sprofile_concurrent::ShardedProfile;

/// The engine shape a server runs, with its knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendKind {
    /// Universe-partitioned shards behind mutexes (`shards: 1` is the
    /// single-lock shape); queries combine per-shard answers.
    Sharded {
        /// Number of shards.
        shards: usize,
    },
}

impl BackendKind {
    /// A fresh engine over a universe of `m` objects.
    pub(crate) fn build(self, m: u32) -> ShardedProfile {
        let BackendKind::Sharded { shards } = self;
        ShardedProfile::new(m, shards)
    }

    /// An engine seeded with `profile`'s state — the crash-recovery
    /// path: WAL replay produces a single [`SProfile`], and the
    /// configured shape resumes from it.
    pub fn recover(self, profile: &SProfile) -> ShardedProfile {
        let BackendKind::Sharded { shards } = self;
        ShardedProfile::from_frequencies(&frequencies(profile), shards)
    }
}

/// Replaces `engine`'s state wholesale with `profile` — the replica
/// checkpoint-bootstrap hook. O(m log m) (a per-shard rebuild), never
/// proportional to the total event count the state encodes.
///
/// # Panics
/// If `profile`'s universe size differs from `engine`'s.
pub(crate) fn install(engine: &ShardedProfile, profile: &SProfile) {
    engine.install_frequencies(&frequencies(profile));
}

/// `engine`'s [`SProfile`] snapshot bytes, round-trip-validated before
/// anything is persisted or shipped: a bad shard merge surfaces as a
/// typed error the caller turns into a protocol `ERR` or a counted
/// checkpoint failure, never as a panic on a worker thread.
pub(crate) fn validated_snapshot_bytes(engine: &ShardedProfile) -> Result<Vec<u8>, SnapshotError> {
    let bytes = engine.snapshot_bytes();
    SProfile::from_snapshot_bytes(&bytes)?;
    Ok(bytes)
}

/// `profile`'s frequencies in id order.
fn frequencies(profile: &SProfile) -> Vec<i64> {
    (0..profile.num_objects())
        .map(|x| profile.frequency(x))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprofile::Tuple;

    #[test]
    fn both_backends_answer_the_same_queries() {
        for kind in [
            BackendKind::Sharded { shards: 3 },
            BackendKind::Sharded { shards: 1 },
        ] {
            let b = kind.build(20);
            b.apply_batch(&[
                Tuple::add(5),
                Tuple::add(5),
                Tuple::add(5),
                Tuple::add(9),
                Tuple::remove(1),
            ]);
            assert_eq!(b.frequency(5), 3, "{kind:?}");
            assert_eq!(b.mode(), Some((5, 3)), "{kind:?}");
            assert_eq!(b.least(), Some((1, -1)), "{kind:?}");
            assert_eq!(b.median(), Some(0), "{kind:?}");
            assert_eq!(b.top_k(2), vec![(5, 3), (9, 1)], "{kind:?}");
            assert_eq!(b.count_at_least(1), 2, "{kind:?}");
            let freqs = b.merged_frequencies();
            assert_eq!(freqs.len(), 20, "{kind:?}");
            assert_eq!((freqs[5], freqs[9], freqs[1]), (3, 1, -1), "{kind:?}");
            // Regression: the snapshot round-trip is a fallible
            // validation step now, not an `unwrap()` that could panic a
            // worker thread.
            let bytes = validated_snapshot_bytes(&b).expect("valid snapshot");
            let snap = SProfile::from_snapshot_bytes(&bytes).unwrap();
            assert_eq!(snap.frequency(5), 3, "{kind:?}");
        }
    }

    #[test]
    fn corrupt_snapshot_bytes_fail_validation_instead_of_panicking() {
        // The validation `validated_snapshot_bytes` performs is exactly
        // this round-trip: feed it the kind of corruption a buggy merge
        // could produce and require a typed error, not a panic.
        let b = BackendKind::Sharded { shards: 2 }.build(10);
        b.apply_batch(&[Tuple::add(1), Tuple::add(1)]);
        let mut bytes = validated_snapshot_bytes(&b).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(SProfile::from_snapshot_bytes(&bytes).is_err());
    }

    #[test]
    fn build_recovered_seeds_both_backends() {
        let mut seed = SProfile::new(12);
        for t in [
            Tuple::add(3),
            Tuple::add(3),
            Tuple::add(7),
            Tuple::remove(0),
        ] {
            seed.apply(t);
        }
        for kind in [
            BackendKind::Sharded { shards: 3 },
            BackendKind::Sharded { shards: 1 },
        ] {
            let b = kind.recover(&seed);
            assert_eq!(b.frequency(3), 2, "{kind:?}");
            assert_eq!(b.frequency(0), -1, "{kind:?}");
            assert_eq!(b.mode(), Some((3, 2)), "{kind:?}");
            // Updates continue on the recovered state.
            b.apply_batch(&[Tuple::add(3)]);
            assert_eq!(b.frequency(3), 3, "{kind:?}");
        }
    }
}
