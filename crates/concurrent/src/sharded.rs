//! Universe-partitioned sharding: `p` independent S-Profiles behind
//! mutexes, global answers combined on demand.

use std::convert::Infallible;

use parking_lot::Mutex;
use sprofile::{lower_median_of_parts, SProfile, Tuple};

/// A multi-writer profile over `[0, m)`, sharded by `object % p`.
///
/// Shard `s` owns objects `{x | x % p == s}`, stored locally as
/// `x / p` — a bijection, so each shard is a dense sub-universe and the
/// core structure applies unchanged. All methods take `&self`; threads
/// may call them concurrently.
///
/// ```
/// use sprofile_concurrent::ShardedProfile;
///
/// let p = ShardedProfile::new(1000, 8);
/// p.add(42);
/// p.add(42);
/// p.remove(7);
/// assert_eq!(p.frequency(42), 2);
/// assert_eq!(p.mode().unwrap(), (42, 2));
/// ```
pub struct ShardedProfile {
    shards: Vec<Mutex<SProfile>>,
    m: u32,
}

impl ShardedProfile {
    /// Profile over a universe of `m` objects split across `shards`
    /// shards (clamped to at least 1, at most `m.max(1)`).
    pub fn new(m: u32, shards: usize) -> Self {
        let p = shards.clamp(1, m.max(1) as usize) as u32;
        let shards = (0..p)
            .map(|s| {
                // Number of ids in [0, m) congruent to s mod p.
                let local = (m - s).div_ceil(p);
                Mutex::new(SProfile::new(local))
            })
            .collect();
        Self { shards, m }
    }

    /// Profile pre-seeded with per-object frequencies (global-id order),
    /// split across `shards` shards — the inverse of
    /// [`Self::merged_frequencies`], and the hook crash recovery uses to
    /// rebuild a sharded backend from a restored
    /// [`SProfile`](sprofile::SProfile). O(m log m) overall (one
    /// [`SProfile::from_frequencies`] rebuild per shard).
    pub fn from_frequencies(freqs: &[i64], shards: usize) -> Self {
        let sp = Self::new(freqs.len() as u32, shards);
        sp.install_frequencies(freqs);
        sp
    }

    /// Replaces the *live* profile's state with `freqs` (global-id
    /// order) in place — the replica checkpoint-bootstrap hook. Each
    /// shard is rebuilt under its own lock, O(m log m) overall;
    /// concurrent readers see a mix of old and new state until the last
    /// shard swaps (same non-atomicity as any cross-shard write).
    ///
    /// # Panics
    /// If `freqs.len()` differs from the universe size.
    pub fn install_frequencies(&self, freqs: &[i64]) {
        assert_eq!(
            freqs.len() as u32,
            self.m,
            "frequency vector must cover the whole universe"
        );
        let p = self.shards.len() as u32;
        for (s, shard) in self.shards.iter().enumerate() {
            let local_m = shard.lock().num_objects();
            let local: Vec<i64> = (0..local_m)
                .map(|l| freqs[(l * p + s as u32) as usize])
                .collect();
            *shard.lock() = SProfile::from_frequencies(&local);
        }
    }

    /// Universe size `m`.
    pub fn num_objects(&self) -> u32 {
        self.m
    }

    /// Number of shards `p`.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    #[inline]
    fn locate(&self, x: u32) -> (usize, u32) {
        assert!(x < self.m, "object {x} outside universe [0, {})", self.m);
        let p = self.shards.len() as u32;
        ((x % p) as usize, x / p)
    }

    #[inline]
    fn global_id(&self, shard: usize, local: u32) -> u32 {
        local * self.shards.len() as u32 + shard as u32
    }

    /// Record one "add" for `x`; returns the new frequency. Locks only
    /// `x`'s shard.
    pub fn add(&self, x: u32) -> i64 {
        let (s, local) = self.locate(x);
        self.shards[s].lock().add(local)
    }

    /// Record one "remove" for `x`; returns the new frequency.
    pub fn remove(&self, x: u32) -> i64 {
        let (s, local) = self.locate(x);
        self.shards[s].lock().remove(local)
    }

    /// Record a whole batch of log-stream tuples (global ids); returns
    /// how many were applied.
    ///
    /// The batch is partitioned once into per-shard sub-batches, and each
    /// involved shard's lock is taken **exactly once** for one
    /// [`SProfile::apply_batch`] call — so producers pay one lock
    /// round-trip per shard instead of one per tuple, and large
    /// sub-batches additionally hit the counting-sort bulk-rebuild path.
    /// All ids are validated before any shard is touched; shards not
    /// named in the batch are never locked.
    ///
    /// Concurrency note: tuples of one `apply_batch` land atomically *per
    /// shard*, not globally — exactly like the equivalent per-op loop,
    /// concurrent readers may observe a shard-consistent interleaving.
    ///
    /// # Panics
    /// If any tuple's object id is `>= m`.
    ///
    /// # Example
    /// ```
    /// use sprofile::Tuple;
    /// use sprofile_concurrent::ShardedProfile;
    ///
    /// let p = ShardedProfile::new(1000, 8);
    /// p.apply_batch(&[Tuple::add(42), Tuple::add(42), Tuple::remove(7)]);
    /// assert_eq!(p.frequency(42), 2);
    /// assert_eq!(p.frequency(7), -1);
    /// ```
    pub fn apply_batch(&self, batch: &[Tuple]) -> u64 {
        let p = self.shards.len() as u32;
        let m = self.m;
        // Validate everything up front so a panic touches no shard,
        // whichever branch below applies the batch.
        for t in batch {
            assert!(
                t.object < m,
                "object {} outside universe [0, {m})",
                t.object
            );
        }
        if p == 1 {
            // Shard 0 owns every id and local ids equal global ids: skip
            // the partition entirely.
            if !batch.is_empty() {
                self.shards[0].lock().apply_batch(batch);
            }
            return batch.len() as u64;
        }
        if batch.len() < p as usize {
            // Fewer tuples than shards: the partition scaffolding costs
            // more than it saves — fall through to per-op updates.
            for t in batch {
                let shard = &self.shards[(t.object % p) as usize];
                if t.is_add {
                    shard.lock().add(t.object / p);
                } else {
                    shard.lock().remove(t.object / p);
                }
            }
            return batch.len() as u64;
        }
        // One partition pass into pre-sized per-shard sub-batches, no
        // per-tuple division when p is a power of two.
        let shift = if p.is_power_of_two() {
            p.trailing_zeros()
        } else {
            0
        };
        let split = |x: u32| -> (u32, u32) {
            if shift != 0 {
                (x & (p - 1), x >> shift)
            } else {
                (x % p, x / p)
            }
        };
        // Sized for a uniform spread plus 50% skew headroom; heavier skew
        // just grows the one hot sub-batch amortized.
        let cap = batch.len() / p as usize + batch.len() / (2 * p as usize) + 4;
        let mut parts: Vec<Vec<Tuple>> = (0..p).map(|_| Vec::with_capacity(cap)).collect();
        for t in batch {
            let (s, local) = split(t.object);
            parts[s as usize].push(Tuple {
                object: local,
                is_add: t.is_add,
            });
        }
        for (s, part) in parts.iter().enumerate() {
            if !part.is_empty() {
                self.shards[s].lock().apply_batch(part);
            }
        }
        batch.len() as u64
    }

    /// Current frequency of `x`.
    pub fn frequency(&self, x: u32) -> i64 {
        let (s, local) = self.locate(x);
        self.shards[s].lock().frequency(local)
    }

    /// Global mode `(object, frequency)`, ties to the smallest object
    /// id; `None` for an empty universe. [`Self::mode_in`] over every
    /// shard.
    ///
    /// Shards are locked one at a time, so concurrent updates may land
    /// between shard reads; the answer is a consistent *per-shard*
    /// snapshot combination (use [`PipelineProfiler`] for global
    /// linearisability).
    ///
    /// [`PipelineProfiler`]: crate::PipelineProfiler
    pub fn mode(&self) -> Option<(u32, i64)> {
        self.mode_in(|_| true)
    }

    /// Global least-frequent `(object, frequency)`; see [`Self::mode`]
    /// for consistency semantics.
    pub fn least(&self) -> Option<(u32, i64)> {
        self.least_in(|_| true)
    }

    /// The lower median frequency over all `m` objects — the same
    /// convention as [`SProfile::median`] (position `⌊(m−1)/2⌋` of the
    /// ascending sorted array), `None` iff `m == 0`:
    /// [`Self::median_in`] over every shard.
    pub fn median(&self) -> Option<i64> {
        self.median_in(|_| true)
    }

    /// Number of objects with frequency ≥ `threshold`: the sum of the
    /// per-shard O(log m) counts, O(p log m).
    pub fn count_at_least(&self, threshold: i64) -> u32 {
        self.count_at_least_in(|_| true, threshold)
    }

    /// Net stream length (adds − removes) across all shards.
    pub fn len(&self) -> i64 {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Number of objects with a non-zero frequency, across all shards.
    pub fn distinct_active(&self) -> u32 {
        self.shards.iter().map(|s| s.lock().distinct_active()).sum()
    }

    /// True iff every object sits at frequency zero. Like
    /// [`SProfile::is_empty`] this is based on the non-zero-object count,
    /// *not* on the net length: `+x` followed by `−y` leaves two non-zero
    /// objects and a net length of 0 — and is not empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().is_empty())
    }

    /// Global top-K `(object, frequency)`, most frequent first, equal
    /// frequencies ascending by object id — exactly the list
    /// [`SProfile::top_k`] returns for the same frequencies, shard count
    /// notwithstanding: the first `k` entries of
    /// [`Self::top_k_with_ties_in`] over every shard.
    pub fn top_k(&self, k: u32) -> Vec<(u32, i64)> {
        let mut top = self.top_k_with_ties_in(|_| true, k);
        top.truncate(k as usize);
        top
    }

    // -----------------------------------------------------------------
    // Queries over a set of shards. `shards` selects shard indices in
    // `0..num_shards()`; each answer covers the selected shards' objects
    // only, with the whole-profile rules. A cluster node whose shards
    // are aligned to its hash slices passes the shards it owns.
    // -----------------------------------------------------------------

    /// The most frequent object of the selected shards, ties to the
    /// smallest id: the per-shard O(1) modes folded in O(p), plus a scan
    /// of each shard's mode class for its smallest id. `None` when no
    /// selected shard holds an object.
    pub fn mode_in(&self, shards: impl Fn(usize) -> bool) -> Option<(u32, i64)> {
        self.fold_extreme(
            shards,
            |p| Some((*p.mode_objects().iter().min()?, p.mode()?.frequency)),
            |best, cand| cand.1 > best.1 || (cand.1 == best.1 && cand.0 < best.0),
        )
    }

    /// The least-frequent counterpart of [`Self::mode_in`].
    pub fn least_in(&self, shards: impl Fn(usize) -> bool) -> Option<(u32, i64)> {
        self.fold_extreme(
            shards,
            |p| Some((*p.least_objects().iter().min()?, p.least()?.frequency)),
            |best, cand| cand.1 < best.1 || (cand.1 == best.1 && cand.0 < best.0),
        )
    }

    fn fold_extreme(
        &self,
        shards: impl Fn(usize) -> bool,
        pick: impl Fn(&SProfile) -> Option<(u32, i64)>,
        beats: impl Fn((u32, i64), (u32, i64)) -> bool,
    ) -> Option<(u32, i64)> {
        let mut best: Option<(u32, i64)> = None;
        for (s, shard) in self.selected(&shards) {
            let guard = shard.lock();
            if let Some((local, f)) = pick(&guard) {
                let cand = (self.global_id(s, local), f);
                best = match best {
                    Some(b) if !beats(b, cand) => Some(b),
                    _ => Some(cand),
                };
            }
        }
        best
    }

    /// The lower median over the selected shards' objects, from the
    /// shards' O(1) medians and O(log m) threshold counts through
    /// [`sprofile::lower_median_of_parts`]: the answer lies between the
    /// smallest and largest shard median, and is bisected on the summed
    /// counts only inside that bracket — O(p) when the shard medians
    /// agree, O(p log m · log(hi − lo)) otherwise. The selected shards
    /// are locked together (in index order) for the whole search, so the
    /// answer is exact for one state of them. `None` when no selected
    /// shard holds an object.
    pub fn median_in(&self, shards: impl Fn(usize) -> bool) -> Option<i64> {
        let guards: Vec<_> = self.selected(&shards).map(|(_, s)| s.lock()).collect();
        let total = guards.iter().map(|p| u64::from(p.num_objects())).sum();
        let median = lower_median_of_parts(total, guards.iter().filter_map(|p| p.median()), |v| {
            Ok::<u64, Infallible>(guards.iter().map(|p| u64::from(p.count_at_least(v))).sum())
        });
        median.unwrap_or_else(|never| match never {})
    }

    /// Number of the selected shards' objects with frequency ≥
    /// `threshold`: a sum of per-shard O(log m) counts.
    pub fn count_at_least_in(&self, shards: impl Fn(usize) -> bool, threshold: i64) -> u32 {
        self.selected(&shards)
            .map(|(_, s)| s.lock().count_at_least(threshold))
            .sum()
    }

    /// The selected shards' top `k` **with ties over-fetched at the
    /// cut**, in the shape of [`SProfile::top_k_with_ties`]: frequency
    /// descending, ids ascending within a frequency, every class above
    /// the cut whole and the class straddling the cut truncated to its
    /// `k` smallest ids (at most `2k − 1` entries). This is the shape a
    /// cluster node's `TOPK` reply has.
    ///
    /// Each shard contributes its own `top_k_with_ties(k)` under its
    /// lock; the union is sorted once and re-cut the same way. The union
    /// holds every selected object above the cut and the `k` smallest
    /// ids of the cut class (each is among the `k` smallest of that class
    /// in its own shard), so the re-cut list is exact — and merging such
    /// lists from disjoint parts (other shards, other cluster nodes) and
    /// truncating at `k` reproduces the single-profile top `k`.
    pub fn top_k_with_ties_in(&self, shards: impl Fn(usize) -> bool, k: u32) -> Vec<(u32, i64)> {
        if k == 0 {
            return Vec::new();
        }
        // At most 2k − 1 entries per shard and never more than m.
        let bound = self
            .shards
            .len()
            .saturating_mul(2 * k as usize)
            .min(self.m as usize);
        let mut all: Vec<(u32, i64)> = Vec::with_capacity(bound);
        for (s, shard) in self.selected(&shards) {
            let guard = shard.lock();
            all.extend(
                guard
                    .top_k_with_ties(k)
                    .into_iter()
                    .map(|(local, f)| (self.global_id(s, local), f)),
            );
        }
        all.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let k = k as usize;
        if all.len() > k {
            let cut = all[k - 1].1;
            let class_start = all.partition_point(|&(_, f)| f > cut);
            let class_len = all[class_start..].partition_point(|&(_, f)| f == cut);
            all.truncate(class_start + class_len.min(k));
        }
        all
    }

    /// The shards `shards` selects, with their indices.
    fn selected<'a>(
        &'a self,
        shards: &'a impl Fn(usize) -> bool,
    ) -> impl Iterator<Item = (usize, &'a Mutex<SProfile>)> + 'a {
        self.shards
            .iter()
            .enumerate()
            .filter(move |&(s, _)| shards(s))
    }

    /// Frequencies of all `m` objects in global-id order — the merge
    /// point for downstream single-threaded analysis.
    pub fn merged_frequencies(&self) -> Vec<i64> {
        let mut out = vec![0i64; self.m as usize];
        for (s, shard) in self.shards.iter().enumerate() {
            let guard = shard.lock();
            for local in 0..guard.num_objects() {
                out[self.global_id(s, local) as usize] = guard.frequency(local);
            }
        }
        out
    }

    /// Collapse into a single-threaded [`SProfile`] carrying the same
    /// frequencies (O(m log m) rebuild).
    pub fn snapshot(&self) -> SProfile {
        SProfile::from_frequencies(&self.merged_frequencies())
    }

    /// Serialized snapshot in the [`SProfile::write_snapshot`] format —
    /// the persistence hook the TCP server's `SNAPSHOT` command rides on.
    /// Collapses via [`Self::snapshot`] first, so restoring yields a
    /// single profile with the same frequencies.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        self.snapshot().to_snapshot_bytes()
    }
}

impl sprofile::FrequencyProfiler for ShardedProfile {
    fn num_objects(&self) -> u32 {
        self.m
    }

    fn add(&mut self, x: u32) {
        ShardedProfile::add(self, x);
    }

    fn remove(&mut self, x: u32) {
        ShardedProfile::remove(self, x);
    }

    fn apply_batch(&mut self, batch: &[Tuple]) -> u64 {
        ShardedProfile::apply_batch(self, batch)
    }

    fn frequency(&self, x: u32) -> i64 {
        ShardedProfile::frequency(self, x)
    }

    fn mode(&self) -> Option<(u32, i64)> {
        ShardedProfile::mode(self)
    }

    fn least(&self) -> Option<(u32, i64)> {
        ShardedProfile::least(self)
    }

    fn name(&self) -> &'static str {
        "sharded-s-profile"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn shard_count_is_clamped() {
        assert_eq!(ShardedProfile::new(4, 100).num_shards(), 4);
        assert_eq!(ShardedProfile::new(100, 0).num_shards(), 1);
        assert_eq!(ShardedProfile::new(0, 3).num_shards(), 1);
    }

    #[test]
    fn local_universe_sizes_partition_m() {
        for m in [1u32, 7, 16, 97] {
            for p in [1usize, 2, 3, 5, 8] {
                let sp = ShardedProfile::new(m, p);
                let total: u32 = sp.shards.iter().map(|s| s.lock().num_objects()).sum();
                assert_eq!(total, m, "m={m} p={p}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn out_of_range_object_panics() {
        ShardedProfile::new(10, 2).add(10);
    }

    #[test]
    fn matches_sequential_profile_on_a_single_thread() {
        let sharded = ShardedProfile::new(50, 7);
        let mut seq = SProfile::new(50);
        for i in 0..5000u32 {
            let x = (i * 13 + i / 3) % 50;
            if i % 4 == 0 {
                sharded.remove(x);
                seq.remove(x);
            } else {
                sharded.add(x);
                seq.add(x);
            }
        }
        for x in 0..50 {
            assert_eq!(sharded.frequency(x), seq.frequency(x), "object {x}");
        }
        assert_eq!(sharded.mode().unwrap().1, seq.mode().unwrap().frequency);
        assert_eq!(sharded.least().unwrap().1, seq.least().unwrap().frequency);
        assert_eq!(sharded.len(), seq.len());
        assert_eq!(sharded.count_at_least(10), seq.count_at_least(10));
    }

    #[test]
    fn concurrent_writers_settle_to_the_exact_counts() {
        let sp = Arc::new(ShardedProfile::new(64, 8));
        let threads: Vec<_> = (0..8u32)
            .map(|t| {
                let sp = Arc::clone(&sp);
                thread::spawn(move || {
                    // Each thread adds every object `t + 1` times and
                    // removes object t once.
                    for round in 0..t + 1 {
                        for x in 0..64 {
                            sp.add(x);
                        }
                        let _ = round;
                    }
                    sp.remove(t);
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        // Total adds per object: 1+2+...+8 = 36; objects 0..8 got one
        // remove each.
        for x in 0..64u32 {
            let expect = if x < 8 { 35 } else { 36 };
            assert_eq!(sp.frequency(x), expect, "object {x}");
        }
        assert_eq!(
            sp.mode().unwrap(),
            (8, 36),
            "smallest untouched object wins ties"
        );
        assert_eq!(sp.least().unwrap(), (0, 35));
    }

    #[test]
    fn top_k_merges_across_shards() {
        let sp = ShardedProfile::new(20, 4);
        // Frequencies: object x gets x adds.
        for x in 0..20u32 {
            for _ in 0..x {
                sp.add(x);
            }
        }
        let top = sp.top_k(5);
        assert_eq!(top, vec![(19, 19), (18, 18), (17, 17), (16, 16), (15, 15)]);
    }

    #[test]
    fn apply_batch_matches_per_op_updates() {
        for shards in [1usize, 3, 8] {
            let batched = ShardedProfile::new(60, shards);
            let per_op = ShardedProfile::new(60, shards);
            let batch: Vec<Tuple> = (0..3000u32)
                .map(|i| {
                    let x = (i * 17 + i / 5) % 60;
                    if i % 3 == 0 {
                        Tuple::remove(x)
                    } else {
                        Tuple::add(x)
                    }
                })
                .collect();
            assert_eq!(batched.apply_batch(&batch), 3000);
            for t in &batch {
                if t.is_add {
                    per_op.add(t.object);
                } else {
                    per_op.remove(t.object);
                }
            }
            for x in 0..60 {
                assert_eq!(
                    batched.frequency(x),
                    per_op.frequency(x),
                    "shards {shards} object {x}"
                );
            }
            assert_eq!(batched.mode(), per_op.mode());
            assert_eq!(batched.len(), per_op.len());
            assert_eq!(batched.top_k(10), per_op.top_k(10));
        }
    }

    #[test]
    fn apply_batch_empty_and_out_of_range() {
        let sp = ShardedProfile::new(10, 3);
        assert_eq!(sp.apply_batch(&[]), 0);
        assert!(sp.is_empty());
        // A valid tuple *ahead of* the bad one must not be applied —
        // validation runs before any shard is touched, on every branch
        // (this 2-tuple batch takes the fewer-tuples-than-shards path).
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sp.apply_batch(&[Tuple::add(0), Tuple::add(10)])
        }));
        assert!(result.is_err(), "out-of-range id must panic");
        assert!(sp.is_empty(), "nothing applied before the panic");
        // Same guarantee on the partition path (batch >= shard count).
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sp.apply_batch(&[Tuple::add(0), Tuple::add(1), Tuple::add(2), Tuple::add(10)])
        }));
        assert!(result.is_err());
        assert!(sp.is_empty(), "nothing applied before the panic");
    }

    #[test]
    fn is_empty_sees_cancelling_nonzero_objects() {
        // Regression: +x then −y nets to length 0 while two objects hold
        // non-zero (one negative) frequencies — that is NOT empty.
        let sp = ShardedProfile::new(16, 4);
        sp.add(3);
        sp.remove(11);
        assert_eq!(sp.len(), 0);
        assert!(!sp.is_empty());
        assert_eq!(sp.distinct_active(), 2);
        // Undoing both really empties it.
        sp.remove(3);
        sp.add(11);
        assert!(sp.is_empty());
        assert_eq!(sp.distinct_active(), 0);
    }

    #[test]
    fn top_k_ties_straddling_a_shard_cut_match_the_single_profile() {
        // Regression: objects 0..8 all at frequency 1 in a 4-shard
        // profile, k = 3. Per-shard truncation at k used to let each
        // shard pick arbitrary tie witnesses; the merged answer must be
        // the deterministic smallest-id tie-break the single profile
        // reports.
        let m = 16u32;
        let sp = ShardedProfile::new(m, 4);
        let mut seq = SProfile::new(m);
        for x in 0..8u32 {
            sp.add(x);
            seq.add(x);
        }
        // A couple of higher-frequency objects so the tie class straddles
        // the per-shard cut rather than starting at it.
        for _ in 0..3 {
            sp.add(9);
            seq.add(9);
        }
        for k in 1..=m {
            assert_eq!(sp.top_k(k), seq.top_k(k), "k = {k}");
        }
    }

    #[test]
    fn median_matches_the_single_profile() {
        // Even and odd universes; a uniform-ish stream, one skewed by
        // shard (so the shard medians differ and the bracket is wide),
        // and one skewed by a heavy hitter with negative frequencies.
        // Op `i` of a stream over `m` objects: (object, is_add).
        type Op = fn(u32, u32) -> (u32, bool);
        let streams: [(&str, Op); 3] = [
            ("uniform", |i, m| ((i * 13 + i / 7) % m, i % 5 != 0)),
            ("by shard", |i, m| {
                let x = (i * 7 + i / 3) % m;
                (x, i % (x % 3 + 2) != 0)
            }),
            ("heavy", |i, m| {
                if i % 3 == 0 {
                    (0, true)
                } else {
                    ((i * 5) % m, i % 2 == 0)
                }
            }),
        ];
        for m in [1u32, 2, 7, 16, 33, 64] {
            for shards in [1usize, 3, 8] {
                for (name, op) in streams {
                    let sp = ShardedProfile::new(m, shards);
                    let mut seq = SProfile::new(m);
                    for i in 0..(m * 37) {
                        let (x, add) = op(i, m);
                        if add {
                            sp.add(x);
                            seq.add(x);
                        } else {
                            sp.remove(x);
                            seq.remove(x);
                        }
                    }
                    let ctx = format!("m={m} shards={shards} {name}");
                    assert_eq!(sp.median(), seq.median(), "{ctx}");
                    let lo = seq.least().unwrap().frequency;
                    let hi = seq.mode().unwrap().frequency;
                    for t in lo - 1..=hi + 1 {
                        assert_eq!(sp.count_at_least(t), seq.count_at_least(t), "{ctx} t={t}");
                    }
                    for k in [1u32, 2, 5, m] {
                        assert_eq!(sp.top_k(k), seq.top_k(k), "{ctx} k={k}");
                    }
                }
            }
        }
        assert_eq!(ShardedProfile::new(0, 4).median(), None);
    }

    #[test]
    fn queries_over_a_shard_set_cover_only_its_objects() {
        let m = 40u32;
        let sp = ShardedProfile::new(m, 4);
        for x in 0..m {
            for _ in 0..(x * 7) % 11 {
                sp.add(x);
            }
        }
        // Shards 1 and 3: the odd ids.
        let odd = |s: usize| s % 2 == 1;
        let owned: Vec<i64> = (0..m)
            .filter(|x| x % 2 == 1)
            .map(|x| sp.frequency(x))
            .collect();
        let part = SProfile::from_frequencies(&owned);
        let global = |(local, f): (u32, i64)| (2 * local + 1, f);
        assert_eq!(sp.median_in(odd), part.median());
        assert_eq!(sp.count_at_least_in(odd, 5), part.count_at_least(5));
        let mode = part.mode_objects().iter().copied().min().unwrap();
        assert_eq!(
            sp.mode_in(odd),
            Some(global((mode, part.mode().unwrap().frequency)))
        );
        let least = part.least_objects().iter().copied().min().unwrap();
        assert_eq!(
            sp.least_in(odd),
            Some(global((least, part.least().unwrap().frequency)))
        );
        for k in [1u32, 3, 7, 20] {
            let want: Vec<(u32, i64)> = part.top_k_with_ties(k).into_iter().map(global).collect();
            assert_eq!(sp.top_k_with_ties_in(odd, k), want, "k={k}");
        }
        // An empty selection has no answer.
        assert_eq!(sp.median_in(|_| false), None);
        assert_eq!(sp.mode_in(|_| false), None);
        assert_eq!(sp.top_k_with_ties_in(|_| false, 3), vec![]);
    }

    #[test]
    fn snapshot_bytes_restore_to_the_same_frequencies() {
        let sp = ShardedProfile::new(25, 4);
        for i in 0..500u32 {
            sp.add(i % 25);
            if i % 3 == 0 {
                sp.remove((i + 2) % 25);
            }
        }
        let restored = SProfile::from_snapshot_bytes(&sp.snapshot_bytes()).unwrap();
        for x in 0..25 {
            assert_eq!(restored.frequency(x), sp.frequency(x), "object {x}");
        }
        assert_eq!(restored.median(), sp.median());
    }

    #[test]
    fn snapshot_round_trips_frequencies() {
        let sp = ShardedProfile::new(30, 3);
        for i in 0..300u32 {
            sp.add(i % 30);
            if i % 5 == 0 {
                sp.remove((i + 1) % 30);
            }
        }
        let snap = sp.snapshot();
        for x in 0..30 {
            assert_eq!(snap.frequency(x), sp.frequency(x), "object {x}");
        }
        assert_eq!(snap.mode().unwrap().frequency, sp.mode().unwrap().1);
    }

    #[test]
    fn from_frequencies_inverts_merged_frequencies() {
        for shards in [1usize, 3, 4, 8] {
            let sp = ShardedProfile::new(23, shards);
            for i in 0..700u32 {
                sp.add((i * 11 + i / 9) % 23);
                if i % 4 == 1 {
                    sp.remove((i * 5) % 23);
                }
            }
            let freqs = sp.merged_frequencies();
            let rebuilt = ShardedProfile::from_frequencies(&freqs, shards);
            assert_eq!(rebuilt.merged_frequencies(), freqs, "shards {shards}");
            assert_eq!(rebuilt.mode(), sp.mode());
            assert_eq!(rebuilt.median(), sp.median());
            assert_eq!(rebuilt.top_k(6), sp.top_k(6));
            // Updates continue correctly on the rebuilt profile.
            rebuilt.add(3);
            assert_eq!(rebuilt.frequency(3), freqs[3] + 1);
        }
        // Degenerate universes.
        assert_eq!(ShardedProfile::from_frequencies(&[], 4).num_objects(), 0);
        let one = ShardedProfile::from_frequencies(&[-2], 4);
        assert_eq!(one.frequency(0), -2);
    }

    #[test]
    fn frequency_profiler_trait_works_generically() {
        fn drive<P: sprofile::FrequencyProfiler>(p: &mut P) {
            p.add(1);
            p.add(1);
            p.remove(2);
            assert_eq!(p.frequency(1), 2);
            assert_eq!(p.mode(), Some((1, 2)));
            assert_eq!(p.least(), Some((2, -1)));
        }
        let mut sp = ShardedProfile::new(10, 3);
        drive(&mut sp);
        assert_eq!(sprofile::FrequencyProfiler::name(&sp), "sharded-s-profile");
    }

    #[test]
    fn empty_universe_has_no_extremes() {
        let sp = ShardedProfile::new(0, 4);
        assert_eq!(sp.mode(), None);
        assert_eq!(sp.least(), None);
        assert!(sp.is_empty());
        assert_eq!(sp.top_k(3), vec![]);
        assert_eq!(sp.merged_frequencies(), Vec::<i64>::new());
    }
}
