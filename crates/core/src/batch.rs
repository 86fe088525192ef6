//! Batched ingestion: apply many log-stream tuples in one call.
//!
//! The paper's update rule is worst-case O(1) per tuple, but at firehose
//! scale the *surrounding* per-tuple costs (branching, bounds checks,
//! lock/channel traffic in the concurrent adapters) dominate the constant
//! core. [`SProfile::apply_batch`] amortizes those costs over a whole
//! slice of tuples with two strategies:
//!
//! * [`BatchStrategy::Replay`] — apply tuples one by one through the O(1)
//!   update rule. Total cost O(b) with the per-op constant; right for
//!   batches small relative to the universe.
//! * [`BatchStrategy::Rebuild`] — fold the batch into a per-object delta
//!   array, then rebuild the whole profile with a counting sort over the
//!   new frequencies (reusing the same O(m) construction as
//!   [`SProfile::from_frequencies`], minus its comparison sort). Total
//!   cost O(m + b + R) where R is the spread of frequency values — a
//!   tighter, branch-free loop that wins once `b` is a sizable fraction
//!   of `m`.
//!
//! [`SProfile::apply_batch`] picks between them automatically with a
//! crossover keyed to batch size versus universe size (see
//! [`SProfile::batch_strategy`]). Both strategies produce the same
//! frequencies, aggregates, and blocks; only the internal placement of
//! equal-frequency objects may differ (replay's tie order is
//! history-dependent, rebuild's is ascending by id). Frequency, rank,
//! and [`SProfile::top_k`] answers are unaffected (top-K orders ties
//! deterministically itself); only the raw iterators
//! ([`SProfile::iter_ascending`] / [`SProfile::iter_descending`]) expose
//! the placement within an equal-frequency class.

use crate::block::Block;
use crate::error::{Error, Result};
use crate::profile::SProfile;
use crate::window::Tuple;

/// How [`SProfile::apply_batch_using`] ingests a batch; each variant
/// states its cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchStrategy {
    /// Per-tuple replay through the O(1) update rule: O(b).
    Replay,
    /// Counting-sort bulk rebuild of the whole profile: O(m + b + R).
    Rebuild,
}

/// Rebuild wins once the batch is at least `m / REBUILD_FRACTION` tuples.
///
/// This is the batch-vs-per-op crossover knob: replay costs a few tens of
/// nanoseconds per tuple (pointer chasing over three O(m) arrays), while
/// a rebuild streams sequentially over O(m) memory. Benchmarks
/// (`crates/bench/benches/batch.rs`, `BENCH_batch.json`) put the break-even
/// near b ≈ m/8 on cache-resident universes; /4 is a conservative pick so
/// small batches never regress.
const REBUILD_FRACTION: u32 = 4;

/// Never rebuild for batches smaller than this, regardless of `m`: the
/// fixed cost of allocating the frequency/order scratch exceeds any
/// replay savings on tiny batches.
const REBUILD_MIN_BATCH: usize = 64;

impl SProfile {
    /// The strategy [`SProfile::apply_batch`] would pick for a batch of
    /// `batch_len` tuples against this profile's universe.
    ///
    /// # Example
    /// ```
    /// use sprofile::{BatchStrategy, SProfile};
    ///
    /// let p = SProfile::new(1024);
    /// assert_eq!(p.batch_strategy(8), BatchStrategy::Replay);
    /// assert_eq!(p.batch_strategy(4096), BatchStrategy::Rebuild);
    /// ```
    pub fn batch_strategy(&self, batch_len: usize) -> BatchStrategy {
        let m = self.num_objects();
        let threshold = ((m / REBUILD_FRACTION) as usize).max(REBUILD_MIN_BATCH);
        if m > 0 && batch_len >= threshold {
            BatchStrategy::Rebuild
        } else {
            BatchStrategy::Replay
        }
    }

    /// Applies a whole batch of log-stream tuples, choosing the strategy
    /// automatically. Returns the number of tuples applied.
    ///
    /// Equivalent to `for t in batch { self.apply(*t); }` — same
    /// frequencies, aggregates, and query answers (the iterators may
    /// order equal-frequency objects differently) — but amortized:
    /// large batches are folded into one O(m + b) counting-sort rebuild
    /// instead of b pointer-chasing updates. All object ids are validated
    /// *before* any mutation, so a panic leaves the profile unchanged.
    ///
    /// # Panics
    /// If any tuple's object id is `>= m`. Use
    /// [`SProfile::try_apply_batch`] for a fallible variant.
    ///
    /// # Example
    /// ```
    /// use sprofile::{SProfile, Tuple};
    ///
    /// let mut p = SProfile::new(100);
    /// p.apply_batch(&[Tuple::add(7), Tuple::add(7), Tuple::remove(3)]);
    /// assert_eq!(p.frequency(7), 2);
    /// assert_eq!(p.frequency(3), -1);
    /// assert_eq!(p.updates(), 3);
    /// ```
    pub fn apply_batch(&mut self, batch: &[Tuple]) -> u64 {
        self.apply_batch_using(batch, self.batch_strategy(batch.len()))
    }

    /// Fallible [`SProfile::apply_batch`]: rejects the whole batch (no
    /// partial application) if any object id is out of range.
    ///
    /// # Example
    /// ```
    /// use sprofile::{Error, SProfile, Tuple};
    ///
    /// let mut p = SProfile::new(4);
    /// let err = p.try_apply_batch(&[Tuple::add(0), Tuple::add(9)]);
    /// assert_eq!(err, Err(Error::ObjectOutOfRange { object: 9, m: 4 }));
    /// assert_eq!(p.frequency(0), 0, "nothing applied on error");
    /// assert_eq!(p.try_apply_batch(&[Tuple::add(0)]), Ok(1));
    /// ```
    pub fn try_apply_batch(&mut self, batch: &[Tuple]) -> Result<u64> {
        let m = self.num_objects();
        for t in batch {
            if t.object >= m {
                return Err(Error::ObjectOutOfRange {
                    object: t.object,
                    m,
                });
            }
        }
        Ok(self.apply_batch_using(batch, self.batch_strategy(batch.len())))
    }

    /// [`SProfile::apply_batch`] with an explicit strategy — exposed so
    /// benchmarks and tests can pin each path; both produce equivalent
    /// final states (identical frequencies and query answers).
    ///
    /// # Panics
    /// If any tuple's object id is `>= m`.
    pub fn apply_batch_using(&mut self, batch: &[Tuple], strategy: BatchStrategy) -> u64 {
        match strategy {
            BatchStrategy::Replay => {
                // Validate everything up front so a panic mutates nothing.
                let m = self.num_objects();
                for t in batch {
                    assert!(
                        t.object < m,
                        "object id {} out of range for universe of {m} objects",
                        t.object
                    );
                }
                for t in batch {
                    self.apply(*t);
                }
            }
            // The rebuild folds deltas into a scratch array before touching
            // the profile, so its bounds checks double as validation — no
            // separate pass, same leave-unchanged-on-panic guarantee.
            BatchStrategy::Rebuild => self.rebuild_with_batch(batch),
        }
        batch.len() as u64
    }

    /// Bulk path: fold the batch into per-object deltas, counting-sort the
    /// new frequencies, and rebuild **in place** — the counting-sort
    /// histogram directly describes every frequency class, so blocks are
    /// materialised straight from it and the three index arrays plus the
    /// block arena are overwritten without reallocation. O(m + b + R)
    /// with R the frequency spread; when R is huge (pathological ±1e9
    /// swings) it falls back to a stable comparison sort through
    /// [`SProfile::from_frequencies`]'s constructor. Ids are
    /// pre-validated by the caller.
    fn rebuild_with_batch(&mut self, batch: &[Tuple]) {
        let m = self.num_objects() as usize;
        debug_assert!(m > 0, "rebuild requires a non-empty universe");
        let mut freqs = vec![0i64; m];
        {
            // Direct block walk (not the lazy iterator): one frequency
            // read per block, one scatter write per object.
            let to_obj = self.raw_to_obj();
            let mut pos = 0u32;
            while (pos as usize) < m {
                let b = self.block_at(pos);
                for q in b.l..=b.r {
                    freqs[to_obj[q as usize] as usize] = b.f;
                }
                pos = b.r + 1;
            }
        }
        for t in batch {
            match freqs.get_mut(t.object as usize) {
                Some(f) => *f += if t.is_add { 1 } else { -1 },
                None => panic!(
                    "object id {} out of range for universe of {m} objects",
                    t.object
                ),
            }
        }
        let mut lo = i64::MAX;
        let mut hi = i64::MIN;
        for &f in &freqs {
            lo = lo.min(f);
            hi = hi.max(f);
        }
        // Counting sort only when the value spread is comparable to m;
        // otherwise one bucket per possible value would dwarf the rebuild.
        let spread = (hi as i128 - lo as i128) as u128;
        if spread >= (4 * m as u128).max(1024) {
            let mut order: Vec<u32> = (0..m as u32).collect();
            order.sort_by_key(|&x| freqs[x as usize]);
            let prior_updates = self.updates();
            *self = SProfile::from_sorted_assignment(order, &freqs);
            self.bump_updates(prior_updates + batch.len() as u64);
            return;
        }
        let buckets = spread as usize + 1;
        // hist[v] = first sorted position of frequency `lo + v` after the
        // prefix sum; hist[buckets] = m.
        let mut hist = vec![0u32; buckets + 1];
        for &f in &freqs {
            hist[(f - lo) as usize + 1] += 1;
        }
        for v in 1..=buckets {
            hist[v] += hist[v - 1];
        }
        let mut total = 0i64;
        let mut nonzero = 0u32;
        {
            let mut cursor = hist[..buckets].to_vec();
            let (to_obj, to_pos, ptr, blocks) = self.raw_mut();
            // Stable scatter (ascending object id within a class) filling
            // both permutations in one pass.
            for (x, &f) in freqs.iter().enumerate() {
                let slot = &mut cursor[(f - lo) as usize];
                to_obj[*slot as usize] = x as u32;
                to_pos[x] = *slot;
                *slot += 1;
            }
            // One block per non-empty bucket, extents read off the
            // histogram — no run-detection scan needed.
            blocks.clear();
            for v in 0..buckets {
                let (l, r_excl) = (hist[v], hist[v + 1]);
                if l == r_excl {
                    continue;
                }
                let f = lo + v as i64;
                let bid = blocks.alloc(Block {
                    l,
                    r: r_excl - 1,
                    f,
                });
                for pos in l..r_excl {
                    ptr[pos as usize] = bid;
                }
                let run = (r_excl - l) as i64;
                total += f * run;
                if f != 0 {
                    nonzero += run as u32;
                }
            }
        }
        self.set_aggregates(total, nonzero);
        self.bump_updates(batch.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{check_invariants, derive_frequencies};

    fn pseudo_batch(m: u32, n: usize, mut state: u64) -> Vec<Tuple> {
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(99);
                let obj = ((state >> 33) % m as u64) as u32;
                if (state >> 7) % 10 < 6 {
                    Tuple::add(obj)
                } else {
                    Tuple::remove(obj)
                }
            })
            .collect()
    }

    #[test]
    fn strategies_agree_with_per_op_replay() {
        for (m, n) in [(16u32, 5usize), (16, 200), (300, 50), (300, 5_000)] {
            let batch = pseudo_batch(m, n, m as u64 * 31 + n as u64);
            let mut reference = SProfile::new(m);
            for t in &batch {
                reference.apply(*t);
            }
            for strategy in [BatchStrategy::Replay, BatchStrategy::Rebuild] {
                let mut p = SProfile::new(m);
                assert_eq!(p.apply_batch_using(&batch, strategy), n as u64);
                check_invariants(&p).unwrap_or_else(|e| panic!("{strategy:?} m={m} n={n}: {e}"));
                assert_eq!(
                    derive_frequencies(&p),
                    derive_frequencies(&reference),
                    "{strategy:?} m={m} n={n}"
                );
                assert_eq!(p.updates(), reference.updates());
                assert_eq!(p.len(), reference.len());
                assert_eq!(p.distinct_active(), reference.distinct_active());
                assert_eq!(p.num_blocks(), reference.num_blocks());
            }
        }
    }

    #[test]
    fn strategies_preserve_identical_tie_order() {
        // Split one stream into prefix (applied per-op) + batch; the
        // rebuild must leave the same maintained order as replay so the
        // two paths are observably identical (top_k, iterators, ...).
        let m = 64u32;
        let stream = pseudo_batch(m, 2_000, 7);
        let (prefix, batch) = stream.split_at(1_200);
        let mut replayed = SProfile::new(m);
        let mut rebuilt = SProfile::new(m);
        for t in prefix {
            replayed.apply(*t);
            rebuilt.apply(*t);
        }
        replayed.apply_batch_using(batch, BatchStrategy::Replay);
        rebuilt.apply_batch_using(batch, BatchStrategy::Rebuild);
        assert_eq!(replayed.top_k(m), rebuilt.top_k(m));
        assert_eq!(
            replayed.iter_ascending().collect::<Vec<_>>().len(),
            rebuilt.iter_ascending().collect::<Vec<_>>().len()
        );
    }

    #[test]
    fn auto_crossover_picks_rebuild_for_large_batches() {
        let p = SProfile::new(1_000);
        assert_eq!(p.batch_strategy(0), BatchStrategy::Replay);
        assert_eq!(p.batch_strategy(63), BatchStrategy::Replay);
        assert_eq!(p.batch_strategy(249), BatchStrategy::Replay);
        assert_eq!(p.batch_strategy(250), BatchStrategy::Rebuild);
        // Tiny universes still never rebuild below the fixed floor.
        let tiny = SProfile::new(8);
        assert_eq!(tiny.batch_strategy(32), BatchStrategy::Replay);
        assert_eq!(tiny.batch_strategy(64), BatchStrategy::Rebuild);
        // An empty universe can only replay (nothing to rebuild).
        let empty = SProfile::new(0);
        assert_eq!(empty.batch_strategy(1_000_000), BatchStrategy::Replay);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut p = SProfile::new(10);
        p.add(3);
        assert_eq!(p.apply_batch(&[]), 0);
        assert_eq!(p.updates(), 1);
        assert_eq!(p.frequency(3), 1);
    }

    #[test]
    fn apply_batch_validates_before_mutating() {
        let mut p = SProfile::new(4);
        let bad = [Tuple::add(0), Tuple::add(7)];
        assert_eq!(
            p.try_apply_batch(&bad),
            Err(Error::ObjectOutOfRange { object: 7, m: 4 })
        );
        assert_eq!(p.frequency(0), 0);
        assert_eq!(p.updates(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn apply_batch_panics_on_out_of_range() {
        SProfile::new(2).apply_batch(&[Tuple::add(5)]);
    }

    #[test]
    fn rebuild_handles_negative_and_wide_frequencies() {
        // Drive one object far negative and another far positive so the
        // counting sort falls back to the comparison sort.
        let mut p = SProfile::new(6);
        let mut batch = Vec::new();
        for _ in 0..10_000 {
            batch.push(Tuple::add(1));
            batch.push(Tuple::remove(4));
        }
        batch.push(Tuple::add(2));
        p.apply_batch_using(&batch, BatchStrategy::Rebuild);
        check_invariants(&p).unwrap();
        assert_eq!(p.frequency(1), 10_000);
        assert_eq!(p.frequency(4), -10_000);
        assert_eq!(p.frequency(2), 1);
        assert_eq!(p.mode().unwrap().frequency, 10_000);
        assert_eq!(p.least().unwrap().frequency, -10_000);
    }

    #[test]
    fn batches_compose_with_per_op_updates() {
        let m = 40u32;
        let mut p = SProfile::new(m);
        let mut reference = SProfile::new(m);
        for round in 0..10u64 {
            let batch = pseudo_batch(m, 700, round);
            p.apply_batch(&batch);
            for t in &batch {
                reference.apply(*t);
            }
            p.add((round % m as u64) as u32);
            reference.add((round % m as u64) as u32);
            check_invariants(&p).unwrap();
            assert_eq!(derive_frequencies(&p), derive_frequencies(&reference));
        }
        assert_eq!(p.updates(), reference.updates());
    }

    #[test]
    fn rebuild_after_rebuild_reuses_state_correctly() {
        // Back-to-back rebuilds exercise the in-place path against its
        // own output (cleared arena, overwritten permutations).
        let m = 100u32;
        let mut p = SProfile::new(m);
        let mut reference = SProfile::new(m);
        for round in 0..6u64 {
            let batch = pseudo_batch(m, 2_000, round * 11 + 3);
            p.apply_batch_using(&batch, BatchStrategy::Rebuild);
            for t in &batch {
                reference.apply(*t);
            }
            check_invariants(&p).unwrap_or_else(|e| panic!("round {round}: {e}"));
            assert_eq!(derive_frequencies(&p), derive_frequencies(&reference));
            assert_eq!(p.updates(), reference.updates());
        }
    }
}
