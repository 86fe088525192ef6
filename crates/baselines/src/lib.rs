//! # sprofile-baselines — the structures the S-Profile paper compares against
//!
//! Every baseline implements the [`sprofile::FrequencyProfiler`] trait (and
//! where the structure supports it, [`sprofile::RankQueries`]) so that
//! tests, integration suites, and the benchmark harness can swap
//! structures generically.
//!
//! | structure | update | mode | k-th / median | paper role |
//! |-----------|--------|------|---------------|------------|
//! | [`MaxHeapProfiler`] / [`MinHeapProfiler`] | O(log m) | O(1) (own extreme) | — | §3.1 comparator |
//! | [`TreapProfiler`] | O(log m) | O(log m) | O(log m) | §3.2 comparator (PBDS substitute #1) |
//! | [`AvlProfiler`] | O(log m) | O(log m) | O(log m) | §3.2 comparator (PBDS substitute #2) |
//! | [`BTreeProfiler`] | O(log D) | O(log D) | O(D) | idiomatic-std comparator |
//! | [`SortedVecProfiler`] | O(log m) | O(1) | O(1) | ablation: blocks vs binary search |
//! | [`HashRunProfiler`] | O(1) | O(1) | O(1) | ablation: blocks vs hash-indexed runs |
//! | [`BucketProfiler`] | O(1) | O(m) | O(m) | §1 strawman |
//! | [`Oracle`] | O(1) | O(m) | O(m log m) | test ground truth |
//!
//! (`D` = number of distinct frequency values.)
//!
//! Additionally, [`ExpHistogram`] implements the §1-cited sliding-window
//! sketching line of work (Datar et al. \[5\]): approximate window counts in
//! O((1/ε)·log²W) space, the space/exactness trade-off the paper's exact
//! window adapter sidesteps.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

mod avl;
mod btree;
mod bucket;
mod eh;
mod hashrun;
mod heap;
mod oracle;
mod ostree;
mod sorted_vec;
mod treap;

pub use avl::AvlTree;
pub use btree::BTreeProfiler;
pub use bucket::BucketProfiler;
pub use eh::ExpHistogram;
pub use hashrun::HashRunProfiler;
pub use heap::{Direction, IndexedHeap, Max, MaxHeapProfiler, Min, MinHeapProfiler};
pub use oracle::Oracle;
pub use ostree::{Key, OrderStatTree, TreeProfiler};
pub use sorted_vec::SortedVecProfiler;
pub use treap::Treap;

/// The paper's §3.2 balanced-tree baseline, treap-flavoured.
pub type TreapProfiler = TreeProfiler<Treap>;

/// The paper's §3.2 balanced-tree baseline, AVL-flavoured.
pub type AvlProfiler = TreeProfiler<AvlTree>;

#[cfg(test)]
mod cross_structure_tests {
    use super::*;
    use sprofile::{FrequencyProfiler, RankQueries, SProfile};

    /// Replays one deterministic mixed stream into every structure and
    /// checks they agree with the oracle on every query after every batch.
    #[test]
    fn all_structures_agree_with_oracle() {
        let m = 18u32;
        let mut oracle = Oracle::new(m);
        let mut sp = SProfile::new(m);
        let mut heap = MaxHeapProfiler::new(m);
        let mut treap = TreapProfiler::new(m);
        let mut avl = AvlProfiler::new(m);
        let mut btree = BTreeProfiler::new(m);
        let mut sv = SortedVecProfiler::new(m);
        let mut bucket = BucketProfiler::new(m);
        let mut hashrun = HashRunProfiler::new(m);

        let mut state = 0xfeedu64;
        for step in 0..4000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = ((state >> 33) % m as u64) as u32;
            let is_add = (state >> 11) % 10 < 7;
            for p in [
                &mut oracle as &mut dyn RankQueries,
                &mut sp,
                &mut treap,
                &mut avl,
                &mut btree,
                &mut sv,
                &mut bucket,
                &mut hashrun,
            ] {
                if is_add {
                    p.add(x);
                } else {
                    p.remove(x);
                }
            }
            if is_add {
                heap.add(x);
            } else {
                heap.remove(x);
            }

            if step % 200 != 0 {
                continue;
            }
            let want_mode = oracle.mode().unwrap().1;
            let want_least = oracle.least().unwrap().1;
            for p in [
                &sp as &dyn RankQueries,
                &treap,
                &avl,
                &btree,
                &sv,
                &bucket,
                &hashrun,
            ] {
                assert_eq!(
                    p.mode().unwrap().1,
                    want_mode,
                    "{} mode step {step}",
                    p.name()
                );
                assert_eq!(
                    p.least().unwrap().1,
                    want_least,
                    "{} least step {step}",
                    p.name()
                );
                for k in [1u32, 2, m / 2, m - 1, m] {
                    assert_eq!(
                        p.kth_largest_frequency(k),
                        oracle.kth_largest_frequency(k),
                        "{} k={k} step {step}",
                        p.name()
                    );
                }
                assert_eq!(
                    p.median_frequency(),
                    oracle.median_frequency(),
                    "{} median step {step}",
                    p.name()
                );
                for t in [-2i64, 0, 1, 3] {
                    assert_eq!(
                        p.count_at_least(t),
                        oracle.count_at_least(t),
                        "{} count_at_least({t}) step {step}",
                        p.name()
                    );
                }
                for y in 0..m {
                    assert_eq!(p.frequency(y), oracle.frequency(y), "{}", p.name());
                }
            }
            assert_eq!(heap.mode().unwrap().1, want_mode, "heap mode step {step}");
        }
    }
}
