//! # sprofile-rangequery — range mode query over a *static* array
//!
//! The S-Profile paper's §1 contrasts its dynamic problem with the *range
//! mode query* line of work (Chan et al. \[4\], Krizanc et al. \[10\],
//! Petersen & Grabowski \[13\]): given a **fixed** array `A` of values in
//! `[0, m)`, preprocess it so that the mode of any sub-array `A[l..r]`
//! can be answered quickly. This crate implements the three classic
//! points on that trade-off curve so the contrast is runnable:
//!
//! | structure | space | query | preprocessing |
//! |-----------|-------|-------|---------------|
//! | [`NaiveScan`] | O(m) | O(r−l+m) | O(1) |
//! | [`PrecomputedTable`] | O(n²) | O(1) | O(n²) |
//! | [`SqrtDecomposition`] | O(n + (n/s)²) | O(s + log n) | O(n·(n/s)) |
//!
//! (`s` = block width, default ⌈√n⌉, giving the familiar O(√n)-query,
//! linear-space point of Chan et al.)
//!
//! Refs [10, 13] treat range *median* alongside range mode; the
//! [`MedianScan`] / [`PrefixCounts`] pair covers that query for the
//! finite-universe setting (see `median.rs` for the trade-off table),
//! and [`WaveletTree`] adds the succinct O(log m)-query point
//! (access / rank / quantile / range-count-below in n·log m bits).
//!
//! The relationship to S-Profile: range mode treats the *array* as static
//! and the *query range* as the variable; S-Profile treats the query as
//! fixed (the whole array) and the array as dynamic under ±1 updates.
//! Neither subsumes the other — and the [`prefix_modes`] helper shows the
//! one overlap, using an [`sprofile::SProfile`] to stream out the mode of
//! every prefix `A[0..i]` in O(n) total, which the static structures need
//! O(n√n) to match.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

mod median;
mod naive;
mod precomputed;
mod sqrt;
mod wavelet;

pub use median::{MedianScan, PrefixCounts, RangeMedian, RangeMedianQuery};
pub use naive::NaiveScan;
pub use precomputed::PrecomputedTable;
pub use sqrt::SqrtDecomposition;
pub use wavelet::WaveletTree;

/// A mode answer: the value and its number of occurrences in the range.
/// Ties are broken towards the smallest value so that all implementations
/// return identical answers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RangeMode {
    /// The most frequent value in the queried range (smallest such value
    /// on ties).
    pub value: u32,
    /// Its occurrence count within the range (≥ 1 for non-empty ranges).
    pub count: u32,
}

/// Common interface over the three structures.
pub trait RangeModeQuery {
    /// Number of array elements `n`.
    fn len(&self) -> usize;

    /// True iff the underlying array is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Mode of the half-open range `A[l..r)`. `None` iff `l >= r` or the
    /// range exceeds the array.
    fn range_mode(&self, l: usize, r: usize) -> Option<RangeMode>;
}

/// Stream the mode of every prefix `A[0..=i]` using S-Profile: n dynamic
/// ±1 updates at O(1) each, versus n independent O(√n) static queries.
/// Used by the benches to make the static/dynamic contrast concrete.
pub fn prefix_modes(array: &[u32], m: u32) -> Vec<RangeMode> {
    let mut profile = sprofile::SProfile::new(m);
    let mut out = Vec::with_capacity(array.len());
    for &x in array {
        profile.add(x);
        let e = profile.mode().expect("non-empty universe");
        // SProfile::mode ties are arbitrary; canonicalise to the smallest
        // object among those sharing the top frequency.
        let value = profile
            .mode_objects()
            .iter()
            .copied()
            .min()
            .expect("non-empty universe");
        debug_assert_eq!(profile.frequency(value), e.frequency);
        out.push(RangeMode {
            value,
            count: e.frequency as u32,
        });
    }
    out
}

/// Validate constructor input: every value must lie in `[0, m)`.
pub(crate) fn check_universe(array: &[u32], m: u32) {
    if let Some(&bad) = array.iter().find(|&&x| x >= m) {
        panic!("array value {bad} outside universe [0, {m})");
    }
}

#[cfg(test)]
mod crate_tests {
    use super::*;

    #[test]
    fn all_three_structures_agree_on_a_fixed_array() {
        let a = [3u32, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5];
        let m = 10;
        let naive = NaiveScan::new(&a, m);
        let table = PrecomputedTable::new(&a, m);
        let sqrt = SqrtDecomposition::new(&a, m);
        for l in 0..=a.len() {
            for r in 0..=a.len() {
                let (x, y, z) = (
                    naive.range_mode(l, r),
                    table.range_mode(l, r),
                    sqrt.range_mode(l, r),
                );
                assert_eq!(x, y, "naive vs table at [{l}, {r})");
                assert_eq!(x, z, "naive vs sqrt at [{l}, {r})");
            }
        }
    }

    #[test]
    fn prefix_modes_matches_naive_full_prefix_queries() {
        let a = [0u32, 2, 2, 1, 1, 1, 0, 0, 0, 2];
        let naive = NaiveScan::new(&a, 3);
        let prefixes = prefix_modes(&a, 3);
        for (i, pm) in prefixes.iter().enumerate() {
            assert_eq!(Some(*pm), naive.range_mode(0, i + 1), "prefix {i}");
        }
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn out_of_universe_values_are_rejected() {
        let _ = NaiveScan::new(&[5], 5);
    }
}
