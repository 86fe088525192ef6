//! Rank and distribution queries on top of the maintained sorted order.
//!
//! Because [`SProfile`] keeps the conceptual sorted frequency array `T`
//! materialised (via `to_obj` + blocks), every order statistic is a direct
//! array lookup (paper §2.2, "Other queries on statistics"):
//!
//! * k-th largest / smallest frequency — O(1),
//! * median and arbitrary quantiles — O(1),
//! * top-K listing — O(K),
//! * frequency histogram — O(#blocks),
//! * counts by frequency threshold — O(log m), a binary search over the
//!   positions of `T`.
//!
//! [`lower_median_of_parts`] lifts the median to a profile split into
//! disjoint parts (shards, cluster nodes) without materialising it.

use crate::error::{Error, Result};
use crate::profile::SProfile;

/// One bucket of the frequency histogram: `count` objects share `frequency`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrequencyBucket {
    /// The common frequency of every object in this bucket.
    pub frequency: i64,
    /// Number of objects with that frequency.
    pub count: u32,
}

impl SProfile {
    /// Frequency and a witness object of the k-th **largest** frequency
    /// (1-based; duplicates counted). `kth_largest(1)` is a mode. O(1).
    pub fn kth_largest(&self, k: u32) -> Result<(u32, i64)> {
        let m = self.num_objects();
        if k == 0 || k > m {
            return Err(Error::RankOutOfRange { rank: k, m });
        }
        let pos = m - k;
        Ok((self.raw_to_obj()[pos as usize], self.block_at(pos).f))
    }

    /// Frequency and a witness object of the k-th **smallest** frequency
    /// (1-based). `kth_smallest(1)` is a least-frequent object. O(1).
    pub fn kth_smallest(&self, k: u32) -> Result<(u32, i64)> {
        let m = self.num_objects();
        if k == 0 || k > m {
            return Err(Error::RankOutOfRange { rank: k, m });
        }
        let pos = k - 1;
        Ok((self.raw_to_obj()[pos as usize], self.block_at(pos).f))
    }

    /// The lower median frequency over all `m` objects (position
    /// `⌊(m−1)/2⌋` of the sorted array, so for even `m` the smaller of the
    /// two central values). O(1). `None` iff `m == 0`.
    pub fn median(&self) -> Option<i64> {
        let m = self.num_objects();
        if m == 0 {
            return None;
        }
        Some(self.block_at((m - 1) / 2).f)
    }

    /// Both central frequencies: for odd `m` the two components are equal.
    /// O(1). `None` iff `m == 0`.
    pub fn median_pair(&self) -> Option<(i64, i64)> {
        let m = self.num_objects();
        if m == 0 {
            return None;
        }
        Some((self.block_at((m - 1) / 2).f, self.block_at(m / 2).f))
    }

    /// A witness object holding the lower median frequency. O(1).
    pub fn median_object(&self) -> Option<u32> {
        let m = self.num_objects();
        if m == 0 {
            return None;
        }
        Some(self.raw_to_obj()[((m - 1) / 2) as usize])
    }

    /// The frequency at quantile `q ∈ [0, 1]` (nearest-rank on the sorted
    /// array: position `round(q · (m−1))`). `quantile(0.0)` is the minimum,
    /// `quantile(1.0)` the maximum, `quantile(0.5)` a median. O(1).
    ///
    /// # Panics
    /// If `q` is NaN or outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<i64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        let m = self.num_objects();
        if m == 0 {
            return None;
        }
        let pos = (q * (m - 1) as f64).round() as u32;
        Some(self.block_at(pos.min(m - 1)).f)
    }

    /// The `k` most frequent `(object, frequency)` pairs, most frequent
    /// first; equal frequencies are ordered ascending by object id, so the
    /// answer is fully deterministic and independent of update history
    /// (two profiles holding the same frequencies always return the same
    /// list — the property the sharded merge in `sprofile-concurrent`
    /// relies on). O(k log k + t) where t is the size of the frequency
    /// class straddling the cut. If `k > m` the result is truncated to
    /// `m` entries.
    pub fn top_k(&self, k: u32) -> Vec<(u32, i64)> {
        let m = self.num_objects();
        let k = k.min(m) as usize;
        let mut out = Vec::with_capacity(k);
        if k == 0 {
            return out;
        }
        let to_obj = self.raw_to_obj();
        let mut pos = m; // exclusive upper bound of the next block
        while out.len() < k {
            let b = self.block_at(pos - 1);
            let mut members = to_obj[b.l as usize..=b.r as usize].to_vec();
            let need = k - out.len();
            if members.len() > need {
                // Only the `need` smallest ids of the straddling class
                // make the cut.
                members.select_nth_unstable(need - 1);
                members.truncate(need);
            }
            members.sort_unstable();
            out.extend(members.into_iter().map(|x| (x, b.f)));
            if b.l == 0 {
                break;
            }
            pos = b.l;
        }
        out
    }

    /// Like [`SProfile::top_k`] but *over-fetches ties at the cut*: whole
    /// frequency classes are returned until at least `k` entries are
    /// collected, with the class straddling the cut truncated to its `k`
    /// smallest ids — so the result holds between `k` and `2k − 1`
    /// entries, most frequent first, ties ascending by id.
    /// O(k log k + t) where `t` is the straddling class size.
    ///
    /// This is the building block for distributed top-K: fetching
    /// `top_k_with_ties(k)` from each partition and merging by
    /// `(frequency desc, id asc)` guarantees the merged top-K matches
    /// the single-profile answer even when a tie straddles a partition's
    /// cut. Truncating the tie class at `k` is lossless for that merge:
    /// ties break ascending by id, so an excluded member has `k`
    /// same-frequency, smaller-id objects in its own partition that every
    /// merge would admit first.
    ///
    /// # Example
    /// ```
    /// use sprofile::SProfile;
    ///
    /// let p = SProfile::from_frequencies(&[5, 3, 3, 3, 0]);
    /// assert_eq!(p.top_k(2), vec![(0, 5), (1, 3)]);
    /// // The k smallest ids of the tied 3-class ride along with the cut.
    /// assert_eq!(p.top_k_with_ties(2), vec![(0, 5), (1, 3), (2, 3)]);
    /// ```
    pub fn top_k_with_ties(&self, k: u32) -> Vec<(u32, i64)> {
        let m = self.num_objects();
        let k = k.min(m) as usize;
        let mut out = Vec::with_capacity(k);
        if k == 0 {
            return out;
        }
        let to_obj = self.raw_to_obj();
        let mut pos = m;
        while out.len() < k {
            let b = self.block_at(pos - 1);
            let mut members = to_obj[b.l as usize..=b.r as usize].to_vec();
            if members.len() > k {
                members.select_nth_unstable(k - 1);
                members.truncate(k);
            }
            members.sort_unstable();
            out.extend(members.into_iter().map(|x| (x, b.f)));
            if b.l == 0 {
                break;
            }
            pos = b.l;
        }
        out
    }

    /// The `k` least frequent `(object, frequency)` pairs, least frequent
    /// first. O(k).
    pub fn bottom_k(&self, k: u32) -> Vec<(u32, i64)> {
        let m = self.num_objects();
        let k = k.min(m);
        let to_obj = self.raw_to_obj();
        let mut out = Vec::with_capacity(k as usize);
        for pos in 0..k {
            out.push((to_obj[pos as usize], self.block_at(pos).f));
        }
        out
    }

    /// The full frequency histogram, ascending by frequency. One entry per
    /// block, so O(#blocks) — at most `m`, typically far smaller.
    pub fn histogram(&self) -> Vec<FrequencyBucket> {
        let m = self.num_objects();
        let mut out = Vec::new();
        let mut pos = 0u32;
        while pos < m {
            let b = self.block_at(pos);
            out.push(FrequencyBucket {
                frequency: b.f,
                count: b.len(),
            });
            pos = b.r + 1;
        }
        out
    }

    /// Number of objects with frequency `>= threshold`. O(log m).
    pub fn count_at_least(&self, threshold: i64) -> u32 {
        self.num_objects() - self.partition_point(|f| f < threshold)
    }

    /// Number of objects with frequency `<= threshold`. O(log m).
    pub fn count_at_most(&self, threshold: i64) -> u32 {
        self.partition_point(|f| f <= threshold)
    }

    /// The first position of `T` whose frequency fails `below`, for a
    /// `below` that holds on a prefix of the ascending order (`m` if it
    /// holds everywhere). A binary search over positions: each probe is
    /// one O(1) `block_at` lookup and moves a bound past the whole block
    /// it lands in, so O(log m) probes.
    fn partition_point(&self, below: impl Fn(i64) -> bool) -> u32 {
        let (mut lo, mut hi) = (0u32, self.num_objects());
        while lo < hi {
            let b = self.block_at(lo + (hi - lo) / 2);
            if below(b.f) {
                lo = b.r + 1;
            } else {
                hi = b.l;
            }
        }
        lo
    }

    /// Number of objects with frequency in `lo..=hi`.
    pub fn count_in_range(&self, lo: i64, hi: i64) -> u32 {
        if lo > hi {
            return 0;
        }
        // count_at_most(hi) − count_at_most(lo − 1), avoiding overflow at i64::MIN.
        let up = self.count_at_most(hi);
        if lo == i64::MIN {
            up
        } else {
            up - self.count_at_most(lo - 1)
        }
    }

    /// The range of 1-based ranks-from-the-top that object `x` may be
    /// reported at: `(best, worst)`. All objects in the same block tie, so
    /// a single "rank" is ill-defined; this returns the tight interval.
    /// O(1).
    pub fn rank_range(&self, x: u32) -> Result<(u32, u32)> {
        let m = self.num_objects();
        if x >= m {
            return Err(Error::ObjectOutOfRange { object: x, m });
        }
        let pos = self.raw_to_pos()[x as usize];
        let b = self.block_at(pos);
        Ok((m - b.r, m - b.l))
    }

    /// Whether `x` currently attains the maximum frequency. O(1).
    pub fn is_mode(&self, x: u32) -> Result<bool> {
        let m = self.num_objects();
        if x >= m {
            return Err(Error::ObjectOutOfRange { object: x, m });
        }
        let pos = self.raw_to_pos()[x as usize];
        Ok(self.block_at(pos).r == m - 1)
    }

    /// The majority element, if any: an object whose frequency exceeds half
    /// of [`SProfile::len`] (Boyer–Moore's query, §1 of the paper). O(1).
    /// Meaningful only when all frequencies are non-negative.
    pub fn majority(&self) -> Option<(u32, i64)> {
        let mode = self.mode()?;
        if !self.is_empty() && mode.frequency * 2 > self.len() {
            Some((mode.object, mode.frequency))
        } else {
            None
        }
    }
}

/// The lower median of a multiset split into disjoint non-empty parts,
/// computed from each part's own lower median (the [`SProfile::median`]
/// convention) and a threshold count over the whole — the merge behind
/// a sharded profile's or a cluster's `MEDIAN`.
///
/// `total` is the number of values across all parts, `medians` yields
/// one lower median per part, and `count_at_least(v)` returns how many
/// values of the whole are `>= v`. The whole's lower median lies between
/// the smallest and the largest part median: every part has fewer than
/// half of its values below its own median, and at least half at or
/// below it. So the answer is bisected on `count_at_least` inside that
/// bracket only: ⌈log₂(hi − lo + 1)⌉ calls, and none when the part
/// medians agree. The first error `count_at_least` returns ends the
/// search and is passed through. `Ok(None)` iff there are no parts.
///
/// # Example
/// ```
/// use std::convert::Infallible;
/// use sprofile::{lower_median_of_parts, SProfile};
///
/// let parts = [
///     SProfile::from_frequencies(&[1, 9, 4]),
///     SProfile::from_frequencies(&[2, 2, 7, 8]),
/// ];
/// let median = lower_median_of_parts(7, parts.iter().filter_map(SProfile::median), |v| {
///     Ok::<u64, Infallible>(parts.iter().map(|p| u64::from(p.count_at_least(v))).sum())
/// });
/// let whole = SProfile::from_frequencies(&[1, 9, 4, 2, 2, 7, 8]);
/// assert_eq!(median, Ok(whole.median()));
/// ```
pub fn lower_median_of_parts<E>(
    total: u64,
    medians: impl IntoIterator<Item = i64>,
    mut count_at_least: impl FnMut(i64) -> std::result::Result<u64, E>,
) -> std::result::Result<Option<i64>, E> {
    let Some((mut lo, mut hi)) = medians
        .into_iter()
        .fold(None, |acc: Option<(i64, i64)>, v| {
            Some(acc.map_or((v, v), |(lo, hi)| (lo.min(v), hi.max(v))))
        })
    else {
        return Ok(None);
    };
    // The lower median sits at position ⌊(total−1)/2⌋ of the ascending
    // order, so it is the largest `v` with this many values `>= v`.
    let rank = total - total.saturating_sub(1) / 2;
    while lo < hi {
        let mid = ((i128::from(lo) + i128::from(hi) + 1) >> 1) as i64;
        if count_at_least(mid)? >= rank {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    Ok(Some(lo))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn staircase(m: u32) -> SProfile {
        // frequency(i) = i
        let freqs: Vec<i64> = (0..m as i64).collect();
        SProfile::from_frequencies(&freqs)
    }

    #[test]
    fn kth_largest_on_staircase() {
        let p = staircase(10);
        for k in 1..=10u32 {
            let (obj, f) = p.kth_largest(k).unwrap();
            assert_eq!(f, (10 - k) as i64);
            assert_eq!(obj, 10 - k, "staircase object id equals its frequency");
        }
        assert!(p.kth_largest(0).is_err());
        assert!(p.kth_largest(11).is_err());
    }

    #[test]
    fn kth_smallest_on_staircase() {
        let p = staircase(10);
        for k in 1..=10u32 {
            let (_, f) = p.kth_smallest(k).unwrap();
            assert_eq!(f, (k - 1) as i64);
        }
        assert!(p.kth_smallest(0).is_err());
        assert!(p.kth_smallest(11).is_err());
    }

    #[test]
    fn median_definitions() {
        // Odd m: unique middle.
        let p = SProfile::from_frequencies(&[1, 5, 3]);
        assert_eq!(p.median(), Some(3));
        assert_eq!(p.median_pair(), Some((3, 3)));
        // Even m: lower median and pair.
        let p = SProfile::from_frequencies(&[1, 5, 3, 7]);
        assert_eq!(p.median(), Some(3));
        assert_eq!(p.median_pair(), Some((3, 5)));
        // Empty.
        let p = SProfile::new(0);
        assert_eq!(p.median(), None);
        assert_eq!(p.median_pair(), None);
        assert_eq!(p.median_object(), None);
    }

    #[test]
    fn median_object_holds_median_frequency() {
        let p = SProfile::from_frequencies(&[9, 2, 4, 4, 0]);
        let obj = p.median_object().unwrap();
        assert_eq!(p.frequency(obj), p.median().unwrap());
    }

    #[test]
    fn quantiles() {
        let p = staircase(11); // freqs 0..=10
        assert_eq!(p.quantile(0.0), Some(0));
        assert_eq!(p.quantile(1.0), Some(10));
        assert_eq!(p.quantile(0.5), Some(5));
        assert_eq!(p.quantile(0.25), Some(3)); // round(0.25*10) = 3 (2.5 rounds up)
        assert_eq!(SProfile::new(0).quantile(0.5), None);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn quantile_rejects_out_of_range() {
        let _ = staircase(3).quantile(1.5);
    }

    #[test]
    fn top_k_and_bottom_k() {
        let p = SProfile::from_frequencies(&[4, 1, 3, 1, 0]);
        let top = p.top_k(3);
        assert_eq!(top[0], (0, 4));
        assert_eq!(top[1], (2, 3));
        assert_eq!(top[2].1, 1); // object 1 or 3
        let bottom = p.bottom_k(2);
        assert_eq!(bottom[0], (4, 0));
        assert_eq!(bottom[1].1, 1);
        // k > m truncates.
        assert_eq!(p.top_k(99).len(), 5);
        assert_eq!(p.bottom_k(99).len(), 5);
        assert!(SProfile::new(0).top_k(3).is_empty());
    }

    #[test]
    fn top_k_is_sorted_descending_and_consistent() {
        let p = SProfile::from_frequencies(&[7, 7, 2, 9, 2, 2, 0, -4]);
        let top = p.top_k(8);
        for w in top.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        for &(obj, f) in &top {
            assert_eq!(p.frequency(obj), f);
        }
    }

    #[test]
    fn histogram_groups_by_frequency() {
        let p = SProfile::from_frequencies(&[2, 0, 2, -1, 0, 0]);
        let h = p.histogram();
        assert_eq!(
            h,
            vec![
                FrequencyBucket {
                    frequency: -1,
                    count: 1
                },
                FrequencyBucket {
                    frequency: 0,
                    count: 3
                },
                FrequencyBucket {
                    frequency: 2,
                    count: 2
                },
            ]
        );
        let total: u32 = h.iter().map(|b| b.count).sum();
        assert_eq!(total, 6);
        assert!(SProfile::new(0).histogram().is_empty());
    }

    #[test]
    fn count_thresholds() {
        let p = SProfile::from_frequencies(&[2, 0, 2, -1, 0, 0]);
        assert_eq!(p.count_at_least(3), 0);
        assert_eq!(p.count_at_least(2), 2);
        assert_eq!(p.count_at_least(1), 2);
        assert_eq!(p.count_at_least(0), 5);
        assert_eq!(p.count_at_least(-1), 6);
        assert_eq!(p.count_at_least(i64::MIN), 6);
        assert_eq!(p.count_at_most(-2), 0);
        assert_eq!(p.count_at_most(-1), 1);
        assert_eq!(p.count_at_most(0), 4);
        assert_eq!(p.count_at_most(2), 6);
        assert_eq!(p.count_in_range(0, 2), 5);
        assert_eq!(p.count_in_range(1, 1), 0);
        assert_eq!(p.count_in_range(5, 1), 0);
        assert_eq!(p.count_in_range(i64::MIN, i64::MAX), 6);
    }

    #[test]
    fn lower_median_of_parts_edges() {
        assert_eq!(lower_median_of_parts(0, [], |_| Ok::<u64, ()>(0)), Ok(None));
        // Agreeing parts need no count at all.
        let no_count = |_| Err::<u64, &str>("no count expected");
        assert_eq!(lower_median_of_parts(6, [4, 4], no_count), Ok(Some(4)));
        // The first failing count ends the search.
        let down = |_| Err::<u64, &str>("down");
        assert_eq!(lower_median_of_parts(6, [0, 9], down), Err("down"));
        // A bracket spanning all of i64 bisects without overflow.
        let values = [i64::MIN, i64::MAX];
        let extremes = |v| Ok::<u64, ()>(values.iter().filter(|&&f| f >= v).count() as u64);
        let median = lower_median_of_parts(2, [i64::MIN, i64::MAX], extremes);
        assert_eq!(median, Ok(Some(i64::MIN)));
    }

    #[test]
    fn rank_range_ties() {
        let p = SProfile::from_frequencies(&[5, 1, 5, 5, 0]);
        // Three objects with f=5 occupy top ranks 1..=3.
        for x in [0u32, 2, 3] {
            assert_eq!(p.rank_range(x).unwrap(), (1, 3));
        }
        assert_eq!(p.rank_range(1).unwrap(), (4, 4));
        assert_eq!(p.rank_range(4).unwrap(), (5, 5));
        assert!(p.rank_range(5).is_err());
    }

    #[test]
    fn is_mode_detects_argmax_membership() {
        let p = SProfile::from_frequencies(&[5, 1, 5]);
        assert!(p.is_mode(0).unwrap());
        assert!(!p.is_mode(1).unwrap());
        assert!(p.is_mode(2).unwrap());
        assert!(p.is_mode(9).is_err());
    }

    #[test]
    fn majority_query() {
        let mut p = SProfile::new(3);
        assert_eq!(p.majority(), None, "empty array has no majority");
        p.add(1);
        p.add(1);
        p.add(2);
        // len = 3, mode freq 2 > 1.5 → majority.
        assert_eq!(p.majority(), Some((1, 2)));
        p.add(2);
        // len 4, mode 2, 2*2 = 4 not > 4 → none.
        assert_eq!(p.majority(), None);
    }

    #[test]
    fn queries_consistent_after_updates() {
        let mut p = SProfile::new(6);
        for _ in 0..4 {
            p.add(0);
        }
        for _ in 0..2 {
            p.add(1);
        }
        p.add(2);
        // freqs: [4, 2, 1, 0, 0, 0]
        assert_eq!(p.kth_largest(1).unwrap().1, 4);
        assert_eq!(p.kth_largest(2).unwrap().1, 2);
        assert_eq!(p.kth_largest(3).unwrap().1, 1);
        assert_eq!(p.kth_largest(4).unwrap().1, 0);
        assert_eq!(p.median(), Some(0));
        assert_eq!(p.count_at_least(1), 3);
        p.remove(0);
        p.remove(0);
        p.remove(0);
        // freqs: [1, 2, 1, 0, 0, 0]
        assert_eq!(p.kth_largest(1).unwrap().1, 2);
        assert_eq!(p.count_at_least(1), 3);
        assert_eq!(p.count_in_range(1, 1), 2);
    }
}
