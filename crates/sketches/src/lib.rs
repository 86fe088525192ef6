//! # sprofile-sketches — the approximate-counting line of related work
//!
//! The S-Profile paper (§1) positions itself against two families of prior
//! art: *exact* sorted-order maintenance (heap, balanced tree — implemented
//! in `sprofile-baselines`) and *approximate* frequency summaries that
//! trade exactness for sublinear space (majority \[3\], frequency counts and
//! quantiles over sliding windows [1, 2, 5, 8, 11]). This crate implements
//! the canonical members of the approximate family so that the trade-off
//! the paper exploits — exact answers in O(m) space versus ε-approximate
//! answers in o(m) space — can be measured instead of merely cited:
//!
//! | structure | space | guarantee | deletions? |
//! |-----------|-------|-----------|------------|
//! | [`Mjrty`] (Boyer–Moore, ref \[3\]) | O(1) | majority candidate | no |
//! | [`MisraGries`] | O(k) | underestimate, error ≤ n/(k+1) | no |
//! | [`SpaceSaving`] | O(k) | overestimate, error ≤ n/k | no |
//! | [`LossyCounting`] | O((1/ε)·log εn) | underestimate, error ≤ εn | no |
//! | [`CountMinSketch`] | O((1/ε)·log 1/δ) | overestimate, error ≤ εn w.p. 1−δ | ±1 (non-conservative) |
//!
//! A detail worth noting: Space-Saving's *stream-summary* layout — counters
//! grouped into buckets of equal count, with ±1 moves crossing at most one
//! bucket boundary — is structurally the same trick as S-Profile's block
//! set. S-Profile applies it to **all m** objects (exact, O(m) space);
//! Space-Saving applies it to a **capped k** monitored objects
//! (approximate, O(k) space). The benches make that lineage measurable.
//!
//! None of the insert-only sketches can serve the paper's Problem 1, which
//! requires *removals* (unfollow / dislike / exit events): that is exactly
//! the gap S-Profile fills. The tests in this crate verify each sketch's
//! error bound against the exact [`sprofile::SProfile`] profile.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

mod countmin;
mod hashing;
mod lossy;
mod majority;
mod misra_gries;
mod spacesaving;

pub use countmin::CountMinSketch;
pub use lossy::LossyCounting;
pub use majority::Mjrty;
pub use misra_gries::MisraGries;
pub use spacesaving::SpaceSaving;

#[cfg(test)]
mod crate_tests {
    use super::*;

    /// All sketches observe the same short stream; their answers must be
    /// mutually consistent with the documented over/under-estimate sides.
    #[test]
    fn estimate_sides_are_consistent() {
        let stream: Vec<u32> = (0..1000)
            .map(|i| if i % 3 == 0 { 7 } else { i % 50 })
            .collect();
        let truth = |x: u32| stream.iter().filter(|&&y| y == x).count() as u64;

        let mut mg = MisraGries::new(20);
        let mut ss = SpaceSaving::new(20);
        let mut lc = LossyCounting::new(0.05);
        let mut cm = CountMinSketch::new(0.01, 0.01, 42);
        for &x in &stream {
            mg.observe(x);
            ss.observe(x);
            lc.observe(x);
            cm.observe(x);
        }
        for x in [7u32, 1, 2, 49] {
            let t = truth(x);
            assert!(mg.estimate(x) <= t, "MG overestimated {x}");
            assert!(ss.estimate(x) >= t, "SS underestimated {x}");
            assert!(lc.estimate(x) <= t, "LC overestimated {x}");
            assert!(cm.estimate(x) >= t as i64, "CM underestimated {x}");
        }
    }
}
