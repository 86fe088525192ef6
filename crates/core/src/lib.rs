//! # sprofile — O(1) profiling of dynamic arrays with finite values
//!
//! A faithful, production-oriented Rust implementation of **S-Profile**
//! from *"Optimal Algorithm for Profiling Dynamic Arrays with Finite
//! Values"* (Yang, Yu, Deng, Liu — EDBT 2019, arXiv:1812.05306).
//!
//! Given a log stream of `(object, add/remove)` tuples over a universe of
//! `m` objects, [`SProfile`] maintains the *sorted* array of all `m`
//! frequencies in **worst-case O(1) time per update** and O(m) space,
//! using the paper's *block set* representation. With the sorted order
//! always materialised, the statistics that normally require a heap or a
//! balanced tree become constant-time lookups:
//!
//! | query | cost |
//! |-------|------|
//! | mode (most frequent object) | O(1) |
//! | least-frequent object | O(1) |
//! | k-th largest / smallest frequency | O(1) |
//! | median / arbitrary quantile | O(1) |
//! | objects at or above / below a frequency | O(log m) |
//! | top-K listing (deterministic tie order) | O(K log K + tie class at the cut) |
//! | frequency histogram | O(#distinct frequencies) |
//! | per-object frequency | O(1) |
//!
//! # Quickstart
//!
//! ```
//! use sprofile::SProfile;
//!
//! // A universe of 1000 objects (use `Interner`/`GrowableProfile` for
//! // arbitrary keys).
//! let mut profile = SProfile::new(1000);
//!
//! // Feed the log stream.
//! profile.add(42);
//! profile.add(42);
//! profile.add(7);
//! profile.remove(7);
//!
//! // Constant-time statistics at any point.
//! let mode = profile.mode().unwrap();
//! assert_eq!((mode.object, mode.frequency), (42, 2));
//! assert_eq!(profile.median(), Some(0));
//! assert_eq!(profile.top_k(1), vec![(42, 2)]);
//! ```
//!
//! # Module map
//!
//! * [`SProfile`] — the core structure (paper Algorithm 1), plus the
//!   batched ingestion fast path ([`SProfile::apply_batch`] /
//!   [`BatchStrategy`]).
//! * [`Multiset`] — strict façade: counts never go below zero.
//! * [`GrowableProfile`] + [`Interner`] — arbitrary keys, open universe.
//! * [`SlidingWindowProfile`] / [`TimedWindowProfile`] — §2.3 windows.
//! * [`FrequencyProfiler`] / [`RankQueries`] — traits shared with the
//!   baseline structures in the `sprofile-baselines` crate.
//! * [`verify`] — O(m) structural invariant checking for tests.
//!
//! # Semantics notes
//!
//! The raw [`SProfile`] follows the paper exactly: a "remove" of an object
//! with frequency 0 drives the frequency negative (the paper's minimum
//! query "maybe a negative number"). Wrap it in [`Multiset`] if you want
//! underflow to be an error instead.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

mod batch;
mod block;
pub mod crc32;
mod error;
mod growable;
mod interner;
mod iter;
mod multiset;
mod ops;
mod profile;
mod query;
mod snapshot;
mod stats;
mod traits;
pub mod verify;
mod weighted;
mod window;

pub use batch::BatchStrategy;
pub use block::{Block, BlockArena};
pub use error::{Error, Result};
pub use growable::GrowableProfile;
pub use interner::Interner;
pub use iter::{AscendingIter, ClassIter, DescendingIter, FrequencyClass};
pub use multiset::Multiset;
pub use profile::{Extreme, SProfile};
pub use query::{lower_median_of_parts, FrequencyBucket};
pub use snapshot::SnapshotError;
pub use stats::FrequencySummary;
pub use traits::{FrequencyProfiler, RankQueries};
pub use window::{SlidingWindowProfile, TimedWindowProfile, Tuple};

#[cfg(test)]
mod crate_tests {
    use super::*;

    #[test]
    fn public_api_surface_compiles_together() {
        let mut p = SProfile::new(10);
        p.add(1);
        let _: Option<Extreme> = p.mode();
        let _: Vec<FrequencyBucket> = p.histogram();
        let _: Option<FrequencySummary> = p.summary();
        let mut ms = Multiset::new(10);
        ms.insert(3);
        let mut g: GrowableProfile<&str> = GrowableProfile::new();
        g.add("k");
        let mut w = SlidingWindowProfile::new(10, 5);
        w.push(Tuple::add(1));
        let mut tw = TimedWindowProfile::new(10, 100);
        tw.push(1, Tuple::add(2));
        verify::check_invariants(&p).unwrap();
    }

    #[test]
    fn readme_style_example() {
        let mut profile = SProfile::new(100);
        for _ in 0..5 {
            profile.add(10);
        }
        for _ in 0..3 {
            profile.add(20);
        }
        profile.remove(10);
        assert_eq!(profile.mode().unwrap().object, 10);
        assert_eq!(profile.mode().unwrap().frequency, 4);
        assert_eq!(profile.kth_largest(2).unwrap().1, 3);
        assert_eq!(profile.count_at_least(1), 2);
    }
}
