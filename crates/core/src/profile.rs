//! [`SProfile`]: the paper's O(1)-per-update profile of a dynamic array.
//!
//! The structure maintains, for a universe of `m` object ids `0..m`, the
//! multiset of frequencies induced by a log stream of `add(x)` / `remove(x)`
//! events — conceptually the sorted frequency array `T` of the paper —
//! using the *block set* representation of §2.1 and the update rules of
//! Algorithm 1 (§2.2).
//!
//! Every update is **worst-case O(1)**: it performs one position swap,
//! shrinks one block at a boundary, and either extends the neighbouring
//! block or allocates a singleton block. No loops, no rebalancing.
//!
//! # Index conventions
//!
//! The paper uses 1-based ids and positions; this implementation is 0-based
//! throughout. Object ids are dense `u32` in `0..m` (use
//! [`crate::Interner`] / [`crate::GrowableProfile`] to map arbitrary keys
//! onto dense ids). Positions `0..m` index the conceptual sorted array `T`
//! in **ascending** frequency order, so position `m-1` holds a mode and
//! position `0` holds a least-frequent object.

use crate::block::{Block, BlockArena, NIL};
use crate::error::{Error, Result};

/// O(1)-per-update profile of a dynamic array with object ids in `0..m`.
///
/// See the [crate docs](crate) for the cost of each query and a
/// quickstart.
///
/// # Example
/// ```
/// use sprofile::SProfile;
///
/// let mut p = SProfile::new(5);
/// p.add(2);
/// p.add(2);
/// p.add(4);
/// let mode = p.mode().unwrap();
/// assert_eq!((mode.object, mode.frequency), (2, 2));
/// p.remove(2);
/// p.remove(2);
/// assert_eq!(p.mode().unwrap().frequency, 1); // object 4
/// ```
#[derive(Clone, Debug)]
pub struct SProfile {
    /// `TtoF` of the paper: position in `T` → object id.
    to_obj: Vec<u32>,
    /// `FtoT` of the paper: object id → position in `T`.
    to_pos: Vec<u32>,
    /// `PtrB` of the paper: position in `T` → block id in `blocks`.
    ptr: Vec<u32>,
    /// The block set `B`.
    blocks: BlockArena,
    /// Sum of all frequencies = (#adds − #removes) so far.
    total: i64,
    /// Number of objects whose frequency is currently non-zero.
    nonzero: u32,
    /// Monotone count of applied updates (adds + removes).
    updates: u64,
}

/// A mode / least-frequent query answer: one witness object, its frequency,
/// and how many objects share that extreme frequency.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Extreme {
    /// One object attaining the extreme frequency.
    pub object: u32,
    /// The extreme frequency itself.
    pub frequency: i64,
    /// How many objects attain it (the size of the extreme block).
    pub count: u32,
}

impl SProfile {
    /// Creates a profile over the object universe `0..m`, all frequencies 0.
    ///
    /// Allocates the three O(m) index arrays up front (`3 × 4` bytes per
    /// object) plus one block.
    pub fn new(m: u32) -> Self {
        let mut blocks = BlockArena::with_capacity(16);
        let mut ptr = Vec::new();
        if m > 0 {
            let b = blocks.alloc(Block {
                l: 0,
                r: m - 1,
                f: 0,
            });
            ptr = vec![b; m as usize];
        }
        SProfile {
            to_obj: (0..m).collect(),
            to_pos: (0..m).collect(),
            ptr,
            blocks,
            total: 0,
            nonzero: 0,
            updates: 0,
        }
    }

    /// Builds a profile whose object `i` starts with frequency `freqs[i]`.
    ///
    /// Runs in O(m log m) (one sort); useful for snapshots, for seeding a
    /// profile from existing counts, and for [`crate::GrowableProfile`]
    /// rebuilds.
    pub fn from_frequencies(freqs: &[i64]) -> Self {
        let m = u32::try_from(freqs.len()).expect("universe larger than u32");
        let mut order: Vec<u32> = (0..m).collect();
        order.sort_by_key(|&x| freqs[x as usize]);
        Self::from_sorted_assignment(order, freqs)
    }

    /// Builds a profile from `to_obj` already sorted ascending by
    /// `freqs[to_obj[i]]`. O(m). Internal fast path shared with
    /// [`SProfile::from_frequencies`] and the growable rebuild.
    pub(crate) fn from_sorted_assignment(to_obj: Vec<u32>, freqs: &[i64]) -> Self {
        let m = to_obj.len() as u32;
        let mut to_pos = vec![0u32; m as usize];
        for (pos, &obj) in to_obj.iter().enumerate() {
            to_pos[obj as usize] = pos as u32;
        }
        let mut blocks = BlockArena::with_capacity(16);
        let mut ptr = vec![NIL; m as usize];
        let mut total = 0i64;
        let mut nonzero = 0u32;
        let mut start = 0u32;
        while start < m {
            let f = freqs[to_obj[start as usize] as usize];
            let mut end = start;
            while end + 1 < m && freqs[to_obj[(end + 1) as usize] as usize] == f {
                end += 1;
            }
            debug_assert!(
                start == 0 || freqs[to_obj[(start - 1) as usize] as usize] < f,
                "assignment not sorted ascending"
            );
            let b = blocks.alloc(Block {
                l: start,
                r: end,
                f,
            });
            for p in start..=end {
                ptr[p as usize] = b;
            }
            let run = (end - start + 1) as i64;
            total += f * run;
            if f != 0 {
                nonzero += run as u32;
            }
            start = end + 1;
        }
        SProfile {
            to_obj,
            to_pos,
            ptr,
            blocks,
            total,
            nonzero,
            updates: 0,
        }
    }

    /// The size `m` of the object-id universe.
    #[inline]
    pub fn num_objects(&self) -> u32 {
        self.to_obj.len() as u32
    }

    /// Sum of all frequencies: the current length of the conceptual dynamic
    /// array `A` (negative only if removes have outnumbered adds).
    #[inline]
    pub fn len(&self) -> i64 {
        self.total
    }

    /// Whether every object currently sits at frequency zero.
    ///
    /// Note this is deliberately *not* `len() == 0`: with the paper's raw
    /// semantics a remove can drive one object negative while an add holds
    /// another positive, leaving the net length 0 with the profile clearly
    /// non-empty. Emptiness is therefore based on the non-zero-object
    /// count, so `is_empty()` implies `len() == 0` but not vice versa.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nonzero == 0
    }

    /// Number of objects with a non-zero frequency.
    #[inline]
    pub fn distinct_active(&self) -> u32 {
        self.nonzero
    }

    /// Number of blocks, i.e. distinct frequency values currently present.
    #[inline]
    pub fn num_blocks(&self) -> u32 {
        self.blocks.len()
    }

    /// Total updates (adds + removes) applied so far.
    #[inline]
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Current frequency of `x`. O(1).
    ///
    /// # Panics
    /// If `x >= m`. Use [`SProfile::try_frequency`] for a fallible variant.
    #[inline]
    pub fn frequency(&self, x: u32) -> i64 {
        self.blocks
            .get(self.ptr[self.to_pos[x as usize] as usize])
            .f
    }

    /// Fallible [`SProfile::frequency`].
    #[inline]
    pub fn try_frequency(&self, x: u32) -> Result<i64> {
        self.check_object(x)?;
        Ok(self.frequency(x))
    }

    /// Records one "add" event for `x` (frequency += 1) and returns the new
    /// frequency. Worst-case O(1).
    ///
    /// # Panics
    /// If `x >= m`. Use [`SProfile::try_add`] for a fallible variant.
    #[inline]
    pub fn add(&mut self, x: u32) -> i64 {
        let m = self.to_obj.len() as u32;
        assert!(
            x < m,
            "object id {x} out of range for universe of {m} objects"
        );
        let p = self.to_pos[x as usize];
        let bid = self.ptr[p as usize];
        let Block { l, r, f } = *self.blocks.get(bid);

        // Does the block to the right already hold f+1?
        let merge_right = if r + 1 < m {
            let right = self.ptr[(r + 1) as usize];
            if self.blocks.get(right).f == f + 1 {
                Some(right)
            } else {
                None
            }
        } else {
            None
        };

        if l == r {
            // x is alone in its block (p == r, no swap needed).
            match merge_right {
                Some(right) => {
                    self.blocks.free(bid);
                    self.ptr[r as usize] = right;
                    self.blocks.get_mut(right).l = r;
                }
                // Fast path: bump the singleton block in place — no
                // free/alloc churn. Maximality is preserved: the left
                // neighbour (if any) held some f' < f < f+1.
                None => self.blocks.get_mut(bid).f = f + 1,
            }
        } else {
            // Swapping x with the occupant of its block's right boundary
            // keeps T sorted once x's frequency becomes f+1 (Fig. 1(d)).
            self.swap_positions(p, r);
            self.blocks.get_mut(bid).r = r - 1;
            match merge_right {
                Some(right) => {
                    self.ptr[r as usize] = right;
                    self.blocks.get_mut(right).l = r;
                }
                None => {
                    let nb = self.blocks.alloc(Block { l: r, r, f: f + 1 });
                    self.ptr[r as usize] = nb;
                }
            }
        }

        self.total += 1;
        self.updates += 1;
        if f == 0 {
            self.nonzero += 1;
        } else if f == -1 {
            self.nonzero -= 1;
        }
        f + 1
    }

    /// Records one "remove" event for `x` (frequency −= 1) and returns the
    /// new frequency, which may be negative. Worst-case O(1).
    ///
    /// This is the paper's raw semantics. For checked multiset semantics
    /// (error on removing an absent object) see [`crate::Multiset`].
    ///
    /// # Panics
    /// If `x >= m`. Use [`SProfile::try_remove`] for a fallible variant.
    #[inline]
    pub fn remove(&mut self, x: u32) -> i64 {
        let m = self.to_obj.len() as u32;
        assert!(
            x < m,
            "object id {x} out of range for universe of {m} objects"
        );
        let p = self.to_pos[x as usize];
        let bid = self.ptr[p as usize];
        let Block { l, r, f } = *self.blocks.get(bid);

        // Does the block to the left already hold f−1?
        let merge_left = if l > 0 {
            let left = self.ptr[(l - 1) as usize];
            if self.blocks.get(left).f == f - 1 {
                Some(left)
            } else {
                None
            }
        } else {
            None
        };

        if l == r {
            // x is alone in its block (p == l, no swap needed).
            match merge_left {
                Some(left) => {
                    self.blocks.free(bid);
                    self.ptr[l as usize] = left;
                    self.blocks.get_mut(left).r = l;
                }
                // Fast path: decrement the singleton block in place.
                None => self.blocks.get_mut(bid).f = f - 1,
            }
        } else {
            // Mirror image of `add`: x moves to its block's left boundary.
            self.swap_positions(p, l);
            self.blocks.get_mut(bid).l = l + 1;
            match merge_left {
                Some(left) => {
                    self.ptr[l as usize] = left;
                    self.blocks.get_mut(left).r = l;
                }
                None => {
                    let nb = self.blocks.alloc(Block { l, r: l, f: f - 1 });
                    self.ptr[l as usize] = nb;
                }
            }
        }

        self.total -= 1;
        self.updates += 1;
        if f == 0 {
            self.nonzero += 1;
        } else if f == 1 {
            self.nonzero -= 1;
        }
        f - 1
    }

    /// Fallible [`SProfile::add`].
    #[inline]
    pub fn try_add(&mut self, x: u32) -> Result<i64> {
        self.check_object(x)?;
        Ok(self.add(x))
    }

    /// Fallible [`SProfile::remove`].
    #[inline]
    pub fn try_remove(&mut self, x: u32) -> Result<i64> {
        self.check_object(x)?;
        Ok(self.remove(x))
    }

    /// A mode of the array: one object with maximum frequency, that
    /// frequency, and how many objects share it. O(1).
    /// Returns `None` only for an empty universe (`m == 0`).
    #[inline]
    pub fn mode(&self) -> Option<Extreme> {
        let m = self.to_obj.len();
        if m == 0 {
            return None;
        }
        let b = self.blocks.get(self.ptr[m - 1]);
        Some(Extreme {
            object: self.to_obj[b.l as usize],
            frequency: b.f,
            count: b.len(),
        })
    }

    /// The least-frequent counterpart of [`SProfile::mode`] (paper steps
    /// 29a/30a). O(1).
    #[inline]
    pub fn least(&self) -> Option<Extreme> {
        if self.to_obj.is_empty() {
            return None;
        }
        let b = self.blocks.get(self.ptr[0]);
        Some(Extreme {
            object: self.to_obj[b.l as usize],
            frequency: b.f,
            count: b.len(),
        })
    }

    /// All objects attaining the maximum frequency, as a contiguous slice.
    /// O(1); the slice borrows the profile.
    pub fn mode_objects(&self) -> &[u32] {
        let m = self.to_obj.len();
        if m == 0 {
            return &[];
        }
        let b = self.blocks.get(self.ptr[m - 1]);
        &self.to_obj[b.l as usize..=b.r as usize]
    }

    /// All objects attaining the minimum frequency, as a contiguous slice.
    pub fn least_objects(&self) -> &[u32] {
        if self.to_obj.is_empty() {
            return &[];
        }
        let b = self.blocks.get(self.ptr[0]);
        &self.to_obj[b.l as usize..=b.r as usize]
    }

    // ------------------------------------------------------------------
    // internal helpers
    // ------------------------------------------------------------------

    #[inline]
    fn check_object(&self, x: u32) -> Result<()> {
        let m = self.to_obj.len() as u32;
        if x < m {
            Ok(())
        } else {
            Err(Error::ObjectOutOfRange { object: x, m })
        }
    }

    /// Swaps the objects at positions `p` and `q` and fixes `to_pos`.
    /// `ptr` needs no fixing: callers only swap within one block, where
    /// both positions map to the same block.
    #[inline]
    fn swap_positions(&mut self, p: u32, q: u32) {
        if p != q {
            debug_assert_eq!(self.ptr[p as usize], self.ptr[q as usize]);
            self.swap_positions_pub(p, q);
        }
    }

    /// Position swap without the same-block restriction; the weighted
    /// update path swaps across run boundaries and fixes `ptr` itself.
    #[inline]
    pub(crate) fn swap_positions_pub(&mut self, p: u32, q: u32) {
        if p == q {
            return;
        }
        let a = self.to_obj[p as usize];
        let b = self.to_obj[q as usize];
        self.to_obj[p as usize] = b;
        self.to_obj[q as usize] = a;
        self.to_pos[a as usize] = q;
        self.to_pos[b as usize] = p;
    }

    // Crate-visible mutators for the weighted-update module.

    #[inline]
    pub(crate) fn free_block(&mut self, id: u32) {
        self.blocks.free(id);
    }

    #[inline]
    pub(crate) fn block_mut(&mut self, id: u32) -> &mut Block {
        self.blocks.get_mut(id)
    }

    #[inline]
    pub(crate) fn alloc_block(&mut self, b: Block) -> u32 {
        self.blocks.alloc(b)
    }

    #[inline]
    pub(crate) fn set_ptr(&mut self, pos: u32, id: u32) {
        self.ptr[pos as usize] = id;
    }

    #[inline]
    pub(crate) fn bump_total(&mut self, delta: i64) {
        self.total += delta;
    }

    #[inline]
    pub(crate) fn bump_updates(&mut self, delta: u64) {
        self.updates += delta;
    }

    #[inline]
    pub(crate) fn bump_nonzero(&mut self, delta: i32) {
        self.nonzero = (self.nonzero as i64 + delta as i64) as u32;
    }

    /// Mutable borrow of all four index structures at once, for the
    /// in-place bulk rebuild in the batch module.
    #[inline]
    #[allow(clippy::type_complexity)]
    pub(crate) fn raw_mut(
        &mut self,
    ) -> (&mut Vec<u32>, &mut Vec<u32>, &mut Vec<u32>, &mut BlockArena) {
        (
            &mut self.to_obj,
            &mut self.to_pos,
            &mut self.ptr,
            &mut self.blocks,
        )
    }

    /// Overwrites the cached aggregates after an in-place bulk rebuild.
    #[inline]
    pub(crate) fn set_aggregates(&mut self, total: i64, nonzero: u32) {
        self.total = total;
        self.nonzero = nonzero;
    }

    // Crate-visible raw accessors for the query/iterator/verify modules.

    #[inline]
    pub(crate) fn raw_to_obj(&self) -> &[u32] {
        &self.to_obj
    }

    #[inline]
    pub(crate) fn raw_to_pos(&self) -> &[u32] {
        &self.to_pos
    }

    #[inline]
    pub(crate) fn raw_ptr(&self) -> &[u32] {
        &self.ptr
    }

    #[inline]
    pub(crate) fn raw_blocks(&self) -> &BlockArena {
        &self.blocks
    }

    /// Block covering position `pos` (0-based). Crate-internal.
    #[inline]
    pub(crate) fn block_at(&self, pos: u32) -> &Block {
        self.blocks.get(self.ptr[pos as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_profile_is_all_zero() {
        let p = SProfile::new(4);
        assert_eq!(p.num_objects(), 4);
        assert_eq!(p.len(), 0);
        assert!(p.is_empty());
        assert_eq!(p.num_blocks(), 1);
        assert_eq!(p.distinct_active(), 0);
        for x in 0..4 {
            assert_eq!(p.frequency(x), 0);
        }
        let mode = p.mode().unwrap();
        assert_eq!(mode.frequency, 0);
        assert_eq!(mode.count, 4);
    }

    #[test]
    fn empty_universe() {
        let p = SProfile::new(0);
        assert_eq!(p.num_objects(), 0);
        assert_eq!(p.mode(), None);
        assert_eq!(p.least(), None);
        assert_eq!(p.mode_objects(), &[] as &[u32]);
        assert_eq!(p.least_objects(), &[] as &[u32]);
        assert_eq!(p.num_blocks(), 0);
    }

    #[test]
    fn single_object_universe() {
        let mut p = SProfile::new(1);
        assert_eq!(p.add(0), 1);
        assert_eq!(p.add(0), 2);
        assert_eq!(p.mode().unwrap().frequency, 2);
        assert_eq!(p.least().unwrap().frequency, 2);
        assert_eq!(p.remove(0), 1);
        assert_eq!(p.remove(0), 0);
        assert_eq!(p.remove(0), -1, "raw profile permits negative frequency");
        assert_eq!(p.num_blocks(), 1);
    }

    #[test]
    fn add_updates_mode() {
        let mut p = SProfile::new(8);
        p.add(3);
        p.add(3);
        p.add(1);
        let mode = p.mode().unwrap();
        assert_eq!(mode.object, 3);
        assert_eq!(mode.frequency, 2);
        assert_eq!(mode.count, 1);
        assert_eq!(p.frequency(3), 2);
        assert_eq!(p.frequency(1), 1);
        assert_eq!(p.frequency(0), 0);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn paper_figure_1_and_2_walkthrough() {
        // Fig. 1(c): F = [0,3,1,3,0,0,0,0] (1-based ids 1..8). We build it
        // with adds on 0-based ids 1 and 3 (three each) and 2 (once).
        let mut p = SProfile::new(8);
        for _ in 0..3 {
            p.add(1);
            p.add(3);
        }
        p.add(2);
        assert_eq!(p.frequency(1), 3);
        assert_eq!(p.frequency(2), 1);
        assert_eq!(p.frequency(3), 3);
        // Sorted T = [0,0,0,0,0,1,3,3]: blocks (0..=4,0) (5,1) (6..=7,3).
        assert_eq!(p.num_blocks(), 3);
        let mode = p.mode().unwrap();
        assert_eq!(mode.frequency, 3);
        assert_eq!(mode.count, 2);

        // Fig. 1(d): add "1" (paper id 1 = our id 0): zero block shrinks,
        // the 1-block grows leftwards by merging.
        p.add(0);
        assert_eq!(p.frequency(0), 1);
        assert_eq!(p.num_blocks(), 3); // (0..=3,0) (4..=5,1) (6..=7,3)
        assert_eq!(p.least().unwrap().count, 4);

        // Fig. 2(b): remove "4" (paper id 4 = our id 3): freq 3 → 2 splits
        // the 3-block and creates a singleton 2-block.
        p.remove(3);
        assert_eq!(p.frequency(3), 2);
        assert_eq!(p.num_blocks(), 4); // (0..=3,0) (4..=5,1) (6,2) (7,3)
        let mode = p.mode().unwrap();
        assert_eq!(mode.object, 1);
        assert_eq!(mode.frequency, 3);
        assert_eq!(mode.count, 1);
    }

    #[test]
    fn remove_can_go_negative_and_least_reports_it() {
        let mut p = SProfile::new(3);
        p.remove(2);
        p.remove(2);
        let least = p.least().unwrap();
        assert_eq!(least.object, 2);
        assert_eq!(least.frequency, -2);
        assert_eq!(least.count, 1);
        assert_eq!(p.len(), -2);
        let mode = p.mode().unwrap();
        assert_eq!(mode.frequency, 0);
        assert_eq!(mode.count, 2);
    }

    #[test]
    fn add_then_remove_is_identity_on_frequencies() {
        let mut p = SProfile::new(10);
        let seq = [4u32, 4, 7, 1, 4, 7, 9, 0, 0, 3];
        for &x in &seq {
            p.add(x);
        }
        for &x in seq.iter().rev() {
            p.remove(x);
        }
        for x in 0..10 {
            assert_eq!(p.frequency(x), 0);
        }
        assert_eq!(p.num_blocks(), 1);
        assert_eq!(p.len(), 0);
        assert_eq!(p.updates(), 20);
    }

    #[test]
    fn mode_objects_are_exactly_the_argmax_set() {
        let mut p = SProfile::new(6);
        p.add(0);
        p.add(2);
        p.add(4);
        let mut modes = p.mode_objects().to_vec();
        modes.sort_unstable();
        assert_eq!(modes, vec![0, 2, 4]);
        let mut leasts = p.least_objects().to_vec();
        leasts.sort_unstable();
        assert_eq!(leasts, vec![1, 3, 5]);
    }

    #[test]
    fn distinct_active_tracks_nonzero_frequencies() {
        let mut p = SProfile::new(5);
        assert_eq!(p.distinct_active(), 0);
        p.add(0);
        p.add(1);
        assert_eq!(p.distinct_active(), 2);
        p.add(0);
        assert_eq!(p.distinct_active(), 2);
        p.remove(1);
        assert_eq!(p.distinct_active(), 1);
        p.remove(2); // goes to -1: still "active"
        assert_eq!(p.distinct_active(), 2);
        p.add(2); // back to 0
        assert_eq!(p.distinct_active(), 1);
    }

    #[test]
    fn from_frequencies_matches_incremental_construction() {
        let freqs = [3i64, 0, -2, 3, 1, 0, 7];
        let built = SProfile::from_frequencies(&freqs);
        let mut incr = SProfile::new(freqs.len() as u32);
        for (x, &f) in freqs.iter().enumerate() {
            for _ in 0..f.max(0) {
                incr.add(x as u32);
            }
            for _ in 0..(-f).max(0) {
                incr.remove(x as u32);
            }
        }
        for x in 0..freqs.len() as u32 {
            assert_eq!(built.frequency(x), incr.frequency(x));
        }
        assert_eq!(built.len(), incr.len());
        assert_eq!(built.num_blocks(), incr.num_blocks());
        assert_eq!(built.distinct_active(), incr.distinct_active());
        assert_eq!(built.mode().unwrap().frequency, 7);
        assert_eq!(built.least().unwrap().frequency, -2);
    }

    #[test]
    fn from_frequencies_empty_and_uniform() {
        let p = SProfile::from_frequencies(&[]);
        assert_eq!(p.num_objects(), 0);
        let p = SProfile::from_frequencies(&[5, 5, 5]);
        assert_eq!(p.num_blocks(), 1);
        assert_eq!(p.mode().unwrap().count, 3);
        assert_eq!(p.len(), 15);
        assert_eq!(p.distinct_active(), 3);
    }

    #[test]
    fn try_variants_reject_out_of_range() {
        let mut p = SProfile::new(3);
        assert_eq!(
            p.try_add(3),
            Err(Error::ObjectOutOfRange { object: 3, m: 3 })
        );
        assert_eq!(
            p.try_remove(99),
            Err(Error::ObjectOutOfRange { object: 99, m: 3 })
        );
        assert_eq!(
            p.try_frequency(3),
            Err(Error::ObjectOutOfRange { object: 3, m: 3 })
        );
        assert_eq!(p.try_add(2), Ok(1));
        assert_eq!(p.try_frequency(2), Ok(1));
        assert_eq!(p.try_remove(2), Ok(0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_panics_out_of_range() {
        SProfile::new(2).add(2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn remove_panics_out_of_range() {
        SProfile::new(2).remove(5);
    }

    #[test]
    fn block_count_never_exceeds_m() {
        let mut p = SProfile::new(16);
        // Staircase: object i gets i adds → all frequencies distinct.
        for i in 0..16u32 {
            for _ in 0..i {
                p.add(i);
            }
        }
        assert_eq!(p.num_blocks(), 16);
        for i in 0..16u32 {
            assert_eq!(p.frequency(i), i as i64);
        }
        let mode = p.mode().unwrap();
        assert_eq!(mode.object, 15);
        assert_eq!(mode.frequency, 15);
    }

    #[test]
    fn clone_is_independent() {
        let mut p = SProfile::new(4);
        p.add(1);
        let snapshot = p.clone();
        p.add(1);
        p.add(2);
        assert_eq!(snapshot.frequency(1), 1);
        assert_eq!(snapshot.frequency(2), 0);
        assert_eq!(p.frequency(1), 2);
    }

    #[test]
    fn interleaved_adds_removes_long_sequence_matches_naive() {
        // Deterministic pseudo-random mixing without external crates.
        let m = 32u32;
        let mut p = SProfile::new(m);
        let mut naive = vec![0i64; m as usize];
        let mut state = 0x9e3779b97f4a7c15u64;
        for step in 0..20_000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = ((state >> 33) % m as u64) as u32;
            if (state >> 7) & 1 == 1 || step % 17 == 0 {
                p.add(x);
                naive[x as usize] += 1;
            } else {
                p.remove(x);
                naive[x as usize] -= 1;
            }
            if step % 997 == 0 {
                for y in 0..m {
                    assert_eq!(p.frequency(y), naive[y as usize], "step {step} object {y}");
                }
                let max = naive.iter().copied().max().unwrap();
                let min = naive.iter().copied().min().unwrap();
                assert_eq!(p.mode().unwrap().frequency, max);
                assert_eq!(p.least().unwrap().frequency, min);
                let max_count = naive.iter().filter(|&&f| f == max).count() as u32;
                let min_count = naive.iter().filter(|&&f| f == min).count() as u32;
                assert_eq!(p.mode().unwrap().count, max_count);
                assert_eq!(p.least().unwrap().count, min_count);
            }
        }
    }
}
