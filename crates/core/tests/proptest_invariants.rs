//! Property-based tests of the core structure: for arbitrary operation
//! sequences, every structural invariant holds and every query agrees
//! with a naive model.

use std::collections::HashMap;
use std::convert::Infallible;

use proptest::prelude::*;

use sprofile::verify::{check_invariants, derive_frequencies};
use sprofile::{lower_median_of_parts, Multiset, SProfile, SlidingWindowProfile, Tuple};

/// An op on a universe of size `m`: (object index, is_add).
fn ops_strategy(m: u32, max_len: usize) -> impl Strategy<Value = Vec<(u32, bool)>> {
    prop::collection::vec((0..m, any::<bool>()), 0..max_len)
}

fn apply(p: &mut SProfile, ops: &[(u32, bool)]) {
    for &(x, add) in ops {
        if add {
            p.add(x);
        } else {
            p.remove(x);
        }
    }
}

fn naive_freqs(m: u32, ops: &[(u32, bool)]) -> Vec<i64> {
    let mut f = vec![0i64; m as usize];
    for &(x, add) in ops {
        f[x as usize] += if add { 1 } else { -1 };
    }
    f
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn invariants_hold_after_any_sequence(
        m in 1u32..24,
        ops in ops_strategy(24, 300),
    ) {
        let ops: Vec<(u32, bool)> = ops.into_iter().map(|(x, a)| (x % m, a)).collect();
        let mut p = SProfile::new(m);
        for (i, &(x, add)) in ops.iter().enumerate() {
            if add { p.add(x); } else { p.remove(x); }
            if let Err(e) = check_invariants(&p) {
                panic!("invariant violated after op {i} ({x}, add={add}): {e}");
            }
        }
    }

    #[test]
    fn frequencies_match_naive_model(
        m in 1u32..32,
        ops in ops_strategy(32, 400),
    ) {
        let ops: Vec<(u32, bool)> = ops.into_iter().map(|(x, a)| (x % m, a)).collect();
        let mut p = SProfile::new(m);
        apply(&mut p, &ops);
        let naive = naive_freqs(m, &ops);
        prop_assert_eq!(derive_frequencies(&p), naive.clone());
        prop_assert_eq!(p.len(), naive.iter().sum::<i64>());
        prop_assert_eq!(
            p.distinct_active(),
            naive.iter().filter(|&&f| f != 0).count() as u32
        );
    }

    #[test]
    fn extreme_queries_match_naive(
        m in 1u32..32,
        ops in ops_strategy(32, 300),
    ) {
        let ops: Vec<(u32, bool)> = ops.into_iter().map(|(x, a)| (x % m, a)).collect();
        let mut p = SProfile::new(m);
        apply(&mut p, &ops);
        let naive = naive_freqs(m, &ops);
        let max = *naive.iter().max().unwrap();
        let min = *naive.iter().min().unwrap();
        let mode = p.mode().unwrap();
        prop_assert_eq!(mode.frequency, max);
        prop_assert_eq!(naive[mode.object as usize], max, "witness must attain the max");
        prop_assert_eq!(
            mode.count as usize,
            naive.iter().filter(|&&f| f == max).count()
        );
        let least = p.least().unwrap();
        prop_assert_eq!(least.frequency, min);
        prop_assert_eq!(naive[least.object as usize], min);
        // The mode/least object slices are exactly the argmax/argmin sets.
        let mut mode_set = p.mode_objects().to_vec();
        mode_set.sort_unstable();
        let mut want: Vec<u32> = (0..m).filter(|&x| naive[x as usize] == max).collect();
        want.sort_unstable();
        prop_assert_eq!(mode_set, want);
    }

    #[test]
    fn rank_queries_match_sorted_model(
        m in 1u32..24,
        ops in ops_strategy(24, 250),
    ) {
        let ops: Vec<(u32, bool)> = ops.into_iter().map(|(x, a)| (x % m, a)).collect();
        let mut p = SProfile::new(m);
        apply(&mut p, &ops);
        let mut sorted = naive_freqs(m, &ops);
        sorted.sort_unstable();
        for k in 1..=m {
            let (obj, f) = p.kth_largest(k).unwrap();
            prop_assert_eq!(f, sorted[(m - k) as usize], "k={}", k);
            prop_assert_eq!(p.frequency(obj), f);
            let (obj, f) = p.kth_smallest(k).unwrap();
            prop_assert_eq!(f, sorted[(k - 1) as usize]);
            prop_assert_eq!(p.frequency(obj), f);
        }
        prop_assert_eq!(p.median(), Some(sorted[((m - 1) / 2) as usize]));
        // Histogram must be the exact multiset of frequencies.
        let mut from_hist: Vec<i64> = Vec::new();
        for b in p.histogram() {
            for _ in 0..b.count {
                from_hist.push(b.frequency);
            }
        }
        prop_assert_eq!(from_hist, sorted.clone());
        // Threshold counts at every frequency, one either side of it
        // (where an off-by-one in the search shows), and at the extremes.
        let mut probes = vec![i64::MIN, i64::MAX];
        for &t in sorted.iter() {
            probes.extend([t - 1, t, t + 1]);
        }
        for &t in &probes {
            let want_ge = sorted.iter().filter(|&&f| f >= t).count() as u32;
            let want_le = sorted.iter().filter(|&&f| f <= t).count() as u32;
            prop_assert_eq!(p.count_at_least(t), want_ge, "threshold {}", t);
            prop_assert_eq!(p.count_at_most(t), want_le, "threshold {}", t);
        }
        for &lo in &probes {
            for &hi in &probes {
                let want = sorted.iter().filter(|&&f| lo <= f && f <= hi).count() as u32;
                prop_assert_eq!(p.count_in_range(lo, hi), want, "range {}..={}", lo, hi);
            }
        }
    }

    #[test]
    fn lower_median_of_parts_matches_the_sorted_union(
        parts in prop::collection::vec(prop::collection::vec(-50i64..50, 1..41), 1..9),
    ) {
        let profiles: Vec<SProfile> = parts.iter().map(|f| SProfile::from_frequencies(f)).collect();
        let mut union: Vec<i64> = parts.concat();
        union.sort_unstable();
        let total = union.len() as u64;
        let mut calls = 0u32;
        let median = lower_median_of_parts(total, profiles.iter().filter_map(SProfile::median), |v| {
            calls += 1;
            Ok::<u64, Infallible>(profiles.iter().map(|p| u64::from(p.count_at_least(v))).sum())
        });
        prop_assert_eq!(median, Ok(Some(union[(union.len() - 1) / 2])));
        // The search stays inside the bracket the part medians span.
        let medians: Vec<i64> = profiles.iter().filter_map(SProfile::median).collect();
        let lo = *medians.iter().min().unwrap();
        let hi = *medians.iter().max().unwrap();
        prop_assert!(calls <= 64 - (hi - lo).leading_zeros(), "{} calls for [{}, {}]", calls, lo, hi);
    }

    #[test]
    fn top_k_is_sorted_and_truthful(
        m in 1u32..24,
        ops in ops_strategy(24, 250),
        k in 1u32..30,
    ) {
        let ops: Vec<(u32, bool)> = ops.into_iter().map(|(x, a)| (x % m, a)).collect();
        let mut p = SProfile::new(m);
        apply(&mut p, &ops);
        let top = p.top_k(k);
        prop_assert_eq!(top.len() as u32, k.min(m));
        for w in top.windows(2) {
            prop_assert!(w[0].1 >= w[1].1, "top_k must be non-increasing");
        }
        for &(obj, f) in &top {
            prop_assert_eq!(p.frequency(obj), f);
        }
        // The k-th entry's frequency equals the k-th largest statistic.
        if let Some(&(_, last_f)) = top.last() {
            prop_assert_eq!(last_f, p.kth_largest(top.len() as u32).unwrap().1);
        }
        // No object outside top-k strictly beats anyone inside.
        if top.len() < m as usize {
            let cutoff = top.last().unwrap().1;
            let in_top: std::collections::HashSet<u32> =
                top.iter().map(|&(o, _)| o).collect();
            for x in 0..m {
                if !in_top.contains(&x) {
                    prop_assert!(p.frequency(x) <= cutoff);
                }
            }
        }
    }

    #[test]
    fn from_frequencies_equals_incremental(freqs in prop::collection::vec(-20i64..20, 0..40)) {
        let built = SProfile::from_frequencies(&freqs);
        check_invariants(&built).unwrap();
        prop_assert_eq!(derive_frequencies(&built), freqs.clone());
        let mut incr = SProfile::new(freqs.len() as u32);
        for (x, &f) in freqs.iter().enumerate() {
            for _ in 0..f.abs() {
                if f > 0 { incr.add(x as u32); } else { incr.remove(x as u32); }
            }
        }
        prop_assert_eq!(built.num_blocks(), incr.num_blocks());
        prop_assert_eq!(built.len(), incr.len());
    }

    #[test]
    fn multiset_counts_never_negative(
        m in 1u32..16,
        ops in ops_strategy(16, 200),
    ) {
        let ops: Vec<(u32, bool)> = ops.into_iter().map(|(x, a)| (x % m, a)).collect();
        let mut ms = Multiset::new(m);
        let mut model: HashMap<u32, u64> = HashMap::new();
        for &(x, add) in &ops {
            if add {
                ms.insert(x);
                *model.entry(x).or_insert(0) += 1;
            } else {
                let had = model.get(&x).copied().unwrap_or(0);
                let res = ms.try_remove(x);
                if had > 0 {
                    prop_assert!(res.is_ok());
                    *model.get_mut(&x).unwrap() -= 1;
                } else {
                    prop_assert!(res.is_err());
                }
            }
        }
        for x in 0..m {
            prop_assert_eq!(ms.count(x), model.get(&x).copied().unwrap_or(0));
        }
        check_invariants(ms.profile()).unwrap();
    }

    #[test]
    fn window_profile_equals_suffix_replay(
        m in 1u32..12,
        cap in 1usize..40,
        ops in ops_strategy(12, 150),
    ) {
        let ops: Vec<(u32, bool)> = ops.into_iter().map(|(x, a)| (x % m, a)).collect();
        let mut win = SlidingWindowProfile::new(m, cap);
        for &(x, add) in &ops {
            win.push(if add { Tuple::add(x) } else { Tuple::remove(x) });
        }
        let suffix = &ops[ops.len().saturating_sub(cap)..];
        let mut replay = SProfile::new(m);
        for &(x, add) in suffix {
            if add { replay.add(x); } else { replay.remove(x); }
        }
        prop_assert_eq!(derive_frequencies(win.profile()), derive_frequencies(&replay));
        check_invariants(win.profile()).unwrap();
    }

    #[test]
    fn iterators_agree_with_queries(
        m in 1u32..20,
        ops in ops_strategy(20, 200),
    ) {
        let ops: Vec<(u32, bool)> = ops.into_iter().map(|(x, a)| (x % m, a)).collect();
        let mut p = SProfile::new(m);
        apply(&mut p, &ops);
        let asc: Vec<(u32, i64)> = p.iter_ascending().collect();
        prop_assert_eq!(asc.len() as u32, m);
        for w in asc.windows(2) {
            prop_assert!(w[0].1 <= w[1].1);
        }
        let mut desc: Vec<(u32, i64)> = p.iter_descending().collect();
        desc.reverse();
        prop_assert_eq!(asc, desc);
        // Classes partition 0..m and carry correct frequencies.
        let mut seen = vec![false; m as usize];
        for class in p.classes() {
            for &obj in class.objects {
                prop_assert!(!seen[obj as usize], "object repeated across classes");
                seen[obj as usize] = true;
                prop_assert_eq!(p.frequency(obj), class.frequency);
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn weighted_ops_equal_unit_op_sequences(
        m in 1u32..16,
        ops in prop::collection::vec((0u32..16, -12i64..12), 0..80),
    ) {
        let mut weighted = SProfile::new(m);
        let mut unit = SProfile::new(m);
        for &(x, delta) in &ops {
            let x = x % m;
            if delta >= 0 {
                weighted.add_many(x, delta as u64);
                for _ in 0..delta {
                    unit.add(x);
                }
            } else {
                weighted.remove_many(x, (-delta) as u64);
                for _ in 0..-delta {
                    unit.remove(x);
                }
            }
            check_invariants(&weighted).unwrap();
        }
        prop_assert_eq!(derive_frequencies(&weighted), derive_frequencies(&unit));
        prop_assert_eq!(weighted.num_blocks(), unit.num_blocks());
        prop_assert_eq!(weighted.len(), unit.len());
        prop_assert_eq!(weighted.updates(), unit.updates());
        prop_assert_eq!(weighted.distinct_active(), unit.distinct_active());
    }

    #[test]
    fn set_frequency_equals_from_frequencies(
        m in 1u32..16,
        targets in prop::collection::vec((0u32..16, -25i64..25), 0..60),
    ) {
        let mut live = SProfile::new(m);
        let mut model = vec![0i64; m as usize];
        for &(x, t) in &targets {
            let x = x % m;
            let old = live.set_frequency(x, t);
            prop_assert_eq!(old, model[x as usize]);
            model[x as usize] = t;
            check_invariants(&live).unwrap();
        }
        let rebuilt = SProfile::from_frequencies(&model);
        prop_assert_eq!(derive_frequencies(&live), derive_frequencies(&rebuilt));
        prop_assert_eq!(live.num_blocks(), rebuilt.num_blocks());
        prop_assert_eq!(live.mode().map(|e| e.frequency), rebuilt.mode().map(|e| e.frequency));
    }

    #[test]
    fn snapshot_roundtrip_any_state(
        m in 1u32..20,
        ops in ops_strategy(20, 150),
    ) {
        let ops: Vec<(u32, bool)> = ops.into_iter().map(|(x, a)| (x % m, a)).collect();
        let mut p = SProfile::new(m);
        apply(&mut p, &ops);
        let restored = SProfile::from_snapshot_bytes(&p.to_snapshot_bytes()).unwrap();
        check_invariants(&restored).unwrap();
        prop_assert_eq!(derive_frequencies(&p), derive_frequencies(&restored));
        prop_assert_eq!(p.num_blocks(), restored.num_blocks());
    }

    #[test]
    fn growable_profile_matches_hashmap_model(
        keys in prop::collection::vec(0u16..64, 1..150),
        adds in prop::collection::vec(any::<bool>(), 1..150),
    ) {
        let mut g: sprofile::GrowableProfile<u16> = sprofile::GrowableProfile::new();
        let mut model: HashMap<u16, i64> = HashMap::new();
        for (k, a) in keys.iter().zip(adds.iter()) {
            if *a {
                g.add(*k);
                *model.entry(*k).or_insert(0) += 1;
            } else {
                g.remove(*k);
                *model.entry(*k).or_insert(0) -= 1;
            }
        }
        for (k, &f) in &model {
            prop_assert_eq!(g.frequency(k), f);
        }
        check_invariants(g.profile()).unwrap();
        // Mode over seen keys matches the model's max.
        let model_max = model.values().copied().max().unwrap();
        let (_, mode_f) = g.mode().unwrap();
        prop_assert_eq!(mode_f, model_max);
    }
}
