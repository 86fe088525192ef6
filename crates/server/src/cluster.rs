//! The server-side cluster layer: slice ownership, slice-aligned shards,
//! and the migration source/sink plumbing.
//!
//! A cluster node is an ordinary full-universe server plus a
//! [`ClusterState`]: the node's index, the current versioned
//! [`PartitionMap`], and the `moved`/`migration` counters. Ownership is
//! per *hash slice* (`slice_of(x) = x % slices`, the same modulo
//! placement `ShardedProfile` uses across threads), so the object
//! universe is partitioned exactly — every object has one owner, and
//! the union of all nodes' owned sets is the whole universe.
//!
//! That partition is what makes scatter-gather exact. A node runs its
//! `ShardedProfile` with a shard count aligned to the slices
//! ([`ClusterConfig::aligned_shards`]), so every shard lies inside one
//! slice and the node answers each query from its owned shards' own
//! answers, never by visiting objects: MODE/LEAST fold the shards'
//! extremes (ties to the smallest id), TOPK re-cuts the shards' top-k
//! lists (frequency descending, id ascending, the tie class at the cut
//! over-fetched), CAL sums the shards' counts, and MEDIAN bisects
//! between the shards' medians. A router merging per-node answers with
//! the same rules reproduces the single-profile answer bit for bit — the
//! `ShardedProfile` merge argument, lifted to nodes. Medians lift too:
//! the node medians bracket the global median, so the router bisects on
//! summed `CAL` only between the smallest and largest node median.
//!
//! Writes for objects this node does not own are refused whole-frame
//! with the typed redirect `ERR moved <ver>`; a router that sees it
//! refetches the map and retries, so a rebalance needs no client
//! coordination beyond the version bump.

use std::path::PathBuf;
use std::sync::RwLock;

use sprofile_persist::{read_partition_map, write_partition_map, PartitionMap};

use crate::metrics::Counter;

/// Cluster membership knobs (`cluster-serve`): the shared topology every
/// node and router derives the bootstrap map from.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Hash slices the universe is split into (finer than the node
    /// count, so a rebalance can move less than a whole node's share).
    pub slices: u32,
    /// This node's index into `nodes`.
    pub node: u32,
    /// Every node's client address, in index order.
    pub nodes: Vec<String>,
}

impl ClusterConfig {
    /// The shard count a node runs when asked for `requested`: rounded
    /// up to a multiple of the slice count. Object `x` lives in shard
    /// `x % p` and slice `x % slices`, so when `slices` divides `p`,
    /// shard `s` holds only objects of slice `s % slices`; and when
    /// `ShardedProfile::new` clamps `p` down to `m`, shard `s` holds the
    /// one object `s`. Either way each shard lies inside one slice.
    pub(crate) fn aligned_shards(&self, requested: usize) -> usize {
        let slices = self.slices.max(1) as usize;
        // Saturating: a count past usize is clamped to `m` anyway.
        requested.max(1).div_ceil(slices).saturating_mul(slices)
    }
}

/// Live cluster state hung off the server's `Shared`.
pub(crate) struct ClusterState {
    node: u32,
    map: RwLock<PartitionMap>,
    /// WAL directory the map marker persists in (`None`: map survives
    /// only as long as the process).
    dir: Option<PathBuf>,
    /// Write frames refused with `ERR moved <ver>`.
    pub(crate) moved_rejects: Counter,
    /// Slice migrations completed with this node as the source.
    pub(crate) migrations: Counter,
}

/// An immutable ownership snapshot, taken once per request so a map
/// flip mid-request cannot split one frame's view of ownership.
pub(crate) struct Mask {
    slices: u32,
    owners: Vec<u32>,
    node: u32,
}

impl Mask {
    /// Whether this node owns object `x`.
    #[inline]
    pub(crate) fn owned(&self, x: u32) -> bool {
        self.owners[(x % self.slices) as usize] == self.node
    }
}

impl ClusterState {
    /// Builds the state for `cfg`, preferring a persisted map marker in
    /// `dir` (same topology only) over the canonical bootstrap map.
    pub(crate) fn new(cfg: &ClusterConfig, dir: Option<PathBuf>) -> Result<ClusterState, String> {
        if (cfg.node as usize) >= cfg.nodes.len() {
            return Err(format!(
                "cluster node index {} out of range ({} node(s))",
                cfg.node,
                cfg.nodes.len()
            ));
        }
        let bootstrap = PartitionMap::round_robin(cfg.slices, cfg.nodes.clone());
        bootstrap.validate()?;
        let map = match dir.as_ref().and_then(|d| read_partition_map(d)) {
            // A persisted map only wins when it describes the same
            // topology; changing `--cluster` flags resets to bootstrap.
            Some(m) if m.slices == bootstrap.slices && m.nodes.len() == bootstrap.nodes.len() => m,
            _ => bootstrap,
        };
        Ok(ClusterState {
            node: cfg.node,
            map: RwLock::new(map),
            dir,
            moved_rejects: Counter::default(),
            migrations: Counter::default(),
        })
    }

    /// This node's index.
    pub(crate) fn node(&self) -> u32 {
        self.node
    }

    /// The current map version.
    pub(crate) fn version(&self) -> u64 {
        self.map.read().expect("map lock poisoned").version
    }

    /// The current map's wire encoding (the `MAP` reply payload).
    pub(crate) fn wire(&self) -> String {
        self.map.read().expect("map lock poisoned").to_wire()
    }

    /// A clone of the current map (the `MAPSET` payload a migration
    /// source pushes to the target after the flip).
    pub(crate) fn current_map(&self) -> PartitionMap {
        self.map.read().expect("map lock poisoned").clone()
    }

    /// A point-in-time ownership snapshot.
    pub(crate) fn mask(&self) -> Mask {
        let map = self.map.read().expect("map lock poisoned");
        Mask {
            slices: map.slices,
            owners: map.owners.clone(),
            node: self.node,
        }
    }

    /// The shards a query on this node answers over: the ones inside
    /// its owned slices, under a point-in-time ownership snapshot. Shard
    /// `s` of the slice-aligned backend ([`ClusterConfig::aligned_shards`])
    /// lies inside slice `s % slices`, the slice object id `s` falls in.
    pub(crate) fn owned_shards(&self) -> impl Fn(usize) -> bool {
        let mask = self.mask();
        move |s| mask.owned(s as u32)
    }

    /// The slice count.
    pub(crate) fn slices(&self) -> u32 {
        self.map.read().expect("map lock poisoned").slices
    }

    /// The client address of node `index` under the current map.
    pub(crate) fn node_addr(&self, index: u32) -> Option<String> {
        let map = self.map.read().expect("map lock poisoned");
        map.nodes.get(index as usize).cloned()
    }

    /// The owner of `slice` under the current map.
    pub(crate) fn owner_of_slice(&self, slice: u32) -> Option<u32> {
        let map = self.map.read().expect("map lock poisoned");
        map.owners.get(slice as usize).copied()
    }

    /// The `ERR moved <ver>` body for the current map version.
    pub(crate) fn moved_msg(&self) -> String {
        format!("moved {}", self.version())
    }

    /// Installs `new` if it is strictly newer and describes the same
    /// topology shape; an older or equal version is an idempotent no-op.
    /// Returns the version now in effect.
    pub(crate) fn install(&self, new: PartitionMap) -> Result<u64, String> {
        new.validate()?;
        let mut map = self.map.write().expect("map lock poisoned");
        if new.slices != map.slices || new.nodes.len() != map.nodes.len() {
            return Err(format!(
                "map shape mismatch: have {} slice(s) x {} node(s), got {} x {}",
                map.slices,
                map.nodes.len(),
                new.slices,
                new.nodes.len()
            ));
        }
        if new.version <= map.version {
            return Ok(map.version);
        }
        self.persist(&new);
        *map = new;
        Ok(map.version)
    }

    /// The migration flip: reassigns `slice` from this node to `target`
    /// and bumps the version. From the moment this returns, writes for
    /// the slice are refused with the *new* version.
    pub(crate) fn flip_owner(&self, slice: u32, target: u32) -> Result<u64, String> {
        let mut map = self.map.write().expect("map lock poisoned");
        let Some(owner) = map.owners.get(slice as usize).copied() else {
            return Err(format!("slice {slice} out of range ({})", map.slices));
        };
        if owner != self.node {
            return Err(format!(
                "slice {slice} is owned by node {owner}, not this node"
            ));
        }
        if target as usize >= map.nodes.len() {
            return Err(format!(
                "target node {target} out of range ({} node(s))",
                map.nodes.len()
            ));
        }
        map.owners[slice as usize] = target;
        map.version += 1;
        let snapshot = map.clone();
        self.persist(&snapshot);
        Ok(map.version)
    }

    /// Best-effort durable write of the map marker. A failed write only
    /// costs a restart falling back to an older (or bootstrap) map —
    /// routers re-learn the truth from `ERR moved` redirects.
    fn persist(&self, map: &PartitionMap) {
        if let Some(dir) = &self.dir {
            let _ = write_partition_map(dir, map);
        }
    }

    /// `(slices this node owns, total slices)` under the current map.
    pub(crate) fn ownership(&self) -> (u64, u64) {
        let map = self.map.read().expect("map lock poisoned");
        let owned = map.owners.iter().filter(|&&o| o == self.node).count();
        (owned as u64, u64::from(map.slices))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendKind;
    use sprofile::{SProfile, Tuple};
    use sprofile_concurrent::ShardedProfile;

    fn config(slices: u32, node: u32, nodes: usize) -> ClusterConfig {
        ClusterConfig {
            slices,
            node,
            nodes: (0..nodes)
                .map(|i| format!("127.0.0.1:{}", 7979 + i))
                .collect(),
        }
    }

    fn state(slices: u32, node: u32, nodes: usize) -> ClusterState {
        ClusterState::new(&config(slices, node, nodes), None).unwrap()
    }

    /// A node's backend as `Server::start` builds it: `requested` shards
    /// aligned to `slices`.
    fn seeded_backend(m: u32, slices: u32, requested: usize, tuples: &[Tuple]) -> ShardedProfile {
        let shards = config(slices, 0, 1).aligned_shards(requested);
        let b = BackendKind::Sharded { shards }.build(m);
        let p = b.num_shards();
        assert!(
            p.is_multiple_of(slices as usize) || p == m as usize,
            "p={p} slices={slices} m={m}"
        );
        b.apply_batch(tuples);
        b
    }

    #[test]
    fn aligned_shards_round_up_to_a_slice_multiple() {
        for (requested, slices, want) in [
            (8, 12, 12),
            (8, 16, 16),
            (1, 7, 7),
            (0, 7, 7),
            (12, 12, 12),
            (13, 12, 24),
            (8, 1, 8),
            (usize::MAX, 12, usize::MAX),
        ] {
            assert_eq!(
                config(slices, 0, 1).aligned_shards(requested),
                want,
                "{requested} shards, {slices} slices"
            );
        }
    }

    #[test]
    fn config_validation() {
        let cfg = ClusterConfig {
            slices: 4,
            node: 3,
            nodes: vec!["a:1".into(), "b:2".into()],
        };
        assert!(ClusterState::new(&cfg, None).is_err(), "node out of range");
    }

    #[test]
    fn masks_follow_the_round_robin_map() {
        let cs = state(6, 1, 3);
        let mask = cs.mask();
        for x in 0..24u32 {
            assert_eq!(mask.owned(x), (x % 6) % 3 == 1, "object {x}");
        }
        assert_eq!(cs.version(), 1);
        assert!(cs.moved_msg().starts_with("moved 1"));
    }

    #[test]
    fn flip_owner_bumps_version_and_refuses_bad_flips() {
        let cs = state(4, 0, 2);
        assert!(cs.flip_owner(1, 0).is_err(), "slice 1 owned by node 1");
        assert!(cs.flip_owner(9, 1).is_err(), "slice out of range");
        assert!(cs.flip_owner(0, 7).is_err(), "target out of range");
        assert_eq!(cs.flip_owner(0, 1).unwrap(), 2);
        assert!(!cs.mask().owned(0), "slice 0 moved away");
        assert_eq!(cs.owner_of_slice(0), Some(1));
        assert_eq!(cs.version(), 2);
    }

    #[test]
    fn install_is_newer_wins_and_shape_checked() {
        let cs = state(4, 0, 2);
        let mut newer = PartitionMap::from_wire(&cs.wire()).unwrap();
        newer.version = 5;
        newer.owners[2] = 1;
        assert_eq!(cs.install(newer.clone()).unwrap(), 5);
        // Equal or older: idempotent no-op at the current version.
        assert_eq!(cs.install(newer.clone()).unwrap(), 5);
        let mut bad = newer.clone();
        bad.version = 9;
        bad.slices = 8;
        bad.owners = vec![0; 8];
        assert!(cs.install(bad).is_err(), "shape mismatch");
        assert!(!cs.mask().owned(2), "installed map took effect");
    }

    /// The load-bearing exactness property: per-node masked answers,
    /// merged with the single-profile rules, equal the single-profile
    /// answers — for every query, on an adversarial tie-heavy stream.
    #[test]
    fn masked_queries_merge_to_the_oracle() {
        // Requested shard counts the slice counts do and do not divide,
        // plus a universe smaller than the slice count (one shard per
        // object after the clamp).
        let cases = [1usize, 2, 8]
            .into_iter()
            .flat_map(|requested| [7u32, 12].map(|slices| (64u32, slices, requested)))
            .chain([(10, 16, 8)]);
        for (m, slices, requested) in cases {
            merge_to_the_oracle(m, slices, requested);
        }
    }

    fn merge_to_the_oracle(m: u32, slices: u32, requested: usize) {
        let nodes = 3u32;
        let mut tuples = Vec::new();
        // Tie-heavy: frequencies collide across slice boundaries.
        for x in 0..m {
            for _ in 0..(x % 5) {
                tuples.push(Tuple::add(x));
            }
            if x % 11 == 0 {
                tuples.push(Tuple::remove(x));
            }
        }
        let mut oracle = SProfile::new(m);
        for &t in &tuples {
            oracle.apply(t);
        }
        let states: Vec<ClusterState> = (0..nodes)
            .map(|n| state(slices, n, nodes as usize))
            .collect();
        // Each node holds only the writes for the objects it owns, as in
        // a live cluster.
        let backends: Vec<ShardedProfile> = states
            .iter()
            .map(|cs| {
                let mask = cs.mask();
                let owned: Vec<Tuple> = tuples
                    .iter()
                    .copied()
                    .filter(|t| mask.owned(t.object))
                    .collect();
                seeded_backend(m, slices, requested, &owned)
            })
            .collect();

        // MODE / LEAST merge with the same comparator chain.
        let mode = states
            .iter()
            .zip(&backends)
            .filter_map(|(cs, b)| b.mode_in(cs.owned_shards()))
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .unwrap();
        let oracle_mode = oracle.mode().unwrap();
        let oracle_mode_obj = oracle.mode_objects().iter().copied().min().unwrap();
        assert_eq!(mode, (oracle_mode_obj, oracle_mode.frequency));
        let least = states
            .iter()
            .zip(&backends)
            .filter_map(|(cs, b)| b.least_in(cs.owned_shards()))
            .min_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)))
            .unwrap();
        let oracle_least = oracle.least().unwrap();
        let oracle_least_obj = oracle.least_objects().iter().copied().min().unwrap();
        assert_eq!(least, (oracle_least_obj, oracle_least.frequency));

        // TOPK: concat over-fetched lists, one sort, truncate.
        for k in [1u32, 3, 5, 16, 64] {
            let mut all: Vec<(u32, i64)> = states
                .iter()
                .zip(&backends)
                .flat_map(|(cs, b)| b.top_k_with_ties_in(cs.owned_shards(), k))
                .collect();
            all.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            all.truncate(k as usize);
            assert_eq!(all, oracle.top_k(k), "k={k}");
        }

        // CAL sums exactly; the median bisection rides on it.
        for t in -2..=6 {
            let total: u32 = states
                .iter()
                .zip(&backends)
                .map(|(cs, b)| b.count_at_least_in(cs.owned_shards(), t))
                .sum();
            assert_eq!(total, oracle.count_at_least(t), "threshold {t}");
        }
        let rank = m as u64 - (m as u64 - 1) / 2;
        let cal = |v: i64| -> u64 {
            states
                .iter()
                .zip(&backends)
                .map(|(cs, b)| b.count_at_least_in(cs.owned_shards(), v) as u64)
                .sum()
        };
        let (mut lo, mut hi) = (least.1, mode.1);
        while lo < hi {
            let mid = lo + (hi - lo + 1) / 2;
            if cal(mid) >= rank {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        assert_eq!(Some(lo), oracle.median(), "bisected global median");

        // Node-local median is still well-defined over the owned set.
        let owned: Vec<i64> = (0..m)
            .filter(|&x| states[0].mask().owned(x))
            .map(|x| oracle.frequency(x))
            .collect();
        let mut sorted = owned.clone();
        sorted.sort_unstable();
        assert_eq!(
            backends[0].median_in(states[0].owned_shards()),
            Some(sorted[(sorted.len() - 1) / 2])
        );
    }

    #[test]
    fn persisted_map_survives_a_restart_only_for_the_same_topology() {
        let dir =
            std::env::temp_dir().join(format!("sprofile-cluster-state-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = ClusterConfig {
            slices: 4,
            node: 0,
            nodes: vec!["a:1".into(), "b:2".into()],
        };
        let cs = ClusterState::new(&cfg, Some(dir.clone())).unwrap();
        assert_eq!(cs.flip_owner(0, 1).unwrap(), 2);
        drop(cs);
        let cs = ClusterState::new(&cfg, Some(dir.clone())).unwrap();
        assert_eq!(cs.version(), 2, "flip persisted across restart");
        assert!(!cs.mask().owned(0));
        // A topology change falls back to bootstrap.
        let wider = ClusterConfig {
            slices: 8,
            node: 0,
            nodes: cfg.nodes.clone(),
        };
        let cs = ClusterState::new(&wider, Some(dir.clone())).unwrap();
        assert_eq!(cs.version(), 1, "different topology resets");
        std::fs::remove_dir_all(&dir).ok();
    }
}
