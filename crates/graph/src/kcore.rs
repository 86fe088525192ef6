//! k-core decomposition via min-degree peeling.
//!
//! The coreness of a node is the largest k such that the node belongs to a
//! subgraph where every node has degree ≥ k. The classic algorithm peels
//! the minimum-degree node repeatedly; its per-step "find the minimum" is
//! exactly the operation S-Profile accelerates (paper §2.3).

use crate::graph::Graph;
use crate::peel::MinPeeler;

/// Result of a k-core decomposition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoreDecomposition {
    /// `coreness[v]` = the core number of node `v`.
    pub coreness: Vec<u32>,
    /// Nodes in peel order (first peeled first).
    pub peel_order: Vec<u32>,
    /// The maximum core number (degeneracy of the graph).
    pub degeneracy: u32,
}

impl CoreDecomposition {
    /// All nodes with coreness ≥ k, ascending by id.
    pub fn k_core_members(&self, k: u32) -> Vec<u32> {
        self.coreness
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c >= k)
            .map(|(v, _)| v as u32)
            .collect()
    }
}

/// Computes the k-core decomposition of `g` using peeling backend `P`.
/// O(V + E) peeler operations.
pub fn kcore_decomposition<P: MinPeeler>(g: &Graph) -> CoreDecomposition {
    let n = g.num_nodes();
    let mut peeler = P::new(&g.degrees());
    let mut removed = vec![false; n as usize];
    let mut coreness = vec![0u32; n as usize];
    let mut peel_order = Vec::with_capacity(n as usize);
    let mut k = 0u32;
    for _ in 0..n {
        let (v, d) = peeler.pop_min().expect("one pop per node");
        // The core number is the running maximum of observed minimum
        // degrees: removing a node never increases the minimum degree of
        // what remains beyond d, so k is monotone.
        k = k.max(d as u32);
        coreness[v as usize] = k;
        removed[v as usize] = true;
        peel_order.push(v);
        for &u in g.neighbors(v) {
            if !removed[u as usize] {
                peeler.decrement(u);
            }
        }
    }
    CoreDecomposition {
        coreness,
        peel_order,
        degeneracy: k,
    }
}

/// Validates a claimed decomposition directly from the definition:
/// in the subgraph induced by `{v : coreness[v] >= k}` every node must
/// have induced degree ≥ k, and each node's coreness must be maximal
/// (node v is *not* in the (`coreness[v]+1`)-core). O(V·E) — tests only.
pub fn verify_coreness(g: &Graph, coreness: &[u32]) -> Result<(), String> {
    let n = g.num_nodes();
    let max_k = coreness.iter().copied().max().unwrap_or(0);
    for k in 1..=max_k {
        // Claimed members of the k-core.
        let members: Vec<bool> = (0..n).map(|v| coreness[v as usize] >= k).collect();
        // Compute the true k-core from scratch: strip the full graph of
        // nodes with induced degree < k until stable.
        let mut live = vec![true; n as usize];
        let mut changed = true;
        while changed {
            changed = false;
            for v in 0..n {
                if !live[v as usize] {
                    continue;
                }
                let d = g.neighbors(v).iter().filter(|&&u| live[u as usize]).count() as u32;
                if d < k {
                    live[v as usize] = false;
                    changed = true;
                }
            }
        }
        for v in 0..n {
            if members[v as usize] && !live[v as usize] {
                return Err(format!(
                    "node {v} claims coreness {} but falls out of the {k}-core",
                    coreness[v as usize]
                ));
            }
            if !members[v as usize] && live[v as usize] {
                return Err(format!(
                    "node {v} survives the {k}-core but claims coreness {}",
                    coreness[v as usize]
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peel::{BucketPeeler, LazyHeapPeeler, SProfilePeeler};

    fn triangle_with_tail() -> Graph {
        // 0-1-2 triangle, 2-3-4 path.
        let mut g = Graph::new(5);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 0);
        g.add_edge(2, 3);
        g.add_edge(3, 4);
        g
    }

    #[test]
    fn triangle_with_tail_coreness() {
        let g = triangle_with_tail();
        let d = kcore_decomposition::<SProfilePeeler>(&g);
        assert_eq!(d.coreness, vec![2, 2, 2, 1, 1]);
        assert_eq!(d.degeneracy, 2);
        assert_eq!(d.k_core_members(2), vec![0, 1, 2]);
        assert_eq!(d.k_core_members(1), vec![0, 1, 2, 3, 4]);
        assert_eq!(d.k_core_members(3), Vec::<u32>::new());
        verify_coreness(&g, &d.coreness).unwrap();
    }

    #[test]
    fn all_backends_agree_on_coreness() {
        for seed in 0..4u64 {
            let g = Graph::erdos_renyi(120, 500, seed);
            let a = kcore_decomposition::<SProfilePeeler>(&g);
            let b = kcore_decomposition::<LazyHeapPeeler>(&g);
            let c = kcore_decomposition::<BucketPeeler>(&g);
            assert_eq!(a.coreness, b.coreness, "seed {seed}");
            assert_eq!(b.coreness, c.coreness, "seed {seed}");
            assert_eq!(a.degeneracy, b.degeneracy);
            verify_coreness(&g, &a.coreness).unwrap();
        }
    }

    #[test]
    fn clique_coreness_is_size_minus_one() {
        let g = Graph::with_planted_clique(30, 8, 0, 1);
        let d = kcore_decomposition::<SProfilePeeler>(&g);
        for v in 0..8u32 {
            assert_eq!(d.coreness[v as usize], 7, "clique node {v}");
        }
        for v in 8..30u32 {
            assert_eq!(d.coreness[v as usize], 0, "isolated node {v}");
        }
        assert_eq!(d.degeneracy, 7);
    }

    #[test]
    fn edgeless_graph_is_all_zero() {
        let g = Graph::new(6);
        let d = kcore_decomposition::<SProfilePeeler>(&g);
        assert_eq!(d.coreness, vec![0; 6]);
        assert_eq!(d.degeneracy, 0);
        assert_eq!(d.peel_order.len(), 6);
    }

    #[test]
    fn peel_order_is_a_permutation() {
        let g = Graph::erdos_renyi(50, 120, 9);
        let d = kcore_decomposition::<SProfilePeeler>(&g);
        let mut order = d.peel_order.clone();
        order.sort_unstable();
        assert_eq!(order, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn preferential_attachment_has_core_at_least_k() {
        // Every node has degree >= 3 by construction, so the 3-core is the
        // whole graph and degeneracy >= 3.
        let g = Graph::preferential_attachment(200, 3, 11);
        let d = kcore_decomposition::<BucketPeeler>(&g);
        assert!(d.degeneracy >= 3, "degeneracy {}", d.degeneracy);
        assert!(d.coreness.iter().all(|&c| c >= 3));
        verify_coreness(&g, &d.coreness).unwrap();
    }
}
