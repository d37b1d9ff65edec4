//! Supporting-set construction for batched inference.
//!
//! For a batch of target nodes, an `L`-layer GNN needs the hidden features of
//! an exponentially growing set of supporting neighbors ("neighbor
//! explosion", Eq. 3 of the paper). [`BatchSupport::build`] walks the layers
//! output→input and records, per layer:
//!
//! * which nodes must be **computed**,
//! * the (optionally fan-out-capped) neighbor list of each computed node,
//! * which nodes are satisfied directly from the **hidden-feature store**
//!   (the paper's §3.3.2 technique) and therefore do not expand further.

use crate::csr::CsrMatrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Supporting structure for one GNN layer of a batch.
#[derive(Debug, Clone)]
pub struct LayerSupport {
    /// 1-based layer index (`layers[0]` of a [`BatchSupport`] is layer 1).
    pub layer: usize,
    /// Global ids of nodes whose layer output must be computed.
    pub compute: Vec<usize>,
    /// CSR offsets into [`Self::neigh_ids`], one slice per computed node.
    pub neigh_indptr: Vec<usize>,
    /// Capped neighbor global ids, concatenated.
    pub neigh_ids: Vec<usize>,
    /// Global ids whose output-level features are read from the store.
    pub stored: Vec<usize>,
}

impl LayerSupport {
    /// Neighbor slice of the `i`-th computed node.
    pub fn neighbors(&self, i: usize) -> &[usize] {
        &self.neigh_ids[self.neigh_indptr[i]..self.neigh_indptr[i + 1]]
    }
}

/// The full supporting structure of one inference batch.
#[derive(Debug, Clone)]
pub struct BatchSupport {
    /// The target nodes (deduplicated, original order).
    pub targets: Vec<usize>,
    /// Per-layer supports, `layers[0]` = layer 1 (closest to the input).
    pub layers: Vec<LayerSupport>,
    /// Nodes whose raw attributes must be gathered (layer-0 inputs).
    pub input_nodes: Vec<usize>,
}

impl BatchSupport {
    /// Build the supporting sets for `targets` of an `L`-layer GNN on `adj`.
    ///
    /// * `graph_layer[i]` says whether layer `i+1` (1-based, input-most
    ///   first) aggregates over the graph; dense layers (`false`) do not
    ///   expand the supporting set.
    /// * `caps[h]` bounds the fan-out when expanding to hop `h+1` neighbors
    ///   (`caps = &[None, Some(32)]` reproduces the paper's hop-2 cap of 32);
    ///   missing entries mean "uncapped". Capping samples uniformly without
    ///   replacement with the seeded RNG, so batches are reproducible.
    /// * `stored(level, node)` reports whether the hidden-feature store can
    ///   serve `h^(level)` of `node`; such nodes are not expanded. It is
    ///   called exactly once per node a level needs (never for the output
    ///   layer), output-most level first and in the order the nodes are
    ///   listed in [`LayerSupport::stored`] / [`LayerSupport::compute`], so
    ///   a caller may stage each stored row as it answers.
    ///
    /// Shapes: every target is `< adj.n_rows()`; `graph_layer.len()` is the layer count `L` and `caps` indexes hops `0..L`.
    pub fn build(
        adj: &CsrMatrix,
        targets: &[usize],
        graph_layer: &[bool],
        caps: &[Option<usize>],
        seed: u64,
        mut stored: impl FnMut(usize, usize) -> bool,
    ) -> BatchSupport {
        let n_layers = graph_layer.len();
        assert!(n_layers >= 1, "build: need at least one layer");
        let n = adj.n_rows();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seen = vec![false; n];
        let mut targets_dedup = Vec::with_capacity(targets.len());
        for &t in targets {
            assert!(t < n, "build: target {t} out of bounds");
            if !seen[t] {
                seen[t] = true;
                targets_dedup.push(t);
            }
        }

        let mut layers: Vec<LayerSupport> = Vec::with_capacity(n_layers);
        // `needed` = nodes whose output at the current level is required.
        let mut needed = targets_dedup.clone();
        // Hop distance grows only when a graph layer expands.
        let mut hop = 0usize;
        for li in (1..=n_layers).rev() {
            let expands = graph_layer[li - 1];
            if expands {
                hop += 1;
            }
            let cap = caps.get(hop.saturating_sub(1)).copied().flatten();
            let mut compute = Vec::with_capacity(needed.len());
            let mut stored_nodes = Vec::new();
            for &v in &needed {
                // The output layer is never served from the store: its output
                // is the embedding being requested.
                if li < n_layers && stored(li, v) {
                    stored_nodes.push(v);
                } else {
                    compute.push(v);
                }
            }
            // Expand capped neighbors of the computed set.
            let mut neigh_indptr = Vec::with_capacity(compute.len() + 1);
            let mut neigh_ids = Vec::new();
            neigh_indptr.push(0);
            let mut mark = vec![false; n];
            let mut next_needed = Vec::new();
            for &v in &compute {
                if !mark[v] {
                    mark[v] = true;
                    next_needed.push(v);
                }
            }
            for &v in &compute {
                if !expands {
                    // Dense layer: no aggregation, no expansion.
                    neigh_indptr.push(neigh_ids.len());
                    continue;
                }
                let nbrs = adj.row_indices(v);
                match cap {
                    Some(c) if nbrs.len() > c => {
                        // Uniform sample without replacement (partial
                        // Fisher–Yates over a scratch copy).
                        let mut pool: Vec<u32> = nbrs.to_vec();
                        for i in 0..c {
                            let j = rng.random_range(i..pool.len());
                            pool.swap(i, j);
                        }
                        pool.truncate(c);
                        pool.sort_unstable();
                        for &u in &pool {
                            neigh_ids.push(u as usize);
                        }
                    }
                    _ => {
                        for &u in nbrs {
                            neigh_ids.push(u as usize);
                        }
                    }
                }
                for &u in &neigh_ids[*neigh_indptr.last().unwrap()..] {
                    if !mark[u] {
                        mark[u] = true;
                        next_needed.push(u);
                    }
                }
                neigh_indptr.push(neigh_ids.len());
            }
            layers.push(LayerSupport {
                layer: li,
                compute,
                neigh_indptr,
                neigh_ids,
                stored: stored_nodes,
            });
            needed = next_needed;
        }
        layers.reverse();
        BatchSupport {
            targets: targets_dedup,
            layers,
            input_nodes: needed,
        }
    }

    /// Total number of distinct supporting nodes whose raw attributes are
    /// touched (the paper's layer-1 supporting-node count driver).
    pub fn n_input_nodes(&self) -> usize {
        self.input_nodes.len()
    }

    /// Number of nodes computed at layer `li` (1-based).
    pub fn n_compute(&self, li: usize) -> usize {
        self.layers[li - 1].compute.len()
    }

    /// Total aggregation edges (neighbor-list entries) at layer `li`.
    pub fn n_agg_edges(&self, li: usize) -> usize {
        self.layers[li - 1].neigh_ids.len()
    }

    /// Number of store hits at layer `li`'s output level.
    pub fn n_store_hits(&self, li: usize) -> usize {
        self.layers[li - 1].stored.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Path graph 0-1-2-3-4 (undirected).
    fn path5() -> CsrMatrix {
        let mut e = Vec::new();
        for i in 0u32..4 {
            e.push((i, i + 1));
            e.push((i + 1, i));
        }
        CsrMatrix::adjacency(5, &e)
    }

    #[test]
    fn two_layer_expansion_on_path() {
        let adj = path5();
        let s = BatchSupport::build(&adj, &[2], &[true, true], &[], 0, |_, _| false);
        // Layer 2 computes node 2, aggregating neighbors {1,3}.
        assert_eq!(s.layers[1].compute, vec![2]);
        assert_eq!(s.layers[1].neighbors(0), &[1, 3]);
        // Layer 1 computes {2,1,3}; inputs reach hop-2: {0..4}.
        let mut c = s.layers[0].compute.clone();
        c.sort_unstable();
        assert_eq!(c, vec![1, 2, 3]);
        let mut inp = s.input_nodes.clone();
        inp.sort_unstable();
        assert_eq!(inp, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn store_prunes_expansion() {
        let adj = path5();
        // h^(1) of node 1 is stored => node 1 not computed at layer 1, and
        // node 0 never becomes a supporting node.
        let s = BatchSupport::build(&adj, &[2], &[true, true], &[], 0, |lvl, v| {
            lvl == 1 && v == 1
        });
        assert_eq!(s.layers[0].stored, vec![1]);
        let mut c = s.layers[0].compute.clone();
        c.sort_unstable();
        assert_eq!(c, vec![2, 3]);
        // Node 1's raw attributes are still aggregated when computing
        // h^(1) of node 2, but node 0 (only reachable through expanding
        // node 1) is no longer a supporting node.
        let mut inp = s.input_nodes.clone();
        inp.sort_unstable();
        assert_eq!(inp, vec![1, 2, 3, 4]);
    }

    #[test]
    fn all_stored_collapses_to_full_inference_cost() {
        let adj = path5();
        // Everything below the output layer stored: d -> 1 in Eq. 3.
        let s = BatchSupport::build(&adj, &[2], &[true, true], &[], 0, |_, _| true);
        assert_eq!(s.layers[0].compute.len(), 0);
        assert_eq!(s.layers[1].compute, vec![2]);
        assert!(s.input_nodes.is_empty());
    }

    #[test]
    fn fanout_cap_limits_neighbors() {
        // Star: center 0 connected to 1..=9.
        let mut e = Vec::new();
        for i in 1u32..10 {
            e.push((0, i));
            e.push((i, 0));
        }
        let adj = CsrMatrix::adjacency(10, &e);
        let s = BatchSupport::build(&adj, &[0], &[true], &[Some(3)], 7, |_, _| false);
        assert_eq!(s.layers[0].neighbors(0).len(), 3);
        // Deterministic given the seed.
        let s2 = BatchSupport::build(&adj, &[0], &[true], &[Some(3)], 7, |_, _| false);
        assert_eq!(s.layers[0].neigh_ids, s2.layers[0].neigh_ids);
    }

    #[test]
    fn hop2_cap_only_affects_second_expansion() {
        let adj = path5();
        let s = BatchSupport::build(&adj, &[2], &[true, true], &[None, Some(1)], 3, |_, _| false);
        // Layer-2 expansion uncapped: both neighbors of 2.
        assert_eq!(s.layers[1].neighbors(0).len(), 2);
        // Layer-1 expansion capped at 1 neighbor per node.
        for i in 0..s.layers[0].compute.len() {
            assert!(s.layers[0].neighbors(i).len() <= 1);
        }
    }

    #[test]
    fn duplicate_targets_deduplicated() {
        let adj = path5();
        let s = BatchSupport::build(&adj, &[2, 2, 1, 2], &[true], &[], 0, |_, _| false);
        assert_eq!(s.targets, vec![2, 1]);
        assert_eq!(s.layers[0].compute.len(), 2);
    }

    #[test]
    fn counts_are_consistent() {
        let adj = path5();
        let s = BatchSupport::build(&adj, &[0, 4], &[true, true], &[], 0, |_, _| false);
        assert_eq!(s.n_compute(2), 2);
        assert_eq!(s.n_agg_edges(2), 2); // nodes 0 and 4 have one neighbor each
        assert_eq!(s.n_store_hits(1), 0);
        assert!(s.n_input_nodes() >= s.n_compute(1));
    }

    #[test]
    fn each_needed_node_is_probed_once_in_stored_order() {
        let adj = path5();
        let mut calls = Vec::new();
        let s = BatchSupport::build(&adj, &[2, 0], &[true, true, true], &[], 0, |l, v| {
            calls.push((l, v));
            v % 2 == 1
        });
        // Level 2 needs {2, 0} and their neighbours {1, 3}; level 1 needs
        // what layer 2 computes and its neighbours.
        for (li, ls) in s.layers.iter().enumerate().take(2) {
            let level = li + 1;
            let probed: Vec<usize> = calls
                .iter()
                .filter(|&&(l, _)| l == level)
                .map(|&(_, v)| v)
                .collect();
            let hits: Vec<usize> = probed.iter().copied().filter(|v| v % 2 == 1).collect();
            assert_eq!(hits, ls.stored, "level {level}");
            assert_eq!(probed.len(), ls.stored.len() + ls.compute.len());
        }
        assert!(
            calls.iter().all(|&(l, _)| l < 3),
            "the output layer is never probed"
        );
        let levels: Vec<usize> = calls.iter().map(|&(l, _)| l).collect();
        assert!(levels.windows(2).all(|w| w[0] >= w[1]), "output-most first");
    }
}
