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
//!
//! A capped node with `d` neighbours and cap `c < d` keeps a uniform sample
//! of `c` of them without replacement. Floyd's algorithm marks
//! `k = min(c, d − c)` positions of the row in a bitmap, one bounded draw
//! each (when `2c > d` the marked positions are the dropped ones), and the
//! kept ids are read off the bitmap's words in position order, which is
//! ascending id order because CSR rows are sorted. A node whose degree is
//! within its cap draws nothing.

use crate::csr::CsrMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
    ///   replacement with the seeded RNG, so batches are reproducible, and
    ///   lists the sample in ascending id order.
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
        // The capped sampler's position bitmap, reused by every node.
        let mut drawn: Vec<u64> = Vec::new();
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
                        let dropped = sample_positions(&mut rng, &mut drawn, nbrs.len(), c);
                        push_kept(&drawn, nbrs, dropped, &mut neigh_ids);
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

/// Uniform draw from `0..n` (`n ≥ 1`): Lemire's multiply-high, with the
/// exact rejection of the `2^64 mod n` low products that would bias it.
#[inline]
fn below(rng: &mut StdRng, n: u64) -> u64 {
    let mut m = u128::from(rng.next_u64()) * u128::from(n);
    if (m as u64) < n {
        let reject = n.wrapping_neg() % n;
        while (m as u64) < reject {
            m = u128::from(rng.next_u64()) * u128::from(n);
        }
    }
    (m >> 64) as u64
}

/// Marks in `drawn` (resized to `⌈d/64⌉` zeroed words) a uniform subset of
/// `min(c, d − c)` of the positions `0..d`, by Floyd's algorithm: one draw
/// per marked position, no pool and no rejection on collisions. Returns
/// whether the marked positions are the ones a sample of `c` drops, which
/// they are when `2c > d`.
fn sample_positions(rng: &mut StdRng, drawn: &mut Vec<u64>, d: usize, c: usize) -> bool {
    drawn.clear();
    drawn.resize(d.div_ceil(64), 0);
    let k = c.min(d - c);
    for j in d - k..d {
        let t = below(rng, j as u64 + 1) as usize;
        let taken = (drawn[t / 64] >> (t % 64)) & 1 == 1;
        let pos = if taken { j } else { t };
        drawn[pos / 64] |= 1 << (pos % 64);
    }
    k < c
}

/// Appends the ids of `nbrs` at the kept positions: the marked ones, or
/// every unmarked one when `dropped`. A CSR row is strictly ascending,
/// so position order is id order and the sample needs no sort.
fn push_kept(drawn: &[u64], nbrs: &[u32], dropped: bool, out: &mut Vec<usize>) {
    let d = nbrs.len();
    for (w, &word) in drawn.iter().enumerate() {
        let base = w * 64;
        // The last word's bits past `d` are not positions.
        let valid = u64::MAX >> (64 - (d - base).min(64));
        let mut bits = if dropped { !word & valid } else { word };
        while bits != 0 {
            out.push(nbrs[base + bits.trailing_zeros() as usize] as usize);
            bits &= bits - 1;
        }
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

    /// Node 0 joined to `d` leaves with ids `2i + 1`, so ids are not
    /// positions.
    fn star(d: usize) -> (CsrMatrix, Vec<usize>) {
        let leaves: Vec<usize> = (0..d).map(|i| 2 * i + 1).collect();
        let mut e = Vec::new();
        for &u in &leaves {
            e.push((0, u as u32));
            e.push((u as u32, 0));
        }
        (CsrMatrix::adjacency(2 * d + 1, &e), leaves)
    }

    /// Degrees and caps covering both of the sampler's branches (`c` drawn
    /// and `d − c` dropped), word boundaries and bitmaps of up to 5 words.
    fn capped_shapes() -> Vec<(usize, usize)> {
        let mut shapes = Vec::new();
        for d in [33, 45, 63, 64, 65, 129, 300] {
            for c in [1, d / 2, d / 2 + 1, d - 1] {
                shapes.push((d, c));
            }
        }
        shapes
    }

    #[test]
    fn capped_samples_are_ascending_subsets_of_exactly_the_cap() {
        for (d, c) in capped_shapes() {
            let (adj, leaves) = star(d);
            for seed in 0..20 {
                let s = BatchSupport::build(&adj, &[0], &[true], &[Some(c)], seed, |_, _| false);
                let got = s.layers[0].neighbors(0);
                assert_eq!(got.len(), c, "d {d} c {c} seed {seed}");
                assert!(got.windows(2).all(|w| w[0] < w[1]), "d {d} c {c}: {got:?}");
                assert!(
                    got.iter().all(|u| leaves.binary_search(u).is_ok()),
                    "d {d} c {c}: {got:?}"
                );
            }
        }
    }

    #[test]
    fn every_position_is_kept_with_probability_c_over_d() {
        const TRIALS: usize = 4000;
        let mut drawn = Vec::new();
        let mut kept = Vec::new();
        for (d, c) in capped_shapes() {
            let nbrs: Vec<u32> = (0..d as u32).collect();
            let mut count = vec![0usize; d];
            for trial in 0..TRIALS {
                let mut rng = StdRng::seed_from_u64(trial as u64);
                let dropped = sample_positions(&mut rng, &mut drawn, d, c);
                kept.clear();
                push_kept(&drawn, &nbrs, dropped, &mut kept);
                for &p in &kept {
                    count[p] += 1;
                }
            }
            // Each position's count is Binomial(TRIALS, c/d); allow 5 σ.
            let p = c as f64 / d as f64;
            let mean = TRIALS as f64 * p;
            let bound = 5.0 * (mean * (1.0 - p)).sqrt();
            for (pos, &n) in count.iter().enumerate() {
                assert!(
                    (n as f64 - mean).abs() <= bound,
                    "d {d} c {c}: position {pos} kept {n} times, expected {mean:.0} ± {bound:.0}"
                );
            }
        }
    }

    #[test]
    fn all_subsets_of_five_are_equally_likely() {
        const DRAWS: usize = 20_000;
        let nbrs: Vec<u32> = (0..5).collect();
        let mut drawn = Vec::new();
        let mut kept = Vec::new();
        for c in [2, 3] {
            let mut rng = StdRng::seed_from_u64(11);
            let mut count = [0usize; 32];
            for _ in 0..DRAWS {
                let dropped = sample_positions(&mut rng, &mut drawn, 5, c);
                kept.clear();
                push_kept(&drawn, &nbrs, dropped, &mut kept);
                count[kept.iter().fold(0, |m, &p| m | 1 << p)] += 1;
            }
            let seen: Vec<usize> = (0..32).filter(|&m| count[m] > 0).collect();
            assert!(seen.iter().all(|&m| (m as u32).count_ones() == c as u32));
            assert_eq!(seen.len(), 10, "c {c}: every one of the 10 subsets appears");
            // χ² with 9 degrees of freedom; 40 is far in its tail
            // (p ≈ 8e-6), so a fair sampler passes with room to spare.
            let expected = DRAWS as f64 / 10.0;
            let chi2: f64 = seen
                .iter()
                .map(|&m| (count[m] as f64 - expected).powi(2) / expected)
                .sum();
            assert!(chi2 < 40.0, "c {c}: χ² {chi2:.1} over {:?}", &count);
        }
    }

    #[test]
    fn bounded_draws_stay_below_their_bound() {
        let mut rng = StdRng::seed_from_u64(5);
        for n in [1u64, 2, 3, 7, 64, 1000, u64::MAX] {
            for _ in 0..200 {
                assert!(below(&mut rng, n) < n);
            }
        }
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
