//! The analytic cost model of the paper's case study (§2.2, Eqs. 2–3).

use gcnp_models::GnnModel;
use serde::{Deserialize, Serialize};

/// Per-model analytic costs on a graph with `n_nodes` and average degree `d`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CostModel {
    pub n_nodes: usize,
    /// Average degree of the (directed) adjacency.
    pub avg_degree: f64,
}

impl CostModel {
    /// Create a cost model for the given graph statistics.
    pub fn new(n_nodes: usize, avg_degree: f64) -> Self {
        Self {
            n_nodes,
            avg_degree,
        }
    }

    /// Full-inference MACs **per node** (Eq. 2):
    /// `Σ_i [ Σ_{k≥1} k·d·min(f_in, f_out) + Σ_k f_in·f_out ]`.
    ///
    /// The `min` is the cheaper of aggregate-then-transform vs
    /// transform-then-aggregate for each graph branch, which is the order
    /// [`crate::FullEngine`] runs it in ([`gcnp_models::Branch::projects_first`]).
    pub fn full_macs_per_node(&self, model: &GnnModel) -> f64 {
        let mut macs = 0.0f64;
        for layer in &model.layers {
            for b in &layer.branches {
                let fin = b.in_dim() as f64;
                let fout = b.out_dim() as f64;
                if b.k >= 1 {
                    let summed = if b.projects_first() { fout } else { fin };
                    macs += b.k as f64 * self.avg_degree * summed;
                }
                macs += fin * fout;
            }
        }
        macs
    }

    /// Full-inference kMACs per node — the paper's Table 3 metric.
    pub fn full_kmacs_per_node(&self, model: &GnnModel) -> f64 {
        self.full_macs_per_node(model) / 1e3
    }

    /// Full-inference memory in bytes (Eq. 2): per layer,
    /// `|V| · (f_in + Σ_k f_out_k)` activations (in-place point-wise ops, no
    /// stored intermediates) plus the weights.
    pub fn full_memory_bytes(&self, model: &GnnModel) -> usize {
        let mut floats = 0usize;
        for layer in &model.layers {
            let fin = layer.branches.iter().map(|b| b.in_dim()).max().unwrap_or(0);
            let fout: usize = layer.branches.iter().map(|b| b.out_dim()).sum();
            floats += self.n_nodes * (fin + fout);
        }
        (floats + model.n_weights()) * std::mem::size_of::<f32>()
    }

    /// Batched-inference MACs per **target** node for an `L`-layer model
    /// (Eq. 3): layer *i* touches `Σ_{l=0}^{L-i} d^l` supporting nodes per
    /// target, each paying that layer's per-node cost. `fanout` caps `d` (the
    /// paper limits hop-2 neighbors to 32).
    ///
    /// Each branch is priced in the order the batched engine runs it.
    /// Layer 1's branches read the static attribute matrix, so each has its
    /// `X·W` as a per-engine table: a batch pays `k·d·f_out` adds per node
    /// for a neighbour branch, and no transform for any. Those tables cost
    /// at most `|V|·f_in·f_out` per branch per engine (the neighbour
    /// branch's at construction, the `k = 0` branch's row by row as batches
    /// first touch its nodes), not a per-target cost, and are not counted
    /// here. Every hidden level aggregates first (`k·d·f_in +
    /// f_in·f_out`): its input is rebuilt every batch.
    pub fn batched_macs_per_node(&self, model: &GnnModel, fanout_cap: Option<usize>) -> f64 {
        let d = match fanout_cap {
            Some(c) => self.avg_degree.min(c as f64),
            None => self.avg_degree,
        };
        let graph_layers = model.layers.iter().filter(|l| l.uses_graph()).count();
        let mut macs = 0.0f64;
        let mut depth_below = graph_layers; // hops of expansion below layer i
        for (li, layer) in model.layers.iter().enumerate() {
            if layer.uses_graph() {
                depth_below -= 1;
            }
            // supporting nodes per target at this layer
            let mut support = 0.0f64;
            let mut dl = 1.0f64;
            for _ in 0..=depth_below {
                support += dl;
                dl *= d;
            }
            let mut per_node = 0.0f64;
            for b in &layer.branches {
                let fin = b.in_dim() as f64;
                let fout = b.out_dim() as f64;
                let k = b.k as f64;
                per_node += match (li, b.k) {
                    (0, _) => k * d * fout,
                    (_, 0) => fin * fout,
                    _ => k * d * fin + fin * fout,
                };
            }
            macs += support * per_node;
        }
        macs
    }

    /// Batched kMACs per target node.
    pub fn batched_kmacs_per_node(&self, model: &GnnModel, fanout_cap: Option<usize>) -> f64 {
        self.batched_macs_per_node(model, fanout_cap) / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnp_models::zoo;

    #[test]
    fn full_macs_match_hand_count() {
        // SAGE: L1 (fin=10 -> 2x4), L2 (8 -> 2x4), cls (8 -> 3); d = 5.
        let model = zoo::graphsage(10, 8, 3, 1);
        let cm = CostModel::new(100, 5.0);
        // L1: k0: 10*4; k1: 5*min(10,4) + 10*4 ; L2: k0: 8*4; k1: 5*4+8*4; cls: 8*3
        let expect = (10 * 4) as f64
            + (5 * 4 + 10 * 4) as f64
            + (8 * 4) as f64
            + (5 * 4 + 8 * 4) as f64
            + (8 * 3) as f64;
        assert!((cm.full_macs_per_node(&model) - expect).abs() < 1e-9);
    }

    #[test]
    fn pruning_reduces_all_costs() {
        let full = zoo::graphsage(100, 64, 10, 2);
        let mut pruned = full.clone();
        // Simulate an η=0.5 full-inference pruning by halving interface dims.
        for b in &mut pruned.layers[0].branches {
            b.weight = b.weight.select_cols(&(0..16).collect::<Vec<_>>());
        }
        for b in &mut pruned.layers[1].branches {
            b.weight = b
                .weight
                .select_rows(&(0..32).collect::<Vec<_>>())
                .select_cols(&(0..16).collect::<Vec<_>>());
        }
        pruned.layers[2].branches[0].weight = pruned.layers[2].branches[0]
            .weight
            .select_rows(&(0..32).collect::<Vec<_>>());
        if let Some(bias) = &mut pruned.layers[0].bias {
            *bias = bias.select_cols(&(0..32).collect::<Vec<_>>());
        }
        if let Some(bias) = &mut pruned.layers[1].bias {
            *bias = bias.select_cols(&(0..32).collect::<Vec<_>>());
        }
        let cm = CostModel::new(1000, 10.0);
        assert!(cm.full_macs_per_node(&pruned) < 0.6 * cm.full_macs_per_node(&full));
        assert!(cm.full_memory_bytes(&pruned) < cm.full_memory_bytes(&full));
        assert!(
            cm.batched_macs_per_node(&pruned, Some(32)) < cm.batched_macs_per_node(&full, Some(32))
        );
    }

    #[test]
    fn batched_macs_match_hand_count() {
        // SAGE: L1 (fin=10 -> 2x4), L2 (8 -> 2x4), cls (8 -> 3); d = 5.
        // L1, 1 + d nodes per target: k0 reads its table, no 10*4
        // transform; k1: 5*4 adds over the projection table, no 10*4
        // transform. L2, one node: k0: 8*4; k1: 5*8 + 8*4. cls: 8*3.
        let model = zoo::graphsage(10, 8, 3, 1);
        let cm = CostModel::new(100, 5.0);
        let expect =
            (1 + 5) as f64 * (5 * 4) as f64 + (8 * 4 + 5 * 8 + 8 * 4) as f64 + (8 * 3) as f64;
        assert!((cm.batched_macs_per_node(&model, None) - expect).abs() < 1e-9);
        // A cap of 2 bounds `d` in both the support and the adds.
        let expect =
            (1 + 2) as f64 * (2 * 4) as f64 + (8 * 4 + 2 * 8 + 8 * 4) as f64 + (8 * 3) as f64;
        assert!((cm.batched_macs_per_node(&model, Some(2)) - expect).abs() < 1e-9);
        // A SAGE whose layer 1 widens, 3 → 2x4: its neighbour branch reads
        // the table too, whatever the widths. L1, 1 + d nodes: k0 reads its
        // table; k1: 5*4 adds over the projection table. L2 and cls as above.
        let widening = zoo::graphsage(3, 8, 3, 1);
        let expect =
            (1 + 5) as f64 * (5 * 4) as f64 + (8 * 4 + 5 * 8 + 8 * 4) as f64 + (8 * 3) as f64;
        assert!((cm.batched_macs_per_node(&widening, None) - expect).abs() < 1e-9);
    }

    #[test]
    fn batched_cost_dominated_by_first_layer() {
        // SAGE 100 → 2x32 → 2x32 → 10, uncapped. Eq. 3 charges layer 1 on
        // the 1 + d nodes within one hop of a target, the rest on the
        // target alone. Both layer-1 branches read tables: the self branch
        // costs nothing per batch, the neighbour branch (32 < 100) d*32
        // adds per node. So layer 1 grows as (1 + d)·d — neighbour
        // explosion — and dominates once d nears a real graph's degree.
        // At d = 50:
        //   batched = 51 * (50*32)                = 81 600  (layer 1)
        //           +  (64*32 + 50*64 + 64*32)    =  7 296  (layer 2)
        //           +   64*10                     =    640  (classifier)
        //           = 89 536.
        // Eq. 2 per node: (100*32 + 50*32 + 100*32) + (64*32 + 50*32 +
        // 64*32) + 64*10 = 8 000 + 5 696 + 640 = 14 336. So batched is
        // 6.25× full, and layer 1 is 91 % of the batched cost.
        let model = zoo::graphsage(100, 64, 10, 3);
        let cm = CostModel::new(1000, 50.0);
        let batched = cm.batched_macs_per_node(&model, None);
        let full = cm.full_macs_per_node(&model);
        assert_eq!((batched, full), (89_536.0, 14_336.0));
        assert!(batched > 3.5 * full, "batched {batched} vs full {full}");
        let layer_one = 51.0 * (50.0 * 32.0);
        assert!(
            layer_one > 0.85 * batched,
            "layer 1 {layer_one} of {batched}"
        );
        // At d = 10, where this test read 44 096 while the self branch
        // still ran per batch, layer 1 is 11 * 320 = 3 520 of 8 896 and
        // batched is below full.
        let cm = CostModel::new(1000, 10.0);
        let sparse = (
            cm.batched_macs_per_node(&model, None),
            cm.full_macs_per_node(&model),
        );
        assert_eq!(sparse, (8_896.0, 11_776.0));
    }

    #[test]
    fn fanout_cap_bounds_batched_cost() {
        let model = zoo::graphsage(100, 64, 10, 4);
        let cm = CostModel::new(1000, 50.0);
        let capped = cm.batched_macs_per_node(&model, Some(10));
        let uncapped = cm.batched_macs_per_node(&model, None);
        assert!(capped < uncapped);
    }

    #[test]
    fn memory_scales_with_nodes() {
        let model = zoo::graphsage(100, 64, 10, 5);
        let small = CostModel::new(1000, 10.0).full_memory_bytes(&model);
        let large = CostModel::new(10_000, 10.0).full_memory_bytes(&model);
        assert!(large > 5 * small);
    }

    #[test]
    fn mlp_has_no_aggregation_cost() {
        let model = zoo::mlp(100, 64, 10, 6);
        let a = CostModel::new(1000, 5.0).full_macs_per_node(&model);
        let b = CostModel::new(1000, 50.0).full_macs_per_node(&model);
        assert_eq!(a, b, "degree must not matter for an MLP");
    }
}
