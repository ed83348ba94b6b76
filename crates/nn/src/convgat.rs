//! ConvGAT — the paper's convolution-based graph attention network
//! (eq. 10–11), the aggregator of the global relevance encoder.
//!
//! For every edge `(s, r, o)` of the globally relevant graph:
//!
//! 1. attention logit `W₄ · LeakyReLU(W₅ [s ‖ r ‖ o])` (eq. 10 numerator),
//! 2. `θ = segment_softmax(logits by destination)` (eq. 10),
//! 3. message `ψ(s + r)` where `ψ` is a same-padded 1-D convolution that
//!    mixes neighbouring embedding coordinates — the "conv" in ConvGAT,
//! 4. output `RReLU( Σ θ · W₆ ψ(s + r) + W₇ o )` (eq. 11).
//!
//! Relations are *not* updated here (the paper's design choice, §3.4.2).

use crate::linear::Linear;
use hisres_graph::EdgeList;
use hisres_tensor::init::xavier_uniform;
use hisres_tensor::{ParamStore, Tensor};
use hisres_util::rng::Rng;

/// One ConvGAT layer.
pub struct ConvGatLayer {
    w5: Linear,
    w4: Linear,
    psi: Tensor,
    psi_k: usize,
    w6: Linear,
    w7: Linear,
}

impl ConvGatLayer {
    /// Registers a layer under `name`. `conv_kernel` is the width of the
    /// ψ convolution (odd; the paper-scale default is 3).
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        dim: usize,
        conv_kernel: usize,
        rng: &mut R,
    ) -> Self {
        assert!(conv_kernel % 2 == 1, "conv kernel must be odd");
        Self {
            w5: Linear::new(store, &format!("{name}.w5"), 3 * dim, 3 * dim, false, rng),
            w4: Linear::new(store, &format!("{name}.w4"), 3 * dim, 1, false, rng),
            psi: store.param(format!("{name}.psi"), xavier_uniform(1, conv_kernel, rng)),
            psi_k: conv_kernel,
            w6: Linear::new(store, &format!("{name}.w6"), dim, dim, false, rng),
            w7: Linear::new(store, &format!("{name}.w7"), dim, dim, false, rng),
        }
    }

    /// Per-edge attention coefficients (eq. 10), exposed for inspection and
    /// the explanation API. Returns `[num_edges, 1]` weights that sum to 1
    /// within each destination group.
    pub fn attention(&self, entities: &Tensor, relations: &Tensor, edges: &EdgeList) -> Tensor {
        let s = entities.gather_rows(&edges.src);
        let r = relations.gather_rows(&edges.rel);
        let o = entities.gather_rows(&edges.dst);
        let feat = Tensor::concat_cols(&[&s, &r, &o]);
        let logits = self.w4.forward(&self.w5.forward(&feat).leaky_relu(0.2));
        logits.segment_softmax(&edges.dst, entities.rows())
    }

    /// Applies the layer, returning updated entity features.
    pub fn forward(&self, entities: &Tensor, relations: &Tensor, edges: &EdgeList) -> Tensor {
        let self_part = self.w7.forward(entities);
        if edges.is_empty() {
            return self_part.rrelu();
        }
        let theta = self.attention(entities, relations, edges);
        let s = entities.gather_rows(&edges.src);
        let r = relations.gather_rows(&edges.rel);
        let fused = s.add(&r).conv1d_same(&self.psi, 1, self.psi_k);
        let msg = self.w6.forward(&fused).mul_col(&theta);
        let agg = msg.scatter_add_rows(&edges.dst, entities.rows());
        agg.add(&self_part).rrelu()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hisres_tensor::NdArray;
    use hisres_util::rng::rngs::StdRng;
    use hisres_util::rng::SeedableRng;

    fn layer(dim: usize) -> (ParamStore, ConvGatLayer) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let l = ConvGatLayer::new(&mut store, "gat", dim, 3, &mut rng);
        (store, l)
    }

    fn edges() -> EdgeList {
        let mut e = EdgeList::new();
        e.push(0, 0, 2);
        e.push(1, 1, 2);
        e.push(2, 0, 0);
        e
    }

    #[test]
    fn forward_preserves_shape() {
        let (_s, l) = layer(4);
        let ents = Tensor::constant(NdArray::full(3, 4, 0.2));
        let rels = Tensor::constant(NdArray::full(2, 4, 0.1));
        assert_eq!(l.forward(&ents, &rels, &edges()).shape(), (3, 4));
    }

    #[test]
    fn attention_normalises_per_destination() {
        let (_s, l) = layer(4);
        let mut rng = StdRng::seed_from_u64(3);
        let ents = Tensor::constant(hisres_tensor::init::xavier_normal(3, 4, &mut rng));
        let rels = Tensor::constant(hisres_tensor::init::xavier_normal(2, 4, &mut rng));
        let att = l.attention(&ents, &rels, &edges());
        let v = att.value_clone();
        // edges 0 and 1 share destination 2
        assert!((v.get(0, 0) + v.get(1, 0) - 1.0).abs() < 1e-5);
        // edge 2 alone targets node 0
        assert!((v.get(2, 0) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn distinct_sources_get_distinct_attention() {
        let (_s, l) = layer(4);
        let mut rng = StdRng::seed_from_u64(9);
        let ents = Tensor::constant(hisres_tensor::init::xavier_normal(3, 4, &mut rng));
        let rels = Tensor::constant(hisres_tensor::init::xavier_normal(2, 4, &mut rng));
        let att = l.attention(&ents, &rels, &edges());
        assert_ne!(att.value().get(0, 0), att.value().get(1, 0));
    }

    #[test]
    fn empty_graph_reduces_to_self_transform() {
        let (_s, l) = layer(4);
        let ents = Tensor::constant(NdArray::full(2, 4, 0.5));
        let rels = Tensor::constant(NdArray::zeros(1, 4));
        let y = l.forward(&ents, &rels, &EdgeList::new());
        assert_eq!(y.shape(), (2, 4));
    }

    #[test]
    fn gradients_reach_all_parameters() {
        let (s, l) = layer(4);
        let mut rng = StdRng::seed_from_u64(4);
        let ents = Tensor::param(hisres_tensor::init::xavier_normal(3, 4, &mut rng));
        let rels = Tensor::param(hisres_tensor::init::xavier_normal(2, 4, &mut rng));
        l.forward(&ents, &rels, &edges()).sum_all().backward();
        for (name, p) in s.named_params() {
            assert!(p.grad().is_some(), "no grad for {name}");
        }
        assert!(ents.grad().is_some());
        assert!(rels.grad().is_some());
    }

    #[test]
    fn rows_no_edge_points_into_equal_the_edge_free_forward() {
        let (_s, l) = layer(4);
        let (ents, rels, g) = crate::untouched::inputs();
        crate::untouched::assert_rows_match(|e| l.forward(&ents, &rels, e), &g);
    }

    #[test]
    fn attention_can_learn_to_prefer_informative_edge() {
        // Node 2 receives from node 0 and node 1; target: node 2's output
        // should equal W6ψ(node0-message). Training should push attention
        // toward edge 0. We verify the loss decreases and attention moves.
        let (s, l) = layer(4);
        let mut rng = StdRng::seed_from_u64(8);
        let ents_init = hisres_tensor::init::xavier_normal(3, 4, &mut rng);
        let rels_init = hisres_tensor::init::xavier_normal(2, 4, &mut rng);
        let target = NdArray::full(1, 4, 0.7);
        let mut opt = hisres_tensor::Adam::new(s.params().cloned().collect(), 0.02);
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..150 {
            opt.zero_grad();
            let ents = Tensor::constant(ents_init.clone());
            let rels = Tensor::constant(rels_init.clone());
            let out = l.forward(&ents, &rels, &edges());
            let row2 = out.gather_rows(&[2]);
            let d = row2.sub(&Tensor::constant(target.clone()));
            let loss = d.mul(&d).mean_all();
            if first_loss.is_none() {
                first_loss = Some(loss.value().item());
            }
            last_loss = loss.value().item();
            loss.backward();
            opt.step();
        }
        assert!(
            last_loss < first_loss.unwrap() * 0.5,
            "loss {first_loss:?} -> {last_loss}"
        );
    }
}
