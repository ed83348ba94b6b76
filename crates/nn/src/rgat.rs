//! RGAT — a KBGAT-style relational graph attention layer.
//!
//! The paper swaps this in for ConvGAT in the `HisRES-w/-RGAT` ablation
//! (Table 4, part 3). Compared to [`crate::ConvGatLayer`] it lacks both
//! the two-stage attention MLP and the convolutional ψ fusion: the logit
//! is a single linear map of `[s ‖ r ‖ o]` and the message is a plain
//! linear map of the concatenation.

use crate::linear::Linear;
use hisres_graph::EdgeList;
use hisres_tensor::{ParamStore, Tensor};
use hisres_util::rng::Rng;

/// One RGAT layer.
pub struct RgatLayer {
    att: Linear,
    w_msg: Linear,
    w_self: Linear,
}

impl RgatLayer {
    /// Registers a layer under `name`.
    pub fn new<R: Rng>(store: &mut ParamStore, name: &str, dim: usize, rng: &mut R) -> Self {
        Self {
            att: Linear::new(store, &format!("{name}.att"), 3 * dim, 1, false, rng),
            w_msg: Linear::new(store, &format!("{name}.w_msg"), 3 * dim, dim, false, rng),
            w_self: Linear::new(store, &format!("{name}.w_self"), dim, dim, false, rng),
        }
    }

    /// Applies the layer, returning updated entity features.
    pub fn forward(&self, entities: &Tensor, relations: &Tensor, edges: &EdgeList) -> Tensor {
        let self_part = self.w_self.forward(entities);
        if edges.is_empty() {
            return self_part.rrelu();
        }
        let s = entities.gather_rows(&edges.src);
        let r = relations.gather_rows(&edges.rel);
        let o = entities.gather_rows(&edges.dst);
        let feat = Tensor::concat_cols(&[&s, &r, &o]);
        let theta = self
            .att
            .forward(&feat)
            .leaky_relu(0.2)
            .segment_softmax(&edges.dst, entities.rows());
        let msg = self.w_msg.forward(&feat).mul_col(&theta);
        let agg = msg.scatter_add_rows(&edges.dst, entities.rows());
        agg.add(&self_part).rrelu()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    
    use hisres_util::rng::rngs::StdRng;
    use hisres_util::rng::SeedableRng;

    fn setup() -> (ParamStore, RgatLayer, Tensor, Tensor, EdgeList) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let l = RgatLayer::new(&mut store, "rgat", 4, &mut rng);
        let ents = Tensor::param(hisres_tensor::init::xavier_normal(3, 4, &mut rng));
        let rels = Tensor::param(hisres_tensor::init::xavier_normal(2, 4, &mut rng));
        let mut e = EdgeList::new();
        e.push(0, 0, 2);
        e.push(1, 1, 2);
        (store, l, ents, rels, e)
    }

    #[test]
    fn forward_shape() {
        let (_s, l, ents, rels, e) = setup();
        assert_eq!(l.forward(&ents, &rels, &e).shape(), (3, 4));
    }

    #[test]
    fn gradients_reach_parameters() {
        let (s, l, ents, rels, e) = setup();
        l.forward(&ents, &rels, &e).sum_all().backward();
        for (name, p) in s.named_params() {
            assert!(p.grad().is_some(), "no grad for {name}");
        }
    }

    #[test]
    fn empty_graph_self_transform_only() {
        let (_s, l, ents, rels, _e) = setup();
        let y = l.forward(&ents, &rels, &EdgeList::new());
        assert_eq!(y.shape(), (3, 4));
    }

    #[test]
    fn rows_no_edge_points_into_equal_the_edge_free_forward() {
        let (_s, l, _ents, _rels, _e) = setup();
        let (ents, rels, g) = crate::untouched::inputs();
        crate::untouched::assert_rows_match(|e| l.forward(&ents, &rels, e), &g);
    }

    #[test]
    fn has_fewer_parameters_than_convgat() {
        let mut s1 = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let _ = RgatLayer::new(&mut s1, "a", 8, &mut rng);
        let mut s2 = ParamStore::new();
        let _ = crate::ConvGatLayer::new(&mut s2, "b", 8, 3, &mut rng);
        assert!(s1.num_scalars() < s2.num_scalars());
    }
}
