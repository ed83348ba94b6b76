//! Composition-based relational graph convolution (paper eq. 3 and 5).
//!
//! One layer computes, for every edge `(s, r, o)` of a snapshot graph,
//! the message `W₁(s + r)` (the "subject + relation" composition operator
//! of CompGCN/RE-GCN), normalises by the destination in-degree, sums into
//! objects, adds the self-loop `W₂ o`, and applies RReLU. Relations are
//! optionally co-updated per layer with `R ← RReLU(W_r R)` (eq. 5) —
//! HisRES's *relation updating*, ablated as `HisRES-w/o-RU`.

use crate::linear::Linear;
use hisres_graph::EdgeList;
use hisres_tensor::{ParamStore, Tensor};
use hisres_util::rng::Rng;

/// One CompGCN aggregation layer.
pub struct CompGcnLayer {
    w_msg: Linear,
    w_self: Linear,
    w_rel: Option<Linear>,
}

impl CompGcnLayer {
    /// Registers a layer under `name`; `relation_update` controls whether
    /// eq. 5's relation transform is present.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        dim: usize,
        relation_update: bool,
        rng: &mut R,
    ) -> Self {
        Self {
            w_msg: Linear::new(store, &format!("{name}.w_msg"), dim, dim, false, rng),
            w_self: Linear::new(store, &format!("{name}.w_self"), dim, dim, false, rng),
            w_rel: relation_update
                .then(|| Linear::new(store, &format!("{name}.w_rel"), dim, dim, false, rng)),
        }
    }

    /// Applies the layer.
    ///
    /// * `entities` — `[num_entities, d]` node features;
    /// * `relations` — `[2·num_relations, d]` relation features (raw +
    ///   inverse ids);
    /// * `edges` — the snapshot's augmented edge list.
    ///
    /// Returns the new `(entities, relations)` matrices; relations pass
    /// through unchanged when relation updating is disabled.
    pub fn forward(
        &self,
        entities: &Tensor,
        relations: &Tensor,
        edges: &EdgeList,
    ) -> (Tensor, Tensor) {
        let self_part = self.w_self.forward(entities);
        let out_e = if edges.is_empty() {
            // isolated snapshot: only the self-loop applies
            self_part.rrelu()
        } else {
            let s = entities.gather_rows(&edges.src);
            let r = relations.gather_rows(&edges.rel);
            let msg = self.w_msg.forward(&s.add(&r));
            let norm = hisres_tensor::NdArray::from_vec(
                edges.inv_in_degree_per_edge(entities.rows()),
                &[edges.len(), 1],
            );
            let msg = msg.mul_col(&Tensor::constant(norm));
            let agg = msg.scatter_add_rows(&edges.dst, entities.rows());
            agg.add(&self_part).rrelu()
        };
        let out_r = match &self.w_rel {
            Some(w) => w.forward(relations).rrelu(),
            None => relations.clone(),
        };
        (out_e, out_r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hisres_tensor::NdArray;
    use hisres_util::rng::rngs::StdRng;
    use hisres_util::rng::SeedableRng;

    fn layer(dim: usize, ru: bool) -> (ParamStore, CompGcnLayer) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let l = CompGcnLayer::new(&mut store, "gcn", dim, ru, &mut rng);
        (store, l)
    }

    fn simple_edges() -> EdgeList {
        let mut e = EdgeList::new();
        e.push(0, 0, 1);
        e.push(2, 1, 1);
        e
    }

    #[test]
    fn shapes_are_preserved() {
        let (_s, l) = layer(4, true);
        let ents = Tensor::constant(NdArray::zeros(3, 4));
        let rels = Tensor::constant(NdArray::zeros(2, 4));
        let (e, r) = l.forward(&ents, &rels, &simple_edges());
        assert_eq!(e.shape(), (3, 4));
        assert_eq!(r.shape(), (2, 4));
    }

    #[test]
    fn empty_edge_list_applies_self_loop_only() {
        let (_s, l) = layer(4, false);
        let ents = Tensor::constant(NdArray::full(2, 4, 1.0));
        let rels = Tensor::constant(NdArray::zeros(1, 4));
        let (e, _r) = l.forward(&ents, &rels, &EdgeList::new());
        // self-loop of a nonzero input through a random W is nonzero
        assert!(e.value().sq_norm() > 0.0);
    }

    #[test]
    fn isolated_nodes_receive_only_self_loop() {
        let (_s, l) = layer(4, false);
        let ents = Tensor::constant(NdArray::full(3, 4, 0.5));
        let rels = Tensor::constant(NdArray::full(2, 4, 0.1));
        let (with_edges, _) = l.forward(&ents, &rels, &simple_edges());
        let (no_edges, _) = l.forward(&ents, &rels, &EdgeList::new());
        // node 2 has no incoming edge, so both runs agree on its row
        assert_eq!(with_edges.value().row(2), no_edges.value().row(2));
        // node 1 has two incoming edges, so the rows differ
        assert_ne!(with_edges.value().row(1), no_edges.value().row(1));
    }

    #[test]
    fn rows_no_edge_points_into_equal_the_edge_free_forward() {
        let (_s, l) = layer(4, false);
        let (ents, rels, g) = crate::untouched::inputs();
        crate::untouched::assert_rows_match(|e| l.forward(&ents, &rels, e).0, &g);
    }

    #[test]
    fn relation_update_changes_relations() {
        let (_s, l) = layer(4, true);
        let ents = Tensor::constant(NdArray::full(3, 4, 0.3));
        let rels = Tensor::constant(NdArray::full(2, 4, 0.7));
        let (_e, r) = l.forward(&ents, &rels, &simple_edges());
        assert_ne!(r.value_clone(), rels.value_clone());
    }

    #[test]
    fn no_relation_update_passes_relations_through() {
        let (_s, l) = layer(4, false);
        let ents = Tensor::constant(NdArray::full(3, 4, 0.3));
        let rels = Tensor::constant(NdArray::full(2, 4, 0.7));
        let (_e, r) = l.forward(&ents, &rels, &simple_edges());
        assert_eq!(r.value_clone(), rels.value_clone());
    }

    #[test]
    fn in_degree_normalisation_averages_parallel_messages() {
        // two identical edges into node 1 must aggregate to the same value
        // as a single such edge (mean, not sum)
        let (_s, l) = layer(3, false);
        let ents = Tensor::constant(NdArray::full(2, 3, 0.4));
        let rels = Tensor::constant(NdArray::full(1, 3, 0.2));
        let mut one = EdgeList::new();
        one.push(0, 0, 1);
        let mut two = EdgeList::new();
        two.push(0, 0, 1);
        two.push(0, 0, 1);
        let (e1, _) = l.forward(&ents, &rels, &one);
        let (e2, _) = l.forward(&ents, &rels, &two);
        for (a, b) in e1.value().row(1).iter().zip(e2.value().row(1)) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn gradients_flow_through_two_stacked_layers() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let l1 = CompGcnLayer::new(&mut store, "l1", 4, true, &mut rng);
        let l2 = CompGcnLayer::new(&mut store, "l2", 4, true, &mut rng);
        let ents = Tensor::param(NdArray::full(3, 4, 0.2));
        let rels = Tensor::param(NdArray::full(2, 4, 0.1));
        let (e, r) = l1.forward(&ents, &rels, &simple_edges());
        let (e, r) = l2.forward(&e, &r, &simple_edges());
        e.sum_all().add(&r.sum_all()).backward();
        assert!(ents.grad().is_some());
        assert!(rels.grad().is_some());
        for (name, p) in store.named_params() {
            assert!(p.grad().is_some(), "no grad for {name}");
        }
    }
}
