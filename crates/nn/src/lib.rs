#![warn(missing_docs)]

//! # hisres-nn
//!
//! The neural building blocks of HisRES and its baselines, implemented on
//! top of the `hisres-tensor` autograd layer:
//!
//! * [`Linear`] — dense affine map;
//! * [`Embedding`] — trainable lookup table;
//! * [`GruCell`] — gated recurrent unit for entity/relation evolution
//!   (paper eq. 4, 6, 7);
//! * [`TimeEncoding`] — periodic cosine encoding of the time gap between a
//!   history snapshot and the prediction time (eq. 1–2);
//! * [`CompGcnLayer`] — composition-based relational GCN with optional
//!   relation updating (eq. 3, 5), the aggregator of the multi-granularity
//!   evolutionary encoder;
//! * [`ConvGatLayer`] — the paper's novel convolution-based graph attention
//!   network (eq. 10–11) used by the global relevance encoder;
//! * [`RgatLayer`] — a KBGAT-style attention aggregator, the paper's
//!   ablation comparator (`HisRES-w/-RGAT`);
//! * [`SelfGating`] — the adaptive fusion gate (eq. 8–9 and 13–14);
//! * [`ConvTransE`] — the convolutional decoder (eq. 12).
//!
//! The [`fastpath`] module adds allocation-free `no_grad` forwards for the
//! serving-critical layers ([`Linear`], [`GruCell`], [`ConvTransE`]) over a
//! [`hisres_tensor::Scratch`] arena; they are `to_bits`-identical to the
//! autograd forwards.
//!
//! All layers register their parameters in a caller-supplied
//! [`hisres_tensor::ParamStore`] under hierarchical names, take explicit
//! RNGs for initialisation, and are pure functions of tensors at forward
//! time.

pub mod compgcn;
pub mod convgat;
pub mod convtranse;
pub mod embedding;
pub mod fastpath;
pub mod gating;
pub mod gru;
pub mod linear;
pub mod rgat;
pub mod time;

pub use compgcn::CompGcnLayer;
pub use convgat::ConvGatLayer;
pub use convtranse::ConvTransE;
pub use embedding::Embedding;
pub use gating::SelfGating;
pub use gru::GruCell;
pub use linear::Linear;
pub use rgat::RgatLayer;
pub use time::TimeEncoding;

/// Shared check of the global aggregators' row invariant.
#[cfg(test)]
pub(crate) mod untouched {
    use hisres_graph::EdgeList;
    use hisres_tensor::{no_grad, NdArray, Tensor};
    use hisres_util::rng::rngs::StdRng;
    use hisres_util::rng::SeedableRng;

    /// Six entity rows — one all zero, one all negative — and two
    /// relations, plus a graph whose destinations are {0, 2}: row 1 is
    /// only a source and rows 3–5 are isolated.
    pub fn inputs() -> (Tensor, Tensor, EdgeList) {
        let mut rng = StdRng::seed_from_u64(11);
        let mut ents = hisres_tensor::init::xavier_normal(6, 4, &mut rng);
        for c in 0..4 {
            ents.set(4, c, 0.0);
            ents.set(5, c, -0.25 - c as f32);
        }
        let rels = hisres_tensor::init::xavier_normal(2, 4, &mut rng);
        let mut g = EdgeList::new();
        g.push(0, 0, 2);
        g.push(1, 1, 2);
        g.push(2, 0, 0);
        g.push(2, 1, 2);
        (Tensor::constant(ents), Tensor::constant(rels), g)
    }

    /// Asserts, with and without grad mode, that every row of
    /// `forward(g)` that is not a destination in `g` equals, to the bit,
    /// the same row of `forward(&EdgeList::new())`.
    pub fn assert_rows_match(forward: impl Fn(&EdgeList) -> Tensor, g: &EdgeList) {
        let bits = |a: &NdArray, r: usize| a.row(r).iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for grad in [true, false] {
            let run = |edges: &EdgeList| {
                if grad {
                    forward(edges).value_clone()
                } else {
                    no_grad(|| forward(edges).value_clone())
                }
            };
            let (with, without) = (run(g), run(&EdgeList::new()));
            for r in (0..with.rows()).filter(|&r| !g.dst.contains(&(r as u32))) {
                assert_eq!(
                    bits(&with, r),
                    bits(&without, r),
                    "row {r} (grad mode {grad})"
                );
            }
        }
    }
}
