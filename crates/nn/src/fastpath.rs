//! Allocation-free `no_grad` forward passes over a [`Scratch`] arena.
//!
//! The serving hot path (encoder advance → decoder query → score) rebuilds
//! the same tensor shapes on every call, so each autograd forward spends
//! its time allocating output `NdArray`s it immediately throws away. The
//! `*_nograd*` methods here run the **exact same kernels in the exact same
//! order** as the `Tensor` forwards — every `_into` kernel is either the
//! extracted forward of its autograd twin or shares its scalar function —
//! so the results are `to_bits`-identical (the tests below pin this), but
//! all intermediates come from a caller-owned [`Scratch`] arena: after one
//! warmup call, steady-state forwards perform zero heap allocations.
//!
//! These paths are inference-only by construction: they never touch the
//! autograd tape, so the grad-path determinism contract is untouched.
//! Dropout (a training-only regulariser) is deliberately absent.

use crate::convtranse::ConvTransE;
use crate::gru::GruCell;
use crate::linear::Linear;
use hisres_tensor::{NdArray, Scratch};

impl Linear {
    /// [`Linear::forward`] writing into a caller-owned `[n, out_dim]`
    /// buffer — `x · W` (zero-filled accumulate) then the in-place bias
    /// broadcast, the same element order as the autograd op.
    pub fn forward_nograd_into(&self, x: &NdArray, out: &mut NdArray) {
        x.matmul_into(&self.w.value(), out);
        if let Some(b) = &self.b {
            out.add_row_assign(&b.value());
        }
    }
}

impl GruCell {
    /// [`GruCell::forward`] on raw values over a scratch arena:
    /// `h' = (1 - z) ⊙ h + z ⊙ h̃`, bit-identical to the autograd forward.
    /// The returned buffer belongs to the caller; `give` it back to the
    /// arena when done.
    pub fn forward_nograd(&self, x: &NdArray, h: &NdArray, s: &mut Scratch) -> NdArray {
        assert_eq!(x.shape(), h.shape(), "GRU input/hidden shape mismatch");
        let (n, d) = x.shape();

        // z = σ(x·Wz + bz + h·Uz)
        let mut z = s.take(n, d);
        self.wz.forward_nograd_into(x, &mut z);
        let mut tmp = s.take(n, d);
        self.uz.forward_nograd_into(h, &mut tmp);
        z.zip_assign(&tmp, |a, b| a + b);
        z.sigmoid_inplace();

        // r = σ(x·Wr + br + h·Ur), then reused in place as r ⊙ h
        let mut r = s.take(n, d);
        self.wr.forward_nograd_into(x, &mut r);
        self.ur.forward_nograd_into(h, &mut tmp);
        r.zip_assign(&tmp, |a, b| a + b);
        r.sigmoid_inplace();
        r.zip_assign(h, |a, b| a * b);

        // h̃ = tanh(x·Wh + bh + (r ⊙ h)·Uh)
        let mut ht = s.take(n, d);
        self.wh.forward_nograd_into(x, &mut ht);
        self.uh.forward_nograd_into(&r, &mut tmp);
        ht.zip_assign(&tmp, |a, b| a + b);
        ht.tanh_inplace();

        // h' = ((-z) + 1) ⊙ h + z ⊙ h̃ — the same scalar expression the
        // autograd path builds from neg/add_scalar/mul/add.
        let mut out = s.take(n, d);
        for ((o, (&zv, &htv)), &hv) in out
            .as_mut_slice()
            .iter_mut()
            .zip(z.as_slice().iter().zip(ht.as_slice()))
            .zip(h.as_slice())
        {
            *o = ((-zv) + 1.0) * hv + zv * htv;
        }

        s.give(z);
        s.give(tmp);
        s.give(r);
        s.give(ht);
        out
    }
}

impl ConvTransE {
    /// [`ConvTransE::query`] (eval mode) on raw values over a scratch
    /// arena: `[b, d]` query vectors, bit-identical to the autograd
    /// forward with `training = false`. The returned buffer belongs to
    /// the caller.
    pub fn query_nograd(&self, s_emb: &NdArray, r_emb: &NdArray, s: &mut Scratch) -> NdArray {
        assert_eq!(s_emb.shape(), r_emb.shape(), "subject/relation batch mismatch");
        let (b, d) = s_emb.shape();

        // concat_cols: [b, 2d] channel-major rows [s_row | r_row]
        let mut x = s.take(b, 2 * d);
        for i in 0..b {
            let row = x.row_mut(i);
            row[..d].copy_from_slice(s_emb.row(i));
            row[d..].copy_from_slice(r_emb.row(i));
        }

        let mut fmap = s.take(b, self.channels * d);
        x.conv1d_same_into(&self.kernels.value(), 2, self.kernel_width, &mut fmap);
        fmap.rrelu_inplace();

        let mut q = s.take(b, d);
        self.fc.forward_nograd_into(&fmap, &mut q);
        q.rrelu_inplace();

        s.give(x);
        s.give(fmap);
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hisres_tensor::{no_grad, ParamStore, Tensor};
    use hisres_util::rng::rngs::StdRng;
    use hisres_util::rng::SeedableRng;

    fn noise(rows: usize, cols: usize, seed: u64) -> NdArray {
        use hisres_util::rng::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        NdArray::from_vec(
            (0..rows * cols).map(|_| rng.gen_range(-1.5f32..1.5)).collect(),
            &[rows, cols],
        )
    }

    fn bits_eq(a: &NdArray, b: &NdArray) -> bool {
        a.shape() == b.shape()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn linear_nograd_into_is_bit_identical() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(7);
        let lin = Linear::new(&mut store, "l", 5, 3, true, &mut rng);
        let x = noise(4, 5, 1);
        let want = no_grad(|| lin.forward(&Tensor::constant(x.clone())).value_clone());
        let mut out = NdArray::full(4, 3, f32::NAN);
        no_grad(|| lin.forward_nograd_into(&x, &mut out));
        assert!(bits_eq(&out, &want));
    }

    #[test]
    fn gru_nograd_is_bit_identical_and_warm_after_one_call() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(11);
        let cell = GruCell::new(&mut store, "g", 6, &mut rng);
        let x = noise(9, 6, 2);
        let h = noise(9, 6, 3);
        let want = no_grad(|| {
            cell.forward(&Tensor::constant(x.clone()), &Tensor::constant(h.clone()))
                .value_clone()
        });
        let mut s = Scratch::new();
        let out = no_grad(|| cell.forward_nograd(&x, &h, &mut s));
        assert!(bits_eq(&out, &want));
        s.give(out);
        let warm = s.misses();
        let out2 = no_grad(|| cell.forward_nograd(&x, &h, &mut s));
        assert!(bits_eq(&out2, &want));
        assert_eq!(s.misses(), warm, "steady-state GRU forward must not allocate");
    }

    #[test]
    fn convtranse_nograd_is_bit_identical_and_warm_after_one_call() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(13);
        let dec = ConvTransE::new(&mut store, "dec", 8, 4, 3, 0.5, &mut rng);
        let s_emb = noise(3, 8, 4);
        let r_emb = noise(3, 8, 5);
        let want = no_grad(|| {
            dec.query(
                &Tensor::constant(s_emb.clone()),
                &Tensor::constant(r_emb.clone()),
                false,
                &mut rng,
            )
            .value_clone()
        });
        let mut s = Scratch::new();
        let out = no_grad(|| dec.query_nograd(&s_emb, &r_emb, &mut s));
        assert!(bits_eq(&out, &want));
        s.give(out);
        let warm = s.misses();
        let out2 = no_grad(|| dec.query_nograd(&s_emb, &r_emb, &mut s));
        assert!(bits_eq(&out2, &want));
        assert_eq!(s.misses(), warm, "steady-state decoder query must not allocate");
        s.give(out2);
    }
}
