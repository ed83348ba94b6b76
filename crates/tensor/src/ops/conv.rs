//! Same-padded 1-D convolution over multi-channel feature rows.
//!
//! The ConvTransE decoder stacks the subject and relation embeddings as a
//! 2-channel, length-`d` signal and convolves it with `c_out` kernels of
//! width `k`. A `[b, c_in, l]` batch is stored row-major inside a 2-D
//! tensor of shape `[b, c_in * l]` (channel-major within each row), and the
//! kernel bank as `[c_out, c_in * k]`.

use crate::ndarray::NdArray;
use crate::tensor::Tensor;
use std::cell::Cell;

impl NdArray {
    /// Same-padded 1-D convolution into a caller-owned `[b, c_out * l]`
    /// buffer. This is the forward kernel of [`Tensor::conv1d_same`]
    /// (which calls it), so the two are bit-identical by construction.
    /// Every output element is overwritten (each position's accumulator is
    /// computed from scratch), so the buffer needs no zero-fill.
    pub fn conv1d_same_into(&self, weight: &NdArray, c_in: usize, k: usize, out: &mut NdArray) {
        assert!(k % 2 == 1, "conv1d_same requires odd kernel width, got {k}");
        let (b, ctl) = self.shape();
        assert!(c_in > 0 && ctl % c_in == 0, "input width {ctl} not divisible by c_in {c_in}");
        let l = ctl / c_in;
        let (c_out, wk) = weight.shape();
        assert_eq!(wk, c_in * k, "kernel bank width");
        assert_eq!(out.shape(), (b, c_out * l), "conv1d_same_into output shape");
        let pad = k / 2;
        if out.is_empty() {
            return;
        }
        // Batch-row parallel: each output row depends only on its own
        // input row, so the partition cannot change results.
        let row_flops = c_out * l * c_in * k;
        let min_rows = (16 * 1024usize).div_ceil(row_flops + 1).max(1);
        hisres_util::pool::current().par_chunks_mut(
            out.as_mut_slice(),
            c_out * l,
            min_rows,
            |row0, chunk| {
                for (ri, orow) in chunk.chunks_exact_mut(c_out * l).enumerate() {
                    let xrow = self.row(row0 + ri);
                    for co in 0..c_out {
                        let wrow = weight.row(co);
                        for pos in 0..l {
                            let mut acc = 0.0;
                            for ci in 0..c_in {
                                let xc = &xrow[ci * l..(ci + 1) * l];
                                let wc = &wrow[ci * k..(ci + 1) * k];
                                for (kk, &wv) in wc.iter().enumerate() {
                                    let ip = pos + kk;
                                    if ip >= pad && ip - pad < l {
                                        acc += wv * xc[ip - pad];
                                    }
                                }
                            }
                            orow[co * l + pos] = acc;
                        }
                    }
                }
            },
        );
    }
}

impl Tensor {
    /// Same-padded 1-D convolution.
    ///
    /// * `self`: `[b, c_in * l]` input (channel-major rows)
    /// * `weight`: `[c_out, c_in * k]` kernel bank (`k` odd)
    /// * returns `[b, c_out * l]`
    pub fn conv1d_same(&self, weight: &Tensor, c_in: usize, k: usize) -> Tensor {
        let x = self.value();
        let w = weight.value();
        let (b, ctl) = x.shape();
        assert!(c_in > 0 && ctl % c_in == 0, "input width {ctl} not divisible by c_in {c_in}");
        let l = ctl / c_in;
        let (c_out, _) = w.shape();
        let mut out = NdArray::zeros(b, c_out * l);
        x.conv1d_same_into(&w, c_in, k, &mut out);
        drop((x, w));
        let (xs, ws) = (self.clone(), weight.clone());
        Tensor::from_op(out, vec![self.clone(), weight.clone()], move |g| {
            let (gx, gw) = conv1d_same_backward(&xs.value(), &ws.value(), g, c_in, k);
            vec![Some(gx), Some(gw)]
        })
    }
}

thread_local! {
    /// Per-thread scratch of [`conv1d_same_backward`]: one batch row's
    /// upstream gradient transposed to `[l, c_pad]`, then the kernel
    /// gradient transposed to `[c_in * k, c_pad]` (`c_pad` is `c_out`
    /// rounded up to [`CO_LANES`]). Taken out for the call and put back
    /// after, so a warm call allocates only what it returns.
    static CONV_SCRATCH: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// Output channels whose kernel-gradient accumulators
/// [`conv1d_same_backward`] holds in registers at once.
const CO_LANES: usize = 8;

/// `g · v`, or `+0.0` where the upstream gradient `g` is exactly zero.
/// Adding that `+0.0` to an accumulator that started at `+0.0` (and so is
/// never `−0.0`) leaves it unchanged, which gives the bits of skipping the
/// term; a `0 × Inf` or `0 × NaN` never reaches the sum. A select rather
/// than a branch, so the loops around it vectorise.
#[inline]
fn nz_mul(g: f32, v: f32) -> f32 {
    if g == 0.0 { 0.0 } else { g * v } // lint:allow(float-eq): an exactly-zero upstream gradient contributes nothing; the select keeps the bits of skipping it
}

/// For kernel tap `kk` of a same-padded width-`k` kernel over length `l`:
/// the first input position, the first output position and the number of
/// output positions `pos` whose input `pos + kk − pad` lies in `[0, l)`.
fn tap_range(kk: usize, k: usize, l: usize) -> (usize, usize, usize) {
    let pad = k / 2;
    let (q0, p0) = if kk >= pad { (kk - pad, 0) } else { (0, pad - kk) };
    (q0, p0, l.saturating_sub(q0 + p0))
}

/// Gradients of [`Tensor::conv1d_same`] with respect to its input `x`
/// (`[b, c_in * l]`) and kernel bank `w` (`[c_out, c_in * k]`) for the
/// upstream gradient `g` (`[b, c_out * l]`).
///
/// Each output keeps the serial order of the scalar loop it replaces
/// (batch row, then output channel, then output position, ascending);
/// only the loops *across* outputs are reordered so they vectorise:
/// * `gx` input position `q` sums `g[co][pos] · w[co][ci][kk]` over `co`
///   ascending, then `pos = q + pad − kk` ascending — so for each
///   `(co, ci)` the taps run with `kk` *descending*, each an axpy over
///   every `q` it reaches;
/// * `gw[co][ci][kk]` sums `g[co][pos] · x[ci][pos + kk − pad]` over
///   `(bi, pos)` ascending, vectorised across [`CO_LANES`] output channels
///   in a transposed accumulator held in registers along each row.
fn conv1d_same_backward(
    x: &NdArray,
    w: &NdArray,
    g: &NdArray,
    c_in: usize,
    k: usize,
) -> (NdArray, NdArray) {
    let (b, ctl) = x.shape();
    let l = ctl / c_in;
    let (c_out, _) = w.shape();
    let mut gx = NdArray::zeros(b, c_in * l);
    let mut gw = NdArray::zeros(c_out, c_in * k);
    if l == 0 || c_out == 0 {
        return (gx, gw);
    }
    let c_pad = c_out.next_multiple_of(CO_LANES);
    let mut scratch = CONV_SCRATCH.with(Cell::take);
    scratch.clear();
    scratch.resize((l + c_in * k) * c_pad, 0.0);
    let (g_t, acc) = scratch.split_at_mut(l * c_pad);
    for bi in 0..b {
        let xrow = x.row(bi);
        let grow = g.row(bi);
        let gxrow = gx.row_mut(bi);
        for (co, gc) in grow.chunks_exact(l).enumerate() {
            for (gxc, wc) in gxrow.chunks_exact_mut(l).zip(w.row(co).chunks_exact(k)) {
                for (kk, &wv) in wc.iter().enumerate().rev() {
                    let (q0, p0, n) = tap_range(kk, k, l);
                    if n == 0 {
                        continue;
                    }
                    for (o, &gv) in gxc[q0..][..n].iter_mut().zip(&gc[p0..][..n]) {
                        *o += nz_mul(gv, wv);
                    }
                }
            }
            for (pos, &gv) in gc.iter().enumerate() {
                g_t[pos * c_pad + co] = gv; // padding lanes stay +0.0
            }
        }
        for (ci, xc) in xrow.chunks_exact(l).enumerate() {
            for kk in 0..k {
                let (q0, p0, n) = tap_range(kk, k, l);
                if n == 0 {
                    continue;
                }
                let a = &mut acc[(ci * k + kk) * c_pad..][..c_pad];
                for (c0, a) in a.chunks_exact_mut(CO_LANES).enumerate() {
                    let mut r = [0.0f32; CO_LANES];
                    r.copy_from_slice(a);
                    for (pos, &xv) in (p0..).zip(&xc[q0..][..n]) {
                        let gp = &g_t[pos * c_pad + c0 * CO_LANES..][..CO_LANES];
                        for (o, &gv) in r.iter_mut().zip(gp) {
                            *o += nz_mul(gv, xv);
                        }
                    }
                    a.copy_from_slice(&r);
                }
            }
        }
    }
    for (j, a) in acc.chunks_exact(c_pad).enumerate() {
        for (co, &v) in a[..c_out].iter().enumerate() {
            gw.set(co, j, v);
        }
    }
    CONV_SCRATCH.with(|c| c.set(scratch));
    (gx, gw)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_kernel_reproduces_input() {
        // one input channel, one output channel, k=3 kernel [0,1,0]
        let x = Tensor::param(NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 4]));
        let w = Tensor::param(NdArray::from_vec(vec![0.0, 1.0, 0.0], &[1, 3]));
        let y = x.conv1d_same(&w, 1, 3);
        assert_eq!(y.value().as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn shift_kernel_pads_with_zero() {
        // kernel [1,0,0] shifts the signal right by one with zero entering
        let x = Tensor::param(NdArray::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]));
        let w = Tensor::param(NdArray::from_vec(vec![1.0, 0.0, 0.0], &[1, 3]));
        let y = x.conv1d_same(&w, 1, 3);
        assert_eq!(y.value().as_slice(), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn two_channels_sum_into_output() {
        // x has channels [1,2] and [10,20]; kernel k=1 with weights 1 and 1
        let x = Tensor::param(NdArray::from_vec(vec![1.0, 2.0, 10.0, 20.0], &[1, 4]));
        let w = Tensor::param(NdArray::from_vec(vec![1.0, 1.0], &[1, 2]));
        let y = x.conv1d_same(&w, 2, 1);
        assert_eq!(y.value().as_slice(), &[11.0, 22.0]);
    }

    #[test]
    fn gradients_flow_to_input_and_kernel() {
        let x = Tensor::param(NdArray::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]));
        let w = Tensor::param(NdArray::from_vec(vec![0.5, 1.0, -0.5], &[1, 3]));
        x.conv1d_same(&w, 1, 3).sum_all().backward();
        // dW[kk] = sum over positions of contributing x values
        let gw = w.grad().unwrap();
        assert_eq!(gw.as_slice(), &[3.0, 6.0, 5.0]); // x[0..2]+pads, all x, x[1..]+pads
        let gx = x.grad().unwrap();
        // each x feeds up to 3 outputs with the kernel weights reversed at borders
        assert_eq!(gx.as_slice(), &[1.5, 1.0, 0.5]);
    }

    #[test]
    fn batch_rows_are_independent() {
        let x = Tensor::param(NdArray::from_vec(vec![1.0, 0.0, 0.0, 2.0], &[2, 2]));
        let w = Tensor::param(NdArray::from_vec(vec![0.0, 1.0, 0.0], &[1, 3]));
        let y = x.conv1d_same(&w, 1, 3);
        assert_eq!(y.value().row(0), &[1.0, 0.0]);
        assert_eq!(y.value().row(1), &[0.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "odd kernel")]
    fn even_kernel_rejected() {
        let x = Tensor::param(NdArray::zeros(1, 4));
        let w = Tensor::param(NdArray::zeros(1, 2));
        x.conv1d_same(&w, 1, 2);
    }
}
