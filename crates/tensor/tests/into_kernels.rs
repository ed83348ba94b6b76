//! The cache-tiled matmul family and the `_into` buffer-reuse kernels must
//! be **bit-identical** to the seed serial kernels — tiling and buffer
//! reuse are pure performance changes, never numeric ones.
//!
//! The references below re-implement the seed accumulation orders exactly:
//! `matmul` accumulated each output row in strictly ascending `kk` order
//! (with the finiteness-gated zero skip), and `matmul_nt` computed each
//! output element as one complete dot — serial single-accumulator in grad
//! mode, the fixed 8-lane tree ([`blocked_dot`]) in `no_grad` mode, and
//! `matmul_tn` accumulated each output row as an ascending-`i` axpy (with
//! the same zero skip). Shapes are drawn ragged and odd so tile boundaries
//! (8-row tiles, 32 KiB kk/j tiles, the 4×16 register tiles of the
//! gradient GEMM) land mid-matrix in both directions. The conv1d backward
//! is checked the same way against the seed's scalar loop.

use hisres_tensor::{blocked_dot, no_grad, NdArray, Scratch, Tensor};
use hisres_util::check::vec;
use hisres_util::pool::with_threads;
use hisres_util::{prop_assert, props};

fn bits_eq(a: &NdArray, b: &NdArray) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// [`bits_eq`] that counts any two NaNs as equal: which NaN payload an add
/// of two NaNs returns depends on operand position, which the compiler may
/// commute, so it is not part of the kernels' contract. Every other value,
/// the sign of zero and of infinity included, must match bit for bit.
fn bits_eq_nan(a: &NdArray, b: &NdArray) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

/// The seed `matmul_tn`: `selfᵀ · other` as an ascending-`i` axpy of row
/// `i` of `other` into every output row, with the finiteness-gated zero
/// skip. No tiling, no parallelism.
fn seed_matmul_tn(a: &NdArray, b: &NdArray) -> NdArray {
    let (n, k) = a.shape();
    let (_, m) = b.shape();
    let mut out = NdArray::zeros(k, m);
    let skip_zeros = !b.has_non_finite();
    for i in 0..n {
        for kk in 0..k {
            let av = a.get(i, kk);
            if skip_zeros && av == 0.0 {
                continue;
            }
            let brow = b.row(i);
            let orow = out.row_mut(kk);
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    out
}

/// Shapes that land on every tail of the 4×16 register tile: output rows
/// `4q + r` (r = 0–3), columns `16s + t` (t = 0, 8, 1–7, 9–15), and a
/// reduction length of 0, 1 or odd. Returns `(rows, cols, depth)`.
fn tile_tail_shape((q, r, s, t, d): (usize, usize, usize, usize, usize)) -> (usize, usize, usize) {
    let depth = match d {
        0 => 0,
        1 => 1,
        _ => 2 * d + 1,
    };
    ((4 * q + r).max(1), (16 * s + t).max(1), depth)
}

/// Puts a NaN or ±Inf (by `kind`) at position `at` of `buf`, or nothing
/// when `kind` is 0; every fifth entry is zeroed first so zeros meet the
/// non-finite values.
fn poison(buf: &mut [f32], kind: usize, at: usize) {
    buf.iter_mut().step_by(5).for_each(|v| *v = 0.0);
    if buf.is_empty() {
        return;
    }
    let i = at % buf.len();
    match kind {
        1 => buf[i] = f32::NAN,
        2 => buf[i] = f32::INFINITY,
        3 => buf[i] = f32::NEG_INFINITY,
        _ => {}
    }
}

/// The seed `matmul`: per output row, ascending-`kk` axpy accumulation
/// with the finiteness-gated zero skip. No tiling, no parallelism.
fn seed_matmul(a: &NdArray, b: &NdArray) -> NdArray {
    let (n, k) = a.shape();
    let (_, m) = b.shape();
    let mut out = NdArray::zeros(n, m);
    let skip_zeros = !b.has_non_finite();
    for i in 0..n {
        for kk in 0..k {
            let av = a.get(i, kk);
            if skip_zeros && av == 0.0 {
                continue;
            }
            let brow = b.row(kk);
            let orow = out.row_mut(i);
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    out
}

/// The seed `matmul_nt`: one complete dot per output element — serial
/// single-accumulator order in grad mode, the fixed 8-lane blocked tree
/// in inference mode.
fn seed_matmul_nt(a: &NdArray, b: &NdArray, blocked: bool) -> NdArray {
    let (n, k) = a.shape();
    let (m, _) = b.shape();
    let mut out = NdArray::zeros(n, m);
    for i in 0..n {
        for j in 0..m {
            let v = if blocked {
                blocked_dot(a.row(i), b.row(j))
            } else {
                let mut acc = 0.0f32;
                for (x, y) in a.row(i).iter().zip(b.row(j)) {
                    acc += x * y;
                }
                acc
            };
            out.set(i, j, v);
        }
        let _ = k;
    }
    out
}

/// Reshapes a row-major `[rows, cols]` left operand by `kind`: 1 makes
/// every row one-hot (a single 1.0, the message-passing pattern), 2 turns
/// every third entry into −0.0; any other kind leaves it as drawn.
fn shape_lhs(buf: &mut [f32], cols: usize, kind: usize) {
    match kind {
        1 => {
            for (r, row) in buf.chunks_exact_mut(cols.max(1)).enumerate() {
                row.fill(0.0);
                row[(r * 7) % cols.max(1)] = 1.0;
            }
        }
        2 => buf.iter_mut().step_by(3).for_each(|v| *v = -0.0),
        _ => {}
    }
}

/// The seed conv1d backward: the scalar loop over batch row, output
/// channel, output position, input channel and tap, skipping an exactly
/// zero upstream gradient. Returns `(gx, gw)` for input `x`
/// (`[b, c_in * l]`), kernel bank `w` (`[c_out, c_in * k]`) and upstream
/// gradient `g` (`[b, c_out * l]`).
fn seed_conv1d_backward(
    x: &NdArray,
    w: &NdArray,
    g: &NdArray,
    c_in: usize,
    k: usize,
) -> (NdArray, NdArray) {
    let (b, ctl) = x.shape();
    let l = ctl / c_in;
    let (c_out, _) = w.shape();
    let pad = k / 2;
    let mut gx = NdArray::zeros(b, c_in * l);
    let mut gw = NdArray::zeros(c_out, c_in * k);
    for bi in 0..b {
        let xrow = x.row(bi);
        let grow = g.row(bi);
        let gxrow = gx.row_mut(bi);
        for co in 0..c_out {
            let wrow = w.row(co);
            let gwrow = gw.row_mut(co);
            for pos in 0..l {
                let gv = grow[co * l + pos];
                if gv == 0.0 {
                    continue;
                }
                for ci in 0..c_in {
                    for kk in 0..k {
                        let ip = pos + kk;
                        if ip >= pad && ip - pad < l {
                            gxrow[ci * l + ip - pad] += gv * wrow[ci * k + kk];
                            gwrow[ci * k + kk] += gv * xrow[ci * l + ip - pad];
                        }
                    }
                }
            }
        }
    }
    (gx, gw)
}

props! {
    cases = 24;

    // k up to 600 with small m makes the kk tile (32 KiB / m) land
    // mid-range, so several tiles per row are exercised; sprinkled exact
    // zeros exercise the skip path across tile boundaries.
    fn tiled_matmul_matches_seed_serial_on_ragged_shapes(
        dims in (1usize..=12, 1usize..=600, 1usize..=40),
        a_buf in vec(-2.0f32..2.0, 12 * 600),
        b_buf in vec(-2.0f32..2.0, 600 * 40),
    ) {
        let (n, k, m) = dims;
        let mut av = a_buf[..n * k].to_vec();
        for v in av.iter_mut().step_by(7) {
            *v = 0.0;
        }
        let a = NdArray::from_vec(av, &[n, k]);
        let b = NdArray::from_vec(b_buf[..k * m].to_vec(), &[k, m]);
        let want = seed_matmul(&a, &b);
        for t in [1usize, 2, 4] {
            prop_assert!(bits_eq(&want, &with_threads(t, || a.matmul(&b))));
        }
    }

    // m up to 600 with small k makes the j tile land mid-table; both dot
    // kernels (grad serial, no_grad blocked) must survive the tiling.
    fn tiled_matmul_nt_matches_seed_in_both_grad_modes(
        dims in (1usize..=12, 1usize..=48, 1usize..=600),
        a_buf in vec(-2.0f32..2.0, 12 * 48),
        b_buf in vec(-2.0f32..2.0, 600 * 48),
    ) {
        let (n, k, m) = dims;
        let a = NdArray::from_vec(a_buf[..n * k].to_vec(), &[n, k]);
        let b = NdArray::from_vec(b_buf[..m * k].to_vec(), &[m, k]);
        let want_grad = seed_matmul_nt(&a, &b, false);
        let want_infer = seed_matmul_nt(&a, &b, true);
        for t in [1usize, 2, 4] {
            prop_assert!(bits_eq(&want_grad, &with_threads(t, || a.matmul_nt(&b))));
            prop_assert!(bits_eq(
                &want_infer,
                &no_grad(|| with_threads(t, || a.matmul_nt(&b)))
            ));
        }
    }

    // The register-blocked gradient GEMM against the seed serial kernels,
    // on shapes that hit every tile tail, with a NaN or Inf in either
    // operand: `matmul_tn` against the zero-skipping axpy, grad-mode
    // `matmul_nt` against the single-accumulator dot.
    fn gemm_kernels_match_seed_on_every_tile_tail(
        shape in (0usize..=3, 0usize..=3, 0usize..=3, 0usize..=15, 0usize..=20),
        poisons in (0usize..=3, 0usize..=3, 0usize..10_000),
        a_buf in vec(-2.0f32..2.0, 15 * 41),
        b_buf in vec(-2.0f32..2.0, 63 * 41),
    ) {
        let (rows, cols, depth) = tile_tail_shape(shape);
        let (pa, pb, at) = poisons;
        let mut av = a_buf[..depth * rows].to_vec();
        let mut bv = b_buf[..depth * cols].to_vec();
        poison(&mut av, pa, at);
        poison(&mut bv, pb, at / 3);

        // selfᵀ · other: self [depth, rows], other [depth, cols].
        let a = NdArray::from_vec(av.clone(), &[depth, rows]);
        let b = NdArray::from_vec(bv.clone(), &[depth, cols]);
        let want_tn = seed_matmul_tn(&a, &b);
        // self · otherᵀ: self [rows, depth], other [cols, depth].
        let a_nt = NdArray::from_vec(av, &[rows, depth]);
        let b_nt = NdArray::from_vec(bv, &[cols, depth]);
        let want_nt = seed_matmul_nt(&a_nt, &b_nt, false);
        for t in [1usize, 2, 4] {
            prop_assert!(bits_eq_nan(&want_tn, &with_threads(t, || a.matmul_tn(&b))));
            prop_assert!(bits_eq_nan(&want_nt, &with_threads(t, || a_nt.matmul_nt(&b_nt))));
        }
    }

    // Forward `matmul` against the seed axpy in both modes (grad mode runs
    // the register-blocked GEMM, `no_grad` the tiled axpy), allocating and
    // through a dirty `_into` buffer, on every tile tail. The left operand
    // carries one-hot rows, exact zeros and −0.0 (the seed's zero-skip
    // path), and either operand may carry a NaN or ±Inf.
    fn matmul_matches_seed_in_both_grad_modes_on_every_tile_tail(
        shape in (0usize..=3, 0usize..=3, 0usize..=3, 0usize..=15, 0usize..=20),
        poisons in (0usize..=3, 0usize..=3, 0usize..10_000, 0usize..=2),
        a_buf in vec(-2.0f32..2.0, 15 * 41),
        b_buf in vec(-2.0f32..2.0, 63 * 41),
    ) {
        let (rows, cols, depth) = tile_tail_shape(shape);
        let (pa, pb, at, lhs_kind) = poisons;
        let mut av = a_buf[..rows * depth].to_vec();
        let mut bv = b_buf[..depth * cols].to_vec();
        shape_lhs(&mut av, depth, lhs_kind);
        poison(&mut av, pa, at);
        poison(&mut bv, pb, at / 3);
        let a = NdArray::from_vec(av, &[rows, depth]);
        let b = NdArray::from_vec(bv, &[depth, cols]);
        let want = seed_matmul(&a, &b);
        for t in [1usize, 2, 4] {
            for grad in [true, false] {
                let run = |f: &dyn Fn() -> NdArray| {
                    with_threads(t, || if grad { f() } else { no_grad(f) })
                };
                prop_assert!(bits_eq_nan(&want, &run(&|| a.matmul(&b))));
                let into = run(&|| {
                    let mut out = NdArray::full(rows, cols, f32::NAN);
                    a.matmul_into(&b, &mut out);
                    out
                });
                prop_assert!(bits_eq_nan(&want, &into));
            }
        }
    }

    // The vectorised conv1d backward against the seed's scalar loop, for
    // every input channel count 1–3 and kernel width 1/3/5 per case.
    // Upstream gradients carry exact ±0 (the seed skips them, so a NaN or
    // ±Inf in `x` or `w` there must not reach the sum); `x` and `w` carry
    // NaN/±Inf by `poisons`.
    fn conv1d_backward_matches_seed(
        dims in (1usize..=40, 1usize..=9, 1usize..=9),
        poisons in (0usize..=3, 0usize..=3, 0usize..10_000),
        x_buf in vec(-2.0f32..2.0, 9 * 3 * 40),
        w_buf in vec(-2.0f32..2.0, 9 * 3 * 5),
        g_buf in vec(-2.0f32..2.0, 9 * 9 * 40),
    ) {
        let (l, b, c_out) = dims;
        let (px, pw, at) = poisons;
        for c_in in 1..=3 {
            for k in [1usize, 3, 5] {
                let mut xv = x_buf[..b * c_in * l].to_vec();
                let mut wv = w_buf[..c_out * c_in * k].to_vec();
                let mut gv = g_buf[..b * c_out * l].to_vec();
                poison(&mut xv, px, at);
                poison(&mut wv, pw, at / 3);
                gv.iter_mut().step_by(3).for_each(|v| *v = 0.0);
                gv.iter_mut().skip(1).step_by(7).for_each(|v| *v = -0.0);
                let x = NdArray::from_vec(xv, &[b, c_in * l]);
                let w = NdArray::from_vec(wv, &[c_out, c_in * k]);
                let g = NdArray::from_vec(gv, &[b, c_out * l]);
                let (want_gx, want_gw) = seed_conv1d_backward(&x, &w, &g, c_in, k);
                let (xt, wt) = (Tensor::param(x), Tensor::param(w));
                xt.conv1d_same(&wt, c_in, k).backward_with(g);
                prop_assert!(bits_eq_nan(&want_gx, &xt.grad().unwrap()));
                prop_assert!(bits_eq_nan(&want_gw, &wt.grad().unwrap()));
            }
        }
    }

    // `_into` kernels writing into recycled (dirty) scratch buffers must
    // match their allocating twins bitwise.
    fn into_kernels_match_allocating_through_dirty_scratch(
        dims in (1usize..=10, 1usize..=32, 1usize..=200),
        a_buf in vec(-2.0f32..2.0, 10 * 32),
        b_buf in vec(-2.0f32..2.0, 200 * 32),
    ) {
        let (n, k, m) = dims;
        let a = NdArray::from_vec(a_buf[..n * k].to_vec(), &[n, k]);
        let bt = NdArray::from_vec(b_buf[..m * k].to_vec(), &[m, k]);
        let b = bt.transpose();

        let mut scratch = Scratch::new();
        scratch.give(NdArray::full(n, m, f32::NAN));
        let mut out = scratch.take(n, m);
        no_grad(|| {
            a.matmul_into(&b, &mut out);
            prop_assert!(bits_eq(&out, &a.matmul(&b)));
            a.matmul_nt_into(&bt, &mut out);
            prop_assert!(bits_eq(&out, &a.matmul_nt(&bt)));
        });
        scratch.give(out);

        let idx: Vec<u32> = (0..n as u32).map(|i| (i * 3) % m as u32).collect();
        let mut gout = scratch.take(n, k);
        bt.gather_rows_into(&idx, &mut gout);
        prop_assert!(bits_eq(&gout, &bt.gather_rows(&idx)));

        let bias = NdArray::from_vec(a_buf[..k].to_vec(), &[1, k]);
        let mut aout = scratch.take(n, k);
        gout.add_row_into(&bias, &mut aout);
        let mut want = gout.clone();
        want.add_row_assign(&bias);
        prop_assert!(bits_eq(&aout, &want));
    }
}
