//! Dense row-major `f32` arrays and the raw (non-differentiable) kernels
//! the autograd layer is built on.
//!
//! Shapes are restricted to one or two dimensions — everything the HisRES
//! model computes is a matrix of per-entity / per-edge feature rows (vectors
//! are represented as `[1, d]` or `[n, 1]`, scalars as `[1, 1]`). Keeping
//! the invariant small makes the kernels easy to audit and keeps hot loops
//! free of stride arithmetic.
//!
//! # Parallelism and determinism
//!
//! The dense kernels (matmul family, elementwise map/zip/axpy, row gather)
//! are data-parallel over [`hisres_util::pool`]: the **output** is split
//! into disjoint contiguous row/element chunks, one task per chunk, below
//! fixed work cutoffs everything stays inline on the caller. Because each
//! output element is always computed by exactly one task in the same inner
//! (serial) loop order, results are **bit-identical for every thread
//! count** — the partition decides who computes an element, never how.
//! Reductions whose float accumulation order would depend on the partition
//! (`scatter_add_rows` destinations, `segment_softmax` denominators,
//! `sum`) deliberately stay serial.
//!
//! The inner loops use three microkernels:
//!
//! * an element-independent axpy the compiler auto-vectorises (bitwise
//!   equal to the scalar loop), for the forward [`NdArray::matmul`];
//! * `gemm`, the register-blocked kernel of the gradient products
//!   ([`NdArray::matmul_tn`] and grad-mode [`NdArray::matmul_nt`]). Each
//!   output element keeps one accumulator that adds `a·b` in ascending
//!   reduction index, the serial order these kernels have always used, so
//!   training trajectories stay bit-for-bit reproducible; it is vectorised
//!   across a 4×16 tile of outputs, never within one sum;
//! * an 8-accumulator blocked dot product whose lane blocking is a
//!   compile-time constant, independent of thread count. It changes the
//!   summation *tree* relative to the serial order, so `matmul_nt` only
//!   uses it in inference (`no_grad`) mode.
//!
//! The AVX2 forms of `gemm` and the blocked dot are selected at runtime;
//! their portable forms are the source of truth for the bits.

use hisres_util::json::{FromJson, JsonError, ToJson, Value};
use hisres_util::pool;
use std::fmt;

/// Minimum multiply-add flops a matmul-family task must amortise before
/// the kernel forks; below this everything runs inline (tiny graphs must
/// not pay pool latency).
const PAR_FLOPS_PER_TASK: usize = 16 * 1024;

/// Minimum elements per task for cheap elementwise kernels.
const PAR_ELEMS_PER_TASK: usize = 16 * 1024;

/// Cache-tile byte budget for the matmul family: one tile of the streamed
/// operand is kept L1-resident while every output row that needs it is
/// updated. 32 KiB matches the common per-core L1d size; the tile shape is
/// a pure function of the operand shapes (never of the thread count), so
/// tiling cannot affect determinism.
const TILE_BYTES: usize = 32 * 1024;

/// Output rows advanced together per kk-tile in [`NdArray::matmul`], so a
/// resident tile of the right operand is reused across several rows.
const MM_ROW_TILE: usize = 8;

/// `o[j] += a * b[j]`. Every output element is updated independently, so
/// the compiler is free to vectorise this loop — and does; a hand-unrolled
/// version was measured *slower* because the indexed accesses defeat the
/// auto-vectoriser. Keep it a plain zip: it is the bit-exact scalar
/// recurrence and the fastest form at once.
#[inline]
fn axpy8(o: &mut [f32], a: f32, b: &[f32]) {
    debug_assert_eq!(o.len(), b.len());
    for (ov, &bv) in o.iter_mut().zip(b) {
        *ov += a * bv;
    }
}

/// Output rows of one [`gemm`] register tile.
const GEMM_MR: usize = 4;

/// Output columns of one [`gemm`] register tile: two 8-lane vectors, so a
/// full tile holds eight independent accumulator chains.
const GEMM_NR: usize = 16;

/// The left operand of [`gemm`], read in place: element `(r, p)` is
/// `data[r * rs + p * ps]`. A row-major matrix is `rs = cols, ps = 1`; its
/// transpose is `rs = 1, ps = cols`, which is how [`NdArray::matmul_tn`]
/// reads `self` without copying it.
#[derive(Clone, Copy)]
struct Lhs<'a> {
    data: &'a [f32],
    rs: usize,
    ps: usize,
}

/// `out[r][c] = Σₚ a(row0 + r, p) · b[p][c]` over a chunk of output rows,
/// where `b` is row-major `[depth, m]` and `out` holds whole rows of `m`.
///
/// Every output element has one accumulator that starts at +0.0 and adds
/// `a·b` (a multiply, then an add — never an FMA) for `p = 0, 1, …` in
/// ascending order: exactly the single-accumulator serial dot and
/// ascending-row axpy the grad-mode kernels have always computed, so every
/// result keeps its bits. The speed comes from computing a 4×16 tile of
/// outputs at once — vectorised *across* outputs, never within one sum —
/// which turns one latency-bound add chain into eight independent ones.
/// Dispatches to the AVX2 form when the CPU has it; [`gemm_portable`] is
/// the source of truth for the bits.
fn gemm(a: Lhs<'_>, b: &[f32], depth: usize, m: usize, row0: usize, out: &mut [f32]) {
    if out.is_empty() {
        return;
    }
    assert!(m > 0 && out.len().is_multiple_of(m), "gemm output is not whole rows of {m}");
    if depth == 0 {
        out.fill(0.0); // the empty sum
        return;
    }
    let rows = out.len() / m;
    assert!(b.len() >= depth * m, "gemm right operand shorter than depth × m");
    let last = (row0 + rows - 1) * a.rs + (depth - 1) * a.ps;
    assert!(last < a.data.len(), "gemm left operand out of range");
    #[cfg(target_arch = "x86_64")]
    if avx::available() {
        // SAFETY: AVX2 probed above; every index the kernel forms is below
        // the bounds asserted above.
        unsafe { avx::gemm(a, b, depth, m, row0, out) };
        return;
    }
    gemm_portable(a, b, depth, m, row0, out);
}

/// Portable form of [`gemm`]: the same tiles with one scalar accumulator
/// per output element.
fn gemm_portable(a: Lhs<'_>, b: &[f32], depth: usize, m: usize, row0: usize, out: &mut [f32]) {
    let rows = out.len() / m;
    for c0 in (0..m).step_by(GEMM_NR) {
        let w = (m - c0).min(GEMM_NR);
        for r0 in (0..rows).step_by(GEMM_MR) {
            let h = (rows - r0).min(GEMM_MR);
            let mut acc = [[0.0f32; GEMM_NR]; GEMM_MR];
            for p in 0..depth {
                let b_row = &b[p * m + c0..p * m + c0 + w];
                for (r, acc_r) in acc[..h].iter_mut().enumerate() {
                    let av = a.data[(row0 + r0 + r) * a.rs + p * a.ps];
                    for (o, &bv) in acc_r.iter_mut().zip(b_row) {
                        *o += av * bv;
                    }
                }
            }
            for (r, acc_r) in acc[..h].iter().enumerate() {
                let o = (r0 + r) * m + c0;
                out[o..o + w].copy_from_slice(&acc_r[..w]);
            }
        }
    }
}

thread_local! {
    /// Per-thread buffer grad-mode [`NdArray::matmul_nt`] packs `otherᵀ`
    /// into, reused across calls so a warm call allocates nothing. Taken
    /// out for the call and put back after, so a nested call would only
    /// allocate, never alias it.
    static PACKED_T: std::cell::Cell<Vec<f32>> = const { std::cell::Cell::new(Vec::new()) };
}

/// Hand-written AVX2 forms of the 8-lane kernels, selected at runtime.
///
/// The 8 accumulator lanes of [`dot8_scalar`] map onto exactly one 256-bit
/// register, and `vmulps`/`vaddps` are lane-wise IEEE-754 single-precision
/// operations — Rust never enables floating-point contraction, so no FMA is
/// emitted — which makes every lane's accumulation sequence, and therefore
/// the final bit pattern, identical to the scalar kernel on any CPU. The
/// scalar fallback stays the source of truth; these only widen the issue.
#[cfg(target_arch = "x86_64")]
mod avx {
    use std::arch::x86_64::*;

    /// One-time cached CPUID probe for AVX2.
    #[inline]
    pub fn available() -> bool {
        use std::sync::OnceLock;
        static AVX2: OnceLock<bool> = OnceLock::new();
        *AVX2.get_or_init(|| std::is_x86_feature_detected!("avx2"))
    }

    /// [`super::dot8_scalar`] with the 8 lanes held in one AVX register.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available ([`available`]) and that
    /// `a.len() == b.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot8(a: &[f32], b: &[f32]) -> f32 {
        let head = (a.len() / 8) * 8;
        let mut acc = _mm256_setzero_ps();
        for o in (0..head).step_by(8) {
            // SAFETY: o + 8 <= head <= a.len() == b.len().
            let av = unsafe { _mm256_loadu_ps(a.as_ptr().add(o)) };
            let bv = unsafe { _mm256_loadu_ps(b.as_ptr().add(o)) };
            acc = _mm256_add_ps(acc, _mm256_mul_ps(av, bv));
        }
        let mut l = [0.0f32; 8];
        // SAFETY: `l` is exactly 8 f32s.
        unsafe { _mm256_storeu_ps(l.as_mut_ptr(), acc) };
        let mut tail = 0.0f32;
        for (&av, &bv) in a[head..].iter().zip(&b[head..]) {
            tail += av * bv;
        }
        ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7])) + tail
    }

    /// [`super::dot8_x4_scalar`] on AVX registers: four accumulator
    /// vectors sharing each `a` load. Same bit-identity argument as
    /// [`dot8`].
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available ([`available`]) and that all
    /// five slices have equal length.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot8_x4(
        a: &[f32],
        b0: &[f32],
        b1: &[f32],
        b2: &[f32],
        b3: &[f32],
    ) -> [f32; 4] {
        let head = (a.len() / 8) * 8;
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        for o in (0..head).step_by(8) {
            // SAFETY: o + 8 <= head <= the common slice length.
            unsafe {
                let av = _mm256_loadu_ps(a.as_ptr().add(o));
                let b0v = _mm256_loadu_ps(b0.as_ptr().add(o));
                let b1v = _mm256_loadu_ps(b1.as_ptr().add(o));
                let b2v = _mm256_loadu_ps(b2.as_ptr().add(o));
                let b3v = _mm256_loadu_ps(b3.as_ptr().add(o));
                acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(av, b0v));
                acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(av, b1v));
                acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(av, b2v));
                acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(av, b3v));
            }
        }
        let reduce = |acc: __m256, b: &[f32]| {
            let mut l = [0.0f32; 8];
            // SAFETY: `l` is exactly 8 f32s.
            unsafe { _mm256_storeu_ps(l.as_mut_ptr(), acc) };
            let mut tail = 0.0f32;
            for (&av, &bv) in a[head..].iter().zip(&b[head..]) {
                tail += av * bv;
            }
            ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7])) + tail
        };
        [reduce(acc0, b0), reduce(acc1, b1), reduce(acc2, b2), reduce(acc3, b3)]
    }

    /// [`super::gemm_portable`] with each tile's accumulators held in AVX
    /// registers: lane `l` of vector `v` is output column `c0 + 8v + l`,
    /// and it sees the same `+0.0`, then mul-then-add per `p` ascending,
    /// as the scalar accumulator it replaces.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available ([`available`]) and the bounds
    /// [`super::gemm`] asserts.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gemm(
        a: super::Lhs<'_>,
        b: &[f32],
        depth: usize,
        m: usize,
        row0: usize,
        out: &mut [f32],
    ) {
        use super::{GEMM_MR, GEMM_NR};
        let rows = out.len() / m;
        for c0 in (0..m).step_by(GEMM_NR) {
            let w = (m - c0).min(GEMM_NR);
            for r0 in (0..rows).step_by(GEMM_MR) {
                let h = (rows - r0).min(GEMM_MR);
                // A short tile recomputes its last row in the spare slots
                // and stores only the first `h`.
                let a_rows: [*const f32; GEMM_MR] = std::array::from_fn(|r| {
                    // SAFETY: row0 + r0 + min(r, h-1) is a row the caller
                    // bounds-checked.
                    unsafe { a.data.as_ptr().add((row0 + r0 + r.min(h - 1)) * a.rs) }
                });
                // SAFETY: rows r0..r0+h and columns c0..c0+w lie inside
                // `out` and `b` (shapes checked by the caller).
                unsafe {
                    let t = Tile { a_rows, ps: a.ps, b: b.as_ptr().add(c0), m, depth, w };
                    let o = out.as_mut_ptr().add(r0 * m + c0);
                    match w {
                        16 => t.run::<2, true>(o, h),
                        9..=15 => t.run::<2, false>(o, h),
                        8 => t.run::<1, true>(o, h),
                        _ => t.run::<1, false>(o, h),
                    }
                }
            }
        }
    }

    /// One register tile of [`gemm`]: `GEMM_MR` rows × `w ≤ 16` columns.
    struct Tile {
        a_rows: [*const f32; super::GEMM_MR],
        ps: usize,
        b: *const f32,
        m: usize,
        depth: usize,
        w: usize,
    }

    impl Tile {
        /// Runs the tile with `V` vectors of columns; `FULL` means all
        /// `8·V` columns are real, else the lanes past `w` are masked off
        /// (loaded as 0, never stored). Writes `h` rows at `out`, `m` apart.
        ///
        /// # Safety
        /// AVX2 available; `b + p·m + [0, w)` readable for `p < depth`,
        /// `a_rows[r] + p·ps` readable, `out + r·m + [0, w)` writable for
        /// `r < h`.
        #[target_feature(enable = "avx2")]
        #[inline]
        unsafe fn run<const V: usize, const FULL: bool>(&self, out: *mut f32, h: usize) {
            let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
            let mask: [__m256i; V] = std::array::from_fn(|v| {
                _mm256_cmpgt_epi32(_mm256_set1_epi32((self.w - 8 * v) as i32), lanes)
            });
            let mut acc = [[_mm256_setzero_ps(); V]; super::GEMM_MR];
            for p in 0..self.depth {
                // SAFETY: in bounds per the function contract; masked
                // lanes are neither read nor faulted on.
                unsafe {
                    let bp = self.b.add(p * self.m);
                    let bv: [__m256; V] = std::array::from_fn(|v| {
                        if FULL {
                            _mm256_loadu_ps(bp.add(8 * v))
                        } else {
                            _mm256_maskload_ps(bp.add(8 * v), mask[v])
                        }
                    });
                    for (acc_r, a_row) in acc.iter_mut().zip(self.a_rows) {
                        let av = _mm256_set1_ps(*a_row.add(p * self.ps));
                        for (acc_v, &b_v) in acc_r.iter_mut().zip(&bv) {
                            *acc_v = _mm256_add_ps(*acc_v, _mm256_mul_ps(av, b_v));
                        }
                    }
                }
            }
            for (r, acc_r) in acc[..h].iter().enumerate() {
                for (v, &acc_v) in acc_r.iter().enumerate() {
                    // SAFETY: row r < h, columns inside [0, w) or masked.
                    unsafe {
                        let o = out.add(r * self.m + 8 * v);
                        if FULL {
                            _mm256_storeu_ps(o, acc_v);
                        } else {
                            _mm256_maskstore_ps(o, mask[v], acc_v);
                        }
                    }
                }
            }
        }
    }
}

/// Dot product with 8 independent accumulator lanes combined in a fixed
/// pairwise order. The lane blocking is a compile-time constant, so the
/// summation tree — and therefore the result bit pattern — is the same on
/// every thread count and every call; it does differ from the serial
/// single-accumulator order of [`gemm`], which is why it is only used in
/// inference (`no_grad`) mode. Dispatches to the bit-identical AVX2 form
/// of the same tree when the CPU has it.
#[inline]
fn dot8(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot8 operand lengths");
    #[cfg(target_arch = "x86_64")]
    if avx::available() {
        // SAFETY: AVX2 probed above; lengths asserted equal.
        return unsafe { avx::dot8(a, b) };
    }
    dot8_scalar(a, b)
}

/// Portable form of [`dot8`]; the source of truth for its bit pattern.
#[inline]
fn dot8_scalar(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 8];
    let chunks = a.len() / 8;
    for (av, bv) in a[..chunks * 8]
        .chunks_exact(8)
        .zip(b[..chunks * 8].chunks_exact(8))
    {
        acc[0] += av[0] * bv[0];
        acc[1] += av[1] * bv[1];
        acc[2] += av[2] * bv[2];
        acc[3] += av[3] * bv[3];
        acc[4] += av[4] * bv[4];
        acc[5] += av[5] * bv[5];
        acc[6] += av[6] * bv[6];
        acc[7] += av[7] * bv[7];
    }
    let mut tail = 0.0f32;
    for (&av, &bv) in a[chunks * 8..].iter().zip(&b[chunks * 8..]) {
        tail += av * bv;
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])) + tail
}

/// Four [`dot8`] products sharing one left row: `a·b0, a·b1, a·b2, a·b3`.
/// Each output uses `dot8`'s exact lane assignment and reduction tree, so
/// every element is bit-identical to calling [`dot8`] four times; fusing
/// only shares the `a` loads across four independent accumulator groups,
/// turning the latency-bound single-dot chain into four chains that keep
/// the FMA ports busy — the decoder's `d×|E|` sweep is where this pays.
#[inline]
fn dot8_x4(a: &[f32], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) -> [f32; 4] {
    assert!(
        b0.len() == a.len() && b1.len() == a.len() && b2.len() == a.len() && b3.len() == a.len(),
        "dot8_x4 operand lengths"
    );
    #[cfg(target_arch = "x86_64")]
    if avx::available() {
        // SAFETY: AVX2 probed above; lengths asserted equal.
        return unsafe { avx::dot8_x4(a, b0, b1, b2, b3) };
    }
    dot8_x4_scalar(a, b0, b1, b2, b3)
}

/// Portable form of [`dot8_x4`]; the source of truth for its bit pattern.
#[inline]
fn dot8_x4_scalar(a: &[f32], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) -> [f32; 4] {
    let mut acc0 = [0.0f32; 8];
    let mut acc1 = [0.0f32; 8];
    let mut acc2 = [0.0f32; 8];
    let mut acc3 = [0.0f32; 8];
    let chunks = a.len() / 8;
    let head = chunks * 8;
    for (i, av) in a[..head].chunks_exact(8).enumerate() {
        let o = i * 8;
        let (bv0, bv1) = (&b0[o..o + 8], &b1[o..o + 8]);
        let (bv2, bv3) = (&b2[o..o + 8], &b3[o..o + 8]);
        for j in 0..8 {
            acc0[j] += av[j] * bv0[j];
            acc1[j] += av[j] * bv1[j];
            acc2[j] += av[j] * bv2[j];
            acc3[j] += av[j] * bv3[j];
        }
    }
    let reduce = |acc: &[f32; 8], b: &[f32]| {
        let mut tail = 0.0f32;
        for (&av, &bv) in a[head..].iter().zip(&b[head..]) {
            tail += av * bv;
        }
        ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])) + tail
    };
    [reduce(&acc0, b0), reduce(&acc1, b1), reduce(&acc2, b2), reduce(&acc3, b3)]
}

/// The 8-lane blocked dot product used by the inference (`no_grad`) path of
/// [`NdArray::matmul_nt`], exported so higher layers (the top-k
/// short-circuit scorer in `hisres-core`) can score individual candidate
/// rows with the **exact same summation tree** — `to_bits`-identical to a
/// full `matmul_nt` of the same operands.
#[inline]
pub fn blocked_dot(a: &[f32], b: &[f32]) -> f32 {
    dot8(a, b)
}

/// A dense, contiguous, row-major `f32` matrix.
#[derive(Clone, PartialEq)]
pub struct NdArray {
    shape: (usize, usize),
    data: Vec<f32>,
}

impl ToJson for NdArray {
    fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("shape".to_owned(), self.shape.to_json()),
            ("data".to_owned(), self.data.to_json()),
        ])
    }
}

impl FromJson for NdArray {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let shape: (usize, usize) = FromJson::from_json(&v["shape"])?;
        let data: Vec<f32> = FromJson::from_json(&v["data"])?;
        if shape.0 * shape.1 != data.len() {
            return Err(JsonError::msg(format!(
                "NdArray shape {shape:?} does not match {} elements",
                data.len()
            )));
        }
        Ok(NdArray { shape, data })
    }
}

impl fmt::Debug for NdArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NdArray[{}x{}]", self.shape.0, self.shape.1)?;
        if self.data.len() <= 12 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl NdArray {
    /// Builds an array from a flat row-major buffer. `shape` must have one or
    /// two entries whose product equals `data.len()`; a 1-D shape `[n]` is
    /// stored as a single row `[1, n]`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let (r, c) = match *shape {
            [n] => (1, n),
            [r, c] => (r, c),
            _ => panic!("NdArray supports 1-D or 2-D shapes, got {shape:?}"),
        };
        assert_eq!(
            r * c,
            data.len(),
            "shape {shape:?} does not match buffer of len {}",
            data.len()
        );
        Self { shape: (r, c), data }
    }

    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { shape: (rows, cols), data: vec![0.0; rows * cols] }
    }

    /// Matrix filled with `v`.
    pub fn full(rows: usize, cols: usize, v: f32) -> Self {
        Self { shape: (rows, cols), data: vec![v; rows * cols] }
    }

    /// A `[1, 1]` scalar.
    pub fn scalar(v: f32) -> Self {
        Self { shape: (1, 1), data: vec![v] }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.shape.0
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.shape.1
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        self.shape
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the array holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view of the data.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat view of the data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the array, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        let c = self.shape.1;
        &self.data[r * c..(r + 1) * c]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let c = self.shape.1;
        &mut self.data[r * c..(r + 1) * c] // lint:allow(panic-reachability): r < rows is the documented contract; zone callers derive r from ids validated at the session boundary
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.shape.1 + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.shape.1 + c] = v;
    }

    /// Returns the scalar value of a `[1, 1]` array.
    pub fn item(&self) -> f32 {
        assert_eq!(self.len(), 1, "item() on non-scalar {:?}", self.shape);
        self.data[0]
    }

    /// Reinterprets the buffer with a new shape of identical element count.
    pub fn reshape(mut self, rows: usize, cols: usize) -> Self {
        assert_eq!(rows * cols, self.data.len(), "reshape to {rows}x{cols}");
        self.shape = (rows, cols);
        self
    }

    /// Out-of-place transpose (append-built: sequential writes, strided
    /// reads — no redundant zero-fill).
    pub fn transpose(&self) -> NdArray {
        let (r, c) = self.shape;
        let mut data = Vec::with_capacity(r * c);
        for j in 0..c {
            for i in 0..r {
                data.push(self.data[i * c + j]);
            }
        }
        NdArray { shape: (c, r), data }
    }

    /// Overwrites `self` with the contents of an identically-shaped `src`.
    pub fn copy_from(&mut self, src: &NdArray) {
        assert_eq!(self.shape, src.shape, "copy_from shape mismatch");
        self.data.copy_from_slice(&src.data);
    }

    /// Applies `f` elementwise out of place; chunk-parallel for large
    /// arrays (elementwise, so bit-identical for every thread count).
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> NdArray {
        let mut out = NdArray::zeros(self.shape.0, self.shape.1);
        pool::current().par_chunks_mut(&mut out.data, 1, PAR_ELEMS_PER_TASK, |off, chunk| {
            let len = chunk.len();
            for (o, &v) in chunk.iter_mut().zip(&self.data[off..off + len]) {
                *o = f(v);
            }
        });
        out
    }

    /// Applies `f` elementwise into a caller-owned identically-shaped
    /// buffer — the `_into` form of [`NdArray::map`], bit-identical to it
    /// (elementwise, so the partition cannot matter). Every element of
    /// `out` is overwritten.
    pub fn map_into(&self, out: &mut NdArray, f: impl Fn(f32) -> f32 + Sync) {
        assert_eq!(self.shape, out.shape, "map_into shape mismatch");
        pool::current().par_chunks_mut(&mut out.data, 1, PAR_ELEMS_PER_TASK, |off, chunk| {
            let len = chunk.len();
            for (o, &v) in chunk.iter_mut().zip(&self.data[off..off + len]) {
                *o = f(v);
            }
        });
    }

    /// `self[i] = f(self[i], other[i])` elementwise — the in-place form of
    /// [`NdArray::zip`], bit-identical to it.
    pub fn zip_assign(&mut self, other: &NdArray, f: impl Fn(f32, f32) -> f32 + Sync) {
        assert_eq!(self.shape, other.shape, "zip_assign shape mismatch");
        pool::current().par_chunks_mut(&mut self.data, 1, PAR_ELEMS_PER_TASK, |off, chunk| {
            let len = chunk.len();
            for (a, &b) in chunk.iter_mut().zip(&other.data[off..off + len]) {
                *a = f(*a, b);
            }
        });
    }

    /// Applies `f` elementwise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        pool::current().par_chunks_mut(&mut self.data, 1, PAR_ELEMS_PER_TASK, |_, chunk| {
            for v in chunk {
                *v = f(*v);
            }
        });
    }

    /// Elementwise binary zip, panicking on shape mismatch.
    pub fn zip(&self, other: &NdArray, f: impl Fn(f32, f32) -> f32 + Sync) -> NdArray {
        assert_eq!(self.shape, other.shape, "zip shape mismatch");
        let mut out = NdArray::zeros(self.shape.0, self.shape.1);
        pool::current().par_chunks_mut(&mut out.data, 1, PAR_ELEMS_PER_TASK, |off, chunk| {
            let len = chunk.len();
            let a = &self.data[off..off + len];
            let b = &other.data[off..off + len];
            for ((o, &av), &bv) in chunk.iter_mut().zip(a).zip(b) {
                *o = f(av, bv);
            }
        });
        out
    }

    /// `self += other` elementwise.
    pub fn add_assign(&mut self, other: &NdArray) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        pool::current().par_chunks_mut(&mut self.data, 1, PAR_ELEMS_PER_TASK, |off, chunk| {
            let len = chunk.len();
            for (a, &b) in chunk.iter_mut().zip(&other.data[off..off + len]) {
                *a += b;
            }
        });
    }

    /// `self += s * other` elementwise (axpy).
    pub fn axpy(&mut self, s: f32, other: &NdArray) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        pool::current().par_chunks_mut(&mut self.data, 1, PAR_ELEMS_PER_TASK, |off, chunk| {
            let len = chunk.len();
            axpy8(chunk, s, &other.data[off..off + len]);
        });
    }

    /// Multiplies every element by `s` in place.
    pub fn scale_inplace(&mut self, s: f32) {
        pool::current().par_chunks_mut(&mut self.data, 1, PAR_ELEMS_PER_TASK, |_, chunk| {
            for v in chunk {
                *v *= s;
            }
        });
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Squared L2 norm of all elements.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Matrix product `self · other` (`[n,k] · [k,m] → [n,m]`), cache-blocked
    /// `ikj` ordering so the inner loop is a contiguous unrolled axpy;
    /// row-partitioned across the worker pool for large shapes and kk-tiled
    /// inside each task so a block of `other` stays L1-resident.
    pub fn matmul(&self, other: &NdArray) -> NdArray {
        let (n, _) = self.shape;
        let (_, m) = other.shape;
        let mut out = NdArray::zeros(n, m);
        self.matmul_impl(other, &mut out);
        out
    }

    /// [`NdArray::matmul`] writing into a caller-owned `[n, m]` buffer
    /// (zero-filled here first — the kernel accumulates). The result is
    /// bit-identical to the allocating version.
    pub fn matmul_into(&self, other: &NdArray, out: &mut NdArray) {
        assert_eq!(out.shape, (self.shape.0, other.shape.1), "matmul_into output shape");
        out.fill_zero();
        self.matmul_impl(other, out);
    }

    /// Accumulating matmul kernel over a pre-zeroed output.
    ///
    /// Tiled `(row-tile × kk-tile)`: within each pool chunk, [`MM_ROW_TILE`]
    /// output rows advance through the kk range one L1-sized tile of `other`
    /// at a time. For every output row the kk order is still strictly
    /// ascending (tiles ascend, indices within a tile ascend), so the
    /// per-element accumulation order — and the result bit pattern — is
    /// identical to the untiled serial kernel in both grad and no-grad mode.
    fn matmul_impl(&self, other: &NdArray, out: &mut NdArray) {
        let (_, k) = self.shape;
        let (k2, m) = other.shape;
        assert_eq!(k, k2, "matmul inner dims {k} vs {k2}");
        if out.data.is_empty() {
            return;
        }
        // Skipping zero left-operand entries is a big win for the one-hot
        // rows message passing produces, but `0 × NaN`/`0 × Inf` must stay
        // NaN for the divergence guards — so the fast path is only taken
        // when the right operand is known finite.
        let skip_zeros = !other.has_non_finite();
        let kk_tile = (TILE_BYTES / 4 / m.max(1)).clamp(1, k.max(1));
        let min_rows = PAR_FLOPS_PER_TASK.div_ceil(k * m + 1).max(1);
        pool::current().par_chunks_mut(&mut out.data, m, min_rows, |row0, chunk| {
            let rows = chunk.len() / m;
            for r0 in (0..rows).step_by(MM_ROW_TILE) {
                let r1 = (r0 + MM_ROW_TILE).min(rows);
                for kk0 in (0..k).step_by(kk_tile) {
                    let kk1 = (kk0 + kk_tile).min(k);
                    for ri in r0..r1 {
                        let o_row = &mut chunk[ri * m..(ri + 1) * m];
                        let a_row = self.row(row0 + ri);
                        for (kt, &a) in a_row[kk0..kk1].iter().enumerate() {
                            if skip_zeros && a == 0.0 { // lint:allow(float-eq): bitwise zero-skip keeps the blocked dot identical to the serial kernel
                                continue;
                            }
                            axpy8(o_row, a, other.row(kk0 + kt));
                        }
                    }
                }
            }
        });
    }

    /// Matrix product against a transposed right operand:
    /// `self · otherᵀ` (`[n,k] · [m,k]ᵀ → [n,m]`). Both operands are walked
    /// row-wise, which is the cache-optimal layout for scoring a batch of
    /// query vectors against an embedding table. While gradients are
    /// recorded every element is the serial single-accumulator dot; under
    /// `no_grad` it is the 8-lane tree of [`blocked_dot`].
    pub fn matmul_nt(&self, other: &NdArray) -> NdArray {
        let (n, _) = self.shape;
        let (m, _) = other.shape;
        let mut out = NdArray::zeros(n, m);
        self.matmul_nt_impl(other, &mut out);
        out
    }

    /// [`NdArray::matmul_nt`] writing into a caller-owned `[n, m]` buffer.
    /// Every output element is fully overwritten, so the buffer is *not*
    /// zero-filled first — this is the allocation- and fill-free form of
    /// the decoder's scoring step. Bit-identical to the allocating version.
    pub fn matmul_nt_into(&self, other: &NdArray, out: &mut NdArray) {
        assert_eq!(out.shape, (self.shape.0, other.shape.0), "matmul_nt_into output shape");
        self.matmul_nt_impl(other, out);
    }

    /// `self · otherᵀ` kernel, overwriting `out`.
    ///
    /// While gradients are recorded, `otherᵀ` is packed once per call into
    /// a reused per-thread buffer and every output row chunk runs [`gemm`],
    /// whose per-element order is the serial single-accumulator dot, so the
    /// training trajectory is bit-for-bit stable across releases.
    ///
    /// Inference (`no_grad`) takes the 8-lane blocked dot instead, tiled
    /// over the rows of `other` (the `|E|`-row embedding table in the
    /// decoder): an L1-sized block of table rows is scored against every
    /// query row of the chunk before moving on, so the table streams from
    /// memory **once per call** instead of once per query row. Each output
    /// element is still one complete dot of the same two rows, the tree
    /// [`blocked_dot`] exports.
    ///
    /// The mode is captured on the dispatching thread before fan-out, so
    /// all tasks of one call agree regardless of the partition.
    fn matmul_nt_impl(&self, other: &NdArray, out: &mut NdArray) {
        let (_, k) = self.shape;
        let (m, k2) = other.shape;
        assert_eq!(k, k2, "matmul_nt inner dims {k} vs {k2}");
        if out.data.is_empty() {
            return;
        }
        let min_rows = PAR_FLOPS_PER_TASK.div_ceil(k * m + 1).max(1);
        if crate::tensor::grad_enabled() {
            let mut packed = PACKED_T.with(std::cell::Cell::take);
            packed.clear();
            packed.resize(k * m, 0.0);
            for (j, row) in other.data.chunks_exact(k.max(1)).enumerate() {
                for (kk, &v) in row.iter().enumerate() {
                    packed[kk * m + j] = v;
                }
            }
            let a = Lhs { data: &self.data, rs: k, ps: 1 };
            pool::current().par_chunks_mut(&mut out.data, m, min_rows, |row0, chunk| {
                gemm(a, &packed, k, m, row0, chunk);
            });
            PACKED_T.with(|c| c.set(packed));
            return;
        }
        let j_tile = (TILE_BYTES / 4 / k.max(1)).clamp(8, m.max(8));
        pool::current().par_chunks_mut(&mut out.data, m, min_rows, |row0, chunk| {
            for j0 in (0..m).step_by(j_tile) {
                let j1 = (j0 + j_tile).min(m);
                for (ri, o_row) in chunk.chunks_exact_mut(m).enumerate() {
                    let a_row = self.row(row0 + ri);
                    // Register-blocked: four table rows per step, each
                    // output still its own dot8 tree (bit-identical).
                    let mut j = j0;
                    while j + 4 <= j1 {
                        let d = dot8_x4(
                            a_row,
                            other.row(j),
                            other.row(j + 1),
                            other.row(j + 2),
                            other.row(j + 3),
                        );
                        o_row[j..j + 4].copy_from_slice(&d);
                        j += 4;
                    }
                    for (o, jj) in o_row[j..j1].iter_mut().zip(j..j1) {
                        *o = dot8(a_row, other.row(jj));
                    }
                }
            }
        });
    }

    /// Matrix product with a transposed *left* operand:
    /// `selfᵀ · other` (`[n,k]ᵀ · [n,m] → [k,m]`). Used by matmul backward.
    ///
    /// The register-blocked `gemm` reads `self` in place through its
    /// transpose and adds `i = 0..n` in order into every output element:
    /// the ascending-row axpy of the serial kernel, bit for bit. A zero in
    /// `self` is multiplied like any other value (skipping it would give
    /// the same bits on finite input), so NaN and Inf in `other` propagate.
    /// Partitioned over output rows (columns of `self`), so results are
    /// bit-identical for every thread count.
    pub fn matmul_tn(&self, other: &NdArray) -> NdArray {
        let (n, k) = self.shape;
        let (n2, m) = other.shape;
        assert_eq!(n, n2, "matmul_tn outer dims {n} vs {n2}");
        let mut out = NdArray::zeros(k, m);
        let a = Lhs { data: &self.data, rs: 1, ps: k };
        let min_rows = PAR_FLOPS_PER_TASK.div_ceil(n * m + 1).max(1);
        pool::current().par_chunks_mut(&mut out.data, m, min_rows, |k0, chunk| {
            gemm(a, &other.data, n, m, k0, chunk);
        });
        out
    }

    /// Gathers rows by index: `out[i] = self[idx[i]]`; output-row
    /// partitioned across the pool for large gathers.
    pub fn gather_rows(&self, idx: &[u32]) -> NdArray {
        let mut out = NdArray::zeros(idx.len(), self.cols());
        self.gather_rows_impl(idx, &mut out);
        out
    }

    /// [`NdArray::gather_rows`] writing into a caller-owned
    /// `[idx.len(), cols]` buffer; every row is fully overwritten.
    pub fn gather_rows_into(&self, idx: &[u32], out: &mut NdArray) {
        assert_eq!(out.shape, (idx.len(), self.cols()), "gather_rows_into output shape");
        self.gather_rows_impl(idx, out);
    }

    fn gather_rows_impl(&self, idx: &[u32], out: &mut NdArray) {
        let c = self.cols();
        if out.data.is_empty() {
            return;
        }
        let min_rows = PAR_ELEMS_PER_TASK.div_ceil(c).max(1);
        pool::current().par_chunks_mut(&mut out.data, c, min_rows, |row0, chunk| {
            for (ri, o_row) in chunk.chunks_exact_mut(c).enumerate() {
                o_row.copy_from_slice(self.row(idx[row0 + ri] as usize));
            }
        });
    }

    /// Scatter-add of rows: `out[idx[i]] += self[i]`, with `out` having
    /// `out_rows` rows. Deliberately serial: destinations collide under
    /// arbitrary `idx`, and the per-destination accumulation order is part
    /// of the determinism contract.
    pub fn scatter_add_rows(&self, idx: &[u32], out_rows: usize) -> NdArray {
        assert_eq!(idx.len(), self.rows(), "scatter idx len");
        let c = self.cols();
        let mut out = NdArray::zeros(out_rows, c);
        for (i, &r) in idx.iter().enumerate() {
            let src = self.row(i);
            let dst = out.row_mut(r as usize);
            for (d, &s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        }
        out
    }

    /// Horizontal concatenation of matrices with equal row counts. The
    /// buffer is built by appending (no zero-fill-then-overwrite): every
    /// element is written exactly once, in row-major output order.
    pub fn concat_cols(parts: &[&NdArray]) -> NdArray {
        assert!(!parts.is_empty());
        let rows = parts[0].rows();
        for p in parts {
            assert_eq!(p.rows(), rows, "concat_cols row mismatch");
        }
        let cols: usize = parts.iter().map(|p| p.cols()).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for p in parts {
                data.extend_from_slice(p.row(i));
            }
        }
        NdArray { shape: (rows, cols), data }
    }

    /// Copies the column range `[from, to)` of every row (append-built, no
    /// redundant zero-fill).
    pub fn slice_cols(&self, from: usize, to: usize) -> NdArray {
        assert!(from <= to && to <= self.cols(), "slice_cols range");
        let mut data = Vec::with_capacity(self.rows() * (to - from));
        for i in 0..self.rows() {
            data.extend_from_slice(&self.row(i)[from..to]);
        }
        NdArray { shape: (self.rows(), to - from), data }
    }

    /// Mean over rows → `[1, cols]`.
    pub fn mean_rows(&self) -> NdArray {
        let (r, c) = self.shape;
        assert!(r > 0, "mean_rows of empty matrix");
        let mut out = NdArray::zeros(1, c);
        for i in 0..r {
            out.as_mut_slice().iter_mut().zip(self.row(i)).for_each(|(o, &v)| *o += v);
        }
        out.scale_inplace(1.0 / r as f32);
        out
    }

    /// Index of the largest element in each row.
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows())
            .map(|i| {
                self.row(i)
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .map(|(j, _)| j)
                    .unwrap()
            })
            .collect()
    }

    /// True when any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The dispatching `dot8`/`dot8_x4` (AVX2 where the CPU has it) must be
    /// `to_bits`-identical to the portable scalar kernels on every length,
    /// including ragged tails and the empty slice — the whole no-grad
    /// bit-stability story rests on this equivalence.
    #[test]
    fn simd_dot_kernels_match_scalar_bits() {
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 40) as f32 / 8388608.0 - 1.0
        };
        for len in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 31, 64, 65, 127] {
            let a: Vec<f32> = (0..len).map(|_| next()).collect();
            let bs: Vec<Vec<f32>> = (0..4).map(|_| (0..len).map(|_| next()).collect()).collect();
            for b in &bs {
                assert_eq!(dot8(&a, b).to_bits(), dot8_scalar(&a, b).to_bits(), "len {len}");
            }
            let fused = dot8_x4(&a, &bs[0], &bs[1], &bs[2], &bs[3]);
            let fused_scalar = dot8_x4_scalar(&a, &bs[0], &bs[1], &bs[2], &bs[3]);
            for k in 0..4 {
                assert_eq!(fused[k].to_bits(), dot8_scalar(&a, &bs[k]).to_bits(), "len {len}");
                assert_eq!(fused[k].to_bits(), fused_scalar[k].to_bits(), "len {len}");
            }
        }
    }

    /// The dispatching `gemm` (AVX2 where the CPU has it) must be
    /// `to_bits`-identical to `gemm_portable` on every tile tail: rows mod 4
    /// of 0–3, column strips of 16, 8, 1–7 and 9–15, depth 0, 1 and odd,
    /// both left-operand layouts, and NaN/Inf in either operand (NaNs
    /// compare as NaN: which of two NaN payloads an add returns is not part
    /// of the contract). On a host without AVX2 both sides are portable.
    #[test]
    fn gemm_matches_portable_bits() {
        let mut seed = 0x2545f4914f6cdd1du64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 40) as f32 / 8388608.0 - 1.0
        };
        let same = |x: f32, y: f32| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
        for rows in [1usize, 2, 3, 4, 5, 7, 8] {
            for m in [1usize, 5, 8, 11, 16, 17, 24, 29, 32, 40] {
                for depth in [0usize, 1, 2, 7, 16, 33] {
                    for (transposed, poison) in [(false, 0), (true, 0), (false, 1), (true, 2)] {
                        let mut a: Vec<f32> = (0..(rows + 1) * depth).map(|_| next()).collect();
                        let mut b: Vec<f32> = (0..depth * m).map(|_| next()).collect();
                        // Zeros meet the NaN/Inf: 0 × Inf must stay NaN.
                        a.iter_mut().step_by(5).for_each(|v| *v = 0.0);
                        let (na, nb) = (a.len(), b.len());
                        match poison {
                            1 if na > 0 => a[na / 2] = f32::NAN,
                            2 if nb > 0 => {
                                b[0] = f32::INFINITY;
                                b[nb - 1] = f32::NEG_INFINITY;
                            }
                            _ => {}
                        }
                        let lhs = if transposed {
                            Lhs { data: &a, rs: 1, ps: rows + 1 }
                        } else {
                            Lhs { data: &a, rs: depth, ps: 1 }
                        };
                        let mut want = vec![f32::NAN; rows * m];
                        let mut got = vec![-7.0f32; rows * m];
                        gemm_portable(lhs, &b, depth, m, 1, &mut want);
                        gemm(lhs, &b, depth, m, 1, &mut got);
                        let ok = want.iter().zip(&got).all(|(&x, &y)| same(x, y));
                        assert!(ok, "rows {rows} m {m} depth {depth} t {transposed} p {poison}");
                    }
                }
            }
        }
    }

    #[test]
    fn from_vec_1d_becomes_row() {
        let a = NdArray::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        assert_eq!(a.shape(), (1, 3));
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_bad_shape_panics() {
        NdArray::from_vec(vec![1.0, 2.0], &[3]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = NdArray::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_nt_equals_matmul_of_transpose() {
        let a = NdArray::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]);
        let b = NdArray::from_vec((0..12).map(|v| (v as f32) * 0.5).collect(), &[4, 3]);
        assert_eq!(a.matmul_nt(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn matmul_tn_equals_transpose_matmul() {
        let a = NdArray::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]);
        let b = NdArray::from_vec((0..8).map(|v| v as f32 - 3.0).collect(), &[2, 4]);
        assert_eq!(a.matmul_tn(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn transpose_round_trips() {
        let a = NdArray::from_vec((0..12).map(|v| v as f32).collect(), &[3, 4]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn gather_then_scatter_is_histogram_weighted() {
        let a = NdArray::from_vec(vec![1.0, 10.0, 2.0, 20.0, 3.0, 30.0], &[3, 2]);
        let g = a.gather_rows(&[2, 0, 2]);
        assert_eq!(g.row(0), &[3.0, 30.0]);
        let s = g.scatter_add_rows(&[1, 1, 0], 2);
        assert_eq!(s.row(0), &[3.0, 30.0]);
        assert_eq!(s.row(1), &[4.0, 40.0]);
    }

    #[test]
    fn concat_and_slice_invert() {
        let a = NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = NdArray::from_vec(vec![5.0, 6.0, 7.0, 8.0, 9.0, 10.0], &[2, 3]);
        let c = NdArray::concat_cols(&[&a, &b]);
        assert_eq!(c.shape(), (2, 5));
        assert_eq!(c.slice_cols(0, 2), a);
        assert_eq!(c.slice_cols(2, 5), b);
    }

    #[test]
    fn mean_rows_averages() {
        let a = NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let m = a.mean_rows();
        assert_eq!(m.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn argmax_rows_picks_largest() {
        let a = NdArray::from_vec(vec![0.1, 0.9, 0.0, 1.0, -1.0, 0.5], &[2, 3]);
        assert_eq!(a.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = NdArray::zeros(1, 3);
        let b = NdArray::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        a.axpy(2.0, &b);
        assert_eq!(a.as_slice(), &[2.0, 4.0, 6.0]);
    }

    // ---- NaN/Inf propagation regression tests -----------------------------
    // The zero-skip fast path used to turn `0 × NaN` / `0 × Inf` into `0.0`,
    // silently defeating the release-mode divergence guards. The skip is now
    // gated on the right operand being finite.

    #[test]
    fn matmul_propagates_nan_through_zero_rows() {
        let a = NdArray::from_vec(vec![0.0, 0.0], &[1, 2]);
        let b = NdArray::from_vec(vec![f32::NAN, 1.0, 2.0, 3.0], &[2, 2]);
        let c = a.matmul(&b);
        assert!(c.get(0, 0).is_nan(), "0 × NaN must stay NaN, got {:?}", c.as_slice());
        // the all-finite column still follows IEEE: 0×1 + 0×3 = 0
        assert_eq!(c.get(0, 1), 0.0);
    }

    #[test]
    fn matmul_propagates_inf_through_zero_rows() {
        let a = NdArray::from_vec(vec![0.0, 1.0], &[1, 2]);
        let b = NdArray::from_vec(vec![f32::INFINITY, 0.0, 1.0, 1.0], &[2, 2]);
        let c = a.matmul(&b);
        // 0 × Inf = NaN, then NaN + 1 = NaN
        assert!(c.get(0, 0).is_nan(), "0 × Inf must produce NaN, got {:?}", c.as_slice());
    }

    #[test]
    fn matmul_tn_propagates_nan_through_zero_columns() {
        // selfᵀ · other with a zero column in self and NaN in other
        let a = NdArray::from_vec(vec![0.0, 0.0], &[2, 1]);
        let b = NdArray::from_vec(vec![f32::NAN, 1.0], &[2, 1]);
        let c = a.matmul_tn(&b);
        assert!(c.get(0, 0).is_nan(), "0 × NaN must stay NaN, got {:?}", c.as_slice());
    }

    #[test]
    fn matmul_zero_skip_still_exact_on_finite_inputs() {
        // sparse one-hot row times a finite table: the fast path must give
        // exactly the gathered row
        let mut onehot = NdArray::zeros(1, 3);
        onehot.set(0, 2, 1.0);
        let table = NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.5, -6.25], &[3, 2]);
        let c = onehot.matmul(&table);
        assert_eq!(c.as_slice(), &[5.5, -6.25]);
    }

    #[test]
    fn matmul_into_matches_allocating_even_with_dirty_buffer() {
        let a = NdArray::from_vec((0..12).map(|v| v as f32 * 0.25 - 1.0).collect(), &[3, 4]);
        let b = NdArray::from_vec((0..20).map(|v| (v as f32).sin()).collect(), &[4, 5]);
        let want = a.matmul(&b);
        let mut out = NdArray::full(3, 5, f32::NAN);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, want);
    }

    #[test]
    fn matmul_nt_into_matches_allocating_even_with_dirty_buffer() {
        let a = NdArray::from_vec((0..12).map(|v| v as f32 * 0.5).collect(), &[3, 4]);
        let b = NdArray::from_vec((0..28).map(|v| (v as f32).cos()).collect(), &[7, 4]);
        let want = a.matmul_nt(&b);
        let mut out = NdArray::full(3, 7, -999.0);
        a.matmul_nt_into(&b, &mut out);
        assert_eq!(out, want);
    }

    #[test]
    fn gather_rows_into_matches_allocating() {
        let a = NdArray::from_vec((0..12).map(|v| v as f32).collect(), &[4, 3]);
        let idx = [3u32, 0, 3, 1];
        let want = a.gather_rows(&idx);
        let mut out = NdArray::full(4, 3, f32::INFINITY);
        a.gather_rows_into(&idx, &mut out);
        assert_eq!(out, want);
    }

    #[test]
    fn map_into_and_zip_assign_match_out_of_place() {
        let a = NdArray::from_vec(vec![-1.0, 0.5, 2.0, -3.0], &[2, 2]);
        let b = NdArray::from_vec(vec![4.0, -2.0, 0.25, 1.0], &[2, 2]);
        let mut out = NdArray::full(2, 2, f32::NAN);
        a.map_into(&mut out, |x| x * x + 1.0);
        assert_eq!(out, a.map(|x| x * x + 1.0));
        let mut c = a.clone();
        c.zip_assign(&b, |x, y| x * y - 1.0);
        assert_eq!(c, a.zip(&b, |x, y| x * y - 1.0));
    }

    #[test]
    fn blocked_dot_matches_no_grad_matmul_nt_cell() {
        let a: Vec<f32> = (0..37).map(|v| (v as f32 * 0.3).sin()).collect();
        let b: Vec<f32> = (0..37).map(|v| (v as f32 * 0.7).cos()).collect();
        let am = NdArray::from_vec(a.clone(), &[1, 37]);
        let bm = NdArray::from_vec(b.clone(), &[1, 37]);
        let full = crate::tensor::no_grad(|| am.matmul_nt(&bm));
        assert_eq!(blocked_dot(&a, &b).to_bits(), full.get(0, 0).to_bits());
    }

    #[test]
    fn has_non_finite_detects_nan_and_inf() {
        let mut a = NdArray::zeros(2, 2);
        assert!(!a.has_non_finite());
        a.set(1, 1, f32::NEG_INFINITY);
        assert!(a.has_non_finite());
        a.set(1, 1, f32::NAN);
        assert!(a.has_non_finite());
    }
}
