#![warn(missing_docs)]

//! # hisres-tensor
//!
//! A small, self-contained dense tensor library with reverse-mode automatic
//! differentiation, written for the HisRES temporal-knowledge-graph reasoning
//! stack. It provides exactly the operator set that graph neural networks of
//! the CompGCN / GAT / ConvTransE family need:
//!
//! * dense row-major `f32` matrices ([`NdArray`]),
//! * an autograd wrapper ([`Tensor`]) that records a dynamic computation
//!   graph and back-propagates with [`Tensor::backward`],
//! * matrix multiplication (plain and `A · Bᵀ`), broadcast elementwise
//!   arithmetic, column concatenation/slicing,
//! * sparse-style `gather` / `scatter-add` used for message passing,
//! * per-destination `segment softmax` used for edge attention (ConvGAT),
//! * a same-padded 1-D convolution used by the ConvTransE decoder,
//! * fused softmax + cross-entropy loss,
//! * Xavier initialisation, SGD/Adam optimisers and global-norm gradient
//!   clipping ([`optim`]),
//! * JSON checkpointing of named parameters ([`ParamStore`]).
//!
//! The library is CPU-only and **deterministically data-parallel**: the
//! dense kernels (matmul family, elementwise map/zip/axpy, row gather,
//! conv/softmax forward) fan out over the [`hisres_util::pool`] worker
//! pool, sized by `HISRES_THREADS` / the CLI's `--threads` (1 reproduces
//! the old single-threaded behaviour exactly). Parallelism never trades
//! away determinism: every kernel partitions its *output* into disjoint
//! chunks computed in serial inner-loop order, so results are bit-identical
//! for every thread count — `tests/parallel_props.rs` asserts this. The
//! gradient products (`matmul_tn`, grad-mode `matmul_nt`) share one
//! register-blocked kernel that keeps the serial per-element accumulation
//! order, so training checkpoints are byte-stable across releases too —
//! `tests/into_kernels.rs` pins it against the seed kernels.
//! Small inputs stay below fixed work cutoffs and run inline, so tiny
//! graphs pay no pool overhead.
//!
//! The autograd tape ([`Tensor`]) is `Rc`-based and stays confined to the
//! thread that builds the graph; only the raw `NdArray` buffer work inside
//! each op crosses threads. Callers that fan out *above* the tensor layer
//! (e.g. evaluation ranking) must therefore stick to inference-only
//! (`no_grad`) kernel calls or plain `NdArray` data, which are `Sync`.
//! All gradients are verified against central finite differences by
//! property tests.
//!
//! ## Quick example
//!
//! ```
//! use hisres_tensor::{Tensor, NdArray};
//!
//! let w = Tensor::param(NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
//! let x = Tensor::constant(NdArray::from_vec(vec![1.0, 0.0], &[1, 2]));
//! let y = x.matmul(&w).sigmoid().sum_all();
//! y.backward();
//! assert!(w.grad().is_some());
//! ```

pub mod init;
pub mod ndarray;
pub mod ops;
pub mod optim;
pub mod scratch;
pub mod store;
pub mod tensor;

pub use ndarray::{blocked_dot, NdArray};
pub use optim::{clip_grad_norm, Adam, AdamState, Sgd};
pub use scratch::Scratch;
pub use store::{CheckpointError, ParamStore, TensorInfo};
pub use tensor::{no_grad, Tensor};
