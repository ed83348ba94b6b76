#![warn(missing_docs)]

//! # hisres-bench
//!
//! The benchmark harness regenerating every table and figure of the HisRES
//! paper on the synthetic benchmark analogs:
//!
//! | Paper artifact | Binary |
//! |---|---|
//! | Table 2 (dataset statistics) | `cargo run --release -p hisres-bench --bin table2` |
//! | Table 3 (main results, 16 models × 4 datasets) | `... --bin table3` |
//! | Table 4 (ablations) | `... --bin table4` |
//! | Figure 5(a) (granularity sweep) | `... --bin fig5a` |
//! | Figure 5(b) (GNN layer sweep) | `... --bin fig5b` |
//! | Extension: global-graph pruning budget | `... --bin prune_sweep` |
//! | Extension: multi-step extrapolation decay | `... --bin multistep` |
//! | Supplement: local history length | `... --bin history_sweep` |
//!
//! Each binary prints the paper's reported numbers next to the measured
//! ones. Absolute values are not comparable (the paper trains `d = 200`
//! models on the real ICEWS/GDELT datasets on A800 GPUs; we train small
//! models on synthetic analogs on CPU) — the claim under test is the
//! *shape*: who wins, which components matter, where the sweet spots lie.
//! `scripts/run_experiments.sh` runs them all into `results/`.
//!
//! Performance is measured by the repository benchmark in `perfbench/`,
//! not here.

pub mod harness;
pub mod paper;

pub use harness::{BenchSettings, MetricRow};
