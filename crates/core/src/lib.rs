#![warn(missing_docs)]

//! # hisres
//!
//! A from-scratch Rust reproduction of **HisRES** — *Historically Relevant
//! Event Structuring for Temporal Knowledge Graph Reasoning* (ICDE 2025).
//!
//! HisRES predicts future events `(subject, relation, ?, t)` over a
//! temporal knowledge graph by combining:
//!
//! * a **multi-granularity evolutionary encoder** over the most recent
//!   snapshots — per-snapshot CompGCN aggregation evolved by a GRU, plus a
//!   second branch over *merged adjacent snapshots* that exposes 2-hop
//!   causal chains across timestamps (§3.2);
//! * a **global relevance encoder** over the *globally relevant graph*
//!   (all historical facts matching the current query pairs), aggregated
//!   with the attention layer **ConvGAT** (§3.4);
//! * **self-gating** fusion of the resulting entity matrices (§3.3) and a
//!   **ConvTransE** decoder trained with a joint entity/relation
//!   objective (§3.5–3.6).
//!
//! ## Quick start
//!
//! ```
//! use hisres::{HisRes, HisResConfig, TrainConfig};
//! use hisres::trainer::{train, HisResEval};
//! use hisres::eval::{evaluate, Split};
//! use hisres_data::synthetic::{generate, SyntheticConfig};
//! use hisres_data::DatasetSplits;
//!
//! // a tiny synthetic temporal knowledge graph
//! let syn = generate(&SyntheticConfig {
//!     num_entities: 20, num_relations: 4, num_timestamps: 25,
//!     ..Default::default()
//! });
//! let data = DatasetSplits::from_tkg("demo", "1 step", &syn.tkg);
//!
//! // build and train
//! let cfg = HisResConfig { dim: 8, conv_channels: 2, ..Default::default() };
//! let model = HisRes::new(&cfg, 20, 4);
//! let tc = TrainConfig { epochs: 1, patience: 0, ..Default::default() };
//! train(&model, &data, &tc).unwrap();
//!
//! // time-aware filtered evaluation
//! let result = evaluate(&HisResEval { model: &model }, &data, Split::Test);
//! println!("MRR {:.2}, Hits@1 {:.2}", result.mrr, result.hits[0]);
//! ```
//!
//! The crates beneath this one are reusable on their own:
//! `hisres-tensor` (autograd), `hisres-graph` (TKG structures),
//! `hisres-data` (datasets), `hisres-nn` (layers), and `hisres-baselines`
//! (the comparison models of Table 3).

pub mod checkpoint;
pub mod config;
pub mod eval;
pub mod ingest;
pub mod model;
pub mod multistep;
pub mod serve;
pub mod topk;
pub mod trainer;

pub use checkpoint::TrainCheckpoint;
pub use config::{GlobalAggregator, GuardPolicy, HisResConfig, TrainConfig};
pub use eval::{
    evaluate, evaluate_relations, score_at, score_at_topk, EvalResult, ExtrapolationModel,
    HistoryCtx, ScoreCtx, Split,
};
pub use ingest::{IngestError, IngestOutcome, IngestSession, IngestSessionConfig};
pub use model::{Encoded, EncoderState, HisRes};
pub use multistep::evaluate_multistep;
pub use serve::{
    error_line, load_servable_model, parse_request, serve_concurrent, serve_lines,
    IngestRequest, ModelScorer, QueryRequest, Reply, Request, ServeConfig, ServeEngine,
    ServeError, ServeScorer, ServeStats, ServerConfig, SessionScorer, SymbolRef,
};
pub use topk::{top_k, topk_row_into, BlockNorms, TopkScratch};
pub use trainer::{
    train, train_with, GuardAction, GuardEvent, GuardKind, HisResEval, TrainError, TrainOptions,
    TrainReport,
};
