//! Model and training configuration, including every ablation switch of
//! Table 4 and the sensitivity knobs of Figure 5.

use hisres_util::impl_json;
use hisres_util::json::{FromJson, JsonError, ToJson, Value};

/// Which aggregator the global relevance encoder uses (Table 4, part 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GlobalAggregator {
    /// The paper's ConvGAT (default).
    ConvGat,
    /// `HisRES-w/-CompGCN` ablation.
    CompGcn,
    /// `HisRES-w/-RGAT` ablation.
    Rgat,
}

impl ToJson for GlobalAggregator {
    fn to_json(&self) -> Value {
        let name = match self {
            GlobalAggregator::ConvGat => "ConvGat",
            GlobalAggregator::CompGcn => "CompGcn",
            GlobalAggregator::Rgat => "Rgat",
        };
        Value::Str(name.to_owned())
    }
}

impl FromJson for GlobalAggregator {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v.as_str() {
            Some("ConvGat") => Ok(GlobalAggregator::ConvGat),
            Some("CompGcn") => Ok(GlobalAggregator::CompGcn),
            Some("Rgat") => Ok(GlobalAggregator::Rgat),
            Some(other) => Err(JsonError::msg(format!(
                "unknown GlobalAggregator variant {other:?}"
            ))),
            None => Err(JsonError::msg("expected string for GlobalAggregator")),
        }
    }
}

/// HisRES hyper-parameters. `Default` reproduces the paper's architecture
/// scaled to CPU size; the paper-scale values are noted per field.
#[derive(Clone, Debug, PartialEq)]
pub struct HisResConfig {
    /// Embedding width `d` (paper: 200).
    pub dim: usize,
    /// Local history length `l` (paper: 7–10 by dataset, grid-searched).
    pub history_len: usize,
    /// Granularity level: adjacent snapshots merged per inter-snapshot
    /// graph (paper: 2; Figure 5a sweeps 1–5).
    pub granularity: usize,
    /// GNN hidden layers in both encoders (paper: 2; Figure 5b sweeps 1–3).
    pub gnn_layers: usize,
    /// Dropout rate applied in the decoder (paper: 0.2 everywhere).
    pub dropout: f32,
    /// Decoder convolution channels (ConvTransE family default: 50 at
    /// `d = 200`; scale with `dim`).
    pub conv_channels: usize,
    /// Decoder convolution kernel width (family default: 3).
    pub conv_kernel: usize,
    /// ConvGAT's ψ convolution kernel width.
    pub convgat_kernel: usize,
    /// Task coefficient `α` weighting entity vs. relation prediction
    /// (eq. 15; paper: 0.7).
    pub alpha: f32,
    /// Enable the multi-granularity evolutionary encoder (§3.2).
    /// `false` = `HisRES-w/o-G`.
    pub use_evolutionary: bool,
    /// Enable the global relevance encoder (§3.4).
    /// `false` = `HisRES-w/o-G^H`.
    pub use_global: bool,
    /// Enable the inter-snapshot granularity branch (§3.2.2).
    /// `false` = `HisRES-w/o-MG`.
    pub use_inter_snapshot: bool,
    /// Self-gate the two granularities (eq. 8); `false` replaces the gate
    /// with summation = `HisRES-w/o-SG¹`.
    pub use_self_gating_local: bool,
    /// Self-gate local vs. global encodings (eq. 13); `false` =
    /// `HisRES-w/o-SG²`.
    pub use_self_gating_global: bool,
    /// Update relations during CompGCN aggregation (eq. 5); `false` =
    /// `HisRES-w/o-RU`.
    pub use_relation_update: bool,
    /// Periodic time encoding of snapshot gaps (eq. 1–2).
    pub use_time_encoding: bool,
    /// Trainable static enhancement table (the "static graph learning
    /// module" used on ICEWS datasets, §4.1.3). With no real static KG in
    /// the synthetic analogs this degenerates to a gated second embedding
    /// table (documented substitution).
    pub use_static: bool,
    /// Aggregator of the global relevance encoder.
    pub global_aggregator: GlobalAggregator,
    /// Two-phase forward propagation (§4.1.3, after LogCL): the raw and
    /// inverse query sets are encoded separately, each with its own
    /// globally relevant graph. Costs a second encode per step; the
    /// default single-pass mode folds both directions into one query set.
    pub use_two_phase: bool,
    /// Recency pruning of the globally relevant graph: keep only this many
    /// most-recently-observed objects per query pair (`None` = no pruning).
    /// Implements the paper's future-work direction ("exploring pruning
    /// techniques for global relevance", §5).
    pub global_prune_topk: Option<usize>,
    /// Parameter-initialisation seed.
    pub seed: u64,
}
impl_json!(HisResConfig {
    dim,
    history_len,
    granularity,
    gnn_layers,
    dropout,
    conv_channels,
    conv_kernel,
    convgat_kernel,
    alpha,
    use_evolutionary,
    use_global,
    use_inter_snapshot,
    use_self_gating_local,
    use_self_gating_global,
    use_relation_update,
    use_time_encoding,
    use_static,
    global_aggregator,
    use_two_phase,
    global_prune_topk,
    seed
});

impl Default for HisResConfig {
    fn default() -> Self {
        Self {
            dim: 32,
            history_len: 3,
            granularity: 2,
            gnn_layers: 2,
            dropout: 0.2,
            conv_channels: 8,
            conv_kernel: 3,
            convgat_kernel: 3,
            alpha: 0.7,
            use_evolutionary: true,
            use_global: true,
            use_inter_snapshot: true,
            use_self_gating_local: true,
            use_self_gating_global: true,
            use_relation_update: true,
            use_time_encoding: true,
            use_static: true,
            global_aggregator: GlobalAggregator::ConvGat,
            use_two_phase: false,
            global_prune_topk: None,
            seed: 42,
        }
    }
}

impl HisResConfig {
    /// Sanity-checks field combinations, returning a message on misuse.
    pub fn validate(&self) -> Result<(), String> {
        if self.dim == 0 {
            return Err("dim must be positive".into());
        }
        if self.history_len == 0 {
            return Err("history_len must be positive".into());
        }
        if self.granularity == 0 {
            return Err("granularity must be positive".into());
        }
        if self.gnn_layers == 0 {
            return Err("gnn_layers must be positive".into());
        }
        if !(0.0..1.0).contains(&self.dropout) {
            return Err(format!("dropout {} outside [0, 1)", self.dropout));
        }
        if !(0.0..=1.0).contains(&self.alpha) {
            return Err(format!("alpha {} outside [0, 1]", self.alpha));
        }
        if self.conv_kernel.is_multiple_of(2) || self.convgat_kernel.is_multiple_of(2) {
            return Err("convolution kernels must be odd".into());
        }
        if !self.use_evolutionary && !self.use_global {
            return Err("at least one encoder must be enabled".into());
        }
        if self.global_prune_topk == Some(0) {
            return Err("global_prune_topk of 0 removes the whole graph; use use_global = false".into());
        }
        Ok(())
    }

    /// The ablation presets of Table 4, keyed by the paper's variant name.
    pub fn ablation(name: &str) -> HisResConfig {
        let mut c = HisResConfig::default();
        match name {
            "HisRES" => {}
            "HisRES-w/o-G" => c.use_evolutionary = false,
            "HisRES-w/o-GH" => c.use_global = false,
            "HisRES-w/o-MG" => c.use_inter_snapshot = false,
            "HisRES-w/o-SG1" => c.use_self_gating_local = false,
            "HisRES-w/o-SG2" => c.use_self_gating_global = false,
            "HisRES-w/o-RU" => c.use_relation_update = false,
            "HisRES-w/-CompGCN" => c.global_aggregator = GlobalAggregator::CompGcn,
            "HisRES-w/-RGAT" => c.global_aggregator = GlobalAggregator::Rgat,
            other => panic!("unknown ablation variant {other:?}"),
        }
        c
    }
}

/// What the trainer does when a step produces a non-finite loss or
/// gradient norm. Unlike the old `debug_assert!`, these guards run in
/// release builds — the configuration evolutionary TKG trainers actually
/// crash in (recurrent snapshot encoders diverging hundreds of epochs
/// into a run).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum GuardPolicy {
    /// Discard the poisoned step's gradients and keep training (default).
    #[default]
    SkipStep,
    /// Restore parameters, optimiser moments and RNG from the last good
    /// epoch boundary, halve the learning rate, and continue.
    RollbackWithLrBackoff,
    /// Stop training with a `Diverged` error.
    Abort,
}

impl ToJson for GuardPolicy {
    fn to_json(&self) -> Value {
        let name = match self {
            GuardPolicy::SkipStep => "SkipStep",
            GuardPolicy::RollbackWithLrBackoff => "RollbackWithLrBackoff",
            GuardPolicy::Abort => "Abort",
        };
        Value::Str(name.to_owned())
    }
}

impl FromJson for GuardPolicy {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v.as_str() {
            Some("SkipStep") => Ok(GuardPolicy::SkipStep),
            Some("RollbackWithLrBackoff") => Ok(GuardPolicy::RollbackWithLrBackoff),
            Some("Abort") => Ok(GuardPolicy::Abort),
            Some(other) => Err(JsonError::msg(format!("unknown GuardPolicy variant {other:?}"))),
            None => Err(JsonError::msg("expected string for GuardPolicy")),
        }
    }
}

/// Optimisation schedule.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Maximum epochs.
    pub epochs: usize,
    /// Adam learning rate (paper: 1e-3).
    pub lr: f32,
    /// Global-norm gradient clip (RE-GCN family: 1.0).
    pub grad_clip: f32,
    /// Early-stop patience in epochs without validation-MRR improvement
    /// (0 disables early stopping and validation passes).
    pub patience: usize,
    /// Print per-epoch progress to stderr.
    pub verbose: bool,
    /// Training-loop seed (dropout masks, shuffling).
    pub seed: u64,
    /// Divergence-guard policy for non-finite loss / gradient norms.
    pub guard: GuardPolicy,
}
impl_json!(TrainConfig { epochs, lr, grad_clip, patience, verbose, seed, guard });

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 12,
            lr: 1e-3,
            grad_clip: 1.0,
            patience: 3,
            verbose: false,
            seed: 7,
            guard: GuardPolicy::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        HisResConfig::default().validate().unwrap();
    }

    #[test]
    fn rejects_zero_dim() {
        let cfg = HisResConfig { dim: 0, ..Default::default() };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_both_encoders_disabled() {
        let cfg = HisResConfig {
            use_evolutionary: false,
            use_global: false,
            ..Default::default()
        };
        assert!(cfg.validate().unwrap_err().contains("encoder"));
    }

    #[test]
    fn rejects_even_kernels() {
        let cfg = HisResConfig { conv_kernel: 4, ..Default::default() };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn ablation_presets_flip_expected_switches() {
        assert!(!HisResConfig::ablation("HisRES-w/o-G").use_evolutionary);
        assert!(!HisResConfig::ablation("HisRES-w/o-GH").use_global);
        assert!(!HisResConfig::ablation("HisRES-w/o-MG").use_inter_snapshot);
        assert!(!HisResConfig::ablation("HisRES-w/o-SG1").use_self_gating_local);
        assert!(!HisResConfig::ablation("HisRES-w/o-SG2").use_self_gating_global);
        assert!(!HisResConfig::ablation("HisRES-w/o-RU").use_relation_update);
        assert_eq!(
            HisResConfig::ablation("HisRES-w/-CompGCN").global_aggregator,
            GlobalAggregator::CompGcn
        );
        assert_eq!(
            HisResConfig::ablation("HisRES-w/-RGAT").global_aggregator,
            GlobalAggregator::Rgat
        );
    }

    #[test]
    fn every_ablation_is_valid() {
        for name in [
            "HisRES",
            "HisRES-w/o-G",
            "HisRES-w/o-GH",
            "HisRES-w/o-MG",
            "HisRES-w/o-SG1",
            "HisRES-w/o-SG2",
            "HisRES-w/o-RU",
            "HisRES-w/-CompGCN",
            "HisRES-w/-RGAT",
        ] {
            HisResConfig::ablation(name).validate().unwrap();
        }
    }

    #[test]
    fn config_json_round_trips() {
        let cfg = HisResConfig::default();
        let json = hisres_util::json::to_string(&cfg).unwrap();
        let back: HisResConfig = hisres_util::json::from_str(&json).unwrap();
        assert_eq!(back.dim, cfg.dim);
        assert_eq!(back.global_aggregator, cfg.global_aggregator);
        assert_eq!(back.global_prune_topk, cfg.global_prune_topk);
    }
}
