//! Full-training-state checkpoints for crash-safe, bit-identical resume.
//!
//! A [`TrainCheckpoint`] captures *everything* the training loop needs to
//! continue as if it had never stopped: model configuration and
//! vocabulary sizes, all parameter values, the Adam step counter and both
//! moment vectors, the RNG state (dropout masks and negative sampling
//! replay identically), the epoch/patience counters, the running loss and
//! validation traces, the best-so-far parameters, and any divergence-guard
//! events. Files are written through the atomic, versioned, checksummed
//! envelope of [`hisres_util::fsio`], so an interrupted save can never
//! destroy the previous state.
//!
//! The RNG state is stored as hexadecimal strings rather than JSON
//! numbers: the workspace's JSON numbers are `f64`, which cannot represent
//! every `u64` exactly, and a single lost bit would silently fork the
//! training trajectory on resume.

use crate::config::HisResConfig;
use crate::model::HisRes;
use crate::trainer::{GuardEvent, TrainReport};
use hisres_tensor::{Adam, AdamState, CheckpointError};
use hisres_util::fsio::{self, FaultInjector};
use hisres_util::impl_json;
use hisres_util::json;
use hisres_util::rng::rngs::StdRng;

/// Envelope kind tag of training-state files.
pub const TRAIN_STATE_KIND: &str = "train-state";

/// The complete state of an interrupted training run. See the module docs
/// for what "complete" means and why.
#[derive(Clone, Debug)]
pub struct TrainCheckpoint {
    /// Model hyper-parameters (lets `--resume` rebuild the model without
    /// repeating every flag).
    pub config: HisResConfig,
    /// Entity vocabulary size the parameters were created for.
    pub num_entities: usize,
    /// Relation vocabulary size (raw, without inverses).
    pub num_relations: usize,
    /// Epochs fully completed.
    pub epoch: usize,
    /// Epochs since the best validation MRR (early-stop counter).
    pub since_best: usize,
    /// Best validation MRR observed so far.
    pub best_val_mrr: f64,
    /// Mean training loss of every completed epoch.
    pub epoch_losses: Vec<f32>,
    /// Validation MRR of every evaluated epoch.
    pub val_mrr: Vec<f64>,
    /// Divergence-guard firings so far.
    pub guard_events: Vec<GuardEvent>,
    /// xoshiro256** state as four 16-digit hex words.
    pub rng_state: Vec<String>,
    /// Full Adam state (step counter, hyper-parameters, both moments).
    pub opt: AdamState,
    /// Current parameter values ([`hisres_tensor::ParamStore::to_json`]).
    pub params: String,
    /// Parameters of the best validation epoch, when validation ran.
    pub best_params: Option<String>,
}
impl_json!(TrainCheckpoint {
    config,
    num_entities,
    num_relations,
    epoch,
    since_best,
    best_val_mrr,
    epoch_losses,
    val_mrr,
    guard_events,
    rng_state,
    opt,
    params,
    best_params
});

impl TrainCheckpoint {
    /// Captures the current training state. Called by the trainer at epoch
    /// boundaries.
    pub(crate) fn capture(
        model: &HisRes,
        opt: &Adam,
        rng: &StdRng,
        epoch: usize,
        since_best: usize,
        report: &TrainReport,
        best_params: Option<String>,
    ) -> TrainCheckpoint {
        TrainCheckpoint {
            config: model.cfg.clone(),
            num_entities: model.num_entities(),
            num_relations: model.num_relations(),
            epoch,
            since_best,
            best_val_mrr: report.best_val_mrr,
            epoch_losses: report.epoch_losses.clone(),
            val_mrr: report.val_mrr.clone(),
            guard_events: report.guard_events.clone(),
            rng_state: rng.state().iter().map(|w| format!("{w:016x}")).collect(),
            opt: opt.export_state(),
            params: model.store.to_json(),
            best_params,
        }
    }

    /// Rebuilds the RNG exactly where the checkpointed run left off.
    pub fn rng(&self) -> Result<StdRng, CheckpointError> {
        let bad = |m: String| CheckpointError::Malformed(m);
        if self.rng_state.len() != 4 {
            return Err(bad(format!("rng_state has {} words, expected 4", self.rng_state.len())));
        }
        let mut s = [0u64; 4];
        for (dst, word) in s.iter_mut().zip(&self.rng_state) {
            *dst = u64::from_str_radix(word, 16)
                .map_err(|_| bad(format!("rng_state word {word:?} is not hex")))?;
        }
        StdRng::from_state(s).ok_or_else(|| bad("rng_state is the all-zero fixed point".into()))
    }

    /// Builds a fresh model from the checkpointed configuration and loads
    /// the checkpointed parameters into it.
    pub fn build_model(&self) -> Result<HisRes, CheckpointError> {
        self.config
            .validate()
            .map_err(CheckpointError::Malformed)?;
        let model = HisRes::new(&self.config, self.num_entities, self.num_relations);
        model.store.load_json(&self.params)?;
        Ok(model)
    }

    /// Atomically writes the state file (envelope + temp file + fsync +
    /// rename).
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), CheckpointError> {
        self.save_with(path, &FaultInjector::none())
    }

    /// [`TrainCheckpoint::save`] with scripted fault injection (tests).
    pub fn save_with(
        &self,
        path: impl AsRef<std::path::Path>,
        faults: &FaultInjector,
    ) -> Result<(), CheckpointError> {
        let payload = json::to_string(self).map_err(|e| CheckpointError::Malformed(e.to_string()))?;
        let sealed = fsio::seal(TRAIN_STATE_KIND, &payload);
        fsio::atomic_write_with(path, sealed.as_bytes(), faults)?;
        Ok(())
    }

    /// Loads and verifies a state file written by [`TrainCheckpoint::save`].
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<TrainCheckpoint, CheckpointError> {
        Self::load_bytes(&std::fs::read(path)?)
    }

    /// [`TrainCheckpoint::load`] from already-read file contents.
    pub fn load_bytes(file: &[u8]) -> Result<TrainCheckpoint, CheckpointError> {
        let payload = fsio::open(file, TRAIN_STATE_KIND)?;
        json::from_str(payload).map_err(|e| CheckpointError::Malformed(e.to_string()))
    }

    /// Like [`TrainCheckpoint::build_model`], but prefers the parameters of
    /// the best validation epoch when they were captured — what a serving
    /// process wants from an interrupted training run.
    pub fn build_model_best(&self) -> Result<HisRes, CheckpointError> {
        self.config.validate().map_err(CheckpointError::Malformed)?;
        let model = HisRes::new(&self.config, self.num_entities, self.num_relations); // lint:allow(panic-reachability): config passed validate() on the line above; construction asserts can no longer fire
        let params = self.best_params.as_deref().unwrap_or(&self.params);
        model.store.load_json(params)?;
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hisres_util::rng::{RngCore, SeedableRng};

    fn dummy_state(rng_state: Vec<String>) -> TrainCheckpoint {
        TrainCheckpoint {
            config: HisResConfig { dim: 8, conv_channels: 2, ..Default::default() },
            num_entities: 4,
            num_relations: 2,
            epoch: 3,
            since_best: 1,
            best_val_mrr: 0.25,
            epoch_losses: vec![1.5, 1.25, 1.0],
            val_mrr: vec![0.1, 0.25, 0.2],
            guard_events: Vec::new(),
            rng_state,
            opt: AdamState {
                t: 7,
                lr: 1e-3,
                beta1: 0.9,
                beta2: 0.999,
                eps: 1e-8,
                weight_decay: 0.0,
                m: Vec::new(),
                v: Vec::new(),
            },
            params: "{\"params\":{}}".to_owned(),
            best_params: None,
        }
    }

    #[test]
    fn rng_state_hex_round_trip_is_exact() {
        // a state with all 64 bits in play, beyond f64's 53-bit mantissa
        let mut r = StdRng::seed_from_u64(0xdead_beef_cafe_f00d);
        for _ in 0..3 {
            r.next_u64();
        }
        let hex: Vec<String> = r.state().iter().map(|w| format!("{w:016x}")).collect();
        let ck = dummy_state(hex);
        let json = json::to_string(&ck).unwrap();
        let back: TrainCheckpoint = json::from_str(&json).unwrap();
        let mut restored = back.rng().unwrap();
        let mut original = r.clone();
        for _ in 0..50 {
            assert_eq!(original.next_u64(), restored.next_u64());
        }
    }

    #[test]
    fn rng_rejects_bad_state() {
        assert!(dummy_state(vec!["12".into()]).rng().is_err());
        assert!(dummy_state(vec!["zz".into(); 4]).rng().is_err());
        assert!(dummy_state(vec!["0".into(); 4]).rng().is_err());
    }

    #[test]
    fn save_load_round_trip() {
        let path = std::env::temp_dir()
            .join(format!("hisres_trainstate_{}.ckpt", std::process::id()));
        let r = StdRng::seed_from_u64(9);
        let hex = r.state().iter().map(|w| format!("{w:016x}")).collect();
        let ck = dummy_state(hex);
        ck.save(&path).unwrap();
        let back = TrainCheckpoint::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.epoch, ck.epoch);
        assert_eq!(back.epoch_losses, ck.epoch_losses);
        assert_eq!(back.opt, ck.opt);
        assert_eq!(back.rng_state, ck.rng_state);
        assert_eq!(back.params, ck.params);
    }

    #[test]
    fn load_rejects_model_checkpoints() {
        let path = std::env::temp_dir()
            .join(format!("hisres_wrongkind_{}.ckpt", std::process::id()));
        let model = HisRes::new(
            &HisResConfig { dim: 8, conv_channels: 2, ..Default::default() },
            4,
            2,
        );
        model.save_checkpoint(&path).unwrap();
        let err = TrainCheckpoint::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.to_string().contains("kind"), "{err}");
    }
}
