//! Training loop for HisRES (§3.6, §4.1.3): Adam at 1e-3, global-norm
//! gradient clipping, per-timestamp joint entity/relation loss, validation
//! MRR early stopping, best-checkpoint restore.
//!
//! The loop is **crash-safe**: [`train_with`] can atomically save the full
//! training state (parameters + Adam moments + RNG + epoch/patience
//! counters) at every epoch boundary and resume from such a state
//! bit-identically, and release-mode divergence guards
//! ([`crate::config::GuardPolicy`]) catch non-finite losses and gradient
//! norms instead of silently poisoning the parameters.

use crate::checkpoint::TrainCheckpoint;
use crate::config::{GuardPolicy, TrainConfig};
use crate::eval::{evaluate, ExtrapolationModel, HistoryCtx, Split};
use crate::model::HisRes;
use hisres_data::DatasetSplits;
use hisres_graph::{EdgeList, GlobalHistoryIndex, Snapshot, Tkg};
use hisres_tensor::{clip_grad_norm, no_grad, Adam, AdamState, CheckpointError, NdArray};
use hisres_util::fsio::FaultInjector;
use hisres_util::json::{FromJson, JsonError, ToJson, Value};
use hisres_util::rng::rngs::StdRng;
use hisres_util::rng::SeedableRng;
use std::fmt;
use std::path::PathBuf;

/// What tripped a divergence guard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GuardKind {
    /// The step's loss evaluated to NaN/Inf.
    NonFiniteLoss,
    /// The post-backward global gradient norm was NaN/Inf.
    NonFiniteGradNorm,
}

impl ToJson for GuardKind {
    fn to_json(&self) -> Value {
        Value::Str(
            match self {
                GuardKind::NonFiniteLoss => "NonFiniteLoss",
                GuardKind::NonFiniteGradNorm => "NonFiniteGradNorm",
            }
            .to_owned(),
        )
    }
}

impl FromJson for GuardKind {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v.as_str() {
            Some("NonFiniteLoss") => Ok(GuardKind::NonFiniteLoss),
            Some("NonFiniteGradNorm") => Ok(GuardKind::NonFiniteGradNorm),
            other => Err(JsonError::msg(format!("unknown GuardKind {other:?}"))),
        }
    }
}

impl fmt::Display for GuardKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// How a tripped guard was resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GuardAction {
    /// The step's gradients were discarded; training continued.
    Skipped,
    /// Parameters/optimiser/RNG were restored from the last good epoch
    /// boundary and the learning rate halved.
    RolledBack,
}

impl ToJson for GuardAction {
    fn to_json(&self) -> Value {
        Value::Str(
            match self {
                GuardAction::Skipped => "Skipped",
                GuardAction::RolledBack => "RolledBack",
            }
            .to_owned(),
        )
    }
}

impl FromJson for GuardAction {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v.as_str() {
            Some("Skipped") => Ok(GuardAction::Skipped),
            Some("RolledBack") => Ok(GuardAction::RolledBack),
            other => Err(JsonError::msg(format!("unknown GuardAction {other:?}"))),
        }
    }
}

/// One divergence-guard firing, recorded in [`TrainReport::guard_events`]
/// and persisted across resume.
#[derive(Clone, Debug, PartialEq)]
pub struct GuardEvent {
    /// Epoch in which the guard fired.
    pub epoch: usize,
    /// Snapshot index (training step) within the epoch.
    pub step: usize,
    /// What was non-finite.
    pub kind: GuardKind,
    /// How it was handled.
    pub action: GuardAction,
}
hisres_util::impl_json!(GuardEvent { epoch, step, kind, action });

/// Typed training failures, replacing the panics (`expect`,
/// `debug_assert!`) the trainer used to carry.
#[derive(Debug)]
pub enum TrainError {
    /// Saving or restoring a checkpoint failed.
    Checkpoint(CheckpointError),
    /// A [`GuardPolicy::Abort`] guard hit a non-finite value.
    Diverged {
        /// Epoch of the poisoned step.
        epoch: usize,
        /// Snapshot index of the poisoned step.
        step: usize,
        /// What was non-finite.
        kind: GuardKind,
    },
    /// A resume checkpoint does not match the model or dataset.
    ResumeMismatch(String),
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::Checkpoint(e) => write!(f, "{e}"),
            TrainError::Diverged { epoch, step, kind } => write!(
                f,
                "training diverged at epoch {epoch}, step {step}: {kind:?} (GuardPolicy::Abort)"
            ),
            TrainError::ResumeMismatch(m) => write!(f, "cannot resume: {m}"),
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for TrainError {
    fn from(e: CheckpointError) -> Self {
        TrainError::Checkpoint(e)
    }
}

/// Crash-safety options for [`train_with`].
#[derive(Default)]
pub struct TrainOptions<'a> {
    /// Resume from a previously saved full training state. The model must
    /// have been built for the same configuration and vocabulary.
    pub resume: Option<TrainCheckpoint>,
    /// When set, the full training state is saved here (atomically) at
    /// every epoch boundary.
    pub state_path: Option<PathBuf>,
    /// Scripted fault injection for the state saves (tests only).
    pub faults: Option<&'a FaultInjector>,
}

/// Per-epoch training trace.
#[derive(Clone, Debug, Default)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Validation MRR per evaluated epoch (empty when patience = 0).
    pub val_mrr: Vec<f64>,
    /// Epochs actually run (≤ configured epochs on early stop).
    pub epochs_run: usize,
    /// Best validation MRR observed (0 when no validation ran).
    pub best_val_mrr: f64,
    /// Divergence-guard firings, in order.
    pub guard_events: Vec<GuardEvent>,
}

/// Dense snapshot timeline of one split.
pub fn snapshots_of(tkg: &Tkg) -> Vec<Snapshot> {
    hisres_graph::snapshot::partition(tkg)
}

/// The query pairs (raw + inverse) of a snapshot, used to build `G_t^H`.
pub fn query_pairs(triples: &[(u32, u32, u32)], num_relations: usize) -> Vec<(u32, u32)> {
    let nr = num_relations as u32;
    let mut qs: Vec<(u32, u32)> = Vec::with_capacity(triples.len() * 2);
    for &(s, r, o) in triples {
        qs.push((s, r));
        qs.push((o, r + nr));
    }
    qs.sort_unstable();
    qs.dedup();
    qs
}

/// Trains `model` on `data.train`, validating on `data.valid` when
/// `tc.patience > 0`. The parameters of the best validation epoch are
/// restored before returning. Shorthand for [`train_with`] without
/// resume or state persistence.
pub fn train(
    model: &HisRes,
    data: &DatasetSplits,
    tc: &TrainConfig,
) -> Result<TrainReport, TrainError> {
    train_with(model, data, tc, &TrainOptions::default())
}

/// The last known-good training state, held in memory for
/// [`GuardPolicy::RollbackWithLrBackoff`].
struct GoodState {
    params: String,
    opt: AdamState,
    rng: StdRng,
}

impl GoodState {
    fn capture(model: &HisRes, opt: &Adam, rng: &StdRng) -> GoodState {
        GoodState {
            params: model.store.to_json(),
            opt: opt.export_state(),
            rng: rng.clone(),
        }
    }
}

/// Incremental view of the global history index before a step: replays
/// non-empty snapshots in order up to (excluding) the requested step.
/// Steps only move forward within an epoch, so the cursor rewinds
/// (rebuilds from scratch) only at the start of each later epoch.
struct GlobalCursor {
    index: GlobalHistoryIndex,
    next_t: usize,
}

impl GlobalCursor {
    fn new() -> GlobalCursor {
        GlobalCursor { index: GlobalHistoryIndex::new(), next_t: 0 }
    }

    fn ensure(&mut self, snaps: &[Snapshot], t: usize, num_relations: usize) {
        if self.next_t > t {
            self.index = GlobalHistoryIndex::new();
            self.next_t = 0;
        }
        while self.next_t < t {
            let s = &snaps[self.next_t];
            if !s.triples.is_empty() {
                self.index.add_snapshot(s, num_relations);
            }
            self.next_t += 1;
        }
    }
}

/// What one training step reports to the epoch loop.
struct StepOutcome {
    /// The step's loss.
    loss: f32,
    /// The global gradient norm before clipping; NaN when the loss was
    /// non-finite and no backward pass ran.
    pre_clip: f32,
}

impl StepOutcome {
    /// The divergence guard's verdict: which value, if any, is non-finite.
    fn tripped(&self) -> Option<GuardKind> {
        if !self.loss.is_finite() {
            Some(GuardKind::NonFiniteLoss)
        } else if !self.pre_clip.is_finite() {
            Some(GuardKind::NonFiniteGradNorm)
        } else {
            None
        }
    }
}

/// Computes the training loss for snapshot `t` given the running global
/// history index.
///
/// Requires `t > 0`, a non-empty `snaps[t]`, and `global` holding exactly
/// the non-empty snapshots before `t`.
fn step_loss(
    model: &HisRes,
    snaps: &[Snapshot],
    t: usize,
    global: &GlobalHistoryIndex,
    rng: &mut StdRng,
) -> hisres_tensor::Tensor {
    let target = &snaps[t];
    let l = model.cfg.history_len;
    let nr = model.num_relations();
    let start = t.saturating_sub(l);
    let history = &snaps[start..t];
    let k = model.cfg.global_prune_topk.unwrap_or(usize::MAX);
    if model.cfg.use_two_phase {
        let raw_pairs: Vec<(u32, u32)> = target.triples.iter().map(|&(s, r, _)| (s, r)).collect();
        let inv_pairs: Vec<(u32, u32)> = target
            .triples
            .iter()
            .map(|&(_, r, o)| (o, r + nr as u32))
            .collect();
        let (rg, ig) = if model.cfg.use_global {
            (
                global.relevant_graph_pruned(&raw_pairs, k),
                global.relevant_graph_pruned(&inv_pairs, k),
            )
        } else {
            (EdgeList::new(), EdgeList::new())
        };
        model.loss_at_two_phase(history, target.t, &target.triples, &rg, &ig, rng)
    } else {
        let queries = query_pairs(&target.triples, nr);
        let g_edges = if model.cfg.use_global {
            global.relevant_graph_pruned(&queries, k)
        } else {
            EdgeList::new()
        };
        model.loss_at(history, target.t, &target.triples, &g_edges, rng)
    }
}

/// One training step: brings `cursor` to step `t`, zeroes the gradients,
/// evaluates the loss, and only when it is finite runs backward and clips
/// the gradients to `grad_clip`.
fn compute_step(
    model: &HisRes,
    snaps: &[Snapshot],
    t: usize,
    cursor: &mut GlobalCursor,
    rng: &mut StdRng,
    grad_clip: f32,
) -> StepOutcome {
    cursor.ensure(snaps, t, model.num_relations());
    model.store.zero_grad();
    let loss = step_loss(model, snaps, t, &cursor.index, rng);
    let lv = loss.value().item();
    if !lv.is_finite() {
        return StepOutcome { loss: lv, pre_clip: f32::NAN };
    }
    loss.backward();
    let pre_clip = clip_grad_norm(model.store.params(), grad_clip);
    StepOutcome { loss: lv, pre_clip }
}

/// Trains with crash-safety options: resume from a saved training state
/// (bit-identical to an uninterrupted run), atomic per-epoch state
/// persistence, and release-mode divergence guards.
pub fn train_with(
    model: &HisRes,
    data: &DatasetSplits,
    tc: &TrainConfig,
    opts: &TrainOptions<'_>,
) -> Result<TrainReport, TrainError> {
    let mut opt = Adam::new(model.store.params().cloned().collect(), tc.lr);
    let mut rng = StdRng::seed_from_u64(tc.seed);
    let snaps = snapshots_of(&data.train);
    let no_faults = FaultInjector::none();
    let faults = opts.faults.unwrap_or(&no_faults);

    let mut report = TrainReport::default();
    let mut best_ckpt: Option<String> = None;
    let mut since_best = 0usize;
    let mut start_epoch = 0usize;

    if let Some(ck) = &opts.resume {
        if ck.num_entities != model.num_entities() || ck.num_relations != model.num_relations() {
            return Err(TrainError::ResumeMismatch(format!(
                "checkpoint was trained on {} entities / {} relations, model has {} / {}",
                ck.num_entities,
                ck.num_relations,
                model.num_entities(),
                model.num_relations()
            )));
        }
        model.store.load_json(&ck.params)?;
        opt.import_state(&ck.opt)
            .map_err(|e| TrainError::Checkpoint(CheckpointError::Malformed(e)))?;
        rng = ck.rng()?;
        start_epoch = ck.epoch;
        since_best = ck.since_best;
        best_ckpt = ck.best_params.clone();
        report.epoch_losses = ck.epoch_losses.clone();
        report.val_mrr = ck.val_mrr.clone();
        report.best_val_mrr = ck.best_val_mrr;
        report.guard_events = ck.guard_events.clone();
        report.epochs_run = ck.epoch;
    }

    // kept exactly under GuardPolicy::RollbackWithLrBackoff, so a tripped
    // guard with no good state is a skip
    let rollback = tc.guard == GuardPolicy::RollbackWithLrBackoff;
    let mut last_good = rollback.then(|| GoodState::capture(model, &opt, &rng));
    // the steps: non-empty snapshots past t = 0, whose only role is to
    // seed the global history
    let work: Vec<usize> = (1..snaps.len())
        .filter(|&t| !snaps[t].triples.is_empty())
        .collect();

    let mut cursor = GlobalCursor::new();
    for epoch in start_epoch..tc.epochs {
        let mut loss_sum = 0.0f64;
        let mut steps = 0usize;
        for &t in &work {
            let out = compute_step(model, &snaps, t, &mut cursor, &mut rng, tc.grad_clip);
            // Divergence guard — always on, because divergence is
            // precisely a release-build, long-run phenomenon.
            let Some(kind) = out.tripped() else {
                opt.step();
                loss_sum += f64::from(out.loss);
                steps += 1;
                continue;
            };
            opt.zero_grad();
            if tc.guard == GuardPolicy::Abort {
                return Err(TrainError::Diverged { epoch, step: t, kind });
            }
            let action = match last_good.as_mut() {
                Some(good) => {
                    model.store.load_json(&good.params)?;
                    opt.import_state(&good.opt)
                        .map_err(|e| TrainError::Checkpoint(CheckpointError::Malformed(e)))?;
                    rng = good.rng.clone();
                    opt.lr *= 0.5;
                    // compound the backoff if the guard fires again
                    good.opt.lr = opt.lr;
                    GuardAction::RolledBack
                }
                None => GuardAction::Skipped,
            };
            report.guard_events.push(GuardEvent { epoch, step: t, kind, action });
        }
        let mean_loss = (loss_sum / steps.max(1) as f64) as f32;
        report.epoch_losses.push(mean_loss);
        report.epochs_run = epoch + 1;

        let mut stop = false;
        if tc.patience > 0 {
            let res = evaluate(&HisResEval { model }, data, Split::Valid);
            report.val_mrr.push(res.mrr);
            if tc.verbose {
                eprintln!("epoch {epoch}: loss {mean_loss:.4}, valid MRR {:.2}", res.mrr); // lint:allow(no-debug-leftovers): per-epoch progress line, gated by the --quiet flag
            }
            if res.mrr > report.best_val_mrr {
                report.best_val_mrr = res.mrr;
                best_ckpt = Some(model.store.to_json());
                since_best = 0;
            } else {
                since_best += 1;
                if since_best >= tc.patience {
                    stop = true;
                }
            }
        } else if tc.verbose {
            eprintln!("epoch {epoch}: loss {mean_loss:.4}"); // lint:allow(no-debug-leftovers): per-epoch progress line, gated by the --quiet flag
        }

        if let Some(good) = last_good.as_mut() {
            *good = GoodState::capture(model, &opt, &rng);
        }
        if let Some(path) = &opts.state_path {
            let state = TrainCheckpoint::capture(
                model,
                &opt,
                &rng,
                epoch + 1,
                since_best,
                &report,
                best_ckpt.clone(),
            );
            state.save_with(path, faults)?;
        }
        if stop {
            break;
        }
    }
    if let Some(ckpt) = best_ckpt {
        model.store.load_json(&ckpt)?;
    }
    Ok(report)
}

/// Adapter that lets a trained [`HisRes`] run under the generic
/// [`evaluate`] protocol.
pub struct HisResEval<'a> {
    /// The trained model.
    pub model: &'a HisRes,
}

impl ExtrapolationModel for HisResEval<'_> {
    fn name(&self) -> String {
        "HisRES".into()
    }

    fn score(&self, ctx: &HistoryCtx<'_>, queries: &[(u32, u32)]) -> NdArray {
        let l = self.model.cfg.history_len;
        let start = ctx.snapshots.len().saturating_sub(l);
        let history = &ctx.snapshots[start..];
        let k = self.model.cfg.global_prune_topk.unwrap_or(usize::MAX);
        let mut rng = StdRng::seed_from_u64(0);
        if !self.model.cfg.use_two_phase {
            let g_edges = if self.model.cfg.use_global {
                ctx.global.relevant_graph_pruned(queries, k)
            } else {
                EdgeList::new()
            };
            return no_grad(|| {
                let enc = self.model.encode(history, ctx.t, &g_edges, false, &mut rng);
                self.model
                    .score_objects(&enc, queries, false, &mut rng)
                    .value_clone()
            });
        }
        // two-phase: split the batch by direction, score each phase with
        // its own globally relevant graph, reassemble rows
        let nr = self.model.num_relations() as u32;
        let mut out = NdArray::zeros(queries.len(), self.model.num_entities());
        for raw_phase in [true, false] {
            let idx: Vec<usize> = queries
                .iter()
                .enumerate()
                .filter(|(_, &(_, r))| (r < nr) == raw_phase)
                .map(|(i, _)| i)
                .collect();
            if idx.is_empty() {
                continue;
            }
            let phase_queries: Vec<(u32, u32)> = idx.iter().map(|&i| queries[i]).collect();
            let g_edges = if self.model.cfg.use_global {
                ctx.global.relevant_graph_pruned(&phase_queries, k)
            } else {
                EdgeList::new()
            };
            let scores = no_grad(|| {
                let enc = self.model.encode(history, ctx.t, &g_edges, false, &mut rng);
                self.model
                    .score_objects(&enc, &phase_queries, false, &mut rng)
                    .value_clone()
            });
            for (row, &i) in idx.iter().enumerate() {
                out.row_mut(i).copy_from_slice(scores.row(row));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HisResConfig;
    use hisres_data::synthetic::{generate, SyntheticConfig};
    use hisres_graph::Quad;

    fn tiny_dataset() -> DatasetSplits {
        let cfg = SyntheticConfig {
            num_entities: 20,
            num_relations: 4,
            num_timestamps: 30,
            periodic_patterns: 10,
            period_range: (3, 6),
            causal_rules: 1,
            trigger_events_per_t: 2,
            recency_draws_per_t: 2,
            noise_events_per_t: 1,
            seed: 5,
            ..Default::default()
        };
        DatasetSplits::from_tkg("tiny-syn", "1 step", &generate(&cfg).tkg)
    }

    fn tiny_model() -> HisRes {
        let cfg = HisResConfig {
            dim: 8,
            conv_channels: 2,
            history_len: 3,
            ..Default::default()
        };
        HisRes::new(&cfg, 20, 4)
    }

    #[test]
    fn query_pairs_dedup_and_include_inverses() {
        let qs = query_pairs(&[(0, 1, 2), (0, 1, 3), (2, 0, 0)], 4);
        assert!(qs.contains(&(0, 1)));
        assert!(qs.contains(&(2, 5))); // inverse of (0,1,2)
        assert!(qs.contains(&(3, 5)));
        assert!(qs.contains(&(2, 0)));
        assert!(qs.contains(&(0, 4)));
        // (0,1) appears once despite two triples
        assert_eq!(qs.iter().filter(|&&q| q == (0, 1)).count(), 1);
    }

    #[test]
    fn one_epoch_reduces_loss_trend() {
        let data = tiny_dataset();
        let model = tiny_model();
        let tc = TrainConfig { epochs: 3, patience: 0, ..Default::default() };
        let report = train(&model, &data, &tc).unwrap();
        assert_eq!(report.epochs_run, 3);
        assert_eq!(report.epoch_losses.len(), 3);
        assert!(
            report.epoch_losses[2] < report.epoch_losses[0],
            "losses did not decrease: {:?}",
            report.epoch_losses
        );
    }

    #[test]
    fn training_improves_over_untrained_model() {
        let data = tiny_dataset();
        let trained = tiny_model();
        // lr scaled up for the tiny step budget of a unit test
        let tc = TrainConfig { epochs: 8, lr: 0.01, patience: 0, ..Default::default() };
        train(&trained, &data, &tc).unwrap();
        let untrained = tiny_model();
        let r_trained = evaluate(&HisResEval { model: &trained }, &data, Split::Test);
        let r_untrained = evaluate(&HisResEval { model: &untrained }, &data, Split::Test);
        assert!(
            r_trained.mrr > r_untrained.mrr,
            "trained {:.2} vs untrained {:.2}",
            r_trained.mrr,
            r_untrained.mrr
        );
    }

    #[test]
    fn early_stopping_restores_best_checkpoint() {
        let data = tiny_dataset();
        let model = tiny_model();
        let tc = TrainConfig { epochs: 4, patience: 1, ..Default::default() };
        let report = train(&model, &data, &tc).unwrap();
        assert!(report.best_val_mrr > 0.0);
        // the restored parameters reproduce the best recorded valid MRR
        let res = evaluate(&HisResEval { model: &model }, &data, Split::Valid);
        assert!(
            (res.mrr - report.best_val_mrr).abs() < 1e-6,
            "restored {} vs best {}",
            res.mrr,
            report.best_val_mrr
        );
    }

    #[test]
    fn training_is_deterministic_given_seeds() {
        let data = tiny_dataset();
        let tc = TrainConfig { epochs: 2, patience: 0, ..Default::default() };
        let m1 = tiny_model();
        let r1 = train(&m1, &data, &tc).unwrap();
        let m2 = tiny_model();
        let r2 = train(&m2, &data, &tc).unwrap();
        assert_eq!(r1.epoch_losses, r2.epoch_losses);
    }

    /// A learning rate so large the first Adam step blows the parameters
    /// up to ±1e30, making the next step's loss non-finite.
    fn diverging_tc(guard: GuardPolicy) -> TrainConfig {
        TrainConfig { epochs: 2, lr: 1e30, patience: 0, guard, ..Default::default() }
    }

    #[test]
    fn guard_abort_returns_typed_divergence_error() {
        let data = tiny_dataset();
        let model = tiny_model();
        match train(&model, &data, &diverging_tc(GuardPolicy::Abort)) {
            Err(TrainError::Diverged { kind, .. }) => {
                assert!(matches!(
                    kind,
                    GuardKind::NonFiniteLoss | GuardKind::NonFiniteGradNorm
                ));
            }
            other => panic!("expected Diverged, got {other:?}"),
        }
    }

    #[test]
    fn guard_skip_step_records_events_and_finishes() {
        let data = tiny_dataset();
        let model = tiny_model();
        let report = train(&model, &data, &diverging_tc(GuardPolicy::SkipStep)).unwrap();
        assert_eq!(report.epochs_run, 2);
        assert!(!report.guard_events.is_empty(), "divergence must be recorded");
        assert!(report
            .guard_events
            .iter()
            .all(|e| e.action == GuardAction::Skipped));
    }

    #[test]
    fn guard_rollback_restores_finite_params_and_backs_off_lr() {
        let data = tiny_dataset();
        let model = tiny_model();
        let report =
            train(&model, &data, &diverging_tc(GuardPolicy::RollbackWithLrBackoff)).unwrap();
        assert!(!report.guard_events.is_empty());
        assert!(report
            .guard_events
            .iter()
            .all(|e| e.action == GuardAction::RolledBack));
        // rollback restored the last good parameters: everything finite
        for p in model.store.params() {
            assert!(p.value().as_slice().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn resume_is_bit_identical_to_uninterrupted_run() {
        let data = tiny_dataset();
        let tc4 = TrainConfig { epochs: 4, patience: 2, ..Default::default() };
        let straight = tiny_model();
        let r_straight = train(&straight, &data, &tc4).unwrap();

        let path = std::env::temp_dir()
            .join(format!("hisres_trainer_resume_{}.ckpt", std::process::id()));
        let interrupted = tiny_model();
        let tc2 = TrainConfig { epochs: 2, ..tc4.clone() };
        let opts = TrainOptions { state_path: Some(path.clone()), ..Default::default() };
        train_with(&interrupted, &data, &tc2, &opts).unwrap();

        let ck = TrainCheckpoint::load(&path).unwrap();
        assert_eq!(ck.epoch, 2);
        let resumed = ck.build_model().unwrap();
        let opts = TrainOptions { resume: Some(ck), ..Default::default() };
        let r_resumed = train_with(&resumed, &data, &tc4, &opts).unwrap();
        std::fs::remove_file(&path).ok();

        let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&r_straight.epoch_losses), bits(&r_resumed.epoch_losses));
        assert_eq!(r_straight.best_val_mrr.to_bits(), r_resumed.best_val_mrr.to_bits());
        assert_eq!(straight.store.to_json(), resumed.store.to_json());
    }

    #[test]
    fn resume_across_a_firing_rollback_guard_is_bit_identical() {
        let data = tiny_dataset();
        let tc4 = TrainConfig { epochs: 4, ..diverging_tc(GuardPolicy::RollbackWithLrBackoff) };
        let tmp = |tag: &str| {
            std::env::temp_dir()
                .join(format!("hisres_trainer_rollback_{tag}_{}.ckpt", std::process::id()))
        };
        let (straight_path, partial_path, resumed_path) =
            (tmp("straight"), tmp("partial"), tmp("resumed"));

        let straight = tiny_model();
        let opts = TrainOptions { state_path: Some(straight_path.clone()), ..Default::default() };
        let r_straight = train_with(&straight, &data, &tc4, &opts).unwrap();
        // the guard must fire in the resumed epochs for this test to bite
        assert!(r_straight.guard_events.iter().any(|e| e.epoch >= 2));

        let interrupted = tiny_model();
        let tc2 = TrainConfig { epochs: 2, ..tc4.clone() };
        let opts = TrainOptions { state_path: Some(partial_path.clone()), ..Default::default() };
        train_with(&interrupted, &data, &tc2, &opts).unwrap();
        let ck = TrainCheckpoint::load(&partial_path).unwrap();
        let resumed = ck.build_model().unwrap();
        let opts = TrainOptions {
            resume: Some(ck),
            state_path: Some(resumed_path.clone()),
            ..Default::default()
        };
        let r_resumed = train_with(&resumed, &data, &tc4, &opts).unwrap();

        let straight_state = std::fs::read(&straight_path).unwrap();
        let resumed_state = std::fs::read(&resumed_path).unwrap();
        for p in [&straight_path, &partial_path, &resumed_path] {
            std::fs::remove_file(p).ok();
        }
        let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&r_straight.epoch_losses), bits(&r_resumed.epoch_losses));
        assert_eq!(r_straight.guard_events, r_resumed.guard_events);
        assert_eq!(straight.store.to_json(), resumed.store.to_json());
        assert!(straight_state == resumed_state, "final training-state files differ");
    }

    #[test]
    fn resume_rejects_vocabulary_mismatch() {
        let data = tiny_dataset();
        let model = tiny_model();
        let tc = TrainConfig { epochs: 1, patience: 0, ..Default::default() };
        let path = std::env::temp_dir()
            .join(format!("hisres_trainer_mismatch_{}.ckpt", std::process::id()));
        let opts = TrainOptions { state_path: Some(path.clone()), ..Default::default() };
        train_with(&model, &data, &tc, &opts).unwrap();
        let ck = TrainCheckpoint::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let other = HisRes::new(
            &HisResConfig { dim: 8, conv_channels: 2, history_len: 3, ..Default::default() },
            99,
            4,
        );
        let opts = TrainOptions { resume: Some(ck), ..Default::default() };
        assert!(matches!(
            train_with(&other, &data, &tc, &opts),
            Err(TrainError::ResumeMismatch(_))
        ));
    }

    #[test]
    fn global_cursor_matches_sequential_index() {
        let tkg = Tkg::new(
            6,
            2,
            vec![
                Quad::new(0, 0, 1, 0),
                Quad::new(1, 1, 2, 1),
                Quad::new(2, 0, 3, 3),
                Quad::new(3, 1, 4, 4),
            ],
        );
        let snaps = hisres_graph::snapshot::partition(&tkg);
        let nr = 2;
        // reference: the index of every non-empty snapshot before step t
        let reference = |t: usize| {
            let mut g = GlobalHistoryIndex::new();
            for s in snaps.iter().take(t).filter(|s| !s.triples.is_empty()) {
                g.add_snapshot(s, nr);
            }
            g
        };
        let mut cursor = GlobalCursor::new();
        for &t in &[1usize, 3, 4, 1, 4, 3] {
            // includes rewinds
            cursor.ensure(&snaps, t, nr);
            let want = reference(t);
            let q = [(0u32, 0u32), (1, 1), (2, 0), (3, 1)];
            let a = cursor.index.relevant_graph_pruned(&q, usize::MAX);
            let b = want.relevant_graph_pruned(&q, usize::MAX);
            assert_eq!(a, b, "cursor diverged at t={t}");
        }
    }

    #[test]
    fn snapshots_of_covers_dense_range() {
        let tkg = Tkg::new(3, 1, vec![Quad::new(0, 0, 1, 0), Quad::new(1, 0, 2, 4)]);
        let s = snapshots_of(&tkg);
        assert_eq!(s.len(), 5);
        assert!(s[2].triples.is_empty());
    }
}
