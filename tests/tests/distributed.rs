//! Fault-injection battery for distributed training.
//!
//! The coordinator runs in-process; workers are real OS processes (the
//! `dist_worker` helper bin of this package). The invariant under test
//! everywhere: the sync-mode distributed run ends **byte-identical** to
//! uninterrupted single-process training — including when a worker is
//! SIGKILLed mid-epoch, a frame is torn or corrupted on the wire, or a
//! heartbeat goes silent.

use hisres::dist::{train_distributed, DistConfig, DistReport, LossPolicy};
use hisres::trainer::{train_with, TrainError, TrainOptions, TrainReport};
use hisres::{HisRes, HisResConfig, TrainConfig};
use hisres_comms::HeartbeatConfig;
use hisres_data::synthetic::{generate, SyntheticConfig};
use hisres_data::DatasetSplits;
use std::path::PathBuf;
use std::time::Duration;

/// Must stay in lockstep with the `syn:16:3:20:5` spec handed to the
/// worker bin — both sides construct the identical dataset in memory.
const DATA_SPEC: &str = "syn:16:3:20:5";

fn tiny_data() -> DatasetSplits {
    let cfg = SyntheticConfig {
        num_entities: 16,
        num_relations: 3,
        num_timestamps: 20,
        seed: 5,
        ..Default::default()
    };
    DatasetSplits::from_tkg("tiny", "1 step", &generate(&cfg).tkg)
}

fn tiny_model() -> HisRes {
    let cfg = HisResConfig { dim: 8, conv_channels: 2, history_len: 3, ..Default::default() };
    HisRes::new(&cfg, 16, 3)
}

fn tc(epochs: usize, patience: usize) -> TrainConfig {
    TrainConfig { epochs, patience, ..Default::default() }
}

fn dist_cfg(workers: usize, extra: Vec<Vec<String>>) -> DistConfig {
    DistConfig {
        workers,
        on_loss: LossPolicy::Respawn,
        heartbeat: HeartbeatConfig {
            interval: Duration::from_millis(50),
            timeout: Duration::from_secs(5),
        },
        step_timeout: Duration::from_secs(60),
        worker_exe: PathBuf::from(env!("CARGO_BIN_EXE_dist_worker")),
        worker_base_args: vec!["--data".into(), DATA_SPEC.into(), "--quiet".into()],
        worker_extra_args: extra,
        max_respawns: 3,
    }
}

fn temp_state(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hisres_dist_{tag}_{}.ckpt", std::process::id()))
}

/// Single-process reference run, returning (params json, report, state bytes).
fn baseline(epochs: usize, patience: usize, tag: &str) -> (String, TrainReport, Vec<u8>) {
    let data = tiny_data();
    let model = tiny_model();
    let state = temp_state(&format!("{tag}_ref"));
    let opts = TrainOptions { state_path: Some(state.clone()), ..Default::default() };
    let report = train_with(&model, &data, &tc(epochs, patience), &opts).unwrap();
    let bytes = std::fs::read(&state).unwrap();
    std::fs::remove_file(&state).ok();
    (model.store.to_json(), report, bytes)
}

/// Distributed run under `dc`, returning (params json, dist report, state bytes).
fn distributed(
    epochs: usize,
    patience: usize,
    tag: &str,
    dc: &DistConfig,
) -> Result<(String, DistReport, Vec<u8>), TrainError> {
    let data = tiny_data();
    let model = tiny_model();
    let state = temp_state(tag);
    let opts = TrainOptions { state_path: Some(state.clone()), ..Default::default() };
    let report = train_distributed(&model, &data, &tc(epochs, patience), &opts, dc)?;
    let bytes = std::fs::read(&state).unwrap();
    std::fs::remove_file(&state).ok();
    Ok((model.store.to_json(), report, bytes))
}

/// Asserts a distributed result equals the single-process reference bit
/// for bit: parameters, per-epoch losses, and the saved training state.
fn assert_byte_identical(tag: &str, epochs: usize, patience: usize, dc: &DistConfig) -> DistReport {
    let (ref_params, ref_report, ref_state) = baseline(epochs, patience, tag);
    let (params, dist, state) = distributed(epochs, patience, tag, dc).unwrap();
    assert_eq!(params, ref_params, "{tag}: final parameters diverged");
    assert_eq!(state, ref_state, "{tag}: training-state checkpoint bytes diverged");
    let bits = |r: &TrainReport| r.epoch_losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&dist.train), bits(&ref_report), "{tag}: per-epoch losses diverged");
    assert_eq!(
        dist.train.best_val_mrr.to_bits(),
        ref_report.best_val_mrr.to_bits(),
        "{tag}: validation MRR diverged"
    );
    dist
}

#[test]
fn sync_two_workers_is_byte_identical_to_single_process() {
    let dist = assert_byte_identical("sync2", 3, 2, &dist_cfg(2, vec![]));
    assert!(dist.worker_losses.is_empty(), "clean run reported losses: {:?}", dist.worker_losses);
    assert_eq!(dist.respawns, 0);
}

#[test]
fn sync_is_byte_identical_at_one_and_four_workers() {
    // the worker count only changes which process computes a step
    for workers in [1, 4] {
        let dist =
            assert_byte_identical(&format!("sync{workers}"), 2, 0, &dist_cfg(workers, vec![]));
        assert!(
            dist.worker_losses.is_empty(),
            "{workers} workers: {:?}",
            dist.worker_losses
        );
    }
}

#[test]
fn sigkilled_worker_mid_epoch_respawns_byte_identical() {
    // worker 0 SIGKILLs itself on its 3rd assigned step — mid-epoch, with
    // steps in flight; the supervisor respawns it and re-dispatches
    let extra = vec![vec!["--die-on-step".into(), "2".into()], vec![]];
    let dist = assert_byte_identical("sigkill", 2, 0, &dist_cfg(2, extra));
    assert!(dist.respawns >= 1, "the killed worker was never respawned");
    assert!(
        dist.worker_losses.iter().any(|e| e.worker == 0 && e.action == "respawn"),
        "missing the respawn event: {:?}",
        dist.worker_losses
    );
}

#[test]
fn sigkilled_worker_redistributes_byte_identical() {
    let extra = vec![vec![], vec!["--die-on-step".into(), "1".into()]];
    let mut dc = dist_cfg(2, extra);
    dc.on_loss = LossPolicy::Redistribute;
    let dist = assert_byte_identical("redist", 2, 0, &dc);
    assert_eq!(dist.respawns, 0);
    assert!(
        dist.worker_losses.iter().any(|e| e.worker == 1 && e.action == "redistribute"),
        "missing the redistribute event: {:?}",
        dist.worker_losses
    );
}

#[test]
fn torn_frame_surfaces_as_typed_fault_and_recovers_byte_identical() {
    // worker 0's 2nd result frame is cut off 8 bytes into the header
    let extra = vec![vec!["--net-faults".into(), "1:truncate".into()], vec![]];
    let dist = assert_byte_identical("torn", 2, 0, &dist_cfg(2, extra));
    assert!(
        dist.worker_losses.iter().any(|e| e.cause.contains("torn frame")),
        "expected a torn-frame cause: {:?}",
        dist.worker_losses
    );
}

#[test]
fn corrupted_checksum_surfaces_as_typed_fault_and_recovers_byte_identical() {
    let extra = vec![vec![], vec!["--net-faults".into(), "1:corrupt".into()]];
    let dist = assert_byte_identical("corrupt", 2, 0, &dist_cfg(2, extra));
    assert!(
        dist.worker_losses.iter().any(|e| e.cause.contains("checksum mismatch")),
        "expected a checksum-mismatch cause: {:?}",
        dist.worker_losses
    );
}

#[test]
fn stalled_heartbeat_is_detected_and_recovers_byte_identical() {
    // worker 0 keeps computing but goes silent after 1 beat — only the
    // failure detector can catch a wedged-but-alive process. The lease
    // must expire while the run is still in flight even in release
    // builds, hence the short timeout and the longer 8-epoch run.
    let extra = vec![vec!["--stall-heartbeats-after".into(), "1".into()], vec![]];
    let mut dc = dist_cfg(2, extra);
    dc.heartbeat =
        HeartbeatConfig { interval: Duration::from_millis(20), timeout: Duration::from_millis(150) };
    let dist = assert_byte_identical("stall", 8, 0, &dc);
    assert!(
        dist.worker_losses.iter().any(|e| e.cause.contains("heartbeat silent")),
        "expected a heartbeat-silence cause: {:?}",
        dist.worker_losses
    );
}

#[test]
fn abort_policy_returns_a_typed_worker_lost_error() {
    let extra = vec![vec!["--die-on-step".into(), "0".into()], vec![]];
    let mut dc = dist_cfg(2, extra);
    dc.on_loss = LossPolicy::Abort;
    match distributed(2, 0, "abort", &dc) {
        Err(TrainError::WorkerLost { worker: 0, .. }) => {}
        other => panic!("expected WorkerLost for worker 0, got {other:?}"),
    }
}

#[test]
fn respawn_budget_exhaustion_escalates_to_worker_lost() {
    // both workers die on every assignment; one slot burns through its
    // respawn budget and the run must fail with a typed error, not hang
    let extra =
        vec![vec!["--die-on-step".into(), "0".into()], vec!["--die-on-step".into(), "0".into()]];
    let mut dc = dist_cfg(2, extra);
    dc.max_respawns = 0;
    match distributed(2, 0, "budget", &dc) {
        Err(TrainError::WorkerLost { cause, .. }) => {
            assert!(cause.contains("respawn budget"), "unexpected cause: {cause}");
        }
        other => panic!("expected a respawn-budget WorkerLost, got {other:?}"),
    }
}
