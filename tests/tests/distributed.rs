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
use hisres::{GuardAction, GuardPolicy, HisRes, HisResConfig, TrainCheckpoint, TrainConfig};
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

/// Single-process reference run of `tc`, returning (params json, report,
/// state bytes).
fn baseline(tc: &TrainConfig, tag: &str) -> (String, TrainReport, Vec<u8>) {
    let data = tiny_data();
    let model = tiny_model();
    let state = temp_state(&format!("{tag}_ref"));
    let opts = TrainOptions { state_path: Some(state.clone()), ..Default::default() };
    let report = train_with(&model, &data, tc, &opts).unwrap();
    let bytes = std::fs::read(&state).unwrap();
    std::fs::remove_file(&state).ok();
    (model.store.to_json(), report, bytes)
}

/// Distributed run of `tc` under `dc` with `opts` (its state path replaced
/// by a temp file), returning (params json, dist report, state bytes). A
/// resumed run starts from the model its checkpoint builds, as the CLI's.
fn distributed(
    tc: &TrainConfig,
    opts: TrainOptions<'_>,
    tag: &str,
    dc: &DistConfig,
) -> Result<(String, DistReport, Vec<u8>), TrainError> {
    let data = tiny_data();
    let model = opts.resume.as_ref().map_or_else(tiny_model, |ck| ck.build_model().unwrap());
    let state = temp_state(tag);
    let opts = TrainOptions { state_path: Some(state.clone()), ..opts };
    let report = train_distributed(&model, &data, tc, &opts, dc)?;
    let bytes = std::fs::read(&state).unwrap();
    std::fs::remove_file(&state).ok();
    Ok((model.store.to_json(), report, bytes))
}

/// Asserts a distributed run of `tc` with `opts` equals the straight
/// single-process run of `tc` bit for bit: parameters, per-epoch losses,
/// guard events, and the saved training state.
fn assert_byte_identical(
    tag: &str,
    tc: &TrainConfig,
    opts: TrainOptions<'_>,
    dc: &DistConfig,
) -> DistReport {
    let (ref_params, ref_report, ref_state) = baseline(tc, tag);
    let (params, dist, state) = distributed(tc, opts, tag, dc).unwrap();
    assert_eq!(params, ref_params, "{tag}: final parameters diverged");
    assert_eq!(state, ref_state, "{tag}: training-state checkpoint bytes diverged");
    let bits = |r: &TrainReport| r.epoch_losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&dist.train), bits(&ref_report), "{tag}: per-epoch losses diverged");
    assert_eq!(
        dist.train.best_val_mrr.to_bits(),
        ref_report.best_val_mrr.to_bits(),
        "{tag}: validation MRR diverged"
    );
    assert_eq!(dist.train.guard_events, ref_report.guard_events, "{tag}: guard events diverged");
    dist
}

#[test]
fn sync_two_workers_is_byte_identical_to_single_process() {
    let dist =
        assert_byte_identical("sync2", &tc(3, 2), TrainOptions::default(), &dist_cfg(2, vec![]));
    assert!(dist.worker_losses.is_empty(), "clean run reported losses: {:?}", dist.worker_losses);
    assert_eq!(dist.respawns, 0);
}

#[test]
fn sync_is_byte_identical_at_one_and_four_workers() {
    // the worker count only changes which process computes a step
    for workers in [1, 4] {
        let dist = assert_byte_identical(
            &format!("sync{workers}"),
            &tc(2, 0),
            TrainOptions::default(),
            &dist_cfg(workers, vec![]),
        );
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
    let dist =
        assert_byte_identical("sigkill", &tc(2, 0), TrainOptions::default(), &dist_cfg(2, extra));
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
    let dist = assert_byte_identical("redist", &tc(2, 0), TrainOptions::default(), &dc);
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
    let dist =
        assert_byte_identical("torn", &tc(2, 0), TrainOptions::default(), &dist_cfg(2, extra));
    assert!(
        dist.worker_losses.iter().any(|e| e.cause.contains("torn frame")),
        "expected a torn-frame cause: {:?}",
        dist.worker_losses
    );
}

#[test]
fn corrupted_checksum_surfaces_as_typed_fault_and_recovers_byte_identical() {
    let extra = vec![vec![], vec!["--net-faults".into(), "1:corrupt".into()]];
    let dist =
        assert_byte_identical("corrupt", &tc(2, 0), TrainOptions::default(), &dist_cfg(2, extra));
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
    let dist = assert_byte_identical("stall", &tc(8, 0), TrainOptions::default(), &dc);
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
    match distributed(&tc(2, 0), TrainOptions::default(), "abort", &dc) {
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
    match distributed(&tc(2, 0), TrainOptions::default(), "budget", &dc) {
        Err(TrainError::WorkerLost { cause, .. }) => {
            assert!(cause.contains("respawn budget"), "unexpected cause: {cause}");
        }
        other => panic!("expected a respawn-budget WorkerLost, got {other:?}"),
    }
}

#[test]
fn firing_rollback_guard_is_byte_identical() {
    // a learning rate so large the first Adam step blows the parameters
    // up, so the guard fires and rolls back again and again
    let diverging = TrainConfig {
        epochs: 2,
        lr: 1e30,
        patience: 0,
        guard: GuardPolicy::RollbackWithLrBackoff,
        ..Default::default()
    };
    let dist = assert_byte_identical(
        "rollback",
        &diverging,
        TrainOptions::default(),
        &dist_cfg(2, vec![]),
    );
    assert!(!dist.train.guard_events.is_empty(), "the rollback guard never fired");
    assert!(dist.train.guard_events.iter().all(|e| e.action == GuardAction::RolledBack));
}

#[test]
fn distributed_resume_from_single_process_state_is_byte_identical() {
    // two single-process epochs save a state; a distributed run resumes
    // it to four epochs and must equal four straight epochs
    let state = temp_state("resume_src");
    let opts = TrainOptions { state_path: Some(state.clone()), ..Default::default() };
    train_with(&tiny_model(), &tiny_data(), &tc(2, 2), &opts).unwrap();
    let ck = TrainCheckpoint::load(&state).unwrap();
    std::fs::remove_file(&state).ok();
    assert_eq!(ck.epoch, 2);
    let opts = TrainOptions { resume: Some(ck), ..Default::default() };
    assert_byte_identical("resume", &tc(4, 2), opts, &dist_cfg(2, vec![]));
}
