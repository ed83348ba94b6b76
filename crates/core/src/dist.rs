//! Fault-tolerant distributed data-parallel training.
//!
//! # Design: step delegation, not intra-batch sharding
//!
//! Bit-identity with single-process training is the contract everything
//! else here serves. The model samples negatives/dropout from one RNG
//! stream *during* loss evaluation, so splitting a snapshot's triples
//! across workers would consume that stream in a different order and
//! diverge immediately. Instead the coordinator owns the authoritative
//! model, optimiser and RNG and **delegates whole gradient steps**: an
//! [`Msg::Assign`] carries the exact flattened parameters and RNG state
//! for one snapshot; the worker runs the *same*
//! `trainer::compute_step` kernel the single-process trainer
//! runs, and returns the loss, pre-clip gradient norm, advanced RNG state
//! and clipped gradients.
//!
//! There is **one training loop**. The coordinator is only a step
//! executor of the trainer's epoch loop (`trainer::drive`): resume, the
//! divergence guards, validation and early stop, the per-epoch state save
//! and the best-parameter restore are the code
//! [`crate::trainer::train_with`] runs; only who computes a step differs.
//! One step is in flight at a time and the RNG is relayed through every
//! step, making the run byte-identical to `train_with` by construction.
//!
//! # Robustness
//!
//! Every failure — a SIGKILLed worker process, a torn frame, a corrupted
//! checksum, a stalled heartbeat, a step deadline — funnels into one
//! supervisor path that kills the worker and applies the
//! [`LossPolicy`]: respawn it (with a bounded budget), redistribute its
//! work across survivors, or abort with a typed error. Because a
//! re-dispatched [`Msg::Assign`] carries the identical parameters and
//! RNG state, recovery is byte-transparent: the final checkpoint is the
//! same whether or not a worker died mid-epoch.

use crate::config::TrainConfig;
use crate::model::HisRes;
use crate::trainer::{
    compute_step, drive, snapshots_of, GlobalCursor, StepExecutor, StepOutcome, TrainError,
    TrainOptions, TrainReport,
};
use hisres_comms::frame::{FramedConn, WireError};
use hisres_comms::heartbeat::{heartbeat_loop, FailureDetector, HeartbeatConfig};
use hisres_comms::proto::{recv_msg, send_msg, GradVec, Msg, PROTOCOL_VERSION};
use hisres_comms::NetFaultInjector;
use hisres_data::DatasetSplits;
use hisres_graph::Snapshot;
use hisres_util::pool;
use hisres_util::retry::{BackoffPolicy, JitterPolicy};
use hisres_util::rng::rngs::StdRng;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the supervisor does when a worker is declared lost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LossPolicy {
    /// Kill the remains, spawn a fresh process into the same slot, and
    /// re-dispatch its in-flight steps (bounded by
    /// [`DistConfig::max_respawns`]).
    Respawn,
    /// Retire the slot and re-shard its in-flight and future steps
    /// deterministically across the survivors.
    Redistribute,
    /// Kill every worker and return a typed error.
    Abort,
}

impl std::str::FromStr for LossPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "respawn" => Ok(LossPolicy::Respawn),
            "redistribute" => Ok(LossPolicy::Redistribute),
            "abort" => Ok(LossPolicy::Abort),
            other => Err(format!(
                "unknown --on-worker-loss policy {other:?} (expected respawn|redistribute|abort)"
            )),
        }
    }
}

/// Coordinator-side configuration for [`train_distributed`].
#[derive(Clone, Debug)]
pub struct DistConfig {
    /// Worker processes to spawn.
    pub workers: usize,
    /// Reaction to a lost worker.
    pub on_loss: LossPolicy,
    /// Heartbeat cadence and lease timeout.
    pub heartbeat: HeartbeatConfig,
    /// How long one delegated step may take (including the re-dispatch
    /// wait after a recovery) before its worker is declared lost.
    pub step_timeout: Duration,
    /// Executable to spawn for each worker.
    pub worker_exe: PathBuf,
    /// Arguments every worker gets (subcommand, `--data …`); the
    /// coordinator appends `--connect ADDR --worker-id N`.
    pub worker_base_args: Vec<String>,
    /// Extra per-slot arguments for the *first* spawn only — one-shot
    /// fault-injection flags (`--die-on-step`, `--net-faults`, …) that a
    /// respawned replacement must not inherit.
    pub worker_extra_args: Vec<Vec<String>>,
    /// Respawn budget per slot before escalating to an abort.
    pub max_respawns: usize,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            workers: 2,
            on_loss: LossPolicy::Respawn,
            heartbeat: HeartbeatConfig::default(),
            step_timeout: Duration::from_secs(60),
            worker_exe: PathBuf::new(),
            worker_base_args: Vec::new(),
            worker_extra_args: Vec::new(),
            max_respawns: 3,
        }
    }
}

/// One worker-loss incident and how long recovery took.
#[derive(Clone, Debug)]
pub struct WorkerLossEvent {
    /// Slot id of the lost worker.
    pub worker: u32,
    /// Why it was declared lost.
    pub cause: String,
    /// `"respawn"` or `"redistribute"`.
    pub action: &'static str,
    /// Wall-clock from declaring the loss to work flowing again.
    pub recovered_ms: u64,
}

/// What a distributed run produced beyond the training trace.
#[derive(Debug, Default)]
pub struct DistReport {
    /// The per-epoch trace, same shape as single-process training.
    pub train: TrainReport,
    /// Every worker-loss incident, in order.
    pub worker_losses: Vec<WorkerLossEvent>,
    /// Total respawned processes.
    pub respawns: usize,
}

/// Worker-side configuration for [`run_worker`].
#[derive(Debug)]
pub struct WorkerConfig {
    /// Coordinator address (both the control and heartbeat connections).
    pub connect: SocketAddr,
    /// Slot id assigned by the coordinator.
    pub worker_id: u32,
    /// Fault injection: SIGKILL self on receiving the Nth assign
    /// (0-based), *before* computing it.
    pub die_on_step: Option<u64>,
    /// Fault injection: stop heartbeating after N beats while staying
    /// alive (a wedged worker).
    pub stall_heartbeats_after: Option<u64>,
    /// Fault injection: scripted wire faults on this worker's sends.
    pub net_faults: NetFaultInjector,
    /// Log per-step progress to stderr.
    pub verbose: bool,
}

/// The delegated step awaiting its result.
struct Pending {
    t: usize,
    slot: usize,
    msg: Msg,
}

/// Decoded fields of a [`Msg::StepDone`].
struct Done {
    loss_bits: u32,
    pre_clip_bits: u32,
    rng: [u64; 4],
    grads: Option<GradVec>,
}

struct Slot {
    id: u32,
    child: Option<Child>,
    ctrl: Option<FramedConn>,
    /// Retired slots (redistribute) never rejoin.
    enabled: bool,
    respawns: usize,
}

struct Coordinator<'a> {
    dc: &'a DistConfig,
    listener: TcpListener,
    addr: SocketAddr,
    detector: Arc<FailureDetector>,
    slots: Vec<Slot>,
    welcome: Msg,
    monitors: Vec<pool::Service<()>>,
    events: Vec<WorkerLossEvent>,
    respawns: usize,
    dispatch_counter: u64,
    /// The one delegated step awaiting its result, if any.
    in_flight: Option<Pending>,
    verbose: bool,
}

impl Drop for Coordinator<'_> {
    fn drop(&mut self) {
        // best-effort: never leave orphan worker processes behind,
        // whatever error path unwound us
        for slot in &mut self.slots {
            if let Some(child) = &mut slot.child {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);
const POLL_SLICE: Duration = Duration::from_millis(25);

fn sup(msg: impl Into<String>) -> TrainError {
    TrainError::Supervise(msg.into())
}

impl<'a> Coordinator<'a> {
    fn new(
        model: &HisRes,
        tc: &TrainConfig,
        dc: &'a DistConfig,
    ) -> Result<Coordinator<'a>, TrainError> {
        if dc.workers == 0 {
            return Err(sup("--workers must be at least 1"));
        }
        let listener = TcpListener::bind(("127.0.0.1", 0))
            .map_err(|e| sup(format!("cannot bind coordinator listener: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| sup(format!("cannot read listener address: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| sup(format!("cannot make listener nonblocking: {e}")))?;
        let config_json = hisres_util::json::to_string(&model.cfg)
            .map_err(|e| sup(format!("cannot serialise model config: {e}")))?;
        let train_json = hisres_util::json::to_string(tc)
            .map_err(|e| sup(format!("cannot serialise train config: {e}")))?;
        let welcome = Msg::Welcome {
            protocol: PROTOCOL_VERSION,
            config_json,
            train_json,
            num_entities: model.num_entities() as u32,
            num_relations: model.num_relations() as u32,
            heartbeat_interval_ms: dc.heartbeat.interval.as_millis() as u64,
        };
        let mut coord = Coordinator {
            dc,
            listener,
            addr,
            detector: Arc::new(FailureDetector::new(dc.heartbeat.timeout)),
            slots: Vec::new(),
            welcome,
            monitors: Vec::new(),
            events: Vec::new(),
            respawns: 0,
            dispatch_counter: 0,
            in_flight: None,
            verbose: tc.verbose,
        };
        for id in 0..dc.workers as u32 {
            coord.slots.push(Slot { id, child: None, ctrl: None, enabled: true, respawns: 0 });
            coord.spawn_slot(id as usize, true)?;
        }
        let deadline = Instant::now() + coord.join_timeout();
        for idx in 0..coord.slots.len() {
            coord.wait_slot_ready(idx, deadline)?;
        }
        Ok(coord)
    }

    fn join_timeout(&self) -> Duration {
        self.dc.step_timeout.max(Duration::from_secs(10))
    }

    fn spawn_slot(&mut self, idx: usize, first_spawn: bool) -> Result<(), TrainError> {
        let id = self.slots[idx].id;
        let mut cmd = Command::new(&self.dc.worker_exe);
        cmd.args(&self.dc.worker_base_args);
        if first_spawn {
            if let Some(extra) = self.dc.worker_extra_args.get(idx) {
                cmd.args(extra);
            }
        }
        cmd.arg("--connect")
            .arg(self.addr.to_string())
            .arg("--worker-id")
            .arg(id.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(if self.verbose { Stdio::inherit() } else { Stdio::null() });
        let child = cmd
            .spawn()
            .map_err(|e| sup(format!("cannot spawn worker {id} ({:?}): {e}", self.dc.worker_exe)))?;
        self.slots[idx].child = Some(child);
        self.slots[idx].ctrl = None;
        Ok(())
    }

    /// Accepts and routes any queued incoming connections: `Join` binds a
    /// control connection to its slot, `HeartbeatHello` starts a monitor
    /// service feeding the failure detector.
    fn pump_listener(&mut self) -> Result<(), TrainError> {
        let none = NetFaultInjector::none();
        loop {
            let stream = match self.listener.accept() {
                Ok((s, _)) => s,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(sup(format!("listener accept failed: {e}"))),
            };
            if stream.set_nonblocking(false).is_err() {
                continue;
            }
            let mut conn = match FramedConn::new(stream, HANDSHAKE_TIMEOUT) {
                Ok(c) => c,
                Err(_) => continue,
            };
            match recv_msg(&mut conn) {
                Ok(Msg::Join { protocol, worker_id }) => {
                    if protocol != PROTOCOL_VERSION {
                        let reject = Msg::Reject {
                            reason: format!(
                                "protocol version mismatch: coordinator {PROTOCOL_VERSION}, worker {protocol}"
                            ),
                        };
                        let _ = send_msg(&mut conn, &reject, &none);
                        continue;
                    }
                    let idx = worker_id as usize;
                    let slot_ok = self
                        .slots
                        .get(idx)
                        .is_some_and(|s| s.enabled && s.id == worker_id);
                    if !slot_ok {
                        let reject =
                            Msg::Reject { reason: format!("unknown worker slot {worker_id}") };
                        let _ = send_msg(&mut conn, &reject, &none);
                        continue;
                    }
                    let welcome = self.welcome.clone();
                    if send_msg(&mut conn, &welcome, &none).is_err() {
                        continue;
                    }
                    conn.set_timeout(self.dc.step_timeout.max(HANDSHAKE_TIMEOUT));
                    self.slots[idx].ctrl = Some(conn);
                }
                Ok(Msg::HeartbeatHello { worker_id }) => {
                    let idx = worker_id as usize;
                    if !self.slots.get(idx).is_some_and(|s| s.enabled) {
                        continue;
                    }
                    conn.set_timeout(self.dc.heartbeat.timeout);
                    self.detector.beat(worker_id); // initial lease at bind time
                    let det = Arc::clone(&self.detector);
                    let name = format!("hb-monitor-{worker_id}");
                    let svc = pool::spawn_service(&name, move || monitor_heartbeats(conn, det))
                        .map_err(|e| sup(format!("cannot spawn heartbeat monitor: {e}")))?;
                    self.monitors.push(svc);
                }
                Ok(_) | Err(_) => continue,
            }
        }
    }

    fn slot_ready(&self, idx: usize) -> bool {
        self.slots
            .get(idx)
            .is_some_and(|s| s.ctrl.is_some() && self.detector.is_tracked(s.id))
    }

    fn wait_slot_ready(&mut self, idx: usize, deadline: Instant) -> Result<(), TrainError> {
        loop {
            self.pump_listener()?;
            if self.slot_ready(idx) {
                return Ok(());
            }
            let Some(slot) = self.slots.get_mut(idx) else {
                return Err(sup(format!("slot {idx} out of range")));
            };
            let id = slot.id;
            if let Some(child) = &mut slot.child {
                if let Ok(Some(status)) = child.try_wait() {
                    return Err(sup(format!("worker {id} exited during startup: {status}")));
                }
            }
            if Instant::now() >= deadline {
                return Err(sup(format!("worker {id} did not join before the deadline")));
            }
            std::thread::sleep(POLL_SLICE);
        }
    }

    fn alive_slots(&self) -> Vec<usize> {
        (0..self.slots.len())
            .filter(|&i| self.slots[i].enabled && self.slots[i].ctrl.is_some())
            .collect()
    }

    fn send_to(&mut self, idx: usize, msg: &Msg) -> Result<(), WireError> {
        let none = NetFaultInjector::none();
        match self.slots.get_mut(idx).and_then(|s| s.ctrl.as_mut()) {
            Some(conn) => send_msg(conn, msg, &none),
            None => Err(WireError::Closed),
        }
    }

    /// Assigns `msg` to the next alive worker in deterministic round-robin
    /// order, recovering through the loss policy until a send succeeds.
    fn dispatch(&mut self, t: usize, msg: Msg) -> Result<(), TrainError> {
        loop {
            let alive = self.alive_slots();
            if alive.is_empty() {
                return Err(sup("no alive workers left to dispatch to"));
            }
            let slot = alive[(self.dispatch_counter % alive.len() as u64) as usize];
            match self.send_to(slot, &msg) {
                Ok(()) => {
                    self.dispatch_counter += 1;
                    self.in_flight = Some(Pending { t, slot, msg });
                    return Ok(());
                }
                Err(e) => {
                    self.handle_loss(slot, format!("assign send failed: {e}"))?;
                }
            }
        }
    }

    /// The failure funnel: every detected fault ends up here. Kills the
    /// worker's remains and applies the loss policy; on recovery,
    /// re-dispatches the slot's in-flight assignment (whose saved
    /// parameters + RNG state make the redo byte-identical).
    fn handle_loss(&mut self, idx: usize, cause: String) -> Result<(), TrainError> {
        let started = Instant::now();
        let id = self.slots[idx].id;
        if self.verbose {
            eprintln!("dist: worker {id} lost: {cause}"); // lint:allow(no-debug-leftovers): operator-facing supervision log, gated by verbosity
        }
        if let Some(child) = &mut self.slots[idx].child {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.slots[idx].child = None;
        self.slots[idx].ctrl = None;
        self.detector.remove(id);

        let action = match self.dc.on_loss {
            LossPolicy::Abort => {
                return Err(TrainError::WorkerLost { worker: id, cause });
            }
            LossPolicy::Respawn => {
                self.slots[idx].respawns += 1;
                self.respawns += 1;
                if self.slots[idx].respawns > self.dc.max_respawns {
                    return Err(TrainError::WorkerLost {
                        worker: id,
                        cause: format!(
                            "{cause}; respawn budget of {} exhausted",
                            self.dc.max_respawns
                        ),
                    });
                }
                // respawn WITHOUT the one-shot fault-injection args
                self.spawn_slot(idx, false)?;
                let deadline = Instant::now() + self.join_timeout();
                self.wait_slot_ready(idx, deadline)?;
                self.redispatch(idx)?;
                "respawn"
            }
            LossPolicy::Redistribute => {
                self.slots[idx].enabled = false;
                let survivors = self.alive_slots();
                if survivors.is_empty() {
                    return Err(TrainError::WorkerLost {
                        worker: id,
                        cause: format!("{cause}; no surviving workers to redistribute to"),
                    });
                }
                // deterministic re-shard: the in-flight step goes to the
                // next survivor, continuing the dispatch counter
                let owned = self.in_flight.as_ref().filter(|p| p.slot == idx);
                if let Some(msg) = owned.map(|p| p.msg.clone()) {
                    let target =
                        survivors[(self.dispatch_counter % survivors.len() as u64) as usize];
                    self.dispatch_counter += 1;
                    self.send_to(target, &msg).map_err(|e| {
                        sup(format!("redistributing step to worker {target} failed: {e}"))
                    })?;
                    if let Some(p) = self.in_flight.as_mut() {
                        p.slot = target;
                    }
                }
                "redistribute"
            }
        };
        let recovered_ms = started.elapsed().as_millis() as u64;
        if self.verbose {
            eprintln!("dist: worker {id} recovered in {recovered_ms} ms ({action})"); // lint:allow(no-debug-leftovers): operator-facing supervision log, gated by verbosity
        }
        self.events.push(WorkerLossEvent { worker: id, cause, action, recovered_ms });
        Ok(())
    }

    /// Re-sends the in-flight assignment to the respawned worker in slot
    /// `idx`, if that slot owned it.
    fn redispatch(&mut self, idx: usize) -> Result<(), TrainError> {
        let owned = self.in_flight.as_ref().filter(|p| p.slot == idx);
        if let Some(msg) = owned.map(|p| p.msg.clone()) {
            self.send_to(idx, &msg)
                .map_err(|e| sup(format!("re-dispatch to respawned worker failed: {e}")))?;
        }
        Ok(())
    }

    /// Sweeps all passive failure signals: exited children and expired
    /// heartbeat leases. Returns whether any loss was handled.
    fn sweep_failures(&mut self) -> Result<bool, TrainError> {
        let mut handled = false;
        for idx in 0..self.slots.len() {
            if !self.slots[idx].enabled {
                continue;
            }
            let exited = match &mut self.slots[idx].child {
                Some(child) => match child.try_wait() {
                    Ok(Some(status)) => Some(format!("process exited: {status}")),
                    Ok(None) => None,
                    Err(e) => Some(format!("process wait failed: {e}")),
                },
                None => None,
            };
            if let Some(cause) = exited {
                self.handle_loss(idx, cause)?;
                handled = true;
            }
        }
        for id in self.detector.expired() {
            let idx = id as usize;
            if idx < self.slots.len() && self.slots[idx].enabled {
                let silent = self
                    .detector
                    .silence(id)
                    .unwrap_or(self.dc.heartbeat.timeout);
                self.handle_loss(
                    idx,
                    format!("heartbeat silent for {silent:?} (timeout {:?})", self.dc.heartbeat.timeout),
                )?;
                handled = true;
            }
        }
        self.pump_listener()?;
        Ok(handled)
    }

    /// Blocks until the in-flight step `t`'s result is available,
    /// supervising every worker while waiting.
    fn await_step(&mut self, t: usize) -> Result<Done, TrainError> {
        let mut deadline = Instant::now() + self.dc.step_timeout;
        loop {
            if self.sweep_failures()? {
                deadline = Instant::now() + self.dc.step_timeout;
                continue;
            }
            let owner = match self.in_flight.as_ref().filter(|p| p.t == t) {
                Some(p) => p.slot,
                None => return Err(sup(format!("step {t} is not in flight"))),
            };
            let polled = match self.slots.get_mut(owner).and_then(|s| s.ctrl.as_mut()) {
                Some(conn) => conn.poll_ready(POLL_SLICE),
                None => Err(WireError::Closed),
            };
            match polled {
                Ok(true) => {
                    let received =
                        match self.slots.get_mut(owner).and_then(|s| s.ctrl.as_mut()) {
                            Some(conn) => recv_msg(conn),
                            None => Err(WireError::Closed),
                        };
                    match received {
                        Ok(Msg::StepDone { step, loss_bits, pre_clip_bits, rng, grads, .. })
                            if step as usize == t =>
                        {
                            self.in_flight = None;
                            return Ok(Done { loss_bits, pre_clip_bits, rng, grads });
                        }
                        Ok(other) => {
                            self.handle_loss(
                                owner,
                                format!("unexpected {} on the control connection", other.name()),
                            )?;
                            deadline = Instant::now() + self.dc.step_timeout;
                        }
                        Err(e) => {
                            self.handle_loss(owner, format!("wire fault: {e}"))?;
                            deadline = Instant::now() + self.dc.step_timeout;
                        }
                    }
                }
                Ok(false) => {}
                Err(e) => {
                    self.handle_loss(owner, format!("wire fault: {e}"))?;
                    deadline = Instant::now() + self.dc.step_timeout;
                }
            }
            if Instant::now() >= deadline {
                self.handle_loss(owner, "step deadline exceeded".into())?;
                deadline = Instant::now() + self.dc.step_timeout;
            }
        }
    }

    /// Clean end-of-run: ask every worker to exit, give them a grace
    /// period, then reap (Drop kills whatever is left).
    fn shutdown_workers(&mut self) {
        for idx in self.alive_slots() {
            let _ = self.send_to(idx, &Msg::Shutdown);
        }
        let deadline = Instant::now() + Duration::from_secs(3);
        for slot in &mut self.slots {
            if let Some(child) = &mut slot.child {
                loop {
                    match child.try_wait() {
                        Ok(Some(_)) => {
                            slot.child = None;
                            break;
                        }
                        Ok(None) if Instant::now() < deadline => {
                            std::thread::sleep(Duration::from_millis(20))
                        }
                        _ => {
                            let _ = child.kill();
                            let _ = child.wait();
                            slot.child = None;
                            break;
                        }
                    }
                }
            }
        }
    }
}

/// Heartbeat monitor service: feeds one worker's beats into the shared
/// failure detector until the connection dies.
fn monitor_heartbeats(mut conn: FramedConn, detector: Arc<FailureDetector>) {
    loop {
        match conn.poll_ready(Duration::from_millis(100)) {
            Ok(true) => match recv_msg(&mut conn) {
                Ok(Msg::Heartbeat { worker_id, .. }) => detector.beat(worker_id),
                Ok(_) => {}
                Err(_) => return,
            },
            Ok(false) => {}
            Err(_) => return,
        }
    }
}

/// The coordinator as a step executor: each step is dispatched with the
/// exact parameters and RNG state, awaited under supervision, and its
/// advanced RNG adopted; a finite step's gradients are imported for the
/// epoch loop's Adam update.
impl StepExecutor for Coordinator<'_> {
    fn begin_epoch(&mut self) {
        self.dispatch_counter = 0;
    }

    fn run_step(
        &mut self,
        model: &HisRes,
        _snaps: &[Snapshot],
        epoch: usize,
        t: usize,
        rng: &mut StdRng,
    ) -> Result<StepOutcome, TrainError> {
        let msg = Msg::Assign {
            epoch: epoch as u32,
            step: t as u32,
            rng: rng.state(),
            params: model.store.export_flat(),
        };
        self.dispatch(t, msg)?;
        let done = self.await_step(t)?;
        // adopt the worker's advanced RNG stream — exactly what running
        // the step locally would have left behind
        *rng = StdRng::from_state(done.rng).ok_or_else(|| {
            TrainError::Comms(WireError::Protocol("worker returned the all-zero RNG state".into()))
        })?;
        let out = StepOutcome {
            loss: f32::from_bits(done.loss_bits),
            pre_clip: f32::from_bits(done.pre_clip_bits),
        };
        if out.tripped().is_none() {
            let grads = done.grads.ok_or_else(|| {
                TrainError::Comms(WireError::Protocol(
                    "worker reported a finite step without gradients".into(),
                ))
            })?;
            model.store.import_grads(&grads)?; // lint:allow(panic-reachability): gradient import validates shapes by assert; a mismatch is a protocol bug, crashing the epoch is correct
        }
        Ok(out)
    }
}

/// Distributed training entry point: spawns and supervises
/// [`DistConfig::workers`] worker processes and runs the trainer's one
/// epoch loop with the steps delegated to them. The result — report,
/// parameters, and any saved [`crate::checkpoint::TrainCheckpoint`] — is
/// byte-identical to [`crate::trainer::train_with`] on the same inputs, including across
/// worker crashes and injected wire faults.
pub fn train_distributed(
    model: &HisRes,
    data: &DatasetSplits,
    tc: &TrainConfig,
    opts: &TrainOptions<'_>,
    dc: &DistConfig,
) -> Result<DistReport, TrainError> {
    let mut coord = Coordinator::new(model, tc, dc)?;
    let train = drive(model, data, tc, opts, &mut coord)?;
    coord.shutdown_workers();
    Ok(DistReport {
        train,
        worker_losses: std::mem::take(&mut coord.events),
        respawns: coord.respawns,
    })
}

/// Fault injection: SIGKILL the current process — the hardest possible
/// death, no destructors, no flush, exactly what a crashed machine looks
/// like to the coordinator.
fn kill_self_hard() {
    let pid = std::process::id().to_string();
    for kill in ["/bin/kill", "/usr/bin/kill", "kill"] {
        let _ = Command::new(kill).args(["-9", &pid]).status();
    }
    // unreachable unless no kill binary exists; abort is the closest match
    std::process::abort();
}

/// Runs one worker process to completion: connect (with jittered
/// backoff), handshake, heartbeat, then compute delegated steps until the
/// coordinator says [`Msg::Shutdown`]. `data` must be the same dataset
/// the coordinator trains on; everything else (model config, train
/// config, vocabulary sizes) arrives in the [`Msg::Welcome`].
pub fn run_worker(wc: &WorkerConfig, data: &DatasetSplits) -> Result<(), TrainError> {
    let backoff = BackoffPolicy {
        attempts: 40,
        base: Duration::from_millis(25),
        cap: Duration::from_millis(400),
    };
    // jitter seeded by slot id: N workers reconnecting after a coordinator
    // hiccup spread out instead of thundering-herding the listener
    let jitter = JitterPolicy::new(u64::from(wc.worker_id) + 1);
    let retryable = WireError::is_transient;
    let none = NetFaultInjector::none();

    let mut ctrl = FramedConn::connect_with_backoff(
        &wc.connect,
        HANDSHAKE_TIMEOUT,
        &backoff,
        Some(&jitter),
    )?;
    send_msg(&mut ctrl, &Msg::Join { protocol: PROTOCOL_VERSION, worker_id: wc.worker_id }, &none)?;
    let welcome = recv_msg(&mut ctrl)?;
    let (config_json, train_json, num_entities, num_relations, hb_interval) = match welcome {
        Msg::Welcome {
            protocol,
            config_json,
            train_json,
            num_entities,
            num_relations,
            heartbeat_interval_ms,
        } => {
            if protocol != PROTOCOL_VERSION {
                return Err(TrainError::Comms(WireError::VersionMismatch {
                    ours: PROTOCOL_VERSION,
                    theirs: protocol,
                }));
            }
            (
                config_json,
                train_json,
                num_entities as usize,
                num_relations as usize,
                Duration::from_millis(heartbeat_interval_ms.max(10)),
            )
        }
        Msg::Reject { reason } => {
            return Err(TrainError::Supervise(format!("coordinator rejected join: {reason}")))
        }
        other => {
            return Err(TrainError::Comms(WireError::Protocol(format!(
                "expected Welcome, got {}",
                other.name()
            ))))
        }
    };
    let cfg: crate::config::HisResConfig = hisres_util::json::from_str(&config_json)
        .map_err(|e| sup(format!("bad model config from coordinator: {e}")))?;
    let tc: TrainConfig = hisres_util::json::from_str(&train_json)
        .map_err(|e| sup(format!("bad train config from coordinator: {e}")))?;
    let model = HisRes::new(&cfg, num_entities, num_relations); // lint:allow(panic-reachability): model construction asserts validate the coordinator-sent config once at worker startup
    // a worker recomputes steps, never persists; generous frame deadline
    ctrl.set_timeout(Duration::from_secs(30));

    let mut hb =
        FramedConn::connect_with_backoff(&wc.connect, HANDSHAKE_TIMEOUT, &backoff, Some(&jitter))?;
    send_msg(&mut hb, &Msg::HeartbeatHello { worker_id: wc.worker_id }, &none)?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_pump = Arc::clone(&stop);
    let (hb_id, stall) = (wc.worker_id, wc.stall_heartbeats_after);
    let pump = pool::spawn_service("heartbeat", move || {
        heartbeat_loop(hb, hb_id, hb_interval, stop_pump, stall)
    })
    .map_err(|e| sup(format!("cannot start heartbeat thread: {e}")))?;

    let snaps = snapshots_of(&data.train); // lint:allow(panic-reachability): training-prep runs before serving; snapshot math asserts are programming-error guards
    let mut cursor = GlobalCursor::new();
    let mut received: u64 = 0;
    let result = loop {
        match ctrl.poll_ready(Duration::from_millis(200)) {
            Ok(false) => continue, // coordinator busy (validation, checkpointing)
            Ok(true) => {}
            Err(e) => break Err(TrainError::Comms(e)),
        }
        let msg = match recv_msg(&mut ctrl) {
            Ok(m) => m,
            Err(e) => break Err(TrainError::Comms(e)),
        };
        match msg {
            Msg::Shutdown => break Ok(()),
            Msg::Assign { epoch, step, rng, params } => {
                let seq = received;
                received += 1;
                if wc.die_on_step == Some(seq) {
                    kill_self_hard();
                }
                let t = step as usize;
                if t == 0 || t >= snaps.len() {
                    break Err(TrainError::Comms(WireError::Protocol(format!(
                        "assigned step {t} outside the {} training snapshots",
                        snaps.len()
                    ))));
                }
                model.store.import_flat(&params)?;
                let mut srng = match StdRng::from_state(rng) {
                    Some(r) => r,
                    None => {
                        break Err(TrainError::Comms(WireError::Protocol(
                            "assigned the all-zero RNG state".into(),
                        )))
                    }
                };
                let out = compute_step(&model, &snaps, t, &mut cursor, &mut srng, tc.grad_clip); // lint:allow(panic-reachability): worker training math asserts by design — a panic kills only this supervised child, and the coordinator respawns it from recorded state
                let grads = out.tripped().is_none().then(|| model.store.export_grads());
                if wc.verbose {
                    eprintln!("worker {}: epoch {epoch} step {t} loss {:.4}", wc.worker_id, out.loss); // lint:allow(no-debug-leftovers): per-step worker progress, gated by verbosity
                }
                let done = Msg::StepDone {
                    epoch,
                    step,
                    loss_bits: out.loss.to_bits(),
                    pre_clip_bits: out.pre_clip.to_bits(),
                    rng: srng.state(),
                    grads,
                };
                let mut sent = Err(WireError::Closed);
                for attempt in 0..3 {
                    sent = send_msg(&mut ctrl, &done, &wc.net_faults);
                    match &sent {
                        Ok(()) => break,
                        Err(e) if retryable(e) && attempt < 2 => {
                            std::thread::sleep(backoff.delay_jittered(attempt, &jitter));
                        }
                        Err(_) => break,
                    }
                }
                if let Err(e) = sent {
                    // the frame (or connection) is gone; the supervisor
                    // will re-dispatch — exit so it sees a clean death
                    break Err(TrainError::Comms(e));
                }
            }
            other => {
                break Err(TrainError::Comms(WireError::Protocol(format!(
                    "unexpected {} on the control connection",
                    other.name()
                ))))
            }
        }
    };
    stop.store(true, Ordering::Relaxed);
    drop(ctrl);
    let _ = pump.join();
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_policy_parses() {
        assert_eq!("respawn".parse(), Ok(LossPolicy::Respawn));
        assert_eq!("redistribute".parse(), Ok(LossPolicy::Redistribute));
        assert_eq!("abort".parse(), Ok(LossPolicy::Abort));
        assert!("explode".parse::<LossPolicy>().is_err());
    }
}
