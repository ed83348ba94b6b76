//! Durable online ingestion: WAL-backed incremental snapshot updates
//! with crash-recoverable serving state.
//!
//! An [`IngestSession`] owns the model, the explicit
//! [`EncoderState`] and the global `(s, r)`-relevance index, and applies
//! each ingested snapshot in O(one snapshot):
//!
//! 1. **validate** the batch (sequence number, timestamp, id ranges);
//! 2. **log** it — one fsync'd append to the checksummed WAL
//!    ([`hisres_util::wal`]); the batch is durable from here;
//! 3. **apply** it — one intra+inter evolution step
//!    ([`HisRes::advance_encoder_state`]) and an in-place relevance-index
//!    update, never a rescan of absorbed history;
//! 4. periodically **snapshot** the state to an atomic, checksummed
//!    envelope file so restarts only re-advance the WAL tail.
//!
//! Queries run through the scoring cores of [`crate::eval::score_at`] and
//! [`crate::eval::score_at_topk`] over the state's local encoding, which
//! the session computes on the first query after an ingest and reuses
//! until the state advances or the parameters change.
//!
//! Recovery ([`IngestSession::open`]) is: load the newest state snapshot
//! if one exists (else fold the dataset timeline from scratch), then
//! replay the WAL — every record re-feeds the relevance index (cheap,
//! idempotent), and records beyond the snapshot's sequence number
//! re-advance the encoder. Because the online recurrence and the JSON
//! encoding are both bit-exact, a crashed-and-recovered session reaches
//! **byte-identical** encoder state (and therefore query scores) to one
//! that never crashed. The WAL opens under
//! [`CorruptPolicy::Truncate`]: an fsync'd prefix cannot go bad, so the
//! first torn or corrupt frame marks where acknowledged durability ended
//! and everything from there is discarded — the idempotent sequence
//! numbers make client retry of the discarded tail safe.
//!
//! Degraded mode: when the WAL append fails, the fsync-latency EMA
//! exceeds its budget, or recovery replays more records than the lag
//! budget allows, the session turns **read-only** — queries keep
//! working, further ingests get a typed [`IngestError::ReadOnly`], and
//! the condition is flagged in the serving `stats`.

use crate::eval::ScoreCtx;
use crate::model::{Encoded, EncoderState, HisRes};
use hisres_graph::{GlobalHistoryIndex, Snapshot};
use hisres_tensor::NdArray;
use hisres_util::fsio::{self, FaultInjector};
use hisres_util::json;
use hisres_util::wal::{CorruptPolicy, Wal};
use hisres_util::impl_json;
use std::cell::RefCell;
use std::fmt;
use std::path::PathBuf;
use std::time::Instant;

/// Envelope kind tag of ingest state-snapshot files.
pub const INGEST_STATE_KIND: &str = "ingest-state";

/// One WAL record: an acknowledged ingest batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IngestRecord {
    /// Client-assigned sequence number (1-based, contiguous).
    pub seq: u64,
    /// Timestamp of the snapshot this batch appends.
    pub t: u32,
    /// The batch's events as `(s, r, o)` triples.
    pub triples: Vec<(u32, u32, u32)>,
}
impl_json!(IngestRecord { seq, t, triples });

/// Payload of a state-snapshot file.
#[derive(Clone, Debug)]
struct PersistedState {
    enc: EncoderState,
    applied_seq: u64,
    applied_batches: u64,
    applied_quads: u64,
}
impl_json!(PersistedState { enc, applied_seq, applied_batches, applied_quads });

/// Durability/recovery knobs of an [`IngestSession`].
#[derive(Clone, Debug)]
pub struct IngestSessionConfig {
    /// The write-ahead log file (created if absent).
    pub wal_path: PathBuf,
    /// The atomic state-snapshot file.
    pub state_path: PathBuf,
    /// Write a state snapshot every N applied batches (0 = only on
    /// explicit [`IngestSession::save_state_snapshot`] calls).
    pub snapshot_every: u64,
    /// Degrade to read-only when the WAL fsync-latency EMA exceeds this
    /// many milliseconds.
    pub fsync_budget_ms: Option<f64>,
    /// Degrade to read-only when recovery had to re-advance more than
    /// this many WAL records past the state snapshot — the signal that
    /// snapshots are not keeping up with ingest volume.
    pub replay_lag_budget: Option<u64>,
}

impl IngestSessionConfig {
    /// Defaults for a WAL at `wal_path`: state snapshots next to it
    /// (`<wal>.state`) every 8 batches, no latency or lag budgets.
    pub fn new(wal_path: impl Into<PathBuf>) -> Self {
        let wal_path = wal_path.into();
        let mut state = wal_path.clone().into_os_string();
        state.push(".state");
        IngestSessionConfig {
            wal_path,
            state_path: PathBuf::from(state),
            snapshot_every: 8,
            fsync_budget_ms: None,
            replay_lag_budget: None,
        }
    }
}

/// Typed ingest failures. Every variant is a no-op on the session state.
#[derive(Clone, Debug, PartialEq)]
pub enum IngestError {
    /// The sequence number skips ahead — an earlier batch is missing.
    OutOfOrder {
        /// Sequence number the client sent.
        seq: u64,
        /// The only sequence number the session will apply next.
        expected: u64,
    },
    /// The batch's timestamp is not the timeline frontier.
    BadTimestamp {
        /// Timestamp the client sent.
        t: u32,
        /// The frontier timestamp the session expects.
        expected: u32,
    },
    /// An entity id outside the model's vocabulary.
    EntityOutOfRange {
        /// The offending id.
        id: u32,
        /// Vocabulary size.
        num_entities: usize,
    },
    /// A relation id outside the model's raw-relation vocabulary.
    RelationOutOfRange {
        /// The offending id.
        id: u32,
        /// Raw relation vocabulary size.
        num_relations: usize,
    },
    /// The session is in degraded read-only mode; queries still work.
    ReadOnly {
        /// Why the session degraded.
        reason: String,
    },
    /// The WAL rejected an append or replay — the batch is *not*
    /// durable (and the session has turned read-only).
    Wal(String),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::OutOfOrder { seq, expected } => {
                write!(f, "out-of-order ingest: got seq {seq}, expected {expected}")
            }
            IngestError::BadTimestamp { t, expected } => {
                write!(f, "bad ingest timestamp {t}: the timeline frontier is {expected}")
            }
            IngestError::EntityOutOfRange { id, num_entities } => {
                write!(f, "entity id {id} out of range (vocabulary size {num_entities})")
            }
            IngestError::RelationOutOfRange { id, num_relations } => {
                write!(f, "relation id {id} out of range (raw relations {num_relations})")
            }
            IngestError::ReadOnly { reason } => {
                write!(f, "ingest disabled (read-only mode): {reason}")
            }
            IngestError::Wal(msg) => write!(f, "WAL failure: {msg}"),
        }
    }
}

impl std::error::Error for IngestError {}

/// What a successful [`IngestSession::ingest`] call did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IngestOutcome {
    /// The batch is durable and applied.
    Applied {
        /// Its sequence number.
        seq: u64,
        /// Events applied.
        quads: usize,
        /// True when this batch also triggered a state snapshot.
        snapshot_written: bool,
    },
    /// `seq` was already applied — an idempotent no-op, safe under
    /// client retry and log replay alike.
    Duplicate {
        /// The duplicate sequence number.
        seq: u64,
        /// The session's applied frontier.
        applied_seq: u64,
    },
}

/// What [`IngestSession::open`] recovered.
#[derive(Clone, Debug, Default)]
pub struct RecoveryInfo {
    /// True when a state snapshot was loaded (vs a fresh timeline fold).
    pub resumed_from_snapshot: bool,
    /// WAL records whose encoder step had to be re-applied.
    pub replayed_records: u64,
    /// Total intact WAL records found.
    pub wal_records: u64,
    /// Damaged tail bytes the WAL discarded.
    pub truncated_bytes: u64,
}

/// Counters mirrored into the serving `stats` response.
#[derive(Clone, Debug, Default)]
pub struct IngestStats {
    /// Batches applied this process (replay excluded).
    pub applied_batches: u64,
    /// Events applied this process.
    pub applied_quads: u64,
    /// Idempotent duplicate batches acknowledged.
    pub duplicates: u64,
    /// State snapshots written.
    pub snapshots_written: u64,
    /// State snapshot attempts that failed (the WAL still covers them).
    pub snapshot_failures: u64,
    /// Exponential moving average of WAL fsync latency, ms.
    pub fsync_ema_ms: f64,
    /// True when the session has degraded to read-only.
    pub read_only: bool,
    /// Why it degraded (empty while healthy).
    pub read_only_reason: String,
}

/// A crash-recoverable online-ingestion session: model + encoder state +
/// relevance index + WAL, advanced one snapshot at a time.
pub struct IngestSession {
    model: HisRes,
    cfg: IngestSessionConfig,
    state: EncoderState,
    global: GlobalHistoryIndex,
    num_entities: usize,
    num_relations: usize,
    applied_seq: u64,
    total_batches: u64,
    total_quads: u64,
    wal: Wal,
    wal_faults: FaultInjector,
    snapshot_faults: FaultInjector,
    stats: IngestStats,
    recovery: RecoveryInfo,
    /// The live local encoding, keyed by (parameter version,
    /// `state.intra_steps`).
    local_memo: RefCell<Option<((u64, u64), Encoded)>>,
}

impl IngestSession {
    /// Opens a durable ingest session over `model` and the dataset
    /// context `ctx` (whose relevance index is taken over and whose last
    /// `history_len` snapshots seed the encoder state when no snapshot
    /// file exists). Replays the WAL as described in the module docs.
    pub fn open(
        model: HisRes,
        ctx: ScoreCtx,
        cfg: IngestSessionConfig,
    ) -> Result<IngestSession, IngestError> {
        let (wal, replay) = Wal::open(&cfg.wal_path, CorruptPolicy::Truncate)
            .map_err(|e| IngestError::Wal(e.to_string()))?;

        let ScoreCtx { snapshots, global, num_entities, num_relations, .. } = ctx;

        let mut recovery = RecoveryInfo {
            wal_records: replay.records.len() as u64,
            truncated_bytes: replay.truncated_bytes,
            ..Default::default()
        };

        let persisted = Self::load_persisted(&cfg.state_path);
        let (state, applied_seq, total_batches, total_quads) = match persisted {
            Some(p) => {
                recovery.resumed_from_snapshot = true;
                (p.enc, p.applied_seq, p.applied_batches, p.applied_quads)
            }
            None => {
                let start = snapshots.len().saturating_sub(model.cfg.history_len);
                (model.fold_encoder_state(&snapshots[start..]), 0, 0, 0)
            }
        };

        let mut session = IngestSession {
            model,
            cfg,
            state,
            global,
            num_entities,
            num_relations,
            applied_seq,
            total_batches,
            total_quads,
            wal,
            wal_faults: FaultInjector::none(),
            snapshot_faults: FaultInjector::none(),
            stats: IngestStats::default(),
            recovery,
            local_memo: RefCell::new(None),
        };

        for bytes in &replay.records {
            let text = std::str::from_utf8(bytes)
                .map_err(|_| IngestError::Wal("WAL record is not UTF-8 JSON".into()))?;
            let rec: IngestRecord = json::from_str(text)
                .map_err(|e| IngestError::Wal(format!("unparseable WAL record: {e}")))?;
            let snap = Snapshot { t: rec.t, triples: rec.triples };
            // The relevance index is rebuilt from every record (cheap,
            // idempotent); the encoder only re-advances past the
            // snapshot's sequence frontier.
            session.global.add_snapshot(&snap, session.num_relations);
            if rec.seq > session.applied_seq {
                session.model.advance_encoder_state(&mut session.state, &snap);
                session.applied_seq = rec.seq;
                session.total_batches += 1;
                session.total_quads += snap.triples.len() as u64;
                session.recovery.replayed_records += 1;
            }
        }

        if let Some(budget) = session.cfg.replay_lag_budget {
            if session.recovery.replayed_records > budget {
                session.enter_read_only(format!(
                    "replay lag {} exceeds budget {budget} — state snapshots are not keeping up",
                    session.recovery.replayed_records
                ));
            }
        }
        Ok(session)
    }

    fn load_persisted(path: &std::path::Path) -> Option<PersistedState> {
        let text = std::fs::read_to_string(path).ok()?;
        let payload = fsio::open(&text, INGEST_STATE_KIND).ok()?;
        json::from_str(payload).ok()
    }

    /// Applies one sequence-numbered batch: validate → WAL append
    /// (fsync'd; durable once it returns) → one encoder step + in-place
    /// index update → periodic state snapshot. Duplicates are
    /// acknowledged without re-applying; gaps and stale timestamps are
    /// typed rejections that leave the state untouched.
    pub fn ingest(
        &mut self,
        seq: u64,
        t: Option<u32>,
        triples: &[(u32, u32, u32)],
    ) -> Result<IngestOutcome, IngestError> {
        if self.stats.read_only {
            return Err(IngestError::ReadOnly { reason: self.stats.read_only_reason.clone() });
        }
        if seq <= self.applied_seq {
            self.stats.duplicates += 1;
            return Ok(IngestOutcome::Duplicate { seq, applied_seq: self.applied_seq });
        }
        if seq != self.applied_seq + 1 {
            return Err(IngestError::OutOfOrder { seq, expected: self.applied_seq + 1 });
        }
        let t = t.unwrap_or(self.state.t);
        if t != self.state.t {
            return Err(IngestError::BadTimestamp { t, expected: self.state.t });
        }
        for &(s, r, o) in triples {
            for id in [s, o] {
                if (id as usize) >= self.num_entities {
                    return Err(IngestError::EntityOutOfRange {
                        id,
                        num_entities: self.num_entities,
                    });
                }
            }
            if (r as usize) >= self.num_relations {
                return Err(IngestError::RelationOutOfRange {
                    id: r,
                    num_relations: self.num_relations,
                });
            }
        }

        let rec = IngestRecord { seq, t, triples: triples.to_vec() };
        let payload = json::to_string(&rec)
            .map_err(|e| IngestError::Wal(format!("record serialisation failed: {e}")))?;
        let started = Instant::now();
        if let Err(e) = self.wal.append_batch_with(&[payload.as_bytes()], &self.wal_faults) {
            let msg = format!("WAL append failed: {e}");
            self.enter_read_only(msg.clone());
            return Err(IngestError::Wal(msg));
        }
        let fsync_ms = started.elapsed().as_secs_f64() * 1e3;
        self.stats.fsync_ema_ms = if self.stats.applied_batches == 0 {
            fsync_ms
        } else {
            0.7 * self.stats.fsync_ema_ms + 0.3 * fsync_ms
        };

        let snap = Snapshot { t, triples: triples.to_vec() };
        self.model.advance_encoder_state(&mut self.state, &snap);
        self.global.add_snapshot(&snap, self.num_relations);
        self.applied_seq = seq;
        self.total_batches += 1;
        self.total_quads += triples.len() as u64;
        self.stats.applied_batches += 1;
        self.stats.applied_quads += triples.len() as u64;

        let mut snapshot_written = false;
        if self.cfg.snapshot_every > 0 && self.total_batches % self.cfg.snapshot_every == 0 {
            snapshot_written = self.save_state_snapshot();
        }
        if let Some(budget) = self.cfg.fsync_budget_ms {
            if self.stats.fsync_ema_ms > budget {
                self.enter_read_only(format!(
                    "WAL fsync EMA {:.2} ms exceeds budget {budget} ms",
                    self.stats.fsync_ema_ms
                ));
            }
        }
        Ok(IngestOutcome::Applied { seq, quads: triples.len(), snapshot_written })
    }

    /// Writes the current state to the snapshot file atomically (temp +
    /// fsync + rename, checksummed envelope). A failure is non-fatal —
    /// the WAL still covers everything — and is only counted; returns
    /// whether the snapshot landed.
    pub fn save_state_snapshot(&mut self) -> bool {
        let persisted = PersistedState {
            enc: self.state.clone(),
            applied_seq: self.applied_seq,
            applied_batches: self.total_batches,
            applied_quads: self.total_quads,
        };
        let ok = json::to_string(&persisted)
            .map_err(|e| e.to_string())
            .and_then(|payload| {
                let sealed = fsio::seal(INGEST_STATE_KIND, &payload);
                fsio::atomic_write_with(
                    &self.cfg.state_path,
                    sealed.as_bytes(),
                    &self.snapshot_faults,
                )
                .map_err(|e| e.to_string())
            })
            .is_ok();
        if ok {
            self.stats.snapshots_written += 1;
        } else {
            self.stats.snapshot_failures += 1;
        }
        ok
    }

    /// Scores every entity as the object of each `(s, r)` query against
    /// the *current* ingested state — [`crate::eval::score_at`]'s dense
    /// scoring core over the session's memoised local encoding.
    pub fn score(&self, queries: &[(u32, u32)]) -> NdArray {
        crate::eval::score_dense(&self.model, &self.local_encoding(), &self.global, queries)
    }

    /// Top-k entity predictions against the current ingested state —
    /// [`crate::eval::score_at_topk`]'s top-k core over the session's
    /// memoised local encoding, bit-identical per row to ranking
    /// [`Self::score`]'s dense output (score descending, id ascending) and
    /// truncating to `k`; `None` rows carry a non-finite score and must be
    /// degraded by the caller.
    pub fn score_topk(&self, queries: &[(u32, u32)], k: usize) -> Vec<Option<Vec<(u32, f32)>>> {
        crate::eval::score_topk(&self.model, &self.local_encoding(), &self.global, queries, k)
    }

    /// [`HisRes::state_local_encoding`] of the live state, computed on the
    /// first query after an ingest (so ingest latency does not grow) and
    /// reused until the state advances or the parameters change.
    fn local_encoding(&self) -> Encoded {
        let key = (self.model.store.version(), self.state.intra_steps);
        if let Some((k, local)) = self.local_memo.borrow().as_ref() {
            if *k == key {
                return local.clone();
            }
        }
        let local = self.model.state_local_encoding(&self.state);
        *self.local_memo.borrow_mut() = Some((key, local.clone()));
        local
    }

    fn enter_read_only(&mut self, reason: String) {
        if !self.stats.read_only {
            self.stats.read_only = true;
            self.stats.read_only_reason = reason;
        }
    }

    /// Scripts faults into WAL appends (tests only in spirit; a no-op
    /// injector is the default).
    pub fn inject_wal_faults(&mut self, faults: FaultInjector) {
        self.wal_faults = faults;
    }

    /// Scripts faults into state-snapshot writes.
    pub fn inject_snapshot_faults(&mut self, faults: FaultInjector) {
        self.snapshot_faults = faults;
    }

    /// The model this session serves.
    pub fn model(&self) -> &HisRes {
        &self.model
    }

    /// The live encoder state.
    pub fn state(&self) -> &EncoderState {
        &self.state
    }

    /// The exact serialized encoder state — what the byte-identity
    /// crash-recovery tests compare.
    pub fn state_json(&self) -> String {
        json::to_string(&self.state).unwrap_or_default()
    }

    /// Highest applied sequence number.
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq
    }

    /// The timeline frontier — the timestamp the next batch must carry.
    pub fn frontier_t(&self) -> u32 {
        self.state.t
    }

    /// Live counters (mirrored into the serving `stats` reply).
    pub fn stats(&self) -> &IngestStats {
        &self.stats
    }

    /// True when the session has degraded to read-only.
    pub fn read_only(&self) -> bool {
        self.stats.read_only
    }

    /// What recovery found when this session opened.
    pub fn recovery(&self) -> &RecoveryInfo {
        &self.recovery
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HisResConfig;
    use crate::eval::ScoreCtx;
    use hisres_util::fsio::FaultMode;

    const NE: usize = 8;
    const NR: usize = 2;

    fn tmp_wal(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("hisres_ingest_{tag}_{}.wal", std::process::id()))
    }

    fn cleanup(cfg: &IngestSessionConfig) {
        std::fs::remove_file(&cfg.wal_path).ok();
        std::fs::remove_file(&cfg.state_path).ok();
    }

    fn base_quads() -> Vec<hisres_graph::Quad> {
        vec![
            hisres_graph::Quad::new(0, 0, 1, 0),
            hisres_graph::Quad::new(1, 1, 2, 0),
            hisres_graph::Quad::new(2, 0, 3, 1),
            hisres_graph::Quad::new(3, 1, 4, 2),
        ]
    }

    fn session(tag: &str) -> (IngestSession, IngestSessionConfig) {
        let cfg = IngestSessionConfig::new(tmp_wal(tag));
        cleanup(&cfg);
        (open_session(&cfg), cfg)
    }

    fn open_session(cfg: &IngestSessionConfig) -> IngestSession {
        let model_cfg =
            HisResConfig { dim: 8, conv_channels: 2, history_len: 3, ..Default::default() };
        let model = HisRes::new(&model_cfg, NE, NR);
        let ctx = ScoreCtx::from_quads(NE, NR, base_quads());
        IngestSession::open(model, ctx, cfg.clone()).unwrap()
    }

    fn batch(i: u32) -> Vec<(u32, u32, u32)> {
        vec![(i % NE as u32, i % NR as u32, (i + 1) % NE as u32)]
    }

    #[test]
    fn ingest_applies_and_is_idempotent() {
        let (mut s, cfg) = session("idem");
        let t0 = s.frontier_t();
        let out = s.ingest(1, None, &batch(0)).unwrap();
        assert!(matches!(out, IngestOutcome::Applied { seq: 1, quads: 1, .. }));
        assert_eq!(s.frontier_t(), t0 + 1);
        let before = s.state_json();
        // duplicate: acknowledged, nothing changes
        let dup = s.ingest(1, None, &batch(0)).unwrap();
        assert_eq!(dup, IngestOutcome::Duplicate { seq: 1, applied_seq: 1 });
        assert_eq!(s.state_json(), before);
        // gap: typed rejection, nothing changes
        let err = s.ingest(5, None, &batch(1)).unwrap_err();
        assert_eq!(err, IngestError::OutOfOrder { seq: 5, expected: 2 });
        assert_eq!(s.state_json(), before);
        cleanup(&cfg);
    }

    #[test]
    fn recovery_reaches_byte_identical_state() {
        let cfg_a = IngestSessionConfig {
            snapshot_every: 2,
            ..IngestSessionConfig::new(tmp_wal("uninterrupted"))
        };
        let cfg_b = IngestSessionConfig {
            snapshot_every: 2,
            ..IngestSessionConfig::new(tmp_wal("crashed"))
        };
        cleanup(&cfg_a);
        cleanup(&cfg_b);

        // A: six batches without interruption.
        let mut a = {
            let mut s = open_session(&cfg_a);
            for i in 0..6u32 {
                s.ingest(u64::from(i) + 1, None, &batch(i)).unwrap();
            }
            s
        };

        // B: three batches, then a "crash" (drop without shutdown),
        // recovery, then the remaining three (with one duplicate retry).
        let mut b = {
            let mut s = open_session(&cfg_b);
            for i in 0..3u32 {
                s.ingest(u64::from(i) + 1, None, &batch(i)).unwrap();
            }
            drop(s);
            let mut s = open_session(&cfg_b);
            assert_eq!(s.applied_seq(), 3);
            assert!(s.recovery().resumed_from_snapshot);
            // snapshot_every=2 → snapshot at seq 2, one record replayed
            assert_eq!(s.recovery().replayed_records, 1);
            assert!(matches!(
                s.ingest(3, None, &batch(2)).unwrap(),
                IngestOutcome::Duplicate { .. }
            ));
            for i in 3..6u32 {
                s.ingest(u64::from(i) + 1, None, &batch(i)).unwrap();
            }
            s
        };

        assert_eq!(a.state_json(), b.state_json());
        let queries = [(0u32, 0u32), (3, 1), (0, 0)];
        assert_eq!(a.score(&queries), b.score(&queries));
        // and the state files they write are byte-identical too
        assert!(a.save_state_snapshot());
        assert!(b.save_state_snapshot());
        assert_eq!(
            std::fs::read(&cfg_a.state_path).unwrap(),
            std::fs::read(&cfg_b.state_path).unwrap()
        );
        cleanup(&cfg_a);
        cleanup(&cfg_b);
    }

    #[test]
    fn wal_append_failure_degrades_to_read_only() {
        let (mut s, cfg) = session("degrade");
        s.ingest(1, None, &batch(0)).unwrap();
        s.inject_wal_faults(FaultInjector::fail_nth_write(0, FaultMode::ErrorBeforeWrite));
        let err = s.ingest(2, None, &batch(1)).unwrap_err();
        assert!(matches!(err, IngestError::Wal(_)), "{err}");
        assert!(s.read_only());
        // queries still answer; further ingests are typed rejections
        assert_eq!(s.score(&[(0, 0)]).shape(), (1, NE));
        let err = s.ingest(3, None, &batch(2)).unwrap_err();
        assert!(matches!(err, IngestError::ReadOnly { .. }), "{err}");
        cleanup(&cfg);
    }

    #[test]
    fn crash_before_snapshot_rename_recovers_from_wal() {
        let cfg = IngestSessionConfig {
            snapshot_every: 1,
            ..IngestSessionConfig::new(tmp_wal("snapcrash"))
        };
        cleanup(&cfg);
        let mut s = open_session(&cfg);
        s.ingest(1, None, &batch(0)).unwrap();
        // every later snapshot attempt dies just before the rename
        s.inject_snapshot_faults(
            FaultInjector::fail_nth_write(0, FaultMode::CrashBeforeRename)
                .and_fail(1, FaultMode::CrashBeforeRename),
        );
        let out = s.ingest(2, None, &batch(1)).unwrap();
        assert!(matches!(out, IngestOutcome::Applied { snapshot_written: false, .. }));
        assert_eq!(s.stats().snapshot_failures, 1);
        let expect = s.state_json();
        drop(s);
        // the stale snapshot (seq 1) plus WAL replay reach the same state
        let s = open_session(&cfg);
        assert_eq!(s.applied_seq(), 2);
        assert_eq!(s.recovery().replayed_records, 1);
        assert_eq!(s.state_json(), expect);
        cleanup(&cfg);
    }

    #[test]
    fn replay_lag_budget_flags_read_only() {
        let cfg = IngestSessionConfig {
            snapshot_every: 0,
            replay_lag_budget: Some(2),
            ..IngestSessionConfig::new(tmp_wal("lag"))
        };
        cleanup(&cfg);
        let mut s = open_session(&cfg);
        for i in 0..4u32 {
            s.ingest(u64::from(i) + 1, None, &batch(i)).unwrap();
        }
        drop(s);
        let s = open_session(&cfg);
        assert!(s.read_only());
        assert!(s.stats().read_only_reason.contains("replay lag"), "{}", s.stats().read_only_reason);
        cleanup(&cfg);
    }

    #[test]
    fn validation_rejects_bad_ids_and_timestamps() {
        let (mut s, cfg) = session("validate");
        let t = s.frontier_t();
        assert_eq!(
            s.ingest(1, Some(t + 3), &batch(0)).unwrap_err(),
            IngestError::BadTimestamp { t: t + 3, expected: t }
        );
        assert_eq!(
            s.ingest(1, None, &[(99, 0, 1)]).unwrap_err(),
            IngestError::EntityOutOfRange { id: 99, num_entities: NE }
        );
        assert_eq!(
            s.ingest(1, None, &[(0, 7, 1)]).unwrap_err(),
            IngestError::RelationOutOfRange { id: 7, num_relations: NR }
        );
        assert_eq!(s.applied_seq(), 0);
        cleanup(&cfg);
    }
}
