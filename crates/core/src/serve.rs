//! Fault-tolerant inference serving: a JSONL request/response loop over a
//! trained model and, optionally, a live WAL-backed ingest session — the
//! served timeline is *not* frozen at checkpoint load; `{"cmd":"ingest"}`
//! extends it durably while queries keep flowing.
//!
//! The batch evaluator assumes clean benchmark queries; this module
//! assumes every request is hostile, late, or referencing entities the
//! vocabulary has never seen — and still answers:
//!
//! * **Validation layer** — every request passes [`parse_request`] and id
//!   resolution first; malformed JSON, missing fields, out-of-range ids
//!   and out-of-vocabulary names each map to a typed [`ServeError`] that
//!   becomes a structured `{"ok":false,"error":{"kind":...}}` response
//!   instead of a panic.
//! * **Deadline budgets with graceful degradation** — each request
//!   carries a millisecond budget (server default, per-request override).
//!   The engine tracks an exponential moving average of the full
//!   multi-granularity encoder's latency; when the remaining budget
//!   cannot cover it, the request is answered by a cheap precomputed
//!   fallback scorer (historical copy + global frequency) and flagged
//!   `"degraded": true` rather than blowing the deadline.
//! * **Panic isolation** — scoring runs under `catch_unwind`. A panicking
//!   query gets a degraded fallback answer; a poison counter trips the
//!   engine into fallback-only mode after repeated panics, so one
//!   pathological query (or a corrupted parameter) can never kill the
//!   process or wedge it in a crash loop.
//! * **Retrying checkpoint loads** — [`load_servable_model`] rides out
//!   transient I/O errors with bounded exponential backoff and accepts
//!   both model checkpoints and full training-state files.
//! * **Concurrent multi-client serving with batching and backpressure** —
//!   [`serve_concurrent`] runs an acceptor plus a worker set over a
//!   bounded request queue; a batcher coalesces in-flight queries into
//!   one batched scorer pass (bit-identical per query to solo scoring —
//!   see `score_at`), and a full queue answers with a typed
//!   [`ServeError::Overloaded`] rejection instead of stalling clients.
//! * **Durable online ingestion** — with an attached
//!   [`IngestSession`], `{"cmd":"ingest"}` appends new quads behind a
//!   fsync'd write-ahead log and advances the encoder incrementally (one
//!   step per new snapshot, never a history rescan). Sequence numbers
//!   make retries idempotent (`duplicate` acknowledgements), gaps are
//!   typed `ingest_out_of_order` rejections, a bounded in-flight ingest
//!   budget rejects excess writers with `overloaded`, and WAL trouble
//!   degrades the session to read-only — flagged in `stats` — instead of
//!   serving undurable acknowledgements.
//! * **Observability** — [`ServeStats`] counts requests, errors by kind,
//!   degraded answers, panics, admission rejections and ingest activity,
//!   and reports p50/p99 latency over a fixed window of recent requests;
//!   it is served on `{"cmd":"stats"}` and emitted as a final line at EOF.

use crate::checkpoint::{TrainCheckpoint, TRAIN_STATE_KIND};
use crate::eval::{score_at, ScoreCtx};
use crate::ingest::{IngestError, IngestOutcome, IngestSession};
use crate::model::{HisRes, MODEL_KIND};
use crate::topk::top_k;
use hisres_graph::Vocab;
use hisres_tensor::{CheckpointError, NdArray};
use hisres_util::bench::LatencyRecorder;
use hisres_util::fsio::{self, EnvelopeError, FaultInjector};
use hisres_util::json::{self, Value};
use hisres_util::retry::{with_backoff, BackoffPolicy};
use hisres_util::pool;
use hisres_util::sync::{BoundedQueue, PushError};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

static TERM_REQUESTED: AtomicBool = AtomicBool::new(false);

/// Installs a best-effort SIGTERM hook that asks the serving loop to stop
/// (emitting its final stats block) at the next request boundary. The
/// standard library has no signal support, so this registers a raw
/// handler that only flips an atomic flag — a loop blocked on an idle
/// transport notices at the next line or at EOF, whichever comes first.
/// Stats are *guaranteed* at EOF and on `{"cmd":"stats"}`; SIGTERM is
/// opportunistic on top.
#[cfg(unix)]
pub fn install_term_handler() {
    extern "C" fn on_term(_sig: i32) {
        TERM_REQUESTED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_term as extern "C" fn(i32) as usize);
    }
}

/// No-op off unix; the EOF and `{"cmd":"stats"}` paths still report.
#[cfg(not(unix))]
pub fn install_term_handler() {}

/// True once SIGTERM has been observed (always false off unix or before
/// [`install_term_handler`]).
pub fn term_requested() -> bool {
    TERM_REQUESTED.load(Ordering::SeqCst)
}

/// Typed request failures. Every variant maps to a stable `kind` string
/// that clients can switch on.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// The line is not valid JSON.
    BadJson(String),
    /// Valid JSON, but not a well-formed request (missing/mistyped field).
    BadRequest(String),
    /// An entity *name* that is not in the vocabulary (or no vocabulary
    /// is loaded).
    UnknownEntity(String),
    /// A relation *name* that is not in the vocabulary (or no vocabulary
    /// is loaded).
    UnknownRelation(String),
    /// An entity *id* at or beyond the vocabulary size.
    EntityOutOfRange {
        /// The offending id.
        id: u32,
        /// Entity vocabulary size.
        num_entities: usize,
    },
    /// A relation *id* at or beyond `2 * num_relations` (raw + inverse).
    RelationOutOfRange {
        /// The offending id.
        id: u32,
        /// Raw relation vocabulary size (ids up to twice this are valid).
        num_relations: usize,
    },
    /// The bounded request queue is at capacity: the request was rejected
    /// at admission (backpressure) without touching the scorers. Clients
    /// should back off and retry.
    Overloaded {
        /// The configured queue depth that was exceeded.
        depth: usize,
    },
    /// `{"cmd":"ingest"}` on a server with no attached ingest session.
    IngestUnsupported,
    /// An ingest sequence number skips ahead — an earlier batch is
    /// missing. Duplicates are *not* errors (they get an idempotent
    /// `"ingest":"duplicate"` acknowledgement); only gaps reject.
    IngestOutOfOrder {
        /// Sequence number the client sent.
        seq: u64,
        /// The only sequence number the session will apply next.
        expected: u64,
    },
    /// An ingest batch timestamped off the timeline frontier.
    BadTimestamp {
        /// Timestamp the client sent.
        t: u32,
        /// The frontier timestamp the session expects.
        expected: u32,
    },
    /// The ingest session has degraded to read-only mode (WAL append
    /// failure, fsync latency or replay lag over budget). Queries still
    /// work; writes are refused until the operator intervenes.
    ReadOnly(String),
    /// The write-ahead log rejected the append — the batch is not
    /// durable and was not applied.
    Wal(String),
    /// The engine could not produce an answer (both scorers failed).
    Internal(String),
}

impl ServeError {
    /// Stable machine-readable error kind.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::BadJson(_) => "bad_json",
            ServeError::BadRequest(_) => "bad_request",
            ServeError::UnknownEntity(_) => "unknown_entity",
            ServeError::UnknownRelation(_) => "unknown_relation",
            ServeError::EntityOutOfRange { .. } => "entity_out_of_range",
            ServeError::RelationOutOfRange { .. } => "relation_out_of_range",
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::IngestUnsupported => "ingest_unsupported",
            ServeError::IngestOutOfOrder { .. } => "ingest_out_of_order",
            ServeError::BadTimestamp { .. } => "bad_timestamp",
            ServeError::ReadOnly(_) => "read_only",
            ServeError::Wal(_) => "wal",
            ServeError::Internal(_) => "internal",
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::BadJson(m) => write!(f, "invalid JSON: {m}"),
            ServeError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServeError::UnknownEntity(m) | ServeError::UnknownRelation(m) => write!(f, "{m}"),
            ServeError::EntityOutOfRange { id, num_entities } => write!(
                f,
                "entity id {id} out of range: the vocabulary has {num_entities} entities"
            ),
            ServeError::RelationOutOfRange { id, num_relations } => write!(
                f,
                "relation id {id} out of range: {num_relations} raw relations admit ids \
                 0..{} (raw + inverse)",
                2 * num_relations
            ),
            ServeError::Overloaded { depth } => write!(
                f,
                "server overloaded: the request queue is at capacity ({depth}); retry later"
            ),
            ServeError::IngestUnsupported => write!(
                f,
                "ingest not supported: this server has no write-ahead log attached \
                 (start it with --wal)"
            ),
            ServeError::IngestOutOfOrder { seq, expected } => {
                write!(f, "out-of-order ingest: got seq {seq}, expected {expected}")
            }
            ServeError::BadTimestamp { t, expected } => {
                write!(f, "bad ingest timestamp {t}: the timeline frontier is {expected}")
            }
            ServeError::ReadOnly(reason) => {
                write!(f, "ingest disabled (read-only mode): {reason}")
            }
            ServeError::Wal(m) => write!(f, "WAL failure: {m}"),
            ServeError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<IngestError> for ServeError {
    fn from(e: IngestError) -> ServeError {
        match e {
            IngestError::OutOfOrder { seq, expected } => {
                ServeError::IngestOutOfOrder { seq, expected }
            }
            IngestError::BadTimestamp { t, expected } => ServeError::BadTimestamp { t, expected },
            IngestError::EntityOutOfRange { id, num_entities } => {
                ServeError::EntityOutOfRange { id, num_entities }
            }
            // Ingested events carry *raw* relation ids only (inverses are
            // derived), so the query-side raw+inverse range message would
            // mislead here.
            IngestError::RelationOutOfRange { id, num_relations } => ServeError::BadRequest(
                format!(
                    "relation id {id} out of range: ingested events use raw relation ids \
                     0..{num_relations} (inverses are derived server-side)"
                ),
            ),
            IngestError::ReadOnly { reason } => ServeError::ReadOnly(reason),
            IngestError::Wal(m) => ServeError::Wal(m),
        }
    }
}

/// An entity or relation reference in a request: a dense id or a
/// vocabulary name.
#[derive(Clone, Debug, PartialEq)]
pub enum SymbolRef {
    /// A dense integer id.
    Id(u32),
    /// A vocabulary name to resolve.
    Name(String),
}

/// One object-prediction query.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryRequest {
    /// Subject entity (id or name).
    pub s: SymbolRef,
    /// Relation (id or name); ids may address the inverse range
    /// `num_relations..2*num_relations`.
    pub r: SymbolRef,
    /// How many ranked objects to return (server default when absent).
    pub topk: Option<usize>,
    /// Per-request deadline budget in milliseconds (overrides the server
    /// default; `0` forces degradation).
    pub budget_ms: Option<f64>,
    /// Opaque client correlation id, echoed in the response.
    pub id: Option<String>,
}

/// One durable ingest batch:
/// `{"cmd":"ingest","seq":N,"quads":[[s,r,o],...]}`.
#[derive(Clone, Debug, PartialEq)]
pub struct IngestRequest {
    /// Client-assigned contiguous sequence number (first batch is 1).
    /// Re-sending an applied seq is an idempotent no-op.
    pub seq: u64,
    /// Timestamp of the new snapshot; defaults to the timeline frontier
    /// so clients need not track it.
    pub t: Option<u32>,
    /// The batch's `(s, r, o)` events (raw relation ids).
    pub quads: Vec<(u32, u32, u32)>,
    /// Opaque client correlation id, echoed in the response.
    pub id: Option<String>,
}

/// A parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// An object-prediction query.
    Query(QueryRequest),
    /// `{"cmd":"ingest"}` — durably append a batch of new events.
    Ingest(IngestRequest),
    /// `{"cmd":"stats"}` — report [`ServeStats`].
    Stats,
    /// `{"cmd":"shutdown"}` — stop the loop after replying.
    Shutdown,
}

fn field_u32(v: &Value, field: &str) -> Result<SymbolRef, ServeError> {
    match v.get(field) {
        None => Err(ServeError::BadRequest(format!("missing field {field:?}"))),
        Some(Value::Str(name)) => Ok(SymbolRef::Name(name.clone())),
        Some(n @ Value::Num(_)) => n
            .as_u64()
            .and_then(|x| u32::try_from(x).ok())
            .map(SymbolRef::Id)
            .ok_or_else(|| {
                ServeError::BadRequest(format!(
                    "field {field:?} must be a non-negative integer id or a name string"
                ))
            }),
        Some(_) => Err(ServeError::BadRequest(format!(
            "field {field:?} must be an integer id or a name string"
        ))),
    }
}

fn parse_id(v: &Value) -> Result<Option<String>, ServeError> {
    match v.get("id") {
        None => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s.clone())),
        Some(n @ Value::Num(_)) => match n.as_i64() {
            Some(i) => Ok(Some(i.to_string())),
            None => Err(ServeError::BadRequest("id must be a string or integer".into())),
        },
        Some(_) => Err(ServeError::BadRequest("id must be a string or integer".into())),
    }
}

/// Parses the body of an `{"cmd":"ingest"}` request. Range checks on the
/// ids are the session's job (it owns the vocabulary sizes); here only
/// shape and integer-ness are enforced.
fn parse_ingest(v: &Value) -> Result<Request, ServeError> {
    let seq = v
        .get("seq")
        .ok_or_else(|| ServeError::BadRequest("ingest requires a \"seq\" field".into()))?
        .as_u64()
        .ok_or_else(|| {
            ServeError::BadRequest("seq must be a non-negative integer".into())
        })?;
    let t = match v.get("t") {
        None => None,
        Some(t) => Some(
            t.as_u64()
                .and_then(|x| u32::try_from(x).ok())
                .ok_or_else(|| {
                    ServeError::BadRequest("t must be a non-negative integer timestamp".into())
                })?,
        ),
    };
    let quads_v = v
        .get("quads")
        .ok_or_else(|| ServeError::BadRequest("ingest requires a \"quads\" array".into()))?;
    let Value::Arr(items) = quads_v else {
        return Err(ServeError::BadRequest("quads must be an array of [s,r,o] triples".into()));
    };
    let mut quads = Vec::with_capacity(items.len());
    for item in items {
        let Value::Arr(tri) = item else {
            return Err(ServeError::BadRequest(
                "each quads entry must be an [s,r,o] array".into(),
            ));
        };
        if tri.len() != 3 {
            return Err(ServeError::BadRequest(format!(
                "each quads entry must have exactly 3 elements, got {}",
                tri.len()
            )));
        }
        let mut ids = [0u32; 3];
        for (slot, field) in ids.iter_mut().zip(tri) {
            *slot = field
                .as_u64()
                .and_then(|x| u32::try_from(x).ok())
                .ok_or_else(|| {
                    ServeError::BadRequest(
                        "quads entries must be non-negative integer ids".into(),
                    )
                })?;
        }
        quads.push((ids[0], ids[1], ids[2]));
    }
    let id = parse_id(v)?;
    Ok(Request::Ingest(IngestRequest { seq, t, quads, id }))
}

/// Parses one JSONL request line. Never panics: byte garbage, deep
/// nesting, wrong field types and absurd numbers all come back as typed
/// [`ServeError`]s (property-tested in `serve_props.rs`).
pub fn parse_request(line: &str) -> Result<Request, ServeError> {
    let v = json::parse(line).map_err(|e| ServeError::BadJson(e.to_string()))?;
    if !matches!(v, Value::Obj(_)) {
        return Err(ServeError::BadRequest("request must be a JSON object".into()));
    }
    if let Some(cmd) = v.get("cmd") {
        return match cmd.as_str() {
            Some("stats") => Ok(Request::Stats),
            Some("shutdown") => Ok(Request::Shutdown),
            Some("ingest") => parse_ingest(&v),
            Some(other) => Err(ServeError::BadRequest(format!("unknown cmd {other:?}"))),
            None => Err(ServeError::BadRequest("cmd must be a string".into())),
        };
    }
    let s = field_u32(&v, "s")?;
    let r = field_u32(&v, "r")?;
    let topk = match v.get("topk") {
        None => None,
        Some(t) => Some(
            t.as_u64()
                .and_then(|k| usize::try_from(k).ok())
                .filter(|&k| k >= 1)
                .ok_or_else(|| {
                    ServeError::BadRequest("topk must be a positive integer".into())
                })?,
        ),
    };
    let budget_ms = match v.get("budget_ms") {
        None => None,
        Some(b) => {
            let ms = b.as_f64().filter(|m| m.is_finite() && *m >= 0.0).ok_or_else(|| {
                ServeError::BadRequest("budget_ms must be a non-negative number".into())
            })?;
            Some(ms)
        }
    };
    let id = parse_id(&v)?;
    Ok(Request::Query(QueryRequest { s, r, topk, budget_ms, id }))
}

/// Anything that can score `(s, r)` queries over a fixed, prepared
/// history. The engine holds two: the full model and a cheap fallback.
pub trait ServeScorer {
    /// Display name (surfaced in stats and logs).
    fn name(&self) -> &str;
    /// Scores all entities for each query: `[queries.len(), num_entities]`.
    fn score(&self, queries: &[(u32, u32)]) -> NdArray;
    /// Top-k predictions per query, bit-identical to ranking
    /// [`ServeScorer::score`]'s rows with [`crate::topk::top_k`]: each row
    /// is `Some` of the best `k` `(entity, score)` pairs, or `None` when
    /// the dense row would contain a non-finite score (the engine degrades
    /// that row, exactly as on the dense path). Scorers without a
    /// short-circuit implementation return `None` (the default) and the
    /// engine falls back to [`ServeScorer::score`].
    fn score_topk(
        &self,
        _queries: &[(u32, u32)],
        _k: usize,
    ) -> Option<Vec<Option<Vec<(u32, f32)>>>> {
        None
    }
}

/// The full HisRES model over a prepared end-of-timeline context. The
/// timeline is frozen, so the model's memo encodes it once (on the first
/// query) and every later batch pays only the query-dependent global stage
/// and decoder.
pub struct ModelScorer {
    /// The trained model.
    pub model: HisRes,
    /// Prepared history (snapshots + global index).
    pub ctx: ScoreCtx,
}

impl ServeScorer for ModelScorer {
    fn name(&self) -> &str {
        "hisres"
    }
    fn score(&self, queries: &[(u32, u32)]) -> NdArray {
        score_at(&self.model, &self.ctx, queries) // lint:allow(panic-reachability, no-hot-alloc-reachable): dense rows and the per-pair global stage are sized by the request; the local encoding is memoised, shapes fixed by the loaded checkpoint
    }
    fn score_topk(
        &self,
        queries: &[(u32, u32)],
        k: usize,
    ) -> Option<Vec<Option<Vec<(u32, f32)>>>> {
        Some(crate::eval::score_at_topk(&self.model, &self.ctx, queries, k)) // lint:allow(panic-reachability, no-hot-alloc-reachable): batch result buffers and the per-pair global stage are sized by the request; the local encoding is memoised
    }
}

/// The full HisRES model over a **live** ingest session: scores reflect
/// every durably applied ingest batch, not a frozen end-of-checkpoint
/// timeline. Shares the session with the engine's ingest path (both run
/// on the single batcher thread, so `Rc<RefCell>` suffices).
pub struct SessionScorer {
    /// The WAL-backed session (also held by [`ServeEngine::with_ingest`]).
    pub session: Rc<RefCell<IngestSession>>,
}

impl ServeScorer for SessionScorer {
    fn name(&self) -> &str {
        "hisres-online"
    }
    fn score(&self, queries: &[(u32, u32)]) -> NdArray {
        self.session.borrow().score(queries)
    }
    fn score_topk(
        &self,
        queries: &[(u32, u32)],
        k: usize,
    ) -> Option<Vec<Option<Vec<(u32, f32)>>>> {
        Some(self.session.borrow().score_topk(queries, k))
    }
}

/// Serving counters, reported via `{"cmd":"stats"}` and at shutdown.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Non-empty request lines handled by the engine (queries + control).
    pub requests: usize,
    /// Successful query answers (full or degraded).
    pub ok: usize,
    /// Error responses, keyed by [`ServeError::kind`].
    pub errors: BTreeMap<String, usize>,
    /// Answers served by the fallback scorer.
    pub degraded: usize,
    /// Panics caught and isolated by the engine.
    pub panics: usize,
    /// Requests rejected at admission by the concurrent front end (queue
    /// full). Rejections never reach the engine, so they are *not*
    /// included in `requests`; the front end folds its counter in via
    /// [`ServeEngine::sync_rejected`].
    pub rejected: usize,
    /// Ingest batches durably applied through the serving layer.
    pub ingested: usize,
    /// Idempotent duplicate-seq ingest acknowledgements.
    pub ingest_duplicates: usize,
    latency: LatencyRecorder,
}

impl ServeStats {
    /// Total error responses across kinds.
    pub fn error_total(&self) -> usize {
        self.errors.values().sum()
    }

    /// JSON view of the counters.
    pub fn to_value(&self) -> Value {
        let errors = Value::Obj(
            self.errors
                .iter()
                .map(|(k, &n)| (k.clone(), Value::Num(n as f64)))
                .collect(),
        );
        Value::Obj(vec![
            ("requests".into(), Value::Num(self.requests as f64)),
            ("ok".into(), Value::Num(self.ok as f64)),
            ("errors".into(), errors),
            ("degraded".into(), Value::Num(self.degraded as f64)),
            ("panics".into(), Value::Num(self.panics as f64)),
            ("rejected".into(), Value::Num(self.rejected as f64)),
            ("ingested".into(), Value::Num(self.ingested as f64)),
            ("ingest_duplicates".into(), Value::Num(self.ingest_duplicates as f64)),
            (
                "p50_ms".into(),
                self.latency.percentile_ms(50.0).map_or(Value::Null, |m| Value::Num(round3(m))),
            ),
            (
                "p99_ms".into(),
                self.latency.percentile_ms(99.0).map_or(Value::Null, |m| Value::Num(round3(m))),
            ),
        ])
    }
}

fn round3(ms: f64) -> f64 {
    (ms * 1e3).round() / 1e3
}

/// Engine policy knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Deadline budget applied when a request carries none (`None` =
    /// unlimited).
    pub default_budget_ms: Option<f64>,
    /// `topk` applied when a request carries none.
    pub default_topk: usize,
    /// Caught panics before the engine goes fallback-only ("poisoned").
    pub max_panics: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { default_budget_ms: None, default_topk: 10, max_panics: 3 }
    }
}

/// One reply line plus whether the loop should stop afterwards.
#[derive(Clone, Debug)]
pub struct Reply {
    /// The JSON response line (no trailing newline).
    pub line: String,
    /// True after a `{"cmd":"shutdown"}` request.
    pub shutdown: bool,
}

struct Answer {
    predictions: Vec<(u32, f32)>,
    degraded: bool,
    reason: Option<&'static str>,
}

/// A query mid-flight through [`ServeEngine::handle_parsed_batch`].
struct PendingQuery {
    s: u32,
    r: u32,
    topk: usize,
    id: Option<String>,
    started: Instant,
    /// Degradation reason, if any stage ruled out the full path.
    degrade: Option<&'static str>,
    /// Ranked answer, filled by the full or fallback pass.
    predictions: Option<Vec<(u32, f32)>>,
}

/// One batch item: already answered, or awaiting a scorer pass.
enum Slot {
    Done(Reply),
    Pending(PendingQuery),
}

/// The serving engine: validation, budgeting, degradation, panic
/// isolation and stats around a full scorer and a fallback scorer.
///
/// The engine itself runs on one thread (the model's autograd graph is
/// `Rc`-based and not `Sync`); concurrency lives around it. The
/// [`serve_concurrent`] TCP front end accepts many clients at once on
/// dedicated I/O service threads and funnels their requests through a
/// bounded queue into this engine's batched entry point
/// ([`handle_parsed_batch`](Self::handle_parsed_batch)), which answers a
/// whole in-flight batch with one scorer call — bit-identical per query
/// to solo scoring. Inside that call, scoring additionally fans out
/// across the [`hisres_util::pool`] worker pool in the no-grad tensor
/// kernels — see the threading notes in `hisres_tensor`.
pub struct ServeEngine {
    cfg: ServeConfig,
    num_entities: usize,
    num_relations: usize,
    entity_vocab: Option<Vocab>,
    relation_vocab: Option<Vocab>,
    full: Box<dyn ServeScorer>,
    fallback: Box<dyn ServeScorer>,
    /// EMA of the full scorer's latency, for budget decisions.
    est_full_ms: Cell<f64>,
    panics: Cell<usize>,
    stats: RefCell<ServeStats>,
    /// Live WAL-backed ingest session; `None` serves a frozen timeline
    /// and answers `{"cmd":"ingest"}` with `ingest_unsupported`.
    ingest: Option<Rc<RefCell<IngestSession>>>,
}

impl ServeEngine {
    /// Builds an engine over a full scorer and a fallback scorer.
    pub fn new(
        cfg: ServeConfig,
        num_entities: usize,
        num_relations: usize,
        full: Box<dyn ServeScorer>,
        fallback: Box<dyn ServeScorer>,
    ) -> ServeEngine {
        ServeEngine {
            cfg,
            num_entities,
            num_relations,
            entity_vocab: None,
            relation_vocab: None,
            full,
            fallback,
            est_full_ms: Cell::new(0.0),
            panics: Cell::new(0),
            stats: RefCell::new(ServeStats::default()),
            ingest: None,
        }
    }

    /// Attaches name vocabularies so requests may reference entities and
    /// relations by string.
    pub fn with_vocabs(mut self, entities: Option<Vocab>, relations: Option<Vocab>) -> Self {
        self.entity_vocab = entities;
        self.relation_vocab = relations;
        self
    }

    /// Attaches a live ingest session, enabling `{"cmd":"ingest"}`. Pass
    /// the same `Rc` wrapped in a [`SessionScorer`] as the full scorer so
    /// queries see ingested events; the engine only *writes* through this
    /// handle.
    pub fn with_ingest(mut self, session: Rc<RefCell<IngestSession>>) -> Self {
        self.ingest = Some(session);
        self
    }

    /// Runs the full scorer once on a probe query to seed the latency
    /// estimate the budget decisions use. A panic during calibration
    /// poisons the engine immediately (fallback-only serving).
    pub fn calibrate(&self) {
        if self.num_entities == 0 || self.num_relations == 0 {
            return;
        }
        let t0 = Instant::now();
        let full = &self.full;
        match catch_unwind(AssertUnwindSafe(|| full.score(&[(0, 0)]))) {
            Ok(_) => {
                self.est_full_ms.set(t0.elapsed().as_secs_f64() * 1e3);
            }
            Err(_) => {
                self.stats.borrow_mut().panics += 1;
                self.panics.set(self.cfg.max_panics.max(1));
                self.est_full_ms.set(f64::INFINITY);
            }
        }
    }

    /// Current full-scorer latency estimate (ms).
    pub fn estimated_full_ms(&self) -> f64 {
        self.est_full_ms.get()
    }

    /// True once the poison counter tripped fallback-only mode.
    pub fn poisoned(&self) -> bool {
        self.panics.get() >= self.cfg.max_panics.max(1)
    }

    /// Read-only view of the counters.
    pub fn stats(&self) -> std::cell::Ref<'_, ServeStats> {
        self.stats.borrow()
    }

    /// The `{"ok":true,"stats":{...}}` line. With an ingest session
    /// attached, the stats object gains an `"ingest"` sub-object
    /// (applied/duplicate counters, fsync EMA, the `read_only` degraded
    /// flag and the durable frontier) appended after the engine counters
    /// so existing field positions never move.
    pub fn stats_line(&self) -> String {
        let mut stats = self.stats.borrow().to_value();
        if let (Some(session), Value::Obj(fields)) = (&self.ingest, &mut stats) {
            let s = session.borrow();
            let ing = s.stats();
            fields.push((
                "ingest".into(),
                Value::Obj(vec![
                    ("applied_seq".into(), Value::Num(s.applied_seq() as f64)),
                    ("frontier_t".into(), Value::Num(s.frontier_t() as f64)),
                    ("applied_batches".into(), Value::Num(ing.applied_batches as f64)),
                    ("applied_quads".into(), Value::Num(ing.applied_quads as f64)),
                    ("duplicates".into(), Value::Num(ing.duplicates as f64)),
                    ("snapshots_written".into(), Value::Num(ing.snapshots_written as f64)),
                    ("snapshot_failures".into(), Value::Num(ing.snapshot_failures as f64)),
                    ("fsync_ema_ms".into(), Value::Num(round3(ing.fsync_ema_ms))),
                    ("read_only".into(), Value::Bool(ing.read_only)),
                    (
                        "read_only_reason".into(),
                        if ing.read_only {
                            Value::Str(ing.read_only_reason.clone())
                        } else {
                            Value::Null
                        },
                    ),
                ]),
            ));
        }
        let v = Value::Obj(vec![("ok".into(), Value::Bool(true)), ("stats".into(), stats)]);
        to_line(v)
    }

    /// Handles one non-empty request line, returning the response line.
    /// Never panics and never kills the loop: every failure mode is a
    /// structured error response. A single-request batch of
    /// [`handle_parsed_batch`](Self::handle_parsed_batch).
    pub fn handle_line(&self, line: &str) -> Reply {
        let started = Instant::now();
        self.handle_parsed_batch(vec![(parse_request(line), started)])
            .pop()
            .unwrap_or_else(|| Reply {
                line: to_line(Value::Obj(vec![
                    ("ok".into(), Value::Bool(false)),
                    (
                        "error".into(),
                        Value::Obj(vec![
                            ("kind".into(), Value::Str("internal".into())),
                            ("message".into(), Value::Str("empty batch reply".into())),
                        ]),
                    ),
                ])),
                shutdown: false,
            })
    }

    /// Folds the front end's admission-rejection counter into the stats
    /// block. The engine never sees rejected requests (they are refused
    /// at the queue), so the concurrent server syncs its atomic counter
    /// here before any stats are reported.
    pub fn sync_rejected(&self, total: usize) {
        self.stats.borrow_mut().rejected = total;
    }

    /// Answers a batch of parsed request lines — the concurrent batcher's
    /// entry point. Replies come back in request order, one per item.
    ///
    /// All non-degraded queries of the batch are answered by **one** full
    /// scorer call; `score_at`'s batched path makes every row bit-equal
    /// to what a solo request would have received, so coalescing is
    /// invisible to clients. All degraded rows likewise share one
    /// fallback call. A panic in the batched full pass degrades the whole
    /// batch's full rows and counts once against the poison counter.
    ///
    /// Ingest requests apply during phase 1, *before* the batch's scorer
    /// pass: within one coalesced batch, every query sees the state after
    /// all of that batch's ingests. Clients that need a pre-ingest answer
    /// must simply ask before ingesting — ordering across connections
    /// inside one batch window is otherwise arbitrary, and this rule
    /// makes it deterministic.
    pub fn handle_parsed_batch(
        &self,
        items: Vec<(Result<Request, ServeError>, Instant)>,
    ) -> Vec<Reply> {
        self.stats.borrow_mut().requests += items.len();

        // Phase 1: validate and classify. Control lines and validation
        // failures are answered immediately; well-formed queries become
        // pending slots, pre-marked degraded when the engine is poisoned
        // or the remaining budget (queue wait included — `started` is
        // stamped at read time) cannot cover the estimated full latency.
        let mut slots: Vec<Slot> = Vec::with_capacity(items.len());
        for (parsed, started) in items {
            let slot = match parsed {
                Err(e) => Slot::Done(self.error_reply(None, e, started)),
                Ok(Request::Stats) => Slot::Done(Reply { line: self.stats_line(), shutdown: false }),
                Ok(Request::Shutdown) => Slot::Done(
                    Reply {
                        line: to_line(Value::Obj(vec![
                            ("ok".into(), Value::Bool(true)),
                            ("shutdown".into(), Value::Bool(true)),
                        ])),
                        shutdown: false,
                    }
                    .into_shutdown(),
                ),
                Ok(Request::Ingest(req)) => Slot::Done(self.handle_ingest(req, started)),
                Ok(Request::Query(q)) => {
                    let resolved = self
                        .resolve_entity(&q.s)
                        .and_then(|s| self.resolve_relation(&q.r).map(|r| (s, r)));
                    match resolved {
                        Err(e) => Slot::Done(self.error_reply(q.id, e, started)),
                        Ok((s, r)) => {
                            let topk =
                                q.topk.unwrap_or(self.cfg.default_topk).min(self.num_entities.max(1));
                            let budget = q.budget_ms.or(self.cfg.default_budget_ms);
                            let degrade: Option<&'static str> = if self.poisoned() {
                                Some("poisoned")
                            } else if let Some(b) = budget {
                                let remaining = b - started.elapsed().as_secs_f64() * 1e3;
                                if self.est_full_ms.get() >= remaining {
                                    Some("budget")
                                } else {
                                    None
                                }
                            } else {
                                None
                            };
                            Slot::Pending(PendingQuery {
                                s,
                                r,
                                topk,
                                id: q.id,
                                started,
                                degrade,
                                predictions: None,
                            })
                        }
                    }
                }
            };
            slots.push(slot);
        }

        // Phase 2: one batched full pass over every non-degraded query,
        // isolated: a panic degrades those rows (and bumps the poison
        // counter once), never the process.
        let full_idx: Vec<usize> = slots
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, Slot::Pending(p) if p.degrade.is_none()))
            .map(|(i, _)| i)
            .collect();
        if !full_idx.is_empty() {
            let queries: Vec<(u32, u32)> = full_idx
                .iter()
                .filter_map(|&i| match &slots[i] {
                    Slot::Pending(p) => Some((p.s, p.r)),
                    Slot::Done(_) => None,
                })
                .collect();
            // The batch is ranked once at the largest requested depth; a
            // per-query cutoff is then a prefix of that ranking (the
            // comparator is a total order), so every client sees the same
            // predictions the dense path would produce.
            let kmax = full_idx
                .iter()
                .map(|&i| match &slots[i] {
                    Slot::Pending(p) => p.topk,
                    Slot::Done(_) => 0,
                })
                .max()
                .unwrap_or(0);
            let t0 = Instant::now();
            let full = &self.full;
            match catch_unwind(AssertUnwindSafe(|| match full.score_topk(&queries, kmax) {
                Some(preds) => ScorePass::TopK(preds),
                None => ScorePass::Dense(full.score(&queries)),
            })) {
                Ok(pass) => {
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    let est = self.est_full_ms.get();
                    self.est_full_ms.set(if est.is_finite() && est > 0.0 {
                        0.7 * est + 0.3 * ms
                    } else {
                        ms
                    });
                    match pass {
                        ScorePass::TopK(mut preds) => {
                            let shape_ok = preds.len() == queries.len();
                            for (row, &i) in full_idx.iter().enumerate() {
                                if let Slot::Pending(p) = &mut slots[i] {
                                    // A `None` row carries a non-finite
                                    // score — as unusable as a panic; the
                                    // fallback serves it instead.
                                    match if shape_ok { preds[row].take() } else { None } {
                                        Some(mut list) => {
                                            list.truncate(p.topk);
                                            p.predictions = Some(list);
                                        }
                                        None => p.degrade = Some("invalid_scores"),
                                    }
                                }
                            }
                        }
                        ScorePass::Dense(scores) => {
                            let shape_ok =
                                scores.shape() == (queries.len(), self.num_entities);
                            for (row, &i) in full_idx.iter().enumerate() {
                                if let Slot::Pending(p) = &mut slots[i] {
                                    // Non-finite scores (a NaN deep in the
                                    // encoder) are as unusable as a panic —
                                    // that row is served by the fallback
                                    // instead.
                                    if shape_ok
                                        && scores.row(row).iter().all(|v| v.is_finite())
                                    {
                                        p.predictions = Some(top_k(scores.row(row), p.topk));
                                    } else {
                                        p.degrade = Some("invalid_scores");
                                    }
                                }
                            }
                        }
                    }
                }
                Err(_) => {
                    self.panics.set(self.panics.get() + 1);
                    self.stats.borrow_mut().panics += 1;
                    for &i in &full_idx {
                        if let Slot::Pending(p) = &mut slots[i] {
                            p.degrade = Some("panic");
                        }
                    }
                }
            }
        }

        // Phase 3: one batched fallback pass over every degraded row.
        let fb_idx: Vec<usize> = slots
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, Slot::Pending(p) if p.predictions.is_none()))
            .map(|(i, _)| i)
            .collect();
        let mut fb_error: Option<ServeError> = None;
        if !fb_idx.is_empty() {
            let queries: Vec<(u32, u32)> = fb_idx
                .iter()
                .filter_map(|&i| match &slots[i] {
                    Slot::Pending(p) => Some((p.s, p.r)),
                    Slot::Done(_) => None,
                })
                .collect();
            match self.run_fallback(&queries) {
                Ok(fb) => {
                    for (row, &i) in fb_idx.iter().enumerate() {
                        if let Slot::Pending(p) = &mut slots[i] {
                            p.predictions = Some(top_k(fb.row(row), p.topk));
                        }
                    }
                }
                Err(e) => fb_error = Some(e),
            }
        }

        // Phase 4: assemble replies in request order.
        slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Done(reply) => reply,
                Slot::Pending(p) => match p.predictions {
                    Some(predictions) => self.ok_reply(
                        p.id,
                        Answer { predictions, degraded: p.degrade.is_some(), reason: p.degrade },
                        p.started,
                    ),
                    None => {
                        let e = fb_error
                            .clone()
                            .unwrap_or_else(|| ServeError::Internal("no answer produced".into()));
                        self.error_reply(p.id, e, p.started)
                    }
                },
            })
            .collect()
    }

    /// Applies one ingest request against the attached session. Runs on
    /// the batcher thread during phase 1, so the WAL fsync and the
    /// encoder step are ordered before the batch's scorer pass.
    fn handle_ingest(&self, req: IngestRequest, started: Instant) -> Reply {
        let Some(session) = &self.ingest else {
            return self.error_reply(req.id, ServeError::IngestUnsupported, started);
        };
        let outcome = session.borrow_mut().ingest(req.seq, req.t, &req.quads);
        match outcome {
            Ok(outcome) => {
                let ms = started.elapsed().as_secs_f64() * 1e3;
                let mut fields = vec![("ok".into(), Value::Bool(true))];
                if let Some(id) = req.id {
                    fields.push(("id".into(), Value::Str(id)));
                }
                match outcome {
                    IngestOutcome::Applied { seq, quads, snapshot_written } => {
                        let mut st = self.stats.borrow_mut();
                        st.ingested += 1;
                        st.latency.record_ms(ms);
                        fields.push(("ingest".into(), Value::Str("applied".into())));
                        fields.push(("seq".into(), Value::Num(seq as f64)));
                        fields.push(("quads".into(), Value::Num(quads as f64)));
                        fields.push(("snapshot_written".into(), Value::Bool(snapshot_written)));
                    }
                    IngestOutcome::Duplicate { seq, applied_seq } => {
                        let mut st = self.stats.borrow_mut();
                        st.ingest_duplicates += 1;
                        st.latency.record_ms(ms);
                        fields.push(("ingest".into(), Value::Str("duplicate".into())));
                        fields.push(("seq".into(), Value::Num(seq as f64)));
                        fields.push(("applied_seq".into(), Value::Num(applied_seq as f64)));
                    }
                }
                fields.push(("latency_ms".into(), Value::Num(round3(ms))));
                Reply { line: to_line(Value::Obj(fields)), shutdown: false }
            }
            Err(e) => self.error_reply(req.id, e.into(), started),
        }
    }

    fn resolve_entity(&self, sym: &SymbolRef) -> Result<u32, ServeError> {
        match sym {
            SymbolRef::Id(id) => {
                if (*id as usize) < self.num_entities {
                    Ok(*id)
                } else {
                    Err(ServeError::EntityOutOfRange { id: *id, num_entities: self.num_entities })
                }
            }
            SymbolRef::Name(name) => match &self.entity_vocab {
                Some(v) => v
                    .get(name)
                    .filter(|&id| (id as usize) < self.num_entities)
                    .ok_or_else(|| {
                        ServeError::UnknownEntity(format!(
                            "entity name {name:?} is not in the vocabulary"
                        ))
                    }),
                None => Err(ServeError::UnknownEntity(format!(
                    "entity name {name:?}: no entity vocabulary loaded (dataset is id-based)"
                ))),
            },
        }
    }

    fn resolve_relation(&self, sym: &SymbolRef) -> Result<u32, ServeError> {
        match sym {
            SymbolRef::Id(id) => {
                if (*id as usize) < 2 * self.num_relations {
                    Ok(*id)
                } else {
                    Err(ServeError::RelationOutOfRange {
                        id: *id,
                        num_relations: self.num_relations,
                    })
                }
            }
            SymbolRef::Name(name) => match &self.relation_vocab {
                Some(v) => v
                    .get(name)
                    .filter(|&id| (id as usize) < 2 * self.num_relations)
                    .ok_or_else(|| {
                        ServeError::UnknownRelation(format!(
                            "relation name {name:?} is not in the vocabulary"
                        ))
                    }),
                None => Err(ServeError::UnknownRelation(format!(
                    "relation name {name:?}: no relation vocabulary loaded (dataset is id-based)"
                ))),
            },
        }
    }

    fn run_fallback(&self, queries: &[(u32, u32)]) -> Result<NdArray, ServeError> {
        let fallback = &self.fallback;
        let scores = catch_unwind(AssertUnwindSafe(|| fallback.score(queries))).map_err(|_| {
            self.stats.borrow_mut().panics += 1;
            ServeError::Internal("fallback scorer panicked".into())
        })?;
        if scores.shape() != (queries.len(), self.num_entities) {
            return Err(ServeError::Internal(format!(
                "fallback scorer returned shape {:?}, expected {:?}",
                scores.shape(),
                (queries.len(), self.num_entities)
            )));
        }
        Ok(scores)
    }

    fn ok_reply(&self, id: Option<String>, a: Answer, started: Instant) -> Reply {
        let ms = started.elapsed().as_secs_f64() * 1e3;
        {
            let mut st = self.stats.borrow_mut();
            st.ok += 1;
            if a.degraded {
                st.degraded += 1;
            }
            st.latency.record_ms(ms);
        }
        let preds = Value::Arr(
            a.predictions
                .iter()
                .map(|&(o, score)| {
                    Value::Obj(vec![
                        ("o".into(), Value::Num(o as f64)),
                        ("score".into(), Value::Num(sanitize(score))),
                    ])
                })
                .collect(),
        );
        let mut fields = vec![("ok".into(), Value::Bool(true))];
        if let Some(id) = id {
            fields.push(("id".into(), Value::Str(id)));
        }
        fields.push(("degraded".into(), Value::Bool(a.degraded)));
        if let Some(reason) = a.reason {
            fields.push(("reason".into(), Value::Str(reason.into())));
        }
        fields.push(("predictions".into(), preds));
        fields.push(("latency_ms".into(), Value::Num(round3(ms))));
        Reply { line: to_line(Value::Obj(fields)), shutdown: false }
    }

    fn error_reply(&self, id: Option<String>, e: ServeError, started: Instant) -> Reply {
        let ms = started.elapsed().as_secs_f64() * 1e3;
        {
            let mut st = self.stats.borrow_mut();
            *st.errors.entry(e.kind().to_owned()).or_insert(0) += 1;
            st.latency.record_ms(ms);
        }
        Reply { line: error_line(id.as_deref(), &e, ms), shutdown: false }
    }
}

/// The `{"ok":false,"error":{...}}` line for `e`, echoing `id`. Shared by
/// the engine's error replies and the concurrent front end's reader-side
/// [`ServeError::Overloaded`] rejections, which must answer without
/// touching the single-threaded engine.
pub fn error_line(id: Option<&str>, e: &ServeError, latency_ms: f64) -> String {
    let mut fields = vec![("ok".into(), Value::Bool(false))];
    if let Some(id) = id {
        fields.push(("id".into(), Value::Str(id.to_owned())));
    }
    fields.push((
        "error".into(),
        Value::Obj(vec![
            ("kind".into(), Value::Str(e.kind().into())),
            ("message".into(), Value::Str(e.to_string())),
        ]),
    ));
    fields.push(("latency_ms".into(), Value::Num(round3(latency_ms))));
    to_line(Value::Obj(fields))
}

impl Reply {
    fn into_shutdown(mut self) -> Reply {
        self.shutdown = true;
        self
    }
}

/// Serializes a response `Value`; serialization itself can only fail on
/// non-finite numbers, which every caller sanitizes first — but a typed
/// last-resort line beats a panic even then.
fn to_line(v: Value) -> String {
    v.try_to_string().unwrap_or_else(|_| {
        r#"{"ok":false,"error":{"kind":"internal","message":"response serialization failed"}}"#
            .to_owned()
    })
}

fn sanitize(score: f32) -> f64 {
    let f = score as f64;
    if f.is_finite() {
        f
    } else {
        f64::MIN
    }
}

/// One full-scorer pass: either short-circuit top-k rankings or a dense
/// score matrix from a scorer without a top-k path.
enum ScorePass {
    TopK(Vec<Option<Vec<(u32, f32)>>>),
    Dense(NdArray),
}

/// Drives the engine over a line-oriented transport: one JSON response
/// per non-empty request line, a final stats line at EOF or shutdown.
pub fn serve_lines(
    engine: &ServeEngine,
    input: impl BufRead,
    mut output: impl Write,
) -> std::io::Result<()> {
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let reply = engine.handle_line(&line);
        writeln!(output, "{}", reply.line)?;
        output.flush()?;
        if reply.shutdown || term_requested() {
            break;
        }
    }
    writeln!(output, "{}", engine.stats_line())?;
    output.flush()
}

/// Topology knobs for the concurrent TCP front end.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Connection-worker threads (each serves one client at a time,
    /// writing replies while a paired reader thread parses requests).
    /// Clamped to at least 1.
    pub workers: usize,
    /// Bound on the shared request queue; a full queue rejects queries
    /// with a typed [`ServeError::Overloaded`] response. Clamped to at
    /// least 1.
    pub max_queue: usize,
    /// How long the batcher waits to coalesce further in-flight requests
    /// after the first of a batch (0 batches only what is already
    /// queued).
    pub batch_window_ms: f64,
    /// Stop accepting after this many connections (tests); `None` serves
    /// until shutdown.
    pub max_connections: Option<usize>,
    /// Bound on ingest requests admitted but not yet applied. Ingests
    /// fsync a WAL on the batcher thread, so they are orders of magnitude
    /// heavier than queries; a small dedicated budget keeps a burst of
    /// writers from starving readers. Excess ingests are rejected with a
    /// typed [`ServeError::Overloaded`]. Clamped to at least 1.
    pub max_ingest_queue: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            max_queue: 64,
            batch_window_ms: 2.0,
            max_connections: None,
            max_ingest_queue: 8,
        }
    }
}

/// What reader threads put on the shared request queue: a parsed request
/// line, or the end-of-connection marker (`parsed: None`) that makes the
/// batcher emit the connection's final stats line and release its writer.
struct Job {
    parsed: Option<Result<Request, ServeError>>,
    started: Instant,
    /// Per-connection sequence number; the writer restores request order
    /// with it, so batching can never cross-wire replies.
    seq: u64,
    resp: mpsc::Sender<WriterMsg>,
}

/// `(seq, line, close)` — an empty line writes nothing (used to release
/// a writer whose connection produced no reply), `close` ends the writer
/// after this seq is written out.
type WriterMsg = (u64, String, bool);

/// State shared between the acceptor, readers, workers and the batcher.
struct ServerShared {
    queue: BoundedQueue<Job>,
    /// Queries refused at admission (folded into stats via
    /// [`ServeEngine::sync_rejected`]).
    rejected: AtomicUsize,
    /// Ingest requests admitted and not yet handed to the engine;
    /// bounded by `ingest_limit` at the reader (typed `overloaded`
    /// rejection), decremented by the batcher as it takes them.
    ingest_inflight: AtomicUsize,
    /// `ServerConfig::max_ingest_queue`, clamped.
    ingest_limit: usize,
    shutdown: AtomicBool,
    /// Connections accepted and not yet fully served.
    active: AtomicUsize,
    accepting_done: AtomicBool,
    /// Read halves of open connections, so shutdown can force EOF on
    /// every reader (their writers then drain normally).
    conns: Mutex<Vec<(u64, TcpStream)>>,
}

fn lock_conns(shared: &ServerShared) -> std::sync::MutexGuard<'_, Vec<(u64, TcpStream)>> {
    shared.conns.lock().unwrap_or_else(|e| e.into_inner())
}

/// Concurrent multi-client TCP front end: an acceptor service thread
/// hands connections to `workers` connection workers; each worker pairs
/// a reader service thread (parse + enqueue) with an in-order reply
/// writer. The caller's thread becomes the **batcher**: it owns the
/// engine (whose model is single-threaded by construction), drains the
/// bounded request queue, coalesces up to a batch window of in-flight
/// requests, and answers them through
/// [`ServeEngine::handle_parsed_batch`] — one batched scorer pass,
/// bit-identical per query to solo scoring.
///
/// Admission control: when the queue is full, query requests are rejected
/// immediately on the reader thread with a typed `overloaded` error
/// response (control commands and EOF markers are never shed — they block
/// that one connection instead). Ingest requests pass a second, smaller
/// gate first — [`ServerConfig::max_ingest_queue`] bounds ingests
/// admitted but not yet applied, since each one costs a WAL fsync plus an
/// encoder step on the batcher thread. `{"cmd":"shutdown"}` from any client
/// stops accepting, forces EOF on every open connection, and drains the
/// queue — every request already admitted still gets its reply and every
/// connection its final stats line.
pub fn serve_concurrent(
    engine: &ServeEngine,
    listener: TcpListener,
    cfg: &ServerConfig,
) -> std::io::Result<()> {
    let workers = cfg.workers.max(1);
    let local_addr = listener.local_addr()?;
    let shared = Arc::new(ServerShared {
        queue: BoundedQueue::new(cfg.max_queue.max(1)),
        rejected: AtomicUsize::new(0),
        ingest_inflight: AtomicUsize::new(0),
        ingest_limit: cfg.max_ingest_queue.max(1),
        shutdown: AtomicBool::new(false),
        active: AtomicUsize::new(0),
        accepting_done: AtomicBool::new(false),
        conns: Mutex::new(Vec::new()),
    });
    // Accepted connections awaiting a free worker; a small bound keeps
    // the accept backlog from growing without limit under load.
    let conn_queue: Arc<BoundedQueue<(u64, TcpStream)>> = Arc::new(BoundedQueue::new(2 * workers));

    let acceptor = {
        let shared = shared.clone();
        let conn_queue = conn_queue.clone();
        let max_connections = cfg.max_connections;
        pool::spawn_service("hisres-serve-acceptor", move || {
            acceptor_loop(&shared, &listener, &conn_queue, max_connections)
        })?
    };
    let mut worker_services = Vec::with_capacity(workers);
    for i in 0..workers {
        let shared = shared.clone();
        let conn_queue = conn_queue.clone();
        worker_services.push(pool::spawn_service(&format!("hisres-serve-worker-{i}"), move || {
            while let Some((conn_id, stream)) = conn_queue.pop() {
                serve_connection(&shared, conn_id, stream);
                shared.active.fetch_sub(1, Ordering::SeqCst);
            }
        })?);
    }

    // ---- the batcher: the only thread that touches the engine ----
    let window = Duration::from_secs_f64(cfg.batch_window_ms.max(0.0) / 1e3);
    loop {
        if term_requested() {
            initiate_shutdown(&shared, local_addr);
        }
        let Some(first) = shared.queue.pop_timeout(Duration::from_millis(20)) else {
            let drained = shared.accepting_done.load(Ordering::SeqCst)
                && shared.active.load(Ordering::SeqCst) == 0
                && shared.queue.is_empty();
            if drained {
                break;
            }
            continue;
        };
        let mut jobs = vec![first];
        let cap = shared.queue.capacity();
        if window.is_zero() {
            while jobs.len() < cap {
                match shared.queue.try_pop() {
                    Some(j) => jobs.push(j),
                    None => break,
                }
            }
        } else {
            let deadline = Instant::now() + window;
            while jobs.len() < cap {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                match shared.queue.pop_timeout(deadline - now) {
                    Some(j) => jobs.push(j),
                    None => break,
                }
            }
        }
        if process_batch(engine, &shared, jobs) {
            initiate_shutdown(&shared, local_addr);
        }
    }

    shared.queue.close();
    conn_queue.close();
    let _ = acceptor.join();
    for w in worker_services {
        let _ = w.join();
    }
    Ok(())
}

/// Flips the shutdown flag once: stops the acceptor (waking it with a
/// loopback connection) and forces EOF on every open connection's read
/// half, so readers enqueue their final markers and writers drain.
fn initiate_shutdown(shared: &ServerShared, local_addr: std::net::SocketAddr) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    for (_, conn) in lock_conns(shared).iter() {
        let _ = conn.shutdown(Shutdown::Read);
    }
    // Unblock `accept()`; the acceptor sees the flag and drops this
    // connection without serving it.
    let _ = TcpStream::connect(local_addr);
}

fn acceptor_loop(
    shared: &ServerShared,
    listener: &TcpListener,
    conn_queue: &BoundedQueue<(u64, TcpStream)>,
    max_connections: Option<usize>,
) {
    let mut accepted = 0u64;
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(e) => {
                eprintln!("serve: accept failed: {e}"); // lint:allow(no-debug-leftovers): operational log of a failed accept, not debug output
                continue;
            }
        };
        accepted += 1;
        shared.active.fetch_add(1, Ordering::SeqCst);
        if conn_queue.push((accepted, stream)).is_err() {
            // queue closed mid-shutdown: this connection won't be served
            shared.active.fetch_sub(1, Ordering::SeqCst);
            break;
        }
        if max_connections.is_some_and(|max| accepted as usize >= max) {
            break;
        }
    }
    conn_queue.close();
    shared.accepting_done.store(true, Ordering::SeqCst);
}

/// Serves one accepted connection on a worker thread: spawns the reader
/// service, runs the in-order reply writer inline, joins the reader and
/// unregisters the connection.
fn serve_connection(shared: &Arc<ServerShared>, conn_id: u64, stream: TcpStream) {
    // Replies are small JSON lines; Nagle buys nothing here and costs a
    // delayed-ACK stall (~40 ms) per round trip for request/reply clients.
    let _ = stream.set_nodelay(true);
    let (tx, rx) = mpsc::channel::<WriterMsg>();
    let read_half = match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: connection {conn_id} clone failed: {e}"); // lint:allow(no-debug-leftovers): operational log of a dropped TCP connection, not debug output
            return;
        }
    };
    if let Ok(register_half) = read_half.try_clone() {
        lock_conns(shared).push((conn_id, register_half));
    }
    // A shutdown that raced past registration must still force this
    // reader off its socket.
    if shared.shutdown.load(Ordering::SeqCst) {
        let _ = read_half.shutdown(Shutdown::Read);
    }
    let reader = {
        let shared = shared.clone();
        pool::spawn_service("hisres-serve-reader", move || reader_loop(&shared, read_half, tx))
    };
    writer_loop(&stream, &rx);
    if let Ok(service) = reader {
        let _ = service.join();
    }
    lock_conns(shared).retain(|(id, _)| *id != conn_id);
}

/// Parses request lines off one connection and enqueues them. Queries go
/// through non-blocking admission (`try_push`); a full queue answers
/// `overloaded` directly. Ingests additionally reserve a slot in the
/// dedicated in-flight ingest budget first — WAL fsyncs on the batcher
/// thread are too expensive to admit unboundedly. Control commands,
/// parse errors and the final EOF marker are never shed.
fn reader_loop(shared: &ServerShared, stream: TcpStream, resp: mpsc::Sender<WriterMsg>) {
    let mut seq = 0u64;
    for line in BufReader::new(stream).lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let job = Job {
            parsed: Some(parse_request(&line)),
            started: Instant::now(),
            seq,
            resp: resp.clone(),
        };
        seq += 1;
        let is_query = matches!(&job.parsed, Some(Ok(Request::Query(_))));
        let is_ingest = matches!(&job.parsed, Some(Ok(Request::Ingest(_))));
        let outcome = if is_ingest {
            push_ingest(shared, job)
        } else if is_query {
            shared.queue.try_push(job)
        } else {
            blocking_push(shared, job)
        };
        match outcome {
            Ok(()) => {}
            Err(PushError::Full(job)) => {
                shared.rejected.fetch_add(1, Ordering::Relaxed);
                let id = match &job.parsed {
                    Some(Ok(Request::Query(q))) => q.id.as_deref(),
                    Some(Ok(Request::Ingest(iq))) => iq.id.as_deref(),
                    _ => None,
                };
                let depth =
                    if is_ingest { shared.ingest_limit } else { shared.queue.capacity() };
                let e = ServeError::Overloaded { depth };
                let ms = job.started.elapsed().as_secs_f64() * 1e3;
                let _ = resp.send((job.seq, error_line(id, &e, ms), false));
            }
            Err(PushError::Closed(job)) => {
                let e = ServeError::Internal("server is shutting down".into());
                let ms = job.started.elapsed().as_secs_f64() * 1e3;
                let _ = resp.send((job.seq, error_line(None, &e, ms), false));
                break;
            }
        }
    }
    // EOF: the marker rides the same queue behind this connection's
    // requests, so the batcher emits the final stats line only after all
    // of them are answered.
    let marker = Job { parsed: None, started: Instant::now(), seq, resp: resp.clone() };
    if blocking_push(shared, marker).is_err() {
        // batcher already gone: release the writer directly
        let _ = resp.send((seq, String::new(), true));
    }
}

fn blocking_push(shared: &ServerShared, job: Job) -> Result<(), PushError<Job>> {
    shared.queue.push(job).map_err(PushError::Closed)
}

/// Non-blocking ingest admission: reserves a slot in the dedicated
/// in-flight ingest budget *before* pushing onto the shared queue. The
/// slot is released by the batcher as it takes the job
/// ([`process_batch`]), or here when either bound refuses it.
fn push_ingest(shared: &ServerShared, job: Job) -> Result<(), PushError<Job>> {
    if shared.ingest_inflight.fetch_add(1, Ordering::SeqCst) >= shared.ingest_limit {
        shared.ingest_inflight.fetch_sub(1, Ordering::SeqCst);
        return Err(PushError::Full(job));
    }
    match shared.queue.try_push(job) {
        Ok(()) => Ok(()),
        Err(e) => {
            shared.ingest_inflight.fetch_sub(1, Ordering::SeqCst);
            Err(e)
        }
    }
}

/// Writes replies back in per-connection request order: messages may
/// arrive out of order (rejections answer instantly while admitted
/// requests wait for the batcher), so a reorder buffer holds them until
/// their sequence number is next.
fn writer_loop(stream: &TcpStream, rx: &mpsc::Receiver<WriterMsg>) {
    let mut out = BufWriter::new(stream);
    let mut next = 0u64;
    let mut pending: BTreeMap<u64, (String, bool)> = BTreeMap::new();
    let mut dead = false;
    while let Ok((seq, line, close)) = rx.recv() {
        pending.insert(seq, (line, close));
        while let Some((line, close)) = pending.remove(&next) {
            next += 1;
            if !dead && !line.is_empty() {
                let write = writeln!(out, "{line}").and_then(|_| out.flush());
                if write.is_err() {
                    // client hung up: keep draining so the batcher's
                    // sends never error, but stop writing
                    dead = true;
                }
            }
            if close {
                return;
            }
        }
    }
}

/// Answers one coalesced batch on the engine-owning thread. Returns true
/// when a shutdown request was in the batch.
fn process_batch(engine: &ServeEngine, shared: &ServerShared, jobs: Vec<Job>) -> bool {
    engine.sync_rejected(shared.rejected.load(Ordering::Relaxed));
    // Release the in-flight ingest budget for every ingest job this batch
    // takes off the queue; new ingests may now be admitted while these
    // apply.
    let ingests = jobs
        .iter()
        .filter(|j| matches!(&j.parsed, Some(Ok(Request::Ingest(_)))))
        .count();
    if ingests > 0 {
        shared.ingest_inflight.fetch_sub(ingests, Ordering::SeqCst);
    }
    let mut items = Vec::with_capacity(jobs.len());
    let mut routes = Vec::with_capacity(jobs.len());
    let mut eofs = Vec::new();
    for job in jobs {
        match job.parsed {
            Some(parsed) => {
                items.push((parsed, job.started));
                routes.push((job.seq, job.resp));
            }
            None => eofs.push(job),
        }
    }
    let mut shutdown = false;
    if !items.is_empty() {
        for (reply, (seq, resp)) in engine.handle_parsed_batch(items).into_iter().zip(routes) {
            if reply.shutdown {
                shutdown = true;
            }
            let _ = resp.send((seq, reply.line, false));
        }
    }
    // EOF markers last: within a batch they can only belong to
    // connections whose requests were just answered above.
    for job in eofs {
        let _ = job.resp.send((job.seq, engine.stats_line(), true));
    }
    shutdown
}

/// Loads a model for serving from either a **model checkpoint** or a full
/// **training-state** file (preferring its best-validation parameters),
/// retrying transient I/O errors with bounded exponential backoff.
/// Persistent failures — missing file, corrupt envelope, wrong kind — are
/// returned immediately as typed [`CheckpointError`]s.
pub fn load_servable_model(
    path: impl AsRef<std::path::Path>,
    policy: &BackoffPolicy,
    faults: &FaultInjector,
) -> Result<HisRes, CheckpointError> {
    let path = path.as_ref();
    let bytes = with_backoff(policy, io_transient, |_| fsio::read_with(path, faults))
        .map_err(CheckpointError::Io)?;
    let kind = fsio::kind_of(&bytes)?;
    if kind == MODEL_KIND {
        HisRes::load_checkpoint_bytes(&bytes)
    } else if kind == TRAIN_STATE_KIND {
        TrainCheckpoint::load_bytes(&bytes)?.build_model_best()
    } else {
        Err(CheckpointError::Envelope(EnvelopeError::WrongKind {
            expected: format!("{MODEL_KIND} or {TRAIN_STATE_KIND}"),
            found: kind.to_owned(),
        }))
    }
}

/// Transient I/O error kinds worth retrying; everything else (not found,
/// permission denied) fails fast.
fn io_transient(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::UnexpectedEof
    )
}
