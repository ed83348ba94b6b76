//! Pieces shared by the two serving workloads: handing a batch of request
//! lines to the engine, the traced scorer that re-runs the scoring stages
//! under spans, and reply checking.

use crate::check::{self, Reply};
use crate::stats::cpu_s;
use crate::trace::span;
use crate::ALLOC;
use hisres::model::Encoded;
use hisres::serve::{parse_request, ServeEngine, ServeScorer};
use hisres::HisRes;
use hisres_graph::{EdgeList, GlobalHistoryIndex};
use hisres_tensor::NdArray;
use hisres_util::rng::rngs::StdRng;
use hisres_util::rng::SeedableRng;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// Top-k rows as the scorers return them.
pub type TopkRows = Vec<Option<Vec<(u32, f32)>>>;
/// A batch top-k scoring function.
pub type TopkFn = Box<dyn Fn(&[(u32, u32)], usize) -> TopkRows>;
/// A batch dense scoring function.
pub type DenseFn = Box<dyn Fn(&[(u32, u32)]) -> NdArray>;

/// Span names of one serving path (`frozen.*` or `live.*`).
pub struct Names {
    pub parse: &'static str,
    pub batch: &'static str,
    pub scorer: &'static str,
    pub local: &'static str,
    pub graph: &'static str,
    pub global: &'static str,
    pub norms: &'static str,
    pub decode: &'static str,
}

/// One handed-off batch: its replies, CPU and wall time, allocations.
pub struct Sent {
    pub replies: Vec<String>,
    pub cpu_ms: f64,
    pub wall_ms: f64,
    pub allocs: u64,
}

/// Hands `lines` to the engine as one batch, timed from before parsing
/// to the return of the replies.
pub fn send(engine: &ServeEngine, lines: &[String], names: &Names) -> Sent {
    let a0 = ALLOC.allocations();
    let c0 = cpu_s();
    let t0 = Instant::now();
    let items = lines
        .iter()
        .map(|l| (span(names.parse, || parse_request(l)), t0))
        .collect();
    let replies = span(names.batch, || engine.handle_parsed_batch(items));
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let cpu_ms = (cpu_s() - c0) * 1e3;
    let allocs = ALLOC.allocations() - a0;
    Sent {
        replies: replies.into_iter().map(|r| r.line).collect(),
        cpu_ms,
        wall_ms,
        allocs,
    }
}

/// Counts kept by the traced scorer.
#[derive(Default)]
pub struct ScorerCounts {
    pub calls: Cell<u64>,
    pub queries: Cell<u64>,
    pub distinct: Cell<u64>,
    pub edges: Cell<u64>,
}

fn bump(c: &Cell<u64>, n: u64) {
    c.set(c.get() + n);
}

/// The scoring stages of `score_at_topk` / `IngestSession::score_topk`,
/// called in the same order on the same inputs, each under its own span:
/// one local encoding, then per distinct pair its relevant graph, global
/// encoding (shared, with block norms, across pairs whose graph is
/// empty) and top-k decode.
pub fn traced_topk(
    model: &HisRes,
    local: impl FnOnce() -> Encoded,
    global: &GlobalHistoryIndex,
    queries: &[(u32, u32)],
    k: usize,
    names: &Names,
    counts: &ScorerCounts,
) -> TopkRows {
    let mut out: TopkRows = vec![None; queries.len()];
    let prune_k = model.cfg.global_prune_topk.unwrap_or(usize::MAX);
    let mut groups: BTreeMap<(u32, u32), Vec<usize>> = BTreeMap::new();
    for (i, &pair) in queries.iter().enumerate() {
        groups.entry(pair).or_default().push(i);
    }
    bump(&counts.calls, 1);
    bump(&counts.queries, queries.len() as u64);
    bump(&counts.distinct, groups.len() as u64);
    if queries.is_empty() {
        return out;
    }
    hisres_tensor::no_grad(|| {
        let local = span(names.local, local);
        let mut shared: Option<(Encoded, hisres::BlockNorms)> = None;
        for (&pair, rows) in &groups {
            let g_edges = if model.cfg.use_global {
                span(names.graph, || {
                    global.relevant_graph_pruned(&[pair], prune_k)
                })
            } else {
                EdgeList::new()
            };
            bump(&counts.edges, g_edges.len() as u64);
            let mut rng = StdRng::seed_from_u64(0);
            let preds = if g_edges.is_empty() {
                if shared.is_none() {
                    let enc = span(names.global, || {
                        model.encode_global_with(&local, &g_edges, false, &mut rng)
                    });
                    let norms = span(names.norms, || model.entity_block_norms(&enc));
                    shared = Some((enc, norms));
                }
                let (enc, norms) = shared.as_ref().expect("shared encoding was just built");
                span(names.decode, || {
                    model.score_objects_topk(enc, &[pair], k, Some(norms))
                })
            } else {
                let enc = span(names.global, || {
                    model.encode_global_with(&local, &g_edges, false, &mut rng)
                });
                span(names.decode, || {
                    model.score_objects_topk(&enc, &[pair], k, None)
                })
            };
            for &i in rows {
                out[i] = preds[0].clone();
            }
        }
    });
    out
}

/// A `ServeScorer` that answers through a traced stage function and keeps
/// its last answer, so the caller can compare it with the program's own
/// scorer outside the timed spans.
pub struct TracedScorer {
    pub name: &'static str,
    pub topk: TopkFn,
    pub dense: DenseFn,
    pub last: Rc<RefCell<Option<TopkRows>>>,
}

impl ServeScorer for TracedScorer {
    fn name(&self) -> &str {
        "hisres-traced"
    }
    fn score(&self, queries: &[(u32, u32)]) -> NdArray {
        (self.dense)(queries)
    }
    fn score_topk(&self, queries: &[(u32, u32)], k: usize) -> Option<TopkRows> {
        let rows = span(self.name, || (self.topk)(queries, k));
        *self.last.borrow_mut() = Some(rows.clone());
        Some(rows)
    }
}

/// Checked outcome of one query reply.
pub enum Answer {
    /// Served in full: the predictions.
    Ok(Vec<(u32, f64)>),
    /// Degraded or refused: counts as a failed operation.
    Failed,
}

/// Parses a query reply and runs the property checks (plus the own-ranking
/// check when the dense row is given).
pub fn check_query(
    line: &str,
    num_entities: usize,
    dense_row: Option<&[f32]>,
) -> Result<Answer, String> {
    match check::parse_reply(line)? {
        Reply::Query {
            degraded: false,
            preds,
        } => {
            check::check_answer(&preds, crate::inputs::TOPK, num_entities, dense_row)
                .map_err(|e| format!("reply {line}: {e}"))?;
            Ok(Answer::Ok(preds))
        }
        Reply::Query { degraded: true, .. } | Reply::Error(_) => Ok(Answer::Failed),
        Reply::Ingest { .. } => Err(format!("ingest reply to a query: {line}")),
    }
}

/// FNV-1a over an answer's ids and score bits.
pub fn answer_hash(preds: &[(u32, f64)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &(o, s) in preds {
        for b in u64::from(o)
            .to_le_bytes()
            .into_iter()
            .chain(s.to_bits().to_le_bytes())
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}
