//! Time-aware filtered evaluation of any extrapolation model (§4.1.4).
//!
//! The protocol follows the RE-GCN family: test snapshots are visited in
//! chronological order; each query `(s, r, ?, t)` is scored against every
//! entity using the *ground-truth* history up to `t - 1` (single-step
//! extrapolation), ranks are time-filtered, and the just-evaluated
//! snapshot then joins the history. Both raw and inverse queries are
//! evaluated, matching the two-directional protocol of the baselines.

use crate::model::{Encoded, HisRes};
use crate::topk::BlockNorms;
use hisres_data::DatasetSplits;
use hisres_graph::{EdgeList, GlobalHistoryIndex, Quad, RankMetrics, Snapshot, TimeFilter};
use hisres_tensor::{no_grad, NdArray};
use hisres_util::pool;
use hisres_util::rng::rngs::StdRng;
use hisres_util::rng::SeedableRng;
use std::collections::BTreeMap;

/// Minimum query rows per ranking task; each row scans every entity, so a
/// task this size comfortably amortises pool dispatch.
const RANK_ROWS_PER_TASK: usize = 64;

/// Everything a model may consult when scoring queries at time `t`.
pub struct HistoryCtx<'a> {
    /// Dense snapshot timeline `0..t` (ground truth; empty snapshots for
    /// quiet timestamps).
    pub snapshots: &'a [Snapshot],
    /// The prediction timestamp.
    pub t: u32,
    /// Incremental `(s, r) → {o}` index over all facts before `t`
    /// (raw and inverse directions).
    pub global: &'a GlobalHistoryIndex,
    /// Entity vocabulary size.
    pub num_entities: usize,
    /// Raw relation vocabulary size.
    pub num_relations: usize,
}

/// A model that can score object queries given history.
pub trait ExtrapolationModel {
    /// Display name (used in result tables).
    fn name(&self) -> String;

    /// Scores all entities for each `(s, r)` query at `ctx.t`:
    /// returns `[queries.len(), num_entities]`.
    fn score(&self, ctx: &HistoryCtx<'_>, queries: &[(u32, u32)]) -> NdArray;
}

impl<T: ExtrapolationModel + ?Sized> ExtrapolationModel for &T {
    fn name(&self) -> String {
        (**self).name()
    }
    fn score(&self, ctx: &HistoryCtx<'_>, queries: &[(u32, u32)]) -> NdArray {
        (**self).score(ctx, queries)
    }
}

impl<T: ExtrapolationModel + ?Sized> ExtrapolationModel for Box<T> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn score(&self, ctx: &HistoryCtx<'_>, queries: &[(u32, u32)]) -> NdArray {
        (**self).score(ctx, queries)
    }
}

/// Which portion of a dataset to evaluate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Split {
    /// Validation snapshots, with train history.
    Valid,
    /// Test snapshots, with train + valid history.
    Test,
}

/// Evaluation result with the paper's four metrics (×100).
#[derive(Clone, Debug)]
pub struct EvalResult {
    /// Model name.
    pub model: String,
    /// Mean reciprocal rank ×100.
    pub mrr: f64,
    /// Hits@1 / @3 / @10 ×100.
    pub hits: [f64; 3],
    /// Number of ranked queries (raw + inverse).
    pub queries: usize,
}

impl EvalResult {
    fn from_metrics(model: String, m: &RankMetrics) -> Self {
        Self { model, mrr: m.mrr(), hits: m.hits_at(), queries: m.count }
    }

    /// `MRR  H@1  H@3  H@10` as a tab-aligned row.
    pub fn row(&self) -> String {
        format!(
            "{:<22} {:>7.2} {:>7.2} {:>7.2} {:>7.2}",
            self.model, self.mrr, self.hits[0], self.hits[1], self.hits[2]
        )
    }
}

/// Builds the time filter over the whole dataset, raw and inverse
/// directions.
pub fn build_filter(data: &DatasetSplits) -> TimeFilter {
    let nr = data.num_relations() as u32;
    let mut all = data.all_quads();
    let inverses: Vec<Quad> = all.iter().map(|q| q.inverse(nr)).collect();
    all.extend(inverses);
    TimeFilter::from_quads(all.iter())
}

/// The events `split` evaluates, in chronological order.
pub(crate) fn split_quads(data: &DatasetSplits, split: Split) -> &[Quad] {
    match split {
        Split::Valid => &data.valid.quads,
        Split::Test => &data.test.quads,
    }
}

/// The ground-truth timeline an evaluation walks: every event before the
/// evaluated split as dense snapshots that also cover the split's own
/// timestamps, and each evaluated step's ground truth joined once it is
/// ranked. The history is built as [`ScoreCtx`] builds a served timeline
/// (sorted, deduplicated snapshots, as in training), so a split that
/// repeats a quad is evaluated on the edges the model was trained and is
/// served on. An evaluator that reads the global history builds it with
/// [`EvalTimeline::index`] and grows it with each joined snapshot;
/// [`evaluate_relations`] reads none and builds none.
pub(crate) struct EvalTimeline {
    /// Dense snapshots `0..=` the split's last timestamp.
    pub(crate) snapshots: Vec<Snapshot>,
    num_relations: usize,
}

impl EvalTimeline {
    /// The history `split` is evaluated on: train, plus valid for the
    /// test split.
    pub(crate) fn new(data: &DatasetSplits, split: Split) -> EvalTimeline {
        let mut history = data.train.quads.clone();
        if split == Split::Test {
            history.extend_from_slice(&data.valid.quads);
        }
        let tkg = hisres_graph::Tkg::new(data.num_entities(), data.num_relations(), history);
        let mut snapshots = hisres_graph::snapshot::partition(&tkg);
        let end = split_quads(data, split).iter().map(|q| q.t + 1).max().unwrap_or(0);
        snapshots.extend((snapshots.len() as u32..end).map(|t| Snapshot { t, triples: Vec::new() }));
        EvalTimeline { snapshots, num_relations: data.num_relations() }
    }

    /// The `(s, r) → {o}` index over every snapshot joined so far, raw and
    /// inverse, as [`ScoreCtx::from_quads`] builds it.
    pub(crate) fn index(&self) -> GlobalHistoryIndex {
        let mut global = GlobalHistoryIndex::new();
        for snap in &self.snapshots {
            global.add_snapshot(snap, self.num_relations);
        }
        global
    }

    /// Joins the ground truth `batch` of step `t` to the history and
    /// returns the joined snapshot, for a caller's index to add.
    pub(crate) fn join(&mut self, t: u32, batch: &[Quad]) -> &Snapshot {
        let snap = &mut self.snapshots[t as usize];
        snap.triples.extend(batch.iter().map(|q| (q.s, q.r, q.o)));
        snap.triples.sort_unstable();
        snap.triples.dedup();
        snap
    }
}

/// Runs the time-aware filtered evaluation of `model` on `split`.
pub fn evaluate(model: &impl ExtrapolationModel, data: &DatasetSplits, split: Split) -> EvalResult {
    let nr = data.num_relations() as u32;
    let filter = build_filter(data);
    let mut timeline = EvalTimeline::new(data, split);
    let mut global = timeline.index();
    let mut metrics = RankMetrics::default();
    // one step per timestamp, ascending (quads are sorted)
    for batch in split_quads(data, split).chunk_by(|a, b| a.t == b.t) {
        let t = batch[0].t;

        // raw + inverse query lists
        let mut queries: Vec<(u32, u32)> = Vec::with_capacity(batch.len() * 2);
        let mut golds: Vec<Quad> = Vec::with_capacity(batch.len() * 2);
        for q in batch {
            queries.push((q.s, q.r));
            golds.push(*q);
            let inv = q.inverse(nr);
            queries.push((inv.s, inv.r));
            golds.push(inv);
        }

        let ctx = HistoryCtx {
            snapshots: &timeline.snapshots[..t as usize],
            t,
            global: &global,
            num_entities: data.num_entities(),
            num_relations: data.num_relations(),
        };
        let scores = model.score(&ctx, &queries);
        assert_eq!(
            scores.shape(),
            (queries.len(), data.num_entities()),
            "model returned wrong score shape"
        );
        // Ranking fans out across the worker pool: each query row is
        // ranked independently (pure reads of the score row and the
        // filter index), then the accumulator is filled serially in row
        // order — metrics are bit-identical for every thread count.
        let mut ranks = vec![0.0f64; golds.len()];
        pool::current().par_chunks_mut(&mut ranks, 1, RANK_ROWS_PER_TASK, |off, chunk| {
            for (i, r) in chunk.iter_mut().enumerate() {
                *r = filter.filtered_rank(scores.row(off + i), &golds[off + i]);
            }
        });
        for &rank in &ranks {
            metrics.push(rank);
        }
        global.add_snapshot(timeline.join(t, batch), data.num_relations());
    }
    EvalResult::from_metrics(model.name(), &metrics)
}

/// A prepared, owned scoring context at the end of a known timeline — the
/// entry point shared by `hisres predict` and the frozen serving path.
/// Building it once amortises the snapshot partitioning and global history
/// indexing across any number of queries; the model memoises the local
/// encoding of its last `history_len` snapshots (see [`score_at`]).
pub struct ScoreCtx {
    /// Dense snapshot timeline `0..t` (empty snapshots for quiet steps).
    pub snapshots: Vec<Snapshot>,
    /// `(s, r) → {o}` index over the whole timeline, raw and inverse.
    pub global: GlobalHistoryIndex,
    /// The prediction timestamp (one past the last known snapshot).
    pub t: u32,
    /// Entity vocabulary size.
    pub num_entities: usize,
    /// Raw relation vocabulary size.
    pub num_relations: usize,
}

impl ScoreCtx {
    /// Builds the context from every event of `data` (train ∪ valid ∪
    /// test): predictions are for the first unseen timestamp.
    pub fn at_end_of(data: &DatasetSplits) -> ScoreCtx {
        Self::from_quads(data.num_entities(), data.num_relations(), data.all_quads())
    }

    /// Builds the context from an explicit event list.
    pub fn from_quads(num_entities: usize, num_relations: usize, quads: Vec<Quad>) -> ScoreCtx {
        let tkg = hisres_graph::Tkg::new(num_entities, num_relations, quads);
        let snapshots = hisres_graph::snapshot::partition(&tkg);
        let t = snapshots.len() as u32;
        let mut global = GlobalHistoryIndex::new();
        for snap in &snapshots {
            global.add_snapshot(snap, num_relations);
        }
        ScoreCtx { snapshots, global, t, num_entities, num_relations }
    }

    /// Borrowed [`HistoryCtx`] view over this context.
    pub fn as_history(&self) -> HistoryCtx<'_> {
        HistoryCtx {
            snapshots: &self.snapshots,
            t: self.t,
            global: &self.global,
            num_entities: self.num_entities,
            num_relations: self.num_relations,
        }
    }

    /// The last `history_len` snapshots: the window the local encoder reads.
    pub fn window(&self, history_len: usize) -> &[Snapshot] {
        &self.snapshots[self.snapshots.len().saturating_sub(history_len)..]
    }
}

/// Scores all entities for each `(s, r)` query at the end of `ctx`'s
/// timeline with the full HisRES model. Returns
/// `[queries.len(), num_entities]`.
///
/// **Batched, yet per-query bit-identical**: every output row equals, to
/// the bit, what a solo `score_at(model, ctx, &[q])` call would produce.
/// The globally relevant graph `G_t^H` is built from the query pairs, so
/// naively encoding a multi-query batch in one pass would leak one
/// query's history into another's scores (that union-graph protocol is
/// what [`evaluate`] uses deliberately — there the batch *is* the test
/// snapshot). Here the query-independent local evolution comes from
/// [`HisRes::local_encoding`](crate::model::HisRes::local_encoding): it is
/// computed once per timeline and parameter version and reused by every
/// later call, while the cheap query-dependent global stage and decoder
/// run once per **distinct** `(s, r)` pair — duplicates are answered by
/// row replication. This is what lets the serving batcher coalesce
/// concurrent requests without changing any client-visible score.
pub fn score_at(model: &HisRes, ctx: &ScoreCtx, queries: &[(u32, u32)]) -> NdArray {
    let local = model.local_encoding(ctx.window(model.cfg.history_len), ctx.t);
    score_dense(model, &local, &ctx.global, queries)
}

/// Top-k entity predictions for each `(s, r)` query at the end of `ctx`'s
/// timeline — the short-circuit twin of [`score_at`], over the same
/// memoised local encoding.
///
/// Per row the result is bit-identical to taking [`score_at`]'s dense row,
/// sorting with the serving comparator (score descending, id ascending)
/// and truncating to `k`; a row is `None` exactly when the dense row
/// contains a non-finite score (the serving layer's degrade condition).
pub fn score_at_topk(
    model: &HisRes,
    ctx: &ScoreCtx,
    queries: &[(u32, u32)],
    k: usize,
) -> Vec<Option<Vec<(u32, f32)>>> {
    let local = model.local_encoding(ctx.window(model.cfg.history_len), ctx.t);
    score_topk(model, &local, &ctx.global, queries, k)
}

/// Query rows grouped by distinct `(s, r)` pair, in pair order: rows that
/// share a pair share one answer.
fn pair_groups(queries: &[(u32, u32)]) -> BTreeMap<(u32, u32), Vec<usize>> {
    let mut groups: BTreeMap<(u32, u32), Vec<usize>> = BTreeMap::new();
    for (i, &pair) in queries.iter().enumerate() {
        groups.entry(pair).or_default().push(i);
    }
    groups
}

/// One pair's globally relevant graph (empty when `use_global` is off).
fn pair_graph(model: &HisRes, global: &GlobalHistoryIndex, pair: (u32, u32)) -> EdgeList {
    if model.cfg.use_global {
        global.relevant_graph_pruned(&[pair], model.cfg.global_prune_topk.unwrap_or(usize::MAX))
    } else {
        EdgeList::new()
    }
}

/// The entity table each pair's decoder reads: eval-mode
/// [`HisRes::encode_global_with`] of the local encoding, to the bit,
/// without running the global stage over every entity. A pair whose graph
/// is empty reads the local encoding itself; any other pair reads one
/// reused copy of the edge-free base ([`HisRes::global_base`]) with the rows
/// its graph reaches ([`HisRes::global_rows`]) written in, and the rows the
/// previous pair wrote put back.
struct PairTables<'a> {
    model: &'a HisRes,
    local: &'a Encoded,
    table: Option<Encoded>,
    /// The rows the last pair wrote into `table`.
    nodes: Vec<u32>,
}

impl<'a> PairTables<'a> {
    fn new(model: &'a HisRes, local: &'a Encoded) -> Self {
        PairTables {
            model,
            local,
            table: None,
            nodes: Vec::new(),
        }
    }

    fn encode(&mut self, graph: EdgeList) -> &Encoded {
        if let Some(table) = &self.table {
            let base = self.model.global_base(self.local);
            let mut t = table.entities.value_mut();
            for n in self.nodes.drain(..) {
                t.row_mut(n as usize).copy_from_slice(base.row(n as usize));
            }
        }
        let Some(rows) = self.model.global_rows(self.local, graph, &mut self.nodes) else {
            return self.local;
        };
        let base = self.model.global_base(self.local);
        let table = self
            .table
            .get_or_insert_with(|| self.local.with_entities(base.clone()));
        let (rows, mut t) = (rows.value(), table.entities.value_mut());
        for (i, &n) in self.nodes.iter().enumerate() {
            t.row_mut(n as usize).copy_from_slice(rows.row(i));
        }
        drop(t);
        table
    }
}

/// The dense scoring core of [`score_at`] and
/// [`IngestSession::score`](crate::ingest::IngestSession::score): per
/// distinct pair, its relevant graph, the global stage over `local`
/// ([`PairTables`]), and the decoder. Each pair gets a fresh eval-mode rng,
/// as a solo call would.
pub(crate) fn score_dense(
    model: &HisRes,
    local: &Encoded,
    global: &GlobalHistoryIndex,
    queries: &[(u32, u32)],
) -> NdArray {
    let mut out = NdArray::zeros(queries.len(), model.num_entities());
    no_grad(|| {
        let mut tables = PairTables::new(model, local);
        for (pair, rows) in pair_groups(queries) {
            let mut rng = StdRng::seed_from_u64(0);
            let enc = tables.encode(pair_graph(model, global, pair));
            let scores = model.score_objects(enc, &[pair], false, &mut rng).value_clone();
            for i in rows {
                out.row_mut(i).copy_from_slice(scores.row(0));
            }
        }
    });
    out
}

/// The top-k scoring core of [`score_at_topk`] and
/// [`IngestSession::score_topk`](crate::ingest::IngestSession::score_topk).
/// Pairs whose relevant graph is empty (always, when `use_global` is off)
/// share the local entity table, so its
/// [`BlockNorms`](crate::topk::BlockNorms) are computed once and prune
/// every such pair's scan; a pair with its own globally-augmented table is
/// scored without norms, which would cost as much as the one dense row
/// they could save.
pub(crate) fn score_topk(
    model: &HisRes,
    local: &Encoded,
    global: &GlobalHistoryIndex,
    queries: &[(u32, u32)],
    k: usize,
) -> Vec<Option<Vec<(u32, f32)>>> {
    let mut out: Vec<Option<Vec<(u32, f32)>>> = vec![None; queries.len()]; // lint:allow(no-hot-alloc-reachable): per-batch result buffer, one slot per query in the request
    no_grad(|| {
        let mut tables = PairTables::new(model, local);
        let mut local_norms: Option<BlockNorms> = None;
        for (pair, rows) in pair_groups(queries) {
            let g_edges = pair_graph(model, global, pair);
            let preds = if g_edges.is_empty() {
                let norms = local_norms.get_or_insert_with(|| model.entity_block_norms(local));
                model.score_objects_topk(local, &[pair], k, Some(norms))
            } else {
                model.score_objects_topk(tables.encode(g_edges), &[pair], k, None)
            };
            let row = preds.into_iter().next().flatten();
            for i in rows {
                out[i] = row.clone();
            }
        }
    });
    out
}

/// Evaluates the *relation prediction* task of the joint objective
/// (eq. 15): for each test event, rank all `2R` relations (raw + inverse)
/// given the entity pair `(s, o)`, time-filtered against other true
/// relations of the same pair at the same timestamp.
///
/// This task is HisRES-specific (the generic [`ExtrapolationModel`]
/// protocol covers entity queries only), so it takes the model directly.
///
/// The encoding runs over an empty global graph. `G_t^H` is built from
/// the `(s, r)` query pairs of a timestamp, and a relation query
/// `(s, ?, o)` has no `r` to build it from. Training builds that graph from
/// the target snapshot's true pairs, which a relation query must not see.
pub fn evaluate_relations(model: &HisRes, data: &DatasetSplits, split: Split) -> EvalResult {
    let nr = data.num_relations() as u32;
    // relation-side time filter: reuse TimeFilter by recoding each event
    // as (subject = s, "relation" = o, "object" = rel id)
    let recoded: Vec<Quad> = data
        .all_quads()
        .iter()
        .flat_map(|q| {
            [
                Quad::new(q.s, q.o, q.r, q.t),
                Quad::new(q.o, q.s, q.r + nr, q.t),
            ]
        })
        .collect();
    let filter = TimeFilter::from_quads(recoded.iter());
    let mut timeline = EvalTimeline::new(data, split);
    let mut metrics = RankMetrics::default();
    let mut rng = StdRng::seed_from_u64(0);
    for batch in split_quads(data, split).chunk_by(|a, b| a.t == b.t) {
        let t = batch[0].t;
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(batch.len() * 2);
        let mut golds: Vec<Quad> = Vec::with_capacity(batch.len() * 2);
        for q in batch {
            pairs.push((q.s, q.o));
            golds.push(Quad::new(q.s, q.o, q.r, q.t));
            pairs.push((q.o, q.s));
            golds.push(Quad::new(q.o, q.s, q.r + nr, q.t));
        }
        let l = model.cfg.history_len;
        let hist_slice = &timeline.snapshots[..t as usize];
        let start = hist_slice.len().saturating_sub(l);
        let scores = hisres_tensor::no_grad(|| {
            let enc = model.encode(&hist_slice[start..], t, &EdgeList::new(), false, &mut rng);
            model
                .score_relations(&enc, &pairs, false, &mut rng)
                .value_clone()
        });
        // Same parallel rank fan-out as `evaluate` (see there for the
        // determinism argument).
        let mut ranks = vec![0.0f64; golds.len()];
        pool::current().par_chunks_mut(&mut ranks, 1, RANK_ROWS_PER_TASK, |off, chunk| {
            for (i, r) in chunk.iter_mut().enumerate() {
                *r = filter.filtered_rank(scores.row(off + i), &golds[off + i]);
            }
        });
        for &rank in &ranks {
            metrics.push(rank);
        }
        timeline.join(t, batch);
    }
    EvalResult::from_metrics("HisRES (relations)".into(), &metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hisres_data::datasets::DatasetSplits;
    use hisres_graph::Tkg;

    /// A deterministic oracle that always scores the gold object highest
    /// by cheating: it looks the answer up in its own copy of the data.
    struct Oracle {
        answers: std::collections::HashMap<(u32, u32, u32), u32>,
        n: usize,
    }

    impl ExtrapolationModel for Oracle {
        fn name(&self) -> String {
            "oracle".into()
        }
        fn score(&self, ctx: &HistoryCtx<'_>, queries: &[(u32, u32)]) -> NdArray {
            let mut out = NdArray::zeros(queries.len(), self.n);
            for (i, &(s, r)) in queries.iter().enumerate() {
                if let Some(&o) = self.answers.get(&(s, r, ctx.t)) {
                    out.set(i, o as usize, 1.0);
                }
            }
            out
        }
    }

    /// Uniform scorer: every entity ties.
    struct Uniform {
        n: usize,
    }

    impl ExtrapolationModel for Uniform {
        fn name(&self) -> String {
            "uniform".into()
        }
        fn score(&self, _ctx: &HistoryCtx<'_>, queries: &[(u32, u32)]) -> NdArray {
            NdArray::zeros(queries.len(), self.n)
        }
    }

    fn tiny_data() -> DatasetSplits {
        // 10 timestamps, one event each; entities 0..5, relation 0
        let quads: Vec<Quad> = (0..10)
            .map(|t| Quad::new(t % 5, 0, (t + 1) % 5, t))
            .collect();
        let tkg = Tkg::new(5, 1, quads);
        DatasetSplits::from_tkg("tiny", "1 step", &tkg)
    }

    #[test]
    fn oracle_achieves_perfect_mrr() {
        let data = tiny_data();
        let nr = data.num_relations() as u32;
        let mut answers = std::collections::HashMap::new();
        for q in data.all_quads() {
            answers.insert((q.s, q.r, q.t), q.o);
            let inv = q.inverse(nr);
            answers.insert((inv.s, inv.r, inv.t), inv.o);
        }
        let m = Oracle { answers, n: data.num_entities() };
        let res = evaluate(&m, &data, Split::Test);
        assert!(res.queries > 0);
        assert!((res.mrr - 100.0).abs() < 1e-9, "mrr {}", res.mrr);
        assert!((res.hits[0] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn uniform_scorer_gets_midpoint_ranks() {
        let data = tiny_data();
        let m = Uniform { n: data.num_entities() };
        let res = evaluate(&m, &data, Split::Test);
        // with 5 entities and one true answer, expected rank = (1+5)/2 = 3
        assert!(res.mrr < 50.0);
        assert!(res.mrr > 20.0);
    }

    #[test]
    fn valid_split_uses_train_history_only() {
        let data = tiny_data();
        let m = Uniform { n: data.num_entities() };
        let res = evaluate(&m, &data, Split::Valid);
        assert_eq!(res.queries, data.valid.len() * 2);
    }

    #[test]
    fn repeated_quad_is_evaluated_on_the_deduplicated_timeline() {
        use crate::config::HisResConfig;
        use crate::multistep::evaluate_multistep;
        use crate::trainer::HisResEval;
        use hisres_data::synthetic::{generate, SyntheticConfig};
        let cfg = SyntheticConfig {
            num_entities: 16,
            num_relations: 3,
            num_timestamps: 20,
            seed: 5,
            ..Default::default()
        };
        let data = DatasetSplits::from_tkg("tiny", "1 step", &generate(&cfg).tkg);
        // the same event recorded twice at the last train timestamp:
        // training and serving partition it away, so must evaluation
        let mut repeated = data.clone();
        let last = *repeated.train.quads.last().unwrap();
        repeated.train.quads.push(last);
        let model = HisRes::new(
            &HisResConfig { dim: 8, conv_channels: 2, history_len: 3, ..Default::default() },
            16,
            3,
        );
        let eval = HisResEval { model: &model };
        for split in [Split::Valid, Split::Test] {
            let mrr_bits = |d: &DatasetSplits| {
                let mut bits = vec![
                    evaluate(&eval, d, split).mrr.to_bits(),
                    evaluate_relations(&model, d, split).mrr.to_bits(),
                ];
                bits.extend(evaluate_multistep(&eval, d, split, 2).iter().map(|r| r.mrr.to_bits()));
                bits
            };
            assert_eq!(mrr_bits(&repeated), mrr_bits(&data), "{split:?}: a repeated quad moved MRR");
        }
    }

    #[test]
    fn result_row_formats() {
        let data = tiny_data();
        let m = Uniform { n: data.num_entities() };
        let res = evaluate(&m, &data, Split::Test);
        let row = res.row();
        assert!(row.starts_with("uniform"));
        assert_eq!(row.split_whitespace().count(), 5);
    }
}
