//! Exactness of the memoised local encoding. The frozen scorers
//! (`score_at`, `score_at_topk`) reuse the model's last local encoding and
//! an `IngestSession` reuses its live one; every answer served that way
//! must equal, to the bit, an uncached recompute — across repeated calls,
//! parameter changes (optimiser step, `load_json`, `import_flat`), a moved
//! prediction time, changed snapshot contents, a changed configuration,
//! live ingests and a reopen
//! from the WAL. Both references are uncached and dense: they recompute
//! the local encoding (from the window, or from the session state), then
//! score each query on its own through `encode_global_with`, which runs
//! the global stage over every entity. So they also pin the served path's
//! sparse global stage, which recomputes only the rows a pair's relevant
//! graph reaches over a memoised edge-free base, to the dense one — for
//! every aggregator, gating choice, depth and pruning setting.

use hisres::config::{GlobalAggregator, HisResConfig};
use hisres::eval::{score_at, score_at_topk, ScoreCtx};
use hisres::ingest::{IngestSession, IngestSessionConfig};
use hisres::model::{Encoded, HisRes};
use hisres::topk::top_k;
use hisres_data::synthetic::{generate, SyntheticConfig};
use hisres_data::DatasetSplits;
use hisres_graph::{EdgeList, GlobalHistoryIndex, Quad, Snapshot};
use hisres_tensor::{no_grad, Adam, NdArray};
use hisres_util::rng::rngs::StdRng;
use hisres_util::rng::SeedableRng;
use std::path::PathBuf;

const NUM_ENTITIES: usize = 16;
const NUM_RELATIONS: usize = 3;
const K: usize = 5;
const QUERIES: [(u32, u32); 5] = [(0, 0), (3, 1), (7, 4), (3, 1), (15, 5)];

type TopkBits = Vec<Option<Vec<(u32, u32)>>>;

fn data() -> DatasetSplits {
    let cfg = SyntheticConfig {
        num_entities: NUM_ENTITIES,
        num_relations: NUM_RELATIONS,
        num_timestamps: 12,
        periodic_patterns: 6,
        period_range: (2, 4),
        causal_rules: 1,
        trigger_events_per_t: 2,
        recency_draws_per_t: 2,
        noise_events_per_t: 1,
        seed: 29,
        ..Default::default()
    };
    DatasetSplits::from_tkg("memo-props-syn", "1 step", &generate(&cfg).tkg)
}

fn ctx() -> ScoreCtx {
    ScoreCtx::at_end_of(&data())
}

fn model() -> HisRes {
    let cfg = HisResConfig { dim: 8, conv_channels: 2, history_len: 3, ..Default::default() };
    HisRes::new(&cfg, NUM_ENTITIES, NUM_RELATIONS)
}

fn dense_bits(scores: &NdArray) -> Vec<u32> {
    scores.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn topk_bits(rows: &[Option<Vec<(u32, f32)>>]) -> TopkBits {
    rows.iter()
        .map(|row| row.as_ref().map(|r| r.iter().map(|&(e, s)| (e, s.to_bits())).collect()))
        .collect()
}

/// Frozen answers of `model` over `ctx`, dense and top-k.
fn frozen(model: &HisRes, ctx: &ScoreCtx, queries: &[(u32, u32)]) -> (Vec<u32>, TopkBits) {
    (
        dense_bits(&score_at(model, ctx, queries)),
        topk_bits(&score_at_topk(model, ctx, queries, K)),
    )
}

/// Uncached dense answers over `local`: per query its relevant graph, the
/// dense global stage and the decoder, with top-k as the ranked dense row.
fn dense_reference(
    model: &HisRes,
    local: &Encoded,
    global: &GlobalHistoryIndex,
    queries: &[(u32, u32)],
) -> (Vec<u32>, TopkBits) {
    let prune = model.cfg.global_prune_topk.unwrap_or(usize::MAX);
    let mut dense = Vec::new();
    let mut topk = Vec::new();
    for &pair in queries {
        let mut rng = StdRng::seed_from_u64(0);
        let graph = global.relevant_graph_pruned(&[pair], prune);
        let row = no_grad(|| {
            let enc = model.encode_global_with(local, &graph, false, &mut rng);
            model
                .score_objects(&enc, &[pair], false, &mut rng)
                .value_clone()
        });
        dense.extend(dense_bits(&row));
        topk.push(Some(top_k(row.row(0), K)));
    }
    (dense, topk_bits(&topk))
}

/// Uncached dense answers of `model` over `ctx`: the window's local
/// encoding recomputed (no memo), then [`dense_reference`].
fn uncached_frozen(model: &HisRes, ctx: &ScoreCtx, queries: &[(u32, u32)]) -> (Vec<u32>, TopkBits) {
    let mut rng = StdRng::seed_from_u64(0);
    let window = ctx.window(model.cfg.history_len);
    let local = no_grad(|| model.encode_local(window, ctx.t, false, &mut rng));
    dense_reference(model, &local, &ctx.global, queries)
}

/// Asserts `model`'s (memoised, sparse) answers to `queries` equal the
/// uncached dense ones, and returns them.
fn assert_queries_exact(
    model: &HisRes,
    ctx: &ScoreCtx,
    queries: &[(u32, u32)],
    what: &str,
) -> (Vec<u32>, TopkBits) {
    let got = frozen(model, ctx, queries);
    let want = uncached_frozen(model, ctx, queries);
    assert!(
        got.0 == want.0,
        "{what}: dense scores differ from an uncached dense recompute"
    );
    assert!(
        got.1 == want.1,
        "{what}: top-k differs from an uncached dense recompute"
    );
    got
}

fn assert_frozen_exact(model: &HisRes, ctx: &ScoreCtx, what: &str) -> (Vec<u32>, TopkBits) {
    assert_queries_exact(model, ctx, &QUERIES, what)
}

#[test]
fn repeated_calls_equal_an_uncached_recompute() {
    let (model, ctx) = (model(), ctx());
    let first = assert_frozen_exact(&model, &ctx, "first call");
    for round in 0..3 {
        assert!(
            frozen(&model, &ctx, &QUERIES) == first,
            "repeat {round} changed the answers"
        );
    }
    // a different query mix over the same timeline reuses the encoding too
    assert_queries_exact(&model, &ctx, &[(1, 2), (9, 0)], "another query mix");
}

#[test]
fn parameter_changes_invalidate_the_memo() {
    let (model, ctx) = (model(), ctx());
    let data = data();
    let mut before = assert_frozen_exact(&model, &ctx, "initial");

    // an optimiser step on the joint loss
    let history = ctx.window(model.cfg.history_len);
    let target = &data.test.quads;
    let triples: Vec<(u32, u32, u32)> = target.iter().map(|q| (q.s, q.r, q.o)).collect();
    let mut rng = StdRng::seed_from_u64(3);
    model.loss_at(history, ctx.t, &triples, &EdgeList::new(), &mut rng).backward();
    Adam::new(model.store.params().cloned().collect(), 0.05).step();
    let after = assert_frozen_exact(&model, &ctx, "after Adam::step");
    assert!(after != before, "the optimiser step did not move the answers");
    before = after;

    // parameters of a differently seeded model, through load_json
    let cfg = HisResConfig { seed: 7, ..model.cfg.clone() };
    let other = HisRes::new(&cfg, NUM_ENTITIES, NUM_RELATIONS);
    model.store.load_json(&other.store.to_json()).unwrap();
    let after = assert_frozen_exact(&model, &ctx, "after load_json");
    assert!(after != before, "load_json did not move the answers");
    before = after;

    // halved parameters, through import_flat
    let halved: Vec<f32> = model.store.export_flat().iter().map(|v| v * 0.5).collect();
    model.store.import_flat(&halved).unwrap();
    let after = assert_frozen_exact(&model, &ctx, "after import_flat");
    assert!(after != before, "import_flat did not move the answers");
}

#[test]
fn timeline_changes_invalidate_the_memo() {
    let (model, mut ctx) = (model(), ctx());
    let before = assert_frozen_exact(&model, &ctx, "initial");

    // the same window asked for a later prediction time: new time gaps
    ctx.t += 2;
    let later = assert_frozen_exact(&model, &ctx, "moved prediction time");
    assert!(later != before, "moving the prediction time did not move the answers");
    ctx.t -= 2;
    assert!(assert_frozen_exact(&model, &ctx, "restored time") == before);

    // the same window length and times, one more event in its last snapshot
    let last = ctx.snapshots.last_mut().unwrap();
    let extra = (0u32, 0u32, 1u32);
    assert!(!last.triples.contains(&extra));
    last.triples.push(extra);
    let edited = assert_frozen_exact(&model, &ctx, "changed snapshot contents");
    assert!(edited != before, "editing the window did not move the answers");
}

#[test]
fn config_changes_invalidate_the_memo() {
    let (mut model, ctx) = (model(), ctx());
    let before = assert_frozen_exact(&model, &ctx, "initial");
    model.cfg.use_inter_snapshot = false;
    let after = assert_frozen_exact(&model, &ctx, "without the inter-snapshot branch");
    assert!(after != before, "dropping the inter-snapshot branch did not move the answers");
}

fn wal(tag: &str) -> IngestSessionConfig {
    let path: PathBuf =
        std::env::temp_dir().join(format!("hisres_memo_{tag}_{}.wal", std::process::id()));
    let cfg = IngestSessionConfig { snapshot_every: 2, ..IngestSessionConfig::new(path) };
    cleanup(&cfg);
    cfg
}

fn cleanup(cfg: &IngestSessionConfig) {
    std::fs::remove_file(&cfg.wal_path).ok();
    std::fs::remove_file(&cfg.state_path).ok();
}

fn batch(i: u32) -> Vec<(u32, u32, u32)> {
    let (ne, nr) = (NUM_ENTITIES as u32, NUM_RELATIONS as u32);
    vec![(i % ne, i % nr, (3 * i + 1) % ne), ((i + 5) % ne, (i + 1) % nr, i % ne)]
}

/// Live answers of `session`, dense and top-k.
fn live(session: &IngestSession) -> (Vec<u32>, TopkBits) {
    (dense_bits(&session.score(&QUERIES)), topk_bits(&session.score_topk(&QUERIES, K)))
}

/// Uncached answers for the live state of `session`: its local encoding
/// recomputed from the state, then [`dense_reference`]. `global` mirrors
/// the session's relevance index.
fn uncached_live(session: &IngestSession, global: &GlobalHistoryIndex) -> (Vec<u32>, TopkBits) {
    let model = session.model();
    dense_reference(
        model,
        &model.state_local_encoding(session.state()),
        global,
        &QUERIES,
    )
}

/// Ingests batch `i` into `session` and mirrors it into `global`.
fn ingest(session: &mut IngestSession, global: &mut GlobalHistoryIndex, i: u32) {
    let t = session.frontier_t();
    session.ingest(u64::from(i) + 1, None, &batch(i)).unwrap();
    global.add_snapshot(&Snapshot { t, triples: batch(i) }, NUM_RELATIONS);
}

#[test]
fn live_memo_tracks_ingests_and_parameters() {
    let cfg = wal("live");
    let mut global = ctx().global;
    let mut s = IngestSession::open(model(), ctx(), cfg.clone()).unwrap();
    let mut before = live(&s);
    assert!(before == uncached_live(&s, &global), "before any ingest");
    for i in 0..4u32 {
        ingest(&mut s, &mut global, i);
        let got = live(&s);
        assert!(got == live(&s), "repeat after ingest {i} changed the answers");
        assert!(got == uncached_live(&s, &global), "after ingest {i}");
        assert!(got != before, "ingest {i} did not move the answers");
        before = got;
    }
    // a duplicate is a no-op and keeps serving the same encoding
    s.ingest(4, None, &batch(3)).unwrap();
    assert!(live(&s) == before);

    let halved: Vec<f32> = s.model().store.export_flat().iter().map(|v| v * 0.5).collect();
    s.model().store.import_flat(&halved).unwrap();
    let got = live(&s);
    assert!(got != before, "import_flat did not move the live answers");
    assert!(got == uncached_live(&s, &global), "after import_flat");
    drop(s);
    cleanup(&cfg);
}

#[test]
fn reopened_session_serves_what_the_uninterrupted_one_did() {
    let cfg = wal("reopen");
    let mut global = ctx().global;
    let mut s = IngestSession::open(model(), ctx(), cfg.clone()).unwrap();
    for i in 0..3u32 {
        ingest(&mut s, &mut global, i);
        live(&s); // fill the memo between ingests
    }
    let served = live(&s);
    drop(s);
    let mut s = IngestSession::open(model(), ctx(), cfg.clone()).unwrap();
    assert_eq!(s.applied_seq(), 3);
    assert!(live(&s) == served, "the reopened session answers differently");
    assert!(served == uncached_live(&s, &global), "after the reopen");
    ingest(&mut s, &mut global, 3);
    assert!(live(&s) == uncached_live(&s, &global), "after ingesting past the reopen");
    drop(s);
    cleanup(&cfg);
}

/// A timeline whose relevant graphs cover the sparse stage's edge cases:
/// pair (2, 0) has a self-loop (its subject is also a destination) and a
/// second object, (4, 1) has three objects that (5, 2) and (9, 0) point
/// back into, (8, 4) asks an inverse relation, and (13, 0) has no history
/// (an empty graph, answered from the local encoding).
fn sparse_ctx() -> ScoreCtx {
    let quads = vec![
        Quad::new(2, 0, 2, 0),
        Quad::new(4, 1, 5, 0),
        Quad::new(5, 2, 4, 1),
        Quad::new(4, 1, 6, 1),
        Quad::new(9, 0, 2, 2),
        Quad::new(4, 1, 7, 2),
        Quad::new(3, 1, 8, 3),
        Quad::new(2, 0, 11, 3),
    ];
    ScoreCtx::from_quads(NUM_ENTITIES, NUM_RELATIONS, quads)
}

const SPARSE_QUERIES: [(u32, u32); 7] = [(2, 0), (4, 1), (5, 2), (9, 0), (4, 1), (13, 0), (8, 4)];

#[test]
fn sparse_global_stage_equals_the_dense_one() {
    let ctx = sparse_ctx();
    for aggregator in [
        GlobalAggregator::ConvGat,
        GlobalAggregator::CompGcn,
        GlobalAggregator::Rgat,
    ] {
        for gated in [true, false] {
            for layers in 1..=3 {
                for prune in [None, Some(1)] {
                    let cfg = HisResConfig {
                        dim: 8,
                        conv_channels: 2,
                        history_len: 3,
                        gnn_layers: layers,
                        global_aggregator: aggregator,
                        use_self_gating_global: gated,
                        global_prune_topk: prune,
                        ..Default::default()
                    };
                    let model = HisRes::new(&cfg, NUM_ENTITIES, NUM_RELATIONS);
                    let what =
                        format!("{aggregator:?} gated={gated} layers={layers} prune={prune:?}");
                    let before = assert_queries_exact(&model, &ctx, &SPARSE_QUERIES, &what);
                    assert!(
                        frozen(&model, &ctx, &SPARSE_QUERIES) == before,
                        "{what}: a second call over the built base changed the answers"
                    );
                    // new parameters must rebuild the base with the local encoding
                    let halved: Vec<f32> =
                        model.store.export_flat().iter().map(|v| v * 0.5).collect();
                    model.store.import_flat(&halved).unwrap();
                    let after = assert_queries_exact(
                        &model,
                        &ctx,
                        &SPARSE_QUERIES,
                        &format!("{what} after import_flat"),
                    );
                    assert!(
                        after != before,
                        "{what}: import_flat did not move the answers"
                    );
                }
            }
        }
    }
}
