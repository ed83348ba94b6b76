//! `train_eval`: `train_with` on a fresh model for a fixed number of
//! epochs (patience 0: no early stop), then `evaluate` on the test split.

use crate::check;
use crate::inputs;
use crate::stats::{cpu_s, median};
use crate::trace::{self, span};
use crate::Outcome;
use crate::ALLOC;
use hisres::eval::{build_filter, evaluate, ExtrapolationModel, HistoryCtx, Split};
use hisres::trainer::{
    query_pairs, snapshots_of, train_with, HisResEval, TrainOptions, TrainReport,
};
use hisres::HisRes;
use hisres_data::loader::load_dir;
use hisres_data::DatasetSplits;
use hisres_graph::{EdgeList, GlobalHistoryIndex, Quad, Snapshot};
use hisres_tensor::{clip_grad_norm, Adam};
use hisres_util::fsio::atomic_write;
use hisres_util::rng::rngs::StdRng;
use hisres_util::rng::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Cold set-ups timed per round, besides the one that builds its model,
/// taken between training and evaluation so the samples fall at two
/// moments of every round.
const EXTRA_SETUPS: usize = 2;

/// Writes the dataset as `train/valid/test/stat.txt`, as `hisres
/// generate` does (untimed), and checks that it loads back unchanged.
fn write_dataset(dir: &Path) -> Result<(), String> {
    let data = inputs::dataset();
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let dump = |quads: &[Quad]| -> String {
        quads
            .iter()
            .map(|q| format!("{}\t{}\t{}\t{}\n", q.s, q.r, q.o, q.t))
            .collect()
    };
    let stat = format!("{} {}\n", data.num_entities(), data.num_relations());
    for (name, text) in [
        ("train.txt", dump(&data.train.quads)),
        ("valid.txt", dump(&data.valid.quads)),
        ("test.txt", dump(&data.test.quads)),
        ("stat.txt", stat),
    ] {
        atomic_write(dir.join(name), text.as_bytes()).map_err(|e| format!("{name}: {e}"))?;
    }
    let (loaded, _, _) = setup(dir)?;
    if loaded.all_quads() != data.all_quads() {
        return Err("the dataset does not load back unchanged".into());
    }
    Ok(())
}

/// One cold set-up, as `hisres train --data` pays it: the dataset loaded
/// from its files, then model construction.
fn setup(dir: &Path) -> Result<(DatasetSplits, HisRes, f64), String> {
    let c0 = cpu_s();
    let data = load_dir(dir, "icews14s-syn", 1).map_err(|e| e.to_string())?;
    let model = HisRes::new(
        &inputs::model_config(),
        data.num_entities(),
        data.num_relations(),
    );
    Ok((data, model, cpu_s() - c0))
}

/// Optimizer steps one epoch makes: one per non-empty snapshot after
/// the first timestamp.
fn steps_per_epoch(data: &DatasetSplits) -> u64 {
    snapshots_of(&data.train)
        .iter()
        .skip(1)
        .filter(|s| !s.triples.is_empty())
        .count() as u64
}

/// One timed round.
struct Round {
    model: HisRes,
    report: TrainReport,
    mrr: f64,
    train_s: f64,
    eval_s: f64,
    allocs: u64,
}

/// `train_with`, then [`EXTRA_SETUPS`] cold set-ups (outside the round's
/// timing) into `setups`, then `evaluate`.
fn round(
    dir: &Path,
    data: &DatasetSplits,
    model: HisRes,
    setups: &mut Vec<f64>,
) -> Result<Round, String> {
    let tc = inputs::train_config(inputs::TRAIN_EPOCHS);
    let a0 = ALLOC.allocations();
    let c0 = cpu_s();
    let report =
        train_with(&model, data, &tc, &TrainOptions::default()).map_err(|e| e.to_string())?;
    let train_s = cpu_s() - c0;
    let allocs = ALLOC.allocations() - a0;
    for _ in 0..EXTRA_SETUPS {
        setups.push(setup(dir)?.2);
    }
    let a1 = ALLOC.allocations();
    let c1 = cpu_s();
    let res = evaluate(&HisResEval { model: &model }, data, Split::Test);
    let eval_s = cpu_s() - c1;
    let allocs = allocs + ALLOC.allocations() - a1;
    Ok(Round {
        model,
        report,
        mrr: res.mrr,
        train_s,
        eval_s,
        allocs,
    })
}

/// Checks a round's report: every epoch ran, every loss is finite.
fn check_report(r: &TrainReport) -> Result<(), String> {
    if r.epochs_run != inputs::TRAIN_EPOCHS || r.epoch_losses.len() != inputs::TRAIN_EPOCHS {
        return Err(format!(
            "epochs_run {} of {}",
            r.epochs_run,
            inputs::TRAIN_EPOCHS
        ));
    }
    if !r.epoch_losses.iter().all(|l| l.is_finite()) {
        return Err(format!("non-finite epoch loss {:?}", r.epoch_losses));
    }
    Ok(())
}

/// Raw and inverse test queries per timestamp, with the time filter's
/// true objects, built by the benchmark from the dataset's events.
fn truth(data: &DatasetSplits) -> BTreeMap<(u32, u32, u32), BTreeSet<u32>> {
    let nr = data.num_relations() as u32;
    let mut t: BTreeMap<(u32, u32, u32), BTreeSet<u32>> = BTreeMap::new();
    for q in data.all_quads() {
        t.entry((q.s, q.r, q.t)).or_default().insert(q.o);
        t.entry((q.o, q.r + nr, q.t)).or_default().insert(q.s);
    }
    t
}

/// Replays the evaluation protocol — dense rows from the model, history
/// growing by each evaluated snapshot — and ranks with `rank`, returning
/// the MRR (×100).
fn replay_eval(
    model: &HisRes,
    data: &DatasetSplits,
    mut rank: impl FnMut(&[f32], &Quad) -> f64,
) -> f64 {
    let nr = data.num_relations() as u32;
    let test = &data.test.quads;
    let max_t = test.iter().map(|q| q.t).max().unwrap_or(0);
    let mut snaps: Vec<Snapshot> = (0..=max_t)
        .map(|t| Snapshot {
            t,
            triples: Vec::new(),
        })
        .collect();
    for q in data.train.quads.iter().chain(&data.valid.quads) {
        snaps[q.t as usize].triples.push((q.s, q.r, q.o));
    }
    let mut global = GlobalHistoryIndex::new();
    for s in &snaps {
        if !s.triples.is_empty() {
            global.add_snapshot(s, data.num_relations());
        }
    }
    let scorer = HisResEval { model };
    let (mut rr, mut n) = (0.0, 0usize);
    let mut i = 0;
    while i < test.len() {
        let t = test[i].t;
        let j = i + test[i..].iter().take_while(|q| q.t == t).count();
        let batch = &test[i..j];
        let mut queries = Vec::with_capacity(batch.len() * 2);
        let mut golds = Vec::with_capacity(batch.len() * 2);
        for q in batch {
            queries.push((q.s, q.r));
            golds.push(*q);
            let inv = q.inverse(nr);
            queries.push((inv.s, inv.r));
            golds.push(inv);
        }
        let ctx = HistoryCtx {
            snapshots: &snaps[..t as usize],
            t,
            global: &global,
            num_entities: data.num_entities(),
            num_relations: data.num_relations(),
        };
        let scores = span("eval.score", || scorer.score(&ctx, &queries));
        for (row, gold) in golds.iter().enumerate() {
            rr += 1.0 / rank(scores.row(row), gold);
            n += 1;
        }
        let snap = &mut snaps[t as usize];
        snap.triples.extend(batch.iter().map(|q| (q.s, q.r, q.o)));
        snap.triples.sort_unstable();
        snap.triples.dedup();
        global.add_snapshot(
            &Snapshot {
                t,
                triples: batch.iter().map(|q| (q.s, q.r, q.o)).collect(),
            },
            data.num_relations(),
        );
        i = j;
    }
    100.0 * rr / n.max(1) as f64
}

/// The benchmark's own filtered MRR must equal `evaluate`'s and beat a
/// uniformly random ranking.
fn check_mrr(model: &HisRes, data: &DatasetSplits, reported: f64) -> Result<(), String> {
    let truth = truth(data);
    let empty = BTreeSet::new();
    let own = replay_eval(model, data, |row, q| {
        let t = truth.get(&(q.s, q.r, q.t)).unwrap_or(&empty);
        check::filtered_rank(row, q.o, t)
    });
    if (own - reported).abs() > 1e-6 * reported.abs().max(1.0) {
        return Err(format!("own filtered MRR {own} != evaluate's {reported}"));
    }
    let random = check::random_mrr(data.num_entities());
    if reported <= random {
        return Err(format!(
            "test MRR {reported} does not beat random ranking ({random})"
        ));
    }
    Ok(())
}

/// The untraced run: end-to-end metrics.
/// The seed changes nothing here: the test MRR moves by about ±8%
/// between initialisation seeds, so the inputs stay fixed.
pub fn run(seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let dir = inputs::run_dir().join("data");
    let result = write_dataset(&dir).and_then(|()| run_in(&dir, seconds, out));
    let _ = std::fs::remove_dir_all(inputs::run_dir());
    result
}

fn run_in(dir: &Path, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let mut setups = Vec::new();
    let (mut spent_s, mut steps, mut allocs) = (0.0, 0u64, 0u64);
    let (mut step_ms, mut rates) = (Vec::new(), Vec::new());
    let mut mrr: Option<f64> = None;
    let mut last = None;
    while spent_s < seconds {
        let (data, model, s) = setup(dir)?;
        setups.push(s);
        let r = round(dir, &data, model, &mut setups)?;
        let n = steps_per_epoch(&data) * inputs::TRAIN_EPOCHS as u64;
        if let Err(e) = check_report(&r.report) {
            out.errors.push(e);
        }
        if mrr.is_some_and(|m| m != r.mrr) {
            out.errors.push(format!(
                "test MRR changed between identical rounds: {mrr:?} {}",
                r.mrr
            ));
        }
        mrr = Some(r.mrr);
        out.attempted += n;
        out.failed += r.report.guard_events.len() as u64;
        spent_s += r.train_s + r.eval_s;
        steps += n;
        allocs += r.allocs;
        step_ms.push(1e3 * r.train_s / n.max(1) as f64);
        rates.push(n as f64 / (r.train_s + r.eval_s));
        last = Some((data, r));
    }
    let (data, r) = last.ok_or("no round ran")?;
    if let Err(e) = check_mrr(&r.model, &data, r.mrr) {
        out.errors.push(e);
    }
    let n = steps.max(1) as f64;
    out.metric("setup_s", median(&setups), "s");
    out.metric("ops_per_s", median(&rates), "1/s");
    out.metric("op_p50_ms", median(&step_ms), "ms");
    out.metric("allocs_per_op", allocs as f64 / n, "count");
    out.metric("quality_pct", r.mrr, "%");
    Ok(())
}

/// The training epochs of `train_with`, composed from the public pieces
/// it is built from, each under its span.
fn replay_training(model: &HisRes, data: &DatasetSplits) -> Result<(), String> {
    let tc = inputs::train_config(inputs::TRAIN_EPOCHS);
    let mut opt = Adam::new(model.store.params().cloned().collect(), tc.lr);
    let mut rng = StdRng::seed_from_u64(tc.seed);
    let snaps = snapshots_of(&data.train);
    let nr = model.num_relations();
    let k = model.cfg.global_prune_topk.unwrap_or(usize::MAX);
    for _ in 0..tc.epochs {
        let mut global = GlobalHistoryIndex::new();
        for t in 0..snaps.len() {
            let target = &snaps[t];
            if target.triples.is_empty() {
                continue;
            }
            if t > 0 {
                span("train.step", || -> Result<(), String> {
                    opt.zero_grad();
                    let queries = query_pairs(&target.triples, nr);
                    let g = if model.cfg.use_global {
                        span("train.global_graph", || {
                            global.relevant_graph_pruned(&queries, k)
                        })
                    } else {
                        EdgeList::new()
                    };
                    let history = &snaps[t.saturating_sub(model.cfg.history_len)..t];
                    let loss = span("train.forward", || {
                        model.loss_at(history, target.t, &target.triples, &g, &mut rng)
                    });
                    if !loss.value().item().is_finite() {
                        return Err(format!("non-finite loss at t={t}"));
                    }
                    span("train.backward", || loss.backward());
                    let norm = span("train.clip", || {
                        clip_grad_norm(model.store.params(), tc.grad_clip)
                    });
                    if !norm.is_finite() {
                        return Err(format!("non-finite gradient norm at t={t}"));
                    }
                    span("train.adam", || opt.step());
                    Ok(())
                })?;
            }
            global.add_snapshot(target, nr);
        }
    }
    Ok(())
}

/// The traced profile of the train path: one timed `train_with` +
/// `evaluate` round, then the same epochs and evaluation replayed from
/// their public pieces under spans. The replayed parameters must equal
/// `train_with`'s and the replayed MRR `evaluate`'s.
pub fn profile(out: &mut Outcome) -> Result<(), String> {
    let dir = inputs::run_dir().join("data");
    let result = write_dataset(&dir).and_then(|()| profile_in(&dir, out));
    let _ = std::fs::remove_dir_all(inputs::run_dir());
    result
}

fn profile_in(dir: &Path, out: &mut Outcome) -> Result<(), String> {
    let (data, model, _) = setup(dir)?;
    let r = round(dir, &data, model, &mut Vec::new())?;
    check_report(&r.report)?;
    let steps = steps_per_epoch(&data) * inputs::TRAIN_EPOCHS as u64;
    out.attempted += steps;
    out.failed += r.report.guard_events.len() as u64;

    let (_, replica, _) = setup(dir)?;
    let filter = build_filter(&data);
    trace::set_enabled(true);
    let c0 = cpu_s();
    let replayed = replay_training(&replica, &data);
    let replay_mrr = replay_eval(&replica, &data, |row, q| {
        span("eval.rank", || filter.filtered_rank(row, q))
    });
    let replay_s = cpu_s() - c0;
    trace::set_enabled(false);
    replayed?;
    if replica.store.to_json() != r.model.store.to_json() {
        return Err("replayed epochs leave parameters different from train_with's".into());
    }
    if (replay_mrr - r.mrr).abs() > 1e-9 * r.mrr.abs().max(1.0) {
        return Err(format!(
            "replayed evaluation MRR {replay_mrr} != evaluate's {}",
            r.mrr
        ));
    }

    let s = trace::summary();
    let g = |n: &str| s.get(n).copied().unwrap_or_default();
    out.metric(
        "train.global_graph_ms",
        g("train.global_graph").self_ms(),
        "ms",
    );
    out.metric("train.forward_ms", g("train.forward").self_ms(), "ms");
    out.metric("train.backward_ms", g("train.backward").self_ms(), "ms");
    out.metric("train.clip_ms", g("train.clip").self_ms(), "ms");
    out.metric("train.adam_ms", g("train.adam").self_ms(), "ms");
    out.metric("train.forward_allocs", g("train.forward").allocs(), "count");
    out.metric(
        "train.backward_allocs",
        g("train.backward").allocs(),
        "count",
    );
    out.metric("train.unexplained_ms", g("train.step").self_ms(), "ms");
    out.metric(
        "train.untraced_step_ms",
        1e3 * r.train_s / steps.max(1) as f64,
        "ms",
    );
    out.metric("eval.score_ms", g("eval.score").self_ms(), "ms");
    out.metric("eval.rank_us", g("eval.rank").self_us(), "us");
    out.metric(
        "train.trace_overhead_pct",
        100.0 * (replay_s / (r.train_s + r.eval_s) - 1.0),
        "%",
    );
    Ok(())
}
