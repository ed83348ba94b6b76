//! Multi-step extrapolation ("without ground truth" setting).
//!
//! The paper evaluates single-step extrapolation: every prediction at `t`
//! may condition on the *ground-truth* history up to `t − 1`. The harder
//! multi-step setting — studied by RE-NET and the RE-GCN family — reveals
//! how quickly a model's predictions degrade when it must condition on
//! its *own* earlier predictions: within a block of `horizon` consecutive
//! test timestamps, only the first sees real history; subsequent steps
//! see the model's top-1 predicted snapshot instead.
//!
//! This module is an extension beyond the paper's protocol; results are
//! reported per step offset so the decay curve is visible.

use crate::eval::{
    build_filter, split_quads, EvalResult, EvalTimeline, ExtrapolationModel, HistoryCtx, Split,
};
use hisres_data::DatasetSplits;
use hisres_graph::{Quad, RankMetrics};

/// Saved original snapshot contents, restored after each prediction block.
type SnapshotOverlay = Vec<(usize, Vec<(u32, u32, u32)>)>;

/// Runs multi-step evaluation on the chosen split. Returns one
/// [`EvalResult`] per step offset `0..horizon`; offset 0 matches the
/// ordinary single-step protocol for the timestamps it covers.
pub fn evaluate_multistep(
    model: &impl ExtrapolationModel,
    data: &DatasetSplits,
    split: Split,
    horizon: usize,
) -> Vec<EvalResult> {
    assert!(horizon >= 1, "horizon must be at least 1");
    let nr = data.num_relations() as u32;
    let filter = build_filter(data);

    // ground-truth timeline (kept in sync at block boundaries)
    let mut timeline = EvalTimeline::new(data, split);
    let mut global = timeline.index();
    let mut per_offset: Vec<RankMetrics> = vec![RankMetrics::default(); horizon];
    let groups: Vec<&[Quad]> = split_quads(data, split).chunk_by(|a, b| a.t == b.t).collect();

    for block in groups.chunks(horizon) {
        // block-local state: predicted snapshots overlay the GT timeline
        let mut block_global = global.clone();
        let mut overlays: SnapshotOverlay = Vec::new();

        for (offset, batch) in block.iter().enumerate() {
            let t = batch[0].t;
            let mut queries: Vec<(u32, u32)> = Vec::with_capacity(batch.len() * 2);
            let mut golds: Vec<Quad> = Vec::with_capacity(batch.len() * 2);
            for q in *batch {
                queries.push((q.s, q.r));
                golds.push(*q);
                let inv = q.inverse(nr);
                queries.push((inv.s, inv.r));
                golds.push(inv);
            }
            let ctx = HistoryCtx {
                snapshots: &timeline.snapshots[..t as usize],
                t,
                global: &block_global,
                num_entities: data.num_entities(),
                num_relations: data.num_relations(),
            };
            let scores = model.score(&ctx, &queries);
            for (row, gold) in golds.iter().enumerate() {
                per_offset[offset].push(filter.filtered_rank(scores.row(row), gold));
            }

            // feed back top-1 predictions (raw direction) as this step's
            // snapshot content
            let mut predicted: Vec<(u32, u32, u32)> = Vec::with_capacity(batch.len());
            for (qi, q) in batch.iter().enumerate() {
                let row = scores.row(qi * 2);
                let best = row
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .map(|(o, _)| o as u32)
                    .unwrap_or(q.o);
                predicted.push((q.s, q.r, best));
            }
            predicted.sort_unstable();
            predicted.dedup();
            let snap = &mut timeline.snapshots[t as usize];
            overlays.push((t as usize, std::mem::replace(&mut snap.triples, predicted)));
            block_global.add_snapshot(snap, data.num_relations());
        }

        // restore ground truth and advance the GT state past the block
        for (idx, original) in overlays {
            timeline.snapshots[idx].triples = original;
        }
        for batch in block {
            global.add_snapshot(timeline.join(batch[0].t, batch), data.num_relations());
        }
    }
    finish(model, per_offset)
}

fn finish(model: &impl ExtrapolationModel, per_offset: Vec<RankMetrics>) -> Vec<EvalResult> {
    per_offset
        .into_iter()
        .enumerate()
        .map(|(i, m)| EvalResult {
            model: format!("{} (+{} steps)", model.name(), i + 1),
            mrr: m.mrr(),
            hits: m.hits_at(),
            queries: m.count,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use hisres_graph::Tkg;
    use hisres_tensor::NdArray;

    /// Scores by copying the most recent snapshot: correct whenever the
    /// previous step's (possibly predicted) snapshot contains the answer.
    struct CopyLast;

    impl ExtrapolationModel for CopyLast {
        fn name(&self) -> String {
            "copy-last".into()
        }
        fn score(&self, ctx: &HistoryCtx<'_>, queries: &[(u32, u32)]) -> NdArray {
            let mut out = NdArray::zeros(queries.len(), ctx.num_entities);
            if let Some(last) = ctx.snapshots.iter().rev().find(|s| !s.triples.is_empty()) {
                for (i, &(s, r)) in queries.iter().enumerate() {
                    for &(a, rr, b) in &last.triples {
                        if a == s && rr == r {
                            out.set(i, b as usize, 1.0);
                        }
                        // inverse queries
                        if b == s && rr + ctx.num_relations as u32 == r {
                            out.set(i, a as usize, 1.0);
                        }
                    }
                }
            }
            out
        }
    }

    fn persistent_data() -> DatasetSplits {
        // the same facts hold at every timestamp: copying always works
        let mut quads = Vec::new();
        for t in 0..30u32 {
            quads.push(Quad::new(0, 0, 1, t));
            quads.push(Quad::new(2, 1, 3, t));
        }
        DatasetSplits::from_tkg("persist", "1 step", &Tkg::new(4, 2, quads))
    }

    #[test]
    fn horizon_one_matches_single_step_protocol() {
        let data = persistent_data();
        let multi = evaluate_multistep(&CopyLast, &data, Split::Test, 1);
        let single = evaluate(&CopyLast, &data, Split::Test);
        assert_eq!(multi.len(), 1);
        assert!((multi[0].mrr - single.mrr).abs() < 1e-9);
        assert_eq!(multi[0].queries, single.queries);
    }

    #[test]
    fn perfect_copy_model_survives_multistep_on_persistent_data() {
        // predictions are correct, so feeding them back loses nothing
        let data = persistent_data();
        let multi = evaluate_multistep(&CopyLast, &data, Split::Test, 3);
        for r in &multi {
            if r.queries > 0 {
                assert!((r.mrr - 100.0).abs() < 1e-9, "{}: {}", r.model, r.mrr);
            }
        }
    }

    #[test]
    fn query_counts_partition_across_offsets() {
        let data = persistent_data();
        let single = evaluate(&CopyLast, &data, Split::Test);
        let multi = evaluate_multistep(&CopyLast, &data, Split::Test, 2);
        let total: usize = multi.iter().map(|r| r.queries).sum();
        assert_eq!(total, single.queries);
    }

    #[test]
    fn drifting_data_decays_with_horizon() {
        // the object persists for 3 steps then drifts: copying the real
        // previous snapshot is right 2/3 of the time, but copying a
        // *predicted* (one-step-stale) snapshot is right only 1/3 — the
        // decay the multi-step setting is designed to expose
        let quads: Vec<Quad> = (0..120)
            .flat_map(|t| {
                [
                    Quad::new(0, 0, 1 + ((t / 3) % 5), t),
                    Quad::new(6, 1, 1 + (((t + 30) / 3) % 5), t),
                ]
            })
            .collect();
        let data = DatasetSplits::from_tkg("drift", "1 step", &Tkg::new(7, 2, quads));
        let multi = evaluate_multistep(&CopyLast, &data, Split::Test, 2);
        assert!(multi[0].queries > 0 && multi[1].queries > 0);
        assert!(
            multi[0].mrr > multi[1].mrr + 5.0,
            "offset 0 {:.2} should clearly beat offset 1 {:.2}",
            multi[0].mrr,
            multi[1].mrr
        );
    }
}
