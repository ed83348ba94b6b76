//! Output checks computed by the benchmark itself, apart from the
//! program's own ranking, filtering and metric code.

use hisres_util::json::{self, Value};
use std::cmp::Ordering;
use std::collections::BTreeSet;

/// One parsed reply line.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// A query answer: `degraded` flag and `(object, score)` rows.
    Query {
        degraded: bool,
        preds: Vec<(u32, f64)>,
    },
    /// An ingest acknowledgement: outcome word, seq, state-snapshot flag.
    Ingest {
        outcome: String,
        seq: u64,
        snapshot_written: bool,
    },
    /// `{"ok":false,...}` with the error kind.
    Error(String),
}

/// Parses a reply line of the serving protocol.
pub fn parse_reply(line: &str) -> Result<Reply, String> {
    let v = json::parse(line).map_err(|e| format!("unparseable reply {line:?}: {e}"))?;
    if v.get("ok").and_then(Value::as_bool) != Some(true) {
        let kind = v
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Value::as_str)
            .unwrap_or("?");
        return Ok(Reply::Error(kind.to_owned()));
    }
    if let Some(outcome) = v.get("ingest").and_then(Value::as_str) {
        return Ok(Reply::Ingest {
            outcome: outcome.to_owned(),
            seq: v.get("seq").and_then(Value::as_u64).unwrap_or(0),
            snapshot_written: v
                .get("snapshot_written")
                .and_then(Value::as_bool)
                .unwrap_or(false),
        });
    }
    let degraded = v
        .get("degraded")
        .and_then(Value::as_bool)
        .ok_or("reply lacks degraded")?;
    let rows = v
        .get("predictions")
        .and_then(Value::as_array)
        .ok_or("reply lacks predictions")?;
    let mut preds = Vec::with_capacity(rows.len());
    for row in rows {
        let o = row
            .get("o")
            .and_then(Value::as_u64)
            .ok_or("prediction lacks o")?;
        let score = row
            .get("score")
            .and_then(Value::as_f64)
            .ok_or("prediction lacks score")?;
        preds.push((o as u32, score));
    }
    Ok(Reply::Query { degraded, preds })
}

/// The benchmark's own top-`k` of a dense score row: score descending,
/// ties by ascending id (an insertion sort over a `k`-slot buffer, not the
/// program's selection code).
pub fn own_topk(row: &[f32], k: usize) -> Vec<(u32, f32)> {
    let better = |a: &(u32, f32), b: &(u32, f32)| match a.1.partial_cmp(&b.1) {
        Some(Ordering::Greater) => true,
        Some(Ordering::Less) => false,
        _ => a.0 < b.0,
    };
    let mut best: Vec<(u32, f32)> = Vec::with_capacity(k + 1);
    for (i, &s) in row.iter().enumerate() {
        let cand = (i as u32, s);
        if best.len() == k && !better(&cand, &best[k - 1]) {
            continue;
        }
        let pos = best
            .iter()
            .position(|b| better(&cand, b))
            .unwrap_or(best.len());
        best.insert(pos, cand);
        best.truncate(k);
    }
    best
}

/// Property checks every served answer must pass, plus — when the dense
/// row is known — equality with the benchmark's own ranking of it.
pub fn check_answer(
    preds: &[(u32, f64)],
    k: usize,
    num_entities: usize,
    dense_row: Option<&[f32]>,
) -> Result<(), String> {
    if preds.len() != k.min(num_entities) {
        return Err(format!(
            "{} rows, expected {}",
            preds.len(),
            k.min(num_entities)
        ));
    }
    let mut seen = BTreeSet::new();
    for (i, &(o, s)) in preds.iter().enumerate() {
        if o as usize >= num_entities {
            return Err(format!("id {o} out of range"));
        }
        if !seen.insert(o) {
            return Err(format!("id {o} repeated"));
        }
        if !s.is_finite() {
            return Err(format!("non-finite score {s}"));
        }
        if i > 0 && s > preds[i - 1].1 {
            return Err(format!("scores increase at row {i}"));
        }
    }
    if let Some(row) = dense_row {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        if preds.first().map(|p| p.1) != Some(f64::from(max)) {
            return Err("first score is not the dense row's maximum".into());
        }
        let own: Vec<(u32, f64)> = own_topk(row, k)
            .into_iter()
            .map(|(o, s)| (o, f64::from(s)))
            .collect();
        if own != preds {
            return Err(format!("served {preds:?} != own ranking {own:?}"));
        }
    }
    Ok(())
}

/// Reciprocal rank of `gold` within a served list (0 when absent).
pub fn reciprocal_rank(preds: &[(u32, f64)], gold: u32) -> f64 {
    preds
        .iter()
        .position(|p| p.0 == gold)
        .map_or(0.0, |i| 1.0 / (i + 1) as f64)
}

/// Time-filtered rank of `gold` in a dense row: one plus the entities
/// scoring strictly higher, plus half the ties, with every other true
/// object of the query (`truth`) left out.
pub fn filtered_rank(row: &[f32], gold: u32, truth: &BTreeSet<u32>) -> f64 {
    let g = row[gold as usize];
    let (mut higher, mut ties) = (0usize, 0usize);
    for (e, &s) in row.iter().enumerate() {
        let e = e as u32;
        if e == gold || truth.contains(&e) {
            continue;
        }
        if s > g {
            higher += 1;
        } else if s == g {
            ties += 1;
        }
    }
    1.0 + higher as f64 + ties as f64 / 2.0
}

/// Expected MRR (×100) of a uniformly random ranking of `n` candidates.
pub fn random_mrr(n: usize) -> f64 {
    100.0 * (1..=n).map(|r| 1.0 / r as f64).sum::<f64>() / n.max(1) as f64
}

/// Shows that every check rejects a deliberately wrong answer.
pub fn self_test() -> Result<(), String> {
    let row = [0.5f32, 2.0, -1.0, 2.0, 0.25, 3.0];
    let good: Vec<(u32, f64)> = own_topk(&row, 3)
        .into_iter()
        .map(|(o, s)| (o, f64::from(s)))
        .collect();
    if good != vec![(5, 3.0), (1, 2.0), (3, 2.0)] {
        return Err(format!("own_topk is wrong: {good:?}"));
    }
    check_answer(&good, 3, 6, Some(&row))?;
    let wrong: [(&str, Vec<(u32, f64)>); 6] = [
        ("reversed", good.iter().rev().copied().collect()),
        ("short", good[..2].to_vec()),
        ("repeated id", vec![(5, 3.0), (1, 2.0), (1, 2.0)]),
        ("out of range", vec![(5, 3.0), (1, 2.0), (9, 2.0)]),
        ("tie order", vec![(5, 3.0), (3, 2.0), (1, 2.0)]),
        ("not the max", vec![(1, 2.0), (3, 2.0), (0, 0.5)]),
    ];
    for (what, preds) in wrong {
        if check_answer(&preds, 3, 6, Some(&row)).is_ok() {
            return Err(format!("check accepted a {what} answer"));
        }
    }
    let truth: BTreeSet<u32> = [5].into_iter().collect();
    // gold 1 ties with 3 and is beaten by 5, which the filter removes
    let filtered = filtered_rank(&row, 1, &truth);
    let unfiltered = filtered_rank(&row, 1, &BTreeSet::new());
    let ranks_ok = filtered == 1.5 && unfiltered == 2.5; // lint:allow(float-eq): ranks are integers plus halves, exact in f64
    if !ranks_ok {
        return Err("filtered_rank is wrong".into());
    }
    // a wrong ranking (gold scored lowest) must lose to the right one
    if filtered_rank(&row, 2, &BTreeSet::new()) <= filtered_rank(&row, 5, &BTreeSet::new()) {
        return Err("filtered_rank does not penalise a low gold score".into());
    }
    let (third, absent) = (reciprocal_rank(&good, 3), reciprocal_rank(&good, 0));
    let rr_ok = third == 1.0 / 3.0 && absent == 0.0; // lint:allow(float-eq): the same exact division on both sides, or zero
    if !rr_ok {
        return Err("reciprocal_rank is wrong".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn self_test_passes() {
        super::self_test().unwrap();
    }
}
