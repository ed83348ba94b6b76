//! Inputs: the fixed datasets, the trained checkpoint, and the seeded
//! request schedules of the serving workloads.

use hisres::{train, HisRes, HisResConfig, TrainConfig};
use hisres_data::synthetic::generate;
use hisres_data::{datasets, DatasetSplits};
use hisres_graph::{Quad, Snapshot};
use hisres_util::fsio::fnv1a64;
use hisres_util::rng::rngs::StdRng;
use hisres_util::rng::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Served depth of every query.
pub const TOPK: usize = 10;
/// Largest query batch handed to the engine.
pub const MAX_BATCH: usize = 8;
/// Batches in one `frozen_serve` round.
pub const FROZEN_ROUND_BATCHES: usize = 200;
/// Epochs the serving checkpoint is trained for.
pub const CKPT_EPOCHS: usize = 3;
/// Epochs of each `train_eval` round.
pub const TRAIN_EPOCHS: usize = 1;
/// Timestamps of the long `live_serve` timeline that the session is
/// opened over (its `ScoreCtx`).
pub const LIVE_CUT: u32 = 100;
/// Snapshots already in the WAL when a `live_serve` session opens.
pub const LIVE_PRELOAD: u32 = 12;
/// State-snapshot cadence of the live session (batches).
pub const LIVE_SNAPSHOT_EVERY: u64 = 8;
/// Snapshots ingested per `live_serve` round.
pub const LIVE_STEPS: u32 = 75;

/// The model configuration of every workload.
pub fn model_config() -> HisResConfig {
    HisResConfig {
        dim: 32,
        conv_channels: 8,
        seed: 42,
        ..Default::default()
    }
}

/// Training settings: fixed seed, no validation, so no early stop.
pub fn train_config(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        patience: 0,
        seed: 7,
        verbose: false,
        ..Default::default()
    }
}

/// The dataset of `frozen_serve` and `train_eval` (and of the checkpoint).
pub fn dataset() -> DatasetSplits {
    datasets::load("icews14s-syn")
}

/// The long `live_serve` timeline: the `icews14s-syn` generator run for
/// enough timestamps to cover the cut, the WAL preload and one round.
pub fn long_timeline() -> Vec<Snapshot> {
    let mut cfg = datasets::icews14s_config();
    cfg.num_timestamps = (LIVE_CUT + LIVE_PRELOAD + LIVE_STEPS) as usize;
    hisres_graph::snapshot::partition(&generate(&cfg).tkg)
}

/// Where the benchmark keeps its generated files.
pub fn work_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(".work")
}

/// This process's scratch directory under [`work_dir`].
pub fn run_dir() -> PathBuf {
    work_dir().join(format!("run-{}", std::process::id()))
}

/// Path of the serving checkpoint (made by [`make_checkpoint`]). The
/// name carries a hash of this executable, which is built from the
/// program's sources, so a build of other code never serves a checkpoint
/// trained by this one (or the reverse).
pub fn checkpoint_path() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("reading {}: {e}", exe.display()))?;
    Ok(work_dir().join(format!(
        "serve-e{CKPT_EPOCHS}-{:016x}.ckpt",
        fnv1a64(&bytes)
    )))
}

/// Trains the serving checkpoint from scratch (fixed seeds), writes it
/// atomically, and removes checkpoints of other builds.
pub fn make_checkpoint() -> Result<PathBuf, String> {
    let data = dataset();
    let model = HisRes::new(&model_config(), data.num_entities(), data.num_relations());
    train(&model, &data, &train_config(CKPT_EPOCHS)).map_err(|e| e.to_string())?;
    let path = checkpoint_path()?;
    std::fs::create_dir_all(work_dir()).map_err(|e| e.to_string())?;
    model.save_checkpoint(&path).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(work_dir()).map_err(|e| e.to_string())? {
        let other = entry.map_err(|e| e.to_string())?.path();
        let name = other.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if other != path && name.starts_with("serve-") && name.ends_with(".ckpt") {
            let _ = std::fs::remove_file(&other);
        }
    }
    Ok(path)
}

/// The checkpoint of this build, made first if there is none yet.
pub fn ensure_checkpoint() -> Result<PathBuf, String> {
    let path = checkpoint_path()?;
    if path.exists() {
        Ok(path)
    } else {
        make_checkpoint()
    }
}

/// Raw and inverse `(s, r, gold o)` query items of a set of events.
pub fn query_items(
    triples: impl IntoIterator<Item = (u32, u32, u32)>,
    nr: u32,
) -> Vec<(u32, u32, u32)> {
    triples
        .into_iter()
        .flat_map(|(s, r, o)| [(s, r, o), (o, r + nr, s)])
        .collect()
}

/// Items of a quad list.
pub fn quad_items(quads: &[Quad], nr: u32) -> Vec<(u32, u32, u32)> {
    query_items(quads.iter().map(|q| (q.s, q.r, q.o)), nr)
}

/// One query batch: request lines plus each query's `(s, r, gold)`.
#[derive(Clone, Debug)]
pub struct Batch {
    /// JSONL request lines.
    pub lines: Vec<String>,
    /// The asked items, in line order.
    pub items: Vec<(u32, u32, u32)>,
}

/// Renders one query line.
pub fn query_line(s: u32, r: u32, id: usize) -> String {
    format!("{{\"s\":{s},\"r\":{r},\"topk\":{TOPK},\"id\":\"q{id}\"}}")
}

fn batch_of(items: Vec<(u32, u32, u32)>, next_id: &mut usize) -> Batch {
    let lines = items
        .iter()
        .map(|&(s, r, _)| {
            *next_id += 1;
            query_line(s, r, *next_id)
        })
        .collect();
    Batch { lines, items }
}

/// The distinct `(s, r)` pairs of `pool`, each with its popularity: how
/// often it occurs in `history` (an event `(s, r, o)` asks `(s, r)` raw
/// and `(o, r + nr)` inverse). Pairs the history never asks are left out.
/// Each pair keeps the gold object of its first item.
pub fn popular_pairs(
    pool: &[(u32, u32, u32)],
    history: &[Quad],
    nr: u32,
) -> Vec<((u32, u32, u32), u64)> {
    let mut seen: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    for &(s, r, _) in &quad_items(history, nr) {
        *seen.entry((s, r)).or_default() += 1;
    }
    let mut out: Vec<((u32, u32, u32), u64)> = Vec::new();
    let mut asked = BTreeSet::new();
    for &item in pool {
        let count = seen.get(&(item.0, item.1)).copied().unwrap_or(0);
        if count > 0 && asked.insert((item.0, item.1)) {
            out.push((item, count));
        }
    }
    out
}

/// One `frozen_serve` round: [`FROZEN_ROUND_BATCHES`] batches, each size
/// 1 to [`MAX_BATCH`] equally often in a seeded order, whose items are
/// drawn from `popular` in proportion to each pair's popularity, so
/// pairs repeat within and across batches as often as the history asks
/// them.
pub fn frozen_round(popular: &[((u32, u32, u32), u64)], seed: u64) -> Vec<Batch> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF0F0_0001);
    let cdf: Vec<u64> = popular
        .iter()
        .scan(0, |acc, &(_, c)| {
            *acc += c;
            Some(*acc)
        })
        .collect();
    let total = cdf.last().copied().unwrap_or(0);
    let mut sizes: Vec<usize> = (0..FROZEN_ROUND_BATCHES)
        .map(|i| i % MAX_BATCH + 1)
        .collect();
    for i in (1..sizes.len()).rev() {
        let j = rng.gen_range(0..=i);
        sizes.swap(i, j);
    }
    let mut next_id = 0;
    sizes
        .into_iter()
        .map(|n| {
            let items = (0..n)
                .map(|_| {
                    let u = rng.gen_range(0..total);
                    popular[cdf.partition_point(|&c| c <= u)].0
                })
                .collect();
            batch_of(items, &mut next_id)
        })
        .collect()
}

/// One `live_serve` step: query batches about snapshot `t`, then the
/// ingest line that appends it.
#[derive(Clone, Debug)]
pub struct LiveStep {
    /// Queries asked before the ingest.
    pub batches: Vec<Batch>,
    /// The `{"cmd":"ingest"}` line.
    pub ingest: String,
    /// Its sequence number.
    pub seq: u64,
    /// The snapshot's events.
    pub snapshot: Snapshot,
}

/// Renders one ingest line.
pub fn ingest_line(seq: u64, snap: &Snapshot) -> String {
    let quads: Vec<String> = snap
        .triples
        .iter()
        .map(|&(s, r, o)| format!("[{s},{r},{o}]"))
        .collect();
    format!(
        "{{\"cmd\":\"ingest\",\"seq\":{seq},\"t\":{},\"quads\":[{}]}}",
        snap.t,
        quads.join(",")
    )
}

/// The `live_serve` round: for each snapshot after the preload, every
/// raw and inverse event of it asked once as a query — in a seeded order,
/// cut into batches of seeded sizes 1 to [`MAX_BATCH`] — then its ingest.
/// The asked set does not depend on the seed, so neither does the served
/// quality.
pub fn live_round(timeline: &[Snapshot], nr: u32, seed: u64) -> Vec<LiveStep> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x11FE_0002);
    let mut next_id = 0;
    let first = LIVE_CUT + LIVE_PRELOAD;
    (0..LIVE_STEPS)
        .map(|i| {
            let snap = timeline[(first + i) as usize].clone();
            let mut items = query_items(snap.triples.iter().copied(), nr);
            for i in (1..items.len()).rev() {
                let j = rng.gen_range(0..=i);
                items.swap(i, j);
            }
            let mut batches = Vec::new();
            let mut rest = &items[..];
            while !rest.is_empty() {
                let n = rng.gen_range(1..=MAX_BATCH).min(rest.len());
                batches.push(batch_of(rest[..n].to_vec(), &mut next_id));
                rest = &rest[n..];
            }
            let seq = u64::from(LIVE_PRELOAD + i + 1);
            LiveStep {
                batches,
                ingest: ingest_line(seq, &snap),
                seq,
                snapshot: snap,
            }
        })
        .collect()
}
