//! Implementations of the CLI subcommands.

use crate::args::Args;
use hisres::serve::{
    install_term_handler, load_servable_model, serve_concurrent, serve_lines,
    ModelScorer, ServeConfig, ServerConfig,
    ServeEngine, SessionScorer,
};
use hisres::ingest::{IngestSession, IngestSessionConfig};
use hisres::trainer::{train_with, HisResEval, TrainOptions};
use hisres::{
    evaluate, evaluate_relations, score_at, GuardPolicy, HisRes, HisResConfig, ScoreCtx, Split,
    TrainCheckpoint, TrainConfig,
};
use hisres_baselines::FrequencyScorer;
use hisres_util::fsio::{atomic_write, FaultInjector};
use hisres_util::retry::BackoffPolicy;
use hisres_data::datasets::{load as load_builtin, DatasetSplits};
use hisres_data::loader::{load_dir, load_vocab_file};
use hisres_data::stats::{header, DatasetStats};
use hisres_graph::{Quad, Vocab};

type CmdResult = Result<(), Box<dyn std::error::Error>>;

const BUILTIN: [&str; 4] = ["icews14s-syn", "icews18-syn", "icews0515-syn", "gdelt-syn"];

/// Resolves `--data` to a dataset: a built-in analog name or a directory.
fn resolve_data(spec: &str) -> Result<DatasetSplits, Box<dyn std::error::Error>> {
    if BUILTIN.contains(&spec) {
        return Ok(load_builtin(spec));
    }
    let path = std::path::Path::new(spec);
    if path.is_dir() {
        return Ok(load_dir(path, spec, 1)?);
    }
    Err(format!(
        "--data {spec:?} is neither a built-in dataset ({}) nor a directory",
        BUILTIN.join(", ")
    )
    .into())
}

/// `hisres generate` — export a synthetic analog as a TSV directory.
pub fn generate(args: &Args) -> CmdResult {
    let name = args.require("dataset")?.to_owned();
    let out = std::path::PathBuf::from(args.require("out")?);
    args.reject_unknown()?;
    if !BUILTIN.contains(&name.as_str()) {
        return Err(format!("unknown dataset {name:?}; options: {}", BUILTIN.join(", ")).into());
    }
    let data = load_builtin(&name);
    std::fs::create_dir_all(&out)?;
    let dump = |quads: &[Quad]| {
        quads
            .iter()
            .map(|q| format!("{}\t{}\t{}\t{}\n", q.s, q.r, q.o, q.t))
            .collect::<String>()
    };
    atomic_write(out.join("train.txt"), dump(&data.train.quads).as_bytes())?;
    atomic_write(out.join("valid.txt"), dump(&data.valid.quads).as_bytes())?;
    atomic_write(out.join("test.txt"), dump(&data.test.quads).as_bytes())?;
    atomic_write(
        out.join("stat.txt"),
        format!("{} {}\n", data.num_entities(), data.num_relations()).as_bytes(),
    )?;
    println!(
        "wrote {name} ({} train / {} valid / {} test facts) to {}",
        data.train.len(),
        data.valid.len(),
        data.test.len(),
        out.display()
    );
    Ok(())
}

/// `hisres stats` — Table 2 columns for a dataset.
pub fn stats(args: &Args) -> CmdResult {
    let data = resolve_data(args.require("data")?)?;
    args.reject_unknown()?;
    println!("{}", header());
    println!("{}", DatasetStats::compute(&data).row());
    Ok(())
}

/// `hisres train` — fit a model and save a checkpoint. With `--state` the
/// full training state is checkpointed atomically after every epoch; with
/// `--resume` an interrupted run continues bit-identically from such a
/// state file (model flags are then taken from the state, not the CLI).
pub fn train_cmd(args: &Args) -> CmdResult {
    let data = resolve_data(args.require("data")?)?;
    let out = args.require("out")?.to_owned();
    let resume = args.get("resume").map(str::to_owned);
    let state = args.get("state").map(std::path::PathBuf::from);
    let guard = match args.get("guard").unwrap_or("skip") {
        "skip" => GuardPolicy::SkipStep,
        "rollback" => GuardPolicy::RollbackWithLrBackoff,
        "abort" => GuardPolicy::Abort,
        other => {
            return Err(format!("--guard must be skip, rollback, or abort, got {other:?}").into())
        }
    };
    let mut cfg = match args.get("ablation") {
        Some(v) => HisResConfig::ablation(v),
        None => HisResConfig::default(),
    };
    cfg.dim = args.get_parse("dim", 32usize)?;
    cfg.conv_channels = (cfg.dim / 4).max(2);
    cfg.history_len = args.get_parse("history", 3usize)?;
    cfg.granularity = args.get_parse("granularity", cfg.granularity)?;
    cfg.gnn_layers = args.get_parse("layers", cfg.gnn_layers)?;
    cfg.seed = args.get_parse("seed", 42u64)?;
    cfg.use_two_phase = args.flag("two-phase");
    if let Some(k) = args.get("prune-topk") {
        cfg.global_prune_topk = Some(
            k.parse()
                .map_err(|_| format!("--prune-topk: cannot parse {k:?}"))?,
        );
    }
    let tc = TrainConfig {
        epochs: args.get_parse("epochs", 8usize)?,
        lr: args.get_parse("lr", 0.01f32)?,
        patience: args.get_parse("patience", 3usize)?,
        verbose: !args.flag("quiet"),
        guard,
        ..Default::default()
    };
    args.reject_unknown()?;

    let (model, resume_ck) = match &resume {
        Some(path) => {
            let ck = TrainCheckpoint::load(path)?;
            eprintln!("resuming from {path} (epoch {} of {})", ck.epoch, tc.epochs);
            (ck.build_model()?, Some(ck))
        }
        None => {
            cfg.validate().map_err(|e| format!("invalid configuration: {e}"))?;
            (HisRes::new(&cfg, data.num_entities(), data.num_relations()), None)
        }
    };
    if model.num_entities() != data.num_entities()
        || model.num_relations() != data.num_relations()
    {
        return Err(format!(
            "model is sized for {} entities / {} relations but the dataset has {} / {}",
            model.num_entities(),
            model.num_relations(),
            data.num_entities(),
            data.num_relations()
        )
        .into());
    }
    eprintln!(
        "training on {} ({} entities, {} relations, {} params)",
        data.name,
        data.num_entities(),
        data.num_relations(),
        model.store.num_scalars()
    );
    let opts = TrainOptions { resume: resume_ck, state_path: state, ..Default::default() };
    let report = train_with(&model, &data, &tc, &opts)?;
    model.save_checkpoint(&out)?;
    if !report.guard_events.is_empty() {
        eprintln!(
            "divergence guard fired {} time(s); see the training state for details",
            report.guard_events.len()
        );
    }
    println!(
        "trained {} epochs (best valid MRR {:.2}); checkpoint written to {out}",
        report.epochs_run, report.best_val_mrr
    );
    Ok(())
}

/// `hisres eval` — time-aware filtered metrics of a checkpoint.
pub fn eval_cmd(args: &Args) -> CmdResult {
    let model = HisRes::load_checkpoint(args.require("model")?)?;
    let data = resolve_data(args.require("data")?)?;
    let split = match args.get("split").unwrap_or("test") {
        "test" => Split::Test,
        "valid" => Split::Valid,
        other => return Err(format!("--split must be test or valid, got {other:?}").into()),
    };
    let relations = args.flag("relations");
    args.reject_unknown()?;
    if model.num_entities() != data.num_entities() {
        return Err(format!(
            "checkpoint was trained for {} entities but the dataset has {}",
            model.num_entities(),
            data.num_entities()
        )
        .into());
    }
    let r = evaluate(&HisResEval { model: &model }, &data, split);
    println!(
        "entity prediction   MRR {:.2}  H@1 {:.2}  H@3 {:.2}  H@10 {:.2}  ({} queries)",
        r.mrr, r.hits[0], r.hits[1], r.hits[2], r.queries
    );
    if relations {
        let r = evaluate_relations(&model, &data, split);
        println!(
            "relation prediction MRR {:.2}  H@1 {:.2}  H@3 {:.2}  H@10 {:.2}  ({} queries)",
            r.mrr, r.hits[0], r.hits[1], r.hits[2], r.queries
        );
    }
    Ok(())
}

/// `hisres predict` — rank objects for one query after the known timeline.
pub fn predict(args: &Args) -> CmdResult {
    let model = HisRes::load_checkpoint(args.require("model")?)?;
    let data = resolve_data(args.require("data")?)?;
    let s: u32 = args.require("subject")?.parse().map_err(|_| "--subject must be an id")?;
    let r: u32 = args.require("relation")?.parse().map_err(|_| "--relation must be an id")?;
    let topk = args.get_parse("topk", 10usize)?;
    let explain = args.flag("explain");
    args.reject_unknown()?;
    if s as usize >= data.num_entities() {
        return Err(format!("subject {s} out of {} entities", data.num_entities()).into());
    }
    if r as usize >= 2 * data.num_relations() {
        return Err(format!(
            "relation {r} out of {} (raw + inverse)",
            2 * data.num_relations()
        )
        .into());
    }

    // history = the entire known timeline; scored through the same memoised
    // path as the server, so the attention explanation below reuses the
    // local encoding
    let ctx = ScoreCtx::at_end_of(&data);
    let scores = score_at(&model, &ctx, &[(s, r)]);
    let mut ranked: Vec<(usize, f32)> = scores.row(0).iter().copied().enumerate().collect();
    // total_cmp: a NaN score (diverged checkpoint) must not panic the sort
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("query ({s}, {r}, ?, t={}) — top {topk}:", ctx.t);
    for (rank, (o, score)) in ranked.iter().take(topk).enumerate() {
        println!("  {:>3}. entity {:>5}  score {score:.4}", rank + 1, o);
    }
    if explain {
        let k = model.cfg.global_prune_topk.unwrap_or(usize::MAX);
        let g_edges = ctx.global.relevant_graph_pruned(&[(s, r)], k);
        match model.explain_global(ctx.window(model.cfg.history_len), ctx.t, &g_edges) {
            Some(att) => {
                let mut edges: Vec<(usize, f32)> = att.into_iter().enumerate().collect();
                edges.sort_by(|a, b| b.1.total_cmp(&a.1));
                println!("most attended historical facts:");
                for (i, w) in edges.iter().take(5) {
                    println!(
                        "  θ={w:.3}  ({}, {}, {})",
                        g_edges.src[*i], g_edges.rel[*i], g_edges.dst[*i]
                    );
                }
            }
            None => println!("(no attention available: global encoder disabled or graph empty)"),
        }
    }
    Ok(())
}

/// `hisres serve` — long-running JSONL object-prediction service.
///
/// Loads the checkpoint once (with bounded retry over transient I/O
/// errors), prepares the full model and a precomputed frequency fallback
/// over the dataset's timeline, then answers requests line by line on
/// stdin/stdout or, with `--listen`, over TCP. The timeline is not
/// frozen at startup: with `--wal FILE` the server opens a durable
/// ingest session — `{"cmd":"ingest"}` appends new events behind a
/// fsync'd write-ahead log, advances the encoder incrementally, and a
/// restart replays the WAL back to byte-identical serving state. Every
/// request is validated into typed structured errors; over-budget
/// requests degrade to the fallback scorer and are flagged
/// `"degraded": true`; a final stats block is emitted at EOF.
pub fn serve_cmd(args: &Args) -> CmdResult {
    let model_path = args.require("model")?.to_owned();
    let data_spec = args.require("data")?.to_owned();
    let data = resolve_data(&data_spec)?;
    let budget = match args.get("budget-ms") {
        None => None,
        Some(v) => {
            let b: f64 = v.parse().map_err(|_| format!("--budget-ms: cannot parse {v:?}"))?;
            if !b.is_finite() || b < 0.0 {
                return Err("--budget-ms must be a non-negative number".into());
            }
            Some(b)
        }
    };
    let topk = args.get_parse("topk", 10usize)?;
    let max_panics = args.get_parse("max-poison", 3usize)?;
    let load_retries = args.get_parse("load-retries", 3usize)?;
    let inject = args.get_parse("inject-load-faults", 0usize)?;
    let listen = args.get("listen").map(str::to_owned);
    let max_conns = match args.get("max-conns") {
        None => None,
        Some(v) => {
            Some(v.parse::<usize>().map_err(|_| format!("--max-conns: cannot parse {v:?}"))?)
        }
    };
    let workers = args.get_parse("workers", 4usize)?;
    let max_queue = args.get_parse("max-queue", 64usize)?;
    let batch_window_ms = args.get_parse("batch-window-ms", 2.0f64)?;
    if !batch_window_ms.is_finite() || batch_window_ms < 0.0 {
        return Err("--batch-window-ms must be a non-negative number".into());
    }
    if workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    if max_queue == 0 {
        return Err("--max-queue must be at least 1".into());
    }
    let wal = args.get("wal").map(std::path::PathBuf::from);
    let ingest_state = args.get("ingest-state").map(std::path::PathBuf::from);
    let snapshot_every = args.get_parse("snapshot-every", 8u64)?;
    let fsync_budget_ms = match args.get("fsync-budget-ms") {
        None => None,
        Some(v) => {
            let b: f64 =
                v.parse().map_err(|_| format!("--fsync-budget-ms: cannot parse {v:?}"))?;
            if !b.is_finite() || b <= 0.0 {
                return Err("--fsync-budget-ms must be a positive number".into());
            }
            Some(b)
        }
    };
    let replay_lag_budget = match args.get("replay-lag-budget") {
        None => None,
        Some(v) => Some(
            v.parse::<u64>().map_err(|_| format!("--replay-lag-budget: cannot parse {v:?}"))?,
        ),
    };
    let max_ingest_queue = args.get_parse("max-ingest-queue", 8usize)?;
    if wal.is_none()
        && (ingest_state.is_some() || fsync_budget_ms.is_some() || replay_lag_budget.is_some())
    {
        return Err("--ingest-state/--fsync-budget-ms/--replay-lag-budget require --wal".into());
    }
    args.reject_unknown()?;

    let policy = BackoffPolicy {
        attempts: load_retries.max(1),
        base: std::time::Duration::from_millis(5),
        cap: std::time::Duration::from_millis(100),
    };
    let faults = if inject > 0 {
        // Exercises the retry path end to end: the first `inject` reads
        // fail with a transient error, then the real file comes through.
        FaultInjector::fail_first_reads(inject)
    } else {
        FaultInjector::none()
    };
    let model = load_servable_model(&model_path, &policy, &faults)?;
    if inject > 0 {
        eprintln!(
            "checkpoint loaded after {} read attempt(s) ({inject} injected fault(s))",
            faults.reads_attempted()
        );
    }
    if model.num_entities() != data.num_entities()
        || model.num_relations() != data.num_relations()
    {
        return Err(format!(
            "checkpoint is sized for {} entities / {} relations but the dataset has {} / {}",
            model.num_entities(),
            model.num_relations(),
            data.num_entities(),
            data.num_relations()
        )
        .into());
    }

    let all = data.all_quads();
    let fallback =
        FrequencyScorer::from_quads(data.num_entities(), data.num_relations(), &all);
    let ctx = ScoreCtx::at_end_of(&data);
    let cfg = ServeConfig { default_budget_ms: budget, default_topk: topk, max_panics };
    let mut engine = match wal {
        Some(wal_path) => {
            let mut icfg = IngestSessionConfig::new(wal_path);
            if let Some(p) = ingest_state {
                icfg.state_path = p;
            }
            icfg.snapshot_every = snapshot_every;
            icfg.fsync_budget_ms = fsync_budget_ms;
            icfg.replay_lag_budget = replay_lag_budget;
            let session = IngestSession::open(model, ctx, icfg)?;
            let rec = session.recovery().clone();
            eprintln!(
                "ingest session open: applied_seq {}, frontier t {}, {} WAL record(s) \
                 ({} re-applied, {} damaged tail byte(s) discarded), {}",
                session.applied_seq(),
                session.frontier_t(),
                rec.wal_records,
                rec.replayed_records,
                rec.truncated_bytes,
                if rec.resumed_from_snapshot {
                    "resumed from state snapshot"
                } else {
                    "seeded from dataset timeline"
                },
            );
            if session.read_only() {
                eprintln!(
                    "WARNING: ingest session is read-only: {}",
                    session.stats().read_only_reason
                );
            }
            let session = std::rc::Rc::new(std::cell::RefCell::new(session));
            ServeEngine::new(
                cfg,
                data.num_entities(),
                data.num_relations(),
                Box::new(SessionScorer { session: session.clone() }),
                Box::new(fallback),
            )
            .with_ingest(session)
        }
        None => ServeEngine::new(
            cfg,
            data.num_entities(),
            data.num_relations(),
            Box::new(ModelScorer { model, ctx }),
            Box::new(fallback),
        ),
    };

    // Optional name vocabularies, the ICEWS dump convention.
    let dir = std::path::Path::new(&data_spec);
    if dir.is_dir() {
        let optional = |file: &str| -> Result<Option<Vocab>, Box<dyn std::error::Error>> {
            let p = dir.join(file);
            if p.is_file() {
                Ok(Some(load_vocab_file(&p)?))
            } else {
                Ok(None)
            }
        };
        let ents = optional("entity2id.txt")?;
        let rels = optional("relation2id.txt")?;
        if ents.is_some() || rels.is_some() {
            eprintln!("name vocabularies loaded; requests may use strings for s/r");
        }
        engine = engine.with_vocabs(ents, rels);
    }

    install_term_handler();
    engine.calibrate();
    eprintln!(
        "serving {} ({} entities, {} relations); full scorer ≈ {:.1} ms, budget {}",
        data.name,
        data.num_entities(),
        data.num_relations(),
        engine.estimated_full_ms(),
        budget.map_or("unlimited".to_owned(), |b| format!("{b} ms")),
    );

    match listen {
        Some(addr) => {
            let listener = std::net::TcpListener::bind(&addr)?;
            eprintln!("listening on {}", listener.local_addr()?);
            let server_cfg = ServerConfig {
                workers,
                max_queue,
                batch_window_ms,
                max_connections: max_conns,
                max_ingest_queue,
            };
            eprintln!(
                "concurrent front end: {workers} worker(s), queue depth {max_queue}, \
                 batch window {batch_window_ms} ms"
            );
            serve_concurrent(&engine, listener, &server_cfg)?;
        }
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            serve_lines(&engine, stdin.lock(), stdout.lock())?;
        }
    }
    Ok(())
}

/// `hisres lint` — run the workspace invariant checks (see `hisres-lint`).
pub fn lint(args: &Args) -> CmdResult {
    let deny_all = args.flag("deny-all");
    let json = args.flag("json");
    let out = args.get("out").map(std::path::PathBuf::from);
    let root = match args.get("root") {
        Some(r) => std::path::PathBuf::from(r),
        None => {
            let cwd = std::env::current_dir()?;
            hisres_lint::find_workspace_root(&cwd)
                .ok_or_else(|| format!("no workspace root found above {}", cwd.display()))?
        }
    };
    args.reject_unknown()?;
    let report = hisres_lint::run(&root, &hisres_lint::Options { deny_all })?;
    let rendered = if json {
        report.to_json().to_json_string()
    } else {
        let mut s = String::new();
        for d in &report.diagnostics {
            s.push_str(&d.to_string());
            s.push('\n');
        }
        s.push_str(&report.graph_summary());
        s.push('\n');
        s.push_str(&format!(
            "hisres lint: {} file(s), {} diagnostic(s), {} suppressed{}",
            report.files_scanned,
            report.diagnostics.len(),
            report.suppressed,
            if report.has_errors() { " — FAIL" } else { " — OK" }
        ));
        s
    };
    match &out {
        Some(path) => atomic_write(path, rendered.as_bytes())?,
        None => println!("{rendered}"),
    }
    if report.has_errors() {
        return Err(format!(
            "{} lint violation(s); see diagnostics above (suppress a safe use \
             with `// lint:allow(<rule>): <reason>`)",
            report
                .diagnostics
                .iter()
                .filter(|d| d.severity == hisres_lint::diag::Severity::Error)
                .count()
        )
        .into());
    }
    Ok(())
}

pub use eval_cmd as eval;
pub use serve_cmd as serve;
pub use train_cmd as train;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(str::to_owned)).unwrap()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("hisres_cli_{}_{}", name, std::process::id()))
    }

    #[test]
    fn resolve_data_accepts_builtin_names() {
        let d = resolve_data("icews14s-syn").unwrap();
        assert_eq!(d.num_entities(), 120);
    }

    #[test]
    fn resolve_data_rejects_nonsense() {
        assert!(resolve_data("does-not-exist").is_err());
    }

    #[test]
    fn generate_then_stats_round_trip() {
        let dir = tmp("gen");
        let a = parse(&format!("generate --dataset icews14s-syn --out {}", dir.display()));
        generate(&a).unwrap();
        let d = resolve_data(dir.to_str().unwrap()).unwrap();
        assert_eq!(d.num_entities(), 120);
        assert!(d.train.len() > 1000);
        let s = parse(&format!("stats --data {}", dir.display()));
        stats(&s).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn train_eval_predict_round_trip() {
        let data_dir = tmp("data");
        generate(&parse(&format!(
            "generate --dataset icews14s-syn --out {}",
            data_dir.display()
        )))
        .unwrap();
        let ckpt = tmp("model.ckpt");
        train_cmd(&parse(&format!(
            "train --data {} --out {} --epochs 1 --dim 8 --patience 0 --quiet",
            data_dir.display(),
            ckpt.display()
        )))
        .unwrap();
        eval_cmd(&parse(&format!(
            "eval --model {} --data {} --relations",
            ckpt.display(),
            data_dir.display()
        )))
        .unwrap();
        predict(&parse(&format!(
            "predict --model {} --data {} --subject 0 --relation 0 --topk 3 --explain",
            ckpt.display(),
            data_dir.display()
        )))
        .unwrap();
        std::fs::remove_dir_all(&data_dir).ok();
        std::fs::remove_file(&ckpt).ok();
    }

    #[test]
    fn train_state_then_resume_round_trip() {
        let data_dir = tmp("resume_data");
        generate(&parse(&format!(
            "generate --dataset icews14s-syn --out {}",
            data_dir.display()
        )))
        .unwrap();
        let ckpt = tmp("resume_model.ckpt");
        let state = tmp("resume_state.ckpt");
        train_cmd(&parse(&format!(
            "train --data {} --out {} --state {} --epochs 1 --dim 8 --patience 0 --quiet",
            data_dir.display(),
            ckpt.display(),
            state.display()
        )))
        .unwrap();
        // the state file holds one completed epoch; resuming to 2 works
        // without re-specifying any model flags
        train_cmd(&parse(&format!(
            "train --data {} --out {} --resume {} --epochs 2 --patience 0 --quiet",
            data_dir.display(),
            ckpt.display(),
            state.display()
        )))
        .unwrap();
        std::fs::remove_dir_all(&data_dir).ok();
        std::fs::remove_file(&ckpt).ok();
        std::fs::remove_file(&state).ok();
    }

    #[test]
    fn train_rejects_bad_guard_policy() {
        let a = parse("train --data icews14s-syn --out /tmp/x --guard never");
        assert!(train_cmd(&a).unwrap_err().to_string().contains("--guard"));
    }

    #[test]
    fn train_rejects_unknown_option() {
        let a = parse("train --data icews14s-syn --out /tmp/x --epohcs 1");
        assert!(train_cmd(&a).unwrap_err().to_string().contains("epohcs"));
    }

    #[test]
    fn serve_rejects_bad_budget() {
        let a = parse("serve --model /tmp/none.ckpt --data icews14s-syn --budget-ms nan");
        let err = serve_cmd(&a).unwrap_err().to_string();
        assert!(err.contains("budget-ms"), "{err}");
    }

    #[test]
    fn serve_reports_missing_checkpoint_as_typed_error() {
        let a = parse("serve --model /definitely/not/here.ckpt --data icews14s-syn");
        let err = serve_cmd(&a).unwrap_err();
        assert!(err.to_string().contains("checkpoint"), "{err}");
        assert!(err.source().is_some(), "I/O cause should be chained");
    }

    #[test]
    fn eval_rejects_vocabulary_mismatch() {
        let ckpt = tmp("mismatch.ckpt");
        let cfg = HisResConfig { dim: 8, conv_channels: 2, ..Default::default() };
        let m = HisRes::new(&cfg, 5, 2); // 5 entities, not 120
        m.save_checkpoint(&ckpt).unwrap();
        let a = parse(&format!("eval --model {} --data icews14s-syn", ckpt.display()));
        let err = eval_cmd(&a).unwrap_err().to_string();
        std::fs::remove_file(&ckpt).ok();
        assert!(err.contains("entities"), "{err}");
    }
}
