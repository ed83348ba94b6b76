//! `live_serve`: the same checkpoint behind a WAL-backed `IngestSession`,
//! with query batches about the next snapshot sent before each ingest.

use crate::check::{self, Reply};
use crate::inputs::{self, LiveStep};
use crate::serving::{
    self, answer_hash, check_query, send, Answer, Names, ScorerCounts, TracedScorer,
};
use crate::stats::{cpu_s, median, quantile};
use crate::trace::{self, span};
use crate::Outcome;
use hisres::ingest::{IngestRecord, IngestSession, IngestSessionConfig};
use hisres::serve::{load_servable_model, ServeConfig, ServeEngine, ServeScorer, SessionScorer};
use hisres::{EncoderState, ScoreCtx};
use hisres_baselines::FrequencyScorer;
use hisres_graph::{GlobalHistoryIndex, Quad, Snapshot};
use hisres_util::fsio::FaultInjector;
use hisres_util::json;
use hisres_util::retry::BackoffPolicy;
use hisres_util::wal::{CorruptPolicy, Wal};
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;

const NAMES: Names = Names {
    parse: "live.serve.parse",
    batch: "live.serve.batch",
    scorer: "live.serve.scorer",
    local: "live.model.state_local",
    graph: "live.graph.relevant_graph",
    global: "live.model.encode_global",
    norms: "live.topk.block_norms",
    decode: "live.model.decode_topk",
};

/// Per-query sample of the reopen check.
const REOPEN_SAMPLE: usize = 16;

struct Fixture {
    num_entities: usize,
    num_relations: usize,
    timeline: Vec<Snapshot>,
    /// Events before the cut: the session's starting context.
    prefix: Vec<Quad>,
    /// Holds the template WAL and state (made once per run).
    template: PathBuf,
    ckpt: PathBuf,
}

/// One open session behind its engine.
struct Live {
    engine: ServeEngine,
    session: Rc<RefCell<IngestSession>>,
    setup_s: f64,
}

fn wal_name(dir: &Path) -> PathBuf {
    dir.join("ingest.wal")
}

fn state_name(dir: &Path) -> PathBuf {
    dir.join("ingest.wal.state")
}

impl Fixture {
    fn new(run_dir: &Path) -> Result<Fixture, String> {
        let ckpt = inputs::ensure_checkpoint()?;
        let data = inputs::dataset();
        let timeline = inputs::long_timeline();
        let prefix = timeline[..inputs::LIVE_CUT as usize]
            .iter()
            .flat_map(|s| {
                s.triples
                    .iter()
                    .map(move |&(a, r, o)| Quad { s: a, r, o, t: s.t })
            })
            .collect();
        let fx = Fixture {
            num_entities: data.num_entities(),
            num_relations: data.num_relations(),
            timeline,
            prefix,
            template: run_dir.join("template"),
            ckpt,
        };
        // the template: a WAL holding the preload, with one state snapshot
        std::fs::create_dir_all(&fx.template).map_err(|e| e.to_string())?;
        let mut session = fx.open_session(&fx.template)?;
        for i in 0..inputs::LIVE_PRELOAD {
            let snap = &fx.timeline[(inputs::LIVE_CUT + i) as usize];
            session
                .ingest(u64::from(i + 1), Some(snap.t), &snap.triples)
                .map_err(|e| format!("template ingest: {e}"))?;
        }
        Ok(fx)
    }

    fn open_session(&self, dir: &Path) -> Result<IngestSession, String> {
        let model = span("ckpt.load", || {
            load_servable_model(
                &self.ckpt,
                &BackoffPolicy::default(),
                &FaultInjector::none(),
            )
        })
        .map_err(|e| format!("checkpoint load: {e}"))?;
        let ctx = span("ctx.build", || {
            ScoreCtx::from_quads(self.num_entities, self.num_relations, self.prefix.clone())
        });
        let mut icfg = IngestSessionConfig::new(wal_name(dir));
        icfg.snapshot_every = inputs::LIVE_SNAPSHOT_EVERY;
        span("ingest.open", || IngestSession::open(model, ctx, icfg))
            .map_err(|e| format!("session open: {e}"))
    }

    /// Copies the template into a fresh round directory (untimed), then
    /// one cold set-up: checkpoint load → session recovered from the WAL
    /// → engine ready.
    fn start(
        &self,
        dir: &Path,
        full: impl FnOnce(&Rc<RefCell<IngestSession>>) -> Box<dyn ServeScorer>,
    ) -> Result<Live, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        for (from, to) in [
            (wal_name(&self.template), wal_name(dir)),
            (state_name(&self.template), state_name(dir)),
        ] {
            std::fs::copy(from, to).map_err(|e| format!("template copy: {e}"))?;
        }
        let c0 = cpu_s();
        let session = Rc::new(RefCell::new(self.open_session(dir)?));
        let fallback =
            FrequencyScorer::from_quads(self.num_entities, self.num_relations, &self.prefix);
        let engine = ServeEngine::new(
            ServeConfig::default(),
            self.num_entities,
            self.num_relations,
            full(&session),
            Box::new(fallback),
        )
        .with_ingest(session.clone());
        Ok(Live {
            engine,
            session,
            setup_s: cpu_s() - c0,
        })
    }

    fn start_plain(&self, dir: &Path) -> Result<Live, String> {
        self.start(dir, |s| Box::new(SessionScorer { session: s.clone() }))
    }
}

/// Results of one played round.
#[derive(Default)]
struct Played {
    /// Per query: CPU time of its batch.
    query_ms: Vec<f64>,
    /// Per query: wall time of its batch.
    query_wall_ms: Vec<f64>,
    /// Per ingest: wall time (an fsync wait is not CPU time).
    ingest_wall_ms: Vec<f64>,
    /// Time of all operations: CPU time of the query batches plus wall
    /// time of the ingests, so an ingest's fsync wait counts.
    cost_ms: f64,
    allocs: u64,
    queries: u64,
    ingests: u64,
    failed: u64,
    rr_sum: f64,
    /// Per query: hash of the served answer (0 for a failed one).
    hashes: Vec<u64>,
}

/// Hooks a round calls outside its timed operations.
trait Hooks {
    /// After a query batch (the session is unchanged since it answered).
    fn after_batch(
        &mut self,
        _live: &Live,
        _items: &[(u32, u32, u32)],
        _replies: &[String],
    ) -> Result<(), String> {
        Ok(())
    }
    /// After an ingest was applied.
    fn after_ingest(&mut self, _live: &Live, _step: &LiveStep) -> Result<(), String> {
        Ok(())
    }
}

struct NoHooks;
impl Hooks for NoHooks {}

/// Checks every reply of a batch against dense `IngestSession::score` rows.
struct DenseCheck {
    num_entities: usize,
}

impl Hooks for DenseCheck {
    fn after_batch(
        &mut self,
        live: &Live,
        items: &[(u32, u32, u32)],
        replies: &[String],
    ) -> Result<(), String> {
        let queries: Vec<(u32, u32)> = items.iter().map(|&(s, r, _)| (s, r)).collect();
        let dense = live.session.borrow().score(&queries);
        for (i, line) in replies.iter().enumerate() {
            check_query(line, self.num_entities, Some(dense.row(i)))?;
        }
        Ok(())
    }
}

/// Plays one round: every step's query batches, then its ingest.
fn play(
    live: &Live,
    fx: &Fixture,
    round: &[LiveStep],
    hooks: &mut dyn Hooks,
) -> Result<Played, String> {
    let mut p = Played::default();
    let mut replies = Vec::new();
    let mut ingest_replies = Vec::with_capacity(round.len());
    for step in round {
        for b in &step.batches {
            let sent = send(&live.engine, &b.lines, &NAMES);
            p.cost_ms += sent.cpu_ms;
            p.allocs += sent.allocs;
            p.queries += b.lines.len() as u64;
            p.query_ms
                .extend(std::iter::repeat_n(sent.cpu_ms, b.lines.len()));
            p.query_wall_ms
                .extend(std::iter::repeat_n(sent.wall_ms, b.lines.len()));
            hooks.after_batch(live, &b.items, &sent.replies)?;
            replies.push((sent.replies, &b.items));
        }
        let snapshot = step.seq % inputs::LIVE_SNAPSHOT_EVERY == 0;
        let names = Names {
            batch: if snapshot {
                "live.ingest.apply_snapshot"
            } else {
                "live.ingest.apply"
            },
            ..NAMES
        };
        let sent = send(&live.engine, std::slice::from_ref(&step.ingest), &names);
        p.cost_ms += sent.wall_ms;
        p.allocs += sent.allocs;
        p.ingests += 1;
        p.ingest_wall_ms.push(sent.wall_ms);
        hooks.after_ingest(live, step)?;
        ingest_replies.push((sent.replies, step.seq, snapshot));
    }
    for (lines, items) in replies {
        for (line, &(_, _, gold)) in lines.iter().zip(items) {
            match check_query(line, fx.num_entities, None)? {
                Answer::Ok(preds) => {
                    p.rr_sum += check::reciprocal_rank(&preds, gold);
                    p.hashes.push(answer_hash(&preds));
                }
                Answer::Failed => {
                    p.failed += 1;
                    p.hashes.push(0);
                }
            }
        }
    }
    for (lines, seq, snapshot) in ingest_replies {
        match lines.first().map(|l| check::parse_reply(l)).transpose()? {
            Some(Reply::Ingest {
                outcome,
                seq: got,
                snapshot_written,
            }) if outcome == "applied" && got == seq => {
                if snapshot_written != snapshot {
                    return Err(format!("ingest {seq}: snapshot_written {snapshot_written}"));
                }
            }
            _ => p.failed += 1,
        }
    }
    let s = live.session.borrow();
    let last_t =
        fx.timeline[(inputs::LIVE_CUT + inputs::LIVE_PRELOAD + inputs::LIVE_STEPS - 1) as usize].t;
    let want_seq = u64::from(inputs::LIVE_PRELOAD + inputs::LIVE_STEPS);
    if p.failed == 0 && (s.applied_seq() != want_seq || s.frontier_t() != last_t + 1) {
        return Err(format!(
            "after the round applied_seq {} frontier {} (want {want_seq}, {})",
            s.applied_seq(),
            s.frontier_t(),
            last_t + 1
        ));
    }
    Ok(p)
}

/// Reopens a session from the round's WAL and state snapshot: its state
/// and a sample of answers must equal the live session's.
fn reopen_check(fx: &Fixture, live: Live, dir: &Path, round: &[LiveStep]) -> Result<(), String> {
    let sample: Vec<(u32, u32)> = round
        .iter()
        .rev()
        .flat_map(|st| {
            st.batches
                .iter()
                .flat_map(|b| b.items.iter().map(|&(s, r, _)| (s, r)))
        })
        .take(REOPEN_SAMPLE)
        .collect();
    let (state, answers) = {
        let s = live.session.borrow();
        (s.state_json(), s.score_topk(&sample, inputs::TOPK))
    };
    drop(live);
    let reopened = fx.open_session(dir)?;
    if reopened.state_json() != state {
        return Err("reopened session state differs from the live one".into());
    }
    if reopened.score_topk(&sample, inputs::TOPK) != answers {
        return Err("reopened session answers differ from the live one".into());
    }
    Ok(())
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let dir = inputs::run_dir();
    let result = run_in(&dir, seed, seconds, out);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(dir: &Path, seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let fx = Fixture::new(dir)?;
    let round_dir = dir.join("round");
    let round = inputs::live_round(&fx.timeline, fx.num_relations as u32, seed);
    // the first round is checked against dense rows and not timed
    let live = fx.start_plain(&round_dir)?;
    let reference = play(
        &live,
        &fx,
        &round,
        &mut DenseCheck {
            num_entities: fx.num_entities,
        },
    )?;
    let mut setups = vec![live.setup_s];
    drop(live);

    let mut total = Played::default();
    let mut last = None;
    let mut rates = Vec::new();
    while total.cost_ms < seconds * 1e3 {
        let live = fx.start_plain(&round_dir)?;
        setups.push(live.setup_s);
        let p = play(&live, &fx, &round, &mut NoHooks)?;
        rates.push(p.queries as f64 / (p.cost_ms / 1e3));
        if p.hashes != reference.hashes {
            out.errors
                .push("a timed round's answers differ from the checked round's".into());
        }
        total.query_ms.extend_from_slice(&p.query_ms);
        total.cost_ms += p.cost_ms;
        total.allocs += p.allocs;
        total.queries += p.queries;
        total.ingests += p.ingests;
        total.failed += p.failed;
        last = Some(live);
    }
    if let Some(live) = last {
        if let Err(e) = reopen_check(&fx, live, &round_dir, &round) {
            out.errors.push(e);
        }
    }
    out.attempted += total.queries + total.ingests;
    out.failed += total.failed;
    let n = total.queries.max(1) as f64;
    out.metric("setup_s", median(&setups), "s");
    out.metric("ops_per_s", median(&rates), "1/s");
    out.metric("op_p50_ms", median(&total.query_ms), "ms");
    out.metric("allocs_per_op", total.allocs as f64 / n, "count");
    out.metric(
        "quality_pct",
        100.0 * reference.rr_sum / reference.queries.max(1) as f64,
        "%",
    );
    Ok(())
}

/// Shadow copies the traced round maintains beside the session: the
/// relevance index the traced scorer reads, an encoder state advanced
/// step by step, and a side WAL receiving the same record bytes.
struct Shadow {
    global: Rc<RefCell<GlobalHistoryIndex>>,
    state: EncoderState,
    wal: Wal,
    num_relations: usize,
    last: Rc<RefCell<Option<serving::TopkRows>>>,
}

impl Hooks for Shadow {
    fn after_batch(
        &mut self,
        live: &Live,
        items: &[(u32, u32, u32)],
        _replies: &[String],
    ) -> Result<(), String> {
        let queries: Vec<(u32, u32)> = items.iter().map(|&(s, r, _)| (s, r)).collect();
        let program = live.session.borrow().score_topk(&queries, inputs::TOPK);
        if self.last.borrow_mut().take() != Some(program) {
            return Err("traced stages differ from IngestSession::score_topk".into());
        }
        Ok(())
    }

    fn after_ingest(&mut self, live: &Live, step: &LiveStep) -> Result<(), String> {
        let snap = &step.snapshot;
        let session = live.session.borrow();
        span("live.model.advance", || {
            session.model().advance_encoder_state(&mut self.state, snap)
        });
        let nr = self.num_relations;
        let mut global = self.global.borrow_mut();
        span("live.graph.index_add", || global.add_snapshot(snap, nr));
        let rec = IngestRecord {
            seq: step.seq,
            t: snap.t,
            triples: snap.triples.clone(),
        };
        let payload = json::to_string(&rec).map_err(|e| e.to_string())?;
        span("live.wal.append_sync", || {
            self.wal.append_batch(&[payload.as_bytes()])
        })
        .map_err(|e| format!("side WAL: {e}"))
    }
}

/// The traced profile of the live path: untraced and traced rounds
/// alternate for `seconds`; every traced scorer call is compared with the
/// program's `IngestSession::score_topk`, and the shadow encoder state
/// with the session's after each traced round.
pub fn profile(seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let dir = inputs::run_dir();
    let result = profile_in(&dir, seed, seconds, out);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn profile_in(dir: &Path, seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let fx = Fixture::new(dir)?;
    let round_dir = dir.join("round");
    let round = inputs::live_round(&fx.timeline, fx.num_relations as u32, seed);
    let counts = Rc::new(ScorerCounts::default());
    let (mut untraced_q, mut untraced_wall_q, mut untraced_i, mut traced_q) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let (mut wal_bytes, mut state_bytes) = (0u64, 0u64);
    // events in the WAL at the end of a round: the preload and the round
    let quads: u64 = fx.timeline[inputs::LIVE_CUT as usize..]
        .iter()
        .map(|s| s.triples.len() as u64)
        .sum();
    let mut replayed = 0u64;
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds {
        let live = fx.start_plain(&round_dir)?;
        let p = play(&live, &fx, &round, &mut NoHooks)?;
        untraced_q.extend_from_slice(&p.query_ms);
        untraced_wall_q.extend_from_slice(&p.query_wall_ms);
        untraced_i.extend_from_slice(&p.ingest_wall_ms);
        attempted += p.queries + p.ingests;
        failed += p.failed;
        drop(live);

        trace::set_enabled(true);
        let last = Rc::new(RefCell::new(None));
        let global = Rc::new(RefCell::new(GlobalHistoryIndex::new()));
        let (g, c, l) = (global.clone(), counts.clone(), last.clone());
        let live = fx.start(&round_dir, move |session| {
            let s = session.clone();
            let s2 = session.clone();
            Box::new(TracedScorer {
                name: NAMES.scorer,
                topk: Box::new(move |q, k| {
                    let session = s.borrow();
                    let model = session.model();
                    let global = g.borrow();
                    serving::traced_topk(
                        model,
                        || model.state_local_encoding(session.state()),
                        &global,
                        q,
                        k,
                        &NAMES,
                        &c,
                    )
                }),
                dense: Box::new(move |q| s2.borrow().score(q)),
                last: l,
            })
        });
        trace::set_enabled(false);
        let live = live?;
        replayed += live.session.borrow().recovery().replayed_records;
        // the shadow index: the session's context plus every WAL record
        {
            let mut gi = global.borrow_mut();
            *gi = ScoreCtx::from_quads(fx.num_entities, fx.num_relations, fx.prefix.clone()).global;
            for i in 0..inputs::LIVE_PRELOAD {
                gi.add_snapshot(
                    &fx.timeline[(inputs::LIVE_CUT + i) as usize],
                    fx.num_relations,
                );
            }
        }
        let wal_path = dir.join("side.wal");
        let _ = std::fs::remove_file(&wal_path);
        let (wal, _) = Wal::open(&wal_path, CorruptPolicy::Truncate).map_err(|e| e.to_string())?;
        let mut shadow = Shadow {
            global,
            state: live.session.borrow().state().clone(),
            wal,
            num_relations: fx.num_relations,
            last,
        };
        trace::set_enabled(true);
        let p = play(&live, &fx, &round, &mut shadow);
        trace::set_enabled(false);
        let p = p?;
        if json::to_string(&shadow.state).map_err(|e| e.to_string())?
            != live.session.borrow().state_json()
        {
            return Err("shadow encoder state differs from the session's".into());
        }
        traced_q.extend_from_slice(&p.query_ms);
        attempted += p.queries + p.ingests;
        failed += p.failed;
        wal_bytes = std::fs::metadata(wal_name(&round_dir))
            .map_err(|e| e.to_string())?
            .len();
        state_bytes = std::fs::metadata(state_name(&round_dir))
            .map_err(|e| e.to_string())?
            .len();
    }
    out.attempted += attempted;
    out.failed += failed;

    let s = trace::summary();
    let g = |n: &str| s.get(n).copied().unwrap_or_default();
    let scorer = g(NAMES.scorer);
    let c = &counts;
    out.metric("ingest.open_ms", g("ingest.open").self_ms(), "ms");
    out.metric(
        "ingest.replayed_records",
        replayed as f64 / g("ingest.open").count.max(1) as f64,
        "count",
    );
    out.metric("live.serve.scorer_ms", scorer.total_ms(), "ms");
    out.metric("live.serve.engine_self_ms", g(NAMES.batch).self_ms(), "ms");
    out.metric(
        "live.serve.engine_self_allocs",
        g(NAMES.batch).allocs(),
        "count",
    );
    out.metric(
        "live.serve.batch_queries",
        c.queries.get() as f64 / c.calls.get().max(1) as f64,
        "count",
    );
    out.metric("live.model.state_local_ms", g(NAMES.local).self_ms(), "ms");
    out.metric(
        "live.graph.relevant_graph_us",
        g(NAMES.graph).self_us(),
        "us",
    );
    out.metric(
        "live.graph.relevant_edges",
        c.edges.get() as f64 / c.distinct.get().max(1) as f64,
        "count",
    );
    out.metric(
        "live.model.encode_global_ms",
        g(NAMES.global).self_ms(),
        "ms",
    );
    out.metric("live.topk.block_norms_ms", g(NAMES.norms).self_ms(), "ms");
    out.metric("live.model.decode_topk_ms", g(NAMES.decode).self_ms(), "ms");
    out.metric("live.eval.unexplained_ms", scorer.self_ms(), "ms");
    out.metric(
        "live.ingest.apply_ms",
        g("live.ingest.apply").total_ms(),
        "ms",
    );
    out.metric(
        "live.ingest.apply_snapshot_ms",
        g("live.ingest.apply_snapshot").total_ms(),
        "ms",
    );
    out.metric(
        "live.model.advance_ms",
        g("live.model.advance").self_ms(),
        "ms",
    );
    out.metric(
        "live.graph.index_add_us",
        g("live.graph.index_add").self_us(),
        "us",
    );
    out.metric(
        "live.wal.append_sync_us",
        g("live.wal.append_sync").self_us(),
        "us",
    );
    out.metric(
        "live.wal.bytes_per_quad",
        wal_bytes as f64 / quads.max(1) as f64,
        "B",
    );
    out.metric("live.ingest.state_bytes", state_bytes as f64, "B");
    out.metric("live.query_p99_ms", quantile(&untraced_wall_q, 0.99), "ms");
    out.metric("live.ingest_p50_ms", median(&untraced_i), "ms");
    out.metric("live.ingest_p90_ms", quantile(&untraced_i, 0.90), "ms");
    out.metric(
        "live.trace_overhead_pct",
        100.0 * (median(&traced_q) / median(&untraced_q) - 1.0),
        "%",
    );
    Ok(())
}
