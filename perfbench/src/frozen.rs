//! `frozen_serve`: a trained checkpoint served over the fixed
//! end-of-validation timeline through `ServeEngine::handle_parsed_batch`.

use crate::inputs::{self, Batch};
use crate::serving::{self, check_query, send, Answer, Names, ScorerCounts, TracedScorer};
use crate::stats::{cpu_s, mean, median, quantile};
use crate::trace::{self, span};
use crate::Outcome;
use hisres::serve::{
    load_servable_model, serve_concurrent, ModelScorer, ServeConfig, ServeEngine, ServeScorer,
    ServerConfig,
};
use hisres::{score_at, score_at_topk, HisRes, ScoreCtx};
use hisres_baselines::FrequencyScorer;
use hisres_graph::Quad;
use hisres_util::fsio::FaultInjector;
use hisres_util::retry::BackoffPolicy;
use hisres_util::rng::rngs::StdRng;
use hisres_util::rng::SeedableRng;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

const NAMES: Names = Names {
    parse: "frozen.serve.parse",
    batch: "frozen.serve.batch",
    scorer: "frozen.serve.scorer",
    local: "frozen.model.encode_local",
    graph: "frozen.graph.relevant_graph",
    global: "frozen.model.encode_global",
    norms: "frozen.topk.block_norms",
    decode: "frozen.model.decode_topk",
};

/// Solo re-asks per run (batching must be invisible).
const SOLO_SAMPLE: usize = 32;

/// What every frozen set-up and check needs.
struct Fixture {
    num_entities: usize,
    num_relations: usize,
    /// Train + valid events: the served timeline ends where the test
    /// split begins.
    history: Vec<Quad>,
    /// Held-out `(s, r, gold)` items: raw and inverse test events.
    pool: Vec<(u32, u32, u32)>,
    /// The held-out pairs the timed rounds ask, with their popularity in
    /// `history` (see [`inputs::popular_pairs`]).
    popular: Vec<((u32, u32, u32), u64)>,
    /// Dense score row of every held-out pair, from `score_at`.
    dense: BTreeMap<(u32, u32), Vec<f32>>,
}

impl Fixture {
    fn new(ckpt: &Path) -> Result<Fixture, String> {
        let data = inputs::dataset();
        let nr = data.num_relations() as u32;
        let mut history = data.train.quads.clone();
        history.extend_from_slice(&data.valid.quads);
        let pool = inputs::quad_items(&data.test.quads, nr);
        let popular = inputs::popular_pairs(&pool, &history, nr);
        let mut fx = Fixture {
            num_entities: data.num_entities(),
            num_relations: data.num_relations(),
            history,
            pool,
            popular,
            dense: BTreeMap::new(),
        };
        let (model, ctx) = fx.load(ckpt)?;
        let mut pairs: Vec<(u32, u32)> = fx.pool.iter().map(|&(s, r, _)| (s, r)).collect();
        pairs.sort_unstable();
        pairs.dedup();
        let rows = score_at(&model, &ctx, &pairs);
        fx.dense = pairs
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, rows.row(i).to_vec()))
            .collect();
        Ok(fx)
    }

    /// Checkpoint load and context build, each under its span.
    fn load(&self, ckpt: &Path) -> Result<(HisRes, ScoreCtx), String> {
        let model = span("ckpt.load", || {
            load_servable_model(ckpt, &BackoffPolicy::default(), &FaultInjector::none())
        })
        .map_err(|e| format!("checkpoint load: {e}"))?;
        let ctx = span("ctx.build", || {
            ScoreCtx::from_quads(self.num_entities, self.num_relations, self.history.clone())
        });
        Ok((model, ctx))
    }

    /// The serving engine over `full`, with the frequency fallback.
    fn engine(&self, full: Box<dyn ServeScorer>) -> ServeEngine {
        let fallback =
            FrequencyScorer::from_quads(self.num_entities, self.num_relations, &self.history);
        ServeEngine::new(
            ServeConfig::default(),
            self.num_entities,
            self.num_relations,
            full,
            Box::new(fallback),
        )
    }

    /// One cold set-up: checkpoint load → serving engine ready, and its
    /// CPU time.
    fn plain_engine(&self, ckpt: &Path) -> Result<(ServeEngine, f64), String> {
        let c0 = cpu_s();
        let (model, ctx) = self.load(ckpt)?;
        let engine = self.engine(Box::new(ModelScorer { model, ctx }));
        Ok((engine, cpu_s() - c0))
    }

    /// Checks one reply against the pair's dense row.
    fn check(&self, line: &str, item: (u32, u32, u32)) -> Result<Answer, String> {
        let row = self.dense.get(&(item.0, item.1)).map(Vec::as_slice);
        check_query(line, self.num_entities, row)
    }
}

/// Per-query results of one played round.
#[derive(Default)]
struct Played {
    /// Per query: CPU time of its batch.
    latencies_ms: Vec<f64>,
    /// Per query: wall time of its batch.
    wall_latencies_ms: Vec<f64>,
    /// CPU time of all batches.
    cpu_ms: f64,
    allocs: u64,
    queries: u64,
    failed: u64,
    answers: Vec<Option<Vec<(u32, f64)>>>,
}

/// Plays a round of batches and checks every reply afterwards.
fn play(
    engine: &ServeEngine,
    fx: &Fixture,
    round: &[Batch],
    after_batch: &mut dyn FnMut(&Batch) -> Result<(), String>,
) -> Result<Played, String> {
    let mut p = Played::default();
    let mut replies = Vec::with_capacity(round.len());
    for b in round {
        let sent = send(engine, &b.lines, &NAMES);
        p.cpu_ms += sent.cpu_ms;
        p.allocs += sent.allocs;
        p.queries += b.lines.len() as u64;
        p.latencies_ms
            .extend(std::iter::repeat_n(sent.cpu_ms, b.lines.len()));
        p.wall_latencies_ms
            .extend(std::iter::repeat_n(sent.wall_ms, b.lines.len()));
        after_batch(b)?;
        replies.push(sent.replies);
    }
    for (b, lines) in round.iter().zip(replies) {
        if lines.len() != b.items.len() {
            return Err(format!(
                "{} replies to {} queries",
                lines.len(),
                b.items.len()
            ));
        }
        for (line, &item) in lines.iter().zip(&b.items) {
            match fx.check(line, item)? {
                Answer::Ok(preds) => p.answers.push(Some(preds)),
                Answer::Failed => {
                    p.failed += 1;
                    p.answers.push(None);
                }
            }
        }
    }
    Ok(p)
}

/// Re-asks a sample of a played round's queries one at a time; each solo
/// answer must equal the batched one.
fn solo_check(
    engine: &ServeEngine,
    fx: &Fixture,
    round: &[Batch],
    played: &Played,
) -> Result<(), String> {
    let flat: Vec<(&String, (u32, u32, u32))> = round
        .iter()
        .flat_map(|b| b.lines.iter().zip(b.items.iter().copied()))
        .collect();
    let step = (flat.len() / SOLO_SAMPLE).max(1);
    for i in (0..flat.len()).step_by(step).take(SOLO_SAMPLE) {
        let (line, item) = flat[i];
        let sent = send(engine, std::slice::from_ref(line), &NAMES);
        let solo = match fx.check(&sent.replies[0], item)? {
            Answer::Ok(p) => Some(p),
            Answer::Failed => None,
        };
        if solo != played.answers[i] {
            return Err(format!(
                "solo answer to {line} differs from the batched one"
            ));
        }
    }
    Ok(())
}

/// Served MRR@10 (raw, ×100) over every held-out item once, in batches
/// of [`inputs::MAX_BATCH`] — independent of the seed.
fn quality(engine: &ServeEngine, fx: &Fixture) -> Result<f64, String> {
    let mut rr = 0.0;
    let mut id = 0;
    for chunk in fx.pool.chunks(inputs::MAX_BATCH) {
        let lines: Vec<String> = chunk
            .iter()
            .map(|&(s, r, _)| {
                id += 1;
                inputs::query_line(s, r, id)
            })
            .collect();
        let sent = send(engine, &lines, &NAMES);
        for (line, &item) in sent.replies.iter().zip(chunk) {
            match fx.check(line, item)? {
                Answer::Ok(preds) => rr += crate::check::reciprocal_rank(&preds, item.2),
                Answer::Failed => return Err(format!("quality query failed: {line}")),
            }
        }
    }
    Ok(100.0 * rr / fx.pool.len() as f64)
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let ckpt = inputs::ensure_checkpoint()?;
    let fx = Fixture::new(&ckpt)?;
    let (engine, first_setup) = fx.plain_engine(&ckpt)?;
    let mut setups = vec![first_setup];
    let round = inputs::frozen_round(&fx.popular, seed);
    play(&engine, &fx, &round, &mut |_| Ok(()))?; // warm-up, checked, untimed

    let mut total = Played::default();
    let mut last = Played::default();
    let mut rates = Vec::new();
    while total.cpu_ms < seconds * 1e3 {
        let p = play(&engine, &fx, &round, &mut |_| Ok(()))?;
        rates.push(p.queries as f64 / (p.cpu_ms / 1e3));
        total.latencies_ms.extend_from_slice(&p.latencies_ms);
        total.cpu_ms += p.cpu_ms;
        total.allocs += p.allocs;
        total.queries += p.queries;
        total.failed += p.failed;
        last = p;
        // cold set-ups are spread over the run so host-speed swings hit
        // them the way they hit the queries
        setups.push(fx.plain_engine(&ckpt)?.1);
    }
    if let Err(e) = solo_check(&engine, &fx, &round, &last) {
        out.errors.push(e);
    }
    let q = quality(&engine, &fx)?;

    out.attempted += total.queries;
    out.failed += total.failed;
    let n = total.queries.max(1) as f64;
    out.metric("setup_s", median(&setups), "s");
    out.metric("ops_per_s", median(&rates), "1/s");
    out.metric("op_p50_ms", median(&total.latencies_ms), "ms");
    out.metric("allocs_per_op", total.allocs as f64 / n, "count");
    out.metric("quality_pct", q, "%");
    Ok(())
}

/// The traced profile of the frozen path: untraced and traced rounds
/// alternate for `seconds`; every traced scorer call is compared with the
/// program's `score_at_topk` on the same queries.
pub fn profile(seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let ckpt = inputs::ensure_checkpoint()?;
    let fx = Fixture::new(&ckpt)?;
    let (plain, _) = fx.plain_engine(&ckpt)?;
    let counts = Rc::new(ScorerCounts::default());
    let last = Rc::new(RefCell::new(None));
    trace::set_enabled(true);
    for _ in 0..5 {
        fx.load(&ckpt)?;
    }
    trace::set_enabled(false);
    let mc = Rc::new(fx.load(&ckpt)?);
    let (m1, m2, c) = (mc.clone(), mc.clone(), counts.clone());
    let traced = fx.engine(Box::new(TracedScorer {
        name: NAMES.scorer,
        topk: Box::new(move |q, k| {
            let (model, ctx) = &*m1;
            let start = ctx.snapshots.len().saturating_sub(model.cfg.history_len);
            let local = || {
                let mut rng = StdRng::seed_from_u64(0);
                model.encode_local(&ctx.snapshots[start..], ctx.t, false, &mut rng)
            };
            serving::traced_topk(model, local, &ctx.global, q, k, &NAMES, &c)
        }),
        dense: Box::new(move |q| score_at(&m2.0, &m2.1, q)),
        last: last.clone(),
    }));

    let round = inputs::frozen_round(&fx.popular, seed);
    play(&plain, &fx, &round, &mut |_| Ok(()))?;
    let mut identity = |b: &Batch| -> Result<(), String> {
        let queries: Vec<(u32, u32)> = b.items.iter().map(|&(s, r, _)| (s, r)).collect();
        let program = score_at_topk(&mc.0, &mc.1, &queries, inputs::TOPK);
        if last.borrow_mut().take() != Some(program) {
            return Err("traced stages differ from score_at_topk".into());
        }
        Ok(())
    };
    play(&traced, &fx, &round, &mut identity)?;

    let (mut untraced_ms, mut untraced_wall_ms, mut traced_ms) =
        (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds {
        let p = play(&plain, &fx, &round, &mut |_| Ok(()))?;
        untraced_ms.extend_from_slice(&p.latencies_ms);
        untraced_wall_ms.extend_from_slice(&p.wall_latencies_ms);
        attempted += p.queries;
        failed += p.failed;
        trace::set_enabled(true);
        let p = play(&traced, &fx, &round, &mut identity);
        trace::set_enabled(false);
        let p = p?;
        traced_ms.extend_from_slice(&p.latencies_ms);
        attempted += p.queries;
        failed += p.failed;
    }
    out.attempted += attempted;
    out.failed += failed;

    let rtt = frontend_rtt(&fx, &ckpt, &round)?;
    let s = trace::summary();
    let g = |n: &str| s.get(n).copied().unwrap_or_default();
    let scorer = g(NAMES.scorer);
    let c = &counts;
    out.metric("ckpt.load_ms", g("ckpt.load").self_ms(), "ms");
    out.metric("ctx.build_ms", g("ctx.build").self_ms(), "ms");
    out.metric("frozen.serve.parse_us", g(NAMES.parse).self_us(), "us");
    out.metric("frozen.serve.scorer_ms", scorer.total_ms(), "ms");
    out.metric(
        "frozen.serve.engine_self_ms",
        g(NAMES.batch).self_ms(),
        "ms",
    );
    out.metric(
        "frozen.serve.engine_self_allocs",
        g(NAMES.batch).allocs(),
        "count",
    );
    out.metric(
        "frozen.serve.batch_queries",
        c.queries.get() as f64 / c.calls.get().max(1) as f64,
        "count",
    );
    out.metric(
        "frozen.serve.distinct_ratio",
        c.distinct.get() as f64 / c.queries.get().max(1) as f64,
        "ratio",
    );
    out.metric("frozen.serve.frontend_rtt_ms", rtt, "ms");
    out.metric(
        "frozen.model.encode_local_ms",
        g(NAMES.local).self_ms(),
        "ms",
    );
    out.metric(
        "frozen.model.encode_local_allocs",
        g(NAMES.local).allocs(),
        "count",
    );
    out.metric(
        "frozen.graph.relevant_graph_us",
        g(NAMES.graph).self_us(),
        "us",
    );
    out.metric(
        "frozen.graph.relevant_edges",
        c.edges.get() as f64 / c.distinct.get().max(1) as f64,
        "count",
    );
    out.metric(
        "frozen.model.encode_global_ms",
        g(NAMES.global).self_ms(),
        "ms",
    );
    out.metric(
        "frozen.model.encode_global_allocs",
        g(NAMES.global).allocs(),
        "count",
    );
    out.metric(
        "frozen.model.decode_topk_ms",
        g(NAMES.decode).self_ms(),
        "ms",
    );
    out.metric(
        "frozen.model.decode_topk_allocs",
        g(NAMES.decode).allocs(),
        "count",
    );
    out.metric("frozen.eval.unexplained_ms", scorer.self_ms(), "ms");
    out.metric(
        "frozen.query_p99_ms",
        quantile(&untraced_wall_ms, 0.99),
        "ms",
    );
    out.metric(
        "frozen.trace_overhead_pct",
        100.0 * (median(&traced_ms) / median(&untraced_ms) - 1.0),
        "%",
    );
    Ok(())
}

/// Mean loopback round trip of one client against `serve_concurrent`,
/// minus the engine time each reply reports.
fn frontend_rtt(fx: &Fixture, ckpt: &Path, round: &[Batch]) -> Result<f64, String> {
    let (engine, _) = fx.plain_engine(ckpt)?;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let lines: Vec<&String> = round.iter().flat_map(|b| &b.lines).take(200).collect();
    let cfg = ServerConfig {
        workers: 1,
        ..Default::default()
    };
    std::thread::scope(|scope| {
        let client = scope.spawn(move || {
            let result = rtt_client(addr, &lines);
            // always stop the server, even when the client failed
            let stop = std::net::TcpStream::connect(addr).and_then(|mut s| {
                s.write_all(b"{\"cmd\":\"shutdown\"}\n")?;
                let mut reply = String::new();
                BufReader::new(s).read_line(&mut reply).map(|_| ())
            });
            result.and_then(|r| stop.map(|_| r).map_err(|e| e.to_string()))
        });
        let served = serve_concurrent(&engine, listener, &cfg).map_err(|e| e.to_string());
        let diffs = client
            .join()
            .map_err(|_| "rtt client panicked".to_string())??;
        served?;
        Ok(mean(&diffs))
    })
}

fn rtt_client(addr: std::net::SocketAddr, lines: &[&String]) -> Result<Vec<f64>, String> {
    let stream = std::net::TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = stream;
    let mut diffs = Vec::with_capacity(lines.len());
    for line in lines {
        let t0 = Instant::now();
        writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| e.to_string())?;
        let mut reply = String::new();
        reader.read_line(&mut reply).map_err(|e| e.to_string())?;
        let rtt = t0.elapsed().as_secs_f64() * 1e3;
        let v = hisres_util::json::parse(reply.trim()).map_err(|e| e.to_string())?;
        let engine_ms = v
            .get("latency_ms")
            .and_then(|x| x.as_f64())
            .ok_or("reply lacks latency_ms")?;
        diffs.push(rtt - engine_ms);
    }
    Ok(diffs)
}
