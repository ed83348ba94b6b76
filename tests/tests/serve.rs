//! End-to-end tests of the serving subsystem: request validation,
//! deadline degradation, panic isolation with poisoning, stats
//! accounting, retrying checkpoint loads, the stdin/stdout transport, and
//! the concurrent TCP front end (interleaved clients, admission-control
//! backpressure, shutdown draining).

use hisres::serve::{
    load_servable_model, serve_concurrent, serve_lines, ModelScorer, ServeConfig, ServeEngine,
    ServeScorer, ServerConfig,
};
use hisres::{HisRes, HisResConfig, ScoreCtx, TrainCheckpoint};
use hisres_baselines::FrequencyScorer;
use hisres_data::synthetic::{generate, SyntheticConfig};
use hisres_data::DatasetSplits;
use hisres_graph::Vocab;
use hisres_tensor::{AdamState, NdArray};
use hisres_util::fsio::FaultInjector;
use hisres_util::json::{self, Value};
use hisres_util::retry::BackoffPolicy;
use hisres_util::rng::rngs::StdRng;
use hisres_util::rng::SeedableRng;
use std::time::Duration;

const NE: usize = 16;
const NR: usize = 3;

fn tiny_data() -> DatasetSplits {
    let cfg = SyntheticConfig {
        num_entities: NE,
        num_relations: NR,
        num_timestamps: 20,
        seed: 5,
        ..Default::default()
    };
    DatasetSplits::from_tkg("tiny", "1 step", &generate(&cfg).tkg)
}

fn tiny_model() -> HisRes {
    let cfg = HisResConfig { dim: 8, conv_channels: 2, history_len: 3, ..Default::default() };
    HisRes::new(&cfg, NE, NR)
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("hisres_serve_{tag}_{}.ckpt", std::process::id()))
}

/// Deterministic stand-in for the full model: score of entity `o` is `o`.
struct RampScorer {
    ne: usize,
}

impl ServeScorer for RampScorer {
    fn name(&self) -> &str {
        "ramp"
    }
    fn score(&self, queries: &[(u32, u32)]) -> NdArray {
        let mut out = NdArray::zeros(queries.len(), self.ne);
        for q in 0..queries.len() {
            for (o, v) in out.row_mut(q).iter_mut().enumerate() {
                *v = o as f32;
            }
        }
        out
    }
}

/// A full scorer that always panics — the pathological query case.
struct PanickingScorer;

impl ServeScorer for PanickingScorer {
    fn name(&self) -> &str {
        "panicking"
    }
    fn score(&self, _queries: &[(u32, u32)]) -> NdArray {
        panic!("synthetic scorer failure")
    }
}

/// A full scorer that returns NaN — a silently corrupted checkpoint.
struct NanScorer {
    ne: usize,
}

impl ServeScorer for NanScorer {
    fn name(&self) -> &str {
        "nan"
    }
    fn score(&self, queries: &[(u32, u32)]) -> NdArray {
        NdArray::from_vec(vec![f32::NAN; queries.len() * self.ne], &[queries.len(), self.ne])
    }
}

fn fallback() -> Box<dyn ServeScorer> {
    Box::new(FrequencyScorer::from_quads(NE, NR, &tiny_data().all_quads()))
}

fn engine_with(full: Box<dyn ServeScorer>, cfg: ServeConfig) -> ServeEngine {
    ServeEngine::new(cfg, NE, NR, full, fallback())
}

fn handle(engine: &ServeEngine, line: &str) -> Value {
    json::parse(&engine.handle_line(line).line).expect("response must be valid JSON")
}

fn is_ok(v: &Value) -> bool {
    matches!(v.get("ok"), Some(Value::Bool(true)))
}

fn error_kind(v: &Value) -> Option<&str> {
    v.get("error")?.get("kind")?.as_str()
}

fn is_degraded(v: &Value) -> bool {
    matches!(v.get("degraded"), Some(Value::Bool(true)))
}

#[test]
fn validation_maps_every_failure_to_a_typed_kind() {
    let engine = engine_with(Box::new(RampScorer { ne: NE }), ServeConfig::default());
    let cases = [
        ("not json at all", "bad_json"),
        ("{\"s\": 1}", "bad_request"),                       // missing r
        ("{\"s\": 1, \"r\": 0, \"topk\": 0}", "bad_request"), // topk < 1
        ("{\"s\": 1, \"r\": 0, \"budget_ms\": -5}", "bad_request"),
        ("{\"s\": -3, \"r\": 0}", "bad_request"),             // negative id
        ("{\"s\": 9999, \"r\": 0}", "entity_out_of_range"),
        ("{\"s\": 1, \"r\": 777}", "relation_out_of_range"),
        ("{\"s\": \"Nobody\", \"r\": 0}", "unknown_entity"),  // no vocab loaded
        ("{\"s\": 1, \"r\": \"nothing\"}", "unknown_relation"),
        ("{\"cmd\": \"reboot\"}", "bad_request"),
        ("[1, 2, 3]", "bad_request"),                         // not an object
    ];
    for (line, want) in cases {
        let v = handle(&engine, line);
        assert!(!is_ok(&v), "{line} should fail");
        assert_eq!(error_kind(&v), Some(want), "for request {line}");
    }
    // every case above was counted under its kind
    let stats = engine.stats();
    assert_eq!(stats.requests, cases.len());
    assert_eq!(stats.error_total(), cases.len());
    assert_eq!(stats.ok, 0);
}

#[test]
fn valid_query_answers_with_ranked_predictions_and_echoed_id() {
    let engine = engine_with(Box::new(RampScorer { ne: NE }), ServeConfig::default());
    let v = handle(&engine, "{\"s\": 1, \"r\": 0, \"topk\": 3, \"id\": \"abc\"}");
    assert!(is_ok(&v), "{v:?}");
    assert!(!is_degraded(&v));
    assert_eq!(v.get("id").and_then(Value::as_str), Some("abc"));
    // RampScorer scores entity o as o: top three are the largest ids
    let preds = match v.get("predictions") {
        Some(Value::Arr(p)) => p,
        other => panic!("missing predictions: {other:?}"),
    };
    let ids: Vec<u64> = preds.iter().filter_map(|p| p.get("o")?.as_u64()).collect();
    assert_eq!(ids, vec![NE as u64 - 1, NE as u64 - 2, NE as u64 - 3]);
}

#[test]
fn name_lookup_works_once_vocabularies_are_attached() {
    let mut ents = Vocab::new();
    let mut rels = Vocab::new();
    for i in 0..NE {
        ents.intern(&format!("entity_{i}"));
    }
    for i in 0..NR {
        rels.intern(&format!("rel_{i}"));
    }
    let engine = ServeEngine::new(
        ServeConfig::default(),
        NE,
        NR,
        Box::new(RampScorer { ne: NE }),
        fallback(),
    )
    .with_vocabs(Some(ents), Some(rels));
    let v = handle(&engine, "{\"s\": \"entity_1\", \"r\": \"rel_0\", \"topk\": 1}");
    assert!(is_ok(&v), "{v:?}");
    let v = handle(&engine, "{\"s\": \"entity_99\", \"r\": \"rel_0\"}");
    assert_eq!(error_kind(&v), Some("unknown_entity"));
}

#[test]
fn zero_budget_degrades_to_the_fallback_scorer() {
    // per-request override of an unlimited server default
    let engine = engine_with(Box::new(RampScorer { ne: NE }), ServeConfig::default());
    let v = handle(&engine, "{\"s\": 1, \"r\": 0, \"budget_ms\": 0}");
    assert!(is_ok(&v), "{v:?}");
    assert!(is_degraded(&v), "{v:?}");
    assert_eq!(v.get("reason").and_then(Value::as_str), Some("budget"));

    // server-wide zero default, no per-request field
    let cfg = ServeConfig { default_budget_ms: Some(0.0), ..Default::default() };
    let engine = engine_with(Box::new(RampScorer { ne: NE }), cfg);
    let v = handle(&engine, "{\"s\": 1, \"r\": 0}");
    assert!(is_degraded(&v), "{v:?}");
    assert_eq!(engine.stats().degraded, 1);
}

#[test]
fn nan_scores_degrade_instead_of_surfacing() {
    let engine = engine_with(Box::new(NanScorer { ne: NE }), ServeConfig::default());
    let v = handle(&engine, "{\"s\": 1, \"r\": 0}");
    assert!(is_ok(&v), "{v:?}");
    assert!(is_degraded(&v), "{v:?}");
    assert_eq!(v.get("reason").and_then(Value::as_str), Some("invalid_scores"));
}

#[test]
fn panics_are_isolated_and_eventually_poison_the_engine() {
    let cfg = ServeConfig { max_panics: 2, ..Default::default() };
    let engine = engine_with(Box::new(PanickingScorer), cfg);

    // first two panics: each query still gets a degraded answer
    for _ in 0..2 {
        let v = handle(&engine, "{\"s\": 1, \"r\": 0}");
        assert!(is_ok(&v) && is_degraded(&v), "{v:?}");
        assert_eq!(v.get("reason").and_then(Value::as_str), Some("panic"));
    }
    assert!(engine.poisoned());

    // poisoned: the full scorer is never touched again
    let v = handle(&engine, "{\"s\": 1, \"r\": 0}");
    assert!(is_ok(&v) && is_degraded(&v), "{v:?}");
    assert_eq!(v.get("reason").and_then(Value::as_str), Some("poisoned"));

    let stats = engine.stats();
    assert_eq!(stats.panics, 2, "the poisoned request must not re-panic");
    assert_eq!(stats.ok, 3);
    assert_eq!(stats.degraded, 3);
}

#[test]
fn stats_account_for_every_request_and_report_percentiles() {
    let engine = engine_with(Box::new(RampScorer { ne: NE }), ServeConfig::default());
    for _ in 0..5 {
        handle(&engine, "{\"s\": 1, \"r\": 0}");
    }
    handle(&engine, "garbage");
    handle(&engine, "{\"s\": 1, \"r\": 0, \"budget_ms\": 0}");
    let v = handle(&engine, "{\"cmd\": \"stats\"}");
    assert!(is_ok(&v), "{v:?}");
    let stats = match v.get("stats") {
        Some(s) => s,
        None => panic!("missing stats block: {v:?}"),
    };
    assert_eq!(stats.get("requests").and_then(Value::as_u64), Some(8));
    assert_eq!(stats.get("ok").and_then(Value::as_u64), Some(6));
    assert_eq!(stats.get("degraded").and_then(Value::as_u64), Some(1));
    assert_eq!(
        stats.get("errors").and_then(|e| e.get("bad_json")).and_then(Value::as_u64),
        Some(1)
    );
    assert!(stats.get("p50_ms").and_then(Value::as_f64).is_some());
    assert!(stats.get("p99_ms").and_then(Value::as_f64).is_some());
}

#[test]
fn serve_lines_replies_per_line_and_emits_final_stats() {
    let engine = engine_with(Box::new(RampScorer { ne: NE }), ServeConfig::default());
    let input = "{\"s\": 1, \"r\": 0}\n\n{\"bad\"\n{\"cmd\": \"shutdown\"}\n{\"s\": 2, \"r\": 0}\n";
    let mut out = Vec::new();
    serve_lines(&engine, input.as_bytes(), &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    // query, bad json, shutdown ack, final stats — the post-shutdown query
    // is never processed
    assert_eq!(lines.len(), 4, "{text}");
    assert!(is_ok(&json::parse(lines[0]).unwrap()));
    assert_eq!(error_kind(&json::parse(lines[1]).unwrap()), Some("bad_json"));
    let stats = json::parse(lines[3]).unwrap();
    assert_eq!(
        stats.get("stats").and_then(|s| s.get("requests")).and_then(Value::as_u64),
        Some(3)
    );
}

#[test]
fn tcp_transport_round_trips_and_survives_client_hangup() {
    use std::io::{BufRead, BufReader, Write};
    let engine = engine_with(Box::new(RampScorer { ne: NE }), ServeConfig::default());
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    let clients = std::thread::spawn(move || {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"{\"s\": 1, \"r\": 0, \"topk\": 2}\n")
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        // a second query whose reply (and the final stats line) is never
        // read: hang up without a clean shutdown — the server must survive
        stream
            .write_all(b"{\"s\": 2, \"r\": 0, \"topk\": 2}\n")
            .unwrap();
        drop((reader, stream));
        // with one connection worker, this client is only served once the
        // hung-up connection has been fully released
        let after = run_client(addr, vec!["{\"s\": 3, \"r\": 0, \"topk\": 2}".into()], None);
        (reply, after)
    });

    // the engine is deliberately !Send, so the batcher runs on the main
    // thread and the clients on the spawned one
    let cfg = ServerConfig {
        workers: 1,
        max_connections: Some(2),
        ..ServerConfig::default()
    };
    serve_concurrent(&engine, listener, &cfg).unwrap();
    let (reply, after) = clients.join().unwrap();
    let v = json::parse(reply.trim()).unwrap();
    assert!(is_ok(&v), "{v:?}");
    assert_eq!(
        after.len(),
        2,
        "one reply plus the final stats line: {after:?}"
    );
    assert!(is_ok(&after[0]), "{:?}", after[0]);
    assert!(engine.stats().ok >= 2, "{:?}", engine.stats());
}

/// A full scorer that takes a fixed wall-clock time per call — drives
/// the admission-control and budget-degradation tests deterministically.
struct SlowScorer {
    ne: usize,
    delay: Duration,
}

impl ServeScorer for SlowScorer {
    fn name(&self) -> &str {
        "slow"
    }
    fn score(&self, queries: &[(u32, u32)]) -> NdArray {
        std::thread::sleep(self.delay);
        let mut out = NdArray::zeros(queries.len(), self.ne);
        for q in 0..queries.len() {
            for (o, v) in out.row_mut(q).iter_mut().enumerate() {
                *v = o as f32;
            }
        }
        out
    }
}

/// Writes `lines` down one connection (optionally pacing them), half-closes
/// the write side, and returns every reply line parsed as JSON.
fn run_client(
    addr: std::net::SocketAddr,
    lines: Vec<String>,
    pace: Option<Duration>,
) -> Vec<Value> {
    use std::io::{BufRead, BufReader, Write};
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    for line in &lines {
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        if let Some(d) = pace {
            stream.flush().unwrap();
            std::thread::sleep(d);
        }
    }
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    BufReader::new(stream)
        .lines()
        .map(|l| {
            let l = l.unwrap();
            json::parse(&l).unwrap_or_else(|e| panic!("bad reply line {l:?}: {e}"))
        })
        .collect()
}

fn reply_id(v: &Value) -> Option<&str> {
    v.get("id").and_then(Value::as_str)
}

fn stats_of(v: &Value) -> &Value {
    match v.get("stats") {
        Some(s) => s,
        None => panic!("expected a stats line, got {v:?}"),
    }
}

#[test]
fn concurrent_clients_get_ordered_uncrossed_replies_and_stats_add_up() {
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 12;
    let engine = engine_with(Box::new(RampScorer { ne: NE }), ServeConfig::default());
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    // Interleaved mix per client: tagged valid queries, one bad-json line
    // and one out-of-range entity; client 3 paces its writes (the slow
    // client that must not stall anyone else).
    let client_lines = |c: usize| -> Vec<String> {
        (0..PER_CLIENT)
            .map(|i| match i {
                4 => "this is not json".to_owned(),
                8 => format!("{{\"s\": 9999, \"r\": 0, \"id\": \"c{c}-{i}\"}}"),
                _ => format!("{{\"s\": {}, \"r\": 0, \"topk\": 2, \"id\": \"c{c}-{i}\"}}", i % NE),
            })
            .collect()
    };
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let lines = client_lines(c);
            let pace = (c == 3).then(|| Duration::from_millis(2));
            std::thread::spawn(move || run_client(addr, lines, pace))
        })
        .collect();

    // The engine is !Send, so the batcher runs here on the main thread;
    // fewer workers than clients exercises connection queueing too.
    let cfg = ServerConfig {
        workers: 3,
        max_queue: 256,
        batch_window_ms: 1.0,
        max_connections: Some(CLIENTS),
        ..ServerConfig::default()
    };
    serve_concurrent(&engine, listener, &cfg).unwrap();

    for (c, client) in clients.into_iter().enumerate() {
        let replies = client.join().unwrap();
        // one reply per request line, plus the final stats line
        assert_eq!(replies.len(), PER_CLIENT + 1, "client {c}");
        for (i, v) in replies[..PER_CLIENT].iter().enumerate() {
            match i {
                4 => assert_eq!(error_kind(v), Some("bad_json"), "client {c} line {i}"),
                8 => {
                    assert_eq!(error_kind(v), Some("entity_out_of_range"), "client {c} line {i}");
                    // errors echo the id too: ordering is still checkable
                    assert_eq!(reply_id(v), Some(format!("c{c}-{i}").as_str()));
                }
                _ => {
                    assert!(is_ok(v), "client {c} line {i}: {v:?}");
                    // replies arrive in request order with the request's
                    // own id — no lost and no cross-wired responses
                    assert_eq!(reply_id(v), Some(format!("c{c}-{i}").as_str()));
                    let preds = match v.get("predictions") {
                        Some(Value::Arr(p)) => p,
                        other => panic!("missing predictions: {other:?}"),
                    };
                    let top: Vec<u64> =
                        preds.iter().filter_map(|p| p.get("o")?.as_u64()).collect();
                    assert_eq!(top, vec![NE as u64 - 1, NE as u64 - 2], "client {c} line {i}");
                }
            }
        }
        let stats = stats_of(&replies[PER_CLIENT]);
        assert!(stats.get("requests").and_then(Value::as_u64).is_some());
    }

    // totals add up across the whole run: every line of every client was
    // counted, nothing was rejected, nothing panicked
    let stats = engine.stats();
    assert_eq!(stats.requests, CLIENTS * PER_CLIENT);
    assert_eq!(stats.ok, CLIENTS * (PER_CLIENT - 2));
    assert_eq!(stats.error_total(), CLIENTS * 2);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.panics, 0);
}

#[test]
fn shutdown_drains_already_admitted_requests_before_exit() {
    let engine = engine_with(Box::new(RampScorer { ne: NE }), ServeConfig::default());
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    // One pipelined burst: five queries then a shutdown command. The
    // queries are queued ahead of the shutdown, so every one must still
    // be answered before the server exits (the queue drains).
    let mut lines: Vec<String> =
        (0..5).map(|i| format!("{{\"s\": {i}, \"r\": 0, \"id\": \"q{i}\"}}")).collect();
    lines.push("{\"cmd\": \"shutdown\"}".to_owned());
    let client = std::thread::spawn(move || run_client(addr, lines, None));

    // no max_connections: the loop ends because the shutdown drains it
    let cfg = ServerConfig {
        workers: 2,
        max_queue: 64,
        batch_window_ms: 0.0,
        max_connections: None,
        ..ServerConfig::default()
    };
    serve_concurrent(&engine, listener, &cfg).unwrap();

    let replies = client.join().unwrap();
    // five answers, the shutdown ack, the final stats line
    assert_eq!(replies.len(), 7, "{replies:?}");
    for (i, v) in replies[..5].iter().enumerate() {
        assert!(is_ok(v), "query {i}: {v:?}");
        assert_eq!(reply_id(v), Some(format!("q{i}").as_str()));
    }
    assert_eq!(replies[5].get("shutdown"), Some(&Value::Bool(true)));
    let stats = stats_of(&replies[6]);
    assert_eq!(stats.get("requests").and_then(Value::as_u64), Some(6));
    assert_eq!(stats.get("ok").and_then(Value::as_u64), Some(5));
}

#[test]
fn overload_rejects_with_typed_overloaded_and_never_panics() {
    const BURST: usize = 40;
    // Each full pass holds the batcher for a fixed wall-clock time, so a
    // fast pipelined burst must overflow the depth-1 queue.
    let engine = engine_with(
        Box::new(SlowScorer { ne: NE, delay: Duration::from_millis(15) }),
        ServeConfig::default(),
    );
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    let lines: Vec<String> =
        (0..BURST).map(|i| format!("{{\"s\": {}, \"r\": 0, \"id\": \"b{i}\"}}", i % NE)).collect();
    let client = std::thread::spawn(move || run_client(addr, lines, None));

    let cfg = ServerConfig {
        workers: 1,
        max_queue: 1,
        batch_window_ms: 0.0,
        max_connections: Some(1),
        ..ServerConfig::default()
    };
    serve_concurrent(&engine, listener, &cfg).unwrap();

    let replies = client.join().unwrap();
    assert_eq!(replies.len(), BURST + 1);
    let mut ok = 0usize;
    let mut overloaded = 0usize;
    for v in &replies[..BURST] {
        if is_ok(v) {
            ok += 1;
        } else {
            assert_eq!(error_kind(v), Some("overloaded"), "{v:?}");
            overloaded += 1;
        }
    }
    assert_eq!(ok + overloaded, BURST, "no reply may be lost");
    assert!(overloaded > 0, "a depth-1 queue must shed part of a {BURST}-deep burst");
    assert!(ok > 0, "admitted requests must still be answered");

    // the stats line and the engine agree: rejections are counted
    // separately from engine requests, and nothing panicked
    let stats = stats_of(&replies[BURST]);
    assert_eq!(stats.get("requests").and_then(Value::as_u64), Some(ok as u64));
    assert_eq!(stats.get("rejected").and_then(Value::as_u64), Some(overloaded as u64));
    assert_eq!(stats.get("panics").and_then(Value::as_u64), Some(0));
    let engine_stats = engine.stats();
    assert_eq!(engine_stats.requests, ok);
    assert_eq!(engine_stats.rejected, overloaded);
    assert_eq!(engine_stats.panics, 0, "backpressure must not poison the engine");
    assert!(!engine.poisoned());
}

#[test]
fn degraded_fraction_is_monotone_under_a_shrinking_budget() {
    const QUERIES: usize = 10;
    let mut fractions = Vec::new();
    for budget_ms in [1e9, 2.0, 0.0] {
        let cfg = ServeConfig { default_budget_ms: Some(budget_ms), ..Default::default() };
        let engine =
            engine_with(Box::new(SlowScorer { ne: NE, delay: Duration::from_millis(5) }), cfg);
        engine.calibrate();
        assert!(engine.estimated_full_ms() >= 5.0, "calibration must see the 5 ms floor");
        for i in 0..QUERIES {
            let v = handle(&engine, &format!("{{\"s\": {}, \"r\": 0}}", i % NE));
            assert!(is_ok(&v), "{v:?}");
        }
        let stats = engine.stats();
        assert_eq!(stats.panics, 0, "budget degradation must not touch the poison counter");
        assert!(!engine.poisoned());
        fractions.push(stats.degraded as f64 / QUERIES as f64);
    }
    assert!(
        fractions.windows(2).all(|w| w[0] <= w[1]),
        "degraded fraction must not shrink as the budget shrinks: {fractions:?}"
    );
    assert_eq!(fractions[0], 0.0, "an effectively unlimited budget never degrades");
    assert_eq!(*fractions.last().unwrap(), 1.0, "a zero budget always degrades");
}

#[test]
fn batched_engine_replies_match_singleton_replies() {
    use hisres::serve::parse_request;
    use std::time::Instant;
    let lines = [
        "{\"s\": 1, \"r\": 0, \"topk\": 3, \"id\": \"a\"}",
        "not json",
        "{\"s\": 2, \"r\": 5, \"topk\": 2, \"id\": \"b\"}",
        "{\"s\": 9999, \"r\": 0, \"id\": \"c\"}",
        "{\"s\": 1, \"r\": 0, \"topk\": 3, \"id\": \"d\"}",
    ];
    let batched_engine = engine_with(Box::new(RampScorer { ne: NE }), ServeConfig::default());
    let items = lines.iter().map(|l| (parse_request(l), Instant::now())).collect();
    let batched = batched_engine.handle_parsed_batch(items);

    let solo_engine = engine_with(Box::new(RampScorer { ne: NE }), ServeConfig::default());
    for (line, reply) in lines.iter().zip(&batched) {
        let b = json::parse(&reply.line).unwrap();
        let s = handle(&solo_engine, line);
        // identical up to timing: same status, id, error kind, predictions
        assert_eq!(is_ok(&b), is_ok(&s), "{line}");
        assert_eq!(reply_id(&b), reply_id(&s), "{line}");
        assert_eq!(error_kind(&b), error_kind(&s), "{line}");
        assert_eq!(b.get("predictions"), s.get("predictions"), "{line}");
        assert_eq!(b.get("degraded"), s.get("degraded"), "{line}");
    }
    // and the two engines' books agree
    let (b, s) = (batched_engine.stats(), solo_engine.stats());
    assert_eq!(b.requests, s.requests);
    assert_eq!(b.ok, s.ok);
    assert_eq!(b.errors, s.errors);
    assert_eq!(b.degraded, s.degraded);
}

#[test]
fn real_model_serves_end_to_end() {
    let data = tiny_data();
    let model = tiny_model();
    let ctx = ScoreCtx::at_end_of(&data);
    let engine = ServeEngine::new(
        ServeConfig::default(),
        NE,
        NR,
        Box::new(ModelScorer { model, ctx }),
        fallback(),
    );
    engine.calibrate();
    assert!(engine.estimated_full_ms() > 0.0);
    let v = handle(&engine, "{\"s\": 0, \"r\": 0, \"topk\": 5}");
    assert!(is_ok(&v), "{v:?}");
    assert!(!is_degraded(&v), "{v:?}");
    // and a tiny budget degrades the same engine
    let v = handle(&engine, "{\"s\": 0, \"r\": 0, \"budget_ms\": 0}");
    assert!(is_degraded(&v), "{v:?}");
}

#[test]
fn load_retries_ride_out_transient_read_faults() {
    let path = temp_path("retry_ok");
    tiny_model().save_checkpoint(&path).unwrap();
    let policy = BackoffPolicy {
        attempts: 3,
        base: Duration::from_millis(1),
        cap: Duration::from_millis(2),
    };
    let faults = FaultInjector::fail_first_reads(2);
    let model = load_servable_model(&path, &policy, &faults).unwrap();
    assert_eq!(model.num_entities(), NE);
    assert_eq!(faults.reads_attempted(), 3, "two failures, one success");

    // more faults than attempts: the typed error surfaces
    let faults = FaultInjector::fail_first_reads(5);
    let err = match load_servable_model(&path, &policy, &faults) {
        Err(e) => e,
        Ok(_) => panic!("load should exhaust its retries"),
    };
    assert!(err.to_string().contains("I/O"), "{err}");
    assert_eq!(faults.reads_attempted(), 3, "bounded: no retry storm");
    std::fs::remove_file(&path).ok();
}

#[test]
fn load_accepts_training_state_files_preferring_best_params() {
    let model = tiny_model();
    let best = tiny_model();
    let ck = TrainCheckpoint {
        config: model.cfg.clone(),
        num_entities: NE,
        num_relations: NR,
        epoch: 2,
        since_best: 0,
        best_val_mrr: 0.5,
        epoch_losses: vec![1.0, 0.9],
        val_mrr: vec![0.4, 0.5],
        guard_events: Vec::new(),
        rng_state: StdRng::seed_from_u64(7)
            .state()
            .iter()
            .map(|w| format!("{w:016x}"))
            .collect(),
        opt: AdamState {
            t: 0,
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            m: Vec::new(),
            v: Vec::new(),
        },
        params: model.store.to_json(),
        best_params: Some(best.store.to_json()),
    };
    let path = temp_path("from_state");
    ck.save(&path).unwrap();
    let loaded =
        load_servable_model(&path, &BackoffPolicy::default(), &FaultInjector::none()).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded.num_entities(), NE);
    // best_params (the `best` model's weights) won over params
    assert_eq!(loaded.store.to_json(), best.store.to_json());
}

#[test]
fn load_rejects_unrelated_envelope_kinds() {
    let path = temp_path("wrong_kind");
    let sealed = hisres_util::fsio::seal("weird-kind", "{}");
    std::fs::write(&path, sealed).unwrap();
    let err = match load_servable_model(&path, &BackoffPolicy::default(), &FaultInjector::none())
    {
        Err(e) => e,
        Ok(_) => panic!("wrong-kind envelope should be rejected"),
    };
    std::fs::remove_file(&path).ok();
    assert!(err.to_string().contains("kind"), "{err}");
}
