//! `hisres-lint` — the workspace's from-scratch static-analysis engine.
//!
//! PRs 2–4 established invariants this reproduction depends on
//! (panic-free serving, atomic-only checkpoint writes, pool-only
//! threading, bit-deterministic gradient kernels). They used to be
//! policed by line-oriented `grep` in `scripts/verify.sh`, which
//! false-positived on comments and strings and could not see
//! `#[cfg(test)]` context. This crate replaces those guards with a real
//! lexer ([`lexer`]) feeding a token-stream rule engine ([`rules`])
//! that emits structured diagnostics ([`diag`]) with exact
//! `file:line:col` positions, human and `--json` renderings, and a
//! nonzero exit on violation.
//!
//! Run it as `cargo run -p hisres-lint -- --deny-all` or via the main
//! CLI as `hisres lint`.

pub mod callgraph;
pub mod diag;
pub mod graph_rules;
pub mod lexer;
pub mod parser;
pub mod rules;

use diag::{Diagnostic, Severity};
use hisres_util::json::Value;
use rules::{check_file, config, FileCtx};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Identifies the JSON report layout; bump when fields change.
/// v2 added per-rule wall-clock timings, call-graph stats and
/// diagnostic `chain` arrays on top of v1.
pub const REPORT_SCHEMA: &str = "hisres-lint/v2";

/// Options for one lint run.
#[derive(Debug, Default, Clone)]
pub struct Options {
    /// Escalate warning-severity diagnostics to errors.
    pub deny_all: bool,
}

/// The outcome of linting a tree.
pub struct Report {
    /// Workspace root the paths in `diagnostics` are relative to.
    pub root: PathBuf,
    pub files_scanned: usize,
    /// Violations silenced by a well-formed `lint:allow`.
    pub suppressed: usize,
    pub diagnostics: Vec<Diagnostic>,
    /// Call-graph resolution counters from [`callgraph::build`].
    pub graph: callgraph::Stats,
    /// Per-rule wall-clock milliseconds (token rules accumulated across
    /// files; graph rules measured once). Extra `"parse+callgraph"`
    /// entry covers the shared analysis the graph rules run on.
    pub timings: BTreeMap<&'static str, f64>,
    /// End-to-end wall-clock of [`run`], milliseconds.
    pub elapsed_ms: f64,
}

impl Report {
    /// Whether the run should fail the build.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// One-line human summary of the call-graph stats, printed by the
    /// drivers above the v1-shaped summary line.
    pub fn graph_summary(&self) -> String {
        format!(
            "hisres-lint graph: {} fns, {} edges ({} unresolved, {} ambiguous, {} external) in {:.0} ms",
            self.graph.nodes,
            self.graph.edges,
            self.graph.unresolved,
            self.graph.ambiguous,
            self.graph.external,
            self.elapsed_ms
        )
    }

    /// The machine-readable rendering, stable under [`REPORT_SCHEMA`].
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("schema".into(), Value::Str(REPORT_SCHEMA.into())),
            (
                "root".into(),
                Value::Str(self.root.display().to_string()),
            ),
            (
                "files_scanned".into(),
                Value::Num(self.files_scanned as f64),
            ),
            ("suppressed".into(), Value::Num(self.suppressed as f64)),
            ("elapsed_ms".into(), Value::Num(self.elapsed_ms)),
            (
                "graph".into(),
                Value::Obj(vec![
                    ("nodes".into(), Value::Num(self.graph.nodes as f64)),
                    ("edges".into(), Value::Num(self.graph.edges as f64)),
                    (
                        "unresolved".into(),
                        Value::Num(self.graph.unresolved as f64),
                    ),
                    (
                        "ambiguous".into(),
                        Value::Num(self.graph.ambiguous as f64),
                    ),
                    ("external".into(), Value::Num(self.graph.external as f64)),
                ]),
            ),
            (
                "rules".into(),
                Value::Arr(
                    config()
                        .iter()
                        .map(|r| {
                            Value::Obj(vec![
                                ("id".into(), Value::Str(r.id.into())),
                                (
                                    "severity".into(),
                                    Value::Str(r.severity.as_str().into()),
                                ),
                                ("kind".into(), Value::Str(r.kind.into())),
                                (
                                    "description".into(),
                                    Value::Str(r.description.into()),
                                ),
                                (
                                    "time_ms".into(),
                                    Value::Num(
                                        self.timings.get(r.id).copied().unwrap_or(0.0),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "diagnostics".into(),
                Value::Arr(self.diagnostics.iter().map(Diagnostic::to_json).collect()),
            ),
        ])
    }
}

/// Collects every `.rs` file under `root`, skipping build output
/// (`target/`), VCS internals and lint fixtures (which contain
/// violations on purpose). Deterministic: paths come back sorted.
pub fn collect_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == "fixtures" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lints every `.rs` file under `root`: token rules per file, then the
/// workspace call graph and the graph rules over it, then the
/// unused-suppression sweep (which needs every other rule to have
/// marked the allows it used).
pub fn run(root: &Path, opts: &Options) -> std::io::Result<Report> {
    let t_total = Instant::now();
    let rules = config();
    let mut diagnostics = Vec::new();
    let mut suppressed = 0usize;
    let mut timings: BTreeMap<&'static str, f64> = BTreeMap::new();

    // Pass 1: read every source file (kept alive for FileCtx borrows).
    let mut sources: Vec<(String, String)> = Vec::new();
    for path in collect_rs_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        sources.push((rel, fs::read_to_string(&path)?));
    }
    let files_scanned = sources.len();

    // Pass 2: lex into FileCtx; lex failures become diagnostics and the
    // file drops out of the later passes.
    let mut ctxs: Vec<FileCtx<'_>> = Vec::new();
    for (rel, source) in &sources {
        match FileCtx::new(rel, source) {
            Ok(ctx) => ctxs.push(ctx),
            Err(e) => diagnostics.push(Diagnostic {
                rule: "lex-error",
                severity: Severity::Error,
                file: rel.clone(),
                line: e.line,
                col: e.col,
                message: e.message,
                snippet: String::new(),
                chain: Vec::new(),
            }),
        }
    }

    // Pass 3: token rules, per file.
    for ctx in &ctxs {
        diagnostics.extend(check_file(ctx, &rules, &mut suppressed, &mut timings));
    }

    // Pass 4: parse + call graph. Parse anomalies (tolerated syntax the
    // parser could not model) surface as warnings so analysis gaps are
    // visible rather than silent.
    let t0 = Instant::now();
    let parsed: Vec<callgraph::ParsedFile> = ctxs
        .iter()
        .map(|ctx| callgraph::ParsedFile {
            rel: ctx.path.to_string(),
            ast: parser::parse(&ctx.tokens, &ctx.code),
        })
        .collect();
    for pf in &parsed {
        for note in &pf.ast.notes {
            diagnostics.push(Diagnostic {
                rule: "parse-error",
                severity: Severity::Warning,
                file: pf.rel.clone(),
                line: note.line,
                col: note.col,
                message: format!("{} (analysis of this item is incomplete)", note.message),
                snippet: String::new(),
                chain: Vec::new(),
            });
        }
    }
    let crate_map = callgraph::crate_names(root);
    let graph = callgraph::build(&parsed, &crate_map);
    timings.insert("parse+callgraph", t0.elapsed().as_secs_f64() * 1e3);

    // Pass 5: graph rules.
    let ctx_map: BTreeMap<&str, &FileCtx> =
        ctxs.iter().map(|c| (c.path, c)).collect();
    let t0 = Instant::now();
    graph_rules::check_panic_reachability(&graph, &ctx_map, &mut suppressed, &mut diagnostics);
    timings.insert("panic-reachability", t0.elapsed().as_secs_f64() * 1e3);
    let t0 = Instant::now();
    graph_rules::check_hot_alloc_reachable(&graph, &ctx_map, &mut suppressed, &mut diagnostics);
    timings.insert("no-hot-alloc-reachable", t0.elapsed().as_secs_f64() * 1e3);
    let t0 = Instant::now();
    graph_rules::check_durability_order(&graph, &ctx_map, &mut suppressed, &mut diagnostics);
    timings.insert("durability-order", t0.elapsed().as_secs_f64() * 1e3);

    // Pass 6: unused suppressions. Every rule above has marked the
    // allows it consumed; whatever is left either names a rule that no
    // longer exists (syntax error) or no longer fires (stale).
    let t0 = Instant::now();
    let known: std::collections::BTreeSet<&str> =
        rules.iter().map(|r| r.id).collect();
    for ctx in &ctxs {
        for a in &ctx.allows {
            if a.rules.is_empty() || a.used.get() {
                continue; // malformed ones are reported by check_file
            }
            if let Some(unknown) =
                a.rules.iter().find(|r| !known.contains(r.as_str()))
            {
                diagnostics.push(Diagnostic {
                    rule: "lint-allow-syntax",
                    severity: Severity::Error,
                    file: ctx.path.into(),
                    line: a.line,
                    col: 1,
                    message: format!(
                        "lint:allow names unknown rule {unknown:?}; known rules: \
                         see --list-rules"
                    ),
                    snippet: ctx.snippet(a.line),
                    chain: Vec::new(),
                });
            } else {
                diagnostics.push(Diagnostic {
                    rule: "unused-suppression",
                    severity: Severity::Warning,
                    file: ctx.path.into(),
                    line: a.line,
                    col: 1,
                    message: format!(
                        "lint:allow({}) no longer suppresses anything on this \
                         line; delete it",
                        a.rules.join(", ")
                    ),
                    snippet: ctx.snippet(a.line),
                    chain: Vec::new(),
                });
            }
        }
    }
    timings.insert("unused-suppression", t0.elapsed().as_secs_f64() * 1e3);

    // Deterministic report order regardless of pass structure.
    diagnostics.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(
            b.file.as_str(),
            b.line,
            b.col,
            b.rule,
        ))
    });
    if opts.deny_all {
        for d in &mut diagnostics {
            d.severity = Severity::Error;
        }
    }
    Ok(Report {
        root: root.to_path_buf(),
        files_scanned,
        suppressed,
        diagnostics,
        graph: graph.stats,
        timings,
        elapsed_ms: t_total.elapsed().as_secs_f64() * 1e3,
    })
}

/// Validates a previously emitted `--json` report against the
/// [`REPORT_SCHEMA`] layout, so downstream tooling can rely on the
/// shape.
pub fn check_report(text: &str) -> Result<(), String> {
    let v = hisres_util::json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let schema = v
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("missing string field: schema")?;
    if schema != REPORT_SCHEMA {
        return Err(format!("schema is {schema:?}, expected {REPORT_SCHEMA:?}"));
    }
    v.get("root")
        .and_then(Value::as_str)
        .ok_or("missing string field: root")?;
    for field in ["files_scanned", "suppressed"] {
        v.get(field)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("missing integer field: {field}"))?;
    }
    v.get("elapsed_ms")
        .and_then(Value::as_f64)
        .ok_or("missing number field: elapsed_ms")?;
    let graph = v.get("graph").ok_or("missing object field: graph")?;
    for field in ["nodes", "edges", "unresolved", "ambiguous", "external"] {
        graph
            .get(field)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("graph missing integer field: {field}"))?;
    }
    let rules = v
        .get("rules")
        .and_then(Value::as_array)
        .ok_or("missing array field: rules")?;
    if rules.is_empty() {
        return Err("rules array is empty".into());
    }
    for r in rules {
        for field in ["id", "severity", "kind", "description"] {
            r.get(field)
                .and_then(Value::as_str)
                .ok_or_else(|| format!("rule entry missing string field: {field}"))?;
        }
        let kind = r.get("kind").and_then(Value::as_str).unwrap_or("");
        if kind != "token" && kind != "graph" {
            return Err(format!("rule kind {kind:?} not token|graph"));
        }
        r.get("time_ms")
            .and_then(Value::as_f64)
            .ok_or("rule entry missing number field: time_ms")?;
    }
    let diags = v
        .get("diagnostics")
        .and_then(Value::as_array)
        .ok_or("missing array field: diagnostics")?;
    for d in diags {
        for field in ["rule", "severity", "file", "message", "snippet"] {
            d.get(field)
                .and_then(Value::as_str)
                .ok_or_else(|| format!("diagnostic missing string field: {field}"))?;
        }
        for field in ["line", "col"] {
            d.get(field)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("diagnostic missing integer field: {field}"))?;
        }
        let chain = d
            .get("chain")
            .and_then(Value::as_array)
            .ok_or("diagnostic missing array field: chain")?;
        if chain.iter().any(|c| c.as_str().is_none()) {
            return Err("diagnostic chain entries must be strings".into());
        }
        let sev = d.get("severity").and_then(Value::as_str).unwrap_or("");
        if sev != "warning" && sev != "error" {
            return Err(format!("diagnostic severity {sev:?} not warning|error"));
        }
    }
    Ok(())
}

/// Finds the workspace root by walking up from `start` until a directory
/// containing a `Cargo.toml` with a `[workspace]` section appears.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
