//! `hisres` — command-line interface for the HisRES reproduction.
//!
//! ```text
//! hisres generate --dataset icews14s-syn --out data/      # export analog as TSV
//! hisres stats    --data data/                            # Table 2 style stats
//! hisres train    --data data/ --epochs 8 --out model.ckpt
//! hisres eval     --model model.ckpt --data data/ [--relations]
//! hisres predict  --model model.ckpt --data data/ --subject 3 --relation 1
//! ```
//!
//! `--data` accepts either a benchmark directory (`train.txt` etc.) or the
//! name of a built-in synthetic analog (`icews14s-syn`, `icews18-syn`,
//! `icews0515-syn`, `gdelt-syn`).

mod args;
mod commands;

use args::Args;
use std::process::ExitCode;

const HELP: &str = "\
hisres — Historically Relevant Event Structuring for TKG reasoning

USAGE: hisres <COMMAND> [OPTIONS]

COMMANDS:
  generate   Export a synthetic benchmark analog as a TSV directory
             --dataset NAME --out DIR
  stats      Print dataset statistics (Table 2 columns)
             --data DIR|NAME
  train      Train a HisRES model
             --data DIR|NAME --out FILE [--epochs N=8] [--lr F=0.01]
             [--dim N=32] [--history N=3] [--granularity N=2] [--layers N=2]
             [--patience N=3] [--seed N=42] [--ablation VARIANT]
             [--prune-topk N] [--two-phase] [--quiet]
             [--state FILE]   save full training state atomically each epoch
             [--resume FILE]  continue bit-identically from a state file
             [--guard skip|rollback|abort=skip]  NaN/divergence policy
  eval       Evaluate a trained model (time-aware filtered metrics)
             --model FILE --data DIR|NAME [--split test|valid] [--relations]
  predict    Rank objects for a query at the end of the known timeline
             --model FILE --data DIR|NAME --subject ID --relation ID
             [--topk N=10] [--explain]
  serve      Long-running JSONL prediction service (stdin/stdout or TCP).
             Requests: {\"s\": ID|NAME, \"r\": ID|NAME, [\"topk\": N],
             [\"budget_ms\": F], [\"id\": STR]} | {\"cmd\": \"stats\"} |
             {\"cmd\": \"shutdown\"}. Over-budget requests degrade to a
             frequency fallback and are flagged \"degraded\": true. TCP
             serving is concurrent: --workers connection workers share a
             bounded request queue; queries are coalesced into batched
             scorer passes (bit-identical per query) and rejected with a
             typed \"overloaded\" error when the queue is full.
             With --wal FILE the timeline is live: {\"cmd\": \"ingest\",
             \"seq\": N, \"quads\": [[S,R,O],...]} durably appends new
             events behind a fsync'd write-ahead log and advances the
             encoder one incremental step; a restart replays the WAL
             back to byte-identical serving state. Duplicate seqs are
             idempotent no-ops; WAL trouble degrades ingest (not
             queries) to a read-only mode flagged in stats.
             --model FILE --data DIR|NAME [--listen ADDR] [--topk N=10]
             [--budget-ms F] [--max-poison N=3] [--load-retries N=3]
             [--max-conns N] [--inject-load-faults N] [--workers N=4]
             [--max-queue N=64] [--batch-window-ms F=2]
             [--wal FILE] [--ingest-state FILE=WAL.state]
             [--snapshot-every N=8] [--fsync-budget-ms F]
             [--replay-lag-budget N] [--max-ingest-queue N=8]
  lint       Check workspace source against the repo invariant rules
             (panic-free serving, atomic writes, pool-only threading,
             grad-path determinism, debug leftovers, float equality)
             [--root DIR] [--deny-all] [--json] [--out FILE]
  help       Show this message

GLOBAL OPTIONS (every command):
  --threads N   Worker threads for the data-parallel kernels
                (default: the HISRES_THREADS env var, else all cores;
                results are bit-identical for every thread count)

Built-in dataset names: icews14s-syn, icews18-syn, icews0515-syn, gdelt-syn";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "help" || argv[0] == "--help" || argv[0] == "-h" {
        println!("{HELP}");
        return ExitCode::SUCCESS;
    }
    let args = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Global option, honoured by every command: size the worker pool
    // before the first parallel kernel builds it. Thread count never
    // changes results — kernels are deterministically data-parallel.
    match args.get_parse::<usize>("threads", 0) {
        Ok(0) => {} // not given: HISRES_THREADS / available cores
        Ok(n) => {
            hisres_util::pool::set_global_threads(n);
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    let result = match args.command.as_str() {
        "generate" => commands::generate(&args),
        "stats" => commands::stats(&args),
        "train" => commands::train(&args),
        "eval" => commands::eval(&args),
        "predict" => commands::predict(&args),
        "serve" => commands::serve(&args),
        "lint" => commands::lint(&args),
        other => Err(format!("unknown command {other:?}; try `hisres help`").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // Print the full typed error chain, outermost first, so a
            // failure names both the operation and its root cause (e.g.
            // the checkpoint error and the offending file). Wrappers
            // whose message already embeds their cause are skipped.
            let mut last = e.to_string();
            eprintln!("error: {last}");
            let mut cause = e.source();
            while let Some(c) = cause {
                let msg = c.to_string();
                if !last.contains(&msg) {
                    eprintln!("  caused by: {msg}");
                    last = msg;
                }
                cause = c.source();
            }
            ExitCode::FAILURE
        }
    }
}
