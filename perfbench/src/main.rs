//! The HisRES workspace benchmark.
//!
//! ```text
//! perfbench --workload <frozen_serve|live_serve|train_eval> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench --make-checkpoint      re-train the serving checkpoint from scratch
//! ```
//!
//! Every timing is taken in this process around calls to the program's
//! public functions. The last stdout line is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}`
//! — the end-to-end metrics with `--trace 0`, the per-layer metrics of the
//! traced profile with `--trace 1`. See README.md.

mod check;
mod frozen;
mod inputs;
mod live;
mod serving;
mod stats;
mod trace;
mod train;

use hisres_util::alloc::CountingAlloc;

/// Counts every heap allocation of the process (all threads).
#[global_allocator]
pub static ALLOC: CountingAlloc = CountingAlloc::new();

/// What a run reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; any makes the run incorrect.
    pub errors: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// Records a metric; a non-finite value (nothing was measured) makes
    /// the run incorrect and is printed as 0 to keep the line valid JSON.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.errors.push(format!("metric {name} is {value}"));
        }
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.to_owned(), value, unit));
    }

    fn line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{v},\"unit\":\"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.errors.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--make-checkpoint") {
        return Ok(None);
    }
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Some(Args {
        workload: get("--workload")?.to_owned(),
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1) as f64,
        trace,
    }))
}

fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    if let Err(e) = check::self_test() {
        out.errors.push(format!("self-test: {e}"));
    }
    if !args.trace {
        match args.workload.as_str() {
            "frozen_serve" => frozen::run(args.seed, args.seconds, &mut out)?,
            "live_serve" => live::run(args.seed, args.seconds, &mut out)?,
            "train_eval" => train::run(args.seconds, &mut out)?,
            other => return Err(format!("unknown workload {other}")),
        }
        out.metric("peak_rss_mb", stats::peak_rss_mb(), "MB");
        return Ok(out);
    }
    if !["frozen_serve", "live_serve", "train_eval"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {}", args.workload));
    }
    // The traced run profiles every layer of all three paths with this
    // seed, so each workload's traced run reports the full per-layer set.
    trace::install();
    let share = args.seconds / 3.0;
    frozen::profile(args.seed, share, &mut out)?;
    live::profile(args.seed, share, &mut out)?;
    train::profile(&mut out)?;
    let path = inputs::work_dir().join(format!("trace-{}.json", args.workload));
    trace::write(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("spans written to {}", path.display());
    Ok(out)
}

fn main() {
    // One pool thread, the caller: with 2 vCPUs a second pool thread
    // would compete with the generator. Times are process CPU time, so
    // work on any other thread would still count.
    hisres_util::pool::set_global_threads(1);
    let result = match parse_args() {
        Ok(None) => inputs::make_checkpoint().map(|p| {
            eprintln!("checkpoint written to {}", p.display());
            None
        }),
        Ok(Some(args)) => run(&args).map(Some),
        Err(e) => Err(e),
    };
    match result {
        Ok(Some(out)) => {
            for e in &out.errors {
                eprintln!("check failed: {e}");
            }
            println!("{}", out.line());
        }
        Ok(None) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
