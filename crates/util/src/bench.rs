//! A small wall-clock benchmark harness — the workspace's `criterion`
//! replacement.
//!
//! Methodology: each benchmark is warmed up for `warm_up_time` (which also
//! calibrates how many iterations fit in one sample), then `sample_size`
//! samples are timed and summarised as **median ± standard deviation** with
//! the min/max range. Median-of-samples is robust to scheduler noise, which
//! is the property the criterion output these harnesses were written
//! against also optimised for.
//!
//! The builder API (`Criterion::default().sample_size(..)` …,
//! `bench_function`, `Bencher::iter`) and the `criterion_group!` /
//! `criterion_main!` macros mirror criterion's, so the `benches/*.rs`
//! sources only changed their import line.

use std::time::{Duration, Instant};

/// Benchmark configuration + reporter.
#[derive(Clone, Debug)]
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 20,
            measurement_time: Duration::from_secs(3),
            warm_up_time: Duration::from_millis(500),
        }
    }
}

impl Criterion {
    /// Number of timed samples per benchmark (min 2).
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(2);
        self
    }

    /// Total time budget for the timed samples.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Calibration/warm-up budget before timing starts.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    /// Runs one benchmark and prints its summary line.
    pub fn bench_function(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) {
        let mut b = Bencher { config: self.clone(), report: None };
        f(&mut b);
        match b.report {
            Some(r) => println!("{}", r.format(name)),
            None => println!("{name:<40} (no iter() call)"),
        }
    }
}

/// One benchmark's summary statistics, in nanoseconds — the programmatic
/// (machine-readable) counterpart of the printed report line, serialised
/// into `BENCH_*.json` perf-trajectory files.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchStats {
    /// Benchmark name.
    pub name: String,
    /// Threads the timed kernel was allowed to use.
    pub threads: usize,
    /// Median of the per-iteration sample times.
    pub median_ns: f64,
    /// Standard deviation of the samples.
    pub stddev_ns: f64,
    /// Fastest sample.
    pub min_ns: f64,
    /// Slowest sample.
    pub max_ns: f64,
    /// Iterations batched into each timed sample.
    pub iters_per_sample: u64,
    /// Number of timed samples.
    pub samples: usize,
}

crate::impl_json!(BenchStats {
    name,
    threads,
    median_ns,
    stddev_ns,
    min_ns,
    max_ns,
    iters_per_sample,
    samples
});

impl BenchStats {
    /// `name  median ± stddev  [min .. max]` as a human-readable line.
    pub fn row(&self) -> String {
        format!(
            "{:<36} {:>2}T  median {:>12}  ± {:>10}  range [{} .. {}]",
            self.name,
            self.threads,
            fmt_duration(Duration::from_nanos(self.median_ns as u64)),
            fmt_duration(Duration::from_nanos(self.stddev_ns as u64)),
            fmt_duration(Duration::from_nanos(self.min_ns as u64)),
            fmt_duration(Duration::from_nanos(self.max_ns as u64)),
        )
    }
}

/// Times `f` with the same warm-up + calibration + median-of-samples
/// methodology as [`Criterion`], but returns the statistics instead of
/// printing them — the entry point for benchmark binaries that emit
/// `BENCH_*.json` files. `threads` is recorded verbatim in the result.
pub fn time_fn<T>(
    name: &str,
    threads: usize,
    config: &Criterion,
    mut f: impl FnMut() -> T,
) -> BenchStats {
    let mut b = Bencher { config: config.clone(), report: None };
    b.iter(&mut f);
    let r = b.report.expect("iter records a report");
    BenchStats {
        name: name.to_owned(),
        threads,
        median_ns: r.median.as_nanos() as f64,
        stddev_ns: r.stddev.as_nanos() as f64,
        min_ns: r.min.as_nanos() as f64,
        max_ns: r.max.as_nanos() as f64,
        iters_per_sample: r.iters_per_sample,
        samples: config.sample_size,
    }
}

/// Handed to the benchmark closure; call [`Bencher::iter`] with the body to
/// measure.
pub struct Bencher {
    config: Criterion,
    report: Option<Report>,
}

struct Report {
    median: Duration,
    stddev: Duration,
    min: Duration,
    max: Duration,
    iters_per_sample: u64,
}

impl Report {
    fn format(&self, name: &str) -> String {
        format!(
            "{name:<40} time: [{} ± {}]  range: [{} .. {}]  ({} iters/sample)",
            fmt_duration(self.median),
            fmt_duration(self.stddev),
            fmt_duration(self.min),
            fmt_duration(self.max),
            self.iters_per_sample,
        )
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

impl Bencher {
    /// Measures `f`: warm-up + calibration, then `sample_size` timed
    /// samples of a fixed iteration count each.
    pub fn iter<T>(&mut self, mut f: impl FnMut() -> T) {
        // Warm-up, counting iterations to calibrate the per-sample batch.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.config.warm_up_time {
            std::hint::black_box(f());
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters.max(1) as f64;

        let samples = self.config.sample_size;
        let per_sample_budget =
            self.config.measurement_time.as_secs_f64() / samples as f64;
        let iters_per_sample = ((per_sample_budget / per_iter.max(1e-12)) as u64).max(1);

        let mut times = Vec::with_capacity(samples);
        for _ in 0..samples {
            let t0 = Instant::now();
            for _ in 0..iters_per_sample {
                std::hint::black_box(f());
            }
            times.push(t0.elapsed().as_secs_f64() / iters_per_sample as f64);
        }
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = if samples % 2 == 1 {
            times[samples / 2]
        } else {
            (times[samples / 2 - 1] + times[samples / 2]) / 2.0
        };
        let mean = times.iter().sum::<f64>() / samples as f64;
        let var = times.iter().map(|t| (t - mean) * (t - mean)).sum::<f64>() / samples as f64;
        self.report = Some(Report {
            median: Duration::from_secs_f64(median),
            stddev: Duration::from_secs_f64(var.sqrt()),
            min: Duration::from_secs_f64(times[0]),
            max: Duration::from_secs_f64(times[samples - 1]),
            iters_per_sample,
        });
    }
}

/// Samples a [`LatencyRecorder`] keeps: percentiles describe the most
/// recent `LATENCY_WINDOW` requests. Larger than any one bench stage
/// records, so their percentiles cover every sample.
pub const LATENCY_WINDOW: usize = 4096;

/// Online latency accumulator for serving stats: records per-request
/// durations and answers nearest-rank percentile queries (p50/p99) over
/// the last [`LATENCY_WINDOW`] samples. The window is a ring of fixed
/// capacity, so a long-running server's stats use constant memory and
/// [`LatencyRecorder::record_ms`] allocates nothing once warm.
#[derive(Clone, Debug, Default)]
pub struct LatencyRecorder {
    samples_ms: Vec<f64>,
    /// Ring slot the next sample overwrites once the window is full.
    next: usize,
}

impl LatencyRecorder {
    /// Empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one request latency.
    pub fn record(&mut self, d: Duration) {
        self.record_ms(d.as_secs_f64() * 1e3);
    }

    /// Records one request latency in milliseconds, evicting the oldest
    /// sample once the window is full.
    pub fn record_ms(&mut self, ms: f64) {
        if !(ms.is_finite() && ms >= 0.0) {
            return;
        }
        if self.samples_ms.len() < LATENCY_WINDOW {
            self.samples_ms.reserve_exact(LATENCY_WINDOW - self.samples_ms.len());
            self.samples_ms.push(ms);
        } else {
            self.samples_ms[self.next] = ms;
            self.next = (self.next + 1) % LATENCY_WINDOW;
        }
    }

    /// Number of samples in the window.
    pub fn count(&self) -> usize {
        self.samples_ms.len()
    }

    /// Nearest-rank percentile in milliseconds (`p` in `0.0..=100.0`) over
    /// the window; `None` when nothing has been recorded.
    pub fn percentile_ms(&self, p: f64) -> Option<f64> {
        if self.samples_ms.is_empty() {
            return None;
        }
        let mut sorted = self.samples_ms.clone();
        sorted.sort_by(f64::total_cmp);
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        Some(sorted[rank.saturating_sub(1).min(sorted.len() - 1)])
    }

    /// Discards all samples (windowed serving stats).
    pub fn reset(&mut self) {
        self.samples_ms.clear();
        self.next = 0;
    }
}

/// Declares a benchmark group: a function running each target against the
/// given [`Criterion`] configuration. Mirrors `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $config;
            $( $target(&mut c); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::bench::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Declares the benchmark binary's `main`. Mirrors
/// `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

pub use crate::{criterion_group, criterion_main};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_produces_a_report() {
        let mut c = Criterion::default()
            .sample_size(5)
            .measurement_time(Duration::from_millis(20))
            .warm_up_time(Duration::from_millis(5));
        // routed through bench_function to exercise the printing path too
        c.bench_function("tiny_workload", |b| {
            b.iter(|| (0..100u64).sum::<u64>())
        });
    }

    #[test]
    fn report_statistics_are_ordered() {
        let mut b = Bencher {
            config: Criterion::default()
                .sample_size(7)
                .measurement_time(Duration::from_millis(20))
                .warm_up_time(Duration::from_millis(5)),
            report: None,
        };
        b.iter(|| std::hint::black_box(42u64).wrapping_mul(3));
        let r = b.report.expect("report recorded");
        assert!(r.min <= r.median && r.median <= r.max);
        assert!(r.iters_per_sample >= 1);
    }

    #[test]
    fn duration_formatting_picks_sensible_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(12)), "12 ns");
        assert!(fmt_duration(Duration::from_nanos(1_500)).contains("µs"));
        assert!(fmt_duration(Duration::from_micros(1_500)).contains("ms"));
        assert!(fmt_duration(Duration::from_millis(1_500)).contains(" s"));
    }

    criterion_group! {
        name = demo_group;
        config = Criterion::default()
            .sample_size(3)
            .measurement_time(Duration::from_millis(10))
            .warm_up_time(Duration::from_millis(2));
        targets = demo_target
    }

    fn demo_target(c: &mut Criterion) {
        c.bench_function("group_demo", |b| b.iter(|| 1u64 + 1));
    }

    #[test]
    fn criterion_group_macro_builds_a_runner() {
        demo_group();
    }

    #[test]
    fn latency_percentiles_use_nearest_rank() {
        let mut l = LatencyRecorder::new();
        assert_eq!(l.percentile_ms(50.0), None);
        for ms in [5.0, 1.0, 3.0, 2.0, 4.0] {
            l.record_ms(ms);
        }
        assert_eq!(l.count(), 5);
        assert_eq!(l.percentile_ms(50.0), Some(3.0));
        assert_eq!(l.percentile_ms(99.0), Some(5.0));
        assert_eq!(l.percentile_ms(0.0), Some(1.0));
        assert_eq!(l.percentile_ms(100.0), Some(5.0));
    }

    #[test]
    fn latency_recorder_ignores_garbage_and_resets() {
        let mut l = LatencyRecorder::new();
        l.record_ms(f64::NAN);
        l.record_ms(-1.0);
        l.record_ms(f64::INFINITY);
        assert_eq!(l.count(), 0);
        l.record(Duration::from_millis(2));
        assert_eq!(l.count(), 1);
        l.reset();
        assert_eq!(l.count(), 0);
    }

    #[test]
    fn latency_recorder_keeps_a_fixed_window() {
        let mut l = LatencyRecorder::new();
        l.record_ms(1.0);
        let (buf, cap) = (l.samples_ms.as_ptr(), l.samples_ms.capacity());
        assert_eq!(cap, LATENCY_WINDOW, "the first sample reserves the whole window");
        // a full window of slow samples, then a full window of 1..=N ms
        for _ in 0..LATENCY_WINDOW {
            l.record_ms(1e6);
        }
        for i in 1..=LATENCY_WINDOW {
            l.record_ms(i as f64);
        }
        assert_eq!(l.count(), LATENCY_WINDOW);
        assert_eq!((l.samples_ms.as_ptr(), l.samples_ms.capacity()), (buf, cap));
        // every slow sample has been evicted: percentiles see only 1..=N
        let n = LATENCY_WINDOW as f64;
        assert_eq!(l.percentile_ms(0.0), Some(1.0));
        assert_eq!(l.percentile_ms(50.0), Some(n / 2.0));
        assert_eq!(l.percentile_ms(100.0), Some(n));
        l.record_ms(0.5); // evicts the oldest window sample, 1.0
        assert_eq!(l.percentile_ms(0.0), Some(0.5));
        assert_eq!(l.percentile_ms(100.0), Some(n));
    }
}
