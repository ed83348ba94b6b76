//! A fixed-window latency recorder for serving stats.

use std::time::Duration;

/// Samples a [`LatencyRecorder`] keeps: percentiles describe the most
/// recent `LATENCY_WINDOW` requests.
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

#[cfg(test)]
mod tests {
    use super::*;

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
