//! Bounded retry with exponential backoff for transient failures.
//!
//! The serving path loads checkpoints from filesystems that can fail
//! transiently (NFS hiccups, overlay remounts, torn reads racing a
//! writer's rename). A bounded retry with exponential backoff absorbs
//! those without masking *persistent* errors: the caller supplies a
//! predicate deciding which errors are worth retrying, and anything else
//! (a malformed file, a wrong checkpoint kind) fails immediately.
//!
//! Delays are deterministic (`base * 2^attempt`, capped) — no jitter, so
//! tests can assert exact schedules.

use std::time::Duration;

/// Retry schedule: how many attempts, and how the delay between them grows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Total attempts (including the first); `0` is treated as `1`.
    pub attempts: usize,
    /// Delay before the second attempt; doubles after each failure.
    pub base: Duration,
    /// Upper bound on any single delay.
    pub cap: Duration,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            attempts: 3,
            base: Duration::from_millis(10),
            cap: Duration::from_secs(1),
        }
    }
}

impl BackoffPolicy {
    /// A policy with `attempts` tries and the default delays.
    pub fn with_attempts(attempts: usize) -> Self {
        BackoffPolicy { attempts, ..Default::default() }
    }

    /// The delay scheduled *after* the `attempt`th failure (0-based):
    /// `base * 2^attempt`, capped.
    pub fn delay_after(&self, attempt: usize) -> Duration {
        let factor = 1u32.checked_shl(attempt.min(31) as u32).unwrap_or(u32::MAX);
        self.base.checked_mul(factor).unwrap_or(self.cap).min(self.cap)
    }
}

/// Runs `op` until it succeeds, the error is not `retryable`, or the
/// policy's attempts are exhausted; returns the last error in the failure
/// cases. `op` receives the 0-based attempt index.
pub fn with_backoff<T, E>(
    policy: &BackoffPolicy,
    mut retryable: impl FnMut(&E) -> bool,
    mut op: impl FnMut(usize) -> Result<T, E>,
) -> Result<T, E> {
    let attempts = policy.attempts.max(1);
    let mut attempt = 0;
    loop {
        match op(attempt) {
            Ok(v) => return Ok(v),
            Err(e) => {
                if attempt + 1 >= attempts || !retryable(&e) {
                    return Err(e);
                }
                std::thread::sleep(policy.delay_after(attempt));
                attempt += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast() -> BackoffPolicy {
        BackoffPolicy { attempts: 4, base: Duration::from_micros(50), cap: Duration::from_millis(1) }
    }

    #[test]
    fn succeeds_after_transient_failures() {
        let mut calls = 0;
        let out = with_backoff(&fast(), |_: &&str| true, |i| {
            calls += 1;
            if i < 2 { Err("transient") } else { Ok(i) }
        });
        assert_eq!(out, Ok(2));
        assert_eq!(calls, 3);
    }

    #[test]
    fn exhausts_attempts_and_returns_last_error() {
        let mut calls = 0;
        let out: Result<(), &str> = with_backoff(&fast(), |_| true, |_| {
            calls += 1;
            Err("always")
        });
        assert_eq!(out, Err("always"));
        assert_eq!(calls, 4);
    }

    #[test]
    fn non_retryable_error_fails_immediately() {
        let mut calls = 0;
        let out: Result<(), &str> = with_backoff(&fast(), |e| *e != "fatal", |_| {
            calls += 1;
            Err("fatal")
        });
        assert_eq!(out, Err("fatal"));
        assert_eq!(calls, 1);
    }

    #[test]
    fn delays_double_and_cap() {
        let p = BackoffPolicy {
            attempts: 10,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(35),
        };
        assert_eq!(p.delay_after(0), Duration::from_millis(10));
        assert_eq!(p.delay_after(1), Duration::from_millis(20));
        assert_eq!(p.delay_after(2), Duration::from_millis(35), "capped");
        assert_eq!(p.delay_after(60), Duration::from_millis(35), "huge shifts saturate");
    }

    #[test]
    fn zero_attempts_still_runs_once() {
        let p = BackoffPolicy { attempts: 0, ..fast() };
        let out = with_backoff(&p, |_: &&str| true, |_| Ok(7));
        assert_eq!(out, Ok(7));
    }
}
