//! Wall-clock measurement helpers.

use std::time::Instant;

/// Runs `f` and returns its result together with the elapsed wall time
/// in seconds. Used by the harness to report wall time next to the
/// modeled cost (the paper reports the median of nine runs; see
/// [`ecl_profiling::stats::median`]).
pub fn run_timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn timed_returns_result_and_positive_time() {
        let (v, t) = run_timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(t >= 0.0);
    }
}
