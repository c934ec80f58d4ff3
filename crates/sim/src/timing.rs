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

/// Runs `f` `reps` times and returns the per-run results and runtimes.
///
/// # Panics
/// Panics if `reps` is zero.
pub fn run_repeated<T>(reps: usize, mut f: impl FnMut(usize) -> T) -> (Vec<T>, Vec<f64>) {
    assert!(reps > 0, "need at least one repetition");
    let mut outs = Vec::with_capacity(reps);
    let mut times = Vec::with_capacity(reps);
    for i in 0..reps {
        let (out, t) = run_timed(|| f(i));
        outs.push(out);
        times.push(t);
    }
    (outs, times)
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

    #[test]
    fn repeated_runs_each_index() {
        let (outs, times) = run_repeated(3, |i| i * 10);
        assert_eq!(outs, vec![0, 10, 20]);
        assert_eq!(times.len(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one repetition")]
    fn zero_reps_panics() {
        run_repeated(0, |_| ());
    }
}
