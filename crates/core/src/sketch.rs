//! Streaming percentile sketches over log-spaced buckets.
//!
//! The paper's per-thread distributions (iterations, adjacency
//! lengths, CAS outcomes) need a form that can be recorded **while the
//! kernels run** and merged across runs, kernels, and threads without
//! keeping the raw values: a fixed-width array of power-of-two buckets
//! plus streaming count/sum/min/max. Quantiles come out as upper
//! bucket bounds — a factor-of-two error envelope, which is exactly
//! the resolution the paper's log-scale tables and charts use.
//!
//! All mutation is relaxed and striped per OS thread (see
//! [`crate::stripe`]), so a sketch can be shared across simulated
//! threads exactly like [`GlobalCounter`](crate::GlobalCounter): a
//! record is plain loads and stores on the stripe the calling thread
//! owns, and every read is a reduction over stripes taken after the
//! parallel region joins.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::stripe::Striped;

/// Bucket count: bucket 0 holds the value 0, bucket `k` in `1..=64`
/// holds `[2^(k-1), 2^k)`, covering all of `u64` with no saturation.
pub const SKETCH_BUCKETS: usize = 65;

/// One OS thread's share of a sketch. The four summary words lead so
/// they share a cache line with the low buckets, where most samples
/// of the paper's distributions land.
#[derive(Debug)]
struct Stripe {
    count: AtomicU64,
    sum: AtomicU64,
    /// Minimum seen (`u64::MAX` when empty — resolved by `min()`).
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; SKETCH_BUCKETS],
}

impl Default for Stripe {
    fn default() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; SKETCH_BUCKETS],
        }
    }
}

/// The reduction of a sketch over its stripes: what every reader
/// works from.
struct Totals {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; SKETCH_BUCKETS],
}

impl Totals {
    fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    fn quantile(&self, p: f64) -> u64 {
        assert!((0.0..=1.0).contains(&p), "quantile out of range");
        if self.count == 0 {
            return 0;
        }
        let target = (p * self.count as f64).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        for (k, &b) in self.buckets.iter().enumerate() {
            acc += b;
            if acc >= target {
                // Largest value the bucket can hold (the top bucket's
                // range is inclusive), clamped to the observed max so a
                // single-sample sketch reports the sample itself.
                let bound = match k {
                    0 => 0,
                    64 => u64::MAX,
                    _ => LogSketch::bucket_range(k).1 - 1,
                };
                return bound.min(self.max);
            }
        }
        self.max
    }
}

/// A mergeable streaming histogram with percentile estimates.
#[derive(Debug, Default)]
pub struct LogSketch {
    stripes: Striped<Stripe>,
}

impl LogSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index `v` falls into.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Inclusive-exclusive value range of bucket `k` (the top bucket's
    /// upper bound saturates at `u64::MAX`).
    pub fn bucket_range(k: usize) -> (u64, u64) {
        match k {
            0 => (0, 1),
            64 => (1u64 << 63, u64::MAX),
            _ => (1u64 << (k - 1), 1u64 << k),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` samples of value `v` (used when folding per-thread
    /// counter slots in at end of run).
    #[inline]
    pub fn record_n(&self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let (s, w) = self.stripes.local();
        w.add(&s.buckets[Self::bucket_of(v)], n);
        w.add(&s.count, n);
        w.add(&s.sum, v.saturating_mul(n));
        w.min(&s.min, v);
        w.max(&s.max, v);
    }

    /// Folds a complete value slice in (one sample per element) — the
    /// merge of a per-thread counter's final distribution.
    pub fn record_values(&self, values: &[u64]) {
        for &v in values {
            self.record(v);
        }
    }

    fn totals(&self) -> Totals {
        let mut t =
            Totals { count: 0, sum: 0, min: u64::MAX, max: 0, buckets: [0; SKETCH_BUCKETS] };
        for s in self.stripes.iter() {
            t.count += s.count.load(Ordering::Relaxed);
            t.sum = t.sum.wrapping_add(s.sum.load(Ordering::Relaxed));
            t.min = t.min.min(s.min.load(Ordering::Relaxed));
            t.max = t.max.max(s.max.load(Ordering::Relaxed));
            for (mine, theirs) in t.buckets.iter_mut().zip(&s.buckets) {
                *mine += theirs.load(Ordering::Relaxed);
            }
        }
        t
    }

    /// Merges `other` into `self`. Sketches share one fixed bucket
    /// layout, so the merge is exact (bucket-wise addition).
    pub fn merge(&self, other: &LogSketch) {
        let theirs = other.totals();
        let (mine, w) = self.stripes.local();
        for (b, &c) in mine.buckets.iter().zip(&theirs.buckets) {
            if c > 0 {
                w.add(b, c);
            }
        }
        w.add(&mine.count, theirs.count);
        w.add(&mine.sum, theirs.sum);
        w.min(&mine.min, theirs.min);
        w.max(&mine.max, theirs.max);
    }

    /// Total samples.
    pub fn count(&self) -> u64 {
        self.totals().count
    }

    /// Sum of samples (saturating).
    pub fn sum(&self) -> u64 {
        self.totals().sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        self.totals().min()
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.totals().max
    }

    /// Arithmetic mean (0 when empty — never NaN).
    pub fn mean(&self) -> f64 {
        let c = self.count();
        if c == 0 {
            0.0
        } else {
            self.sum() as f64 / c as f64
        }
    }

    /// The p-quantile (0.0–1.0) as an upper bucket bound, clamped to
    /// the observed maximum. 0 when empty.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    pub fn quantile(&self, p: f64) -> u64 {
        self.totals().quantile(p)
    }

    /// An immutable copy for export.
    pub fn snapshot(&self) -> SketchSnapshot {
        let t = self.totals();
        let buckets: Vec<(u32, u64)> = t
            .buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(k, &c)| (k as u32, c))
            .collect();
        SketchSnapshot {
            count: t.count,
            sum: t.sum,
            min: t.min(),
            max: t.max,
            p50: t.quantile(0.50),
            p90: t.quantile(0.90),
            p99: t.quantile(0.99),
            buckets,
        }
    }

    /// Resets to empty (requires exclusive access).
    pub fn reset(&mut self) {
        for s in self.stripes.iter_mut() {
            *s = Stripe::default();
        }
    }
}

impl Clone for LogSketch {
    fn clone(&self) -> Self {
        let c = Self::new();
        c.merge(self);
        c
    }
}

/// Immutable export form of a [`LogSketch`]: summary fields plus the
/// non-empty `(bucket index, count)` pairs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SketchSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Median upper bound.
    pub p50: u64,
    /// 90th-percentile upper bound.
    pub p90: u64,
    /// 99th-percentile upper bound.
    pub p99: u64,
    /// Non-empty buckets as `(index, count)`.
    pub buckets: Vec<(u32, u64)>,
}

impl SketchSnapshot {
    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Renders the buckets as text bars, one line per non-empty bucket
    /// (`ecl-run --histogram`).
    pub fn render(&self, title: &str, width: usize) -> String {
        use std::fmt::Write as _;
        let mut out = format!("{title}\n");
        let max = self.buckets.iter().map(|&(_, c)| c).max().unwrap_or(0);
        if max == 0 {
            out += "  (no samples)\n";
        }
        for &(k, c) in &self.buckets {
            let (lo, hi) = LogSketch::bucket_range(k as usize);
            let bar = "#".repeat(((c as f64 / max as f64) * width as f64).ceil() as usize);
            let _ = writeln!(out, "  [{lo:>8}, {hi:>8})  {c:>10}  {bar}");
        }
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::stripe::STRIPES;

    #[test]
    fn empty_sketch_is_all_zero() {
        let s = LogSketch::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.quantile(0.0), 0);
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.quantile(1.0), 0);
    }

    #[test]
    fn single_sample() {
        let s = LogSketch::new();
        s.record(7);
        assert_eq!(s.count(), 1);
        assert_eq!(s.min(), 7);
        assert_eq!(s.max(), 7);
        assert_eq!(s.mean(), 7.0);
        // The quantile bound is clamped to the observed max.
        assert_eq!(s.quantile(0.5), 7);
        assert_eq!(s.quantile(1.0), 7);
    }

    #[test]
    fn zeros_land_in_bucket_zero() {
        let s = LogSketch::new();
        s.record_n(0, 10);
        s.record(4);
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.snapshot().buckets, vec![(0, 10), (3, 1)]);
    }

    #[test]
    fn top_bucket_holds_u64_max_without_overflow() {
        let s = LogSketch::new();
        s.record(u64::MAX);
        s.record(u64::MAX); // sum saturates, buckets stay exact
        assert_eq!(LogSketch::bucket_of(u64::MAX), 64);
        assert_eq!(s.count(), 2);
        assert_eq!(s.max(), u64::MAX);
        assert_eq!(s.quantile(1.0), u64::MAX);
        assert_eq!(LogSketch::bucket_range(64).1, u64::MAX);
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let s = LogSketch::new();
        for v in 0..1000u64 {
            s.record(v);
        }
        let q = |p| s.quantile(p);
        assert!(q(0.1) <= q(0.5) && q(0.5) <= q(0.9) && q(0.9) <= q(1.0));
        assert_eq!(q(1.0), 999);
        // Median of 0..999 is ~500 → bucket upper bound 511.
        assert_eq!(q(0.5), 511);
    }

    #[test]
    fn merge_is_bucketwise_exact() {
        let a = LogSketch::new();
        let b = LogSketch::new();
        a.record_values(&[1, 2, 3]);
        b.record_values(&[100, 200]);
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.sum(), 306);
        assert_eq!(a.min(), 1);
        assert_eq!(a.max(), 200);
        let direct = LogSketch::new();
        direct.record_values(&[1, 2, 3, 100, 200]);
        assert_eq!(a.snapshot(), direct.snapshot());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let a = LogSketch::new();
        a.record_values(&[5, 9]);
        let before = a.snapshot();
        a.merge(&LogSketch::new());
        assert_eq!(a.snapshot(), before);
    }

    #[test]
    fn concurrent_records_equal_one_thread_recording_the_same_multiset() {
        // More OS threads than stripes, each with its own value range,
        // so min, max and the bucket mix all differ between stripes.
        let threads = 2 * STRIPES as u64 + 1;
        let values = |t: u64| (0..500u64).map(move |i| (i * i) >> t.min(12)).chain([t << 20]);
        let shared = LogSketch::new();
        std::thread::scope(|scope| {
            for t in 0..threads {
                let shared = &shared;
                scope.spawn(move || values(t).for_each(|v| shared.record(v)));
            }
        });
        let single = LogSketch::new();
        (0..threads).flat_map(values).for_each(|v| single.record(v));
        assert_eq!(shared.snapshot(), single.snapshot());
        assert_eq!(shared.count(), threads * 501);
        assert_eq!(
            (shared.sum(), shared.min(), shared.max(), shared.quantile(0.9)),
            (single.sum(), single.min(), single.max(), single.quantile(0.9))
        );
    }

    #[test]
    fn merge_clone_and_reset_see_every_stripe() {
        let s = LogSketch::new();
        std::thread::scope(|scope| {
            scope.spawn(|| s.record_values(&[1, 2, 3]));
            scope.spawn(|| s.record_values(&[100, 200]));
        });
        s.record(7);
        let direct = LogSketch::new();
        direct.record_values(&[1, 2, 3, 100, 200, 7]);
        assert_eq!(s.clone().snapshot(), direct.snapshot());
        let into = LogSketch::new();
        into.record(9);
        into.merge(&s);
        direct.record(9);
        assert_eq!(into.snapshot(), direct.snapshot());
        let mut s = s;
        s.reset();
        assert_eq!(s.snapshot(), LogSketch::new().snapshot());
        assert_eq!(s.min(), 0);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn bad_quantile_panics() {
        LogSketch::new().quantile(-0.1);
    }

    #[test]
    fn snapshot_roundtrips_summary() {
        let s = LogSketch::new();
        s.record_values(&[0, 1, 1, 8, 1 << 40]);
        let snap = s.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, 1 << 40);
        assert!(snap.mean() > 0.0);
        assert_eq!(snap.buckets.iter().map(|&(_, c)| c).sum::<u64>(), 5);
    }

    #[test]
    fn render_draws_the_power_of_two_buckets() {
        let s = LogSketch::new();
        s.record_values(&[0, 1, 3, 1000, 1000]);
        assert_eq!(
            s.snapshot().render("  x distribution", 40),
            "  x distribution
  [       0,        1)           1  ####################
  [       1,        2)           1  ####################
  [       2,        4)           1  ####################
  [     512,     1024)           2  ########################################
"
        );
        assert_eq!(LogSketch::new().snapshot().render("empty", 40), "empty\n  (no samples)\n");
    }

    #[test]
    fn reset_empties() {
        let mut s = LogSketch::new();
        s.record(3);
        s.reset();
        assert_eq!(s.count(), 0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.snapshot().buckets, vec![]);
    }

    #[test]
    fn clone_snapshots_values() {
        let s = LogSketch::new();
        s.record(3);
        let t = s.clone();
        s.record(4);
        assert_eq!(t.count(), 1);
        assert_eq!(s.count(), 2);
    }
}
