//! Log-bucketed histograms of counter values.
//!
//! Per-thread (and per-vertex) counter distributions are heavy-tailed
//! for irregular workloads; a power-of-two-bucket histogram shows the
//! shape at a glance and feeds the text charts the harness prints
//! ("we statistically and visually analyze the code-specific
//! metrics").

/// A histogram over power-of-two buckets: bucket 0 holds the value 0,
/// bucket `k >= 1` holds values in `[2^(k-1), 2^k)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
}

impl Histogram {
    /// Builds the histogram of `values`.
    pub fn of(values: &[u64]) -> Self {
        let mut buckets: Vec<u64> = Vec::new();
        for &v in values {
            let k = Self::bucket_of(v);
            if k >= buckets.len() {
                buckets.resize(k + 1, 0);
            }
            buckets[k] += 1;
        }
        Self { buckets, count: values.len() as u64 }
    }

    /// The bucket index a value falls into.
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Value range of bucket `k`, inclusive-exclusive — except the top
    /// bucket (index 64, holding `[2^63, u64::MAX]`), whose upper
    /// bound saturates at `u64::MAX` inclusively: `1u64 << 64` would
    /// overflow.
    pub fn bucket_range(k: usize) -> (u64, u64) {
        if k == 0 {
            (0, 1)
        } else if k >= 64 {
            (1u64 << 63, u64::MAX)
        } else {
            (1u64 << (k - 1), 1u64 << k)
        }
    }

    /// Largest value bucket `k` can hold.
    fn bucket_top(k: usize) -> u64 {
        if k >= 64 {
            u64::MAX
        } else {
            Self::bucket_range(k).1 - 1
        }
    }

    /// Raw bucket counts (lowest bucket first).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Total samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Fraction of samples in bucket `k` (0 for out-of-range buckets).
    pub fn fraction(&self, k: usize) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.buckets.get(k).copied().unwrap_or(0) as f64 / self.count as f64
    }

    /// The p-quantile (0.0–1.0) as an upper bucket bound — a cheap
    /// percentile estimate over the bucketed data.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    pub fn quantile_bound(&self, p: f64) -> u64 {
        assert!((0.0..=1.0).contains(&p), "quantile out of range");
        if self.count == 0 {
            return 0;
        }
        let target = (p * self.count as f64).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        for (k, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= target {
                return Self::bucket_top(k);
            }
        }
        Self::bucket_top(self.buckets.len().saturating_sub(1))
    }

    /// Merges `other` into `self`. The bucket layout is shared (bucket
    /// `k` always covers the same value range), so histograms built
    /// from value sets with different ranges — and hence different
    /// bucket-vector lengths — merge exactly: the shorter vector is
    /// extended to the longer one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, &theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
    }

    /// Renders the histogram as text bars, one line per non-empty
    /// bucket.
    pub fn render(&self, title: &str, width: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{title}");
        let max = self.buckets.iter().copied().max().unwrap_or(0);
        if max == 0 {
            let _ = writeln!(out, "  (no samples)");
            return out;
        }
        for (k, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let (lo, hi) = Self::bucket_range(k);
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

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1023), 10);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_range(0), (0, 1));
        assert_eq!(Histogram::bucket_range(3), (4, 8));
    }

    #[test]
    fn counts_and_fractions() {
        let h = Histogram::of(&[0, 0, 1, 2, 3, 4, 100]);
        assert_eq!(h.count(), 7);
        assert_eq!(h.buckets()[0], 2); // the zeros
        assert_eq!(h.buckets()[1], 1); // value 1
        assert_eq!(h.buckets()[2], 2); // 2, 3
        assert_eq!(h.buckets()[3], 1); // 4
        assert!((h.fraction(0) - 2.0 / 7.0).abs() < 1e-12);
        assert_eq!(h.fraction(99), 0.0);
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::of(&[]);
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_bound(0.5), 0);
        assert_eq!(h.quantile_bound(0.0), 0);
        assert_eq!(h.quantile_bound(1.0), 0);
        assert!(h.render("t", 20).contains("no samples"));
    }

    #[test]
    fn single_sample_quantiles() {
        let h = Histogram::of(&[12]);
        assert_eq!(h.count(), 1);
        // All quantiles land in 12's bucket, [8, 16).
        assert_eq!(h.quantile_bound(0.0), 15);
        assert_eq!(h.quantile_bound(0.5), 15);
        assert_eq!(h.quantile_bound(1.0), 15);
    }

    #[test]
    fn top_bucket_saturation() {
        // u64::MAX lands in the final bucket (index 64); the bucket
        // arithmetic must not overflow (`1u64 << 64` would) and the
        // quantile bound saturates at u64::MAX.
        let h = Histogram::of(&[u64::MAX, u64::MAX - 1]);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(h.buckets().len(), 65);
        assert_eq!(h.buckets()[64], 2);
        assert_eq!(Histogram::bucket_range(64), (1u64 << 63, u64::MAX));
        assert_eq!(h.quantile_bound(0.5), u64::MAX);
        assert_eq!(h.quantile_bound(1.0), u64::MAX);
        assert!(h.render("tail", 10).contains("18446744073709551615"));
    }

    #[test]
    fn merge_mismatched_ranges() {
        // Small-value histogram (3 buckets) absorbs a large-value one
        // (12 buckets) and vice versa — same result either way.
        let small = Histogram::of(&[0, 1, 2]);
        let large = Histogram::of(&[1024, 2048]);
        let mut a = small.clone();
        a.merge(&large);
        let mut b = large.clone();
        b.merge(&small);
        assert_eq!(a, b);
        assert_eq!(a, Histogram::of(&[0, 1, 2, 1024, 2048]));
        assert_eq!(a.count(), 5);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut h = Histogram::of(&[3, 9]);
        let before = h.clone();
        h.merge(&Histogram::of(&[]));
        assert_eq!(h, before);
        let mut e = Histogram::of(&[]);
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn quantiles_monotone() {
        let values: Vec<u64> = (0..1000).collect();
        let h = Histogram::of(&values);
        let q50 = h.quantile_bound(0.5);
        let q90 = h.quantile_bound(0.9);
        let q100 = h.quantile_bound(1.0);
        assert!(q50 <= q90 && q90 <= q100);
        // The median of 0..999 is ~500; the bucket bound is the next
        // power of two minus one.
        assert_eq!(q50, 511);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn bad_quantile_panics() {
        Histogram::of(&[1]).quantile_bound(1.5);
    }

    #[test]
    fn render_shows_nonempty_buckets() {
        let h = Histogram::of(&[1, 1, 1, 8]);
        let s = h.render("iterations", 10);
        assert!(s.contains("iterations"));
        assert!(s.contains("[       1,        2)"));
        assert!(s.contains("[       8,       16)"));
        // Zero bucket absent.
        assert!(!s.contains("[       0,        1)"));
    }
}
