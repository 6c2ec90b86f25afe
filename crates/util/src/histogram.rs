//! The power-of-two histogram both telemetry domains report: the thread
//! library's stall nanoseconds and the simulator's stall cycles share its
//! buckets and its JSON, so the two can be compared bucket for bucket.

use crate::Json;

/// Number of histogram buckets: one per power of two of a `u64` value.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// The keys a telemetry block exports its stall histogram and its
/// arrival-spread summary under, the same in both domains.
pub const SHARED_SECTION_KEYS: [&str; 2] = ["stall_hist", "spread"];

/// Counts per power-of-two range. Bucket `i` counts recorded values `v`
/// with `floor(log2(v)) == i` (bucket 0 also counts `v == 0`), so for
/// nanoseconds bucket 10 ≈ 1–2 µs and bucket 20 ≈ 1–2 ms; `u64::MAX`
/// saturates into the last bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    /// Count per power-of-two bucket; see [`Histogram::bucket_bounds`].
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl Histogram {
    /// The keys of [`Self::to_json`]'s object: unit label, total count,
    /// bucket rows.
    pub const KEYS: [&'static str; 3] = ["unit", "total", "buckets"];

    /// The keys of one bucket row: index, inclusive bounds, count.
    pub const BUCKET_KEYS: [&'static str; 4] = ["bucket", "lo", "hi", "count"];

    /// The bucket index a value lands in: `floor(log2(v))`, with 0 for 0.
    #[inline]
    #[must_use]
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (63 - value.leading_zeros()) as usize
        }
    }

    /// Inclusive lower and upper bound of bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= HISTOGRAM_BUCKETS`.
    #[must_use]
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        assert!(i < HISTOGRAM_BUCKETS);
        let lo = if i == 0 { 0 } else { 1u64 << i };
        let hi = if i == 63 {
            u64::MAX
        } else {
            (1u64 << (i + 1)) - 1
        };
        (lo, hi)
    }

    /// Records one observation of `value`.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
    }

    /// Adds another histogram's counts into this one, saturating.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = a.saturating_add(*b);
        }
    }

    /// Total number of recorded observations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// True if nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// Index of the highest non-empty bucket, or `None` when empty.
    #[must_use]
    pub fn max_bucket(&self) -> Option<usize> {
        self.buckets.iter().rposition(|&c| c > 0)
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// (`0.0 <= q <= 1.0`) of the recorded values, or `None` when empty.
    /// A coarse estimate — resolution is one power of two.
    #[must_use]
    pub fn quantile_upper_bound(&self, q: f64) -> Option<u64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(Self::bucket_bounds(i).1);
            }
        }
        Some(u64::MAX)
    }

    /// JSON form: the `unit` label (`"ns"` or `"cycles"`), the total, and
    /// only the non-empty buckets, each with its inclusive value range.
    #[must_use]
    pub fn to_json(&self, unit: &str) -> Json {
        let [bucket, lo, hi, count] = Self::BUCKET_KEYS;
        let rows = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| {
                let (min, max) = Self::bucket_bounds(i);
                Json::obj()
                    .field(bucket, i)
                    .field(lo, min)
                    .field(hi, max)
                    .field(count, n)
            })
            .collect();
        let [unit_key, total, buckets] = Self::KEYS;
        Json::obj()
            .field(unit_key, unit)
            .field(total, self.total())
            .field(buckets, Json::Arr(rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_u64_range() {
        // Bucket 0 holds 0 and 1; bucket i holds [2^i, 2^(i+1)).
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(3), 1);
        assert_eq!(Histogram::bucket_index(4), 2);
        assert_eq!(Histogram::bucket_index(1023), 9);
        assert_eq!(Histogram::bucket_index(1024), 10);
        assert_eq!(Histogram::bucket_index(u64::MAX), 63);
        let mut prev_hi = None;
        for i in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert!(lo <= hi);
            if let Some(p) = prev_hi {
                assert_eq!(lo, p + 1, "gap before bucket {i}");
            }
            assert_eq!(Histogram::bucket_index(lo.max(1)), i);
            assert_eq!(Histogram::bucket_index(hi), i);
            prev_hi = Some(hi);
        }
        assert_eq!(prev_hi, Some(u64::MAX));
    }

    #[test]
    fn records_saturate_into_the_last_bucket() {
        let mut h = Histogram::default();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        assert_eq!(h.buckets[HISTOGRAM_BUCKETS - 1], 2);
        assert_eq!(h.total(), 2);
        assert_eq!(h.max_bucket(), Some(HISTOGRAM_BUCKETS - 1));
    }

    #[test]
    fn quantiles() {
        let mut h = Histogram::default();
        for _ in 0..9 {
            h.record(100); // bucket 6 (64..127)
        }
        h.record(1 << 20); // bucket 20
        assert_eq!(h.quantile_upper_bound(0.5), Some(127));
        assert_eq!(h.quantile_upper_bound(1.0), Some((1 << 21) - 1));
        assert_eq!(Histogram::default().quantile_upper_bound(0.5), None);
        assert_eq!(Histogram::default().max_bucket(), None);
    }

    #[test]
    fn records_and_merges() {
        let mut a = Histogram::default();
        a.record(0);
        a.record(1);
        a.record(7);
        a.record(u64::MAX);
        assert_eq!(a.total(), 4);
        assert_eq!(a.buckets[0], 2);
        assert_eq!(a.buckets[2], 1);
        assert_eq!(a.buckets[63], 1);
        let mut b = Histogram::default();
        b.record(7);
        b.merge(&a);
        assert_eq!(b.buckets[2], 2);
        assert_eq!(b.total(), 5);
        assert!(!b.is_empty());
        assert!(Histogram::default().is_empty());
        let (mut x, mut y) = (Histogram::default(), Histogram::default());
        x.record(10);
        y.record(10);
        y.record(1000);
        x.merge(&y);
        assert_eq!(x.buckets[Histogram::bucket_index(10)], 2);
        assert_eq!(x.buckets[Histogram::bucket_index(1000)], 1);
        assert_eq!(x.total(), 3);
        // Merged counts saturate rather than wrap.
        let mut full = Histogram::default();
        full.buckets[2] = u64::MAX;
        full.merge(&a);
        assert_eq!(full.buckets[2], u64::MAX);
    }

    #[test]
    fn json_lists_only_nonempty_buckets() {
        let mut h = Histogram::default();
        h.buckets[0] = 2;
        h.buckets[5] = 1;
        let j = h.to_json("cycles");
        assert_eq!(j.get("unit"), Some(&Json::Str("cycles".into())));
        assert_eq!(j.get("total").and_then(Json::as_f64), Some(3.0));
        let entries = j.get("buckets").unwrap().as_arr().unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].get("bucket").and_then(Json::as_f64), Some(0.0));
        assert_eq!(entries[0].get("count").and_then(Json::as_f64), Some(2.0));
        assert_eq!(entries[1].get("bucket").and_then(Json::as_f64), Some(5.0));
        assert_eq!(entries[1].get("lo").and_then(Json::as_f64), Some(32.0));
        assert_eq!(entries[1].get("hi").and_then(Json::as_f64), Some(63.0));
    }
}
