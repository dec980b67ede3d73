//! Log₂-bucket histograms with a stable JSON export.
//!
//! The analyzer records three per profiled run (ET-consult latency and
//! the per-round widening and table-growth deltas, reaching users as
//! `ProfileData` and through `awam profile --metrics-json`); the serve
//! daemon keeps one per connection for request latency and merges them
//! on a `stats` snapshot.
//!
//! [`Histogram`] uses 64 power-of-two buckets: value `v` lands in bucket
//! `⌊log₂ v⌋ + 1` (zero in bucket 0), so a single fixed-size array
//! covers the full `u64` range with ~2× relative resolution — the usual
//! trade for latency distributions. Quantiles are reported as the upper
//! bound of the bucket containing the target rank: an overestimate of at
//! most 2×, never an underestimate beyond the true bucket.

use crate::json::Json;

/// Number of histogram buckets: bucket 0 holds zeros, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i)`; the last bucket is open-ended.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A fixed-size log₂ histogram over `u64` samples.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
    /// Smallest sample seen (`u64::MAX` when empty).
    pub min: u64,
    /// Largest sample seen (0 when empty).
    pub max: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Upper bound of bucket `i` (inclusive for reporting purposes).
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bucket_of(value)] += 1;
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Fold another histogram into this one. Because the buckets are
    /// fixed log₂ ranges, merging shard-local histograms is exact: the
    /// merged buckets (and therefore every quantile estimate) are
    /// identical to recording the union of samples into one histogram.
    /// This is what lets the serve layer keep per-connection histograms
    /// on the hot path and only combine them on a `stats` snapshot.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
    }

    /// Approximate quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket holding the sample of rank `⌈q·count⌉` (clamped to the
    /// observed max). Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Encode as `{"count", "sum", "min", "max", "p50", "p90", "p99",
    /// "p999"}`. `min` is reported as 0 when empty.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("count", Json::Int(self.count as i64)),
            ("sum", Json::Int(self.sum as i64)),
            (
                "min",
                Json::Int(if self.count == 0 { 0 } else { self.min as i64 }),
            ),
            ("max", Json::Int(self.max as i64)),
            ("p50", Json::Int(self.quantile(0.50) as i64)),
            ("p90", Json::Int(self.quantile(0.90) as i64)),
            ("p99", Json::Int(self.quantile(0.99) as i64)),
            ("p999", Json::Int(self.quantile(0.999) as i64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_the_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_summary_stats() {
        let mut h = Histogram::new();
        for v in [3u64, 5, 9, 0, 100] {
            h.record(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 117);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 100);
        // p99 lands in the bucket of the max sample; it is clamped to
        // the observed max.
        assert_eq!(h.quantile(0.99), 100);
        // The median of {0,3,5,9,100} is 5 → bucket [4,8) upper bound 7.
        assert_eq!(h.quantile(0.5), 7);
    }

    #[test]
    fn merge_of_shards_equals_single_stream() {
        // Deterministic xorshift samples split across 4 "shards" the way
        // per-connection histograms split serve traffic: merging the
        // shard histograms must reproduce the single-stream histogram
        // bucket-for-bucket, so every quantile estimate matches too.
        let mut x = 0x9e3779b97f4a7c15u64;
        let samples: Vec<u64> = (0..10_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % 1_000_000
            })
            .collect();
        let mut single = Histogram::new();
        let mut shards = [
            Histogram::new(),
            Histogram::new(),
            Histogram::new(),
            Histogram::new(),
        ];
        for (i, &s) in samples.iter().enumerate() {
            single.record(s);
            shards[i % 4].record(s);
        }
        let mut merged = Histogram::new();
        for shard in &shards {
            merged.merge(shard);
        }
        assert_eq!(merged, single, "merge is exact, not approximate");
        for q in [0.5, 0.9, 0.99, 0.999] {
            assert_eq!(merged.quantile(q), single.quantile(q));
        }
        assert_eq!(merged.to_json().emit(), single.to_json().emit());
    }

    #[test]
    fn merge_into_empty_and_with_empty() {
        let mut filled = Histogram::new();
        for v in [1u64, 10, 100] {
            filled.record(v);
        }
        let mut from_empty = Histogram::new();
        from_empty.merge(&filled);
        assert_eq!(from_empty, filled);
        let mut with_empty = filled.clone();
        with_empty.merge(&Histogram::new());
        assert_eq!(with_empty, filled, "empty merge is the identity");
    }

    #[test]
    fn empty_histogram_serializes_zeros() {
        let json = Histogram::new().to_json();
        assert_eq!(json.get("count").and_then(Json::as_u64), Some(0));
        assert_eq!(json.get("min").and_then(Json::as_u64), Some(0));
        assert_eq!(json.get("p99").and_then(Json::as_u64), Some(0));
    }
}
