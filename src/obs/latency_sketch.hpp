// Log-bucketed latency sketch: the one distribution type of the repo.
//
// An HDR-histogram-style sketch over non-negative integers: values below 16
// are counted exactly, everything above lands in one of 16 linear
// sub-buckets per power of two, so the relative quantile error is bounded
// by 1/16 (6.25%) across the full uint64 range. Recording is a bucket
// increment; the serve planes record nanoseconds into the sketches of
// their per-shard records under the shard's lock and copy them out for
// snapshots.
//
// The registry's obs::Histogram wraps one sketch too. There the samples
// are in the histogram's own unit (whole microseconds for span.*_us, a
// count for auction.greedy.pool_size), so the `_ns` members below carry
// that unit instead.
//
// Sketches are mergeable (bucket-wise sums, associative and commutative),
// and additionally support delta_since() so a rolling window can subtract
// the cumulative sketch at the previous window edge. quantile_ns() is the
// one quantile estimator: it interpolates on the sketch's own buckets, so
// the serve planes, the registry exporters and bench-diff share one
// definition of p50/p95/p99.
#pragma once

#include <cstdint>
#include <vector>

namespace mcs::obs {

namespace sketch_detail {
/// 16 sub-buckets per octave above the exact range [0, 16).
inline constexpr int kSubBuckets = 16;
/// Highest index is reached at v = 2^64 - 1 (bit width 64).
inline constexpr std::size_t kBucketCount =
    static_cast<std::size_t>(kSubBuckets) * 61;  // 16 * (64 - 4 + 1)

/// Bucket index of a nanosecond value. Monotone in `ns`.
[[nodiscard]] std::size_t bucket_of(std::uint64_t ns) noexcept;
/// Largest value the bucket covers (inclusive; le-semantics upper edge).
[[nodiscard]] std::uint64_t bucket_upper_edge(std::size_t bucket) noexcept;
/// Smallest value the bucket covers.
[[nodiscard]] std::uint64_t bucket_lower_edge(std::size_t bucket) noexcept;
}  // namespace sketch_detail

/// A latency sketch as a value: recorded into, merged, subtracted
/// (delta_since), and queried for quantiles.
struct LatencySketchSnapshot {
  /// Per-bucket counts, trimmed after the highest non-empty bucket.
  std::vector<std::uint64_t> counts;
  std::uint64_t count{0};
  std::uint64_t sum_ns{0};  ///< exact: every sample is an integer
  /// Exact observed extrema (recorded sketches). Deltas reconstruct them
  /// from the occupied bucket edges instead (documented 6.25% bound).
  std::uint64_t min_ns{0};
  std::uint64_t max_ns{0};

  [[nodiscard]] bool empty() const { return count == 0; }
  [[nodiscard]] double mean_ns() const {
    return count == 0
               ? 0.0
               : static_cast<double>(sum_ns) / static_cast<double>(count);
  }

  /// Bucket-interpolated quantile (Prometheus histogram_quantile
  /// semantics, sharpened by the tracked extrema): the rank q * count is
  /// located in the cumulative bucket counts and interpolated linearly
  /// within its bucket, which spans (upper edge of the bucket below, its
  /// own upper edge]. The lowest bucket opens at min, the highest occupied
  /// one closes at max, and the result is clamped to [min, max]. q <= 0
  /// returns min, q >= 1 returns max, one sample returns it for every q,
  /// an empty sketch returns NaN. Allocates nothing.
  [[nodiscard]] double quantile_ns(double q) const;
  [[nodiscard]] double quantile_us(double q) const {
    return quantile_ns(q) / 1000.0;
  }

  /// Samples recorded between `earlier` and this sketch, both states of
  /// the same sketch (bucket-wise subtraction). Extrema of the delta are
  /// re-derived from its occupied bucket edges.
  [[nodiscard]] LatencySketchSnapshot delta_since(
      const LatencySketchSnapshot& earlier) const;

  /// Bucket-wise sum (associative, commutative) -- for aggregating shard
  /// sketches into an engine-wide view.
  void merge(const LatencySketchSnapshot& other);

  /// Adds one sample. Not thread-safe: the owner serializes access (the
  /// serve planes record under their shard slot's lock).
  void record_ns(std::uint64_t ns);
  /// Reserves room for every bucket, so record_ns never allocates (the
  /// serve planes' long-lived shard records reserve when attached).
  void reserve_buckets() { counts.reserve(sketch_detail::kBucketCount); }
};

}  // namespace mcs::obs
