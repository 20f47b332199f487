#include "obs/latency_sketch.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/assert.hpp"
#include "obs/metrics.hpp"

namespace mcs::obs {

namespace sketch_detail {

std::size_t bucket_of(std::uint64_t ns) noexcept {
  if (ns < kSubBuckets) return static_cast<std::size_t>(ns);
  // bit_width >= 5 here; the top 4 bits after the leading one pick the
  // linear sub-bucket within the octave.
  const int width = std::bit_width(ns);
  const std::size_t octave = static_cast<std::size_t>(width - 4);
  const std::uint64_t sub = (ns >> (width - 5)) - kSubBuckets;
  return octave * kSubBuckets + static_cast<std::size_t>(sub);
}

std::uint64_t bucket_lower_edge(std::size_t bucket) noexcept {
  if (bucket < kSubBuckets) return bucket;
  const std::size_t octave = bucket / kSubBuckets;
  const std::uint64_t sub = bucket % kSubBuckets;
  return (kSubBuckets + sub) << (octave - 1);
}

std::uint64_t bucket_upper_edge(std::size_t bucket) noexcept {
  if (bucket < kSubBuckets) return bucket;
  const std::size_t octave = bucket / kSubBuckets;
  const std::uint64_t sub = bucket % kSubBuckets;
  return ((kSubBuckets + sub + 1) << (octave - 1)) - 1;
}

}  // namespace sketch_detail

// ------------------------------------------------------------- live sketch

void LatencySketch::record_ns(std::uint64_t ns) noexcept {
  counts_[sketch_detail::bucket_of(ns)].fetch_add(1,
                                                  std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_ns_.fetch_add(ns, std::memory_order_relaxed);
  std::uint64_t seen = min_ns_.load(std::memory_order_relaxed);
  while (ns < seen &&
         !min_ns_.compare_exchange_weak(seen, ns, std::memory_order_relaxed)) {
  }
  seen = max_ns_.load(std::memory_order_relaxed);
  while (ns > seen &&
         !max_ns_.compare_exchange_weak(seen, ns, std::memory_order_relaxed)) {
  }
}

LatencySketchSnapshot LatencySketch::snapshot() const {
  LatencySketchSnapshot snap;
  std::size_t highest = 0;
  std::vector<std::uint64_t> counts(sketch_detail::kBucketCount, 0);
  for (std::size_t b = 0; b < counts.size(); ++b) {
    counts[b] = counts_[b].load(std::memory_order_relaxed);
    if (counts[b] > 0) highest = b + 1;
  }
  counts.resize(highest);
  snap.counts = std::move(counts);
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum_ns =
      static_cast<double>(sum_ns_.load(std::memory_order_relaxed));
  snap.min_ns = snap.count == 0 ? 0 : min_ns_.load(std::memory_order_relaxed);
  snap.max_ns = max_ns_.load(std::memory_order_relaxed);
  return snap;
}

// --------------------------------------------------------------- snapshot

double LatencySketchSnapshot::quantile_ns(double q) const {
  if (count == 0) return std::numeric_limits<double>::quiet_NaN();
  // Adapt the bucket counts to the counter plane's HistogramData shape:
  // boundaries are the (inclusive) upper edges of all buckets but the
  // last, whose role as the "overflow" bucket estimate_quantile closes
  // with the tracked max.
  MetricsSnapshot::HistogramData data;
  data.count = static_cast<std::int64_t>(count);
  data.sum = sum_ns;
  data.min = static_cast<double>(min_ns);
  data.max = static_cast<double>(max_ns);
  data.bucket_counts.reserve(counts.size());
  for (const std::uint64_t c : counts) {
    data.bucket_counts.push_back(static_cast<std::int64_t>(c));
  }
  if (counts.empty()) data.bucket_counts.push_back(data.count);
  data.boundaries.reserve(data.bucket_counts.size() - 1);
  for (std::size_t b = 0; b + 1 < data.bucket_counts.size(); ++b) {
    data.boundaries.push_back(
        static_cast<double>(sketch_detail::bucket_upper_edge(b)));
  }
  return estimate_quantile(data, q);
}

LatencySketchSnapshot LatencySketchSnapshot::delta_since(
    const LatencySketchSnapshot& earlier) const {
  MCS_EXPECTS(earlier.count <= count && earlier.counts.size() <= counts.size(),
              "sketch delta_since requires an earlier snapshot of the same "
              "sketch");
  LatencySketchSnapshot delta;
  delta.counts.resize(counts.size(), 0);
  std::size_t highest = 0;
  std::size_t lowest = counts.size();
  for (std::size_t b = 0; b < counts.size(); ++b) {
    const std::uint64_t before =
        b < earlier.counts.size() ? earlier.counts[b] : 0;
    delta.counts[b] = counts[b] - before;
    if (delta.counts[b] > 0) {
      highest = b + 1;
      lowest = std::min(lowest, b);
    }
  }
  delta.counts.resize(highest);
  delta.count = count - earlier.count;
  delta.sum_ns = sum_ns - earlier.sum_ns;
  // A window's true extrema are not recoverable from cumulative extrema;
  // the occupied bucket edges bound them within the sketch's resolution.
  // A snapshot racing record_ns can count a sample whose bucket it missed,
  // so a nonzero count does not imply an occupied bucket.
  if (highest > 0) {
    delta.min_ns = sketch_detail::bucket_lower_edge(lowest);
    delta.max_ns = sketch_detail::bucket_upper_edge(highest - 1);
  }
  return delta;
}

void LatencySketchSnapshot::merge(const LatencySketchSnapshot& other) {
  if (other.count == 0) return;
  if (other.counts.size() > counts.size()) {
    counts.resize(other.counts.size(), 0);
  }
  for (std::size_t b = 0; b < other.counts.size(); ++b) {
    counts[b] += other.counts[b];
  }
  min_ns = count == 0 ? other.min_ns : std::min(min_ns, other.min_ns);
  max_ns = count == 0 ? other.max_ns : std::max(max_ns, other.max_ns);
  count += other.count;
  sum_ns += other.sum_ns;
}

}  // namespace mcs::obs
