#include "obs/latency_sketch.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/assert.hpp"

namespace mcs::obs {

namespace sketch_detail {

std::size_t bucket_of(std::uint64_t ns) noexcept {
  if (ns < kSubBuckets) return static_cast<std::size_t>(ns);
  // bit_width >= 5 here; the top 4 bits after the leading one pick the
  // linear sub-bucket within the octave.
  const int width = static_cast<int>(std::bit_width(ns));
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

double LatencySketchSnapshot::quantile_ns(double q) const {
  if (count == 0) return std::numeric_limits<double>::quiet_NaN();
  const double min = static_cast<double>(min_ns);
  const double max = static_cast<double>(max_ns);
  if (count == 1 || q <= 0.0) return min;
  if (q >= 1.0) return max;
  const double target = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    const std::uint64_t prev = cumulative;
    cumulative += counts[b];
    if (static_cast<double>(cumulative) < target || counts[b] == 0) continue;
    // Bucket edges, tightened by the tracked extrema: a delta's
    // bucket-derived min can undercut the bucket below, and the highest
    // bucket closes at max, so clamp both edges into [min, max] before
    // interpolating -- otherwise the estimate could leave the observed
    // range.
    const double lower = std::max(
        b == 0 ? min
               : static_cast<double>(sketch_detail::bucket_upper_edge(b - 1)),
        min);
    const double upper = std::min(
        b + 1 < counts.size()
            ? static_cast<double>(sketch_detail::bucket_upper_edge(b))
            : max,
        max);
    if (!(upper > lower)) return std::clamp(lower, min, max);
    const double position = (target - static_cast<double>(prev)) /
                            static_cast<double>(counts[b]);
    return std::clamp(lower + (upper - lower) * position, min, max);
  }
  return max;  // a count without bucket counts (a torn delta)
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

void LatencySketchSnapshot::record_ns(std::uint64_t ns) {
  const std::size_t bucket = sketch_detail::bucket_of(ns);
  if (bucket >= counts.size()) counts.resize(bucket + 1, 0);
  ++counts[bucket];
  min_ns = count == 0 ? ns : std::min(min_ns, ns);
  max_ns = std::max(max_ns, ns);
  ++count;
  sum_ns += ns;
}

}  // namespace mcs::obs
