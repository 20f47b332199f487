// Tests for the wall-clock timing plane's building blocks: the
// log-bucketed latency sketch (bucket math, quantile error bound, merge
// associativity, window deltas), the edge cases of its quantile estimator
// (the one the registry histograms share), the rolling window over the live record, and the overload
// health classifier.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <vector>

#include "obs/latency_sketch.hpp"
#include "obs/rolling_window.hpp"
#include "obs/wallclock.hpp"

namespace mcs::obs {
namespace {

// ------------------------------------------------------------ bucket math

TEST(LatencySketchBuckets, SmallValuesAreExact) {
  for (std::uint64_t ns = 0; ns < 16; ++ns) {
    const std::size_t bucket = sketch_detail::bucket_of(ns);
    EXPECT_EQ(bucket, ns);
    EXPECT_EQ(sketch_detail::bucket_lower_edge(bucket), ns);
    EXPECT_EQ(sketch_detail::bucket_upper_edge(bucket), ns);
  }
}

TEST(LatencySketchBuckets, EdgesBracketTheValueEverywhere) {
  std::vector<std::uint64_t> probes;
  for (std::uint64_t v = 1; v != 0 && v <= (1ULL << 62); v <<= 1) {
    probes.push_back(v - 1);
    probes.push_back(v);
    probes.push_back(v + 1);
    probes.push_back(v + v / 3);
  }
  probes.push_back(~0ULL);
  std::sort(probes.begin(), probes.end());
  std::size_t last_bucket = 0;
  for (const std::uint64_t ns : probes) {
    const std::size_t bucket = sketch_detail::bucket_of(ns);
    ASSERT_LT(bucket, sketch_detail::kBucketCount) << "ns=" << ns;
    EXPECT_LE(sketch_detail::bucket_lower_edge(bucket), ns) << "ns=" << ns;
    EXPECT_GE(sketch_detail::bucket_upper_edge(bucket), ns) << "ns=" << ns;
    EXPECT_GE(bucket, last_bucket) << "bucket_of not monotone at ns=" << ns;
    last_bucket = bucket;
  }
}

TEST(LatencySketchBuckets, RelativeWidthIsBounded) {
  // Above the exact range every bucket spans < 1/16 of its lower edge --
  // the advertised 6.25% quantile resolution.
  for (std::size_t bucket = 16; bucket < sketch_detail::kBucketCount - 16;
       bucket += 7) {
    const double lower =
        static_cast<double>(sketch_detail::bucket_lower_edge(bucket));
    const double upper =
        static_cast<double>(sketch_detail::bucket_upper_edge(bucket));
    EXPECT_LE((upper - lower) / lower, 1.0 / 16.0) << "bucket=" << bucket;
  }
}

// -------------------------------------------------------------- recording

TEST(LatencySketch, SingleSampleQuantilesAreExact) {
  LatencySketchSnapshot snap;
  snap.record_ns(777);
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.min_ns, 777u);
  EXPECT_EQ(snap.max_ns, 777u);
  for (const double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(snap.quantile_ns(q), 777.0) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(snap.quantile_us(0.5), 0.777);
}

TEST(LatencySketch, EmptySketchHasNaNQuantiles) {
  const LatencySketchSnapshot snap;
  EXPECT_TRUE(snap.empty());
  EXPECT_TRUE(std::isnan(snap.quantile_ns(0.5)));
  EXPECT_EQ(snap.counts.size(), 0u);
}

TEST(LatencySketch, QuantileErrorStaysWithinTheBucketBound) {
  LatencySketchSnapshot snap;
  for (std::uint64_t ns = 1; ns <= 10'000; ++ns) snap.record_ns(ns);
  EXPECT_EQ(snap.count, 10'000u);
  for (const double q : {0.10, 0.50, 0.90, 0.95, 0.99}) {
    const double exact = q * 10'000.0;
    const double estimate = snap.quantile_ns(q);
    EXPECT_NEAR(estimate, exact, exact / 16.0 + 1.0) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(snap.quantile_ns(1.0), 10'000.0);
  EXPECT_DOUBLE_EQ(snap.mean_ns(), 5000.5);
}

TEST(LatencySketch, IdenticalSamplesCollapseToTheirValue) {
  // min == max clamps the interpolation: every quantile is the value.
  LatencySketchSnapshot snap;
  for (int i = 0; i < 1000; ++i) snap.record_ns(123'456);
  for (const double q : {0.01, 0.5, 0.999}) {
    EXPECT_DOUBLE_EQ(snap.quantile_ns(q), 123'456.0) << "q=" << q;
  }
}

// ------------------------------------------------------- merge and deltas

LatencySketchSnapshot sketch_of(const std::vector<std::uint64_t>& values) {
  LatencySketchSnapshot sketch;
  for (const std::uint64_t v : values) sketch.record_ns(v);
  return sketch;
}

void expect_same(const LatencySketchSnapshot& a,
                 const LatencySketchSnapshot& b) {
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum_ns, b.sum_ns);
  EXPECT_EQ(a.min_ns, b.min_ns);
  EXPECT_EQ(a.max_ns, b.max_ns);
}

TEST(LatencySketch, MergeIsAssociativeAndCommutative) {
  const LatencySketchSnapshot a = sketch_of({3, 900, 70'000});
  const LatencySketchSnapshot b = sketch_of({1'000'000});
  const LatencySketchSnapshot c = sketch_of({12, 12, 5'000'000'000ULL});

  LatencySketchSnapshot ab_c = a;  // (a + b) + c
  ab_c.merge(b);
  ab_c.merge(c);
  LatencySketchSnapshot bc = b;  // a + (b + c)
  bc.merge(c);
  LatencySketchSnapshot a_bc = a;
  a_bc.merge(bc);
  expect_same(ab_c, a_bc);

  LatencySketchSnapshot cba = c;  // reversed order
  cba.merge(b);
  cba.merge(a);
  expect_same(ab_c, cba);

  EXPECT_EQ(ab_c.count, 7u);
  EXPECT_EQ(ab_c.min_ns, 3u);
  EXPECT_EQ(ab_c.max_ns, 5'000'000'000ULL);
}

TEST(LatencySketch, MergeWithEmptyIsIdentity) {
  const LatencySketchSnapshot a = sketch_of({42, 99});
  LatencySketchSnapshot merged = a;
  merged.merge(LatencySketchSnapshot{});
  expect_same(merged, a);
  LatencySketchSnapshot onto_empty;
  onto_empty.merge(a);
  expect_same(onto_empty, a);
}

TEST(LatencySketch, DeltaSinceIsolatesTheWindow) {
  LatencySketchSnapshot sketch;
  sketch.record_ns(5);
  sketch.record_ns(10);
  const LatencySketchSnapshot earlier = sketch;
  sketch.record_ns(7);
  sketch.record_ns(7);
  sketch.record_ns(2'000);
  const LatencySketchSnapshot later = sketch;

  const LatencySketchSnapshot delta = later.delta_since(earlier);
  EXPECT_EQ(delta.count, 3u);
  EXPECT_EQ(delta.sum_ns, 2'014u);
  // Delta extrema come from occupied bucket edges; 7 is exact, 2000 is
  // bracketed by its bucket.
  EXPECT_EQ(delta.min_ns, 7u);
  EXPECT_LE(delta.max_ns, sketch_detail::bucket_upper_edge(
                              sketch_detail::bucket_of(2'000)));
  EXPECT_GE(delta.max_ns, 2'000u);
}

TEST(LatencySketch, DeltaOfATornSnapshotHasNoBucketExtrema) {
  // A count without an occupied bucket must not invent delta extrema.
  const LatencySketchSnapshot earlier = sketch_of({50});
  LatencySketchSnapshot later = earlier;
  ++later.count;
  const LatencySketchSnapshot delta = later.delta_since(earlier);
  EXPECT_EQ(delta.count, 1u);
  EXPECT_TRUE(delta.counts.empty());
  EXPECT_EQ(delta.min_ns, 0u);
  EXPECT_EQ(delta.max_ns, 0u);
}

TEST(LatencySketch, DeltaOfIdenticalSnapshotsIsEmpty) {
  const LatencySketchSnapshot snap = sketch_of({50, 60});
  const LatencySketchSnapshot delta = snap.delta_since(snap);
  EXPECT_TRUE(delta.empty());
  EXPECT_TRUE(std::isnan(delta.quantile_ns(0.5)));
}

// ------------------------------------------ quantile estimator edge cases

TEST(EstimateQuantile, EmptyHistogramIsNaN) {
  LatencySketchSnapshot sketch;
  sketch.counts = {0, 0, 0};
  EXPECT_TRUE(std::isnan(sketch.quantile_ns(0.5)));
}

TEST(EstimateQuantile, SingleSampleReturnsItForEveryQ) {
  // 1000 shares the bucket [992, 1023]; one sample is still exact.
  const LatencySketchSnapshot sketch = sketch_of({1000});
  for (const double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(sketch.quantile_ns(q), 1000.0) << "q=" << q;
  }
}

TEST(EstimateQuantile, AllOverflowBucketStaysWithinObservedRange) {
  // Every sample in the sketch's top bucket [2^64 - 2^59, 2^64 - 1]: the
  // estimate must be closed by the tracked extrema, not the bucket edges.
  const std::size_t top = sketch_detail::kBucketCount - 1;
  const std::uint64_t low = sketch_detail::bucket_lower_edge(top) + (1ULL << 57);
  const std::uint64_t high = sketch_detail::bucket_upper_edge(top) - (1ULL << 57);
  ASSERT_EQ(sketch_detail::bucket_of(low), top);
  ASSERT_EQ(sketch_detail::bucket_of(high), top);
  LatencySketchSnapshot sketch;
  for (int i = 0; i < 4; ++i) {
    sketch.record_ns(low);
    sketch.record_ns(high);
  }
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    const double estimate = sketch.quantile_ns(q);
    EXPECT_GE(estimate, static_cast<double>(low)) << "q=" << q;
    EXPECT_LE(estimate, static_cast<double>(high)) << "q=" << q;
  }
}

TEST(EstimateQuantile, DegenerateBucketEdgesDoNotInventValues) {
  // min == max collapses the only occupied bucket [992, 1023] to a point.
  const LatencySketchSnapshot sketch = sketch_of({1000, 1000, 1000, 1000});
  EXPECT_DOUBLE_EQ(sketch.quantile_ns(0.5), 1000.0);
}

// ---------------------------------------------------------------- windows

using LiveWindow = Window<LiveCumulative>;

LiveCumulative cumulative_of(std::int64_t submitted, std::int64_t processed,
                             std::int64_t rejected) {
  LiveCumulative sample;
  sample.submitted = submitted;
  sample.processed = processed;
  sample.rejected = rejected;
  return sample;
}

TEST(RollingWindow, DeltasRatesAndMonotoneIndices) {
  RollingWindow<LiveCumulative> windows(8);
  EXPECT_EQ(windows.next_index(), 0);

  const LiveWindow w0 = windows.roll(1'000'000'000ULL, cumulative_of(100, 90, 0));
  EXPECT_EQ(w0.index, 0);
  EXPECT_EQ(w0.begin_ns, 0u);
  EXPECT_EQ(w0.end_ns, 1'000'000'000ULL);
  EXPECT_EQ(w0.delta.processed, 90);
  EXPECT_DOUBLE_EQ(w0.per_second(w0.delta.processed), 90.0);
  EXPECT_DOUBLE_EQ(w0.delta.reject_rate(), 0.0);

  const LiveWindow w1 =
      windows.roll(3'000'000'000ULL, cumulative_of(200, 150, 25));
  EXPECT_EQ(w1.index, 1);
  EXPECT_EQ(w1.delta.submitted, 100);
  EXPECT_EQ(w1.delta.processed, 60);
  EXPECT_EQ(w1.delta.rejected, 25);
  EXPECT_DOUBLE_EQ(w1.per_second(w1.delta.processed), 30.0);  // 60 over 2 s
  EXPECT_DOUBLE_EQ(w1.delta.reject_rate(), 0.2);  // 25 / 125 offered
  EXPECT_EQ(windows.next_index(), 2);
}

TEST(RollingWindow, SameInputsSameWindows) {
  const auto run = [] {
    RollingWindow<LiveCumulative> windows(4);
    std::vector<LiveWindow> out;
    for (int i = 1; i <= 5; ++i) {
      out.push_back(windows.roll(static_cast<std::uint64_t>(i) * std::uint64_t{500'000'000},
                                 cumulative_of(20 * i, 18 * i, i)));
    }
    return out;
  };
  const std::vector<LiveWindow> a = run();
  const std::vector<LiveWindow> b = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index);
    EXPECT_EQ(a[i].delta.processed, b[i].delta.processed);
    EXPECT_DOUBLE_EQ(a[i].per_second(a[i].delta.processed),
                     b[i].per_second(b[i].delta.processed));
    EXPECT_DOUBLE_EQ(a[i].delta.reject_rate(), b[i].delta.reject_rate());
  }
}

TEST(RollingWindow, CapacityTrimsOldestButIndicesKeepCounting) {
  RollingWindow<LiveCumulative> windows(2);
  for (int i = 1; i <= 5; ++i) {
    windows.roll(static_cast<std::uint64_t>(i), cumulative_of(i, i, 0));
  }
  ASSERT_EQ(windows.windows().size(), 2u);
  EXPECT_EQ(windows.windows().front().index, 3);
  EXPECT_EQ(windows.windows().back().index, 4);
  EXPECT_EQ(windows.next_index(), 5);
}

TEST(RollingWindow, ZeroSpanWindowHasZeroRates) {
  RollingWindow<LiveCumulative> windows(4);
  const LiveWindow w = windows.roll(0, cumulative_of(10, 10, 0));
  EXPECT_DOUBLE_EQ(w.per_second(w.delta.processed), 0.0);
  EXPECT_DOUBLE_EQ(w.per_second(w.delta.rounds_closed), 0.0);
}

// ----------------------------------------------------------------- health

/// A window offering 4 accepted events plus `rejected` shed ones.
LiveWindow window_with(std::int64_t processed, std::int64_t queue_depth,
                       std::int64_t watermark, std::int64_t rejected) {
  LiveWindow w;
  w.delta.submitted = 4;
  w.delta.processed = processed;
  w.delta.queue_depth = queue_depth;
  w.delta.queue_watermark = watermark;
  w.delta.rejected = rejected;
  return w;
}

TEST(HealthClassifier, EmptyAndQuietWindowsAreHealthy) {
  EXPECT_EQ(classify_health({}, 100), HealthState::kHealthy);
  std::deque<LiveWindow> windows;
  windows.push_back(window_with(50, 0, 3, 0));
  windows.push_back(window_with(40, 1, 2, 0));
  EXPECT_EQ(classify_health(windows, 100), HealthState::kHealthy);
}

TEST(HealthClassifier, SheddingFiresOnTheLastWindowAlone) {
  std::deque<LiveWindow> windows;
  windows.push_back(window_with(50, 0, 3, 1));
  EXPECT_EQ(classify_health(windows, 100), HealthState::kShedding);
  // A recovered window clears it even with shedding history behind it.
  windows.push_back(window_with(50, 0, 3, 0));
  EXPECT_EQ(classify_health(windows, 100), HealthState::kHealthy);
}

TEST(HealthClassifier, SaturationNeedsDwell) {
  std::deque<LiveWindow> windows;
  windows.push_back(window_with(50, 10, 80, 0));
  EXPECT_EQ(classify_health(windows, 100), HealthState::kHealthy)
      << "one hot window is not an incident";
  windows.push_back(window_with(50, 10, 90, 0));
  EXPECT_EQ(classify_health(windows, 100), HealthState::kSaturated);
  // Capacity matters: the same watermarks against a huge queue are fine.
  EXPECT_EQ(classify_health(windows, 1'000'000), HealthState::kHealthy);
}

TEST(HealthClassifier, StalledNeedsBacklogAndNoProgress) {
  std::deque<LiveWindow> windows;
  windows.push_back(window_with(0, 5, 5, 0));
  windows.push_back(window_with(0, 5, 5, 0));
  EXPECT_EQ(classify_health(windows, 100), HealthState::kStalled);
  // Any forward progress in the dwell breaks the stall.
  windows.back().delta.processed = 1;
  EXPECT_NE(classify_health(windows, 100), HealthState::kStalled);
  // An empty queue that processes nothing is idle, not stalled.
  std::deque<LiveWindow> idle;
  idle.push_back(window_with(0, 0, 0, 0));
  idle.push_back(window_with(0, 0, 0, 0));
  EXPECT_EQ(classify_health(idle, 100), HealthState::kHealthy);
}

TEST(HealthClassifier, StalledOutranksSheddingOutranksSaturated) {
  std::deque<LiveWindow> windows;
  windows.push_back(window_with(0, 90, 95, 4));
  windows.push_back(window_with(0, 90, 95, 4));
  EXPECT_EQ(classify_health(windows, 100), HealthState::kStalled);
  windows.back().delta.processed = 1;  // not stalled; still shedding + saturated
  EXPECT_EQ(classify_health(windows, 100), HealthState::kShedding);
  windows.back().delta.rejected = 0;  // saturation remains
  EXPECT_EQ(classify_health(windows, 100), HealthState::kSaturated);

  EXPECT_EQ(worse(HealthState::kHealthy, HealthState::kSaturated),
            HealthState::kSaturated);
  EXPECT_EQ(worse(HealthState::kStalled, HealthState::kShedding),
            HealthState::kStalled);
  EXPECT_EQ(to_string(HealthState::kStalled), "stalled");
}

// ------------------------------------------------------------- fake clock

TEST(FakeClock, AdvancesMonotonically) {
  FakeClock clock(100);
  EXPECT_EQ(clock.now_ns(), 100u);
  clock.advance_ns(5);
  EXPECT_EQ(clock.now_ns(), 105u);
  clock.advance_ms(2);
  EXPECT_EQ(clock.now_ns(), 2'000'105u);
}

}  // namespace
}  // namespace mcs::obs
