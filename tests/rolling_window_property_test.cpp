// Property test for RollingWindow, once per windowed record type: under
// randomized increment sizes, randomized (including zero-span) sample
// timings, and capacities small enough to force ring trims, the
// per-window deltas folded back with the record's own += must always
// reproduce the cumulative totals -- no event is ever lost or
// double-counted by the windowing, and the windows chain gaplessly in
// time.
#include "obs/rolling_window.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>

#include "obs/econ_metrics.hpp"
#include "obs/latency_sketch.hpp"

namespace mcs::obs {
namespace {

/// Rolls 40 samples of a record that `grow` advances at random through a
/// capacity-1..5 RollingWindow, 20 trials, then hands the folded deltas
/// and the last cumulative sample to `expect_conserved`.
template <typename Record, typename Grow, typename Check>
void check_conservation(std::uint32_t seed, Grow grow, Check expect_conserved) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::uint64_t> advance(0, 2'000'000'000ULL);
  std::uniform_int_distribution<std::size_t> capacity_of(1, 5);

  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t capacity = capacity_of(rng);
    RollingWindow<Record> windows(capacity);
    Record cumulative;
    Record folded;
    std::uint64_t now = 0;
    const int rolls = 40;  // >> capacity: every trial trims the ring

    for (int roll = 0; roll < rolls; ++roll) {
      const std::uint64_t previous_end = now;
      grow(rng, cumulative);
      now += advance(rng);

      const Window<Record>& window = windows.roll(now, cumulative);
      EXPECT_EQ(window.index, roll);
      EXPECT_EQ(window.begin_ns, previous_end) << "windows chain gaplessly";
      EXPECT_EQ(window.end_ns, now);
      if (window.seconds() > 0.0) {
        EXPECT_NEAR(window.per_second(7) * window.seconds(), 7.0, 1e-6);
      } else {
        EXPECT_DOUBLE_EQ(window.per_second(7), 0.0)
            << "zero-span windows must not divide by zero";
      }
      folded += window.delta;
    }

    // The conservation law holds trims notwithstanding: the ring only
    // bounds *retention*, never the deltas handed back by roll().
    expect_conserved(folded, cumulative);
    EXPECT_LE(windows.windows().size(), capacity);
    EXPECT_EQ(windows.next_index(), rolls);
  }
}

void expect_same_samples(const LatencySketchSnapshot& folded,
                         const LatencySketchSnapshot& cumulative) {
  EXPECT_EQ(folded.count, cumulative.count);
  EXPECT_EQ(folded.counts, cumulative.counts);
}

TEST(RollingWindowProperty, WindowDeltasSumToCumulativeTotals) {
  std::uniform_int_distribution<int> small(0, 7);
  std::uniform_int_distribution<std::uint64_t> sample_ns(1, 5'000'000ULL);
  check_conservation<LiveCumulative>(
      20260809,
      [&](std::mt19937& rng, LiveCumulative& live) {
        // Monotone counters grow by random amounts; sketches get a random
        // number of samples; the depth levels move freely.
        const int new_processed = small(rng);
        live.submitted += small(rng);
        live.processed += new_processed;
        live.rejected += small(rng);
        live.rounds_closed += small(rng);
        live.queue_depth = small(rng);
        live.queue_watermark = live.queue_depth + small(rng);
        for (int s = 0; s < new_processed; ++s) {
          live.queue_wait.record_ns(sample_ns(rng));
        }
        for (int s = 0; s < small(rng); ++s) {
          live.round_latency.record_ns(sample_ns(rng));
        }
      },
      [](const LiveCumulative& folded, const LiveCumulative& cumulative) {
        EXPECT_EQ(folded.submitted, cumulative.submitted);
        EXPECT_EQ(folded.processed, cumulative.processed);
        EXPECT_EQ(folded.rejected, cumulative.rejected);
        EXPECT_EQ(folded.rounds_closed, cumulative.rounds_closed);
        expect_same_samples(folded.queue_wait, cumulative.queue_wait);
        expect_same_samples(folded.round_latency, cumulative.round_latency);
      });
}

TEST(RollingWindowProperty, EconAggregatorObeysTheSameConservationLaw) {
  // The econ record must satisfy the identical fold-back property for its
  // Money counters (exact micros) and ratio sketches.
  std::uniform_int_distribution<int> small(0, 6);
  std::uniform_int_distribution<std::int64_t> micros(0, 9'000'000);
  check_conservation<EconCumulative>(
      424242,
      [&](std::mt19937& rng, EconCumulative& econ) {
        econ.rounds += small(rng);
        econ.rounds_skipped += small(rng) == 0 ? 1 : 0;
        econ.tasks += small(rng);
        econ.payment_micros += micros(rng);
        econ.claimed_cost_micros += micros(rng);
        econ.second_price_payment_micros += micros(rng);
        econ.probe_checks += small(rng);
        econ.probe_unbounded += small(rng) == 0 ? 1 : 0;
        econ.violations += small(rng) == 0 ? 1 : 0;
        for (int s = 0; s < small(rng); ++s) {
          econ.fairness.record_ns(ratio_to_sketch_units(0.5));
          econ.overpayment.record_ns(ratio_to_sketch_units(0.25 * s));
        }
      },
      [](const EconCumulative& folded, const EconCumulative& cumulative) {
        EXPECT_EQ(folded.rounds, cumulative.rounds);
        EXPECT_EQ(folded.rounds_skipped, cumulative.rounds_skipped);
        EXPECT_EQ(folded.tasks, cumulative.tasks);
        EXPECT_EQ(folded.payment_micros, cumulative.payment_micros);
        EXPECT_EQ(folded.claimed_cost_micros, cumulative.claimed_cost_micros);
        EXPECT_EQ(folded.second_price_payment_micros,
                  cumulative.second_price_payment_micros);
        EXPECT_EQ(folded.probe_checks, cumulative.probe_checks);
        EXPECT_EQ(folded.probe_unbounded, cumulative.probe_unbounded);
        EXPECT_EQ(folded.violations, cumulative.violations);
        expect_same_samples(folded.fairness, cumulative.fairness);
        expect_same_samples(folded.overpayment, cumulative.overpayment);
      });
}

}  // namespace
}  // namespace mcs::obs
