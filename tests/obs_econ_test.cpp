// Unit tests for the economic metrics primitives: the pure ratio math
// (overpayment sigma, Jain fairness, coverage), the micro-ratio sketch
// encoding, the econ record under the rolling window, and the sticky
// degraded-economics health classification.
#include "obs/econ_metrics.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/money.hpp"

namespace mcs::obs {
namespace {

// ------------------------------------------------------------- ratio math

TEST(EconMath, OverpaymentRatioIsSigma) {
  EXPECT_DOUBLE_EQ(
      overpayment_ratio(Money::from_units(15), Money::from_units(10)), 0.5);
  EXPECT_DOUBLE_EQ(
      overpayment_ratio(Money::from_units(10), Money::from_units(10)), 0.0);
  EXPECT_DOUBLE_EQ(overpayment_ratio(Money::from_units(3), Money{}), 0.0)
      << "no winners, no sigma";
}

TEST(EconMath, JainFairnessIndex) {
  EXPECT_DOUBLE_EQ(jain_fairness({}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness({Money{}, Money{}}), 1.0)
      << "all-zero payments are not uneven";
  EXPECT_DOUBLE_EQ(
      jain_fairness({Money::from_units(4), Money::from_units(4)}), 1.0);
  // One phone takes everything out of 4: index collapses to 1/4.
  EXPECT_DOUBLE_EQ(
      jain_fairness({Money::from_units(8), Money{}, Money{}, Money{}}), 0.25);
}

TEST(EconMath, CoverageRate) {
  EXPECT_DOUBLE_EQ(coverage_rate(3, 4), 0.75);
  EXPECT_DOUBLE_EQ(coverage_rate(0, 0), 1.0) << "no tasks, full coverage";
  EXPECT_DOUBLE_EQ(coverage_rate(0, 5), 0.0);
}

TEST(EconMath, RatioSketchUnitsRoundTrip) {
  EXPECT_EQ(ratio_to_sketch_units(0.0), 0u);
  EXPECT_EQ(ratio_to_sketch_units(1.0), 1'000'000u);
  EXPECT_EQ(ratio_to_sketch_units(-0.5), 0u) << "negative ratios clamp";
  EXPECT_DOUBLE_EQ(sketch_units_to_ratio(500'000.0), 0.5);
  EXPECT_DOUBLE_EQ(
      sketch_units_to_ratio(static_cast<double>(ratio_to_sketch_units(0.75))),
      0.75);
}

// --------------------------------------------------------------- windows

EconCumulative cumulative_of(std::int64_t rounds, std::int64_t payment_micros) {
  EconCumulative sample;
  sample.rounds = rounds;
  sample.payment_micros = payment_micros;
  sample.tasks = rounds * 4;
  sample.tasks_allocated = rounds * 3;
  return sample;
}

TEST(EconWindows, AggregatorProducesExactDeltas) {
  RollingWindow<EconCumulative> windows(8);
  const Window<EconCumulative> first =
      windows.roll(1'000'000'000ULL, cumulative_of(5, 700));
  EXPECT_EQ(first.index, 0);
  EXPECT_EQ(first.delta.rounds, 5);
  EXPECT_EQ(first.delta.payment_micros, 700);
  EXPECT_DOUBLE_EQ(first.per_second(first.delta.rounds), 5.0);
  EXPECT_DOUBLE_EQ(first.delta.coverage(), 0.75);

  const Window<EconCumulative> second =
      windows.roll(3'000'000'000ULL, cumulative_of(6, 1000));
  EXPECT_EQ(second.index, 1);
  EXPECT_EQ(second.delta.rounds, 1) << "delta, not cumulative";
  EXPECT_EQ(second.delta.payment_micros, 300);
  EXPECT_DOUBLE_EQ(second.per_second(second.delta.rounds), 0.5);
  EXPECT_EQ(second.begin_ns, first.end_ns) << "windows chain";
}

TEST(EconWindows, AggregatorTrimsToCapacity) {
  RollingWindow<EconCumulative> windows(2);
  for (int i = 1; i <= 5; ++i) {
    windows.roll(static_cast<std::uint64_t>(i) * std::uint64_t{1'000'000},
                 cumulative_of(i, i * 10));
  }
  EXPECT_EQ(windows.windows().size(), 2u);
  EXPECT_EQ(windows.windows().back().index, 4);
  EXPECT_EQ(windows.next_index(), 5);
}

TEST(EconWindows, OverpaymentRatioDerivesFromWindowDeltas) {
  RollingWindow<EconCumulative> windows;
  EconCumulative sample;
  sample.payment_micros = Money::from_units(15).micros();
  sample.claimed_cost_micros = Money::from_units(10).micros();
  const Window<EconCumulative>& window = windows.roll(1'000'000'000ULL, sample);
  EXPECT_DOUBLE_EQ(window.delta.overpayment_ratio(), 0.5);
}

// ---------------------------------------------------------------- health

TEST(EconHealth, AnyViolationIsDegradedEconomics) {
  EXPECT_EQ(classify_econ_health(0), HealthState::kHealthy);
  EXPECT_EQ(classify_econ_health(1), HealthState::kDegradedEconomics);
  EXPECT_EQ(classify_econ_health(40), HealthState::kDegradedEconomics);
}

TEST(EconHealth, DegradedEconomicsOutranksEverySystemsState) {
  EXPECT_EQ(to_string(HealthState::kDegradedEconomics), "degraded-economics");
  EXPECT_EQ(worse(HealthState::kStalled, HealthState::kDegradedEconomics),
            HealthState::kDegradedEconomics);
  EXPECT_EQ(worse(HealthState::kDegradedEconomics, HealthState::kHealthy),
            HealthState::kDegradedEconomics);
}

}  // namespace
}  // namespace mcs::obs
