// Shared randomized-instance generators for the property-test suites.
//
// Two families, matching the two supply regimes the mechanism theory
// distinguishes:
//  * windowed(): arbitrary active windows -- the general case, where
//    supply scarcity is possible (use for allocation/welfare/IR
//    properties);
//  * scarcity_free(): full-round phones with strictly more phones than
//    tasks -- the regime of the critical-value and truthfulness proofs
//    (DESIGN.md §5).
// All are deterministic in the Rng passed in.
#pragma once

#include "common/rng.hpp"
#include "model/scenario.hpp"

namespace mcs::test_support {

struct GeneratorLimits {
  Slot::rep_type slots = 5;
  int max_phones = 8;
  int max_tasks = 6;
  std::int64_t max_cost_units = 40;
  std::int64_t value_units = 60;
};

/// Arbitrary windows, arbitrary supply.
inline model::Scenario windowed(Rng& rng, const GeneratorLimits& limits = {}) {
  model::ScenarioBuilder builder(limits.slots);
  builder.value(limits.value_units);
  const int phones = static_cast<int>(rng.uniform_int(1, limits.max_phones));
  for (int i = 0; i < phones; ++i) {
    const auto a =
        static_cast<Slot::rep_type>(rng.uniform_int(1, limits.slots));
    const auto d =
        static_cast<Slot::rep_type>(rng.uniform_int(a, limits.slots));
    builder.phone(a, d, rng.uniform_int(1, limits.max_cost_units));
  }
  const int tasks = static_cast<int>(rng.uniform_int(1, limits.max_tasks));
  for (int k = 0; k < tasks; ++k) {
    builder.task(static_cast<Slot::rep_type>(rng.uniform_int(1, limits.slots)));
  }
  return builder.build();
}

/// Full-round phones, strictly more phones than tasks: no counterfactual
/// run can starve.
inline model::Scenario scarcity_free(Rng& rng,
                                     const GeneratorLimits& limits = {}) {
  model::ScenarioBuilder builder(limits.slots);
  builder.value(limits.value_units);
  const int tasks =
      static_cast<int>(rng.uniform_int(1, std::max(1, limits.max_tasks - 1)));
  const int phones =
      tasks + 2 + static_cast<int>(rng.uniform_int(
                      0, std::max<std::int64_t>(1, limits.max_phones - tasks)));
  for (int i = 0; i < phones; ++i) {
    builder.phone(1, limits.slots, rng.uniform_int(1, limits.max_cost_units));
  }
  for (int k = 0; k < tasks; ++k) {
    builder.task(static_cast<Slot::rep_type>(rng.uniform_int(1, limits.slots)));
  }
  return builder.build();
}

}  // namespace mcs::test_support
