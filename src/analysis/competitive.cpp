#include "analysis/competitive.hpp"

#include "auction/offline_vcg.hpp"
#include "common/assert.hpp"
#include "common/rng.hpp"

namespace mcs::analysis {

CompetitiveResult competitive_ratio(const model::Scenario& scenario,
                                    const model::BidProfile& bids,
                                    const auction::OnlineGreedyConfig& config) {
  CompetitiveResult result;

  const auction::GreedyRun run =
      auction::run_greedy_allocation(scenario, bids, config);
  Money online;
  for (int t = 0; t < scenario.task_count(); ++t) {
    if (const auto phone = run.allocation.phone_for(TaskId{t})) {
      online += scenario.task_value -
                bids[static_cast<std::size_t>(phone->value())].claimed_cost;
    }
  }
  result.online_welfare = online;
  result.offline_welfare =
      auction::OfflineVcgMechanism::optimal_claimed_welfare(scenario, bids);
  MCS_ASSERT(result.offline_welfare >= result.online_welfare ||
                 !config.allocate_only_profitable,
             "profitable-only greedy cannot beat the optimum");
  result.ratio = result.offline_welfare.is_zero()
                     ? 1.0
                     : result.online_welfare.ratio_to(result.offline_welfare);
  return result;
}

double CompetitiveStudy::min_ratio() const {
  return ratios.empty() ? 1.0 : ratios.stats().min();
}

double CompetitiveStudy::mean_ratio() const {
  return ratios.empty() ? 1.0 : ratios.stats().mean();
}

CompetitiveStudy study_competitive_ratio(
    const model::WorkloadConfig& workload, int repetitions,
    std::uint64_t base_seed, const auction::OnlineGreedyConfig& config) {
  MCS_EXPECTS(repetitions >= 1, "repetitions must be >= 1");
  CompetitiveStudy study;
  const Rng parent(base_seed);
  for (int rep = 0; rep < repetitions; ++rep) {
    Rng rng = parent.fork(static_cast<std::uint64_t>(rep));
    const model::Scenario scenario = model::generate_scenario(workload, rng);
    const CompetitiveResult result =
        competitive_ratio(scenario, scenario.truthful_bids(), config);
    study.ratios.add(result.ratio);
    ++study.instances;
    if (result.ratio < 0.5) ++study.below_half;
  }
  return study;
}

model::Scenario tight_competitive_scenario(int pairs,
                                           std::int64_t task_value_units) {
  MCS_EXPECTS(pairs >= 1, "at least one gadget required");
  MCS_EXPECTS(task_value_units >= 3, "value must exceed the gadget costs");
  model::ScenarioBuilder builder(2 * pairs);
  builder.value(task_value_units);
  for (int j = 0; j < pairs; ++j) {
    const Slot::rep_type first = 2 * j + 1;
    // Flexible phone: cheap and available both slots -- greedy grabs it in
    // the first slot, starving the second.
    builder.phone(first, first + 1, 1);
    // Rigid phone: slightly pricier, first slot only.
    builder.phone(first, first, 2);
    builder.task(first);
    builder.task(first + 1);
  }
  return builder.build();
}

}  // namespace mcs::analysis
