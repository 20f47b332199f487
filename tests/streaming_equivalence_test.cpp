// Streaming equivalence: both paths built on the GreedyRound kernel -- the
// batch OnlineGreedyMechanism and the serve RoundMachine fed by
// serve::round_events -- agree with the tests-side reference oracle task
// for task and Money for Money, on every configuration family, weighted
// tasks, the Fig. 5 misreport, and a seeded workload grid.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "auction/online_greedy.hpp"
#include "common/rng.hpp"
#include "model/paper_examples.hpp"
#include "model/workload.hpp"
#include "support/generators.hpp"
#include "support/reference_greedy.hpp"
#include "support/streaming.hpp"

namespace mcs {
namespace {

using test_support::config_families;
using test_support::stream_round;

void expect_all_paths_match(const model::Scenario& scenario,
                            const model::BidProfile& bids,
                            const auction::OnlineGreedyConfig& config,
                            const std::string& label) {
  const test_support::ReferenceOutcome reference =
      test_support::reference_online_greedy(scenario, bids, config);
  test_support::expect_matches_reference(
      auction::OnlineGreedyMechanism(config).run(scenario, bids), reference,
      label + "/batch");
  test_support::expect_matches_reference(
      stream_round(scenario, bids, config).outcome, reference,
      label + "/round_machine");
}

TEST(StreamingEquivalence, EveryConfigFamilyOnRandomRounds) {
  Rng rng(20261017);
  for (const auto& [name, config] : config_families()) {
    for (int i = 0; i < 15; ++i) {
      const model::Scenario scarce = test_support::windowed(rng);
      expect_all_paths_match(scarce, scarce.truthful_bids(), config,
                             name + "/windowed#" + std::to_string(i));
      const model::Scenario free = test_support::scarcity_free(rng);
      expect_all_paths_match(free, free.truthful_bids(), config,
                             name + "/scarcity_free#" + std::to_string(i));
    }
  }
}

TEST(StreamingEquivalence, EveryConfigFamilyOnLongerRounds) {
  // More slots and phones than the default generator: long windows and
  // deep pools exercise the fork's pool rebuild from recorded win slots.
  Rng rng(777001);
  const test_support::GeneratorLimits big{.slots = 14,
                                          .max_phones = 30,
                                          .max_tasks = 20,
                                          .max_cost_units = 40,
                                          .value_units = 30};
  for (const auto& [name, config] : config_families()) {
    for (int i = 0; i < 6; ++i) {
      const model::Scenario scenario = test_support::windowed(rng, big);
      expect_all_paths_match(scenario, scenario.truthful_bids(), config,
                             name + "/big#" + std::to_string(i));
    }
  }
}

TEST(StreamingEquivalence, EveryConfigFamilyOnWeightedTasks) {
  Rng rng(31337);
  for (const auto& [name, config] : config_families()) {
    for (int i = 0; i < 10; ++i) {
      const model::Scenario scenario = test_support::weighted_tasks(rng);
      expect_all_paths_match(scenario, scenario.truthful_bids(), config,
                             name + "/weighted#" + std::to_string(i));
    }
  }
}

TEST(StreamingEquivalence, Fig5DelayedBidMisreport) {
  // Fig. 5(b): phone 0 delays its reported arrival by two slots. Every
  // path must price the misreport exactly as the oracle does, and the
  // truthful Fig. 4 round pays the paper's hand-computed amounts.
  const model::Scenario scenario = model::fig4_scenario();
  const model::BidProfile delayed = model::with_bid(
      scenario.truthful_bids(), PhoneId{0}, model::fig5_delayed_bid_phone1());
  for (const auto& [name, config] : config_families()) {
    expect_all_paths_match(scenario, delayed, config, name + "/fig5_delayed");
    expect_all_paths_match(scenario, scenario.truthful_bids(), config,
                           name + "/fig4_truthful");
  }
  const auction::Outcome streamed =
      stream_round(scenario, scenario.truthful_bids()).outcome;
  EXPECT_EQ(streamed.payments[1], Money::from_units(11));
  EXPECT_EQ(streamed.payments[0], Money::from_units(9));
  EXPECT_EQ(streamed.payments[6], Money::from_units(8));
  EXPECT_EQ(streamed.payments[5], Money::from_units(11));
  EXPECT_EQ(streamed.payments[3], Money::from_units(11));
}

// Seeded Poisson-workload rounds (12 slots) under four knob settings.
using EquivalenceParam = std::tuple<std::uint64_t, int>;  // (seed, config id)

class PlatformEquivalence : public ::testing::TestWithParam<EquivalenceParam> {
 protected:
  static auction::OnlineGreedyConfig config_for(int id) {
    auction::OnlineGreedyConfig config;
    switch (id) {
      case 0:
        break;  // paper-faithful
      case 1:
        config.allocate_only_profitable = true;
        break;
      case 2:
        config.reserve_price = Money::from_units(20);
        break;
      default:
        config.allocate_only_profitable = true;
        config.reserve_price = Money::from_units(20);
        config.scarce_payment =
            auction::OnlineGreedyConfig::ScarcePayment::kOwnBid;
    }
    return config;
  }
};

TEST_P(PlatformEquivalence, MatchesBatchMechanismExactly) {
  const auto [seed, config_id] = GetParam();
  Rng rng(seed);
  model::WorkloadConfig workload;
  workload.num_slots = 12;
  workload.phone_arrival_rate = 3.0;
  workload.task_arrival_rate = 2.0;
  workload.mean_cost = 15.0;
  workload.task_value = Money::from_units(30);
  const model::Scenario scenario = model::generate_scenario(workload, rng);
  expect_all_paths_match(scenario, scenario.truthful_bids(),
                         config_for(config_id),
                         "config " + std::to_string(config_id));
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndConfigs, PlatformEquivalence,
    ::testing::Combine(::testing::Range<std::uint64_t>(9000, 9010),
                       ::testing::Values(0, 1, 2, 3)));

}  // namespace
}  // namespace mcs
