// Offline VCG equivalence: the transversal-matroid greedy
// (auction/offline_vcg) against the Hungarian oracle (support/hungarian),
// which solves Fig. 3's maximum-weight matching and re-solves without each
// winner for Eq. (7). Claimed welfare and total payment must agree on every
// instance. The winner set and every phone's payment must agree wherever
// no two phones share a claimed cost: with ties, both solvers may pick
// different optima of equal welfare. Tiny instances also go through the
// brute-force matcher.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "auction/offline_vcg.hpp"
#include "common/rng.hpp"
#include "model/workload.hpp"
#include "support/brute_force.hpp"
#include "support/hungarian.hpp"

namespace mcs::auction {
namespace {

struct Shape {
  const char* name;
  Slot::rep_type slots;
  double lambda;
  double lambda_t;
  std::int64_t value;
  model::CostDistribution costs;
  int seeds;
};

model::Scenario generated(const Shape& shape, std::uint64_t seed) {
  model::WorkloadConfig workload;
  workload.num_slots = shape.slots;
  workload.phone_arrival_rate = shape.lambda;
  workload.task_arrival_rate = shape.lambda_t;
  workload.task_value = Money::from_units(shape.value);
  workload.cost_distribution = shape.costs;
  Rng rng(seed);
  return model::generate_scenario(workload, rng);
}

bool claims_tie(const model::BidProfile& bids) {
  std::vector<Money> claims;
  for (const model::Bid& bid : bids) claims.push_back(bid.claimed_cost);
  std::sort(claims.begin(), claims.end());
  return std::adjacent_find(claims.begin(), claims.end()) != claims.end();
}

/// Compares the mechanism with the oracle on one instance; returns whether
/// the instance was tie-free (so winners and payments were compared too).
bool expect_matches_oracle(const model::Scenario& s,
                           const model::BidProfile& bids,
                           const std::string& label) {
  const Outcome greedy = OfflineVcgMechanism{}.run(s, bids);
  const Outcome oracle = matching::hungarian_offline_vcg(s, bids);
  const Money welfare = oracle.claimed_welfare(s, bids);
  EXPECT_EQ(greedy.claimed_welfare(s, bids), welfare) << label;
  EXPECT_EQ(OfflineVcgMechanism::optimal_claimed_welfare(s, bids), welfare)
      << label;
  EXPECT_EQ(greedy.total_payment(), oracle.total_payment()) << label;
  if (claims_tie(bids)) return false;
  EXPECT_EQ(greedy.allocation.winners(), oracle.allocation.winners()) << label;
  EXPECT_EQ(greedy.payments, oracle.payments) << label;
  return true;
}

TEST(OfflineEquivalence, GreedyMatchesHungarianOnGeneratedRounds) {
  // (slots, lambda, lambda_t, nu): the mcs_cli generate shapes. nu 20 lies
  // below the mean cost 25, so many phones cannot win at all.
  const std::vector<Shape> shapes = {
      {"tiny", 6, 2.0, 1.0, 25, model::CostDistribution::kUniform, 120},
      {"small", 10, 3.0, 2.0, 30, model::CostDistribution::kUniform, 100},
      {"nu_below_costs", 30, 5.0, 3.0, 20, model::CostDistribution::kUniform,
       40},
      {"tie_free", 12, 4.0, 2.0, 40, model::CostDistribution::kNormal, 60},
  };
  int instances = 0;
  int tie_free = 0;
  for (const Shape& shape : shapes) {
    for (int seed = 1; seed <= shape.seeds; ++seed) {
      const model::Scenario s = generated(shape, static_cast<std::uint64_t>(seed));
      const std::string label =
          std::string(shape.name) + " seed " + std::to_string(seed);
      tie_free += expect_matches_oracle(s, s.truthful_bids(), label) ? 1 : 0;
      ++instances;
      if (::testing::Test::HasFailure()) return;
    }
  }
  EXPECT_GE(instances, 300);
  EXPECT_GE(tie_free, 50);  // winner sets and payments were compared
}

TEST(OfflineEquivalence, GreedyMatchesHungarianOnAHundredSlotRound) {
  const Shape shape{"hundred_slots", 100, 2.0, 1.0, 30,
                    model::CostDistribution::kUniform, 1};
  const model::Scenario s = generated(shape, 7);
  ASSERT_EQ(s.num_slots, 100);
  expect_matches_oracle(s, s.truthful_bids(), "hundred slots");
}

TEST(OfflineEquivalence, GreedyMatchesHungarianUnderMisreports) {
  // Shaded and inflated claims and narrowed windows: the mechanism only
  // sees the bids, so the oracle must agree on any profile.
  const Shape shape{"misreports", 8, 3.0, 2.0, 30,
                    model::CostDistribution::kNormal, 40};
  for (int seed = 1; seed <= shape.seeds; ++seed) {
    const model::Scenario s = generated(shape, static_cast<std::uint64_t>(seed));
    Rng rng(static_cast<std::uint64_t>(1000 + seed));
    model::BidProfile bids = s.truthful_bids();
    for (model::Bid& bid : bids) {
      bid.claimed_cost = Money::from_micros(
          bid.claimed_cost.micros() * rng.uniform_int(5, 15) / 10);
      if (rng.uniform_int(0, 3) == 0 && bid.window.length() > 1) {
        bid.window = SlotInterval::of(bid.window.begin().value() + 1,
                                      bid.window.end().value());
      }
    }
    expect_matches_oracle(s, bids, "misreports seed " + std::to_string(seed));
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(OfflineEquivalence, TinyRoundsMatchTheBruteForceMatcher) {
  // Welfare and every omega*(B_{-i}) by exhaustive search.
  const Shape shape{"tiny", 6, 2.0, 1.0, 25, model::CostDistribution::kUniform,
                    60};
  int checked = 0;
  for (int seed = 1; seed <= shape.seeds; ++seed) {
    const model::Scenario s = generated(shape, static_cast<std::uint64_t>(seed));
    if (s.phone_count() > matching::kBruteForceMaxCols) continue;
    const model::BidProfile bids = s.truthful_bids();
    const matching::WeightMatrix graph = matching::offline_graph(s, bids);
    const Money welfare = matching::brute_force_max_weight(graph).total_weight;
    const Outcome outcome = OfflineVcgMechanism{}.run(s, bids);
    ASSERT_EQ(outcome.claimed_welfare(s, bids), welfare) << "seed " << seed;
    for (const PhoneId winner : outcome.allocation.winners()) {
      const auto i = static_cast<std::size_t>(winner.value());
      const Money without =
          matching::brute_force_max_weight(graph.without_column(winner.value()))
              .total_weight;
      EXPECT_EQ(outcome.payments[i], welfare + bids[i].claimed_cost - without)
          << "seed " << seed << " phone " << i;
    }
    ++checked;
  }
  EXPECT_GE(checked, 40);
}

}  // namespace
}  // namespace mcs::auction
