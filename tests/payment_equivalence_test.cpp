// Equivalence suite for Algorithm 2 on the GreedyRound kernel.
//
// The kernel's claim is exactness, not approximation: forking each
// counterfactual at the winner's reported arrival must produce
// *Money-equal* payments to re-running Algorithm 1 from slot 1 without the
// winner (the tests-side reference oracle, support/reference_greedy), on
// every configuration corner -- reserve prices, profitable-only
// allocation, weighted tasks, supply scarcity -- and the probe forks must
// agree with full re-runs too.
#include "auction/counterfactual.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "auction/critical_value.hpp"
#include "auction/online_greedy.hpp"
#include "common/rng.hpp"
#include "model/paper_examples.hpp"
#include "model/strategy.hpp"
#include "obs/metrics.hpp"
#include "support/generators.hpp"
#include "support/reference_greedy.hpp"
#include "support/streaming.hpp"

namespace mcs::auction {
namespace {

using model::Scenario;
using test_support::config_families;

/// Core oracle: the kernel-backed mechanism under `config` must equal the
/// full-replay reference outcome-for-outcome, payment-for-payment.
void expect_engines_agree(const Scenario& scenario,
                          const model::BidProfile& bids,
                          const OnlineGreedyConfig& config,
                          const std::string& label) {
  test_support::expect_matches_reference(
      OnlineGreedyMechanism(config).run(scenario, bids),
      test_support::reference_online_greedy(scenario, bids, config), label);
}

/// Does `phone` win under the reference Algorithm 1?
bool reference_wins(const Scenario& scenario, const model::BidProfile& bids,
                    PhoneId phone, const OnlineGreedyConfig& config) {
  const std::vector<int> winners =
      test_support::reference_allocation(scenario, bids, config).task_winner;
  return std::find(winners.begin(), winners.end(), phone.value()) !=
         winners.end();
}

// ------------------------------------------------ fast == naive property

TEST(PaymentEquivalence, SharedPrefixEqualsFullReplayAcrossConfigCorners) {
  // 5 config families x 2 supply regimes x 20 scenarios = 200 cases,
  // plus 40 weighted-task cases below: every payment Money-equal.
  Rng rng(20260807);
  for (const auto& [name, config] : config_families()) {
    for (int i = 0; i < 20; ++i) {
      const Scenario scarce = test_support::windowed(rng);
      expect_engines_agree(scarce, scarce.truthful_bids(), config,
                           name + "/windowed#" + std::to_string(i));
      const Scenario free = test_support::scarcity_free(rng);
      expect_engines_agree(free, free.truthful_bids(), config,
                           name + "/scarcity_free#" + std::to_string(i));
    }
  }
}

TEST(PaymentEquivalence, SharedPrefixEqualsFullReplayOnWeightedTasks) {
  Rng rng(424242);
  for (const auto& [name, config] : config_families()) {
    for (int i = 0; i < 8; ++i) {
      const Scenario scenario = test_support::weighted_tasks(rng);
      expect_engines_agree(scenario, scenario.truthful_bids(), config,
                           name + "/weighted#" + std::to_string(i));
    }
  }
}

TEST(PaymentEquivalence, Fig4WorkedExamplePaysTheSameOnBothEngines) {
  const Scenario scenario = model::fig4_scenario();
  expect_engines_agree(scenario, scenario.truthful_bids(),
                       OnlineGreedyConfig{}, "fig4");
  // And both match the paper's hand-computed numbers (phones 1, 0, 6, 5, 3
  // paid 11, 9, 8, 11, 11).
  const OnlineGreedyMechanism fast;
  const Outcome outcome = fast.run(scenario, scenario.truthful_bids());
  EXPECT_EQ(outcome.payments[1], Money::from_units(11));
  EXPECT_EQ(outcome.payments[0], Money::from_units(9));
  EXPECT_EQ(outcome.payments[6], Money::from_units(8));
  EXPECT_EQ(outcome.payments[5], Money::from_units(11));
  EXPECT_EQ(outcome.payments[3], Money::from_units(11));
}

// -------------------------------------------- probe-level equivalence

TEST(PaymentEquivalence, WinsWithCostMatchesFullRerunOnRandomProbes) {
  // Reserve-rejected phones probed below the reserve are included: the
  // factual run never admitted them, so the fork must still be exact.
  Rng rng(777);
  for (const auto& [name, config] : config_families()) {
    for (int i = 0; i < 12; ++i) {
      const Scenario scenario = test_support::windowed(rng);
      const model::BidProfile bids = scenario.truthful_bids();
      const CounterfactualEngine engine(scenario, bids, config);
      for (int p = 0; p < scenario.phone_count(); ++p) {
        const PhoneId phone{p};
        for (int probe = 0; probe < 4; ++probe) {
          const Money cost =
              Money::from_micros(rng.uniform_int(0, 45'000'000));
          const model::BidProfile probed = model::with_bid(
              bids, phone,
              model::Bid{bids[static_cast<std::size_t>(p)].window, cost});
          EXPECT_EQ(engine.wins_with_cost(phone, cost),
                    reference_wins(scenario, probed, phone, config))
              << name << " scenario#" << i << " phone " << p << " cost "
              << cost;
        }
      }
    }
  }
}

/// The pre-engine bisection predicate: a full reference Algorithm-1
/// re-run per probe -- the independent oracle for the engine-backed
/// greedy_critical_value.
std::optional<Money> full_rerun_critical_value(const Scenario& scenario,
                                               const model::BidProfile& bids,
                                               PhoneId phone,
                                               const OnlineGreedyConfig& config) {
  Money max_cost;
  for (const model::Bid& bid : bids) {
    max_cost = std::max(max_cost, bid.claimed_cost);
  }
  Money max_value = scenario.task_value;
  for (const model::Task& task : scenario.tasks) {
    max_value = std::max(max_value, scenario.value_of(task.id));
  }
  const Money upper_bound = Money::saturating_add(
      Money::saturating_add(max_value, max_cost), Money::from_units(1));
  const model::Bid& own = bids[static_cast<std::size_t>(phone.value())];
  const WinsWithCost wins = [&](Money cost) {
    const model::BidProfile probe =
        model::with_bid(bids, phone, model::Bid{own.window, cost});
    return reference_wins(scenario, probe, phone, config);
  };
  return bisect_critical_value(wins, upper_bound, 1, phone.value());
}

TEST(PaymentEquivalence, FastPaymentsEqualBisectedCriticalValues) {
  // In the scarcity-free regime every winner's payment is its critical
  // value (Theorem 4): the fast path must land within one micro of the
  // engine-backed bisection, and that bisection must agree *exactly* with
  // the full-rerun bisection oracle.
  Rng rng(90210);
  for (int i = 0; i < 25; ++i) {
    const Scenario scenario = test_support::scarcity_free(rng);
    const model::BidProfile bids = scenario.truthful_bids();
    const OnlineGreedyConfig config;
    const OnlineGreedyMechanism mechanism(config);
    const Outcome outcome = mechanism.run(scenario, bids);
    const CounterfactualEngine engine(scenario, bids, config);
    for (const PhoneId winner : outcome.allocation.winners()) {
      const std::optional<Money> fast_critical =
          greedy_critical_value(engine, winner);
      const std::optional<Money> oracle_critical =
          full_rerun_critical_value(scenario, bids, winner, config);
      EXPECT_EQ(fast_critical, oracle_critical)
          << "scenario#" << i << " phone " << winner.value();
      ASSERT_TRUE(fast_critical.has_value())
          << "scarcity-free winners have bounded critical values";
      const Money payment =
          outcome.payments[static_cast<std::size_t>(winner.value())];
      const std::int64_t gap =
          std::abs(payment.micros() - fast_critical->micros());
      EXPECT_LE(gap, 1) << "scenario#" << i << " phone " << winner.value()
                        << " payment " << payment << " vs critical "
                        << *fast_critical;
    }
  }
}

TEST(PaymentEquivalence, PublicCriticalValueProbeMatchesTheBisection) {
  // critical_value_of is the read-only seam strategic-agent code uses: it
  // must agree with greedy_critical_value on winnable phones, classify
  // unwinnable phones instead of tripping the bisection's precondition,
  // and bracket the win/lose boundary it reports.
  Rng rng(4242);
  int winnable = 0;
  int unwinnable = 0;
  for (int i = 0; i < 25; ++i) {
    const Scenario scenario = test_support::windowed(rng);
    const model::BidProfile bids = scenario.truthful_bids();
    const OnlineGreedyConfig config;
    const CounterfactualEngine engine(scenario, bids, config);
    for (int p = 0; p < scenario.phone_count(); ++p) {
      const PhoneId phone{p};
      const auto probe = engine.critical_value_of(phone);
      EXPECT_EQ(probe.winnable, engine.wins_with_cost(phone, Money{}))
          << "scenario#" << i << " phone " << p;
      if (!probe.winnable) {
        ++unwinnable;
        EXPECT_FALSE(probe.critical.has_value());
        continue;
      }
      ++winnable;
      EXPECT_EQ(probe.critical, greedy_critical_value(engine, phone))
          << "scenario#" << i << " phone " << p;
      if (probe.critical.has_value()) {
        // One micro below the threshold wins; at the threshold loses.
        EXPECT_TRUE(engine.wins_with_cost(
            phone, Money::from_micros(probe.critical->micros() - 1)));
        EXPECT_FALSE(engine.wins_with_cost(phone, *probe.critical));
      }
    }
  }
  EXPECT_GT(winnable, 0);
  EXPECT_GT(unwinnable, 0) << "windowed instances should produce some "
                              "phones that cannot win at any claim";
}

// ----------------------------------------------------- counter contract

TEST(PaymentEquivalence, SharedPrefixReplacesFullRunsWithForks) {
  // Counterfactual work is never counted as full allocation runs: a
  // round performs exactly one Algorithm-1 pass (the factual one) and one
  // fork per winner, and the forks skip the pre-arrival prefix. The batch
  // mechanism and the serve RoundMachine share the kernel, so both report
  // the same accounting.
  const Scenario scenario = model::fig4_scenario();
  const model::BidProfile bids = scenario.truthful_bids();
  const auto winners =
      static_cast<std::int64_t>(OnlineGreedyMechanism()
                                    .run(scenario, bids)
                                    .allocation.winners()
                                    .size());

  obs::MetricsRegistry batch_registry;
  {
    const obs::ScopedRegistry guard(&batch_registry);
    (void)OnlineGreedyMechanism().run(scenario, bids);
  }
  obs::MetricsRegistry streaming_registry;
  {
    const obs::ScopedRegistry guard(&streaming_registry);
    (void)test_support::stream_round(scenario, bids);
  }
  for (const obs::MetricsRegistry* registry :
       {&batch_registry, &streaming_registry}) {
    const obs::MetricsSnapshot snap = registry->snapshot();
    EXPECT_EQ(snap.counters.at("auction.greedy.allocation_runs"), 1);
    EXPECT_EQ(snap.counters.at("auction.counterfactual.payment_forks"),
              winners);
    EXPECT_EQ(snap.counters.at("auction.critical_value.probes"), winners);
    EXPECT_GT(snap.counters.at("auction.counterfactual.slots_skipped"), 0);
  }
  EXPECT_EQ(batch_registry.snapshot().counters.at(
                "auction.counterfactual.slots_replayed"),
            streaming_registry.snapshot().counters.at(
                "auction.counterfactual.slots_replayed"));
}

}  // namespace
}  // namespace mcs::auction
