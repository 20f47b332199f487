// Tests for the model layer: bids and legality, scenarios and their
// validation, the reconstructed paper examples, and the misreport
// strategies.
#include "model/scenario.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "model/paper_examples.hpp"
#include "model/strategy.hpp"

namespace mcs::model {
namespace {

Money mu(std::int64_t units) { return Money::from_units(units); }

// ----------------------------------------------------------------- bids

TEST(Bid, TruthfulBidCopiesProfile) {
  const TrueProfile profile{SlotInterval::of(2, 5), mu(3)};
  const Bid bid = truthful_bid(profile);
  EXPECT_EQ(bid.window, profile.active);
  EXPECT_EQ(bid.claimed_cost, profile.cost);
}

TEST(Bid, LegalityEnforcesNoEarlyArrivalNoLateDeparture) {
  const TrueProfile profile{SlotInterval::of(2, 5), mu(3)};
  EXPECT_TRUE(is_legal_report(profile, truthful_bid(profile)));
  EXPECT_TRUE(is_legal_report(profile, Bid{SlotInterval::of(3, 4), mu(100)}));
  EXPECT_TRUE(is_legal_report(profile, Bid{SlotInterval::of(2, 5), Money{}}));
  // Early arrival.
  EXPECT_FALSE(is_legal_report(profile, Bid{SlotInterval::of(1, 5), mu(3)}));
  // Late departure.
  EXPECT_FALSE(is_legal_report(profile, Bid{SlotInterval::of(2, 6), mu(3)}));
  // Negative cost is malformed.
  EXPECT_FALSE(is_legal_report(profile, Bid{SlotInterval::of(2, 5), mu(-1)}));
}

// ------------------------------------------------------------- scenarios

TEST(Scenario, BuilderProducesValidScenario) {
  const Scenario s = ScenarioBuilder(5)
                         .value(20)
                         .phone(1, 3, 4)
                         .phone(2, 5, 7)
                         .task(1)
                         .tasks(3, 2)
                         .build();
  EXPECT_EQ(s.num_slots, 5);
  EXPECT_EQ(s.task_value, mu(20));
  EXPECT_EQ(s.phone_count(), 2);
  EXPECT_EQ(s.task_count(), 3);
  EXPECT_NO_THROW(s.validate());
}

TEST(Scenario, BuilderSortsTasksBySlot) {
  const Scenario s =
      ScenarioBuilder(5).value(1).task(4).task(1).task(2).build();
  EXPECT_EQ(s.tasks[0].slot, Slot{1});
  EXPECT_EQ(s.tasks[1].slot, Slot{2});
  EXPECT_EQ(s.tasks[2].slot, Slot{4});
  EXPECT_EQ(s.tasks[0].id, TaskId{0});
  EXPECT_EQ(s.tasks[2].id, TaskId{2});
}

TEST(Scenario, TasksPerSlot) {
  const Scenario s =
      ScenarioBuilder(4).value(1).tasks(2, 3).task(4).build();
  const std::vector<int> r = s.tasks_per_slot();
  EXPECT_EQ(r[1], 0);
  EXPECT_EQ(r[2], 3);
  EXPECT_EQ(r[3], 0);
  EXPECT_EQ(r[4], 1);
}

TEST(Scenario, TruthfulBidsMatchProfiles) {
  const Scenario s = fig4_scenario();
  const BidProfile bids = s.truthful_bids();
  ASSERT_EQ(bids.size(), 7u);
  for (int i = 0; i < s.phone_count(); ++i) {
    EXPECT_EQ(bids[static_cast<std::size_t>(i)],
              truthful_bid(s.phone(PhoneId{i})));
  }
}

TEST(Scenario, ValidationRejectsMalformedInstances) {
  {
    Scenario s;
    s.num_slots = 0;
    EXPECT_THROW(s.validate(), InvalidScenarioError);
  }
  {
    Scenario s = ScenarioBuilder(3).value(1).task(1).build();
    s.tasks[0].slot = Slot{9};  // outside round
    EXPECT_THROW(s.validate(), InvalidScenarioError);
  }
  {
    Scenario s = ScenarioBuilder(3).value(1).task(2).task(2).build();
    std::swap(s.tasks[0].id, s.tasks[1].id);  // ids not dense-in-order
    EXPECT_THROW(s.validate(), InvalidScenarioError);
  }
  {
    Scenario s = ScenarioBuilder(3).value(1).phone(1, 3, 5).build();
    s.phones[0].active = SlotInterval::of(1, 4);  // beyond round
    EXPECT_THROW(s.validate(), InvalidScenarioError);
  }
  {
    Scenario s = ScenarioBuilder(3).value(1).phone(1, 3, 5).build();
    s.phones[0].cost = mu(-2);
    EXPECT_THROW(s.validate(), InvalidScenarioError);
  }
}

TEST(Scenario, WithBidReplacesOnlyTarget) {
  const Scenario s = fig4_scenario();
  const BidProfile bids = s.truthful_bids();
  const Bid replacement{SlotInterval::of(3, 5), mu(99)};
  const BidProfile changed = with_bid(bids, PhoneId{2}, replacement);
  EXPECT_EQ(changed[2], replacement);
  EXPECT_EQ(changed[0], bids[0]);
  EXPECT_EQ(changed.size(), bids.size());
}

TEST(Scenario, ValidateBidsCatchesMalformedProfiles) {
  const Scenario s = fig4_scenario();
  BidProfile bids = s.truthful_bids();
  bids.pop_back();
  EXPECT_THROW(validate_bids(s, bids), InvalidScenarioError);

  BidProfile out_of_round = s.truthful_bids();
  out_of_round[0].window = SlotInterval::of(1, 6);  // round has 5 slots
  EXPECT_THROW(validate_bids(s, out_of_round), InvalidScenarioError);
}

TEST(Scenario, ValidateBidsRefusesClaimsWhoseTotalsOverflowMoney) {
  // Five tasks: one claim of Money::max() / 4 fits the round's totals,
  // five times it does not.
  const Scenario s = ScenarioBuilder(1).value(10).tasks(1, 5).phone(1, 1, 3).build();
  BidProfile bids = s.truthful_bids();
  bids[0].claimed_cost = Money::from_micros(Money::max().micros() / 5);
  EXPECT_NO_THROW(validate_bids(s, bids));
  bids[0].claimed_cost = Money::from_micros(Money::max().micros() / 4);
  EXPECT_THROW(validate_bids(s, bids), InvalidScenarioError);
}

TEST(Scenario, DescribeMentionsKeyFacts) {
  const std::string text = describe(fig4_scenario());
  EXPECT_NE(text.find("m=5"), std::string::npos);
  EXPECT_NE(text.find("7 phones"), std::string::npos);
  EXPECT_NE(text.find("5 tasks"), std::string::npos);
}

// --------------------------------------------------------- paper examples

TEST(PaperExamples, Fig4MatchesReconstruction) {
  const Scenario s = fig4_scenario();
  ASSERT_EQ(s.phone_count(), 7);
  ASSERT_EQ(s.task_count(), 5);
  EXPECT_EQ(s.num_slots, 5);
  // One task per slot.
  for (int t = 0; t < 5; ++t) {
    EXPECT_EQ(s.tasks[static_cast<std::size_t>(t)].slot, Slot{t + 1});
  }
  // The prose-pinned row: Smartphone 2 = [1,4] cost 5.
  EXPECT_EQ(s.phone(PhoneId{1}).active, SlotInterval::of(1, 4));
  EXPECT_EQ(s.phone(PhoneId{1}).cost, mu(5));
  // Phone 1 (paper's Smartphone 1): [2,5] cost 3.
  EXPECT_EQ(s.phone(PhoneId{0}).active, SlotInterval::of(2, 5));
  EXPECT_EQ(s.phone(PhoneId{0}).cost, mu(3));
}

TEST(PaperExamples, Fig5DelayedBidIsLegalForPhone1) {
  const Scenario s = fig4_scenario();
  const Bid delayed = fig5_delayed_bid_phone1();
  EXPECT_EQ(delayed.window, SlotInterval::of(4, 5));
  EXPECT_TRUE(is_legal_report(s.phone(PhoneId{0}), delayed));
}

TEST(PaperExamples, Fig3ShapeMatchesProse) {
  const Scenario s = fig3_scenario();
  EXPECT_EQ(s.num_slots, 2);
  EXPECT_EQ(s.task_count(), 5);  // 2 in slot 1, 3 in slot 2
  const std::vector<int> r = s.tasks_per_slot();
  EXPECT_EQ(r[1], 2);
  EXPECT_EQ(r[2], 3);
  // Smartphone 1 arrives in the first slot.
  EXPECT_EQ(s.phone(PhoneId{0}).active.begin(), Slot{1});
}

// ------------------------------------------------------------- strategies

TEST(Strategies, TruthfulReportsProfile) {
  Rng rng(1);
  const TrueProfile profile{SlotInterval::of(2, 5), mu(3)};
  EXPECT_EQ(TruthfulStrategy{}.report(profile, rng), truthful_bid(profile));
}

TEST(Strategies, CostMarkupScalesCost) {
  Rng rng(1);
  const TrueProfile profile{SlotInterval::of(2, 5), mu(4)};
  const Bid bid = CostMarkupStrategy(1.5).report(profile, rng);
  EXPECT_EQ(bid.claimed_cost, mu(6));
  EXPECT_EQ(bid.window, profile.active);
  EXPECT_TRUE(is_legal_report(profile, bid));
}

TEST(Strategies, CostMarkupRejectsNegativeFactor) {
  EXPECT_THROW(CostMarkupStrategy(-0.5), ContractViolation);
}

TEST(Strategies, DelayedArrivalClampsToWindow) {
  Rng rng(1);
  const TrueProfile profile{SlotInterval::of(2, 4), mu(3)};
  EXPECT_EQ(DelayedArrivalStrategy(1).report(profile, rng).window,
            SlotInterval::of(3, 4));
  // Delay beyond the window collapses to the last active slot.
  EXPECT_EQ(DelayedArrivalStrategy(10).report(profile, rng).window,
            SlotInterval::of(4, 4));
}

TEST(Strategies, EarlyDepartureClampsToWindow) {
  Rng rng(1);
  const TrueProfile profile{SlotInterval::of(2, 4), mu(3)};
  EXPECT_EQ(EarlyDepartureStrategy(1).report(profile, rng).window,
            SlotInterval::of(2, 3));
  EXPECT_EQ(EarlyDepartureStrategy(10).report(profile, rng).window,
            SlotInterval::of(2, 2));
}

TEST(Strategies, RandomMisreportAlwaysLegal) {
  Rng rng(7);
  const RandomMisreportStrategy strategy;
  const TrueProfile profile{SlotInterval::of(3, 9), mu(10)};
  for (int i = 0; i < 500; ++i) {
    EXPECT_TRUE(is_legal_report(profile, strategy.report(profile, rng)));
  }
}

TEST(Strategies, ApplyStrategyCoversAllPhones) {
  Rng rng(2);
  const Scenario s = fig4_scenario();
  const BidProfile bids = apply_strategy(s, CostMarkupStrategy(2.0), rng);
  ASSERT_EQ(bids.size(), 7u);
  for (int i = 0; i < s.phone_count(); ++i) {
    EXPECT_EQ(bids[static_cast<std::size_t>(i)].claimed_cost,
              s.phone(PhoneId{i}).cost * 2);
  }
}

TEST(Strategies, ApplySingleDeviationKeepsOthersTruthful) {
  Rng rng(2);
  const Scenario s = fig4_scenario();
  const BidProfile bids =
      apply_single_deviation(s, PhoneId{3}, CostMarkupStrategy(3.0), rng);
  EXPECT_EQ(bids[3].claimed_cost, s.phone(PhoneId{3}).cost * 3);
  for (int i = 0; i < s.phone_count(); ++i) {
    if (i == 3) continue;
    EXPECT_EQ(bids[static_cast<std::size_t>(i)],
              truthful_bid(s.phone(PhoneId{i})));
  }
}

TEST(Strategies, NamesAreDescriptive) {
  EXPECT_EQ(TruthfulStrategy{}.name(), "truthful");
  EXPECT_NE(CostMarkupStrategy(2.0).name().find("cost-markup"),
            std::string::npos);
  EXPECT_NE(DelayedArrivalStrategy(2).name().find("delayed"),
            std::string::npos);
  EXPECT_NE(EarlyDepartureStrategy(1).name().find("early"),
            std::string::npos);
}

}  // namespace
}  // namespace mcs::model
