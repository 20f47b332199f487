// Tests for the JSON round report: structural completeness, exact money
// rendering, allocation/phone entries, and null handling for unserved
// tasks.
#include "analysis/report_json.hpp"

#include <gtest/gtest.h>

#include "auction/offline_vcg.hpp"
#include "auction/online_greedy.hpp"
#include "model/paper_examples.hpp"

namespace mcs::analysis {
namespace {

TEST(ReportJson, Fig4OnlineReportContainsTheHeadlineNumbers) {
  const model::Scenario s = model::fig4_scenario();
  const model::BidProfile bids = s.truthful_bids();
  const auction::Outcome outcome =
      auction::OnlineGreedyMechanism{}.run(s, bids);
  const std::string json =
      round_report_json(s, bids, outcome, "online-greedy");

  EXPECT_NE(json.find(R"("mechanism":"online-greedy")"), std::string::npos);
  EXPECT_NE(json.find(R"("slots":5)"), std::string::npos);
  EXPECT_NE(json.find(R"("phones":7)"), std::string::npos);
  EXPECT_NE(json.find(R"("social_welfare":"69")"), std::string::npos);
  EXPECT_NE(json.find(R"("total_payment":"50")"), std::string::npos);
  // The paper's worked payment: phone 0 paid 9.
  EXPECT_NE(json.find(R"("id":0,"window":[2,5],"claimed_cost":"3","winner":true,"payment":"9")"),
            std::string::npos);
  // Exactly one line, ending in newline (stream-friendly).
  EXPECT_EQ(json.find('\n'), json.size() - 1);
}

TEST(ReportJson, UnservedTaskHasNullPhone) {
  const model::Scenario s =
      model::ScenarioBuilder(2).value(10).phone(1, 1, 3).tasks(2, 1).build();
  const model::BidProfile bids = s.truthful_bids();
  const auction::Outcome outcome =
      auction::OnlineGreedyMechanism{}.run(s, bids);
  const std::string json = round_report_json(s, bids, outcome, "x");
  EXPECT_NE(json.find(R"("phone":null)"), std::string::npos);
  EXPECT_NE(json.find(R"("tasks_allocated":0)"), std::string::npos);
}

TEST(ReportJson, FractionalMoneyStaysExact) {
  model::Scenario s =
      model::ScenarioBuilder(1).value(10).phone(1, 1, 4).task(1).build();
  s.phones[0].cost = Money::from_micros(4'250'000);  // 4.25
  const model::BidProfile bids = s.truthful_bids();
  const auction::Outcome outcome =
      auction::OfflineVcgMechanism{}.run(s, bids);
  const std::string json = round_report_json(s, bids, outcome, "offline-vcg");
  EXPECT_NE(json.find(R"("claimed_cost":"4.25")"), std::string::npos);
}

TEST(ReportJson, TaskValueAppearsPerTask) {
  const model::Scenario s =
      model::ScenarioBuilder(1).value(35).task(1).phone(1, 1, 4).build();
  const model::BidProfile bids = s.truthful_bids();
  const auction::Outcome outcome =
      auction::OnlineGreedyMechanism{}.run(s, bids);
  const std::string json = round_report_json(s, bids, outcome, "x");
  EXPECT_NE(json.find(R"("task":0,"slot":1,"value":"35")"),
            std::string::npos);
  EXPECT_NE(json.find(R"("task_value":"35")"), std::string::npos);
}

TEST(ReportJson, BalancedBracesAndBrackets) {
  const model::Scenario s = model::fig4_scenario();
  const model::BidProfile bids = s.truthful_bids();
  const auction::Outcome outcome =
      auction::OfflineVcgMechanism{}.run(s, bids);
  const std::string json = round_report_json(s, bids, outcome, "offline-vcg");
  // No string values in this document contain braces, so plain counting is
  // a valid well-formedness smoke check.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json[json.size() - 2], '}');
}

}  // namespace
}  // namespace mcs::analysis
