// Tests for the econ-report leaderboard: exact (Money-level) agreement
// between summarize_mechanism and a manual fold through the same
// compute_metrics the offline audits use, deterministic leaderboard
// rendering, and round-tripping an mcs.serve_econ.v1 snapshot stream
// through summarize_econ_stream.
#include "analysis/econ_report.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "analysis/metrics.hpp"
#include "auction/mechanism.hpp"
#include "auction/online_greedy.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "model/workload.hpp"
#include "obs/wallclock.hpp"
#include "serve/econ_telemetry.hpp"
#include "serve/loadgen.hpp"

namespace mcs::analysis {
namespace {

ScenarioGenerator small_generator() {
  return [](std::int64_t round) {
    model::WorkloadConfig workload;
    workload.num_slots = 8;
    Rng rng(9000 + static_cast<std::uint64_t>(round));
    return model::generate_scenario(workload, rng);
  };
}

TEST(EconReport, SummaryMatchesManualMetricsFoldExactly) {
  const ScenarioGenerator generator = small_generator();
  const auto mechanism =
      auction::make_mechanism("online", auction::OnlineGreedyConfig{});
  const std::int64_t rounds = 5;

  const MechanismEconSummary summary =
      summarize_mechanism(*mechanism, generator, rounds);

  std::int64_t payment = 0;
  std::int64_t welfare = 0;
  std::int64_t true_cost = 0;
  std::int64_t tasks = 0;
  std::int64_t allocated = 0;
  for (std::int64_t round = 0; round < rounds; ++round) {
    const model::Scenario scenario = generator(round);
    const model::BidProfile bids = scenario.truthful_bids();
    const RoundMetrics metrics =
        compute_metrics(scenario, bids, mechanism->run(scenario, bids));
    payment += metrics.total_payment.micros();
    welfare += metrics.social_welfare.micros();
    true_cost += metrics.total_true_cost.micros();
    tasks += metrics.tasks_total;
    allocated += metrics.tasks_allocated;
  }

  EXPECT_EQ(summary.rounds, rounds);
  EXPECT_EQ(summary.total_payment.micros(), payment);
  EXPECT_EQ(summary.social_welfare.micros(), welfare);
  EXPECT_EQ(summary.total_true_cost.micros(), true_cost);
  EXPECT_EQ(summary.overpayment.micros(), payment - true_cost);
  EXPECT_EQ(summary.tasks_total, tasks);
  EXPECT_EQ(summary.tasks_allocated, allocated);
}

TEST(EconReport, LeaderboardRanksByWelfareDeterministically) {
  const ScenarioGenerator generator = small_generator();
  std::vector<MechanismEconSummary> summaries;
  for (const std::string name : {"online", "offline", "second-price"}) {
    summaries.push_back(summarize_mechanism(
        *auction::make_mechanism(name, auction::OnlineGreedyConfig{}),
        generator, 3));
  }
  std::ostringstream first;
  render_econ_leaderboard(first, summaries);
  std::ostringstream second;
  render_econ_leaderboard(second, summaries);
  EXPECT_EQ(first.str(), second.str()) << "rendering must be deterministic";
  EXPECT_NE(first.str().find("| 1 |"), std::string::npos) << first.str();
  EXPECT_NE(first.str().find("online"), std::string::npos);
  EXPECT_NE(first.str().find("second-price"), std::string::npos);
}

TEST(EconReport, StreamSummaryRoundTripsLiveSnapshots) {
  // Write two snapshots through the real serializer, parse them back, and
  // expect the tail's cumulative block -- Money exact.
  obs::FakeClock clock;
  serve::EconTelemetryConfig config;
  config.clock = &clock;
  serve::EconTelemetry econ(config);
  econ.attach(1);
  std::ostringstream stream;
  clock.advance_ms(500);
  serve::write_econ_snapshot(stream, econ.take_snapshot());
  clock.advance_ms(500);
  serve::write_econ_snapshot(stream, econ.take_snapshot());

  std::istringstream in(stream.str());
  const EconStreamSummary summary = summarize_econ_stream(in);
  EXPECT_EQ(summary.snapshots, 2);
  EXPECT_EQ(summary.first_window, 0);
  EXPECT_EQ(summary.last_window, 1);
  EXPECT_EQ(summary.state, "healthy");
  EXPECT_EQ(summary.rounds, 0);
  EXPECT_EQ(summary.payment, Money{});
  EXPECT_EQ(summary.violations, 0);

  std::ostringstream rendered;
  render_econ_stream(rendered, summary);
  EXPECT_NE(rendered.str().find("healthy"), std::string::npos)
      << rendered.str();
}

TEST(EconReport, StreamSummaryReportsProbesSkippedAsUnbounded) {
  std::istringstream in(
      "{\"schema\":\"mcs.serve_econ.v1\",\"window\":0,"
      "\"econ_state\":\"healthy\",\"cumulative\":{\"rounds\":1,"
      "\"winners\":3,\"payment\":\"10\",\"claimed_cost\":\"5\","
      "\"second_price_payment\":\"0\",\"vcg_payment\":\"0\","
      "\"probe_rounds\":1,\"probe_checks\":3,\"probe_unbounded\":2,"
      "\"violations\":0}}\n");
  const EconStreamSummary summary = summarize_econ_stream(in);
  EXPECT_EQ(summary.probe_checks, 3);
  EXPECT_EQ(summary.probe_unbounded, 2);
  std::ostringstream rendered;
  render_econ_stream(rendered, summary);
  EXPECT_NE(rendered.str().find("3 winner probes (2 skipped as unbounded)"),
            std::string::npos)
      << rendered.str();
}

TEST(EconReport, StreamSummaryRejectsForeignSchema) {
  std::istringstream in("{\"schema\":\"mcs.serve_stats.v1\",\"window\":0}\n");
  EXPECT_THROW((void)summarize_econ_stream(in), InvalidArgumentError);
}

}  // namespace
}  // namespace mcs::analysis
