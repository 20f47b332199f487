// The benchmark's own tests: stream determinism, interleaving, and that a
// tiny size of every workload reports exactly the metrics BENCHMARK.json
// names.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "io/json_parse.hpp"
#include "layers.hpp"
#include "measure.hpp"
#include "serve/engine.hpp"
#include "serve/verify.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using mcs::serve::ServeEvent;
using mcs::serve::ServeEventKind;

/// A workload shrunk to a few waves of its in-flight rounds.
WorkloadSpec tiny(const WorkloadSpec& spec) {
  WorkloadSpec small = spec;
  small.rounds = 2 * spec.in_flight + 3;  // a partial last wave too
  return small;
}

std::string stream_bytes(const WorkloadSpec& spec, std::uint64_t seed) {
  const RoundInputs inputs = generate_rounds(spec, seed);
  return encode_stream(interleave(inputs.events, spec.in_flight),
                       mcs::serve::WireFormat::kBinary);
}

mcs::io::JsonValue benchmark_json() {
  std::ifstream file(PERFBENCH_JSON);
  std::stringstream text;
  text << file.rdbuf();
  return mcs::io::parse_json(text.str());
}

/// name -> unit of one metric list of BENCHMARK.json.
std::map<std::string, std::string> declared(const char* list) {
  const mcs::io::JsonValue json = benchmark_json();
  std::map<std::string, std::string> metrics;
  for (const mcs::io::JsonValue& metric : json.at(list).as_array()) {
    metrics[metric.at("name").as_string()] = metric.at("unit").as_string();
  }
  return metrics;
}

std::map<std::string, std::string> reported(const RunResult& result) {
  std::map<std::string, std::string> metrics;
  for (const Metric& metric : result.metrics) metrics[metric.name] = metric.unit;
  return metrics;
}

TEST(PerfbenchWorkloads, MatchBenchmarkJson) {
  const mcs::io::JsonValue json = benchmark_json();
  std::set<std::string> names;
  for (const mcs::io::JsonValue& w : json.at("workloads").as_array()) {
    names.insert(w.at("name").as_string());
  }
  std::set<std::string> ours;
  for (const WorkloadSpec& spec : workloads()) ours.insert(std::string(spec.name));
  EXPECT_EQ(names, ours);
}

TEST(PerfbenchStream, SameSeedGivesByteIdenticalStream) {
  for (const WorkloadSpec& spec : workloads()) {
    const WorkloadSpec small = tiny(spec);
    EXPECT_EQ(stream_bytes(small, 7), stream_bytes(small, 7)) << spec.name;
    EXPECT_NE(stream_bytes(small, 7), stream_bytes(small, 8)) << spec.name;
  }
}

TEST(PerfbenchStream, InterleavingKeepsEachRoundsOrder) {
  for (const WorkloadSpec& spec : workloads()) {
    const WorkloadSpec small = tiny(spec);
    const RoundInputs inputs = generate_rounds(small, 3);
    const std::vector<ServeEvent> stream = interleave(inputs.events, small.in_flight);

    std::vector<std::vector<ServeEvent>> per_round(inputs.events.size());
    std::set<std::int64_t> open;
    std::size_t most_open = 0;
    for (const ServeEvent& event : stream) {
      per_round[static_cast<std::size_t>(event.round)].push_back(event);
      if (event.kind == ServeEventKind::kRoundOpen) open.insert(event.round);
      most_open = std::max(most_open, open.size());
      if (event.kind == ServeEventKind::kRoundClose) open.erase(event.round);
    }
    EXPECT_EQ(per_round, inputs.events) << spec.name;
    EXPECT_EQ(most_open, static_cast<std::size_t>(small.in_flight)) << spec.name;
  }
}

TEST(PerfbenchStream, VerifiesCleanOnOneShard) {
  for (const WorkloadSpec& spec : workloads()) {
    const WorkloadSpec small = tiny(spec);
    const std::string bytes = stream_bytes(small, 5);
    mcs::serve::ServeConfig config = serve_config();
    config.shards = 1;
    mcs::serve::ServeEngine engine(config);
    StreamReader reader(bytes, mcs::serve::WireFormat::kBinary);
    std::int64_t events = 0;
    while (const std::optional<ServeEvent> event = reader.next()) {
      ASSERT_EQ(engine.submit(*event), mcs::serve::SubmitStatus::kAccepted);
      ++events;
    }
    engine.drain();
    EXPECT_EQ(engine.stats().processed, events) << spec.name;
    EXPECT_EQ(engine.stats().rounds_completed, small.rounds) << spec.name;
    const auto outcomes = engine.take_outcomes();
    const mcs::serve::VerifyReport report = mcs::serve::verify_against_batch(
        loadgen_config(small, 5), outcomes, config.greedy);
    EXPECT_EQ(report.rounds_checked, small.rounds) << spec.name;
    EXPECT_TRUE(report.clean()) << spec.name << ": " << report.first_diff;
  }
}

TEST(PerfbenchRun, TinyEndToEndRunReportsEveryMetric) {
  const auto want = declared("end_to_end");
  for (const WorkloadSpec& spec : workloads()) {
    const RunResult result = run_end_to_end(tiny(spec), 11, 0.05);
    EXPECT_TRUE(result.correct()) << spec.name << ": " << result.first_error;
    // At least three repetitions, each checking every round.
    EXPECT_GE(result.attempted, 3 * tiny(spec).rounds) << spec.name;
    EXPECT_EQ(result.attempted % tiny(spec).rounds, 0) << spec.name;
    EXPECT_EQ(reported(result), want) << spec.name;
    for (const Metric& metric : result.metrics) {
      EXPECT_TRUE(std::isfinite(metric.value) && metric.value > 0)
          << spec.name << " " << metric.name << " = " << metric.value;
    }
  }
}

TEST(PerfbenchRun, TinyTracedRunReportsEveryMetric) {
  const auto want = declared("per_layer");
  for (const WorkloadSpec& spec : workloads()) {
    const RunResult result = run_traced(tiny(spec), 11, 0.05);
    EXPECT_EQ(result.failed, 0) << spec.name << ": " << result.first_error;
    EXPECT_EQ(reported(result), want) << spec.name;
    for (const Metric& metric : result.metrics) {
      EXPECT_TRUE(std::isfinite(metric.value)) << spec.name << " " << metric.name;
    }
  }
}

TEST(PerfbenchRun, ResultLineHasTheContractKeys) {
  RunResult result;
  result.attempted = 4;
  result.metrics = {{"setup_s", 0.25, "s"}};
  const mcs::io::JsonValue line = mcs::io::parse_json(to_json(result));
  EXPECT_TRUE(line.at("correct").as_bool());
  EXPECT_EQ(line.at("attempted").as_int(), 4);
  EXPECT_EQ(line.at("failed").as_int(), 0);
  EXPECT_EQ(line.at("metrics").at("setup_s").at("value").as_number(), 0.25);
  EXPECT_EQ(line.at("metrics").at("setup_s").at("unit").as_string(), "s");
}

}  // namespace
}  // namespace perfbench
