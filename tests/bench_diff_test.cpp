#include "analysis/bench_diff.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/error.hpp"
#include "io/json_parse.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace mcs::analysis {
namespace {

// Fixtures are built the same way the real pipeline builds them: fill a
// MetricsRegistry, export it with write_metrics_json, and (for wrapper
// documents) splice the per-bench reports into a mcs.bench_telemetry.v1
// object -- exactly what scripts/collect_bench.sh does with `tr`/printf.

std::string export_registry(const obs::MetricsRegistry& registry,
                            const std::string& tool) {
  std::ostringstream os;
  obs::write_metrics_json(os, registry, nullptr, {{"tool", tool}});
  std::string text = os.str();
  while (!text.empty() && text.back() == '\n') text.pop_back();
  return text;
}

std::string wrap_sections(
    const std::vector<std::pair<std::string, std::string>>& sections) {
  std::string out = "{\"schema\":\"mcs.bench_telemetry.v1\"";
  for (const auto& [name, report] : sections) {
    out += ",\"" + name + "\":" + report;
  }
  out += "}";
  return out;
}

/// A registry resembling one bench section: headline counters, one
/// deterministic distribution histogram, one duration histogram.
void fill_section(obs::MetricsRegistry& registry, std::int64_t iterations,
                  std::uint64_t pool_sample, std::uint64_t duration_us) {
  obs::preregister_headline_counters(registry);
  registry.counter("matching.hungarian.iterations").add(iterations);
  registry.counter("auction.critical_value.probes").add(7);
  registry.histogram("auction.greedy.pool_size").observe(pool_sample);
  registry.histogram("span.allocation_us").observe(duration_us);
}

io::JsonValue parse(const std::string& text) { return io::parse_json(text); }

TEST(BenchDiff, SelfCompareIsClean) {
  obs::MetricsRegistry registry;
  fill_section(registry, 42, 3, 100);
  const std::string doc =
      wrap_sections({{"perf_matching", export_registry(registry, "perf_matching")}});
  const BenchDiffReport report =
      diff_bench_telemetry(parse(doc), parse(doc));

  EXPECT_TRUE(report.deterministic_clean());
  EXPECT_FALSE(report.timings_regressed());
  EXPECT_FALSE(report.regression({}));
  // All nine headline counters plus nothing else.
  EXPECT_EQ(report.counters_compared, 9);
  EXPECT_EQ(report.histograms_compared, 1);
  ASSERT_EQ(report.timings.size(), 1u);
  EXPECT_EQ(report.timings[0].name, "span.allocation_us");
  EXPECT_DOUBLE_EQ(report.timings[0].ratio_p50, 1.0);
  EXPECT_DOUBLE_EQ(report.timings[0].ratio_p99, 1.0);
  EXPECT_FALSE(report.timings[0].regressed);
}

TEST(BenchDiff, CounterDriftIsNamedAndFailsTheGate) {
  obs::MetricsRegistry baseline;
  fill_section(baseline, 42, 3, 100);
  obs::MetricsRegistry candidate;
  fill_section(candidate, 45, 3, 100);  // iterations drifted 42 -> 45
  const BenchDiffReport report = diff_bench_telemetry(
      parse(wrap_sections(
          {{"perf_matching", export_registry(baseline, "perf_matching")}})),
      parse(wrap_sections(
          {{"perf_matching", export_registry(candidate, "perf_matching")}})));

  EXPECT_FALSE(report.deterministic_clean());
  EXPECT_TRUE(report.regression({}));  // even without gate_timings
  ASSERT_EQ(report.counter_drifts.size(), 1u);
  EXPECT_EQ(report.counter_drifts[0].bench, "perf_matching");
  EXPECT_EQ(report.counter_drifts[0].name, "matching.hungarian.iterations");
  EXPECT_EQ(report.counter_drifts[0].baseline, 42);
  EXPECT_EQ(report.counter_drifts[0].candidate, 45);

  // The markdown verdict names the drifted counter.
  std::ostringstream md;
  write_bench_diff_markdown(md, report);
  EXPECT_NE(md.str().find("REGRESSION"), std::string::npos);
  EXPECT_NE(md.str().find("matching.hungarian.iterations"), std::string::npos);
}

TEST(BenchDiff, MissingCounterIsDrift) {
  obs::MetricsRegistry baseline;
  fill_section(baseline, 42, 3, 100);
  baseline.counter("matching.flow.spfa_pops").add(9);
  obs::MetricsRegistry candidate;
  fill_section(candidate, 42, 3, 100);
  const BenchDiffReport report = diff_bench_telemetry(
      parse(wrap_sections({{"b", export_registry(baseline, "b")}})),
      parse(wrap_sections({{"b", export_registry(candidate, "b")}})));

  ASSERT_EQ(report.counter_drifts.size(), 1u);
  EXPECT_EQ(report.counter_drifts[0].name, "matching.flow.spfa_pops");
  EXPECT_TRUE(report.counter_drifts[0].in_baseline);
  EXPECT_FALSE(report.counter_drifts[0].in_candidate);
  EXPECT_TRUE(report.regression({}));
}

TEST(BenchDiff, MissingSectionIsANote) {
  obs::MetricsRegistry a;
  fill_section(a, 1, 2, 10);
  const std::string section = export_registry(a, "a");
  const BenchDiffReport report = diff_bench_telemetry(
      parse(wrap_sections({{"a", section}, {"b", section}})),
      parse(wrap_sections({{"a", section}})));

  ASSERT_FALSE(report.notes.empty());
  EXPECT_NE(report.notes[0].find("b"), std::string::npos);
  EXPECT_TRUE(report.regression({}));
}

TEST(BenchDiff, DeterministicHistogramDriftFails) {
  obs::MetricsRegistry baseline;
  fill_section(baseline, 42, 3, 100);  // pool sample in bucket 3
  obs::MetricsRegistry candidate;
  fill_section(candidate, 42, 7, 100);  // pool sample in bucket 7
  const BenchDiffReport report = diff_bench_telemetry(
      parse(wrap_sections({{"b", export_registry(baseline, "b")}})),
      parse(wrap_sections({{"b", export_registry(candidate, "b")}})));

  ASSERT_EQ(report.histogram_drifts.size(), 1u);
  EXPECT_EQ(report.histogram_drifts[0].name, "auction.greedy.pool_size");
  EXPECT_TRUE(report.regression({}));
}

TEST(BenchDiff, TimingRegressionGatesOnlyWhenAsked) {
  obs::MetricsRegistry baseline;
  fill_section(baseline, 42, 3, 100);
  obs::MetricsRegistry candidate;
  fill_section(candidate, 42, 3, 1000);  // ~10x slower span
  const BenchDiffReport report = diff_bench_telemetry(
      parse(wrap_sections({{"b", export_registry(baseline, "b")}})),
      parse(wrap_sections({{"b", export_registry(candidate, "b")}})));

  EXPECT_TRUE(report.deterministic_clean());
  ASSERT_EQ(report.timings.size(), 1u);
  EXPECT_TRUE(report.timings[0].regressed);
  EXPECT_GT(report.timings[0].max_ratio, 5.0);
  EXPECT_TRUE(report.timings_regressed());
  // Report-only by default; fails only with the opt-in gate.
  EXPECT_FALSE(report.regression({}));
  BenchDiffOptions gated;
  gated.gate_timings = true;
  EXPECT_TRUE(report.regression(gated));
  // A looser threshold un-flags it.
  BenchDiffOptions loose;
  loose.timing_ratio_threshold = 100.0;
  const BenchDiffReport relaxed = diff_bench_telemetry(
      parse(wrap_sections({{"b", export_registry(baseline, "b")}})),
      parse(wrap_sections({{"b", export_registry(candidate, "b")}})), loose);
  EXPECT_FALSE(relaxed.timings_regressed());
}

TEST(BenchDiff, BareTelemetryReportsDiffAsOneSection) {
  obs::MetricsRegistry registry;
  fill_section(registry, 42, 3, 100);
  const std::string doc = export_registry(registry, "mcs_cli run");
  const BenchDiffReport report = diff_bench_telemetry(parse(doc), parse(doc));
  EXPECT_TRUE(report.deterministic_clean());
  EXPECT_EQ(report.counters_compared, 9);
  ASSERT_EQ(report.timings.size(), 1u);
  // The single section is named after meta.tool.
  EXPECT_EQ(report.timings[0].bench, "mcs_cli run");
}

TEST(BenchDiff, RejectsNonTelemetryDocuments) {
  EXPECT_THROW(
      (void)diff_bench_telemetry(parse("{\"schema\":\"other.v1\"}"),
                                 parse("{\"schema\":\"other.v1\"}")),
      InvalidArgumentError);
}

TEST(BenchDiff, JsonVerdictRoundTrips) {
  obs::MetricsRegistry baseline;
  fill_section(baseline, 42, 3, 100);
  obs::MetricsRegistry candidate;
  fill_section(candidate, 43, 3, 100);
  BenchDiffReport report = diff_bench_telemetry(
      parse(wrap_sections({{"b", export_registry(baseline, "b")}})),
      parse(wrap_sections({{"b", export_registry(candidate, "b")}})));
  report.baseline_label = "base.json";
  report.candidate_label = "cand.json";

  std::ostringstream os;
  write_bench_diff_json(os, report);
  const io::JsonValue doc = parse(os.str());
  EXPECT_EQ(doc.at("schema").as_string(), "mcs.bench_diff.v1");
  EXPECT_EQ(doc.at("verdict").as_string(), "regression");
  EXPECT_EQ(doc.at("baseline").as_string(), "base.json");
  const auto& drifts = doc.at("counters").at("drifts").as_array();
  ASSERT_EQ(drifts.size(), 1u);
  EXPECT_EQ(drifts[0].at("name").as_string(), "matching.hungarian.iterations");
  EXPECT_EQ(doc.at("counters").at("compared").as_int(), 9);
  EXPECT_EQ(doc.at("timings").as_array().size(), 1u);
}

TEST(BenchDiff, HistogramJsonRoundTripsToTheIdenticalSketch) {
  // write_metrics_json -> parser -> the sketch that was recorded, across
  // the exact range (0, 15), the first shared bucket (16) and wide
  // buckets (>= 2^20).
  obs::MetricsRegistry registry;
  obs::Histogram& histogram = registry.histogram("x.size");
  for (const std::uint64_t v :
       {0ULL, 15ULL, 16ULL, 1ULL << 20, (1ULL << 20) + 12'345, 1ULL << 35}) {
    histogram.observe(v);
  }
  const io::JsonValue doc = parse(export_registry(registry, "t"));
  const obs::LatencySketchSnapshot parsed =
      histogram_from_json(doc.at("histograms").at("x.size"), "x.size");
  const obs::LatencySketchSnapshot recorded = histogram.snapshot();
  EXPECT_EQ(parsed.counts, recorded.counts);
  EXPECT_EQ(parsed.count, recorded.count);
  EXPECT_EQ(parsed.sum_ns, recorded.sum_ns);
  EXPECT_EQ(parsed.min_ns, recorded.min_ns);
  EXPECT_EQ(parsed.max_ns, recorded.max_ns);

  // A sum past 12 significant digits survives the trip exactly.
  obs::MetricsRegistry big;
  big.histogram("x.big").observe(1234567890123);
  big.histogram("x.big").observe(1);
  const io::JsonValue big_doc = parse(export_registry(big, "t"));
  EXPECT_EQ(histogram_from_json(big_doc.at("histograms").at("x.big"), "x.big")
                .sum_ns,
            1234567890124u);
  // ... so bench-diff sees a one-nanosecond change of such a sum.
  obs::MetricsRegistry bigger;
  bigger.histogram("x.big").observe(1234567890124);
  bigger.histogram("x.big").observe(1);
  const BenchDiffReport drift = diff_bench_telemetry(
      big_doc, parse(export_registry(bigger, "t")));
  ASSERT_EQ(drift.histogram_drifts.size(), 1u);
  EXPECT_EQ(drift.histogram_drifts[0].what,
            "sum 1234567890124 -> 1234567890125");

  // A fixed-bucket layout (with its "+Inf" overflow) parses too: each
  // bucket lands in the sketch bucket of its upper edge.
  const obs::LatencySketchSnapshot legacy = histogram_from_json(
      parse("{\"count\":2,\"sum\":9,\"min\":1,\"max\":8,\"buckets\":["
            "{\"le\":1,\"count\":1},{\"le\":2,\"count\":0},"
            "{\"le\":8,\"count\":1},{\"le\":\"+Inf\",\"count\":0}]}"),
      "legacy");
  EXPECT_EQ(legacy.counts,
            (std::vector<std::uint64_t>{0, 1, 0, 0, 0, 0, 0, 0, 1}));
}

}  // namespace
}  // namespace mcs::analysis
