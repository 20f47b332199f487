// Tests for the telemetry subsystem: instrument semantics, deterministic
// registry merging (the worker-registry reduction identity), span
// nesting, scoped installation, and exporter golden output.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "io/json_parse.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"

namespace mcs::obs {
namespace {

// ------------------------------------------------------------ instruments

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
}

TEST(Gauge, TracksLastValueAndSetFlag) {
  Gauge g;
  EXPECT_FALSE(g.has_value());
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(3.5);
  g.set(-1.0);
  EXPECT_TRUE(g.has_value());
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(Histogram, LeBucketPlacement) {
  // Latency-sketch buckets: exact below 32 (one value per bucket), then 16
  // linear sub-buckets per power of two -- [40, 41] and [42, 43] at 40.
  Histogram h;
  for (const std::uint64_t v : {0ULL, 15ULL, 16ULL, 40ULL, 41ULL, 42ULL}) {
    h.observe(v);
  }
  const LatencySketchSnapshot snap = h.snapshot();
  ASSERT_EQ(snap.counts.size(), 38u);
  EXPECT_EQ(snap.counts[0], 1u);
  EXPECT_EQ(snap.counts[15], 1u);
  EXPECT_EQ(snap.counts[16], 1u);
  EXPECT_EQ(snap.counts[36], 2u);  // 40 and 41
  EXPECT_EQ(snap.counts[37], 1u);  // 42
  EXPECT_EQ(sketch_detail::bucket_upper_edge(36), 41u);
  EXPECT_EQ(snap.count, 6u);
  EXPECT_EQ(snap.sum_ns, 154u);
  EXPECT_EQ(snap.min_ns, 0u);
  EXPECT_EQ(snap.max_ns, 42u);
}

TEST(Histogram, MergeSumsBucketsAndExtrema) {
  Histogram a;
  Histogram b;
  a.observe(5);
  b.observe(15);
  b.observe(25);
  a.merge(b);
  const LatencySketchSnapshot snap = a.snapshot();
  EXPECT_EQ(snap.count, 3u);
  ASSERT_EQ(snap.counts.size(), 26u);
  EXPECT_EQ(snap.counts[5] + snap.counts[15] + snap.counts[25], 3u);
  EXPECT_EQ(snap.min_ns, 5u);
  EXPECT_EQ(snap.max_ns, 25u);
  EXPECT_EQ(snap.sum_ns, 45u);
}

TEST(Histogram, MergeOfEmptyKeepsExtrema) {
  Histogram a;
  const Histogram empty;
  a.observe(4);
  a.merge(empty);
  const LatencySketchSnapshot snap = a.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.min_ns, 4u);
  EXPECT_EQ(snap.max_ns, 4u);
}

// --------------------------------------------------------------- registry

TEST(MetricsRegistry, InstrumentsAreStableByName) {
  MetricsRegistry registry;
  Counter& c1 = registry.counter("x.count");
  Counter& c2 = registry.counter("x.count");
  EXPECT_EQ(&c1, &c2);
  Histogram& h1 = registry.histogram("x.latency_us");
  Histogram& h2 = registry.histogram("x.latency_us");
  EXPECT_EQ(&h1, &h2);
}

TEST(MetricsRegistry, SnapshotSkipsUnsetGauges) {
  MetricsRegistry registry;
  registry.gauge("unset");
  registry.gauge("set").set(7.0);
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("set"), 7.0);
}

TEST(MetricsRegistry, MergeIsAssociativeOnCountersAndHistograms) {
  // merge(merge(a, b), c) == merge(a, merge(b, c)) -- the property that
  // makes the arena and serve worker-registry reductions order-independent.
  MetricsRegistry left_a, left_b, left_c;
  left_a.counter("work.items").add(1);
  left_b.counter("work.items").add(2);
  left_c.counter("work.items").add(4);
  left_a.histogram("work.size").observe(3);
  left_b.histogram("work.size").observe(30);
  left_c.histogram("work.size").observe(300);

  MetricsRegistry right_a, right_b, right_c;
  right_a.counter("work.items").add(1);
  right_b.counter("work.items").add(2);
  right_c.counter("work.items").add(4);
  right_a.histogram("work.size").observe(3);
  right_b.histogram("work.size").observe(30);
  right_c.histogram("work.size").observe(300);

  left_a.merge(left_b);   // (a+b)
  left_a.merge(left_c);   // (a+b)+c
  right_b.merge(right_c); // (b+c)
  right_a.merge(right_b); // a+(b+c)

  const MetricsSnapshot left = left_a.snapshot();
  const MetricsSnapshot right = right_a.snapshot();
  EXPECT_EQ(left.counters, right.counters);
  ASSERT_EQ(left.histograms.size(), right.histograms.size());
  const auto& lh = left.histograms.at("work.size");
  const auto& rh = right.histograms.at("work.size");
  EXPECT_EQ(lh.counts, rh.counts);
  EXPECT_EQ(lh.count, rh.count);
  EXPECT_EQ(lh.sum_ns, rh.sum_ns);
  EXPECT_EQ(lh.min_ns, rh.min_ns);
  EXPECT_EQ(lh.max_ns, rh.max_ns);
}

TEST(MetricsRegistry, MergeKeepsAlreadySetGauges) {
  MetricsRegistry dst, src;
  dst.gauge("knob").set(1.0);
  src.gauge("knob").set(2.0);
  src.gauge("other").set(9.0);
  dst.merge(src);
  const MetricsSnapshot snap = dst.snapshot();
  EXPECT_DOUBLE_EQ(snap.gauges.at("knob"), 1.0);   // destination wins
  EXPECT_DOUBLE_EQ(snap.gauges.at("other"), 9.0);  // adopted from source
}

TEST(MetricsRegistry, MergeIntoSelfIsRejected) {
  MetricsRegistry registry;
  EXPECT_THROW(registry.merge(registry), ContractViolation);
}

// ------------------------------------------------------ scoped installation

TEST(ScopedRegistry, InstallsNestsAndRestores) {
  EXPECT_EQ(current_registry(), nullptr);
  MetricsRegistry outer, inner;
  {
    const ScopedRegistry outer_guard(&outer);
    EXPECT_EQ(current_registry(), &outer);
    count("hits");
    {
      const ScopedRegistry inner_guard(&inner);
      EXPECT_EQ(current_registry(), &inner);
      count("hits", 10);
      // nullptr disables telemetry within the scope.
      const ScopedRegistry off_guard(nullptr);
      EXPECT_EQ(current_registry(), nullptr);
      count("hits", 100);  // dropped
    }
    EXPECT_EQ(current_registry(), &outer);
    count("hits");
  }
  EXPECT_EQ(current_registry(), nullptr);
  count("hits", 1000);  // dropped
  EXPECT_EQ(outer.counter("hits").value(), 2);
  EXPECT_EQ(inner.counter("hits").value(), 10);
}

TEST(ScopedRegistry, HelpersAreNoOpsWhenUninstalled) {
  ASSERT_EQ(current_registry(), nullptr);
  count("free.counter");
  observe("free.histogram", 1);
  set_gauge("free.gauge", 1.0);
  // Nothing to assert beyond "does not crash": there is no registry.
}

// ------------------------------------------------------------------ spans

TEST(TraceSpan, RecordsNestingDepthAndParent) {
  TraceCollector trace;
  MetricsRegistry registry;
  {
    const ScopedTrace trace_guard(&trace);
    const ScopedRegistry registry_guard(&registry);
    const TraceSpan root("run");
    {
      const TraceSpan child("allocation");
      const TraceSpan grandchild("probe");
      (void)grandchild;
    }
    const TraceSpan sibling("payments");
    (void)sibling;
  }
  const std::vector<SpanRecord>& spans = trace.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].name, "run");
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].name, "allocation");
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].name, "probe");
  EXPECT_EQ(spans[2].depth, 2);
  EXPECT_EQ(spans[2].parent, 1);
  EXPECT_EQ(spans[3].name, "payments");
  EXPECT_EQ(spans[3].depth, 1);
  EXPECT_EQ(spans[3].parent, 0);
  for (const SpanRecord& span : spans) {
    EXPECT_GE(span.duration_us, 0) << span.name;
    EXPECT_GE(span.start_us, 0) << span.name;
  }
  // The root cannot be shorter than any of its children.
  EXPECT_GE(spans[0].duration_us, spans[1].duration_us);
  // Each closed span also landed in the registry's span histogram.
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.histograms.at("span.run_us").count, 1u);
  EXPECT_EQ(snap.histograms.at("span.allocation_us").count, 1u);
}

TEST(TraceSpan, NoOpWithoutCollectorOrRegistry) {
  ASSERT_EQ(current_trace(), nullptr);
  ASSERT_EQ(current_registry(), nullptr);
  const TraceSpan span("orphan");
  (void)span;
}

TEST(ScopedTimer, RecordsIntoRegistryOnly) {
  TraceCollector trace;
  MetricsRegistry registry;
  {
    const ScopedTrace trace_guard(&trace);
    const ScopedRegistry registry_guard(&registry);
    const ScopedTimer timer("phase.duration_us");
    (void)timer;
  }
  EXPECT_TRUE(trace.empty());
  EXPECT_EQ(registry.histogram("phase.duration_us").snapshot().count, 1u);
}

// -------------------------------------------------------------- exporters

void fill_golden_registry(MetricsRegistry& registry) {
  registry.counter("b.counter", "events of kind b").add(7);
  registry.counter("a.counter").add(3);  // no help: no # HELP line
  registry.gauge("g.level", "configured level knob").set(2.5);
  Histogram& h = registry.histogram("h.sizes", "observed sizes");
  h.observe(1);
  h.observe(4);
  h.observe(40);  // sketch bucket [40, 41]
}

TEST(Exporters, JsonGolden) {
  MetricsRegistry registry;
  fill_golden_registry(registry);
  std::ostringstream out;
  write_metrics_json(out, registry, nullptr, {{"tool", "obs_test"}});
  EXPECT_EQ(out.str(),
            "{\"schema\":\"mcs.telemetry.v1\",\"meta\":{\"tool\":\"obs_test\"},"
            "\"counters\":{\"a.counter\":3,\"b.counter\":7},"
            "\"gauges\":{\"g.level\":2.5},"
            "\"histograms\":{\"h.sizes\":{\"count\":3,\"sum\":45,\"min\":1,"
            "\"max\":40,\"buckets\":[{\"le\":1,\"count\":1},"
            "{\"le\":4,\"count\":1},{\"le\":41,\"count\":1}]}}}\n");
}

TEST(Exporters, JsonIncludesTraceWhenGiven) {
  MetricsRegistry registry;
  TraceCollector trace;
  {
    const ScopedTrace guard(&trace);
    const TraceSpan span("root");
    (void)span;
  }
  std::ostringstream out;
  write_metrics_json(out, registry, &trace);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"trace\":[{\"name\":\"root\",\"depth\":0,"
                      "\"parent\":-1,"),
            std::string::npos)
      << text;
}

TEST(Exporters, CsvGolden) {
  MetricsRegistry registry;
  fill_golden_registry(registry);
  std::ostringstream out;
  write_metrics_csv(out, registry);
  EXPECT_EQ(out.str(),
            "kind,name,field,value\n"
            "counter,a.counter,value,3\n"
            "counter,b.counter,value,7\n"
            "gauge,g.level,value,2.5\n"
            "histogram,h.sizes,count,3\n"
            "histogram,h.sizes,sum,45\n"
            "histogram,h.sizes,min,1\n"
            "histogram,h.sizes,max,40\n"
            "histogram,h.sizes,le=1,1\n"
            "histogram,h.sizes,le=4,1\n"
            "histogram,h.sizes,le=41,1\n");
}

TEST(Exporters, PrometheusGolden) {
  MetricsRegistry registry;
  fill_golden_registry(registry);
  std::ostringstream out;
  write_prometheus(out, registry);
  EXPECT_EQ(out.str(),
            "# TYPE mcs_a_counter counter\n"
            "mcs_a_counter 3\n"
            "# HELP mcs_b_counter events of kind b\n"
            "# TYPE mcs_b_counter counter\n"
            "mcs_b_counter 7\n"
            "# HELP mcs_g_level configured level knob\n"
            "# TYPE mcs_g_level gauge\n"
            "mcs_g_level 2.5\n"
            "# HELP mcs_h_sizes observed sizes\n"
            "# TYPE mcs_h_sizes histogram\n"
            "mcs_h_sizes_bucket{le=\"1\"} 1\n"
            "mcs_h_sizes_bucket{le=\"4\"} 2\n"
            "mcs_h_sizes_bucket{le=\"41\"} 3\n"
            "mcs_h_sizes_bucket{le=\"+Inf\"} 3\n"
            "mcs_h_sizes_sum 45\n"
            "mcs_h_sizes_count 3\n");
}

TEST(Exporters, HistogramSumIsAnExactInteger) {
  // 1234567890124 has 13 significant digits; a %.12g rendering would
  // export 1.23456789012e+12.
  MetricsRegistry registry;
  Histogram& h = registry.histogram("h.big");
  h.observe(1234567890123);
  h.observe(1);
  std::ostringstream json;
  write_metrics_json(json, registry, nullptr);
  EXPECT_NE(json.str().find("\"sum\":1234567890124,"), std::string::npos)
      << json.str();
  std::ostringstream csv;
  write_metrics_csv(csv, registry);
  EXPECT_NE(csv.str().find("histogram,h.big,sum,1234567890124\n"),
            std::string::npos)
      << csv.str();
  std::ostringstream prom;
  write_prometheus(prom, registry);
  EXPECT_NE(prom.str().find("mcs_h_big_sum 1234567890124\n"),
            std::string::npos)
      << prom.str();
}

TEST(Exporters, PrometheusNameSanitizationGolden) {
  // Exposition-format grammar: [a-zA-Z_:][a-zA-Z0-9_:]*. Arbitrary input
  // -- dots, dashes, spaces, user-influenced mechanism strings -- must
  // always come out scrapable.
  EXPECT_EQ(prometheus_name("serve.econ.shard.0.rounds"),
            "mcs_serve_econ_shard_0_rounds");
  EXPECT_EQ(prometheus_name("a-b c/d"), "mcs_a_b_c_d");
  EXPECT_EQ(prometheus_name("colon:kept_underscore_kept"),
            "mcs_colon:kept_underscore_kept");
  EXPECT_EQ(prometheus_name("9starts.with.digit"), "mcs_9starts_with_digit");
  EXPECT_EQ(prometheus_name(""), "mcs_");
  EXPECT_EQ(prometheus_name("na\xc3\xafve"), "mcs_na__ve")
      << "every non-ASCII byte maps to _";
}

TEST(Exporters, PrometheusLabelValueEscapingGolden) {
  EXPECT_EQ(prometheus_label_value("plain"), "plain");
  EXPECT_EQ(prometheus_label_value("a\"b"), "a\\\"b");
  EXPECT_EQ(prometheus_label_value("a\\b"), "a\\\\b");
  EXPECT_EQ(prometheus_label_value("line1\nline2"), "line1\\nline2");
  EXPECT_EQ(prometheus_label_value("\\\"\n"), "\\\\\\\"\\n");
}

TEST(Exporters, PrometheusRenderingSanitizesHostileMetricNames) {
  // A name carrying every class of illegal byte still renders as a legal,
  // stable exposition line.
  MetricsRegistry registry;
  registry.counter("serve.econ.shard-0/weird name").add(2);
  std::ostringstream out;
  write_prometheus(out, registry);
  EXPECT_EQ(out.str(),
            "# TYPE mcs_serve_econ_shard_0_weird_name counter\n"
            "mcs_serve_econ_shard_0_weird_name 2\n");
}

TEST(MetricsRegistry, FirstNonEmptyHelpWins) {
  MetricsRegistry registry;
  registry.counter("c");                   // no help yet
  registry.counter("c", "first");          // adopted
  registry.counter("c", "second");         // ignored
  registry.gauge("g", "gauge help");
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.help.at("c"), "first");
  EXPECT_EQ(snap.help.at("g"), "gauge help");
  EXPECT_EQ(snap.help.size(), 2u);
}

TEST(MetricsRegistry, MergeAdoptsMissingHelp) {
  MetricsRegistry dst, src;
  dst.counter("shared", "dst text").add(1);
  src.counter("shared", "src text").add(1);
  src.counter("only.src", "src only").add(1);
  dst.merge(src);
  const MetricsSnapshot snap = dst.snapshot();
  EXPECT_EQ(snap.help.at("shared"), "dst text");   // destination wins
  EXPECT_EQ(snap.help.at("only.src"), "src only"); // adopted
}

// -------------------------------------------------------------- quantiles

// The registry histogram's quantiles are its sketch's: LatencySketchSnapshot
// interpolates on its own buckets.

LatencySketchSnapshot sketch_of(const std::vector<std::uint64_t>& values) {
  Histogram h;
  for (const std::uint64_t v : values) h.observe(v);
  return h.snapshot();
}

TEST(EstimateQuantile, ExactBucketBoundaryAndExtrema) {
  const LatencySketchSnapshot sketch =
      sketch_of({2, 4, 6, 8, 10, 12, 14, 16, 18, 20});
  // The p50 rank (5 of 10) lands exactly on the upper edge of 10's bucket.
  EXPECT_DOUBLE_EQ(sketch.quantile_ns(0.50), 10.0);
  // q <= 0 / q >= 1 return the tracked extrema, not bucket edges.
  EXPECT_DOUBLE_EQ(sketch.quantile_ns(0.0), 2.0);
  EXPECT_DOUBLE_EQ(sketch.quantile_ns(1.0), 20.0);
}

TEST(EstimateQuantile, InterpolatesWithinBucket) {
  // Five samples in [64, 67], four in [120, 123], one far above.
  const LatencySketchSnapshot sketch =
      sketch_of({64, 65, 66, 67, 67, 120, 120, 121, 123, 1000});
  // Rank 7 of 10: halfway through the [120, 123] bucket, which opens at
  // the upper edge 119 of the bucket below.
  EXPECT_DOUBLE_EQ(sketch.quantile_ns(0.70), 119.0 + (123.0 - 119.0) * 0.5);
  // The first occupied bucket interpolates from the observed min (64),
  // not from the edge 63 below it.
  EXPECT_DOUBLE_EQ(sketch.quantile_ns(0.25), 64.0 + (67.0 - 64.0) * 0.5);
}

TEST(EstimateQuantile, OverflowBucketInterpolatesTowardMax) {
  // 1000, 1001 and 1010 share the bucket [992, 1023].
  const LatencySketchSnapshot sketch = sketch_of({5, 1000, 1001, 1010});
  // Rank 3.96 of 4 lies in the highest occupied bucket: interpolate
  // between the edge below it (991) and the observed max (1010), not the
  // bucket's upper edge 1023.
  const double p99 = sketch.quantile_ns(0.99);
  EXPECT_NEAR(p99, 991.0 + (1010.0 - 991.0) * ((3.96 - 1.0) / 3.0), 1e-9);
  EXPECT_LE(p99, 1010.0);
  EXPECT_DOUBLE_EQ(sketch.quantile_ns(1.0), 1010.0);
}

TEST(EstimateQuantile, EmptyHistogramIsNaN) {
  EXPECT_TRUE(std::isnan(sketch_of({}).quantile_ns(0.5)));
}

// ----------------------------------------------------------- chrome trace

TEST(ChromeTrace, GoldenOutput) {
  const std::vector<SpanRecord> spans{
      {"run", 0, -1, 0, 100},
      {"allocation", 1, 0, 10, 40},
      {"payments", 1, 0, 60, 30},
  };
  std::ostringstream out;
  write_chrome_trace(out, spans, {{"tool", "obs_test"}});
  EXPECT_EQ(
      out.str(),
      "{\"traceEvents\":["
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
      "\"args\":{\"name\":\"mcs\"}},"
      "{\"name\":\"run\",\"cat\":\"mcs\",\"ph\":\"X\",\"ts\":0,\"dur\":100,"
      "\"pid\":1,\"tid\":1,\"args\":{\"depth\":0,\"parent\":-1}},"
      "{\"name\":\"allocation\",\"cat\":\"mcs\",\"ph\":\"X\",\"ts\":10,"
      "\"dur\":40,\"pid\":1,\"tid\":1,\"args\":{\"depth\":1,\"parent\":0}},"
      "{\"name\":\"payments\",\"cat\":\"mcs\",\"ph\":\"X\",\"ts\":60,"
      "\"dur\":30,\"pid\":1,\"tid\":1,\"args\":{\"depth\":1,\"parent\":0}}"
      "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"tool\":\"obs_test\"}}\n");
}

TEST(ChromeTrace, LiveCollectorMatchesRenderTraceText) {
  TraceCollector trace;
  {
    const ScopedTrace guard(&trace);
    const TraceSpan root("run");
    {
      const TraceSpan child("allocation");
      (void)child;
    }
    const TraceSpan sibling("payments");
    (void)sibling;
  }
  std::ostringstream chrome;
  write_chrome_trace(chrome, trace);
  const io::JsonValue doc = io::parse_json(chrome.str());  // valid JSON
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 1u + trace.spans().size());
  EXPECT_EQ(events[0].at("ph").as_string(), "M");

  // The event sequence is the same preorder render_trace_text walks, with
  // identical names, depths, and parent links.
  std::ostringstream text;
  render_trace_text(text, trace);
  std::istringstream lines(text.str());
  std::string line;
  std::int64_t previous_ts = 0;
  for (std::size_t i = 0; i < trace.spans().size(); ++i) {
    const io::JsonValue& event = events[i + 1];
    ASSERT_TRUE(std::getline(lines, line));
    const std::size_t indent = line.find_first_not_of(' ');
    EXPECT_EQ(static_cast<std::int64_t>(indent) / 2,
              event.at("args").at("depth").as_int())
        << line;
    EXPECT_EQ(line.substr(indent, line.find("  ", indent) - indent),
              event.at("name").as_string());
    EXPECT_EQ(event.at("args").at("parent").as_int(),
              trace.spans()[i].parent);
    // Complete events arrive in open order: timestamps never go backwards.
    EXPECT_GE(event.at("ts").as_int(), previous_ts);
    previous_ts = event.at("ts").as_int();
  }
  EXPECT_FALSE(std::getline(lines, line));  // text had no extra spans
}

// ------------------------------------------------- headline preregistration

TEST(PreregisterHeadlineCounters, StableKeySetWithHelp) {
  MetricsRegistry registry;
  preregister_headline_counters(registry);
  const MetricsSnapshot snap = registry.snapshot();
  for (const char* name :
       {"auction.offline_vcg.augmenting_paths",
        "auction.offline_vcg.tasks_scanned", "auction.critical_value.probes",
        "auction.greedy.allocation_runs",
        "auction.counterfactual.payment_forks",
        "auction.counterfactual.probe_forks",
        "auction.counterfactual.slots_replayed",
        "auction.counterfactual.slots_skipped"}) {
    ASSERT_TRUE(snap.counters.count(name) == 1) << name;
    EXPECT_EQ(snap.counters.at(name), 0) << name;
    EXPECT_FALSE(snap.help.at(name).empty()) << name;
  }
}

TEST(Exporters, TraceTextIndentsByDepth) {
  TraceCollector trace;
  {
    const ScopedTrace guard(&trace);
    const TraceSpan root("run");
    const TraceSpan child("allocation");
    (void)child;
  }
  std::ostringstream out;
  render_trace_text(out, trace);
  const std::string text = out.str();
  EXPECT_EQ(text.rfind("run  ", 0), 0u) << text;
  EXPECT_NE(text.find("\n  allocation  "), std::string::npos) << text;
}

}  // namespace
}  // namespace mcs::obs
