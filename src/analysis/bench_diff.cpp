#include "analysis/bench_diff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <string_view>

#include "common/error.hpp"
#include "io/json.hpp"

namespace mcs::analysis {

namespace {

constexpr std::string_view kWrapperSchema = "mcs.bench_telemetry.v1";
constexpr std::string_view kReportSchema = "mcs.telemetry.v1";

bool is_duration_histogram(std::string_view name) {
  return name.size() >= 3 && name.substr(name.size() - 3) == "_us";
}

std::string format_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  return buf;
}

std::string format_ratio(double ratio) {
  if (!std::isfinite(ratio)) return "inf";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2fx", ratio);
  return buf;
}

/// Sections of a telemetry document: the merged wrapper maps bench name ->
/// mcs.telemetry.v1 report; a bare report is one section named after its
/// meta.tool. `side` labels parse problems in thrown messages.
std::map<std::string, const io::JsonValue*> telemetry_sections(
    const io::JsonValue& document, const std::string& side,
    std::vector<std::string>& notes) {
  if (!document.is_object()) {
    throw InvalidArgumentError(side + ": not a JSON object");
  }
  const std::string schema = document.string_or("schema", "");
  std::map<std::string, const io::JsonValue*> sections;
  if (schema == kReportSchema) {
    std::string name = "report";
    if (const io::JsonValue* meta = document.find("meta")) {
      name = meta->string_or("tool", name);
    }
    sections.emplace(name, &document);
    return sections;
  }
  if (schema != kWrapperSchema) {
    throw InvalidArgumentError(side + ": unexpected schema '" + schema +
                               "' (want " + std::string(kWrapperSchema) +
                               " or " + std::string(kReportSchema) + ")");
  }
  for (const auto& [key, value] : document.as_object()) {
    if (key == "schema") continue;
    if (!value.is_object() || value.string_or("schema", "") != kReportSchema) {
      notes.push_back(side + ": section '" + key + "' is not a " +
                      std::string(kReportSchema) + " report");
      continue;
    }
    sections.emplace(key, &value);
  }
  return sections;
}

std::map<std::string, std::int64_t> counters_of(const io::JsonValue& report) {
  std::map<std::string, std::int64_t> counters;
  if (const io::JsonValue* object = report.find("counters")) {
    for (const auto& [name, value] : object->as_object()) {
      counters.emplace(name, value.as_int());
    }
  }
  return counters;
}

std::map<std::string, obs::LatencySketchSnapshot> histograms_of(
    const io::JsonValue& report, const std::string& where) {
  std::map<std::string, obs::LatencySketchSnapshot> histograms;
  if (const io::JsonValue* object = report.find("histograms")) {
    for (const auto& [name, value] : object->as_object()) {
      histograms.emplace(name, histogram_from_json(value, where + "/" + name));
    }
  }
  return histograms;
}

void diff_counters(const std::string& bench,
                   const std::map<std::string, std::int64_t>& baseline,
                   const std::map<std::string, std::int64_t>& candidate,
                   BenchDiffReport& report) {
  std::set<std::string> names;
  for (const auto& [name, value] : baseline) names.insert(name);
  for (const auto& [name, value] : candidate) names.insert(name);
  for (const std::string& name : names) {
    ++report.counters_compared;
    const auto base = baseline.find(name);
    const auto cand = candidate.find(name);
    CounterDrift drift;
    drift.bench = bench;
    drift.name = name;
    drift.in_baseline = base != baseline.end();
    drift.in_candidate = cand != candidate.end();
    if (drift.in_baseline) drift.baseline = base->second;
    if (drift.in_candidate) drift.candidate = cand->second;
    if (!drift.in_baseline || !drift.in_candidate ||
        drift.baseline != drift.candidate) {
      report.counter_drifts.push_back(std::move(drift));
    }
  }
}

void diff_deterministic_histogram(
    const std::string& bench, const std::string& name,
    const obs::LatencySketchSnapshot& baseline,
    const obs::LatencySketchSnapshot& candidate, BenchDiffReport& report) {
  std::string what;
  if (baseline.count != candidate.count) {
    what = "count " + std::to_string(baseline.count) + " -> " +
           std::to_string(candidate.count);
  } else if (baseline.counts != candidate.counts) {
    what = "bucket counts shifted";
  } else if (baseline.sum_ns != candidate.sum_ns) {
    what = "sum " + std::to_string(baseline.sum_ns) + " -> " +
           std::to_string(candidate.sum_ns);
  }
  if (!what.empty()) {
    report.histogram_drifts.push_back({bench, name, std::move(what)});
  }
}

double safe_ratio(double baseline, double candidate) {
  if (baseline > 0.0) return candidate / baseline;
  if (candidate <= 0.0) return 1.0;
  return std::numeric_limits<double>::infinity();
}

void diff_duration_histogram(
    const std::string& bench, const std::string& name,
    const obs::LatencySketchSnapshot* baseline,
    const obs::LatencySketchSnapshot* candidate,
    const BenchDiffOptions& options, BenchDiffReport& report) {
  TimingDiff timing;
  timing.bench = bench;
  timing.name = name;
  // quantile_ns answers in the histogram's own unit, here microseconds.
  if (baseline != nullptr) {
    timing.baseline_count = static_cast<std::int64_t>(baseline->count);
    timing.baseline_p50 = baseline->quantile_ns(0.50);
    timing.baseline_p95 = baseline->quantile_ns(0.95);
    timing.baseline_p99 = baseline->quantile_ns(0.99);
  }
  if (candidate != nullptr) {
    timing.candidate_count = static_cast<std::int64_t>(candidate->count);
    timing.candidate_p50 = candidate->quantile_ns(0.50);
    timing.candidate_p95 = candidate->quantile_ns(0.95);
    timing.candidate_p99 = candidate->quantile_ns(0.99);
  }
  if (timing.baseline_count > 0 && timing.candidate_count > 0) {
    timing.ratio_p50 = safe_ratio(timing.baseline_p50, timing.candidate_p50);
    timing.ratio_p95 = safe_ratio(timing.baseline_p95, timing.candidate_p95);
    timing.ratio_p99 = safe_ratio(timing.baseline_p99, timing.candidate_p99);
    timing.max_ratio =
        std::max({timing.ratio_p50, timing.ratio_p95, timing.ratio_p99});
    timing.regressed = timing.max_ratio > options.timing_ratio_threshold;
  }
  report.timings.push_back(std::move(timing));
}

void diff_section(const std::string& bench, const io::JsonValue& baseline,
                  const io::JsonValue& candidate,
                  const BenchDiffOptions& options, BenchDiffReport& report) {
  diff_counters(bench, counters_of(baseline), counters_of(candidate), report);

  const auto baseline_histograms =
      histograms_of(baseline, "baseline/" + bench);
  const auto candidate_histograms =
      histograms_of(candidate, "candidate/" + bench);
  std::set<std::string> names;
  for (const auto& [name, data] : baseline_histograms) names.insert(name);
  for (const auto& [name, data] : candidate_histograms) names.insert(name);
  for (const std::string& name : names) {
    const auto base = baseline_histograms.find(name);
    const auto cand = candidate_histograms.find(name);
    const obs::LatencySketchSnapshot* base_data =
        base != baseline_histograms.end() ? &base->second : nullptr;
    const obs::LatencySketchSnapshot* cand_data =
        cand != candidate_histograms.end() ? &cand->second : nullptr;
    if (is_duration_histogram(name)) {
      diff_duration_histogram(bench, name, base_data, cand_data, options,
                              report);
      continue;
    }
    ++report.histograms_compared;
    if (base_data == nullptr || cand_data == nullptr) {
      report.histogram_drifts.push_back(
          {bench, name,
           base_data == nullptr ? "only in candidate" : "only in baseline"});
      continue;
    }
    diff_deterministic_histogram(bench, name, *base_data, *cand_data, report);
  }
}

}  // namespace

obs::LatencySketchSnapshot histogram_from_json(const io::JsonValue& value,
                                               const std::string& where) {
  const auto count_at = [&](const io::JsonValue& object, const char* key) {
    const std::int64_t n = object.at(key).as_int();
    if (n < 0) throw InvalidArgumentError(where + ": negative " + key);
    return static_cast<std::uint64_t>(n);
  };
  // A sample value or bucket edge; one at or beyond 2^64 saturates.
  const auto value_at = [&](const io::JsonValue& object, const char* key) {
    const double v = object.at(key).as_number();
    if (!(v >= 0.0)) throw InvalidArgumentError(where + ": negative " + key);
    return v < 18446744073709551616.0 ? static_cast<std::uint64_t>(v)
                                      : ~std::uint64_t{0};
  };
  obs::LatencySketchSnapshot sketch;
  sketch.count = count_at(value, "count");
  sketch.sum_ns = value_at(value, "sum");
  if (sketch.count > 0) {
    sketch.min_ns = value_at(value, "min");
    sketch.max_ns = value_at(value, "max");
  }
  for (const io::JsonValue& bucket : value.at("buckets").as_array()) {
    const io::JsonValue& le = bucket.at("le");
    if (le.is_string() && le.as_string() != "+Inf") {
      throw InvalidArgumentError(where + ": bad bucket edge '" +
                                 le.as_string() + "'");
    }
    const std::uint64_t n = count_at(bucket, "count");
    if (n == 0) continue;  // keep counts trimmed like a recorded sketch
    const std::size_t b = obs::sketch_detail::bucket_of(
        le.is_string() ? ~std::uint64_t{0} : value_at(bucket, "le"));
    if (b >= sketch.counts.size()) sketch.counts.resize(b + 1, 0);
    sketch.counts[b] += n;
  }
  return sketch;
}

BenchDiffReport diff_bench_telemetry(const io::JsonValue& baseline,
                                     const io::JsonValue& candidate,
                                     const BenchDiffOptions& options) {
  BenchDiffReport report;
  const auto baseline_sections =
      telemetry_sections(baseline, "baseline", report.notes);
  const auto candidate_sections =
      telemetry_sections(candidate, "candidate", report.notes);
  std::set<std::string> benches;
  for (const auto& [name, section] : baseline_sections) benches.insert(name);
  for (const auto& [name, section] : candidate_sections) benches.insert(name);
  for (const std::string& bench : benches) {
    const auto base = baseline_sections.find(bench);
    const auto cand = candidate_sections.find(bench);
    if (base == baseline_sections.end()) {
      report.notes.push_back("bench section '" + bench +
                             "' missing from baseline");
      continue;
    }
    if (cand == candidate_sections.end()) {
      report.notes.push_back("bench section '" + bench +
                             "' missing from candidate");
      continue;
    }
    diff_section(bench, *base->second, *cand->second, options, report);
  }
  return report;
}

BenchDiffReport diff_bench_telemetry_files(const std::string& baseline_path,
                                           const std::string& candidate_path,
                                           const BenchDiffOptions& options) {
  const auto load = [](const std::string& path) {
    std::ifstream in(path);
    if (!in) throw IoError("cannot open telemetry file: " + path);
    std::ostringstream text;
    text << in.rdbuf();
    return io::parse_json(text.str());
  };
  const io::JsonValue baseline = load(baseline_path);
  const io::JsonValue candidate = load(candidate_path);
  BenchDiffReport report = diff_bench_telemetry(baseline, candidate, options);
  report.baseline_label = baseline_path;
  report.candidate_label = candidate_path;
  return report;
}

void write_bench_diff_markdown(std::ostream& os,
                               const BenchDiffReport& report,
                               const BenchDiffOptions& options) {
  const bool failed = report.regression(options);
  os << "# bench-diff: " << (failed ? "REGRESSION" : "OK") << "\n\n";
  if (!report.baseline_label.empty() || !report.candidate_label.empty()) {
    os << "baseline `" << report.baseline_label << "` vs candidate `"
       << report.candidate_label << "`\n\n";
  }
  if (!report.notes.empty()) {
    os << "## Structural problems\n\n";
    for (const std::string& note : report.notes) os << "- " << note << '\n';
    os << '\n';
  }

  os << "## Deterministic counters (exact)\n\n"
     << report.counters_compared << " compared, " << report.counter_drifts.size()
     << " drifted.\n";
  if (!report.counter_drifts.empty()) {
    os << "\n| bench | counter | baseline | candidate |\n"
       << "|---|---|---:|---:|\n";
    for (const CounterDrift& drift : report.counter_drifts) {
      os << "| " << drift.bench << " | `" << drift.name << "` | "
         << (drift.in_baseline ? std::to_string(drift.baseline)
                               : std::string("(missing)"))
         << " | "
         << (drift.in_candidate ? std::to_string(drift.candidate)
                                : std::string("(missing)"))
         << " |\n";
    }
  }
  os << '\n';

  os << "## Deterministic histograms (exact)\n\n"
     << report.histograms_compared << " compared, "
     << report.histogram_drifts.size() << " drifted.\n";
  if (!report.histogram_drifts.empty()) {
    os << "\n| bench | histogram | drift |\n|---|---|---|\n";
    for (const HistogramDrift& drift : report.histogram_drifts) {
      os << "| " << drift.bench << " | `" << drift.name << "` | " << drift.what
         << " |\n";
    }
  }
  os << '\n';

  os << "## Duration histograms (threshold "
     << format_ratio(options.timing_ratio_threshold) << ", "
     << (options.gate_timings ? "gating" : "report-only") << ")\n\n";
  if (report.timings.empty()) {
    os << "none.\n";
    return;
  }
  os << "| bench | histogram | n | p50 | p95 | p99 | p50 ratio | p95 ratio "
        "| p99 ratio | |\n"
     << "|---|---|---:|---:|---:|---:|---:|---:|---:|---|\n";
  for (const TimingDiff& timing : report.timings) {
    os << "| " << timing.bench << " | `" << timing.name << "` | ";
    if (timing.baseline_count == 0 || timing.candidate_count == 0) {
      os << timing.baseline_count << " -> " << timing.candidate_count
         << " | - | - | - | - | - | - | "
         << (timing.baseline_count == 0 ? "only in candidate"
                                        : "only in baseline")
         << " |\n";
      continue;
    }
    os << timing.candidate_count << " | "
       << format_number(timing.baseline_p50) << " -> "
       << format_number(timing.candidate_p50) << " | "
       << format_number(timing.baseline_p95) << " -> "
       << format_number(timing.candidate_p95) << " | "
       << format_number(timing.baseline_p99) << " -> "
       << format_number(timing.candidate_p99) << " | "
       << format_ratio(timing.ratio_p50) << " | "
       << format_ratio(timing.ratio_p95) << " | "
       << format_ratio(timing.ratio_p99) << " | "
       << (timing.regressed ? "REGRESSED" : "") << " |\n";
  }
}

void write_bench_diff_json(std::ostream& os, const BenchDiffReport& report,
                           const BenchDiffOptions& options) {
  io::JsonWriter json(os);
  json.begin_object();
  json.field("schema", "mcs.bench_diff.v1");
  json.field("verdict", report.regression(options)
                            ? std::string_view("regression")
                            : std::string_view("ok"));
  json.field("baseline", report.baseline_label);
  json.field("candidate", report.candidate_label);
  json.key("options").begin_object();
  json.field("timing_ratio_threshold", options.timing_ratio_threshold);
  json.field("gate_timings", options.gate_timings);
  json.end_object();
  json.key("notes").begin_array();
  for (const std::string& note : report.notes) json.value(note);
  json.end_array();
  json.key("counters").begin_object();
  json.field("compared", static_cast<std::int64_t>(report.counters_compared));
  json.key("drifts").begin_array();
  for (const CounterDrift& drift : report.counter_drifts) {
    json.begin_object();
    json.field("bench", drift.bench);
    json.field("name", drift.name);
    if (drift.in_baseline) json.field("baseline", drift.baseline);
    if (drift.in_candidate) json.field("candidate", drift.candidate);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  json.key("histograms").begin_object();
  json.field("compared",
             static_cast<std::int64_t>(report.histograms_compared));
  json.key("drifts").begin_array();
  for (const HistogramDrift& drift : report.histogram_drifts) {
    json.begin_object();
    json.field("bench", drift.bench);
    json.field("name", drift.name);
    json.field("what", drift.what);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  json.key("timings").begin_array();
  for (const TimingDiff& timing : report.timings) {
    json.begin_object();
    json.field("bench", timing.bench);
    json.field("name", timing.name);
    json.field("baseline_count", timing.baseline_count);
    json.field("candidate_count", timing.candidate_count);
    if (timing.baseline_count > 0 && timing.candidate_count > 0) {
      json.field("baseline_p50", timing.baseline_p50);
      json.field("baseline_p95", timing.baseline_p95);
      json.field("baseline_p99", timing.baseline_p99);
      json.field("candidate_p50", timing.candidate_p50);
      json.field("candidate_p95", timing.candidate_p95);
      json.field("candidate_p99", timing.candidate_p99);
      json.field("ratio_p50", timing.ratio_p50);
      json.field("ratio_p95", timing.ratio_p95);
      json.field("ratio_p99", timing.ratio_p99);
      json.field("regressed", timing.regressed);
    }
    json.end_object();
  }
  json.end_array();
  json.end_object();
  os << '\n';
}

}  // namespace mcs::analysis
