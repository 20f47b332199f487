// Perf-regression sentinel: compares two bench telemetry documents and
// renders a structured verdict.
//
// The telemetry the benches emit splits cleanly into two kinds of signal:
//
//  * Deterministic work counters (offline-greedy task scans,
//    critical-value probes) and deterministic distribution histograms
//    (candidate pool sizes). With the bench workloads seeded and the
//    telemetry pass pinned to one iteration per benchmark, these carry
//    ZERO measurement noise -- any drift is an algorithmic change, so the
//    comparison is exact and a mismatch is a hard failure.
//  * Duration histograms (every name ending "_us"). These are wall-clock
//    and noisy, so they are compared as candidate/baseline ratios of the
//    bucket-interpolated p50/p95/p99 (obs::LatencySketchSnapshot's
//    quantile estimator) against a threshold, and gate the verdict only
//    when the caller opts in (gate_timings) -- CI keeps them report-only
//    to tolerate shared-runner noise.
//
// Accepted inputs: the merged "mcs.bench_telemetry.v1" wrapper written by
// scripts/collect_bench.sh (one section per bench binary) or a bare
// "mcs.telemetry.v1" report (treated as a single section), so two
// `mcs_cli run --metrics-out` reports diff just as well as two baselines.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "io/json_parse.hpp"
#include "obs/latency_sketch.hpp"

namespace mcs::analysis {

struct BenchDiffOptions {
  /// A duration quantile ratio (candidate/baseline) above this flags the
  /// histogram as a timing regression.
  double timing_ratio_threshold{1.50};
  /// When true, timing regressions fail the verdict; otherwise they are
  /// report-only and only deterministic drift fails it.
  bool gate_timings{false};
};

/// One drifted deterministic counter (value mismatch or a key present on
/// only one side).
struct CounterDrift {
  std::string bench;  ///< section (bench binary) name
  std::string name;
  bool in_baseline{false};
  bool in_candidate{false};
  std::int64_t baseline{0};  ///< meaningful when in_baseline
  std::int64_t candidate{0};  ///< meaningful when in_candidate
};

/// One drifted deterministic (non-duration) histogram.
struct HistogramDrift {
  std::string bench;
  std::string name;
  std::string what;  ///< human-readable mismatch description
};

/// Quantile comparison of one duration ("*_us") histogram. Reported for
/// every duration histogram, regressed or not.
struct TimingDiff {
  std::string bench;
  std::string name;
  std::int64_t baseline_count{0};
  std::int64_t candidate_count{0};
  double baseline_p50{0}, baseline_p95{0}, baseline_p99{0};
  double candidate_p50{0}, candidate_p95{0}, candidate_p99{0};
  double ratio_p50{0}, ratio_p95{0}, ratio_p99{0};  ///< candidate/baseline
  /// Max of the three ratios when both sides have samples; 1.0 otherwise.
  double max_ratio{1.0};
  bool regressed{false};  ///< max_ratio > options.timing_ratio_threshold
};

struct BenchDiffReport {
  std::string baseline_label;   ///< e.g. the baseline file path
  std::string candidate_label;  ///< e.g. the candidate file path
  /// Structural problems that make the comparison unsound (schema
  /// mismatch, a bench section present on only one side). Any note is a
  /// hard failure, like counter drift.
  std::vector<std::string> notes;
  int counters_compared{0};
  std::vector<CounterDrift> counter_drifts;
  int histograms_compared{0};  ///< deterministic (non-_us) histograms
  std::vector<HistogramDrift> histogram_drifts;
  std::vector<TimingDiff> timings;  ///< every *_us histogram, name-sorted

  /// No notes, no counter drift, no deterministic-histogram drift.
  [[nodiscard]] bool deterministic_clean() const {
    return notes.empty() && counter_drifts.empty() &&
           histogram_drifts.empty();
  }
  [[nodiscard]] bool timings_regressed() const {
    for (const TimingDiff& timing : timings) {
      if (timing.regressed) return true;
    }
    return false;
  }
  /// The gate: deterministic drift always fails; timing regressions fail
  /// only under options.gate_timings.
  [[nodiscard]] bool regression(const BenchDiffOptions& options) const {
    return !deterministic_clean() ||
           (options.gate_timings && timings_regressed());
  }
};

/// Parses one mcs.telemetry.v1 histogram object back into the sketch the
/// exporter wrote: each bucket's `le` maps to its sketch bucket through
/// sketch_detail::bucket_of ("+Inf" to the top bucket). A layout written
/// before the registry used sketches parses too, each of its buckets
/// landing in the sketch bucket of its upper edge. Edges round-trip
/// exactly below 2^53 (JSON numbers are doubles). `where` labels the
/// InvalidArgumentError thrown on malformed input.
[[nodiscard]] obs::LatencySketchSnapshot histogram_from_json(
    const io::JsonValue& value, const std::string& where);

/// Compares two parsed telemetry documents (mcs.bench_telemetry.v1 wrapper
/// or bare mcs.telemetry.v1). Throws InvalidArgumentError on documents
/// that are not telemetry reports at all.
[[nodiscard]] BenchDiffReport diff_bench_telemetry(
    const io::JsonValue& baseline, const io::JsonValue& candidate,
    const BenchDiffOptions& options = {});

/// Loads, parses, and diffs two telemetry files; labels the report with
/// the paths. Throws IoError when a file cannot be read.
[[nodiscard]] BenchDiffReport diff_bench_telemetry_files(
    const std::string& baseline_path, const std::string& candidate_path,
    const BenchDiffOptions& options = {});

/// Renders the verdict as GitHub-flavoured markdown: verdict headline,
/// drift tables, and one row per duration histogram with its p50/p95/p99
/// and ratios.
void write_bench_diff_markdown(std::ostream& os, const BenchDiffReport& report,
                               const BenchDiffOptions& options = {});

/// Machine-readable verdict, schema "mcs.bench_diff.v1".
void write_bench_diff_json(std::ostream& os, const BenchDiffReport& report,
                           const BenchDiffOptions& options = {});

}  // namespace mcs::analysis
