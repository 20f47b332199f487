// Shared main() for the perf_* google-benchmark binaries.
//
// Replaces benchmark::benchmark_main so the perf benches can emit a
// machine-readable telemetry report next to the human-oriented console
// output. When --telemetry-out=<path> is passed (or
// MCS_BENCH_TELEMETRY_OUT is set) the binary runs TWO passes:
//
//  1. Timing pass: the registered benchmarks exactly as google-benchmark
//     would run them (adaptive iteration counts, the user's
//     --benchmark_min_time / --benchmark_out flags). No registry is
//     installed, so the numbers measure the telemetry-off fast path.
//  2. Counter pass: the same benchmarks re-run pinned to ONE iteration
//     each (--benchmark_min_time=0 stops google-benchmark after its first
//     probe iteration) with a MetricsRegistry installed and console
//     output suppressed. With the bench workloads seeded, the work
//     counters recorded by the instrumented library code (offline-greedy
//     task scans, counterfactual forks, critical-value probes, ...) are
//     therefore IDENTICAL run to run and machine to machine -- the deterministic
//     baseline that `mcs_cli bench-diff` compares exactly.
//
// Without the flag only pass 1 runs and nothing else changes.
// scripts/collect_bench.sh merges the per-binary reports into
// BENCH_telemetry.json at the repo root.
#pragma once

#include <benchmark/benchmark.h>

#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "telemetry_scope.hpp"

namespace mcs_bench {

/// Swallows all reporting: the counter pass re-runs every benchmark, and
/// repeating the console table with 1-iteration timings would only
/// mislead.
class NullReporter : public benchmark::BenchmarkReporter {
 public:
  bool ReportContext(const Context& /*context*/) override { return true; }
  void ReportRuns(const std::vector<Run>& /*runs*/) override {}
};

inline int telemetry_main(int argc, char** argv, std::string_view bench_name) {
  // Extract --telemetry-out=<path> before google-benchmark sees (and
  // rejects) the unknown flag.
  const std::string out_path = take_telemetry_flag(argc, argv);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();  // pass 1: timing, telemetry off

  if (!out_path.empty()) {
    // Pass 2: pinned single-iteration re-run for deterministic counters.
    // Re-Initialize overrides the adaptive-timing flags (and disables any
    // --benchmark_out so the timing pass's file survives) while keeping
    // the user's --benchmark_filter.
    std::string pin_min_time = "--benchmark_min_time=0";
    std::string pin_repetitions = "--benchmark_repetitions=1";
    std::string pin_out = "--benchmark_out=";
    std::vector<char*> pin_argv{argv[0], pin_min_time.data(),
                                pin_repetitions.data(), pin_out.data()};
    int pin_argc = static_cast<int>(pin_argv.size());
    benchmark::Initialize(&pin_argc, pin_argv.data());

    // Registry only, no TraceCollector: even one iteration per benchmark
    // would append one span tree each; the aggregate span.<name>_us
    // histograms already capture the phase timings.
    mcs::obs::MetricsRegistry registry;
    mcs::obs::preregister_headline_counters(registry);
    {
      const mcs::obs::ScopedRegistry registry_guard(&registry);
      const mcs::obs::ScopedTimer timer("bench.total_duration_us");
      NullReporter quiet;
      benchmark::RunSpecifiedBenchmarks(&quiet);
    }
    if (!write_bench_telemetry(out_path, registry, bench_name)) {
      benchmark::Shutdown();
      return 1;
    }
  }
  benchmark::Shutdown();
  return 0;
}

}  // namespace mcs_bench
