// Run harness shared by the end-to-end and traced runs: the engine set-up
// of a workload, the correctness gate, and the result record.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/econ_telemetry.hpp"
#include "serve/engine.hpp"
#include "serve/telemetry.hpp"
#include "serve/trace_plane.hpp"
#include "workload.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
};

/// One run's result: rounds attempted and failed, and the metrics.
struct RunResult {
  std::int64_t attempted{0};
  std::int64_t failed{0};
  std::string first_error;  ///< empty when every round passed
  std::vector<Metric> metrics;

  [[nodiscard]] bool correct() const {
    return failed == 0 && first_error.empty();
  }
  void fail(std::int64_t rounds, const std::string& why);
};

/// The contract's result line: {"correct","attempted","failed","metrics"}.
[[nodiscard]] std::string to_json(const RunResult& result);

[[nodiscard]] double median(std::vector<double> values);

/// Steady-clock nanoseconds.
[[nodiscard]] std::uint64_t now_ns();

/// The serving engine of one workload plus, on a planes-on workload, the
/// observation planes the CLI's `serve` wires up: the deterministic
/// registry, the live plane with its snapshot publisher (default period,
/// writing to memory), econ with 1-in-16 deep probes, and trace with the
/// auto slow threshold. Construct and use on one thread.
class Harness {
 public:
  explicit Harness(const WorkloadSpec& spec);
  ~Harness();

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  /// Hands one event over through the ShardBatcher.
  mcs::serve::SubmitStatus submit(const mcs::serve::ServeEvent& event) {
    return batcher_->add(event);
  }
  /// Flushes the partial batches.
  mcs::serve::SubmitStatus flush();
  /// ServeEngine::drain(); returns the stream error, empty when clean.
  [[nodiscard]] std::string drain();
  /// Stops the snapshot publisher (after drain, outside timing).
  void stop_planes();

  [[nodiscard]] mcs::serve::ServeEngine& engine() { return *engine_; }
  /// The econ plane, or nullptr on a planes-off workload.
  [[nodiscard]] mcs::serve::EconTelemetry* econ();

 private:
  struct Planes {
    explicit Planes(const mcs::serve::EconTelemetryConfig& econ_config)
        : econ(econ_config) {}

    mcs::obs::MetricsRegistry registry;
    mcs::serve::LiveTelemetry live;
    mcs::serve::EconTelemetry econ;
    mcs::serve::TracePlane trace;
    std::ostringstream stats_out;
    std::ostringstream econ_out;
  };

  // Declaration order is teardown order reversed: the publisher stops
  // before the engine joins, and the registry scope closes last.
  std::unique_ptr<Planes> planes_;
  std::optional<mcs::obs::ScopedRegistry> scope_;
  std::unique_ptr<mcs::serve::ServeEngine> engine_;
  std::unique_ptr<mcs::serve::ShardBatcher> batcher_;
  std::unique_ptr<mcs::serve::StatsPublisher> publisher_;
};

/// The engine configuration every run uses for a workload.
[[nodiscard]] mcs::serve::ServeConfig serve_config();

/// The econ plane configuration (the CLI defaults).
[[nodiscard]] mcs::serve::EconTelemetryConfig econ_config();

/// Correctness gate of one drained engine that was sent `events` events
/// of `rounds` rounds: ServeStats must show every event processed and
/// every round completed with nothing abandoned, corrupted, orphaned or
/// rejected; every outcome must match `reference` when given, else the
/// batch oracle serve::verify_against_batch; and the econ plane, when on,
/// must report no violation. Records failures into `result` and returns
/// the outcomes.
std::vector<mcs::serve::RoundOutcome> check_engine(
    const WorkloadSpec& spec, std::uint64_t seed, Harness& harness,
    std::int64_t events, const std::string& drain_error,
    const std::vector<mcs::serve::RoundOutcome>* reference,
    RunResult& result);

/// True when two round outcomes carry the same allocation and payments.
[[nodiscard]] bool same_outcome(const mcs::serve::RoundOutcome& a,
                                const mcs::serve::RoundOutcome& b);

/// The untraced run: end-to-end metrics over repetitions of the stream
/// until `seconds` of timed serving have passed.
[[nodiscard]] RunResult run_end_to_end(const WorkloadSpec& spec,
                                       std::uint64_t seed, double seconds);

}  // namespace perfbench
