// Telemetry metrics: counters, gauges, and latency-sketch histograms.
//
// The paper argues for its mechanisms on computational-efficiency grounds
// (Theorems 3 and 7); this registry is how the repo observes where the work
// goes. Design constraints, in order:
//
//  1. Zero cost when disabled. Nothing is recorded unless a registry has
//     been installed for the current thread (ScopedRegistry); the fast path
//     of every helper is one thread-local load and a branch, so hot loops
//     (pool insertions, counterfactual slots) can instrument
//     unconditionally.
//  2. Deterministic parallel reduction. Each arena worker and each serve
//     shard records into its own registry; merge() is associative and
//     commutative for counters and histograms (sums), so the reduced
//     counters are identical to a single-threaded run over the same
//     work.
//  3. Thread safety anyway. A registry may be shared (the CLI installs one
//     registry for the whole process lifetime), so individual instruments
//     are safe for concurrent recording.
//
// Naming convention (docs/observability.md): dot-separated lowercase
// "<layer>.<component>.<what>", e.g. "auction.greedy.allocation_runs".
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/latency_sketch.hpp"

namespace mcs::obs {

/// Monotonically increasing event count. Lock-free.
class Counter {
 public:
  void add(std::int64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Last-written instantaneous value (e.g. a configuration knob or pool
/// size snapshot). merge() keeps the destination's value when both sides
/// were ever set ("first writer wins" along the reduction order), which is
/// associative.
class Gauge {
 public:
  void set(double v) noexcept {
    value_.store(v, std::memory_order_relaxed);
    set_.store(true, std::memory_order_relaxed);
  }
  [[nodiscard]] bool has_value() const noexcept {
    return set_.load(std::memory_order_relaxed);
  }
  /// Last set value; 0.0 when never set.
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
  std::atomic<bool> set_{false};
};

/// Distribution of non-negative integer samples in the histogram's own
/// unit: whole microseconds for span.*_us and ScopedTimer, a count for
/// auction.greedy.pool_size. A mutex around one LatencySketchSnapshot, so
/// every histogram has the sketch's bucket scheme and two histograms of
/// the same name always merge exactly.
class Histogram {
 public:
  void observe(std::uint64_t value);
  /// Adds another histogram's samples (bucket-wise sum).
  void merge(const Histogram& other);
  [[nodiscard]] LatencySketchSnapshot snapshot() const;

 private:
  mutable std::mutex mutex_;
  LatencySketchSnapshot sketch_;
};

/// Snapshot of a whole registry, ordered by name (deterministic export).
struct MetricsSnapshot {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, LatencySketchSnapshot> histograms;
  /// Per-metric descriptions (only metrics registered with a help text).
  std::map<std::string, std::string> help;
};

/// Thread-safe name -> instrument store. Instrument references returned by
/// counter()/gauge()/histogram() stay valid for the registry's lifetime, so
/// hot paths can look up once and record many times.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// `help` is an optional one-line description for exporters (Prometheus
  /// "# HELP"); the first non-empty help registered for a name wins.
  Counter& counter(std::string_view name, std::string_view help = {});
  Gauge& gauge(std::string_view name, std::string_view help = {});
  Histogram& histogram(std::string_view name, std::string_view help = {});

  /// Folds `other` into this registry (sums counters and histograms; keeps
  /// already-set gauges). Associative and commutative on counters and
  /// histograms -- the parallel-reduction identity.
  void merge(const MetricsRegistry& other);

  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  void record_help(std::string_view name, std::string_view help);

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, std::string, std::less<>> help_;
};

/// Registers the headline work counters (with their descriptions) so every
/// telemetry report carries the same schema keys regardless of which code
/// paths ran -- a zero then means "not exercised", never "metric removed".
/// The CLI and the bench telemetry mains all call this; bench-diff relies
/// on the stable key set.
void preregister_headline_counters(MetricsRegistry& registry);

/// Registry installed for the current thread, or nullptr (telemetry off).
[[nodiscard]] MetricsRegistry* current_registry() noexcept;

/// RAII install/restore of the current thread's registry. Nests; each scope
/// restores whatever was installed before it. Passing nullptr disables
/// telemetry within the scope.
class ScopedRegistry {
 public:
  explicit ScopedRegistry(MetricsRegistry* registry) noexcept;
  ~ScopedRegistry();
  ScopedRegistry(const ScopedRegistry&) = delete;
  ScopedRegistry& operator=(const ScopedRegistry&) = delete;

 private:
  MetricsRegistry* previous_;
};

/// Adds to a counter of the installed registry; no-op when telemetry is
/// off. For tight loops prefer caching the Counter& once per call.
inline void count(std::string_view name, std::int64_t n = 1) {
  if (MetricsRegistry* registry = current_registry()) {
    registry->counter(name).add(n);
  }
}

/// Records into a histogram of the installed registry; no-op when off.
inline void observe(std::string_view name, std::uint64_t value) {
  if (MetricsRegistry* registry = current_registry()) {
    registry->histogram(name).observe(value);
  }
}

/// Sets a gauge of the installed registry; no-op when off.
inline void set_gauge(std::string_view name, double value) {
  if (MetricsRegistry* registry = current_registry()) {
    registry->gauge(name).set(value);
  }
}

}  // namespace mcs::obs
