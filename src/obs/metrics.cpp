#include "obs/metrics.hpp"

#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace mcs::obs {

// ------------------------------------------------------------- Histogram

void Histogram::observe(std::uint64_t value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  sketch_.record_ns(value);
}

LatencySketchSnapshot Histogram::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return sketch_;
}

void Histogram::merge(const Histogram& other) {
  // Copy the source under its own lock first; never hold both locks at
  // once (no lock-order issue if a caller merges a/b and b/a concurrently).
  const LatencySketchSnapshot other_sketch = other.snapshot();
  const std::lock_guard<std::mutex> lock(mutex_);
  sketch_.merge(other_sketch);
}

// ------------------------------------------------------- MetricsRegistry

void MetricsRegistry::record_help(std::string_view name,
                                  std::string_view help) {
  // Caller holds mutex_. First non-empty description wins.
  if (help.empty()) return;
  if (help_.find(name) != help_.end()) return;
  help_.emplace(std::string(name), std::string(help));
}

Counter& MetricsRegistry::counter(std::string_view name,
                                  std::string_view help) {
  const std::lock_guard<std::mutex> lock(mutex_);
  record_help(name, help);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  return *counters_.emplace(std::string(name), std::make_unique<Counter>())
              .first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view help) {
  const std::lock_guard<std::mutex> lock(mutex_);
  record_help(name, help);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return *it->second;
  return *gauges_.emplace(std::string(name), std::make_unique<Gauge>())
              .first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::string_view help) {
  const std::lock_guard<std::mutex> lock(mutex_);
  record_help(name, help);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return *it->second;
  return *histograms_.emplace(std::string(name), std::make_unique<Histogram>())
              .first->second;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  MCS_EXPECTS(this != &other, "cannot merge a registry into itself");
  // Snapshot the source's instrument pointers under its lock, then record
  // into this registry through the normal (locking) accessors.
  std::vector<std::pair<std::string, const Counter*>> other_counters;
  std::vector<std::pair<std::string, const Gauge*>> other_gauges;
  std::vector<std::pair<std::string, const Histogram*>> other_histograms;
  std::vector<std::pair<std::string, std::string>> other_help;
  {
    const std::lock_guard<std::mutex> lock(other.mutex_);
    for (const auto& [name, instrument] : other.counters_) {
      other_counters.emplace_back(name, instrument.get());
    }
    for (const auto& [name, instrument] : other.gauges_) {
      other_gauges.emplace_back(name, instrument.get());
    }
    for (const auto& [name, instrument] : other.histograms_) {
      other_histograms.emplace_back(name, instrument.get());
    }
    for (const auto& [name, text] : other.help_) {
      other_help.emplace_back(name, text);
    }
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, text] : other_help) record_help(name, text);
  }
  for (const auto& [name, instrument] : other_counters) {
    counter(name).add(instrument->value());
  }
  for (const auto& [name, instrument] : other_gauges) {
    Gauge& mine = gauge(name);
    if (!mine.has_value() && instrument->has_value()) {
      mine.set(instrument->value());
    }
  }
  for (const auto& [name, instrument] : other_histograms) {
    histogram(name).merge(*instrument);
  }
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, instrument] : counters_) {
    snap.counters[name] = instrument->value();
  }
  for (const auto& [name, instrument] : gauges_) {
    if (instrument->has_value()) snap.gauges[name] = instrument->value();
  }
  for (const auto& [name, instrument] : histograms_) {
    snap.histograms[name] = instrument->snapshot();
  }
  for (const auto& [name, text] : help_) snap.help[name] = text;
  return snap;
}

// -------------------------------------------------- headline counter set

void preregister_headline_counters(MetricsRegistry& registry) {
  registry.counter("auction.offline_vcg.augmenting_paths",
                   "phones the offline greedy added to its matching");
  registry.counter("auction.offline_vcg.tasks_scanned",
                   "task-range entries the offline greedy and its "
                   "replacement search examined");
  registry.counter("auction.critical_value.probes",
                   "wins(b)? evaluations during critical-value search");
  registry.counter("auction.greedy.allocation_runs",
                   "Algorithm-1 (online greedy allocation) executions");
  registry.counter("auction.counterfactual.payment_forks",
                   "Algorithm-2 payments: runs without the winner, forked at "
                   "its reported arrival (batch and streaming alike)");
  registry.counter("auction.counterfactual.probe_forks",
                   "critical-value bisection probes forked at the probed "
                   "phone's reported arrival");
  registry.counter("auction.counterfactual.slots_replayed",
                   "slots simulated by counterfactual forks (the fork slot "
                   "through the departure)");
  registry.counter("auction.counterfactual.slots_skipped",
                   "slots before a fork point, inherited from the factual "
                   "run instead of being replayed");
}

// ------------------------------------------------------ current registry

namespace {
thread_local MetricsRegistry* t_current_registry = nullptr;
}  // namespace

MetricsRegistry* current_registry() noexcept { return t_current_registry; }

ScopedRegistry::ScopedRegistry(MetricsRegistry* registry) noexcept
    : previous_(t_current_registry) {
  t_current_registry = registry;
}

ScopedRegistry::~ScopedRegistry() { t_current_registry = previous_; }

}  // namespace mcs::obs
