// Rolling windows and overload health for the live observation planes.
//
// Each serve plane keeps one plain counter record per shard
// (obs::LiveCumulative below, obs::EconCumulative in obs/econ_metrics.hpp,
// serve::TraceSummary) with one add (`+=`, folding shards into a total)
// and, for the windowed planes, one subtract (`later - earlier`, the
// delta between two cumulative samples). RollingWindow<Record> turns
// successive samples of a record into Window<Record> deltas and keeps the
// newest ones; rates derive from a window through Window::per_second. The
// window edges come from whatever MonotonicClock the caller samples with,
// so a FakeClock makes every derived rate and quantile byte-reproducible.
//
// classify_health reads the recent live windows and names the operational
// state: healthy, saturated (queue watermark dwelling near capacity),
// shedding (admission control rejecting traffic), or stalled (backlogged
// queue with no forward progress). It is a pure function of the window
// ring so tests enumerate every state directly.
//
// Everything here is wall-clock territory: none of it may feed the
// deterministic counter plane that bench-diff gates.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string_view>

#include "common/assert.hpp"
#include "obs/latency_sketch.hpp"

namespace mcs::obs {

/// Windows each RollingWindow retains (health dwell reads the tail).
inline constexpr std::size_t kWindowCapacity = 64;

/// One closed window: the delta of a cumulative record between two
/// samples and the uptime span it covers.
template <typename Record>
struct Window {
  std::int64_t index{0};  ///< monotone window number, starts at 0
  std::uint64_t begin_ns{0};
  std::uint64_t end_ns{0};
  Record delta;

  [[nodiscard]] double seconds() const {
    return static_cast<double>(end_ns - begin_ns) / 1e9;
  }
  /// `count` per second of this window; 0 for a zero-length window.
  [[nodiscard]] double per_second(std::int64_t count) const {
    const double span = seconds();
    return span > 0.0 ? static_cast<double>(count) / span : 0.0;
  }
};

/// Turns successive cumulative samples of one lane into windows and
/// retains the newest `capacity`. Single-threaded by design: the caller
/// serializes roll().
template <typename Record>
class RollingWindow {
 public:
  explicit RollingWindow(std::size_t capacity = kWindowCapacity)
      : capacity_(std::max<std::size_t>(capacity, 1)) {}

  /// Closes the window [previous sample, at_ns] and returns it. `at_ns`
  /// must not precede the previous sample.
  const Window<Record>& roll(std::uint64_t at_ns, const Record& cumulative) {
    MCS_EXPECTS(at_ns >= previous_ns_,
                "rolling window sampled with a clock that went backwards");
    windows_.push_back(Window<Record>{next_index_++, previous_ns_, at_ns,
                                      cumulative - previous_});
    previous_ns_ = at_ns;
    previous_ = cumulative;
    while (windows_.size() > capacity_) windows_.pop_front();
    return windows_.back();
  }

  [[nodiscard]] const std::deque<Window<Record>>& windows() const {
    return windows_;
  }
  /// Index the next roll() will assign (== windows rolled so far).
  [[nodiscard]] std::int64_t next_index() const { return next_index_; }

 private:
  std::size_t capacity_;
  std::deque<Window<Record>> windows_;
  std::uint64_t previous_ns_{0};
  Record previous_{};
  std::int64_t next_index_{0};
};

/// Cumulative live stats of one event-processing lane (e.g. one serve
/// shard). The four counts and both sketches only grow; the three depth
/// fields are levels, so a delta keeps the later sample's value.
struct LiveCumulative {
  std::int64_t submitted{0};  ///< events accepted into the queue
  std::int64_t processed{0};  ///< events consumed by the worker
  std::int64_t rejected{0};   ///< events shed by admission control
  std::int64_t rounds_closed{0};
  std::int64_t queue_depth{0};  ///< instantaneous; shards add up
  /// Highest depth since the previous window closed; shards take the max.
  std::int64_t queue_watermark{0};
  /// Highest depth since attach; shards take the max.
  std::int64_t queue_high_watermark{0};
  LatencySketchSnapshot queue_wait;     ///< submit->pop wait
  LatencySketchSnapshot round_latency;  ///< open->close wall

  /// rejected / (submitted + rejected); 0 when nothing was offered.
  [[nodiscard]] double reject_rate() const;

  LiveCumulative& operator+=(const LiveCumulative& other);
};

[[nodiscard]] LiveCumulative operator-(LiveCumulative later,
                                       const LiveCumulative& earlier);

// ----------------------------------------------------------------- health

enum class HealthState {
  kHealthy,
  kSaturated,  ///< queue watermark dwelling near capacity
  kShedding,   ///< admission control rejecting traffic
  kStalled,    ///< backlogged queue, no forward progress
  /// The econ sentinel observed an invariant violation (payment below
  /// claimed cost, payment != critical value, ...). Worst state: a
  /// mispriced mechanism is a correctness bug, not a load condition, so
  /// it outranks every systems state and is sticky for the run.
  kDegradedEconomics,
};

[[nodiscard]] std::string_view to_string(HealthState state);

/// Severity order for aggregating shard states (degraded economics worst,
/// then stalled).
[[nodiscard]] HealthState worse(HealthState a, HealthState b);

/// A window whose reject rate exceeds this is shedding.
inline constexpr double kShedRejectRate = 0.01;
/// A window whose watermark reaches this fraction of queue capacity
/// counts toward saturation dwell.
inline constexpr double kSaturatedQueueFraction = 0.5;
/// Consecutive qualifying windows before saturated/stalled is declared
/// (one noisy window is not an incident).
inline constexpr std::size_t kHealthDwellWindows = 2;

/// Classifies the newest windows of one lane. Stalled takes precedence
/// over shedding over saturated; with fewer than kHealthDwellWindows
/// windows only shedding can be declared.
[[nodiscard]] HealthState classify_health(
    const std::deque<Window<LiveCumulative>>& windows,
    std::int64_t queue_capacity);

}  // namespace mcs::obs
