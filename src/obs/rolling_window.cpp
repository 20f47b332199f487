#include "obs/rolling_window.hpp"

namespace mcs::obs {

double LiveCumulative::reject_rate() const {
  const std::int64_t offered = submitted + rejected;
  return offered > 0
             ? static_cast<double>(rejected) / static_cast<double>(offered)
             : 0.0;
}

LiveCumulative& LiveCumulative::operator+=(const LiveCumulative& other) {
  submitted += other.submitted;
  processed += other.processed;
  rejected += other.rejected;
  rounds_closed += other.rounds_closed;
  queue_depth += other.queue_depth;
  queue_watermark = std::max(queue_watermark, other.queue_watermark);
  queue_high_watermark =
      std::max(queue_high_watermark, other.queue_high_watermark);
  queue_wait.merge(other.queue_wait);
  round_latency.merge(other.round_latency);
  return *this;
}

LiveCumulative operator-(LiveCumulative later, const LiveCumulative& earlier) {
  later.submitted -= earlier.submitted;
  later.processed -= earlier.processed;
  later.rejected -= earlier.rejected;
  later.rounds_closed -= earlier.rounds_closed;
  later.queue_wait = later.queue_wait.delta_since(earlier.queue_wait);
  later.round_latency = later.round_latency.delta_since(earlier.round_latency);
  return later;
}

// ----------------------------------------------------------------- health

std::string_view to_string(HealthState state) {
  switch (state) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kSaturated:
      return "saturated";
    case HealthState::kShedding:
      return "shedding";
    case HealthState::kStalled:
      return "stalled";
    case HealthState::kDegradedEconomics:
      return "degraded-economics";
  }
  return "unknown";
}

HealthState worse(HealthState a, HealthState b) {
  return static_cast<int>(a) >= static_cast<int>(b) ? a : b;
}

HealthState classify_health(const std::deque<Window<LiveCumulative>>& windows,
                            std::int64_t queue_capacity) {
  if (windows.empty()) return HealthState::kHealthy;
  const bool dwelt = windows.size() >= kHealthDwellWindows;
  const auto dwell_begin = windows.end() - (dwelt ? kHealthDwellWindows : 0);

  if (dwelt && std::all_of(dwell_begin, windows.end(), [](const auto& w) {
        return w.delta.queue_depth > 0 && w.delta.processed == 0;
      })) {
    return HealthState::kStalled;
  }

  if (windows.back().delta.reject_rate() > kShedRejectRate) {
    return HealthState::kShedding;
  }

  const double threshold =
      kSaturatedQueueFraction * static_cast<double>(queue_capacity);
  if (dwelt && queue_capacity > 0 &&
      std::all_of(dwell_begin, windows.end(), [&](const auto& w) {
        return static_cast<double>(w.delta.queue_watermark) >= threshold;
      })) {
    return HealthState::kSaturated;
  }

  return HealthState::kHealthy;
}

}  // namespace mcs::obs
