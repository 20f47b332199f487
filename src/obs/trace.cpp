#include "obs/trace.hpp"

#include "common/assert.hpp"
#include "obs/metrics.hpp"

namespace mcs::obs {

namespace {

thread_local TraceCollector* t_current_trace = nullptr;

std::int64_t elapsed_us(std::chrono::steady_clock::time_point from,
                        std::chrono::steady_clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::microseconds>(to - from)
      .count();
}

}  // namespace

TraceCollector::TraceCollector() : epoch_(std::chrono::steady_clock::now()) {}

std::size_t TraceCollector::open_span(std::string_view name) {
  SpanRecord record;
  record.name = std::string(name);
  record.depth = static_cast<int>(open_stack_.size());
  record.parent =
      open_stack_.empty() ? -1 : static_cast<int>(open_stack_.back());
  record.start_us = elapsed_us(epoch_, std::chrono::steady_clock::now());
  const std::size_t index = spans_.size();
  spans_.push_back(std::move(record));
  open_stack_.push_back(index);
  return index;
}

void TraceCollector::close_span(std::size_t index, std::int64_t duration_us) {
  MCS_EXPECTS(!open_stack_.empty() && open_stack_.back() == index,
              "trace spans must close in LIFO order");
  open_stack_.pop_back();
  spans_[index].duration_us = duration_us;
}

TraceCollector* current_trace() noexcept { return t_current_trace; }

ScopedTrace::ScopedTrace(TraceCollector* collector) noexcept
    : previous_(t_current_trace) {
  t_current_trace = collector;
}

ScopedTrace::~ScopedTrace() { t_current_trace = previous_; }

TraceSpan::TraceSpan(std::string_view name)
    : collector_(t_current_trace),
      metrics_on_(current_registry() != nullptr) {
  if (collector_ == nullptr && !metrics_on_) return;
  name_ = std::string(name);
  start_ = std::chrono::steady_clock::now();
  if (collector_ != nullptr) index_ = collector_->open_span(name_);
}

TraceSpan::~TraceSpan() {
  if (collector_ == nullptr && !metrics_on_) return;
  const std::int64_t us =
      elapsed_us(start_, std::chrono::steady_clock::now());
  if (collector_ != nullptr) collector_->close_span(index_, us);
  if (metrics_on_) {
    if (MetricsRegistry* registry = current_registry()) {
      registry->histogram("span." + name_ + "_us")
          .observe(static_cast<std::uint64_t>(us));
    }
  }
}

ScopedTimer::ScopedTimer(std::string_view histogram_name)
    : enabled_(current_registry() != nullptr) {
  if (!enabled_) return;
  name_ = std::string(histogram_name);
  start_ = std::chrono::steady_clock::now();
}

ScopedTimer::~ScopedTimer() {
  if (!enabled_) return;
  if (MetricsRegistry* registry = current_registry()) {
    registry->histogram(name_).observe(static_cast<std::uint64_t>(
        elapsed_us(start_, std::chrono::steady_clock::now())));
  }
}

}  // namespace mcs::obs
