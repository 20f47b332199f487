#include "serve/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/assert.hpp"
#include "io/json.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace mcs::serve {

// ---------------------------------------------------------- LiveTelemetry

LiveTelemetry::LiveTelemetry(LiveTelemetryConfig config)
    : clock_(config.clock != nullptr ? config.clock : &obs::steady_clock()) {}

void LiveTelemetry::attach(int shards, std::int64_t queue_capacity) {
  MCS_EXPECTS(shards >= 1, "live telemetry requires >= 1 shard");
  const std::lock_guard<std::mutex> lock(snapshot_mutex_);
  start_ns_ = clock_->now_ns();
  queue_capacity_ = queue_capacity;
  slots_.clear();
  for (int i = 0; i < shards; ++i) {
    slots_.push_back(std::make_unique<ShardSlot>());
  }
  shard_windows_.clear();
  shard_windows_.resize(static_cast<std::size_t>(shards));
  total_window_ = obs::RollingWindow<obs::LiveCumulative>();
}

std::uint64_t LiveTelemetry::now_ns() {
  const std::uint64_t now = clock_->now_ns();
  return now >= start_ns_ ? now - start_ns_ : 0;
}

void LiveTelemetry::on_submit(int shard, std::int64_t count,
                              std::int64_t depth_after) {
  ShardSlot& slot = *slots_[static_cast<std::size_t>(shard)];
  const std::lock_guard<std::mutex> lock(slot.mutex);
  obs::LiveCumulative& totals = slot.totals;
  totals.submitted += count;
  totals.queue_depth = depth_after;
  totals.queue_watermark = std::max(totals.queue_watermark, depth_after);
  totals.queue_high_watermark =
      std::max(totals.queue_high_watermark, depth_after);
}

void LiveTelemetry::on_reject(int shard, std::int64_t count) {
  ShardSlot& slot = *slots_[static_cast<std::size_t>(shard)];
  const std::lock_guard<std::mutex> lock(slot.mutex);
  slot.totals.rejected += count;
}

void LiveTelemetry::on_process(int shard, std::uint64_t queue_wait_ns,
                               std::int64_t depth_after) {
  ShardSlot& slot = *slots_[static_cast<std::size_t>(shard)];
  const std::lock_guard<std::mutex> lock(slot.mutex);
  ++slot.totals.processed;
  slot.totals.queue_depth = depth_after;
  slot.totals.queue_wait.record_ns(queue_wait_ns);
}

void LiveTelemetry::on_round_close(int shard,
                                   std::uint64_t round_latency_ns) {
  ShardSlot& slot = *slots_[static_cast<std::size_t>(shard)];
  const std::lock_guard<std::mutex> lock(slot.mutex);
  ++slot.totals.rounds_closed;
  slot.totals.round_latency.record_ns(round_latency_ns);
}

obs::LiveCumulative LiveTelemetry::sample(ShardSlot& slot, bool close_window) {
  const std::lock_guard<std::mutex> lock(slot.mutex);
  obs::LiveCumulative sample = slot.totals;
  // The window watermark restarts at the current depth, not zero: a queue
  // that stays backlogged across a whole window must still show it.
  if (close_window) slot.totals.queue_watermark = slot.totals.queue_depth;
  return sample;
}

ServeSnapshot LiveTelemetry::take_snapshot() {
  const std::lock_guard<std::mutex> lock(snapshot_mutex_);
  const std::uint64_t now = now_ns();
  ServeSnapshot snapshot;
  obs::LiveCumulative total;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const obs::LiveCumulative record = sample(*slots_[i], true);
    total += record;
    ShardWindow shard{obs::HealthState::kHealthy,
                      shard_windows_[i].roll(now, record)};
    shard.state =
        obs::classify_health(shard_windows_[i].windows(), queue_capacity_);
    snapshot.state = obs::worse(snapshot.state, shard.state);
    snapshot.shards.push_back(std::move(shard));
  }
  snapshot.total = total_window_.roll(now, total);
  return snapshot;
}

LiveWindow LiveTelemetry::summary() {
  const std::lock_guard<std::mutex> lock(snapshot_mutex_);
  LiveWindow run;
  run.end_ns = now_ns();
  for (const std::unique_ptr<ShardSlot>& slot : slots_) {
    run.delta += sample(*slot, false);
  }
  return run;
}

// -------------------------------------------------------- JSONL rendering

namespace {

std::int64_t to_ms(std::uint64_t ns) {
  return static_cast<std::int64_t>(ns / 1'000'000ULL);
}

/// Quantile triple of one window sketch as *_us fields (null when empty).
void write_latency_fields(io::JsonWriter& json, std::string_view prefix,
                          const obs::LatencySketchSnapshot& sketch) {
  const auto field = [&](std::string_view suffix, double value) {
    json.field(std::string(prefix) + std::string(suffix), value);
  };
  field("_p50_us", sketch.quantile_us(0.50));
  field("_p95_us", sketch.quantile_us(0.95));
  field("_p99_us", sketch.quantile_us(0.99));
  field("_max_us",
        sketch.empty() ? std::numeric_limits<double>::quiet_NaN()
                       : static_cast<double>(sketch.max_ns) / 1000.0);
}

}  // namespace

void write_serve_snapshot(std::ostream& os, const ServeSnapshot& snapshot) {
  const LiveWindow& total = snapshot.total;
  {
    io::JsonWriter json(os);
    json.begin_object();
    json.field("schema", "mcs.serve_stats.v1");
    json.field("window", total.index);
    json.field("at_ms", to_ms(total.end_ns));
    json.field("span_ms", to_ms(total.end_ns - total.begin_ns));
    json.field("state", obs::to_string(snapshot.state));
    json.field("submitted", total.delta.submitted);
    json.field("processed", total.delta.processed);
    json.field("rejected", total.delta.rejected);
    json.field("reject_rate", total.delta.reject_rate());
    json.field("rounds_closed", total.delta.rounds_closed);
    json.field("events_per_sec", total.per_second(total.delta.processed));
    json.field("rounds_per_sec", total.per_second(total.delta.rounds_closed));
    write_latency_fields(json, "round_close", total.delta.round_latency);
    write_latency_fields(json, "queue_wait", total.delta.queue_wait);
    json.field("queue_depth", total.delta.queue_depth);
    json.field("queue_watermark", total.delta.queue_watermark);
    json.key("shards");
    json.begin_array();
    for (std::size_t i = 0; i < snapshot.shards.size(); ++i) {
      const ShardWindow& shard = snapshot.shards[i];
      const obs::LiveCumulative& delta = shard.window.delta;
      json.begin_object();
      json.field("shard", static_cast<std::int64_t>(i));
      json.field("state", obs::to_string(shard.state));
      json.field("processed", delta.processed);
      json.field("rejected", delta.rejected);
      json.field("events_per_sec", shard.window.per_second(delta.processed));
      json.field("queue_depth", delta.queue_depth);
      json.field("queue_watermark", delta.queue_watermark);
      json.field("round_close_p99_us", delta.round_latency.quantile_us(0.99));
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  os << '\n';
}

// --------------------------------------------------- Prometheus rendering

void render_live_prometheus(std::ostream& os, const ServeSnapshot& snapshot) {
  const LiveWindow& total = snapshot.total;
  obs::MetricsRegistry registry;
  const auto gauge = [&](const std::string& name, double value,
                         std::string_view help = {}) {
    if (std::isfinite(value)) registry.gauge(name, help).set(value);
  };
  gauge("serve.live.window", static_cast<double>(total.index),
        "monotone snapshot window index");
  gauge("serve.live.state", static_cast<double>(snapshot.state),
        "health severity: 0 healthy, 1 saturated, 2 shedding, 3 stalled, "
        "4 degraded-economics");
  gauge("serve.live.events_per_sec", total.per_second(total.delta.processed),
        "events processed per second in the last window");
  gauge("serve.live.rounds_per_sec",
        total.per_second(total.delta.rounds_closed),
        "rounds closed per second in the last window");
  gauge("serve.live.reject_rate", total.delta.reject_rate(),
        "fraction of offered events shed in the last window");
  gauge("serve.live.queue_depth", static_cast<double>(total.delta.queue_depth),
        "queued events across all shards at the window edge");
  gauge("serve.live.queue_watermark",
        static_cast<double>(total.delta.queue_watermark),
        "highest shard queue depth within the last window");
  gauge("serve.live.round_close_p50_us",
        total.delta.round_latency.quantile_us(0.50),
        "round open->close wall latency, window p50");
  gauge("serve.live.round_close_p99_us",
        total.delta.round_latency.quantile_us(0.99),
        "round open->close wall latency, window p99");
  gauge("serve.live.queue_wait_p99_us",
        total.delta.queue_wait.quantile_us(0.99),
        "submit->process queue wait, window p99");
  for (std::size_t i = 0; i < snapshot.shards.size(); ++i) {
    const ShardWindow& shard = snapshot.shards[i];
    const std::string prefix = "serve.live.shard." + std::to_string(i) + ".";
    gauge(prefix + "state", static_cast<double>(shard.state));
    gauge(prefix + "queue_depth",
          static_cast<double>(shard.window.delta.queue_depth));
    gauge(prefix + "queue_watermark",
          static_cast<double>(shard.window.delta.queue_watermark));
    gauge(prefix + "events_per_sec",
          shard.window.per_second(shard.window.delta.processed));
  }
  obs::write_prometheus(os, registry);
}

// --------------------------------------------------------- StatsPublisher

StatsPublisher::StatsPublisher(LiveTelemetry& live, std::ostream& os,
                               std::chrono::milliseconds period,
                               EconTelemetry* econ, std::ostream* econ_os)
    : live_(live), os_(os), period_(period), econ_(econ), econ_os_(econ_os) {
  MCS_EXPECTS(period_.count() > 0, "stats period must be positive");
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stopping_) {
      if (cv_.wait_for(lock, period_, [this] { return stopping_; })) break;
      lock.unlock();
      publish();
      lock.lock();
    }
  });
}

StatsPublisher::~StatsPublisher() { stop(); }

void StatsPublisher::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) return;
    stopping_ = true;
    stopped_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  publish();  // tail window, so even sub-period runs emit one snapshot
}

void StatsPublisher::publish() {
  last_ = live_.take_snapshot();
  write_serve_snapshot(os_, last_);
  os_.flush();
  if (econ_ != nullptr && econ_os_ != nullptr) {
    last_econ_ = econ_->take_snapshot();
    write_econ_snapshot(*econ_os_, *last_econ_);
    econ_os_->flush();
  }
  written_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace mcs::serve
