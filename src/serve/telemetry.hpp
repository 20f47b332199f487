// Live operational telemetry of the serving engine -- the wall-clock plane.
//
// The engine's deterministic plane (ServeStats + the merged
// MetricsRegistry counters) is bit-identical across shard counts and runs,
// and bench-diff gates it exactly. This file is the other plane: wall-clock
// latency and throughput observed *while serving*, which is inherently
// nondeterministic and therefore strictly quarantined -- nothing recorded
// here ever touches a MetricsRegistry counter or histogram, and turning it
// on must not change a single deterministic counter (pinned by
// serve_telemetry_test).
//
// Wiring: the engine calls the on_* hooks (each updates its shard's
// obs::LiveCumulative record under the shard's lock) when a LiveTelemetry
// is installed in its ServeConfig; a StatsPublisher thread periodically
// calls take_snapshot(), which rolls one obs::RollingWindow per shard and
// one over their sum, classifies shard and engine health
// (obs::classify_health), and emits one JSONL line of schema
// "mcs.serve_stats.v1" (write_serve_snapshot) and/or a Prometheus text
// rendering (render_live_prometheus, via the existing exporter). Time
// comes from an injectable obs::MonotonicClock, so tests drive the whole
// plane with a FakeClock and golden the snapshots byte for byte.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <thread>
#include <vector>

#include "obs/latency_sketch.hpp"
#include "obs/rolling_window.hpp"
#include "obs/wallclock.hpp"
#include "serve/econ_telemetry.hpp"

namespace mcs::serve {

struct LiveTelemetryConfig {
  /// Time source; nullptr = the process steady clock.
  obs::MonotonicClock* clock = nullptr;
};

using LiveWindow = obs::Window<obs::LiveCumulative>;

/// One shard's share of a snapshot window.
struct ShardWindow {
  obs::HealthState state{obs::HealthState::kHealthy};
  LiveWindow window;
};

/// One published snapshot: the per-shard windows (indexed by shard) plus
/// the engine-wide window over the sum of the shard records. `total.index`
/// is the monotone snapshot number; all times are uptime-relative
/// (nanoseconds since attach), so fake-clock runs are reproducible.
struct ServeSnapshot {
  obs::HealthState state{obs::HealthState::kHealthy};  ///< worst shard
  LiveWindow total;
  std::vector<ShardWindow> shards;
};

class LiveTelemetry {
 public:
  explicit LiveTelemetry(LiveTelemetryConfig config = {});
  LiveTelemetry(const LiveTelemetry&) = delete;
  LiveTelemetry& operator=(const LiveTelemetry&) = delete;

  /// Binds to one engine run: sizes the per-shard slots, records the queue
  /// capacity (for health classification), and restarts uptime at now.
  /// Called by the engine constructor; discards any previous run's data.
  void attach(int shards, std::int64_t queue_capacity);

  [[nodiscard]] int shards() const { return static_cast<int>(slots_.size()); }

  /// Uptime timestamp (ns since attach) from the injected clock.
  [[nodiscard]] std::uint64_t now_ns();

  // Engine hooks. Thread-safe: each updates its shard's record under that
  // shard's lock. A handoff of `count` events is recorded once, at the
  // batch's depth-after (the exact instantaneous occupancy -- batch pushes
  // are all-or-nothing).
  void on_submit(int shard, std::int64_t count, std::int64_t depth_after);
  void on_reject(int shard, std::int64_t count);
  void on_process(int shard, std::uint64_t queue_wait_ns,
                  std::int64_t depth_after);
  void on_round_close(int shard, std::uint64_t round_latency_ns);

  /// Rolls one window per shard and one over their sum, and classifies
  /// health. Serialized internally, so the publisher thread and a final
  /// end-of-run call cannot interleave.
  [[nodiscard]] ServeSnapshot take_snapshot();

  /// The whole run since attach as one window over the sum of the shard
  /// records (index 0). Leaves the snapshot windows untouched.
  [[nodiscard]] LiveWindow summary();

 private:
  /// One shard's record, written by producers (on_submit/on_reject) and
  /// the shard worker (on_process/on_round_close), read by the sampler.
  struct ShardSlot {
    ShardSlot() {
      totals.queue_wait.reserve_buckets();
      totals.round_latency.reserve_buckets();
    }
    std::mutex mutex;
    obs::LiveCumulative totals;
  };

  /// A copy of the slot's record; `close_window` restarts its window
  /// watermark.
  [[nodiscard]] static obs::LiveCumulative sample(ShardSlot& slot,
                                                  bool close_window);

  obs::MonotonicClock* clock_;
  std::uint64_t start_ns_{0};
  std::int64_t queue_capacity_{0};
  std::vector<std::unique_ptr<ShardSlot>> slots_;
  std::mutex snapshot_mutex_;  ///< guards the rolling windows below
  std::vector<obs::RollingWindow<obs::LiveCumulative>> shard_windows_;
  obs::RollingWindow<obs::LiveCumulative> total_window_;
};

/// One "mcs.serve_stats.v1" JSONL line (newline-terminated). Every line is
/// self-describing (carries the schema field); quantiles of an empty
/// window render as null.
void write_serve_snapshot(std::ostream& os, const ServeSnapshot& snapshot);

/// Prometheus text rendering of one snapshot via obs::write_prometheus
/// (gauges named serve.live.*; health states as their severity rank).
void render_live_prometheus(std::ostream& os, const ServeSnapshot& snapshot);

/// Background snapshot thread: every `period` it takes a snapshot and
/// appends one JSONL line to `os`. stop() (and the destructor) publishes
/// one final tail window so short runs still emit at least one line.
/// When an EconTelemetry and its stream are supplied, each tick publishes
/// the econ plane too ("mcs.serve_econ.v1" lines, same cadence); either
/// may be nullptr.
class StatsPublisher {
 public:
  StatsPublisher(LiveTelemetry& live, std::ostream& os,
                 std::chrono::milliseconds period, EconTelemetry* econ,
                 std::ostream* econ_os);
  ~StatsPublisher();
  StatsPublisher(const StatsPublisher&) = delete;
  StatsPublisher& operator=(const StatsPublisher&) = delete;

  /// Idempotent; joins the thread and writes the final snapshot.
  void stop();
  [[nodiscard]] std::int64_t snapshots_written() const {
    return written_.load(std::memory_order_relaxed);
  }
  /// The snapshots stop() published last: the tail that a final rendering
  /// (e.g. Prometheus text) must agree with. The econ one is empty when
  /// no econ stream was supplied. Valid after stop().
  [[nodiscard]] const ServeSnapshot& final_snapshot() const { return last_; }
  [[nodiscard]] const std::optional<EconSnapshot>& final_econ_snapshot()
      const {
    return last_econ_;
  }

 private:
  void publish();

  LiveTelemetry& live_;
  std::ostream& os_;
  std::chrono::milliseconds period_;
  EconTelemetry* econ_{nullptr};     ///< optional second plane (non-owning)
  std::ostream* econ_os_{nullptr};   ///< destination for econ snapshots
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_{false};
  bool stopped_{false};
  std::atomic<std::int64_t> written_{0};
  ServeSnapshot last_;  ///< written by publish() only
  std::optional<EconSnapshot> last_econ_;
  std::thread thread_;
};

}  // namespace mcs::serve
