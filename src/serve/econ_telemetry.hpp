// Live economic telemetry and the online invariant sentinel -- the
// mechanism-health plane of the serving engine.
//
// serve/telemetry.hpp watches the engine as a *system* (throughput,
// latency, queues); this file watches it as a *mechanism*. At every
// round_close the shard worker hands the closed round's claimed-cost
// reconstruction (RoundMachine capture mode) to observe_round, which
//
//  * computes the round's economics through the very same
//    analysis::compute_metrics the offline audits use (welfare, payment,
//    overpayment ratio sigma, coverage, Jain payment fairness),
//  * prices the round under reference mechanisms -- the per-slot
//    second-price baseline every round, offline VCG for small rounds --
//    so overpayment is visible against a yardstick, and
//  * runs the sentinel: cheap exact invariants every round
//    (analysis::check_round_invariants -- winner paid >= claimed cost,
//    losers paid zero, payment-total accounting), plus, for a seeded
//    1-in-N sample of rounds, deep probes through the shared-prefix
//    CounterfactualEngine (auction::audit_winner_payment -- the winner
//    still wins at its claim and its payment equals the critical value,
//    Theorem 4's characterization).
//
// Plane separation contract: every reference run and probe executes under
// obs::ScopedRegistry(nullptr) + obs::ScopedEventLog(nullptr), so the
// deterministic counter plane is untouched and econ-on vs econ-off runs
// stay bit-identical on clean traffic. The single deliberate exception is
// the `econ.violations` registry counter, bumped only when an invariant
// actually breaks -- deterministically so, because the probe sampler is
// seeded by round id, never by time. Violations additionally emit
// structured "econ_violation" records into a caller-supplied
// obs::EventLog and flip the plane's health to degraded-economics
// (sticky: a mispriced mechanism is a bug, not load).
//
// Snapshots aggregate per-shard atomics through obs::EconWindowAggregator
// into one "mcs.serve_econ.v1" JSONL line (write_econ_snapshot) and
// Prometheus gauges (render_econ_prometheus), published by the same
// StatsPublisher cadence as the systems plane. Time comes from an
// injectable clock, so FakeClock tests golden the stream byte for byte.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

#include "auction/online_greedy.hpp"
#include "obs/econ_metrics.hpp"
#include "obs/event_log.hpp"
#include "obs/latency_sketch.hpp"
#include "obs/wallclock.hpp"
#include "serve/round_machine.hpp"

namespace mcs::serve {

struct EconTelemetryConfig {
  /// Time source; nullptr = the process steady clock.
  obs::MonotonicClock* clock = nullptr;
  /// Rolling econ windows retained per shard.
  std::size_t window_capacity = 64;

  /// Price every round under the per-slot second-price baseline (cheap:
  /// one greedy re-run, no counterfactuals).
  bool second_price_reference = true;
  /// Offline VCG reference, gated to small rounds (O((n+gamma)^3) style
  /// matching); 0 disables. A round qualifies when phones <= vcg_max_phones
  /// AND tasks <= vcg_max_tasks.
  int vcg_max_phones = 12;
  int vcg_max_tasks = 12;

  /// Deep-probe sampling: 1-in-N rounds get per-winner counterfactual
  /// probes; 0 disables deep probes (cheap invariants still run on every
  /// round). The sampler hashes (round id XOR probe_seed), so the sampled
  /// set is a pure function of the stream, never of wall time.
  std::int64_t probe_every = 16;
  std::uint64_t probe_seed = 0;

  /// Mechanism knobs the counterfactual probes replay under; must match
  /// the engine's ServeConfig::greedy for the payment == critical-value
  /// check to be meaningful (ServeConfig::validate rejects a mismatch).
  auction::OnlineGreedyConfig greedy;

  /// Destination for "econ_violation" records (non-owning; must be
  /// thread-safe and outlive the plane). nullptr = no event records.
  obs::EventLog* events = nullptr;
};

/// Whether a given round id is deep-probed under this sampling config
/// (exposed so tests and docs can predict the sampled set).
[[nodiscard]] bool econ_probe_sampled(std::int64_t round,
                                      std::int64_t probe_every,
                                      std::uint64_t probe_seed);

/// One shard's share of an econ snapshot window.
struct EconShardWindow {
  int shard{0};
  obs::EconWindowStats window;
};

/// One published econ snapshot: per-shard windows, their engine-wide
/// window aggregate, and the cumulative-since-attach totals. All times are
/// uptime-relative nanoseconds.
struct EconSnapshot {
  std::int64_t window{0};
  std::uint64_t at_ns{0};
  /// healthy, or degraded-economics once any violation was ever observed.
  obs::HealthState state{obs::HealthState::kHealthy};
  obs::EconWindowStats total;       ///< deltas summed across shards
  obs::EconCumulative cumulative;   ///< merged cumulative totals
  std::vector<EconShardWindow> shards;
};

class EconTelemetry {
 public:
  explicit EconTelemetry(EconTelemetryConfig config = {});
  EconTelemetry(const EconTelemetry&) = delete;
  EconTelemetry& operator=(const EconTelemetry&) = delete;

  /// Binds to one engine run; discards any previous run's data.
  void attach(int shards);

  [[nodiscard]] int shards() const { return static_cast<int>(slots_.size()); }
  [[nodiscard]] const EconTelemetryConfig& config() const { return config_; }

  /// Audits one closed round. Called by the shard worker after the round
  /// machine reported done and before it is erased; `machine` gives the
  /// captured reconstruction, `result` the materialized outcome. Never
  /// throws on malformed rounds -- they are counted as skipped.
  /// Registry-plane effect: exactly one "econ.violations" count per
  /// violation found, nothing else. Returns the number of violations this
  /// round tripped (0 for clean or skipped rounds) -- the trace plane's
  /// tail sampler retains every round with a non-zero verdict.
  std::int64_t observe_round(int shard, RoundMachine& machine,
                             const RoundOutcome& result);

  /// Rolls one econ window per shard and aggregates. Serialized
  /// internally against concurrent publishers.
  [[nodiscard]] EconSnapshot take_snapshot();

  /// Total sentinel violations observed since attach.
  [[nodiscard]] std::int64_t violations() const;

 private:
  /// Written by shard workers (observe_round), read by the snapshot
  /// thread. Money totals are exact micro counters.
  struct ShardSlot {
    std::atomic<std::int64_t> rounds{0};
    std::atomic<std::int64_t> rounds_skipped{0};
    std::atomic<std::int64_t> tasks{0};
    std::atomic<std::int64_t> tasks_allocated{0};
    std::atomic<std::int64_t> winners{0};
    std::atomic<std::int64_t> payment_micros{0};
    std::atomic<std::int64_t> claimed_cost_micros{0};
    std::atomic<std::int64_t> second_price_payment_micros{0};
    std::atomic<std::int64_t> vcg_payment_micros{0};
    std::atomic<std::int64_t> vcg_rounds{0};
    std::atomic<std::int64_t> probe_rounds{0};
    std::atomic<std::int64_t> probe_checks{0};
    std::atomic<std::int64_t> violations{0};
    obs::LatencySketch fairness;     ///< per-round Jain, micro-ratio units
    obs::LatencySketch overpayment;  ///< per-round sigma, micro-ratio units
  };

  [[nodiscard]] std::uint64_t now_ns();
  [[nodiscard]] obs::EconCumulative sample_shard(ShardSlot& slot,
                                                 std::uint64_t at_ns);
  void report_violation(int shard, std::int64_t round, std::string_view kind,
                        std::int32_t phone, Money observed, Money expected);

  EconTelemetryConfig config_;
  obs::MonotonicClock* clock_;
  std::uint64_t start_ns_{0};
  std::vector<std::unique_ptr<ShardSlot>> slots_;
  std::mutex snapshot_mutex_;  ///< guards aggregators_ + next_window_
  std::vector<obs::EconWindowAggregator> aggregators_;
  std::int64_t next_window_{0};
};

/// One "mcs.serve_econ.v1" JSONL line (newline-terminated). Money travels
/// as exact decimal strings; ratio quantiles of an empty window render as
/// null.
void write_econ_snapshot(std::ostream& os, const EconSnapshot& snapshot);

/// Prometheus text rendering (gauges named serve.econ.* -> mcs_serve_econ_*).
void render_econ_prometheus(std::ostream& os, const EconSnapshot& snapshot);

}  // namespace mcs::serve
