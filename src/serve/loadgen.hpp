// Seeded load generator: turns model::workload draws into serve streams.
//
// Each round is an independent Table-I-style draw from
// model::generate_scenario, seeded per round so any round can be
// regenerated in isolation (the streaming/batch equivalence oracle relies
// on exactly that: rebuild round k's scenario, run the batch mechanism,
// and compare against what the engine produced). The round's scenario and
// truthful bids are then linearized into the canonical event order --
// round_open, then per slot {task_arrived*, bid_submitted*, slot_tick},
// then round_close -- the order RoundMachine enforces.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <vector>

#include "model/scenario.hpp"
#include "model/workload.hpp"
#include "obs/wallclock.hpp"
#include "serve/event.hpp"

namespace mcs::serve {

struct LoadGenConfig {
  std::int64_t rounds = 4;
  std::uint64_t seed = 42;  ///< base seed; round k draws from (seed, k)
  model::WorkloadConfig workload;
};

/// Deterministically regenerates the scenario of one round.
[[nodiscard]] model::Scenario loadgen_scenario(const LoadGenConfig& config,
                                               std::int64_t round);

/// Linearizes one round (scenario + the bids actually submitted) into the
/// canonical event order described above.
[[nodiscard]] std::vector<ServeEvent> round_events(
    std::int64_t round, const model::Scenario& scenario,
    const model::BidProfile& bids);

/// Streams every event of every round, in round order, through `emit`.
/// Returns the number of events generated. `emit` returning false stops
/// generation early (e.g. a shedding engine that lost interest).
std::int64_t generate_events(
    const LoadGenConfig& config,
    const std::function<bool(const ServeEvent&)>& emit);

/// Writes the whole load as an mcs.serve.v1 JSONL stream (header line
/// first). Returns the number of events written (header excluded).
std::int64_t write_event_stream(std::ostream& os, const LoadGenConfig& config);

/// Writes the whole load as an mcs.serve.b1 binary stream (stream header
/// first). Returns the number of frames written (header excluded).
std::int64_t write_wire_stream(std::ostream& os, const LoadGenConfig& config);

// --------------------------------------------------- open-loop pacing mode

/// Open-loop pacing: event k has the deterministic send deadline
/// t0 + k / target_eps, independent of how the consumer keeps up -- the
/// producer sleeps when ahead of schedule and NEVER slows down when the
/// engine lags (that is what makes overload inducible; a closed loop would
/// just throttle itself). When the producer itself falls behind schedule
/// (e.g. a kBlock engine exerting backpressure through submit), the lag is
/// accounted instead of silently absorbed.
struct PaceConfig {
  /// Target offered load, events per second. Must be > 0.
  double target_eps = 0.0;
  /// Time source; nullptr = the process steady clock. Tests inject a
  /// FakeClock (with a no-op sleeper) for a fully deterministic run.
  obs::MonotonicClock* clock = nullptr;
  /// Sleep hook; nullptr = std::this_thread::sleep_for.
  std::function<void(std::uint64_t ns)> sleep_ns;
};

struct PaceReport {
  std::int64_t offered{0};   ///< events handed to `submit`
  std::int64_t accepted{0};  ///< submit returned true
  std::int64_t shed{0};      ///< submit returned false
  /// Events sent more than one inter-event gap behind their deadline --
  /// the producer could not hold target_eps (backpressure or overload).
  std::int64_t late_events{0};
  std::uint64_t max_lag_ns{0};   ///< worst observed schedule lag
  std::uint64_t duration_ns{0};  ///< first deadline to last send
};

/// Streams the whole load through `submit` at the paced schedule.
/// `submit` reports whether the event was accepted (admission control
/// shedding returns false); either way the schedule marches on. Events
/// sent behind schedule carry their lag in ServeEvent::client_lag_ns, so
/// a downstream trace plane renders client-side lateness as its own
/// ingest span.
PaceReport run_paced_load(
    const LoadGenConfig& config, const PaceConfig& pace,
    const std::function<bool(const ServeEvent&)>& submit);

}  // namespace mcs::serve
