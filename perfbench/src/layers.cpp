#include "layers.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <exception>
#include <iostream>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "auction/online_greedy.hpp"
#include "common/error.hpp"
#include "serve/econ_telemetry.hpp"
#include "serve/round_machine.hpp"
#include "serve/telemetry.hpp"
#include "serve/trace_plane.hpp"
#include "serve/verify.hpp"

namespace perfbench {

using mcs::serve::RoundOutcome;
using mcs::serve::ServeEvent;
using mcs::serve::ServeEventKind;
using mcs::serve::WireFormat;

namespace {

/// Each timed call lands in exactly one layer; the layers never nest, so a
/// layer's self time is the sum of its call durations.
enum Layer : int {
  kWireDecode,
  kEventDecode,
  kSubmit,
  kDrainTail,
  kRoundOpen,
  kTaskArrived,
  kBidSubmitted,
  kSlotTick,
  kRoundClose,
  kGreedyAllocation,
  kOnlineGreedy,
  kEconObserve,
  kTraceHooks,
  kLiveHooks,
  kVerify,
  kLayerCount,
};

struct LayerStat {
  std::int64_t calls{0};
  std::uint64_t ns{0};
};

/// Everything the traced passes accumulate.
struct Trace {
  std::array<LayerStat, kLayerCount> layers{};
  std::vector<double> tick_us;  ///< one sample per slot_tick
  std::vector<double> econ_us;  ///< one sample per observe_round
  LayerStat departure_ticks;    ///< ticks in which Algorithm 2 ran
  LayerStat quiet_ticks;        ///< ticks with no winner departing
  std::int64_t queue_high_watermark{0};
  std::uint64_t wall_ns{0};
};

/// Times calls into a layer when kTraced; compiles to nothing otherwise,
/// which gives the untraced replay that trace.overhead compares against.
template <bool kTraced>
class Recorder {
 public:
  explicit Recorder(Trace* trace) : trace_(trace) {}

  [[nodiscard]] std::uint64_t start() const {
    if constexpr (kTraced) return now_ns();
    return 0;
  }

  /// Closes one call into `layer` and returns its duration (0 untraced).
  std::uint64_t stop(Layer layer, std::uint64_t start) {
    if constexpr (kTraced) {
      const std::uint64_t ns = now_ns() - start;
      LayerStat& stat = trace_->layers[layer];
      ++stat.calls;
      stat.ns += ns;
      return ns;
    }
    return 0;
  }

  /// Adds time to the last call into `layer` without counting a new call.
  void extend(Layer layer, std::uint64_t start) {
    if constexpr (kTraced) trace_->layers[layer].ns += now_ns() - start;
  }

  [[nodiscard]] Trace& trace() { return *trace_; }

 private:
  Trace* trace_;
};

Layer machine_layer(ServeEventKind kind) {
  switch (kind) {
    case ServeEventKind::kRoundOpen:
      return kRoundOpen;
    case ServeEventKind::kTaskArrived:
      return kTaskArrived;
    case ServeEventKind::kBidSubmitted:
      return kBidSubmitted;
    case ServeEventKind::kSlotTick:
      return kSlotTick;
    case ServeEventKind::kRoundClose:
      return kRoundClose;
  }
  return kRoundClose;
}

/// The workload's stream in both codecs plus the per-round inputs the
/// auction reference runs need.
struct Inputs {
  const WorkloadSpec* spec{nullptr};
  std::uint64_t seed{0};
  RoundInputs rounds;
  std::int64_t events{0};
  std::string wire_bytes;   ///< mcs.serve.b1, what the workload sends
  std::string jsonl_bytes;  ///< the same stream as mcs.serve.v1 JSONL
};

/// One open round of the single-thread replay.
struct OpenRound {
  OpenRound(const ServeEvent& open, const mcs::auction::OnlineGreedyConfig& greedy)
      : machine(open, greedy, /*capture=*/true),
        tick_ns(static_cast<std::size_t>(open.num_slots), 0) {}

  mcs::serve::RoundMachine machine;
  std::vector<std::uint64_t> tick_ns;    ///< index = slot - 1
  std::vector<std::int32_t> departure;   ///< index = agent; reported d~
};

/// Splits a closed round's tick time by whether a winner's reported
/// departure fell in the tick, i.e. whether Algorithm 2 paid someone there.
void classify_ticks(const OpenRound& round, const RoundOutcome& outcome,
                    Trace& trace) {
  std::vector<bool> departs(round.tick_ns.size(), false);
  for (const mcs::PhoneId winner : outcome.outcome.allocation.winners()) {
    const auto agent = static_cast<std::size_t>(winner.value());
    if (agent < round.departure.size() && round.departure[agent] >= 1) {
      departs[static_cast<std::size_t>(round.departure[agent] - 1)] = true;
    }
  }
  for (std::size_t s = 0; s < departs.size(); ++s) {
    LayerStat& stat = departs[s] ? trace.departure_ticks : trace.quiet_ticks;
    ++stat.calls;
    stat.ns += round.tick_ns[s];
  }
}

/// One pass over the stream; returns its wall time in ns. Every round of
/// the replay and of the engine handoff goes through the correctness gate.
template <bool kTraced>
std::uint64_t replay_pass(const Inputs& in, Recorder<kTraced>& rec,
                          RunResult& result) {
  const WorkloadSpec& spec = *in.spec;
  const mcs::serve::ServeConfig config = serve_config();

  // The replay drives every plane's hooks on every workload, as one shard.
  mcs::serve::LiveTelemetry live;
  live.attach(1, static_cast<std::int64_t>(config.queue_capacity));
  mcs::serve::EconTelemetry econ(econ_config());
  econ.attach(1);
  mcs::serve::TracePlane trace;
  trace.attach(1);
  Harness harness(spec);

  std::vector<ServeEvent> decoded;
  decoded.reserve(static_cast<std::size_t>(in.events));
  std::vector<RoundOutcome> outcomes;
  outcomes.reserve(static_cast<std::size_t>(spec.rounds));
  std::unordered_map<std::int64_t, OpenRound> open;
  std::int64_t jsonl_events = 0;
  std::int64_t violations = 0;
  std::string error;
  std::string drain_error;
  mcs::serve::VerifyReport report;

  const std::uint64_t pass_start = now_ns();
  try {
    // The JSONL rendering on its own: prices this traffic in that codec.
    StreamReader jsonl(in.jsonl_bytes, WireFormat::kJsonl);
    while (!jsonl.at_end()) {
      const std::uint64_t t = rec.start();
      const std::optional<ServeEvent> event = jsonl.next();
      rec.stop(kEventDecode, t);
      jsonl_events += event ? 1 : 0;
    }

    StreamReader reader(in.wire_bytes, WireFormat::kBinary);
    while (!reader.at_end()) {
      std::uint64_t t = rec.start();
      const std::optional<ServeEvent> next = reader.next();
      rec.stop(kWireDecode, t);
      const ServeEvent& event = decoded.emplace_back(*next);

      t = rec.start();
      const std::uint64_t enqueued = live.now_ns();
      live.on_submit(0, 1, 0);
      live.on_process(0, live.now_ns() - enqueued, 0);
      rec.stop(kLiveHooks, t);
      t = rec.start();
      trace.on_event(0, 0, event.client_lag_ns);
      rec.stop(kTraceHooks, t);

      if (event.kind == ServeEventKind::kRoundOpen) {
        t = rec.start();
        const bool opened = open.try_emplace(event.round, event, config.greedy).second;
        rec.stop(kRoundOpen, t);
        if (!opened) throw mcs::InvalidArgumentError("duplicate round_open");
        t = rec.start();
        const std::uint64_t at = trace.now_ns();
        trace.on_round_open(0, event.round, at, at, event.client_lag_ns);
        rec.stop(kTraceHooks, t);
        continue;
      }

      // Like the engine's worker: find the round, apply, and on close take
      // the outcome.
      t = rec.start();
      const auto it = open.find(event.round);
      if (it == open.end()) {
        throw mcs::InvalidArgumentError("event for a round never opened");
      }
      OpenRound& round = it->second;
      const bool done = round.machine.apply(event);
      std::optional<RoundOutcome> outcome;
      if (done) outcome = round.machine.take_outcome();
      const std::uint64_t ns = rec.stop(machine_layer(event.kind), t);

      if (event.kind == ServeEventKind::kBidSubmitted) {
        const auto agent = static_cast<std::size_t>(event.agent.value());
        if (agent >= round.departure.size()) round.departure.resize(agent + 1, 0);
        round.departure[agent] = event.window.end().value();
      } else if (event.kind == ServeEventKind::kSlotTick) {
        round.tick_ns[static_cast<std::size_t>(event.slot.value() - 1)] = ns;
        if constexpr (kTraced) rec.trace().tick_us.push_back(static_cast<double>(ns) / 1e3);
        t = rec.start();
        const std::uint64_t at = trace.now_ns();
        trace.on_slot_tick(0, event.round,
                           static_cast<std::int32_t>(event.slot.value()), at, at);
        rec.stop(kTraceHooks, t);
      }
      if (!done) continue;

      t = rec.start();
      const std::int64_t found = econ.observe_round(0, round.machine, *outcome);
      const std::uint64_t econ_ns = rec.stop(kEconObserve, t);
      if constexpr (kTraced) rec.trace().econ_us.push_back(static_cast<double>(econ_ns) / 1e3);
      violations += found;
      t = rec.start();
      live.on_round_close(0, 0);
      rec.stop(kLiveHooks, t);
      t = rec.start();
      const std::uint64_t at = trace.now_ns();
      trace.on_round_complete(0, event.round, at, at, at, found);
      rec.stop(kTraceHooks, t);

      // Algorithm 1 alone, then Algorithms 1+2, on the same round.
      const auto r = static_cast<std::size_t>(event.round);
      t = rec.start();
      (void)mcs::auction::run_greedy_allocation(in.rounds.scenarios[r],
                                                in.rounds.bids[r], config.greedy);
      rec.stop(kGreedyAllocation, t);
      t = rec.start();
      (void)mcs::auction::OnlineGreedyMechanism(config.greedy)
          .run(in.rounds.scenarios[r], in.rounds.bids[r]);
      rec.stop(kOnlineGreedy, t);

      if constexpr (kTraced) classify_ticks(round, *outcome, rec.trace());
      outcomes.push_back(std::move(*outcome));
      t = rec.start();
      open.erase(it);
      rec.extend(kRoundClose, t);
    }

    std::uint64_t t = rec.start();
    report = mcs::serve::verify_against_batch(loadgen_config(spec, in.seed),
                                              outcomes, config.greedy);
    rec.stop(kVerify, t);

    // The engine handoff, fed the events decoded above.
    for (const ServeEvent& event : decoded) {
      t = rec.start();
      (void)harness.submit(event);
      rec.stop(kSubmit, t);
    }
    t = rec.start();
    (void)harness.flush();
    rec.stop(kSubmit, t);
    t = rec.start();
    drain_error = harness.drain();
    rec.stop(kDrainTail, t);
  } catch (const std::exception& e) {
    error = e.what();
  }
  const std::uint64_t wall_ns = now_ns() - pass_start;
  harness.stop_planes();

  // Correctness gate, outside the timed pass: the replay first...
  result.attempted += spec.rounds;
  std::sort(outcomes.begin(), outcomes.end(),
            [](const RoundOutcome& a, const RoundOutcome& b) {
              return a.round < b.round;
            });
  if (!error.empty()) {
    result.fail(2 * spec.rounds, "traced replay: " + error);
    result.attempted += spec.rounds;
    return wall_ns;
  }
  if (jsonl_events != in.events ||
      static_cast<std::int64_t>(decoded.size()) != in.events) {
    result.fail(spec.rounds, "traced replay: codecs decoded different streams");
  }
  const std::int64_t missing =
      spec.rounds - static_cast<std::int64_t>(outcomes.size());
  const std::int64_t bad = missing + report.rounds_diverged + violations;
  if (bad > 0) {
    result.fail(std::min(bad, spec.rounds),
                "traced replay: " +
                    (report.first_diff.empty() ? std::string("incomplete or econ violation")
                                               : report.first_diff));
  }
  // ...then the engine, against the verified replay outcomes.
  (void)check_engine(spec, in.seed, harness,
                     static_cast<std::int64_t>(decoded.size()), drain_error,
                     &outcomes, result);
  if constexpr (kTraced) {
    if (drain_error.empty()) {
      rec.trace().queue_high_watermark =
          std::max(rec.trace().queue_high_watermark,
                   harness.engine().stats().queue_high_watermark);
    }
  }
  return wall_ns;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

}  // namespace

RunResult run_traced(const WorkloadSpec& spec, std::uint64_t seed,
                     double seconds) {
  RunResult result;
  Inputs in;
  in.spec = &spec;
  in.seed = seed;
  const std::uint64_t loadgen_start = now_ns();
  in.rounds = generate_rounds(spec, seed);
  const double loadgen_s = static_cast<double>(now_ns() - loadgen_start) / 1e9;
  {
    const std::vector<ServeEvent> stream =
        interleave(in.rounds.events, spec.in_flight);
    in.events = static_cast<std::int64_t>(stream.size());
    in.wire_bytes = encode_stream(stream, WireFormat::kBinary);
    in.jsonl_bytes = encode_stream(stream, WireFormat::kJsonl);
    in.rounds.events.clear();
  }

  Trace trace;
  std::uint64_t untraced_ns = 0;
  for (int pair = 0; pair < 1 || static_cast<double>(trace.wall_ns + untraced_ns) / 1e9 < seconds;
       ++pair) {
    Recorder<true> traced(&trace);
    Recorder<false> plain(nullptr);
    // Alternate which replay goes first, so drift favours neither.
    if (pair % 2 == 0) {
      untraced_ns += replay_pass(in, plain, result);
      trace.wall_ns += replay_pass(in, traced, result);
    } else {
      trace.wall_ns += replay_pass(in, traced, result);
      untraced_ns += replay_pass(in, plain, result);
    }
    std::cerr << "traced pair " << pair << ": traced "
              << static_cast<double>(trace.wall_ns) / 1e9 << " s, untraced "
              << static_cast<double>(untraced_ns) / 1e9 << " s (cumulative)\n";
  }

  std::uint64_t covered_ns = 0;
  for (const LayerStat& stat : trace.layers) covered_ns += stat.ns;
  const auto busy = [](const LayerStat& stat) {
    return static_cast<double>(stat.ns) / 1e9;
  };
  const auto calls = [](const LayerStat& stat) {
    return static_cast<double>(stat.calls);
  };
  const auto& L = trace.layers;
  const double coverage =
      static_cast<double>(covered_ns) / static_cast<double>(trace.wall_ns);
  if (!(coverage >= kMinTraceCoverage && coverage <= 1.0)) {
    result.fail(0, "trace.coverage " + std::to_string(coverage) +
                       " outside [" + std::to_string(kMinTraceCoverage) + ", 1]");
  }

  result.metrics = {
      {"serve.loadgen.calls", static_cast<double>(spec.rounds), "count"},
      {"serve.loadgen.busy_s", loadgen_s, "s"},
      {"serve.wire.decode.calls", calls(L[kWireDecode]), "count"},
      {"serve.wire.decode.busy_s", busy(L[kWireDecode]), "s"},
      {"serve.event.decode.calls", calls(L[kEventDecode]), "count"},
      {"serve.event.decode.busy_s", busy(L[kEventDecode]), "s"},
      {"serve.engine.submit.calls", calls(L[kSubmit]), "count"},
      {"serve.engine.submit.busy_s", busy(L[kSubmit]), "s"},
      {"serve.engine.drain_tail_s", busy(L[kDrainTail]), "s"},
      {"serve.engine.queue_high_watermark",
       static_cast<double>(trace.queue_high_watermark), "events"},
      {"serve.round_machine.round_open.calls", calls(L[kRoundOpen]), "count"},
      {"serve.round_machine.round_open.busy_s", busy(L[kRoundOpen]), "s"},
      {"serve.round_machine.task_arrived.calls", calls(L[kTaskArrived]), "count"},
      {"serve.round_machine.task_arrived.busy_s", busy(L[kTaskArrived]), "s"},
      {"serve.round_machine.bid_submitted.calls", calls(L[kBidSubmitted]), "count"},
      {"serve.round_machine.bid_submitted.busy_s", busy(L[kBidSubmitted]), "s"},
      {"serve.round_machine.slot_tick.calls", calls(L[kSlotTick]), "count"},
      {"serve.round_machine.slot_tick.busy_s", busy(L[kSlotTick]), "s"},
      {"serve.round_machine.slot_tick.p50_us", quantile(trace.tick_us, 0.50), "us"},
      {"serve.round_machine.slot_tick.p99_us", quantile(trace.tick_us, 0.99), "us"},
      {"serve.round_machine.round_close.calls", calls(L[kRoundClose]), "count"},
      {"serve.round_machine.round_close.busy_s", busy(L[kRoundClose]), "s"},
      {"serve.round_machine.slot_tick_departures.calls",
       calls(trace.departure_ticks), "count"},
      {"serve.round_machine.slot_tick_departures.busy_s",
       busy(trace.departure_ticks), "s"},
      {"serve.round_machine.slot_tick_quiet.calls", calls(trace.quiet_ticks), "count"},
      {"serve.round_machine.slot_tick_quiet.busy_s", busy(trace.quiet_ticks), "s"},
      {"auction.greedy_allocation.calls", calls(L[kGreedyAllocation]), "count"},
      {"auction.greedy_allocation.busy_s", busy(L[kGreedyAllocation]), "s"},
      {"auction.online_greedy.calls", calls(L[kOnlineGreedy]), "count"},
      {"auction.online_greedy.busy_s", busy(L[kOnlineGreedy]), "s"},
      {"auction.payment_share",
       1.0 - busy(L[kGreedyAllocation]) / busy(L[kOnlineGreedy]), "ratio"},
      {"serve.econ_telemetry.observe_round.calls", calls(L[kEconObserve]), "count"},
      {"serve.econ_telemetry.observe_round.busy_s", busy(L[kEconObserve]), "s"},
      {"serve.econ_telemetry.observe_round.p99_us", quantile(trace.econ_us, 0.99), "us"},
      {"serve.trace_plane.hooks.calls", calls(L[kTraceHooks]), "count"},
      {"serve.trace_plane.hooks.busy_s", busy(L[kTraceHooks]), "s"},
      {"serve.telemetry.hooks.calls", calls(L[kLiveHooks]), "count"},
      {"serve.telemetry.hooks.busy_s", busy(L[kLiveHooks]), "s"},
      {"serve.verify.calls", calls(L[kVerify]), "count"},
      {"serve.verify.busy_s", busy(L[kVerify]), "s"},
      {"trace.coverage", coverage, "ratio"},
      {"trace.overhead",
       static_cast<double>(trace.wall_ns) / static_cast<double>(untraced_ns) - 1.0,
       "ratio"},
  };
  return result;
}

}  // namespace perfbench
