// The benchmark's named workloads and the event streams they send.
//
// Every workload is built from a seed alone: each round is drawn by
// serve::loadgen_scenario and linearized by serve::round_events, then the
// rounds are interleaved slot by slot with a fixed number in flight and
// encoded as mcs.serve.b1 frames. The program under test receives only the
// encoded bytes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "model/scenario.hpp"
#include "serve/event.hpp"
#include "serve/loadgen.hpp"
#include "serve/wire.hpp"

namespace perfbench {

/// Every workload serves on two shards with kBlock admission: the
/// producer thread plus two workers fit in four cores.
inline constexpr int kShards = 2;
/// Every workload hands events over in ShardBatcher batches of this size.
inline constexpr std::size_t kBatch = 64;

struct WorkloadSpec {
  std::string_view name;
  std::int32_t slots{0};
  double lambda{0.0};    ///< phones per slot
  double lambda_t{0.0};  ///< tasks per slot
  int in_flight{1};      ///< rounds interleaved at once
  bool planes{false};    ///< registry + live + econ + trace planes on
  std::int64_t rounds{0};  ///< rounds in one repetition of the stream
};

/// The named workloads, in BENCHMARK.json order.
[[nodiscard]] const std::vector<WorkloadSpec>& workloads();

/// Looks a workload up by name; throws std::invalid_argument if unknown.
[[nodiscard]] const WorkloadSpec& find_workload(std::string_view name);

/// The loadgen configuration that regenerates round k of a workload; the
/// batch oracle uses it to rebuild each scenario.
[[nodiscard]] mcs::serve::LoadGenConfig loadgen_config(
    const WorkloadSpec& spec, std::uint64_t seed);

/// Per-round inputs, in round order.
struct RoundInputs {
  std::vector<mcs::model::Scenario> scenarios;
  std::vector<mcs::model::BidProfile> bids;
  std::vector<std::vector<mcs::serve::ServeEvent>> events;
};

[[nodiscard]] RoundInputs generate_rounds(const WorkloadSpec& spec,
                                          std::uint64_t seed);

/// Interleaves whole-round event lists slot by slot: `in_flight` rounds
/// take turns, each emitting the events of its next slot (round_open rides
/// with slot 1, round_close with the last slot); a finished round hands its
/// turn to the next unopened round. Each round keeps its own event order.
[[nodiscard]] std::vector<mcs::serve::ServeEvent> interleave(
    const std::vector<std::vector<mcs::serve::ServeEvent>>& rounds,
    int in_flight);

/// Encodes a stream, header included.
[[nodiscard]] std::string encode_stream(
    const std::vector<mcs::serve::ServeEvent>& events,
    mcs::serve::WireFormat codec);

/// Decodes an encoded stream one event per next() call, through the
/// public per-event decoders (decode_wire_frame / decode_serve_line), so a
/// caller can time each decode on its own.
class StreamReader {
 public:
  /// Consumes the stream header. Throws mcs::InvalidArgumentError on a
  /// malformed header.
  StreamReader(std::string_view bytes, mcs::serve::WireFormat codec);

  /// The next event, or nullopt at the end of the stream. Throws
  /// mcs::InvalidArgumentError on malformed bytes.
  [[nodiscard]] std::optional<mcs::serve::ServeEvent> next();

  [[nodiscard]] bool at_end() const { return pos_ >= bytes_.size(); }

 private:
  std::string_view bytes_;
  mcs::serve::WireFormat codec_;
  std::size_t pos_{0};
};

}  // namespace perfbench
