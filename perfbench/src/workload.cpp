#include "workload.hpp"

#include <algorithm>
#include <deque>
#include <sstream>
#include <stdexcept>

#include "common/error.hpp"

namespace perfbench {

using mcs::serve::ServeEvent;
using mcs::serve::ServeEventKind;
using mcs::serve::WireFormat;

const std::vector<WorkloadSpec>& workloads() {
  // Why each workload exists is recorded in BENCHMARK.json and README.md.
  // Round counts keep one repetition between about 20 ms and 0.6 s of
  // serving on a 4-core VM, so a run holds dozens of repetitions and its
  // median settles.
  static const std::vector<WorkloadSpec> table = {
      {.name = "large-rounds",
       .slots = 200,
       .lambda = 12.0,
       .lambda_t = 3.0,
       .in_flight = 8,
       .planes = false,
       .rounds = 32},
      {.name = "small-rounds",
       .slots = 8,
       .lambda = 2.0,
       .lambda_t = 1.5,
       .in_flight = 64,
       .planes = false,
       .rounds = 1024},
      {.name = "observed",
       .slots = 50,
       .lambda = 6.0,
       .lambda_t = 3.0,
       .in_flight = 16,
       .planes = true,
       .rounds = 128},
  };
  return table;
}

const WorkloadSpec& find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : workloads()) {
    if (spec.name == name) return spec;
  }
  throw std::invalid_argument("unknown workload: " + std::string(name));
}

mcs::serve::LoadGenConfig loadgen_config(const WorkloadSpec& spec,
                                         std::uint64_t seed) {
  mcs::serve::LoadGenConfig load;
  load.rounds = spec.rounds;
  load.seed = seed;
  load.workload.num_slots = spec.slots;
  load.workload.phone_arrival_rate = spec.lambda;
  load.workload.task_arrival_rate = spec.lambda_t;
  return load;
}

RoundInputs generate_rounds(const WorkloadSpec& spec, std::uint64_t seed) {
  const mcs::serve::LoadGenConfig load = loadgen_config(spec, seed);
  RoundInputs inputs;
  const auto rounds = static_cast<std::size_t>(spec.rounds);
  inputs.scenarios.reserve(rounds);
  inputs.bids.reserve(rounds);
  inputs.events.reserve(rounds);
  for (std::int64_t round = 0; round < spec.rounds; ++round) {
    mcs::model::Scenario scenario = mcs::serve::loadgen_scenario(load, round);
    mcs::model::BidProfile bids = scenario.truthful_bids();
    inputs.events.push_back(mcs::serve::round_events(round, scenario, bids));
    inputs.scenarios.push_back(std::move(scenario));
    inputs.bids.push_back(std::move(bids));
  }
  return inputs;
}

std::vector<ServeEvent> interleave(
    const std::vector<std::vector<ServeEvent>>& rounds, int in_flight) {
  struct Cursor {
    std::size_t round;
    std::size_t pos;
  };
  std::size_t total = 0;
  for (const auto& events : rounds) total += events.size();
  std::vector<ServeEvent> out;
  out.reserve(total);

  std::deque<Cursor> active;
  std::size_t next_round = 0;
  const auto width = static_cast<std::size_t>(std::max(in_flight, 1));
  while (next_round < rounds.size() && active.size() < width) {
    active.push_back({next_round++, 0});
  }
  while (!active.empty()) {
    Cursor cursor = active.front();
    active.pop_front();
    const std::vector<ServeEvent>& events = rounds[cursor.round];
    // One slot's worth: everything up to and including the next tick,
    // plus the round_close that follows the last tick.
    while (cursor.pos < events.size()) {
      const ServeEvent& event = events[cursor.pos++];
      out.push_back(event);
      if (event.kind == ServeEventKind::kSlotTick) {
        if (cursor.pos + 1 == events.size() &&
            events[cursor.pos].kind == ServeEventKind::kRoundClose) {
          out.push_back(events[cursor.pos++]);
        }
        break;
      }
    }
    if (cursor.pos < events.size()) {
      active.push_back(cursor);
    } else if (next_round < rounds.size()) {
      active.push_back({next_round++, 0});
    }
  }
  return out;
}

std::string encode_stream(const std::vector<ServeEvent>& events,
                          WireFormat codec) {
  std::string out;
  if (codec == WireFormat::kBinary) {
    out.reserve(8 + events.size() * 24);
    mcs::serve::append_wire_header(out);
    for (const ServeEvent& event : events) {
      mcs::serve::append_wire_frame(out, event);
    }
    return out;
  }
  out.reserve(32 + events.size() * 72);
  std::ostringstream header;
  mcs::serve::write_stream_header(header);
  out.append(header.str());
  for (const ServeEvent& event : events) {
    out.append(mcs::serve::encode_serve_event(event)).push_back('\n');
  }
  return out;
}

StreamReader::StreamReader(std::string_view bytes, WireFormat codec)
    : bytes_(bytes), codec_(codec) {
  if (codec_ == WireFormat::kBinary) {
    const std::optional<std::size_t> header =
        mcs::serve::decode_wire_header(bytes_);
    if (!header) throw mcs::InvalidArgumentError("perfbench: short b1 header");
    pos_ = *header;
    return;
  }
  const std::size_t end = bytes_.find('\n');
  if (end == std::string_view::npos ||
      mcs::serve::decode_serve_line(bytes_.substr(0, end))) {
    throw mcs::InvalidArgumentError("perfbench: JSONL stream lacks a header");
  }
  pos_ = end + 1;
}

std::optional<ServeEvent> StreamReader::next() {
  if (at_end()) return std::nullopt;
  if (codec_ == WireFormat::kBinary) {
    std::optional<mcs::serve::DecodedFrame> frame =
        mcs::serve::decode_wire_frame(bytes_.substr(pos_));
    if (!frame) throw mcs::InvalidArgumentError("perfbench: truncated frame");
    pos_ += frame->consumed;
    return frame->event;
  }
  std::size_t end = bytes_.find('\n', pos_);
  if (end == std::string_view::npos) end = bytes_.size();
  const std::string_view line = bytes_.substr(pos_, end - pos_);
  pos_ = end + 1;
  std::optional<ServeEvent> event = mcs::serve::decode_serve_line(line);
  if (!event) throw mcs::InvalidArgumentError("perfbench: stray header line");
  return event;
}

}  // namespace perfbench
