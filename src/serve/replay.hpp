// Replaying a recorded serve stream (either wire format) through the
// engine: read_serve_stream (the one StreamDecoder, see serve/wire.hpp)
// plus a ShardBatcher as the submit front, sized by the engine's
// batch_size (1 submits event by event).
//
// The stream is untrusted bytes. A corrupt stream produces a clean
// InvalidArgumentError naming the line (JSONL) or byte offset (binary) --
// never UB. Admission rejections (kReject policy under load) are counted,
// not fatal: shedding is the policy working as configured.
#pragma once

#include <cstdint>
#include <iosfwd>

#include "serve/engine.hpp"

namespace mcs::serve {

struct ReplayStats {
  std::int64_t events{0};    ///< events decoded
  std::int64_t accepted{0};  ///< events the engine admitted
  std::int64_t shed{0};      ///< events rejected by admission control
};

/// Feeds every event of `is` into `engine` (the caller drains
/// afterwards). With a batch_size above 1, shed accounting has batch
/// granularity. Throws InvalidArgumentError on malformed input or when
/// the engine is shut down.
ReplayStats replay_event_stream(std::istream& is, ServeEngine& engine);

}  // namespace mcs::serve
