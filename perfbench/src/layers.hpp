// The traced run: a per-layer breakdown of the serve pipeline, timed from
// the benchmark's own code around the calls into each layer's public
// functions (nothing inside src/ is instrumented).
#pragma once

#include <cstdint>

#include "measure.hpp"
#include "workload.hpp"

namespace perfbench {

/// Lowest accepted trace.coverage: the timed layer calls must account for
/// at least this share of the traced single-thread wall time, the rest
/// being the benchmark's own loop.
inline constexpr double kMinTraceCoverage = 0.90;

/// Replays the workload's stream on one thread -- decode, RoundMachine,
/// the plane hooks, the auction reference runs and the batch oracle --
/// then times the engine handoff (submit / ShardBatcher and drain) on the
/// same decoded events. Passes alternate with the same replay untraced
/// until `seconds` have passed; the result carries the per-layer metrics.
[[nodiscard]] RunResult run_traced(const WorkloadSpec& spec,
                                   std::uint64_t seed, double seconds);

}  // namespace perfbench
