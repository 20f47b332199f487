// Arena orchestration: the (mechanism x policy mix) grid at population
// scale.
//
// run_arena evaluates every cell of the grid over the same seeded round
// stream plus one shared offline-VCG-on-truthful reference pass, fanning
// (cell, round) work items over worker threads. Determinism contract: the
// result -- and the leaderboard bytes rendered from it -- is identical at
// 1 and N threads, because
//  * every work item is a pure function of (config, cell, round): scenario
//    generation, policy assignment, and probe sampling are all derived by
//    hashing/forking the arena seed, never from shared mutable state;
//  * per-round results land in preallocated slots indexed by round and are
//    folded sequentially in round order after the join (exact Money
//    arithmetic commutes; double folds do not, so their order is pinned);
//  * metrics registries are worker-local and merged in worker order after
//    the join (counter merges are sums, which commute).
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "arena/match.hpp"

namespace mcs::arena {

/// Full arena specification: the grid plus the shared match knobs.
struct ArenaConfig {
  MatchConfig match;
  std::int64_t rounds{400};
  /// Worker threads for the (cell, round) fan-out; 0 = hardware
  /// concurrency, 1 = serial. Any value yields identical results.
  int threads{1};
  /// Mechanism specs (see make_arena_mechanism).
  std::vector<std::string> mechanisms;
  /// Policy-mix specs (see PolicyMix::parse).
  std::vector<std::string> mixes;
};

struct ArenaResult {
  std::uint64_t seed{0};
  std::int64_t rounds{0};
  std::int64_t probes_per_policy{0};
  model::WorkloadConfig workload;
  Money vcg_reference_payment;  ///< offline VCG on truthful bids, all rounds
  std::vector<CellResult> cells;  ///< grid order: mechanisms x mixes
};

/// Builds the mechanism an arena spec names:
///   online           Algorithm 1 + 2 (config.match.greedy)
///   offline          offline VCG
///   second-price     the per-slot second-price baseline (not truthful)
///   posted(P)        posted price P (money units)
/// Throws InvalidArgumentError on an unknown spec.
[[nodiscard]] std::unique_ptr<auction::Mechanism> make_arena_mechanism(
    std::string_view spec, const MatchConfig& match);

/// Runs the full grid. Throws InvalidArgumentError on empty grids or bad
/// specs; validates the workload up front.
[[nodiscard]] ArenaResult run_arena(const ArenaConfig& config);

}  // namespace mcs::arena
