// Competitive-ratio analysis (Theorem 6).
//
// The online greedy allocation is 1/2-competitive: for every input,
// omega_online / omega_offline >= 1/2 (welfare measured on the claimed
// costs the allocator sees; on truthful profiles that is the true social
// welfare). This module computes per-instance ratios, aggregates them over
// randomized workloads, and constructs the adversarial "flexible phone
// blocks rigid phone" family on which the bound is asymptotically tight --
// the empirical counterpart of the omitted proof.
#pragma once

#include <cstdint>
#include <vector>

#include "auction/online_greedy.hpp"
#include "common/stats.hpp"
#include "model/scenario.hpp"
#include "model/workload.hpp"

namespace mcs::analysis {

struct CompetitiveResult {
  Money online_welfare;   ///< claimed welfare of the greedy allocation
  Money offline_welfare;  ///< optimal claimed welfare (offline VCG)
  double ratio{1.0};      ///< online / offline; 1 when offline welfare is 0
};

/// Ratio on one instance and bid profile.
[[nodiscard]] CompetitiveResult competitive_ratio(
    const model::Scenario& scenario, const model::BidProfile& bids,
    const auction::OnlineGreedyConfig& config = {});

struct CompetitiveStudy {
  Summary ratios;              ///< distribution over instances
  std::size_t instances{0};
  std::size_t below_half{0};   ///< instances with ratio < 1/2 (expected: 0)

  [[nodiscard]] double min_ratio() const;
  [[nodiscard]] double mean_ratio() const;
};

/// Ratios over `repetitions` truthful instances drawn from the workload.
[[nodiscard]] CompetitiveStudy study_competitive_ratio(
    const model::WorkloadConfig& workload, int repetitions,
    std::uint64_t base_seed, const auction::OnlineGreedyConfig& config = {});

/// The near-tight family: `pairs` independent two-slot gadgets. In gadget
/// j (slots 2j-1, 2j; one task per slot), a flexible phone (both slots,
/// cost 1) and a rigid phone (first slot only, cost 2) compete. Greedy
/// takes the flexible phone first and serves one task per gadget; the
/// optimum serves both. With value nu the ratio is
/// (nu - 1) / (2 nu - 3) -> 1/2 from above as nu grows.
[[nodiscard]] model::Scenario tight_competitive_scenario(
    int pairs, std::int64_t task_value_units);

}  // namespace mcs::analysis
