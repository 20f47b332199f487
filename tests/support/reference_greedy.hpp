// Tests-side oracle for the online mechanism (paper Section V).
//
// Algorithm 1 from scratch -- every slot rescans all bids and sorts the
// active, unallocated ones -- and Algorithm 2 by a full re-run from slot 1
// without each winner. It is built on model types only and shares no code
// with auction::GreedyRound, so the equivalence suites compare the kernel
// (and both paths built on it: the batch mechanism and the serve
// RoundMachine) against an independent reading of the paper.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "auction/online_greedy.hpp"
#include "auction/outcome.hpp"
#include "common/money.hpp"
#include "model/scenario.hpp"

namespace mcs::test_support {

/// One slot of the reference Algorithm 1.
struct ReferenceSlot {
  std::vector<std::pair<int, int>> assigned;  ///< (task, phone)
  std::vector<int> unserved;                  ///< task ids
};

struct ReferenceRun {
  std::vector<int> task_winner;      ///< phone per task, -1 = unserved
  std::vector<ReferenceSlot> slots;  ///< index t-1 describes slot t
};

/// Algorithm 1 without `exclude`'s bid (-1 = nobody), through `last_slot`
/// (0 = the whole round).
[[nodiscard]] ReferenceRun reference_allocation(
    const model::Scenario& scenario, const model::BidProfile& bids,
    const auction::OnlineGreedyConfig& config, int exclude = -1,
    Slot::rep_type last_slot = 0);

struct ReferenceOutcome {
  std::vector<int> task_winner;  ///< phone per task, -1 = unserved
  std::vector<Money> payments;   ///< per phone
};

/// Algorithms 1 and 2: every winner is paid the highest winning bid among
/// slots [t'_i, d~_i] of the run without it (never below its own bid),
/// and at least the scarcity cap when that run leaves a task unserved.
[[nodiscard]] ReferenceOutcome reference_online_greedy(
    const model::Scenario& scenario, const model::BidProfile& bids,
    const auction::OnlineGreedyConfig& config);

/// Expects `outcome` to match the reference task for task and Money for
/// Money; `label` names the case in failure messages.
void expect_matches_reference(const auction::Outcome& outcome,
                              const ReferenceOutcome& reference,
                              const std::string& label);

/// Every configuration corner the payment rule branches on.
[[nodiscard]] std::vector<std::pair<std::string, auction::OnlineGreedyConfig>>
config_families();

}  // namespace mcs::test_support
