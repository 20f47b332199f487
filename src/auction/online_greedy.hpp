// The online near-optimal truthful mechanism (paper Section V).
//
// Allocation (Algorithm 1): at the start of each slot t, the platform adds
// newly arrived bids to the dynamic pool, drops departed ones, and assigns
// the slot's r_t tasks to the r_t active unallocated bids with the lowest
// claimed costs (ties broken by phone id -- a fixed deterministic order is
// required for the monotonicity of Definition 10). This greedy rule is
// 1/2-competitive in social welfare against the offline optimum (Theorem 6).
//
// Payment (Algorithm 2): a winner i that won in slot t'_i is paid the
// *critical value* -- the highest claimed cost among per-slot winners in
// slots [t'_i, d~_i] of a counterfactual run without B_i (and never below
// b_i). Payment at the critical value plus monotone allocation yields
// truthfulness (Theorem 4) and individual rationality (Theorem 5).
//
// Two paper-silent corner cases are governed by OnlineGreedyConfig and
// documented in DESIGN.md Section 5:
//  * scarcity: if, without i, some task in [t'_i, d~_i] would go unserved,
//    i's critical value is unbounded; the payment then includes the task
//    value nu (kCapAtValue) or falls back to b_i (kOwnBid).
//  * profitability: Algorithm 1 as printed allocates even when b_i > nu;
//    allocate_only_profitable = true skips such bids.
//
// Both rules are implemented once, in auction::GreedyRound
// (auction/greedy_round.hpp); this header holds the configuration and the
// batch entry points built on it.
#pragma once

#include <optional>
#include <vector>

#include "auction/mechanism.hpp"

namespace mcs::auction {

struct OnlineGreedyConfig {
  /// Skip bids whose claimed cost exceeds the task value (off = faithful to
  /// the paper's Algorithm 1, which allocates unconditionally).
  bool allocate_only_profitable = false;

  /// Platform reserve price: bids claiming more than this can never win.
  /// A set reserve bounds every critical value by the reserve, so the
  /// mechanism stays *exactly* truthful even under supply scarcity (a
  /// scarce winner is paid the reserve -- its true threshold). Unset =
  /// paper-faithful (no reserve). Composes with allocate_only_profitable
  /// (per-task eligibility then requires b <= min(reserve, task value)).
  std::optional<Money> reserve_price;

  /// Payment contribution for slots where, without the winner, a task would
  /// have gone unallocated (critical value unbounded).
  enum class ScarcePayment {
    kCapAtValue,  ///< pay at least nu (keeps IR whenever c_i <= nu)
    kOwnBid,      ///< pay only the claimed cost for such slots
  };
  ScarcePayment scarce_payment = ScarcePayment::kCapAtValue;

  friend bool operator==(const OnlineGreedyConfig&,
                         const OnlineGreedyConfig&) = default;
};

/// Per-slot record of one greedy run (introspection for tests, examples,
/// and the Fig. 4 walkthrough bench).
struct GreedySlotRecord {
  Slot slot{0};
  /// Active unallocated bids at the start of the slot, sorted by
  /// (claimed cost, id) -- the "dynamic pool" of Fig. 4.
  std::vector<PhoneId> pool;
  /// Winners this slot in allocation order (cheapest first).
  std::vector<PhoneId> winners;
  /// Tasks of this slot left unserved (pool ran dry, or -- under
  /// allocate_only_profitable -- no remaining bid at or below the task's
  /// value). With weighted tasks the highest-value tasks are served first,
  /// so the unserved ones are the least valuable of the slot.
  std::vector<TaskId> unserved;
  /// Convenience: unserved.size().
  int unallocated_tasks{0};
};

/// Result of running Algorithm 1 alone (no payments).
struct GreedyRun {
  Allocation allocation;
  std::vector<GreedySlotRecord> slots;  ///< index t-1 describes slot t
};

/// Runs Algorithm 1 on `bids`, optionally pretending phone `exclude` never
/// bid (the counterfactual run of Algorithm 2), stopping after `last_slot`
/// (0 = the full round). Exposed publicly because the second-price
/// baseline, the analyses, and several tests build on it. A thin driver
/// over auction::GreedyRound (auction/greedy_round.hpp).
[[nodiscard]] GreedyRun run_greedy_allocation(
    const model::Scenario& scenario, const model::BidProfile& bids,
    const OnlineGreedyConfig& config = {},
    std::optional<PhoneId> exclude = std::nullopt,
    Slot::rep_type last_slot = 0);

class OnlineGreedyMechanism final : public Mechanism {
 public:
  OnlineGreedyMechanism() = default;
  explicit OnlineGreedyMechanism(OnlineGreedyConfig config) : config_(config) {}

  [[nodiscard]] Outcome run(const model::Scenario& scenario,
                            const model::BidProfile& bids) const override;

  [[nodiscard]] std::string name() const override { return "online-greedy"; }

  [[nodiscard]] const OnlineGreedyConfig& config() const { return config_; }

 private:
  OnlineGreedyConfig config_;
};

}  // namespace mcs::auction
