// The offline optimal truthful mechanism (paper Section IV).
//
// Winning-bids determination: the optimal allocation is a maximum-weight
// matching on the task x phone graph of Fig. 3, where phone i may serve a
// task in its reported window with weight nu - b_i (Theorem 3). With one
// task value nu, the sets of phones that can be matched to distinct tasks
// form a transversal matroid and a phone's weight depends on the phone
// alone, so the optimum is the matroid greedy: take the phones with
// b_i <= nu in (claimed cost, phone id) order, and add each one when an
// augmenting path over the current phone -> task matching finds it a task.
// Phones with b_i = nu (weight 0) are kept.
//
// Payments are VCG (Eq. 7):
//
//    p_i = omega*(B) + b_i - omega*(B_{-i})   for winners,   0 for losers,
//
// where omega* is the optimal *claimed* welfare. By basis exchange,
// omega*(B_{-i}) = omega*(B) - (nu - b_i) + max(0, nu - b_j), where j is the
// cheapest non-winner that can replace i (an alternating path from j
// reaches i's task), so p_i = min(nu, b_j), or nu when no phone can replace
// i. One alternating-path pass over the non-winners in (cost, id) order
// finds every j. With the optimal allocation this is truthful in all three
// dimensions (Theorem 1) and individually rational (Theorem 2).
#pragma once

#include "auction/mechanism.hpp"

namespace mcs::auction {

class OfflineVcgMechanism final : public Mechanism {
 public:
  [[nodiscard]] Outcome run(const model::Scenario& scenario,
                            const model::BidProfile& bids) const override;

  [[nodiscard]] std::string name() const override { return "offline-vcg"; }

  /// Optimal claimed welfare omega*(B) of the instance -- the offline
  /// benchmark value used by the competitive-ratio analysis (Theorem 6).
  [[nodiscard]] static Money optimal_claimed_welfare(
      const model::Scenario& scenario, const model::BidProfile& bids);
};

}  // namespace mcs::auction
