// The Hungarian oracle for the offline mechanism (Kuhn-Munkres via
// shortest augmenting paths with potentials), and offline VCG computed the
// textbook way on top of it. The production mechanism
// (auction/offline_vcg) is the transversal-matroid greedy;
// offline_equivalence_test holds it to this oracle.
//
//  * MinCostAssigner: exact minimum-cost assignment of `rows` items to
//    distinct columns of a dense int64 cost matrix (rows <= cols, forbidden
//    entries allowed). O(rows^2 * cols) -- the O((n+gamma)^3) bound of
//    Theorem 3. Exposes the optimal dual potentials as a certificate.
//
//  * MaxWeightMatcher: maximum-weight (not necessarily perfect) bipartite
//    matching over a WeightMatrix, built on MinCostAssigner by negating
//    weights and padding with one zero-cost "stay unmatched" dummy column
//    per row. This is the transformation of Section IV-B: a task may always
//    remain unallocated, and negative-welfare edges are never taken.
//
//  * hungarian_offline_vcg: the allocation of one maximum-weight matching
//    on Fig. 3's graph, with Eq. (7) payments whose omega*(B_{-i}) comes
//    from a full re-solve without phone i.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "auction/outcome.hpp"
#include "common/money.hpp"
#include "model/scenario.hpp"
#include "support/bipartite_graph.hpp"

namespace mcs::matching {

/// Exact min-cost assignment on a dense matrix. Indices are 0-based in the
/// public API.
class MinCostAssigner {
 public:
  /// Entries >= kForbidden/2 are treated as absent edges. A problem is
  /// feasible iff every row can be assigned through non-forbidden entries;
  /// infeasibility raises SolverError.
  static constexpr std::int64_t kForbidden =
      std::numeric_limits<std::int64_t>::max() / 8;

  /// `cost` is row-major with `rows * cols` entries; requires rows <= cols.
  MinCostAssigner(int rows, int cols, std::vector<std::int64_t> cost);

  /// Runs the solver; idempotent.
  void solve();

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int cols() const { return cols_; }

  /// Optimal assignment: for each row, its column. Requires solve().
  [[nodiscard]] const std::vector<int>& row_to_col() const;

  /// Total cost of the optimal assignment. Requires solve().
  [[nodiscard]] std::int64_t total_cost() const;

  /// Optimal dual potentials (LP certificate); for all (i, j):
  /// cost(i, j) >= u[i] + v[j], with equality on matched pairs. Requires
  /// solve().
  [[nodiscard]] const std::vector<std::int64_t>& row_potentials() const;
  [[nodiscard]] const std::vector<std::int64_t>& col_potentials() const;

 private:
  [[nodiscard]] std::int64_t cost1(int i, int j) const;  // 1-based access
  void augment_row(int row1);

  int rows_;
  int cols_;
  std::vector<std::int64_t> cost_;  // row-major, 0-based storage
  std::vector<std::int64_t> u_;     // row potentials, 1-based
  std::vector<std::int64_t> v_;     // col potentials, 1-based
  std::vector<int> p_;              // p_[j] = row matched to col j (0 = free)
  std::vector<int> row_to_col_;
  std::int64_t total_cost_{0};
  bool solved_{false};
};

/// Maximum-weight bipartite matching with optional rows ("a task may stay
/// unallocated").
class MaxWeightMatcher {
 public:
  explicit MaxWeightMatcher(const WeightMatrix& graph);

  /// Optimal matching; matched edges always have weight >= 0 (a negative
  /// edge is dominated by leaving the row unmatched). Idempotent.
  const Matching& solve();

  /// Total weight of the optimum. Implies solve().
  Money total_weight();

  /// Optimal total weight with column `col` (a smartphone) removed from the
  /// graph -- the omega*(B_{-i}) term of the VCG payment (Eq. 7), by a
  /// full re-solve.
  Money total_weight_without_column(int col);

 private:
  WeightMatrix graph_;
  MinCostAssigner assigner_;
  Matching matching_;
  bool solved_{false};
};

/// Fig. 3's graph: rows are tasks in scenario order, columns are phones,
/// edge weight nu - b_i iff phone i's reported window contains the task's
/// slot.
[[nodiscard]] WeightMatrix offline_graph(const model::Scenario& scenario,
                                         const model::BidProfile& bids);

/// Offline VCG by the Hungarian solver: one maximum-weight matching on
/// offline_graph, and p_i = omega*(B) + b_i - omega*(B_{-i}) for winners.
[[nodiscard]] auction::Outcome hungarian_offline_vcg(
    const model::Scenario& scenario, const model::BidProfile& bids);

}  // namespace mcs::matching
