#include "support/hungarian.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "common/error.hpp"

namespace mcs::matching {

namespace {

constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 2;

}  // namespace

MinCostAssigner::MinCostAssigner(int rows, int cols,
                                 std::vector<std::int64_t> cost)
    : rows_(rows), cols_(cols), cost_(std::move(cost)) {
  MCS_EXPECTS(rows >= 0 && cols >= rows, "MinCostAssigner requires 0 <= rows <= cols");
  MCS_EXPECTS(cost_.size() == static_cast<std::size_t>(rows) *
                                  static_cast<std::size_t>(cols),
              "cost matrix size mismatch");
}

std::int64_t MinCostAssigner::cost1(int i, int j) const {
  // 1-based accessor used by the classical algorithm formulation.
  return cost_[static_cast<std::size_t>(i - 1) *
                   static_cast<std::size_t>(cols_) +
               static_cast<std::size_t>(j - 1)];
}

void MinCostAssigner::augment_row(int row1) {
  // One shortest-augmenting-path iteration (Dijkstra on reduced costs) that
  // matches `row1`, maintaining dual feasibility.
  std::vector<std::int64_t> minv(static_cast<std::size_t>(cols_) + 1, kInf);
  std::vector<char> used(static_cast<std::size_t>(cols_) + 1, 0);
  std::vector<int> way(static_cast<std::size_t>(cols_) + 1, 0);

  p_[0] = row1;
  int j0 = 0;
  do {
    used[static_cast<std::size_t>(j0)] = 1;
    const int i0 = p_[static_cast<std::size_t>(j0)];
    std::int64_t delta = kInf;
    int j1 = -1;
    for (int j = 1; j <= cols_; ++j) {
      if (used[static_cast<std::size_t>(j)]) continue;
      const std::int64_t cur = cost1(i0, j) -
                               u_[static_cast<std::size_t>(i0)] -
                               v_[static_cast<std::size_t>(j)];
      if (cur < minv[static_cast<std::size_t>(j)]) {
        minv[static_cast<std::size_t>(j)] = cur;
        way[static_cast<std::size_t>(j)] = j0;
      }
      if (minv[static_cast<std::size_t>(j)] < delta) {
        delta = minv[static_cast<std::size_t>(j)];
        j1 = j;
      }
    }
    if (j1 < 0 || delta >= kForbidden / 2) {
      throw SolverError(
          "assignment infeasible: a row cannot reach any free column "
          "through admissible edges");
    }
    for (int j = 0; j <= cols_; ++j) {
      if (used[static_cast<std::size_t>(j)]) {
        u_[static_cast<std::size_t>(p_[static_cast<std::size_t>(j)])] += delta;
        v_[static_cast<std::size_t>(j)] -= delta;
      } else if (minv[static_cast<std::size_t>(j)] < kInf) {
        minv[static_cast<std::size_t>(j)] -= delta;
      }
    }
    j0 = j1;
  } while (p_[static_cast<std::size_t>(j0)] != 0);

  // Unwind the alternating path, flipping matched/unmatched edges.
  do {
    const int j1 = way[static_cast<std::size_t>(j0)];
    p_[static_cast<std::size_t>(j0)] = p_[static_cast<std::size_t>(j1)];
    j0 = j1;
  } while (j0 != 0);
}

void MinCostAssigner::solve() {
  if (solved_) return;
  u_.assign(static_cast<std::size_t>(rows_) + 1, 0);
  v_.assign(static_cast<std::size_t>(cols_) + 1, 0);
  p_.assign(static_cast<std::size_t>(cols_) + 1, 0);
  for (int i = 1; i <= rows_; ++i) augment_row(i);

  row_to_col_.assign(static_cast<std::size_t>(rows_), -1);
  total_cost_ = 0;
  for (int j = 1; j <= cols_; ++j) {
    const int i = p_[static_cast<std::size_t>(j)];
    if (i != 0) {
      row_to_col_[static_cast<std::size_t>(i - 1)] = j - 1;
      total_cost_ += cost1(i, j);
    }
  }
  for (const int c : row_to_col_) {
    MCS_ENSURES(c >= 0, "every row must be assigned after solve()");
  }
  solved_ = true;
}

const std::vector<int>& MinCostAssigner::row_to_col() const {
  MCS_EXPECTS(solved_, "row_to_col() before solve()");
  return row_to_col_;
}

std::int64_t MinCostAssigner::total_cost() const {
  MCS_EXPECTS(solved_, "total_cost() before solve()");
  return total_cost_;
}

const std::vector<std::int64_t>& MinCostAssigner::row_potentials() const {
  MCS_EXPECTS(solved_, "row_potentials() before solve()");
  return u_;
}

const std::vector<std::int64_t>& MinCostAssigner::col_potentials() const {
  MCS_EXPECTS(solved_, "col_potentials() before solve()");
  return v_;
}

// ------------------------------------------------------- MaxWeightMatcher

namespace {

/// Builds the padded min-cost instance: columns [0, real_cols) mirror the
/// weight matrix with negated weights; column real_cols + r is row r's
/// private zero-cost "unmatched" sink.
MinCostAssigner build_padded_assigner(const WeightMatrix& graph) {
  const int nr = graph.rows();
  const int nc = graph.cols();
  const int padded_cols = nc + nr;
  std::vector<std::int64_t> cost(
      static_cast<std::size_t>(nr) * static_cast<std::size_t>(padded_cols),
      MinCostAssigner::kForbidden);
  for (int r = 0; r < nr; ++r) {
    const auto row_base = static_cast<std::size_t>(r) *
                          static_cast<std::size_t>(padded_cols);
    for (int c = 0; c < nc; ++c) {
      if (const auto w = graph.get(r, c)) {
        cost[row_base + static_cast<std::size_t>(c)] = -w->micros();
      }
    }
    cost[row_base + static_cast<std::size_t>(nc + r)] = 0;
  }
  return MinCostAssigner(nr, padded_cols, std::move(cost));
}

}  // namespace

MaxWeightMatcher::MaxWeightMatcher(const WeightMatrix& graph)
    : graph_(graph), assigner_(build_padded_assigner(graph)) {}

const Matching& MaxWeightMatcher::solve() {
  if (solved_) return matching_;
  assigner_.solve();
  matching_.row_to_col.assign(static_cast<std::size_t>(assigner_.rows()),
                              std::nullopt);
  for (int r = 0; r < assigner_.rows(); ++r) {
    const int c = assigner_.row_to_col()[static_cast<std::size_t>(r)];
    if (c < graph_.cols()) {
      matching_.row_to_col[static_cast<std::size_t>(r)] = c;
    }
  }
  matching_.total_weight = Money::from_micros(-assigner_.total_cost());
  MCS_ENSURES(!matching_.total_weight.is_negative(),
              "optimal matching weight cannot be negative (empty matching is 0)");
  solved_ = true;
  return matching_;
}

Money MaxWeightMatcher::total_weight() {
  solve();
  return matching_.total_weight;
}

Money MaxWeightMatcher::total_weight_without_column(int col) {
  MCS_EXPECTS(col >= 0 && col < graph_.cols(), "column index out of range");
  return MaxWeightMatcher(graph_.without_column(col)).total_weight();
}

// ------------------------------------------------------------ offline VCG

WeightMatrix offline_graph(const model::Scenario& scenario,
                           const model::BidProfile& bids) {
  model::validate_bids(scenario, bids);
  WeightMatrix graph(scenario.task_count(), scenario.phone_count());
  for (int t = 0; t < scenario.task_count(); ++t) {
    const Slot slot = scenario.tasks[static_cast<std::size_t>(t)].slot;
    for (int i = 0; i < scenario.phone_count(); ++i) {
      const model::Bid& bid = bids[static_cast<std::size_t>(i)];
      if (bid.window.contains(slot)) {
        graph.set(t, i, scenario.task_value - bid.claimed_cost);
      }
    }
  }
  return graph;
}

auction::Outcome hungarian_offline_vcg(const model::Scenario& scenario,
                                       const model::BidProfile& bids) {
  const WeightMatrix graph = offline_graph(scenario, bids);
  MaxWeightMatcher matcher(graph);
  const Matching& matching = matcher.solve();

  auction::Outcome outcome;
  outcome.allocation =
      auction::Allocation(scenario.task_count(), scenario.phone_count());
  outcome.payments.assign(scenario.phones.size(), Money{});
  for (int t = 0; t < scenario.task_count(); ++t) {
    if (const auto col = matching.row_to_col[static_cast<std::size_t>(t)]) {
      outcome.allocation.assign(TaskId{t}, PhoneId{*col});
    }
  }
  const Money welfare_all = matching.total_weight;
  for (const PhoneId winner : outcome.allocation.winners()) {
    const auto i = static_cast<std::size_t>(winner.value());
    outcome.payments[i] = welfare_all + bids[i].claimed_cost -
                          matcher.total_weight_without_column(winner.value());
  }
  return outcome;
}

}  // namespace mcs::matching
