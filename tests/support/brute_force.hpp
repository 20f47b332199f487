// Exhaustive maximum-weight matching -- the test oracle.
//
// Exact dynamic program over subsets of columns. Exponential in the column
// count, so usable only on small instances; the property tests compare the
// Hungarian and min-cost-flow solvers against it on thousands of randomized
// small graphs.
#pragma once

#include "support/bipartite_graph.hpp"

namespace mcs::matching {

/// Maximum number of columns the oracle accepts (2^cols DP states).
inline constexpr int kBruteForceMaxCols = 20;

/// Optimal max-weight matching by subset DP; rows may stay unmatched and
/// negative-weight edges are never taken (same conventions as
/// MaxWeightMatcher). Requires cols <= kBruteForceMaxCols.
[[nodiscard]] Matching brute_force_max_weight(const WeightMatrix& graph);

}  // namespace mcs::matching
