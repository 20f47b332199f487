#include "support/bipartite_graph.hpp"

#include <algorithm>

namespace mcs::matching {

WeightMatrix::WeightMatrix(int rows, int cols) : rows_(rows), cols_(cols) {
  MCS_EXPECTS(rows >= 0 && cols >= 0, "WeightMatrix dimensions must be >= 0");
  micros_.assign(
      static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols), kAbsent);
}

void WeightMatrix::set(int row, int col, Money weight) {
  MCS_EXPECTS(weight.micros() != kAbsent, "weight collides with absent sentinel");
  micros_[index(row, col)] = weight.micros();
}

void WeightMatrix::clear(int row, int col) { micros_[index(row, col)] = kAbsent; }

bool WeightMatrix::has_edge(int row, int col) const {
  return micros_[index(row, col)] != kAbsent;
}

Money WeightMatrix::weight(int row, int col) const {
  const std::int64_t m = micros_[index(row, col)];
  MCS_EXPECTS(m != kAbsent, "weight() of an absent edge");
  return Money::from_micros(m);
}

std::optional<Money> WeightMatrix::get(int row, int col) const {
  const std::int64_t m = micros_[index(row, col)];
  if (m == kAbsent) return std::nullopt;
  return Money::from_micros(m);
}

std::size_t WeightMatrix::edge_count() const {
  return static_cast<std::size_t>(
      std::count_if(micros_.begin(), micros_.end(),
                    [](std::int64_t m) { return m != kAbsent; }));
}

WeightMatrix WeightMatrix::without_column(int col) const {
  WeightMatrix copy = *this;
  for (int r = 0; r < rows_; ++r) copy.clear(r, col);
  return copy;
}

std::size_t Matching::size() const {
  return static_cast<std::size_t>(
      std::count_if(row_to_col.begin(), row_to_col.end(),
                    [](const std::optional<int>& c) { return c.has_value(); }));
}

std::vector<std::optional<int>> Matching::col_to_row(int cols) const {
  std::vector<std::optional<int>> inverse(static_cast<std::size_t>(cols));
  for (std::size_t r = 0; r < row_to_col.size(); ++r) {
    if (row_to_col[r]) {
      const int c = *row_to_col[r];
      MCS_ASSERT(c >= 0 && c < cols, "matched column out of range");
      MCS_ASSERT(!inverse[static_cast<std::size_t>(c)],
                 "column matched to two rows");
      inverse[static_cast<std::size_t>(c)] = static_cast<int>(r);
    }
  }
  return inverse;
}

}  // namespace mcs::matching
