// Closed slot intervals.
//
// A smartphone's active time is the closed interval [begin, end] of slots in
// which it is willing to perform one task (paper Section III-A). The
// no-early-arrival / no-late-departure rule says a reported interval must be
// contained in the true one; `contains(SlotInterval)` encodes exactly that.
#pragma once

#include <ostream>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace mcs {

class SlotInterval {
 public:
  /// Constructs [begin, end]; requires begin <= end.
  constexpr SlotInterval(Slot begin, Slot end) : begin_(begin), end_(end) {
    MCS_EXPECTS(begin <= end, "SlotInterval requires begin <= end");
  }

  /// Convenience: [b, e] from raw slot numbers.
  [[nodiscard]] static constexpr SlotInterval of(Slot::rep_type b,
                                                 Slot::rep_type e) {
    return SlotInterval{Slot{b}, Slot{e}};
  }

  [[nodiscard]] constexpr Slot begin() const { return begin_; }
  [[nodiscard]] constexpr Slot end() const { return end_; }

  /// Number of slots covered (always >= 1).
  [[nodiscard]] constexpr Slot::rep_type length() const {
    return end_.value() - begin_.value() + 1;
  }

  [[nodiscard]] constexpr bool contains(Slot s) const {
    return begin_ <= s && s <= end_;
  }

  /// True when `inner` lies entirely inside this interval -- the legality
  /// condition for a reported active time versus the true one.
  [[nodiscard]] constexpr bool contains(SlotInterval inner) const {
    return begin_ <= inner.begin_ && inner.end_ <= end_;
  }

  friend constexpr bool operator==(SlotInterval, SlotInterval) = default;

  friend std::ostream& operator<<(std::ostream& os, SlotInterval iv) {
    return os << '[' << iv.begin_ << ',' << iv.end_ << ']';
  }

 private:
  Slot begin_;
  Slot end_;
};

}  // namespace mcs
