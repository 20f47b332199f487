// A complete auction instance and the submitted bid profile.
//
// Scenario is the *ground truth* of one auction round: the slot horizon m,
// the task value nu, the task arrivals, and each smartphone's private
// profile. A BidProfile is what the phones actually submit -- one bid per
// phone, indexed by PhoneId. Mechanisms consume (Scenario, BidProfile);
// utilities are always evaluated against the Scenario's true costs. The
// separation lets the truthfulness audits swap a single phone's bid while
// holding the world fixed (Definition 4's B_i vs B_{-i}).
#pragma once

#include <string>
#include <vector>

#include "common/money.hpp"
#include "common/types.hpp"
#include "model/bid.hpp"
#include "model/task.hpp"

namespace mcs::model {

/// One bid per smartphone; index is the PhoneId value.
using BidProfile = std::vector<Bid>;

struct Scenario {
  Slot::rep_type num_slots{0};  ///< m: slots per round, slots are 1..m
  Money task_value;             ///< nu: platform value per completed task
  std::vector<Task> tasks;      ///< sorted by (slot, id); ids dense 0..gamma-1
  std::vector<TrueProfile> phones;  ///< index is the PhoneId value

  [[nodiscard]] int phone_count() const {
    return static_cast<int>(phones.size());
  }
  [[nodiscard]] int task_count() const { return static_cast<int>(tasks.size()); }

  [[nodiscard]] const TrueProfile& phone(PhoneId id) const;

  /// r_t for t = 1..m (index 0 unused), the paper's task-arrival vector R.
  [[nodiscard]] std::vector<int> tasks_per_slot() const;

  /// The truthful bid profile B-bar (every phone reports its profile).
  [[nodiscard]] BidProfile truthful_bids() const;

  /// Throws InvalidScenarioError unless: m >= 1; every task's slot is in
  /// [1, m]; task ids are dense and sorted by slot; every phone's active
  /// window lies in [1, m]; every cost is nonnegative and below Money::max;
  /// and task_count * max(nu, the dearest true cost) fits in Money::max,
  /// so that every payment, cost and welfare total of the round does.
  void validate() const;
};

/// Fluent construction for tests and examples:
///   auto s = ScenarioBuilder(5).value(20).phone(2, 5, 3).task(1).build();
class ScenarioBuilder {
 public:
  explicit ScenarioBuilder(Slot::rep_type num_slots);

  ScenarioBuilder& value(std::int64_t units);
  ScenarioBuilder& value(Money nu);

  /// Adds a phone active on [begin, end] with an integer-unit cost; returns
  /// *this. Phones receive ids in insertion order.
  ScenarioBuilder& phone(Slot::rep_type begin, Slot::rep_type end,
                         std::int64_t cost_units);
  ScenarioBuilder& phone(SlotInterval active, Money cost);

  /// Adds one task arriving in `slot` (worth the scenario-wide nu).
  ScenarioBuilder& task(Slot::rep_type slot);

  /// Adds `count` tasks arriving in `slot`.
  ScenarioBuilder& tasks(Slot::rep_type slot, int count);

  /// Validates and returns the scenario.
  [[nodiscard]] Scenario build() const;

 private:
  Scenario scenario_;
};

/// Replaces phone `id`'s bid in a copy of `bids` (deviation testing).
[[nodiscard]] BidProfile with_bid(BidProfile bids, PhoneId id, Bid replacement);

/// Validates a bid profile against a scenario: one bid per phone, windows
/// within [1, m], costs in range, and task_count * max(nu, the dearest
/// claimed cost) within Money::max. Does NOT require reports to be legal
/// w.r.t. the private profiles -- strategic misreports are the point -- but
/// a window outside the round or a negative cost is malformed input.
void validate_bids(const Scenario& scenario, const BidProfile& bids);

/// Human-readable multi-line dump (used by examples and failure messages).
[[nodiscard]] std::string describe(const Scenario& scenario);

}  // namespace mcs::model
