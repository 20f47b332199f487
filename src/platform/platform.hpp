// The cloud platform, as a slot-by-slot state machine.
//
// auction::OnlineGreedyMechanism is the *specification*: it consumes a
// whole Scenario at once. A deployed platform cannot -- it learns about
// tasks and bids as they arrive and must assign, collect, and pay
// incrementally. OnlinePlatform is that deployable artifact: push tasks
// and bids into the current slot, call advance_slot(), and read back the
// assignments made and the payments issued (each winner is paid in its
// reported departure slot, the earliest moment its Algorithm-2 critical
// value is determined).
//
// Both the platform and the batch mechanism run on auction::GreedyRound,
// the one implementation of Algorithms 1 and 2; the platform adds the
// protocol checks and the per-slot report. The test suite checks both
// against an independent from-scratch oracle (tests/support).
#pragma once

#include <optional>
#include <vector>

#include "auction/greedy_round.hpp"
#include "auction/online_greedy.hpp"
#include "common/money.hpp"
#include "common/types.hpp"
#include "model/bid.hpp"
#include "platform/messages.hpp"

namespace mcs::platform {

/// Everything that happened while processing one slot.
struct SlotReport {
  Slot slot{0};
  std::vector<std::pair<TaskId, AgentId>> assignments;
  std::vector<TaskId> unserved_tasks;
  /// Winners whose reported departure is this slot, with their payment.
  std::vector<std::pair<AgentId, Money>> payments;
  /// Losers whose reported departure is this slot (they get nothing).
  std::vector<AgentId> unpaid_departures;
};

class OnlinePlatform {
 public:
  /// A round of `num_slots`; `default_task_value` is nu for tasks announced
  /// without an override. The config carries the same knobs as the batch
  /// mechanism (profitability guard, reserve price, scarcity policy).
  OnlinePlatform(Slot::rep_type num_slots, Money default_task_value,
                 auction::OnlineGreedyConfig config = {});

  [[nodiscard]] Slot current_slot() const { return Slot{round_.current_slot()}; }
  [[nodiscard]] bool finished() const { return round_.finished(); }

  /// Announces a task arriving in the *current* slot. Ids must be dense and
  /// increasing across the round (the scenario convention).
  void announce_task(TaskId id, std::optional<Money> value = std::nullopt);

  /// A phone joins the market in the current slot (its reported arrival
  /// must be the current slot -- phones bid when they join). Returns false
  /// when the bid is rejected at the door by the platform reserve.
  bool submit_bid(AgentId agent, const model::Bid& bid);

  /// Processes the current slot: runs the Algorithm-1 step, issues
  /// Algorithm-2 payments to winners departing this slot, then moves to
  /// the next slot.
  SlotReport advance_slot();

  /// Total money paid out so far.
  [[nodiscard]] Money total_paid() const { return total_paid_; }

 private:
  auction::GreedyRound round_;
  Money default_task_value_;
  Money total_paid_;
};

}  // namespace mcs::platform
