// Per-round state machine of the streaming engine.
//
// A RoundMachine owns one in-flight auction round: it is created by the
// round_open event and then fed that round's stream in order, driving the
// round's auction::GreedyRound directly -- task_arrived becomes
// announce_task, bid_submitted becomes submit_bid, and slot_tick runs the
// Algorithm-1 step (advance) and then pays every winner whose reported
// departure is that slot its Algorithm-2 critical value, logging the
// payment_derivation record stamped with the departure slot (Section V-C:
// the payment is determined exactly then). The machine accumulates the
// assignments and payments and materializes them as a batch-comparable
// auction::Outcome at round_close. Because the batch
// OnlineGreedyMechanism runs the same kernel, a replayed event stream
// reproduces its outcome byte for byte (the streaming/batch equivalence
// oracle pins this).
//
// The machine is strict about stream well-formedness (untrusted input):
// events must carry the round's current slot, every slot must be ticked
// in order before round_close, nothing may follow the last tick, bid
// windows must stay inside the horizon, agents may bid once, task ids
// must be dense, and the round's task value must be nonnegative.
// Violations throw InvalidArgumentError before the kernel sees the event;
// the engine surfaces them as stream errors.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "auction/greedy_round.hpp"
#include "auction/online_greedy.hpp"
#include "auction/outcome.hpp"
#include "common/money.hpp"
#include "model/scenario.hpp"
#include "serve/event.hpp"

namespace mcs::serve {

/// What one completed round produced.
struct RoundOutcome {
  std::int64_t round{0};
  auction::Outcome outcome;  ///< batch-comparable allocation + payments
  Money total_paid;
  std::int64_t tasks_announced{0};
  std::int64_t bids_admitted{0};
  std::int64_t bids_rejected{0};  ///< turned away by the platform reserve
  std::int64_t events_consumed{0};
};

/// Claimed-cost reconstruction of a completed round: the world as the
/// phones *reported* it. The live econ plane audits against this (the
/// engine never sees private costs), under the truthful interpretation
/// claimed == true that the paper's mechanism incentivizes.
struct CapturedRound {
  model::Scenario scenario;  ///< phones carry their reported window/cost
  model::BidProfile bids;    ///< equals scenario.truthful_bids()
};

class RoundMachine {
 public:
  /// Boots the round from its round_open event. With `capture` on, the
  /// machine additionally records tasks and bids so the closed round can
  /// be reconstructed as a (Scenario, BidProfile) pair for econ auditing.
  RoundMachine(const ServeEvent& open, auction::OnlineGreedyConfig config,
               bool capture = false);

  [[nodiscard]] std::int64_t round() const { return round_; }
  [[nodiscard]] bool done() const { return done_; }

  /// Consumes the next event of this round (kinds other than kRoundOpen).
  /// Returns true when the event was kRoundClose and the round completed.
  bool apply(const ServeEvent& event);

  /// The finished round's outcome; requires done(). Moves the result out.
  [[nodiscard]] RoundOutcome take_outcome();

  /// True when capture was on, the round is done, and every dense agent id
  /// actually bid (a stream may legally skip ids; such rounds cannot be
  /// reconstructed and the econ plane counts them as skipped).
  [[nodiscard]] bool capture_complete() const;

  /// The captured round; requires capture_complete(). Moves the data out.
  /// The returned scenario is *not* pre-validated -- callers audit
  /// untrusted streams and must catch validation errors themselves.
  [[nodiscard]] CapturedRound take_captured();

 private:
  /// Throws unless `slot` is the slot the round is currently inside.
  void expect_now(Slot slot) const;

  std::int64_t round_;
  auction::GreedyRound auction_;  ///< owns the round's slot counter
  bool done_{false};
  bool capture_{false};
  Money round_value_;

  std::vector<std::pair<TaskId, PhoneId>> assignments_;
  std::vector<std::pair<PhoneId, Money>> payments_;  ///< in payment order
  std::vector<bool> agent_bid_;  ///< index = agent id; true once it bid
  std::vector<model::Task> captured_tasks_;
  std::vector<std::optional<model::Bid>> captured_bids_;
  RoundOutcome outcome_;
};

}  // namespace mcs::serve
