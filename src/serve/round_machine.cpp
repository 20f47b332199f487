#include "serve/round_machine.hpp"

#include <string>
#include <utility>

#include "common/assert.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace mcs::serve {

namespace {

[[noreturn]] void stream_error(std::int64_t round, const std::string& what) {
  throw InvalidArgumentError("serve stream, round " + std::to_string(round) +
                             ": " + what);
}

/// The round_open event, checked before the kernel is sized from it.
const ServeEvent& checked_open(const ServeEvent& open) {
  if (open.kind != ServeEventKind::kRoundOpen) {
    stream_error(open.round, "round must start with round_open");
  }
  if (open.num_slots < 1) {
    throw InvalidArgumentError("virtual clock requires a horizon >= 1");
  }
  if (open.round_value.is_negative()) {
    stream_error(open.round, "task value must be >= 0");
  }
  return open;
}

}  // namespace

RoundMachine::RoundMachine(const ServeEvent& open,
                           auction::OnlineGreedyConfig config, bool capture)
    : round_(open.round),
      auction_(checked_open(open).num_slots, config),
      capture_(capture),
      round_value_(open.round_value) {
  outcome_.round = round_;
  outcome_.events_consumed = 1;  // the round_open itself
}

void RoundMachine::expect_now(Slot slot) const {
  // The stream carries time as slot_tick events, never wall time, so a
  // replay always interleaves arrivals and slot closures the same way.
  if (auction_.finished()) {
    throw InvalidArgumentError("event after the round's last slot_tick");
  }
  if (slot.value() != auction_.current_slot()) {
    throw InvalidArgumentError(
        "event names slot " + std::to_string(slot.value()) +
        " but the virtual clock is inside slot " +
        std::to_string(auction_.current_slot()));
  }
}

bool RoundMachine::apply(const ServeEvent& event) {
  if (event.round != round_) {
    stream_error(round_, "event routed to the wrong round");
  }
  if (done_) stream_error(round_, "event after round_close");
  ++outcome_.events_consumed;

  switch (event.kind) {
    case ServeEventKind::kRoundOpen:
      stream_error(round_, "duplicate round_open");

    case ServeEventKind::kTaskArrived:
      expect_now(event.slot);
      if (event.task.value() != auction_.task_count()) {
        stream_error(round_, "task ids must be dense and increasing");
      }
      auction_.announce_task(event.task_value.value_or(round_value_));
      ++outcome_.tasks_announced;
      if (capture_) {
        captured_tasks_.push_back(
            model::Task{event.task, event.slot, event.task_value});
      }
      return false;

    case ServeEventKind::kBidSubmitted: {
      expect_now(event.window.begin());
      if (event.window.end().value() > auction_.horizon()) {
        stream_error(round_, "bid window extends past the round horizon");
      }
      const auto index = static_cast<std::size_t>(event.agent.value());
      if (index < agent_bid_.size() && agent_bid_[index]) {
        stream_error(round_, "agent " + std::to_string(event.agent.value()) +
                                 " bid twice");
      }
      if (index >= agent_bid_.size()) agent_bid_.resize(index + 1, false);
      agent_bid_[index] = true;
      if (capture_) {
        if (index >= captured_bids_.size()) captured_bids_.resize(index + 1);
        captured_bids_[index] = bid_of(event);
      }
      if (auction_.submit_bid(event.agent, bid_of(event))) {
        ++outcome_.bids_admitted;
      } else {
        ++outcome_.bids_rejected;  // platform reserve said no
      }
      return false;
    }

    case ServeEventKind::kSlotTick: {
      expect_now(event.slot);
      for (const auto& [task, bid] : auction_.advance().assigned) {
        assignments_.emplace_back(task, PhoneId{bid.phone});
      }
      // A winner's critical value is settled by its reported departure,
      // so it is paid now.
      for (const auto& [agent, won] : auction_.departing(event.slot.value())) {
        if (!won) continue;
        const auction::GreedyPayment payment = auction_.payment(agent);
        payment.log(event.slot);
        payments_.emplace_back(agent, payment.amount);
      }
      return false;
    }

    case ServeEventKind::kRoundClose: {
      if (!auction_.finished()) {
        stream_error(round_, "round_close before the last slot_tick");
      }
      // Materialize the batch-comparable outcome. Agent ids are dense per
      // the scenario convention, so the bid events seen fix the phone
      // count; task ids were checked dense on arrival.
      const int phone_count = static_cast<int>(agent_bid_.size());
      const int task_count = static_cast<int>(outcome_.tasks_announced);
      outcome_.outcome.allocation = auction::Allocation(task_count, phone_count);
      for (const auto& [task, agent] : assignments_) {
        outcome_.outcome.allocation.assign(task, agent);
      }
      outcome_.outcome.payments.assign(static_cast<std::size_t>(phone_count),
                                       Money{});
      for (const auto& [agent, payment] : payments_) {
        outcome_.outcome.payments[static_cast<std::size_t>(agent.value())] =
            payment;
        outcome_.total_paid += payment;
      }
      done_ = true;
      obs::count("serve.rounds_completed");
      return true;
    }
  }
  stream_error(round_, "unhandled event kind");
}

RoundOutcome RoundMachine::take_outcome() {
  MCS_EXPECTS(done_, "take_outcome requires a closed round");
  return std::move(outcome_);
}

bool RoundMachine::capture_complete() const {
  if (!capture_ || !done_) return false;
  for (const std::optional<model::Bid>& bid : captured_bids_) {
    if (!bid) return false;
  }
  return captured_bids_.size() == agent_bid_.size();
}

CapturedRound RoundMachine::take_captured() {
  MCS_EXPECTS(capture_complete(),
              "take_captured requires a closed, fully-captured round");
  CapturedRound captured;
  captured.scenario.num_slots = auction_.horizon();
  captured.scenario.task_value = round_value_;
  captured.scenario.tasks = std::move(captured_tasks_);
  captured.scenario.phones.reserve(captured_bids_.size());
  captured.bids.reserve(captured_bids_.size());
  for (std::optional<model::Bid>& bid : captured_bids_) {
    // Claimed == true: the reconstruction treats reports as ground truth
    // (the engine has nothing else), so bids equals truthful_bids().
    captured.scenario.phones.push_back(
        model::TrueProfile{bid->window, bid->claimed_cost});
    captured.bids.push_back(*bid);
  }
  return captured;
}

}  // namespace mcs::serve
