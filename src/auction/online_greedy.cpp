#include "auction/online_greedy.hpp"

#include <utility>

#include "auction/greedy_round.hpp"
#include "obs/trace.hpp"

namespace mcs::auction {

GreedyRun run_greedy_allocation(const model::Scenario& scenario,
                                const model::BidProfile& bids,
                                const OnlineGreedyConfig& config,
                                std::optional<PhoneId> exclude,
                                Slot::rep_type last_slot) {
  GreedyRound round(scenario, bids, config, exclude, last_slot);
  GreedyRun run;
  run.allocation = Allocation(scenario.task_count(), scenario.phone_count());
  run.slots.reserve(static_cast<std::size_t>(round.horizon()));
  while (!round.finished()) {
    GreedySlotRecord record;
    const GreedyRound::SlotResult& slot = round.advance(&record.pool);
    record.slot = slot.slot;
    for (const auto& [task, bid] : slot.assigned) {
      run.allocation.assign(task, PhoneId{bid.phone});
      record.winners.push_back(PhoneId{bid.phone});
    }
    for (const GreedyRound::SlotTask& task : slot.unserved) {
      record.unserved.push_back(task.id);
    }
    record.unallocated_tasks = static_cast<int>(record.unserved.size());
    run.slots.push_back(std::move(record));
  }
  return run;
}

Outcome OnlineGreedyMechanism::run(const model::Scenario& scenario,
                                   const model::BidProfile& bids) const {
  const obs::TraceSpan span("online_greedy.run");

  Outcome outcome;
  outcome.allocation = Allocation(scenario.task_count(), scenario.phone_count());
  outcome.payments.assign(scenario.phones.size(), Money{});
  std::vector<std::pair<PhoneId, Slot>> winners;  // in allocation order
  std::optional<GreedyRound> round;
  {
    const obs::TraceSpan allocation_span("online_greedy.allocation");
    round.emplace(scenario, bids, config_);
    while (!round->finished()) {
      const GreedyRound::SlotResult& slot = round->advance();
      for (const auto& [task, bid] : slot.assigned) {
        outcome.allocation.assign(task, PhoneId{bid.phone});
        winners.emplace_back(PhoneId{bid.phone}, slot.slot);
      }
    }
  }
  {
    const obs::TraceSpan payment_span("online_greedy.payments");
    for (const auto& [winner, win_slot] : winners) {
      const GreedyPayment payment = round->payment(winner);
      payment.log(win_slot);
      outcome.payments[static_cast<std::size_t>(winner.value())] =
          payment.amount;
    }
  }

  outcome.validate(scenario, bids);
  return outcome;
}

}  // namespace mcs::auction
