#include "platform/platform.hpp"

#include "common/assert.hpp"

namespace mcs::platform {

OnlinePlatform::OnlinePlatform(Slot::rep_type num_slots,
                               Money default_task_value,
                               auction::OnlineGreedyConfig config)
    : round_(num_slots, config), default_task_value_(default_task_value) {
  MCS_EXPECTS(!default_task_value.is_negative(), "task value must be >= 0");
}

void OnlinePlatform::announce_task(TaskId id, std::optional<Money> value) {
  MCS_EXPECTS(!finished(), "round is over");
  MCS_EXPECTS(id.value() == round_.task_count(),
              "task ids must be dense and increasing");
  round_.announce_task(value.value_or(default_task_value_));
}

bool OnlinePlatform::submit_bid(AgentId agent, const model::Bid& bid) {
  return round_.submit_bid(agent, bid);
}

SlotReport OnlinePlatform::advance_slot() {
  MCS_EXPECTS(!finished(), "round is over");
  SlotReport report;
  const auction::GreedyRound::SlotResult& slot = round_.advance();
  report.slot = slot.slot;
  for (const auto& [task, bid] : slot.assigned) {
    report.assignments.emplace_back(task, AgentId{bid.phone});
  }
  for (const auction::GreedyRound::SlotTask& task : slot.unserved) {
    report.unserved_tasks.push_back(task.id);
  }

  // Departures: a winner's critical value is settled by its reported
  // departure, so it is paid now.
  for (const auto& [agent, won] : round_.departing(report.slot.value())) {
    if (!won) {
      report.unpaid_departures.push_back(agent);
      continue;
    }
    const auction::GreedyPayment payment = round_.payment(agent);
    payment.log(report.slot);
    total_paid_ += payment.amount;
    report.payments.emplace_back(agent, payment.amount);
  }
  return report;
}

}  // namespace mcs::platform
