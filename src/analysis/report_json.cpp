#include "analysis/report_json.hpp"

#include <sstream>

#include "analysis/metrics.hpp"
#include "common/assert.hpp"
#include "io/json.hpp"

namespace mcs::analysis {

void write_round_report_json(std::ostream& os, const model::Scenario& scenario,
                             const model::BidProfile& bids,
                             const auction::Outcome& outcome,
                             const std::string& mechanism_name) {
  const RoundMetrics metrics = compute_metrics(scenario, bids, outcome);

  io::JsonWriter json(os);
  json.begin_object();
  json.field("mechanism", mechanism_name);

  json.key("scenario").begin_object();
  json.field("slots", static_cast<std::int64_t>(scenario.num_slots));
  json.field("task_value", scenario.task_value.to_string());
  json.field("phones", static_cast<std::int64_t>(scenario.phone_count()));
  json.field("tasks", static_cast<std::int64_t>(scenario.task_count()));
  json.end_object();

  json.key("metrics").begin_object();
  json.field("social_welfare", metrics.social_welfare.to_string());
  json.field("claimed_welfare", metrics.claimed_welfare.to_string());
  json.field("total_payment", metrics.total_payment.to_string());
  json.field("total_true_cost", metrics.total_true_cost.to_string());
  json.field("overpayment", metrics.overpayment.to_string());
  json.field("overpayment_ratio", metrics.overpayment_ratio);
  json.field("tasks_total", static_cast<std::int64_t>(metrics.tasks_total));
  json.field("tasks_allocated",
             static_cast<std::int64_t>(metrics.tasks_allocated));
  json.field("completion_rate", metrics.completion_rate);
  json.field("platform_utility", metrics.platform_utility.to_string());
  json.end_object();

  json.key("allocation").begin_array();
  for (const model::Task& task : scenario.tasks) {
    json.begin_object();
    json.field("task", static_cast<std::int64_t>(task.id.value()));
    json.field("slot", static_cast<std::int64_t>(task.slot.value()));
    json.field("value", scenario.task_value.to_string());
    if (const auto phone = outcome.allocation.phone_for(task.id)) {
      json.field("phone", static_cast<std::int64_t>(phone->value()));
      json.field("payment",
                 outcome.payments[static_cast<std::size_t>(phone->value())]
                     .to_string());
    } else {
      json.key("phone").null();
    }
    json.end_object();
  }
  json.end_array();

  json.key("phones").begin_array();
  for (int i = 0; i < scenario.phone_count(); ++i) {
    const PhoneId phone{i};
    const model::Bid& bid = bids[static_cast<std::size_t>(i)];
    json.begin_object();
    json.field("id", static_cast<std::int64_t>(i));
    json.key("window").begin_array();
    json.value(static_cast<std::int64_t>(bid.window.begin().value()));
    json.value(static_cast<std::int64_t>(bid.window.end().value()));
    json.end_array();
    json.field("claimed_cost", bid.claimed_cost.to_string());
    json.field("winner", outcome.allocation.is_winner(phone));
    json.field("payment",
               outcome.payments[static_cast<std::size_t>(i)].to_string());
    json.field("utility", outcome.utility(scenario, phone).to_string());
    json.end_object();
  }
  json.end_array();

  json.end_object();
  MCS_ENSURES(json.complete(), "round report must be a complete document");
  os << '\n';
}

std::string round_report_json(const model::Scenario& scenario,
                              const model::BidProfile& bids,
                              const auction::Outcome& outcome,
                              const std::string& mechanism_name) {
  std::ostringstream os;
  write_round_report_json(os, scenario, bids, outcome, mechanism_name);
  return os.str();
}

}  // namespace mcs::analysis
