#include "analysis/metrics.hpp"

#include <sstream>
#include <vector>

#include "common/assert.hpp"
#include "obs/econ_metrics.hpp"

namespace mcs::analysis {

RoundMetrics compute_metrics(const model::Scenario& scenario,
                             const model::BidProfile& bids,
                             const auction::Outcome& outcome) {
  outcome.validate(scenario, bids);

  RoundMetrics metrics;
  metrics.social_welfare = outcome.social_welfare(scenario);
  metrics.claimed_welfare = outcome.claimed_welfare(scenario, bids);
  metrics.total_payment = outcome.total_payment();
  metrics.total_true_cost = outcome.total_true_cost(scenario);
  metrics.overpayment = metrics.total_payment - metrics.total_true_cost;
  // Definition 11 sigma and the coverage ratio are single-sourced in
  // obs/econ_metrics so the live serve plane and econ-report derive the
  // exact same numbers from the same Money totals.
  metrics.overpayment_ratio =
      obs::overpayment_ratio(metrics.total_payment, metrics.total_true_cost);
  metrics.tasks_total = scenario.task_count();
  metrics.tasks_allocated = outcome.allocation.allocated_count();
  metrics.completion_rate =
      obs::coverage_rate(metrics.tasks_allocated, metrics.tasks_total);
  metrics.platform_utility =
      scenario.task_value * metrics.tasks_allocated - metrics.total_payment;
  std::vector<Money> winner_payments;
  for (const PhoneId winner : outcome.allocation.winners()) {
    winner_payments.push_back(
        outcome.payments[static_cast<std::size_t>(winner.value())]);
  }
  metrics.payment_fairness = obs::jain_fairness(winner_payments);
  return metrics;
}

std::string describe(const RoundMetrics& m) {
  std::ostringstream os;
  os << "  social welfare:    " << m.social_welfare << '\n'
     << "  claimed welfare:   " << m.claimed_welfare << '\n'
     << "  total payment:     " << m.total_payment << '\n'
     << "  total true cost:   " << m.total_true_cost << '\n'
     << "  overpayment:       " << m.overpayment << " (ratio "
     << m.overpayment_ratio << ")\n"
     << "  tasks allocated:   " << m.tasks_allocated << " / " << m.tasks_total
     << '\n'
     << "  platform utility:  " << m.platform_utility << '\n';
  return os.str();
}

}  // namespace mcs::analysis
