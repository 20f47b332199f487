#include "analysis/charging.hpp"

#include <map>

#include "auction/offline_vcg.hpp"
#include "common/assert.hpp"
#include "common/error.hpp"

namespace mcs::analysis {

namespace {

void check_scope(const model::Scenario& scenario, const model::BidProfile& bids,
                 const auction::OnlineGreedyConfig& config) {
  if (config.reserve_price) {
    throw InvalidArgumentError(
        "charging certificate covers the plain Algorithm 1 (a reserve "
        "price can bar OPT's phones from the pool, voiding the case "
        "analysis)");
  }
  for (const model::Bid& bid : bids) {
    if (bid.claimed_cost > scenario.task_value) {
      throw InvalidArgumentError(
          "charging certificate requires every claimed cost <= nu "
          "(nonnegative edge weights)");
    }
  }
}

/// Claimed welfare of an allocation: nu - b_i summed over its edges.
Money claimed_welfare(const model::Scenario& scenario,
                      const model::BidProfile& bids,
                      const auction::Allocation& allocation) {
  Money welfare;
  for (const PhoneId phone : allocation.winners()) {
    welfare += scenario.task_value -
               bids[static_cast<std::size_t>(phone.value())].claimed_cost;
  }
  return welfare;
}

}  // namespace

ChargingCertificate build_half_competitive_certificate(
    const model::Scenario& scenario, const model::BidProfile& bids,
    const auction::OnlineGreedyConfig& config) {
  scenario.validate();
  model::validate_bids(scenario, bids);
  check_scope(scenario, bids, config);

  const auction::GreedyRun greedy =
      auction::run_greedy_allocation(scenario, bids, config);
  const auction::Allocation opt =
      auction::OfflineVcgMechanism().run(scenario, bids).allocation;

  ChargingCertificate certificate;
  certificate.optimal_welfare = claimed_welfare(scenario, bids, opt);
  certificate.greedy_welfare =
      claimed_welfare(scenario, bids, greedy.allocation);

  for (int t = 0; t < scenario.task_count(); ++t) {
    const auto opt_phone = opt.phone_for(TaskId{t});
    if (!opt_phone) continue;  // task unserved by OPT: nothing to charge
    const PhoneId p = *opt_phone;
    Charge charge;
    charge.opt_task = TaskId{t};
    charge.opt_phone = p;

    if (const auto greedy_task = greedy.allocation.task_for(p)) {
      // Case 1: OPT's phone is busy in greedy.
      charge.kind = ChargeKind::kSamePhone;
      charge.greedy_task = *greedy_task;
      charge.greedy_phone = p;
    } else {
      // Case 2: p idles in greedy, so it stayed in the pool through slot t
      // and greedy must have served tau -- with someone at least as cheap.
      const auto q = greedy.allocation.phone_for(TaskId{t});
      MCS_ASSERT(q.has_value(),
                 "Theorem 6 case analysis: greedy left a task unserved "
                 "while OPT's phone for it was idle and active");
      MCS_ASSERT(bids[static_cast<std::size_t>(q->value())].claimed_cost <=
                     bids[static_cast<std::size_t>(p.value())].claimed_cost,
                 "Theorem 6 case analysis: greedy's pick must be at least "
                 "as cheap as the idle OPT phone");
      charge.kind = ChargeKind::kSameTask;
      charge.greedy_task = TaskId{t};
      charge.greedy_phone = *q;
    }
    certificate.charges.push_back(charge);
  }
  return certificate;
}

void verify_half_competitive_certificate(
    const ChargingCertificate& certificate, const model::Scenario& scenario,
    const model::BidProfile& bids,
    const auction::OnlineGreedyConfig& config) {
  scenario.validate();
  model::validate_bids(scenario, bids);
  check_scope(scenario, bids, config);

  // Recompute both allocations from scratch -- the certificate is not
  // trusted to describe them.
  const auction::GreedyRun greedy =
      auction::run_greedy_allocation(scenario, bids, config);
  const auction::Allocation opt =
      auction::OfflineVcgMechanism().run(scenario, bids).allocation;

  MCS_ASSERT(certificate.optimal_welfare ==
                 claimed_welfare(scenario, bids, opt),
             "certificate misstates the optimal welfare");

  const auto cost_of = [&](PhoneId phone) {
    return bids[static_cast<std::size_t>(phone.value())].claimed_cost;
  };

  // Exactly one charge per OPT edge.
  std::vector<char> opt_edge_charged(
      static_cast<std::size_t>(scenario.task_count()), 0);
  // Per greedy edge (keyed by its phone -- one task per phone), at most one
  // charge of each kind.
  std::map<int, int> phone_charges;  // greedy phone -> bitmask of kinds

  Money charged_total;      // sum of OPT edge weights via charges
  Money cover_total;        // sum of charged greedy edge weights

  for (const Charge& charge : certificate.charges) {
    const auto t = static_cast<std::size_t>(charge.opt_task.value());
    MCS_ASSERT(charge.opt_task.value() >= 0 &&
                   charge.opt_task.value() < scenario.task_count(),
               "charge names an unknown task");
    MCS_ASSERT(!opt_edge_charged[t], "OPT edge charged twice");
    opt_edge_charged[t] = 1;

    // The OPT edge must exist as claimed.
    MCS_ASSERT(opt.phone_for(charge.opt_task) == charge.opt_phone,
               "charge misstates the OPT edge");
    const Money opt_weight = scenario.task_value - cost_of(charge.opt_phone);
    MCS_ASSERT(!opt_weight.is_negative(), "OPT edge weight negative");

    // The greedy edge must exist as claimed.
    const auto greedy_task = greedy.allocation.task_for(charge.greedy_phone);
    MCS_ASSERT(greedy_task && *greedy_task == charge.greedy_task,
               "charge targets a non-existent greedy edge");
    const Money greedy_weight =
        scenario.task_value - cost_of(charge.greedy_phone);

    // Kind-specific structure + weight cover.
    switch (charge.kind) {
      case ChargeKind::kSamePhone:
        MCS_ASSERT(charge.greedy_phone == charge.opt_phone,
                   "same-phone charge must keep the phone");
        break;
      case ChargeKind::kSameTask:
        MCS_ASSERT(charge.greedy_task == charge.opt_task,
                   "same-task charge must keep the task");
        MCS_ASSERT(cost_of(charge.greedy_phone) <= cost_of(charge.opt_phone),
                   "same-task charge requires a cheaper greedy phone");
        break;
    }
    MCS_ASSERT(opt_weight <= greedy_weight,
               "charge not covered by the greedy edge's weight");

    const int kind_bit = charge.kind == ChargeKind::kSamePhone ? 1 : 2;
    int& mask = phone_charges[charge.greedy_phone.value()];
    MCS_ASSERT((mask & kind_bit) == 0,
               "greedy edge charged twice with the same kind");
    mask |= kind_bit;

    charged_total += opt_weight;
    cover_total += greedy_weight;
  }

  // Completeness: every OPT edge was charged.
  for (int t = 0; t < scenario.task_count(); ++t) {
    if (opt.phone_for(TaskId{t})) {
      MCS_ASSERT(opt_edge_charged[static_cast<std::size_t>(t)],
                 "an OPT edge was never charged");
    }
  }

  // The chain of inequalities the charges establish:
  //   omega_OPT = charged_total <= cover_total <= 2 * omega_G.
  MCS_ASSERT(charged_total == certificate.optimal_welfare,
             "charges do not sum to the optimal welfare");
  MCS_ASSERT(cover_total <= certificate.greedy_welfare * 2,
             "cover exceeds twice the greedy welfare");
  MCS_ASSERT(certificate.optimal_welfare <= certificate.greedy_welfare * 2,
             "the 1/2-competitive bound itself");
}

}  // namespace mcs::analysis
