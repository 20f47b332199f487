#include "analysis/econ_report.hpp"

#include <algorithm>
#include <string>

#include "analysis/report_format.hpp"
#include "common/assert.hpp"
#include "common/error.hpp"
#include "io/json_parse.hpp"
#include "obs/econ_metrics.hpp"

namespace mcs::analysis {

MechanismEconSummary summarize_mechanism(const auction::Mechanism& mechanism,
                                         const ScenarioGenerator& generator,
                                         std::int64_t rounds) {
  MCS_EXPECTS(rounds > 0, "econ-report needs at least one round");
  MechanismEconSummary summary;
  summary.mechanism = mechanism.name();
  summary.rounds = rounds;
  double fairness_sum = 0.0;
  for (std::int64_t round = 0; round < rounds; ++round) {
    const model::Scenario scenario = generator(round);
    const model::BidProfile bids = scenario.truthful_bids();
    const auction::Outcome outcome = mechanism.run(scenario, bids);
    const RoundMetrics metrics = compute_metrics(scenario, bids, outcome);
    summary.social_welfare += metrics.social_welfare;
    summary.claimed_welfare += metrics.claimed_welfare;
    summary.total_payment += metrics.total_payment;
    summary.total_true_cost += metrics.total_true_cost;
    summary.overpayment += metrics.overpayment;
    summary.tasks_total += metrics.tasks_total;
    summary.tasks_allocated += metrics.tasks_allocated;
    summary.platform_utility += metrics.platform_utility;
    fairness_sum += metrics.payment_fairness;
  }
  summary.overpayment_ratio =
      obs::overpayment_ratio(summary.total_payment, summary.total_true_cost);
  summary.coverage =
      obs::coverage_rate(summary.tasks_allocated, summary.tasks_total);
  summary.mean_fairness = fairness_sum / static_cast<double>(rounds);
  return summary;
}

void render_econ_leaderboard(std::ostream& os,
                             std::vector<MechanismEconSummary> summaries) {
  std::sort(summaries.begin(), summaries.end(),
            [](const MechanismEconSummary& a, const MechanismEconSummary& b) {
              if (a.social_welfare != b.social_welfare) {
                return a.social_welfare > b.social_welfare;
              }
              return a.mechanism < b.mechanism;
            });
  os << "| rank | mechanism | welfare | payment | true cost | overpayment "
        "| sigma | coverage | fairness | platform utility |\n"
     << "|---:|---|---:|---:|---:|---:|---:|---:|---:|---:|\n";
  int rank = 0;
  for (const MechanismEconSummary& s : summaries) {
    os << "| " << ++rank << " | " << s.mechanism << " | "
       << s.social_welfare.to_string() << " | " << s.total_payment.to_string()
       << " | " << s.total_true_cost.to_string() << " | "
       << s.overpayment.to_string() << " | "
       << format_ratio(s.overpayment_ratio) << " | "
       << format_ratio(s.coverage) << " | " << format_ratio(s.mean_fairness)
       << " | " << s.platform_utility.to_string() << " |\n";
  }
}

EconStreamSummary summarize_econ_stream(std::istream& is) {
  EconStreamSummary summary;
  std::string line;
  std::int64_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    const io::JsonValue snap = io::parse_json(line);
    const std::string schema = snap.string_or("schema", "");
    if (schema != "mcs.serve_econ.v1") {
      throw InvalidArgumentError("econ stream line " + std::to_string(line_no) +
                                 ": unexpected schema '" + schema + "'");
    }
    if (summary.snapshots == 0) {
      summary.first_window = snap.int_or("window", 0);
    }
    ++summary.snapshots;
    summary.last_window = snap.int_or("window", 0);
    summary.state = snap.string_or("econ_state", "unknown");
    const io::JsonValue& total = snap.at("cumulative");
    summary.rounds = total.int_or("rounds", 0);
    summary.rounds_skipped = total.int_or("rounds_skipped", 0);
    summary.tasks = total.int_or("tasks", 0);
    summary.tasks_allocated = total.int_or("tasks_allocated", 0);
    summary.winners = total.int_or("winners", 0);
    summary.payment = Money::parse(total.at("payment").as_string());
    summary.claimed_cost = Money::parse(total.at("claimed_cost").as_string());
    summary.second_price_payment =
        Money::parse(total.at("second_price_payment").as_string());
    summary.vcg_payment = Money::parse(total.at("vcg_payment").as_string());
    summary.vcg_rounds = total.int_or("vcg_rounds", 0);
    summary.probe_rounds = total.int_or("probe_rounds", 0);
    summary.probe_checks = total.int_or("probe_checks", 0);
    summary.probe_unbounded = total.int_or("probe_unbounded", 0);
    summary.violations = total.int_or("violations", 0);
  }
  if (summary.snapshots == 0) {
    throw InvalidArgumentError("econ stream contained no snapshots");
  }
  summary.overpayment_ratio =
      obs::overpayment_ratio(summary.payment, summary.claimed_cost);
  summary.coverage =
      obs::coverage_rate(summary.tasks_allocated, summary.tasks);
  return summary;
}

void render_econ_stream(std::ostream& os, const EconStreamSummary& s) {
  os << "# serve econ summary\n\n"
     << "- snapshots: " << s.snapshots << " (windows " << s.first_window
     << ".." << s.last_window << ")\n"
     << "- econ state: " << s.state << "\n"
     << "- rounds audited: " << s.rounds << " (skipped " << s.rounds_skipped
     << ")\n"
     << "- sentinel: " << s.probe_rounds << " deep-probed rounds, "
     << s.probe_checks << " winner probes (" << s.probe_unbounded
     << " skipped as unbounded), " << s.violations
     << " violations\n\n"
     << "| metric | value |\n|---|---:|\n"
     << "| tasks | " << s.tasks << " |\n"
     << "| tasks allocated | " << s.tasks_allocated << " |\n"
     << "| coverage | " << format_ratio(s.coverage) << " |\n"
     << "| winners | " << s.winners << " |\n"
     << "| payment | " << s.payment.to_string() << " |\n"
     << "| claimed cost | " << s.claimed_cost.to_string() << " |\n"
     << "| overpayment ratio | " << format_ratio(s.overpayment_ratio)
     << " |\n"
     << "| second-price reference payment | "
     << s.second_price_payment.to_string() << " |\n"
     << "| vcg reference payment | " << s.vcg_payment.to_string() << " ("
     << s.vcg_rounds << " rounds) |\n";
}

}  // namespace mcs::analysis
