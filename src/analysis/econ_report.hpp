// Economic leaderboard reporting (mcs_cli econ-report).
//
// Two input modes, one rendering:
//
//  * batch: run a set of mechanisms over generated scenario rounds
//    (truthful bids) and fold every round's RoundMetrics into one exact
//    per-mechanism summary -- the Fig. 9-11 overpayment/welfare numbers,
//    derived through the very same compute_metrics the offline audits
//    use, so the CLI's table agrees with the analysis path to the micro;
//  * stream: summarize an mcs.serve_econ.v1 JSONL snapshot stream written
//    by the live serve econ plane (serve/econ_telemetry.hpp).
//
// Both render as a markdown table, the substrate the ROADMAP's
// strategic-agent arena will rank mechanisms with.
#pragma once

#include <functional>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "analysis/metrics.hpp"
#include "auction/mechanism.hpp"
#include "model/scenario.hpp"

namespace mcs::analysis {

/// Produces the scenario of one round (e.g. serve::loadgen_scenario bound
/// to a LoadGenConfig; analysis cannot depend on serve, so the generator
/// is injected).
using ScenarioGenerator = std::function<model::Scenario(std::int64_t round)>;

/// Exact multi-round economic summary of one mechanism. Money fields are
/// sums over rounds (exact micros); ratios are derived from the summed
/// totals via the single-sourced obs helpers.
struct MechanismEconSummary {
  std::string mechanism;
  std::int64_t rounds{0};
  Money social_welfare;
  Money claimed_welfare;
  Money total_payment;
  Money total_true_cost;
  Money overpayment;
  double overpayment_ratio{0.0};  ///< sigma over the summed totals
  std::int64_t tasks_total{0};
  std::int64_t tasks_allocated{0};
  double coverage{1.0};
  double mean_fairness{1.0};  ///< mean per-round Jain index
  Money platform_utility;
};

/// Runs `mechanism` on truthful bids over `rounds` generated scenarios and
/// folds the per-round metrics. Deterministic given a deterministic
/// generator.
[[nodiscard]] MechanismEconSummary summarize_mechanism(
    const auction::Mechanism& mechanism, const ScenarioGenerator& generator,
    std::int64_t rounds);

/// Renders summaries as a markdown leaderboard sorted by social welfare
/// (descending; ties broken by mechanism name for determinism).
void render_econ_leaderboard(std::ostream& os,
                             std::vector<MechanismEconSummary> summaries);

// ---------------------------------------------------- snapshot streams

/// Cumulative economics at the tail of an mcs.serve_econ.v1 stream.
struct EconStreamSummary {
  std::int64_t snapshots{0};
  std::int64_t first_window{0};
  std::int64_t last_window{0};
  std::string state;  ///< econ health state of the last snapshot
  std::int64_t rounds{0};
  std::int64_t rounds_skipped{0};
  std::int64_t tasks{0};
  std::int64_t tasks_allocated{0};
  std::int64_t winners{0};
  Money payment;
  Money claimed_cost;
  Money second_price_payment;
  Money vcg_payment;
  std::int64_t vcg_rounds{0};
  std::int64_t probe_rounds{0};
  std::int64_t probe_checks{0};
  std::int64_t probe_unbounded{0};  ///< probed winners skipped as unbounded
  std::int64_t violations{0};
  double overpayment_ratio{0.0};
  double coverage{1.0};
};

/// Parses an mcs.serve_econ.v1 JSONL stream (one snapshot per line; blank
/// lines skipped) and returns the cumulative summary of its last
/// snapshot. Throws InvalidArgumentError on malformed lines or a wrong
/// schema tag.
[[nodiscard]] EconStreamSummary summarize_econ_stream(std::istream& is);

/// Renders a stream summary as a small markdown report.
void render_econ_stream(std::ostream& os, const EconStreamSummary& summary);

}  // namespace mcs::analysis
