// Critical-value probes over one frozen (scenario, bids, config) round.
//
// Every bisection probe of a critical value asks "does phone i still win
// when claiming cost c, all other bids fixed?". The engine runs the
// factual round once on a GreedyRound and answers each probe with
// GreedyRound::wins_with, which forks at i's reported arrival (the run is
// identical before it: B_i cannot influence a pool it has not joined) and
// replays only [a~_i, d~_i] with the same Algorithm 1 slot step.
//
// The engine is read-only after construction and safe to share across
// threads; counters are recorded through the caller thread's
// obs::current_registry().
#pragma once

#include <optional>

#include "auction/greedy_round.hpp"
#include "auction/online_greedy.hpp"
#include "common/money.hpp"
#include "model/scenario.hpp"

namespace mcs::auction {

/// Counterfactual evaluator over one (scenario, bids, config) triple.
///
/// Holds references to the scenario and bid profile: both must outlive the
/// engine. All public methods are const and thread-safe; counters are
/// recorded through the caller thread's obs::current_registry(), so
/// parallel callers with worker-local registries merge deterministically.
class CounterfactualEngine {
 public:
  /// Runs the factual round once (event recording is suppressed for its
  /// scope: the factual trail, if wanted, is the caller's to record).
  CounterfactualEngine(const model::Scenario& scenario,
                       const model::BidProfile& bids,
                       const OnlineGreedyConfig& config);

  /// Does `phone` win when claiming `cost` on its reported window, all
  /// other bids fixed? Equivalent to re-running the full allocation on
  /// with_bid(bids, phone, {window, cost}).
  [[nodiscard]] bool wins_with_cost(PhoneId phone, Money cost) const;

  /// Result of a public critical-value probe (critical_value_of).
  struct CriticalValueProbe {
    /// Whether the phone wins at claimed cost 0 (all other bids fixed).
    /// When false there is no winning claim at all and `critical` is empty.
    bool winnable{false};
    /// Bounded critical claimed cost when one exists; empty when the phone
    /// is unwinnable, or wins at every probed cost (supply scarcity).
    std::optional<Money> critical;
  };

  /// Read-only critical-value probe of `phone` under the greedy rule with
  /// everyone else's reported bids fixed -- the seam the flight recorder's
  /// explain path uses, exposed so strategic-agent code (the arena's
  /// best-responder) can ask "what is the highest claim that still wins?"
  /// without duplicating the bisection. Delegates to
  /// greedy_critical_value(*this, phone) after screening out unwinnable
  /// phones (which the bisection preconditions away). Thread-safe.
  [[nodiscard]] CriticalValueProbe critical_value_of(PhoneId phone) const;

  [[nodiscard]] const model::Scenario& scenario() const { return scenario_; }
  [[nodiscard]] const model::BidProfile& bids() const { return bids_; }
  [[nodiscard]] const OnlineGreedyConfig& config() const {
    return round_.config();
  }

 private:
  const model::Scenario& scenario_;
  const model::BidProfile& bids_;
  GreedyRound round_;  ///< the factual round, advanced to its horizon
};

}  // namespace mcs::auction
