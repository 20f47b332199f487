#include "auction/counterfactual.hpp"

#include "auction/critical_value.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"

namespace mcs::auction {

namespace {

/// The factual pass exists only to record win slots for the forks; its
/// allocation decisions are not decisions of any recorded run.
GreedyRound factual_round(const model::Scenario& scenario,
                          const model::BidProfile& bids,
                          const OnlineGreedyConfig& config) {
  const obs::ScopedEventLog suppress_factual(nullptr);
  GreedyRound round(scenario, bids, config);
  while (!round.finished()) (void)round.advance();
  obs::count("auction.counterfactual.engine_builds");
  return round;
}

}  // namespace

CounterfactualEngine::CounterfactualEngine(const model::Scenario& scenario,
                                           const model::BidProfile& bids,
                                           const OnlineGreedyConfig& config)
    : scenario_(scenario),
      bids_(bids),
      round_(factual_round(scenario, bids, config)) {}

bool CounterfactualEngine::wins_with_cost(PhoneId phone, Money cost) const {
  return round_.wins_with(
      phone, model::Bid{bids_[static_cast<std::size_t>(phone.value())].window,
                        cost});
}

CounterfactualEngine::CriticalValueProbe CounterfactualEngine::
    critical_value_of(PhoneId phone) const {
  CriticalValueProbe probe;
  probe.winnable = wins_with_cost(phone, Money{});
  if (!probe.winnable) return probe;
  probe.critical = greedy_critical_value(*this, phone);
  return probe;
}

}  // namespace mcs::auction
