#include "auction/mechanism.hpp"

#include "auction/offline_vcg.hpp"
#include "auction/online_greedy.hpp"
#include "auction/second_price.hpp"
#include "common/error.hpp"

namespace mcs::auction {

Outcome Mechanism::run_truthful(const model::Scenario& scenario) const {
  return run(scenario, scenario.truthful_bids());
}

std::unique_ptr<Mechanism> make_mechanism(std::string_view name,
                                          const OnlineGreedyConfig& greedy) {
  if (name == "online") return std::make_unique<OnlineGreedyMechanism>(greedy);
  if (name == "offline") return std::make_unique<OfflineVcgMechanism>();
  if (name == "second-price") {
    return std::make_unique<SecondPriceBaseline>(greedy);
  }
  throw InvalidArgumentError("unknown mechanism '" + std::string(name) +
                             "' (known: online, offline, second-price)");
}

}  // namespace mcs::auction
