// The mechanism interface: allocation rule + payment rule as one unit.
//
// Definition 8 splits a mechanism into the winning-bids determination rule
// pi and the payment rule p; implementations bundle both behind run(),
// which consumes the scenario (public task arrivals, private profiles used
// only for validation) and the submitted bid profile, and returns the full
// outcome. Every implementation validates its own outcome before returning
// (losers paid zero, allocations inside reported windows).
//
// make_mechanism() is the one catalogue of the mechanisms the paper
// evaluates, by name; the CLI, the flight recorder and the arena resolve
// every mechanism name through it.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "auction/outcome.hpp"
#include "model/scenario.hpp"

namespace mcs::auction {

class Mechanism {
 public:
  virtual ~Mechanism() = default;

  /// Runs allocation + payments on the submitted bids. Implementations are
  /// deterministic functions of (scenario, bids).
  [[nodiscard]] virtual Outcome run(const model::Scenario& scenario,
                                    const model::BidProfile& bids) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Convenience: run on the truthful bid profile.
  [[nodiscard]] Outcome run_truthful(const model::Scenario& scenario) const;
};

struct OnlineGreedyConfig;

/// Builds the mechanism `name` selects:
///   online        Algorithms 1 + 2 (online greedy, critical-value payments)
///   offline       offline VCG
///   second-price  the per-slot second-price rule of Fig. 5 (not truthful)
/// `greedy` configures the two greedy mechanisms; offline VCG takes none.
/// Throws InvalidArgumentError naming the three on any other name.
[[nodiscard]] std::unique_ptr<Mechanism> make_mechanism(
    std::string_view name, const OnlineGreedyConfig& greedy);

}  // namespace mcs::auction
