// Strategic bidder policies for the arena (the attacker catalog).
//
// A BidderPolicy turns one phone's private profile into the bid it submits
// in an arena round. The non-adaptive policies wrap model::ReportStrategy
// implementations (truthful, cost-shading by a factor, the Fig. 5
// arrival-delay manipulation, early departure); the best-responder is
// adaptive: after every agent's base report is fixed, it probes its own
// greedy critical value through auction::CounterfactualEngine::
// probe_critical_value -- the same read-only seam the flight recorder's
// explain path uses -- and shades its claimed cost to just below that
// threshold. Against the paper's truthful mechanisms the probe is provably
// futile (payment equals the critical value no matter the bid); against
// the per-slot second-price baseline it is exactly the informed attacker
// the Section V-C counterexample warns about.
//
// Every policy must produce a *legal* report (is_legal_report holds): the
// arena models rational-but-constrained smartphones, not malformed input.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "auction/counterfactual.hpp"
#include "common/rng.hpp"
#include "model/scenario.hpp"
#include "model/strategy.hpp"

namespace mcs::arena {

class BidderPolicy {
 public:
  virtual ~BidderPolicy() = default;

  /// Base report from private information alone (pass 1). Must be a legal
  /// report for `profile`.
  [[nodiscard]] virtual model::Bid report(const model::TrueProfile& profile,
                                          Rng& rng) const = 0;

  /// Adaptive policies refine their bid once everyone's base report is on
  /// the table (pass 2). `engine` is a counterfactual engine built over
  /// the full pass-1 profile (this agent's own entry set to its base
  /// report); adaptive agents respond to it independently -- they do not
  /// observe other responders' refinements. A one-shot best response, not
  /// an equilibrium search; sharing one engine amortizes the factual pass
  /// across every responder of the round.
  [[nodiscard]] virtual bool adaptive() const { return false; }
  [[nodiscard]] virtual model::Bid respond(
      const auction::CounterfactualEngine& engine, PhoneId self) const;

  /// Stable identifier used in mix specs, leaderboards, and JSON.
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Reports the private profile unchanged.
class TruthfulPolicy final : public BidderPolicy {
 public:
  [[nodiscard]] model::Bid report(const model::TrueProfile& profile,
                                  Rng& rng) const override;
  [[nodiscard]] std::string name() const override { return "truthful"; }
};

/// Claims cost = true cost * factor (> 1 inflates -- the classic
/// procurement shade; window truthful).
class CostShadePolicy final : public BidderPolicy {
 public:
  explicit CostShadePolicy(double factor);

  [[nodiscard]] model::Bid report(const model::TrueProfile& profile,
                                  Rng& rng) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double factor() const { return factor_; }

 private:
  model::CostMarkupStrategy strategy_;
  double factor_;
};

/// Delays the reported arrival by `delay` slots (Fig. 5(b), clamped so the
/// window stays nonempty).
class DelayArrivalPolicy final : public BidderPolicy {
 public:
  explicit DelayArrivalPolicy(Slot::rep_type delay);

  [[nodiscard]] model::Bid report(const model::TrueProfile& profile,
                                  Rng& rng) const override;
  [[nodiscard]] std::string name() const override;

 private:
  model::DelayedArrivalStrategy strategy_;
  Slot::rep_type delay_;
};

/// Advances the reported departure by `advance` slots (clamped).
class EarlyDeparturePolicy final : public BidderPolicy {
 public:
  explicit EarlyDeparturePolicy(Slot::rep_type advance);

  [[nodiscard]] model::Bid report(const model::TrueProfile& profile,
                                  Rng& rng) const override;
  [[nodiscard]] std::string name() const override;

 private:
  model::EarlyDepartureStrategy strategy_;
  Slot::rep_type advance_;
};

/// The informed attacker: base report is truthful; in the respond pass it
/// builds a CounterfactualEngine over the round, probes its own greedy
/// critical value, and -- when it wins truthfully and the critical value
/// is bounded above its cost -- raises its claimed cost to one micro below
/// the threshold (the highest claim that still wins). Losing or scarce
/// agents stay truthful: shading down to buy a win can only be paid at or
/// below the win threshold, which is below their true cost.
class BestResponsePolicy final : public BidderPolicy {
 public:
  [[nodiscard]] model::Bid report(const model::TrueProfile& profile,
                                  Rng& rng) const override;
  [[nodiscard]] bool adaptive() const override { return true; }
  [[nodiscard]] model::Bid respond(const auction::CounterfactualEngine& engine,
                                   PhoneId self) const override;
  [[nodiscard]] std::string name() const override { return "best-response"; }
};

/// Parses one policy spec: "truthful", "shade(1.5)", "delay(2)",
/// "early(1)", or "best-response". Throws InvalidArgumentError on an
/// unknown name or out-of-domain parameter.
[[nodiscard]] std::unique_ptr<BidderPolicy> make_policy(std::string_view spec);

}  // namespace mcs::arena
