#include "arena/policy.hpp"

#include <charconv>
#include <cmath>
#include <sstream>

#include "auction/counterfactual.hpp"
#include "common/assert.hpp"
#include "common/error.hpp"

namespace mcs::arena {

namespace {

/// Parses "name(arg)" into its pieces; `arg` empty when there is none.
struct SpecParts {
  std::string_view head;
  std::string_view arg;
  bool has_arg{false};
};

SpecParts split_spec(std::string_view spec) {
  SpecParts parts;
  const std::size_t open = spec.find('(');
  if (open == std::string_view::npos) {
    parts.head = spec;
    return parts;
  }
  if (spec.back() != ')') {
    throw InvalidArgumentError("policy spec has '(' without trailing ')': " +
                               std::string(spec));
  }
  parts.head = spec.substr(0, open);
  parts.arg = spec.substr(open + 1, spec.size() - open - 2);
  parts.has_arg = true;
  return parts;
}

double parse_double_arg(std::string_view spec, std::string_view arg) {
  double value{};
  const auto* end = arg.data() + arg.size();
  const auto [ptr, ec] = std::from_chars(arg.data(), end, value);
  if (ec != std::errc{} || ptr != end) {
    throw InvalidArgumentError("policy spec has a malformed number: " +
                               std::string(spec));
  }
  return value;
}

Slot::rep_type parse_slot_arg(std::string_view spec, std::string_view arg) {
  Slot::rep_type value{};
  const auto* end = arg.data() + arg.size();
  const auto [ptr, ec] = std::from_chars(arg.data(), end, value);
  if (ec != std::errc{} || ptr != end || value < 0) {
    throw InvalidArgumentError(
        "policy spec needs a nonnegative integer slot count: " +
        std::string(spec));
  }
  return value;
}

}  // namespace

model::Bid BidderPolicy::respond(const auction::CounterfactualEngine& engine,
                                 PhoneId self) const {
  // Non-adaptive default: keep the pass-1 report.
  return engine.bids()[static_cast<std::size_t>(self.value())];
}

model::Bid TruthfulPolicy::report(const model::TrueProfile& profile,
                                  Rng& rng) const {
  return model::TruthfulStrategy{}.report(profile, rng);
}

CostShadePolicy::CostShadePolicy(double factor)
    : strategy_(factor), factor_(factor) {}

model::Bid CostShadePolicy::report(const model::TrueProfile& profile,
                                   Rng& rng) const {
  return strategy_.report(profile, rng);
}

std::string CostShadePolicy::name() const {
  std::ostringstream os;
  os << "shade(" << factor_ << ')';
  return os.str();
}

DelayArrivalPolicy::DelayArrivalPolicy(Slot::rep_type delay)
    : strategy_(delay), delay_(delay) {}

model::Bid DelayArrivalPolicy::report(const model::TrueProfile& profile,
                                      Rng& rng) const {
  return strategy_.report(profile, rng);
}

std::string DelayArrivalPolicy::name() const {
  std::ostringstream os;
  os << "delay(" << delay_ << ')';
  return os.str();
}

EarlyDeparturePolicy::EarlyDeparturePolicy(Slot::rep_type advance)
    : strategy_(advance), advance_(advance) {}

model::Bid EarlyDeparturePolicy::report(const model::TrueProfile& profile,
                                        Rng& rng) const {
  return strategy_.report(profile, rng);
}

std::string EarlyDeparturePolicy::name() const {
  std::ostringstream os;
  os << "early(" << advance_ << ')';
  return os.str();
}

model::Bid BestResponsePolicy::report(const model::TrueProfile& profile,
                                      Rng& rng) const {
  return model::TruthfulStrategy{}.report(profile, rng);
}

model::Bid BestResponsePolicy::respond(
    const auction::CounterfactualEngine& engine, PhoneId self) const {
  const model::Bid base = engine.bids()[static_cast<std::size_t>(self.value())];
  const auto probe = engine.probe_critical_value(self);
  if (!probe.winnable || !probe.critical.has_value()) {
    // Unwinnable: no claim wins, stay truthful. Unbounded (scarcity): the
    // mechanism already pays the scarcity cap regardless of the claim
    // under greedy/VCG; under second-price there is no runner-up to
    // undercut -- raising the claim only risks the allocation. Hold.
    return base;
  }
  const Money critical = *probe.critical;
  if (critical <= base.claimed_cost) {
    // The win threshold is at (or below) the true cost: no profitable
    // upward shade exists.
    return base;
  }
  // Highest claim that still wins: one micro below the first losing claim.
  return model::Bid{base.window, Money::from_micros(critical.micros() - 1)};
}

std::unique_ptr<BidderPolicy> make_policy(std::string_view spec) {
  const SpecParts parts = split_spec(spec);
  const auto require_arg = [&](bool want) {
    if (parts.has_arg != want) {
      throw InvalidArgumentError(
          want ? "policy spec needs a parameter, e.g. shade(1.5): " +
                     std::string(spec)
               : "policy spec takes no parameter: " + std::string(spec));
    }
  };
  if (parts.head == "truthful") {
    require_arg(false);
    return std::make_unique<TruthfulPolicy>();
  }
  if (parts.head == "shade") {
    require_arg(true);
    const double factor = parse_double_arg(spec, parts.arg);
    if (!(factor >= 0.0) || !std::isfinite(factor)) {
      throw InvalidArgumentError("shade factor must be finite and >= 0: " +
                                 std::string(spec));
    }
    return std::make_unique<CostShadePolicy>(factor);
  }
  if (parts.head == "delay") {
    require_arg(true);
    return std::make_unique<DelayArrivalPolicy>(parse_slot_arg(spec, parts.arg));
  }
  if (parts.head == "early") {
    require_arg(true);
    return std::make_unique<EarlyDeparturePolicy>(
        parse_slot_arg(spec, parts.arg));
  }
  if (parts.head == "best-response") {
    require_arg(false);
    return std::make_unique<BestResponsePolicy>();
  }
  throw InvalidArgumentError(
      "unknown policy '" + std::string(spec) +
      "' (known: truthful, shade(F), delay(K), early(K), best-response)");
}

}  // namespace mcs::arena
