#include "model/workload.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/error.hpp"

namespace mcs::model {

std::string to_string(CostDistribution distribution) {
  switch (distribution) {
    case CostDistribution::kUniform:
      return "uniform";
    case CostDistribution::kNormal:
      return "normal";
    case CostDistribution::kExponential:
      return "exponential";
  }
  return "?";
}

namespace {

double profile_multiplier(const std::vector<double>& profile,
                          Slot::rep_type slot, Slot::rep_type num_slots) {
  if (profile.empty()) return 1.0;
  const auto index = static_cast<std::size_t>(
      (static_cast<std::int64_t>(slot) - 1) *
      static_cast<std::int64_t>(profile.size()) / num_slots);
  return profile[std::min(index, profile.size() - 1)];
}

void validate_profile(const std::vector<double>& profile, const char* name) {
  for (const double multiplier : profile) {
    if (multiplier < 0.0 || !std::isfinite(multiplier)) {
      throw InvalidArgumentError(std::string(name) +
                                 " multipliers must be finite and >= 0");
    }
  }
}

}  // namespace

double WorkloadConfig::phone_rate_at(Slot::rep_type slot) const {
  return phone_arrival_rate *
         profile_multiplier(phone_rate_profile, slot, num_slots);
}

double WorkloadConfig::task_rate_at(Slot::rep_type slot) const {
  return task_arrival_rate *
         profile_multiplier(task_rate_profile, slot, num_slots);
}

void WorkloadConfig::validate() const {
  if (num_slots < 1) throw InvalidArgumentError("num_slots must be >= 1");
  validate_profile(phone_rate_profile, "phone_rate_profile");
  validate_profile(task_rate_profile, "task_rate_profile");
  if (phone_arrival_rate < 0.0 || !std::isfinite(phone_arrival_rate)) {
    throw InvalidArgumentError("phone_arrival_rate must be finite and >= 0");
  }
  if (task_arrival_rate < 0.0 || !std::isfinite(task_arrival_rate)) {
    throw InvalidArgumentError("task_arrival_rate must be finite and >= 0");
  }
  if (mean_cost < 1.0 || !std::isfinite(mean_cost)) {
    throw InvalidArgumentError("mean_cost must be finite and >= 1");
  }
  if (mean_active_length < 1.0 || !std::isfinite(mean_active_length)) {
    throw InvalidArgumentError("mean_active_length must be finite and >= 1");
  }
  if (task_value.is_negative()) {
    throw InvalidArgumentError("task_value must be nonnegative");
  }
}

namespace {

Money draw_cost(const WorkloadConfig& config, Rng& rng) {
  switch (config.cost_distribution) {
    case CostDistribution::kUniform: {
      // Integer units on [1, 2*mean - 1]: mean exactly c-bar for integer
      // c-bar, support strictly positive.
      const auto hi = static_cast<std::int64_t>(
          std::llround(2.0 * config.mean_cost)) - 1;
      UniformIntSampler sampler(1, std::max<std::int64_t>(1, hi));
      return Money::from_units(sampler.sample(rng));
    }
    case CostDistribution::kNormal: {
      NormalSampler sampler(config.mean_cost, config.mean_cost / 4.0);
      return Money::from_double(
          sampler.sample_truncated(rng, 0.5, 2.0 * config.mean_cost));
    }
    case CostDistribution::kExponential: {
      const ExponentialSampler sampler(1.0 / config.mean_cost);
      double x;
      do {
        x = sampler.sample(rng);
      } while (x <= 0.0 || x > 4.0 * config.mean_cost);
      return Money::from_double(x);
    }
  }
  throw InvalidArgumentError("unknown cost distribution");
}

}  // namespace

Scenario generate_scenario(const WorkloadConfig& config, Rng& rng) {
  config.validate();

  Scenario scenario;
  scenario.num_slots = config.num_slots;
  scenario.task_value = config.task_value;

  const bool homogeneous =
      config.phone_rate_profile.empty() && config.task_rate_profile.empty();
  const PoissonSampler phone_arrivals(config.phone_arrival_rate);
  const PoissonSampler task_arrivals(config.task_arrival_rate);
  const auto max_length = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::llround(2.0 * config.mean_active_length)) - 1);
  const UniformIntSampler length_sampler(1, max_length);

  for (Slot::rep_type t = 1; t <= config.num_slots; ++t) {
    const std::int64_t phones =
        homogeneous ? phone_arrivals.sample(rng)
                    : PoissonSampler(config.phone_rate_at(t)).sample(rng);
    for (std::int64_t k = 0; k < phones; ++k) {
      const auto length =
          static_cast<Slot::rep_type>(length_sampler.sample(rng));
      const Slot::rep_type depart =
          std::min<Slot::rep_type>(t + length - 1, config.num_slots);
      scenario.phones.push_back(
          TrueProfile{SlotInterval::of(t, depart), draw_cost(config, rng)});
    }
    const std::int64_t tasks =
        homogeneous ? task_arrivals.sample(rng)
                    : PoissonSampler(config.task_rate_at(t)).sample(rng);
    for (std::int64_t k = 0; k < tasks; ++k) {
      scenario.tasks.push_back(
          Task{TaskId{static_cast<int>(scenario.tasks.size())}, Slot{t}});
    }
  }

  scenario.validate();
  return scenario;
}

Scenario round_scenario(const WorkloadConfig& config, std::uint64_t seed,
                        std::int64_t round) {
  Rng rng = Rng(seed).fork(static_cast<std::uint64_t>(round));
  return generate_scenario(config, rng);
}

}  // namespace mcs::model
