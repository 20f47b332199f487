#include "obs/econ_metrics.hpp"

#include <array>
#include <cmath>

namespace mcs::obs {

double overpayment_ratio(Money total_payment, Money total_cost) {
  if (total_cost.is_zero()) return 0.0;
  const Money overpayment = total_payment - total_cost;
  return overpayment.ratio_to(total_cost);
}

double jain_fairness(const std::vector<Money>& payments) {
  // Work in double micro-units: payments are bounded by task values, and
  // fairness is a reporting ratio, not ledger arithmetic.
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const Money& payment : payments) {
    const double micros = static_cast<double>(payment.micros());
    sum += micros;
    sum_sq += micros * micros;
  }
  if (payments.empty() || sum_sq == 0.0) return 1.0;
  const double n = static_cast<double>(payments.size());
  return (sum * sum) / (n * sum_sq);
}

double coverage_rate(std::int64_t allocated, std::int64_t total) {
  if (total <= 0) return 1.0;
  return static_cast<double>(allocated) / static_cast<double>(total);
}

std::uint64_t ratio_to_sketch_units(double ratio) {
  if (!std::isfinite(ratio) || ratio <= 0.0) return 0;
  return static_cast<std::uint64_t>(std::llround(ratio * 1e6));
}

double sketch_units_to_ratio(double units) { return units / 1e6; }

namespace {

/// The record's plain counters: summed by +=, differenced by -.
constexpr std::array kEconCounts{
    &EconCumulative::rounds,
    &EconCumulative::rounds_skipped,
    &EconCumulative::tasks,
    &EconCumulative::tasks_allocated,
    &EconCumulative::winners,
    &EconCumulative::payment_micros,
    &EconCumulative::claimed_cost_micros,
    &EconCumulative::second_price_payment_micros,
    &EconCumulative::vcg_payment_micros,
    &EconCumulative::vcg_rounds,
    &EconCumulative::probe_rounds,
    &EconCumulative::probe_checks,
    &EconCumulative::probe_unbounded,
    &EconCumulative::violations,
};

}  // namespace

double EconCumulative::coverage() const {
  return coverage_rate(tasks_allocated, tasks);
}

double EconCumulative::overpayment_ratio() const {
  return obs::overpayment_ratio(Money::from_micros(payment_micros),
                                Money::from_micros(claimed_cost_micros));
}

EconCumulative& EconCumulative::operator+=(const EconCumulative& other) {
  for (const auto field : kEconCounts) this->*field += other.*field;
  fairness.merge(other.fairness);
  overpayment.merge(other.overpayment);
  return *this;
}

EconCumulative operator-(EconCumulative later, const EconCumulative& earlier) {
  for (const auto field : kEconCounts) later.*field -= earlier.*field;
  later.fairness = later.fairness.delta_since(earlier.fairness);
  later.overpayment = later.overpayment.delta_since(earlier.overpayment);
  return later;
}

HealthState classify_econ_health(std::int64_t total_violations) {
  return total_violations > 0 ? HealthState::kDegradedEconomics
                              : HealthState::kHealthy;
}

}  // namespace mcs::obs
