#include "serve/econ_telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "analysis/metrics.hpp"
#include "analysis/rationality.hpp"
#include "auction/counterfactual.hpp"
#include "auction/critical_value.hpp"
#include "auction/offline_vcg.hpp"
#include "auction/second_price.hpp"
#include "common/assert.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "io/json.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace mcs::serve {

bool econ_probe_sampled(std::int64_t round, std::int64_t probe_every) {
  if (probe_every <= 0) return false;
  const std::uint64_t mixed =
      SplitMix64(static_cast<std::uint64_t>(round)).next();
  return mixed % static_cast<std::uint64_t>(probe_every) == 0;
}

// ----------------------------------------------------------- EconTelemetry

EconTelemetry::EconTelemetry(EconTelemetryConfig config)
    : config_(config),
      clock_(config.clock != nullptr ? config.clock : &obs::steady_clock()) {}

void EconTelemetry::attach(int shards) {
  MCS_EXPECTS(shards >= 1, "econ telemetry requires >= 1 shard");
  const std::lock_guard<std::mutex> lock(snapshot_mutex_);
  start_ns_ = clock_->now_ns();
  slots_.clear();
  for (int i = 0; i < shards; ++i) {
    slots_.push_back(std::make_unique<ShardSlot>());
  }
  shard_windows_.clear();
  shard_windows_.resize(static_cast<std::size_t>(shards));
  total_window_ = obs::RollingWindow<obs::EconCumulative>();
}

std::uint64_t EconTelemetry::now_ns() {
  const std::uint64_t now = clock_->now_ns();
  return now >= start_ns_ ? now - start_ns_ : 0;
}

void EconTelemetry::add(int shard, const obs::EconCumulative& round) {
  ShardSlot& slot = *slots_[static_cast<std::size_t>(shard)];
  const std::lock_guard<std::mutex> lock(slot.mutex);
  slot.totals += round;
}

obs::EconCumulative EconTelemetry::sample(ShardSlot& slot) {
  const std::lock_guard<std::mutex> lock(slot.mutex);
  return slot.totals;
}

void EconTelemetry::report_violation(int shard, std::int64_t round,
                                     std::string_view kind, std::int32_t phone,
                                     Money observed, Money expected) {
  // The one sanctioned registry write of this plane: bumped only on an
  // actual violation, and the probe sampler is round-seeded, so the
  // counter is a deterministic function of the stream.
  obs::count("econ.violations");
  if (config_.events != nullptr) {
    obs::Event event("econ_violation");
    event.phone = phone;
    event.with("round", round)
        .with("shard", static_cast<std::int64_t>(shard))
        .with("kind", std::string(kind))
        .with("observed", observed)
        .with("expected", expected);
    config_.events->append(std::move(event));
  }
}

std::int64_t EconTelemetry::observe_round(int shard, RoundMachine& machine,
                                          const RoundOutcome& result) {
  obs::EconCumulative round;
  if (!machine.capture_complete()) {
    round.rounds_skipped = 1;
    add(shard, round);
    return 0;
  }
  CapturedRound captured = machine.take_captured();

  struct Violation {
    std::string kind;
    std::int32_t phone;
    Money observed;
    Money expected;
  };
  std::vector<Violation> violations;

  {
    // Quarantine: reference mechanisms, counterfactual probes, and metric
    // derivation are econ-plane bookkeeping, not decisions of the run.
    // Nothing inside this scope may touch the deterministic counter plane
    // or the primary event trail.
    const obs::ScopedRegistry quarantine(nullptr);
    const obs::ScopedEventLog suppress(nullptr);

    try {
      captured.scenario.validate();
      model::validate_bids(captured.scenario, captured.bids);
    } catch (const Error&) {
      // Untrusted stream produced an unreconstructable round; skipped, not
      // a mechanism violation.
      round.rounds_skipped = 1;
      add(shard, round);
      return 0;
    }

    // Cheap exact invariants, every round. Non-throwing by design.
    for (const analysis::InvariantViolation& v :
         analysis::check_round_invariants(captured.scenario, captured.bids,
                                          result.outcome, result.total_paid)) {
      violations.push_back(Violation{std::string(analysis::to_string(v.kind)),
                                     v.phone.value(), v.observed, v.expected});
    }

    try {
      const analysis::RoundMetrics metrics = analysis::compute_metrics(
          captured.scenario, captured.bids, result.outcome);
      round.tasks = metrics.tasks_total;
      round.tasks_allocated = metrics.tasks_allocated;
      round.winners = static_cast<std::int64_t>(
          result.outcome.allocation.winners().size());
      round.payment_micros = metrics.total_payment.micros();
      round.claimed_cost_micros = metrics.total_true_cost.micros();
      round.fairness.record_ns(
          obs::ratio_to_sketch_units(metrics.payment_fairness));
      round.overpayment.record_ns(
          obs::ratio_to_sketch_units(metrics.overpayment_ratio));
    } catch (const Error&) {
      // Structurally broken outcome (e.g. allocation outside a reported
      // window): the invariant list above already carries what we know.
    }

    try {
      round.second_price_payment_micros =
          auction::SecondPriceBaseline(config_.greedy)
              .run(captured.scenario, captured.bids)
              .total_payment()
              .micros();
    } catch (const Error&) {
    }
    if (captured.scenario.phone_count() <= kVcgMaxPhones &&
        captured.scenario.task_count() <= kVcgMaxTasks) {
      try {
        round.vcg_payment_micros =
            auction::OfflineVcgMechanism()
                .run(captured.scenario, captured.bids)
                .total_payment()
                .micros();
        round.vcg_rounds = 1;
      } catch (const Error&) {
      }
    }

    if (econ_probe_sampled(result.round, config_.probe_every)) {
      try {
        const auction::CounterfactualEngine engine(
            captured.scenario, captured.bids, config_.greedy);
        std::int64_t checks = 0;
        std::int64_t unbounded = 0;
        for (const PhoneId winner : result.outcome.allocation.winners()) {
          const Money paid = result.outcome.payments[static_cast<std::size_t>(
              winner.value())];
          const auction::PaymentAudit audit =
              auction::audit_winner_payment(engine, winner, paid);
          ++checks;
          if (audit.verdict ==
              auction::PaymentAuditVerdict::kUnboundedSkipped) {
            ++unbounded;
          }
          if (audit.verdict == auction::PaymentAuditVerdict::kLosesAtClaim) {
            violations.push_back(
                Violation{"probe-loses-at-claim", winner.value(), paid,
                          captured.bids[static_cast<std::size_t>(
                                            winner.value())]
                              .claimed_cost});
          } else if (audit.verdict ==
                     auction::PaymentAuditVerdict::kPaymentNotCritical) {
            violations.push_back(Violation{"probe-payment-not-critical",
                                           winner.value(), paid,
                                           *audit.critical});
          }
        }
        round.probe_rounds = 1;
        round.probe_checks = checks;
        round.probe_unbounded = unbounded;
      } catch (const Error&) {
        // A probe that cannot even replay the round is a skip, not proof
        // of mispricing; the cheap invariants above still stand.
      }
    }
  }

  // Outside the quarantine: violation accounting is the plane's one
  // deterministic side effect.
  for (const Violation& v : violations) {
    report_violation(shard, result.round, v.kind, v.phone, v.observed,
                     v.expected);
  }
  round.rounds = 1;
  round.violations = static_cast<std::int64_t>(violations.size());
  add(shard, round);
  return round.violations;
}

EconSnapshot EconTelemetry::take_snapshot() {
  const std::lock_guard<std::mutex> lock(snapshot_mutex_);
  const std::uint64_t now = now_ns();
  EconSnapshot snapshot;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const obs::EconCumulative record = sample(*slots_[i]);
    snapshot.cumulative += record;
    snapshot.shards.push_back(shard_windows_[i].roll(now, record));
  }
  snapshot.total = total_window_.roll(now, snapshot.cumulative);
  snapshot.state = obs::classify_econ_health(snapshot.cumulative.violations);
  return snapshot;
}

std::int64_t EconTelemetry::violations() const {
  std::int64_t total = 0;
  for (const std::unique_ptr<ShardSlot>& slot : slots_) {
    const std::lock_guard<std::mutex> lock(slot->mutex);
    total += slot->totals.violations;
  }
  return total;
}

// -------------------------------------------------------- JSONL rendering

namespace {

std::int64_t to_ms(std::uint64_t ns) {
  return static_cast<std::int64_t>(ns / 1'000'000ULL);
}

/// Micro-ratio sketch quantile as a plain ratio field (null when empty).
void write_ratio_fields(io::JsonWriter& json, std::string_view prefix,
                        const obs::LatencySketchSnapshot& sketch) {
  const auto field = [&](std::string_view suffix, double units) {
    json.field(std::string(prefix) + std::string(suffix),
               obs::sketch_units_to_ratio(units));
  };
  field("_p50", sketch.quantile_ns(0.50));
  field("_p95", sketch.quantile_ns(0.95));
}

std::string micros_string(std::int64_t micros) {
  return Money::from_micros(micros).to_string();
}

}  // namespace

void write_econ_snapshot(std::ostream& os, const EconSnapshot& snapshot) {
  const EconWindow& total = snapshot.total;
  const obs::EconCumulative& window = total.delta;
  const obs::EconCumulative& cumulative = snapshot.cumulative;
  {
    io::JsonWriter json(os);
    json.begin_object();
    json.field("schema", "mcs.serve_econ.v1");
    json.field("window", total.index);
    json.field("at_ms", to_ms(total.end_ns));
    json.field("span_ms", to_ms(total.end_ns - total.begin_ns));
    json.field("econ_state", obs::to_string(snapshot.state));
    json.field("rounds", window.rounds);
    json.field("rounds_skipped", window.rounds_skipped);
    json.field("rounds_per_sec", total.per_second(window.rounds));
    json.field("tasks", window.tasks);
    json.field("tasks_allocated", window.tasks_allocated);
    json.field("coverage", window.coverage());
    json.field("winners", window.winners);
    json.field("payment", micros_string(window.payment_micros));
    json.field("claimed_cost", micros_string(window.claimed_cost_micros));
    json.field("overpayment_ratio", window.overpayment_ratio());
    json.field("second_price_payment",
               micros_string(window.second_price_payment_micros));
    json.field("vcg_payment", micros_string(window.vcg_payment_micros));
    json.field("vcg_rounds", window.vcg_rounds);
    write_ratio_fields(json, "fairness", window.fairness);
    write_ratio_fields(json, "overpayment", window.overpayment);
    json.field("probe_rounds", window.probe_rounds);
    json.field("probe_checks", window.probe_checks);
    json.field("probe_unbounded", window.probe_unbounded);
    json.field("violations", window.violations);
    json.key("cumulative");
    json.begin_object();
    json.field("rounds", cumulative.rounds);
    json.field("rounds_skipped", cumulative.rounds_skipped);
    json.field("tasks", cumulative.tasks);
    json.field("tasks_allocated", cumulative.tasks_allocated);
    json.field("winners", cumulative.winners);
    json.field("payment", micros_string(cumulative.payment_micros));
    json.field("claimed_cost", micros_string(cumulative.claimed_cost_micros));
    json.field("second_price_payment",
               micros_string(cumulative.second_price_payment_micros));
    json.field("vcg_payment", micros_string(cumulative.vcg_payment_micros));
    json.field("vcg_rounds", cumulative.vcg_rounds);
    json.field("probe_rounds", cumulative.probe_rounds);
    json.field("probe_checks", cumulative.probe_checks);
    json.field("probe_unbounded", cumulative.probe_unbounded);
    json.field("violations", cumulative.violations);
    json.end_object();
    json.key("shards");
    json.begin_array();
    for (std::size_t i = 0; i < snapshot.shards.size(); ++i) {
      const obs::EconCumulative& shard = snapshot.shards[i].delta;
      json.begin_object();
      json.field("shard", static_cast<std::int64_t>(i));
      json.field("rounds", shard.rounds);
      json.field("payment", micros_string(shard.payment_micros));
      json.field("violations", shard.violations);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  os << '\n';
}

// --------------------------------------------------- Prometheus rendering

void render_econ_prometheus(std::ostream& os, const EconSnapshot& snapshot) {
  const EconWindow& total = snapshot.total;
  const obs::EconCumulative& window = total.delta;
  obs::MetricsRegistry registry;
  const auto gauge = [&](const std::string& name, double value,
                         std::string_view help = {}) {
    if (std::isfinite(value)) registry.gauge(name, help).set(value);
  };
  gauge("serve.econ.window", static_cast<double>(total.index),
        "monotone econ snapshot window index");
  gauge("serve.econ.state", static_cast<double>(snapshot.state),
        "econ health severity: 0 healthy, 4 degraded-economics");
  gauge("serve.econ.rounds_per_sec", total.per_second(window.rounds),
        "rounds audited per second in the last window");
  gauge("serve.econ.coverage", window.coverage(),
        "fraction of announced tasks allocated in the last window");
  gauge("serve.econ.overpayment_ratio", window.overpayment_ratio(),
        "window sigma: (payment - claimed cost) / claimed cost");
  gauge("serve.econ.payment",
        Money::from_micros(window.payment_micros).to_double(),
        "payment disbursed in the last window (units)");
  gauge("serve.econ.second_price_payment",
        Money::from_micros(window.second_price_payment_micros).to_double(),
        "per-slot second-price reference payment for the window (units)");
  gauge("serve.econ.fairness_p50",
        obs::sketch_units_to_ratio(window.fairness.quantile_ns(0.50)),
        "per-round Jain payment-fairness index, window p50");
  gauge("serve.econ.violations",
        static_cast<double>(snapshot.cumulative.violations),
        "sentinel violations observed since attach");
  gauge("serve.econ.probe_rounds",
        static_cast<double>(snapshot.cumulative.probe_rounds),
        "rounds deep-probed since attach");
  gauge("serve.econ.probe_unbounded",
        static_cast<double>(snapshot.cumulative.probe_unbounded),
        "probed winners skipped as unbounded (scarcity) since attach");
  for (std::size_t i = 0; i < snapshot.shards.size(); ++i) {
    const std::string prefix = "serve.econ.shard." + std::to_string(i) + ".";
    gauge(prefix + "rounds", static_cast<double>(snapshot.shards[i].delta.rounds));
    gauge(prefix + "violations",
          static_cast<double>(snapshot.shards[i].delta.violations));
  }
  obs::write_prometheus(os, registry);
}

}  // namespace mcs::serve
