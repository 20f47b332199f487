#include "analysis/flight.hpp"

#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "auction/batched_matching.hpp"
#include "auction/counterfactual.hpp"
#include "auction/critical_value.hpp"
#include "auction/offline_vcg.hpp"
#include "auction/online_greedy.hpp"
#include "auction/second_price.hpp"
#include "common/error.hpp"
#include "io/json_parse.hpp"
#include "model/scenario_io.hpp"

namespace mcs::analysis {

namespace {

auction::OnlineGreedyConfig online_config(const RunSpec& spec) {
  auction::OnlineGreedyConfig config;
  config.allocate_only_profitable = spec.profitable_only;
  if (spec.reserve > 0.0) {
    config.reserve_price = Money::from_double(spec.reserve);
  }
  return config;
}

}  // namespace

std::unique_ptr<auction::Mechanism> make_mechanism(const RunSpec& spec) {
  if (spec.mechanism == "online") {
    return std::make_unique<auction::OnlineGreedyMechanism>(
        online_config(spec));
  }
  if (spec.mechanism == "offline") {
    return std::make_unique<auction::OfflineVcgMechanism>();
  }
  if (spec.mechanism == "second-price") {
    auction::SecondPriceConfig config;
    config.allocation = online_config(spec);
    return std::make_unique<auction::SecondPriceBaseline>(config);
  }
  if (spec.mechanism == "batched") {
    return std::make_unique<auction::BatchedMatchingMechanism>(
        auction::BatchedMatchingConfig{
            static_cast<Slot::rep_type>(spec.batch)});
  }
  throw InvalidArgumentError(
      "unknown mechanism '" + spec.mechanism +
      "' (expected online, offline, second-price, or batched)");
}

// --------------------------------------------------------- encodings

std::string encode_bids(const model::BidProfile& bids) {
  std::ostringstream os;
  for (const model::Bid& bid : bids) {
    os << bid.window.begin().value() << ' ' << bid.window.end().value() << ' '
       << bid.claimed_cost.to_string() << ';';
  }
  return os.str();
}

model::BidProfile decode_bids(const std::string& text) {
  model::BidProfile bids;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t semi = text.find(';', pos);
    if (semi == std::string::npos) {
      throw InvalidArgumentError("malformed bid encoding: missing ';'");
    }
    std::istringstream entry(text.substr(pos, semi - pos));
    Slot::rep_type begin = 0;
    Slot::rep_type end = 0;
    std::string cost;
    if (!(entry >> begin >> end >> cost)) {
      throw InvalidArgumentError("malformed bid encoding near offset " +
                                 std::to_string(pos));
    }
    bids.push_back(model::Bid{SlotInterval::of(begin, end),
                              Money::parse(cost)});
    pos = semi + 1;
  }
  return bids;
}

std::string encode_outcome(const auction::Outcome& outcome) {
  std::ostringstream os;
  os << "alloc";
  for (int t = 0; t < outcome.allocation.task_count(); ++t) {
    const auto phone = outcome.allocation.phone_for(TaskId{t});
    os << ' ' << (phone ? phone->value() : -1);
  }
  os << " pay";
  for (const Money payment : outcome.payments) {
    os << ' ' << payment.to_string();
  }
  return os.str();
}

// --------------------------------------------------------- record_run

auction::Outcome record_run(obs::EventLog& log, const RunSpec& spec,
                            const model::Scenario& scenario,
                            const model::BidProfile& bids,
                            bool probe_critical_values) {
  scenario.validate();
  model::validate_bids(scenario, bids);
  const std::unique_ptr<auction::Mechanism> mechanism = make_mechanism(spec);

  const obs::ScopedEventLog install(&log);
  {
    std::ostringstream scenario_text;
    model::write_scenario(scenario_text, scenario);
    obs::Event started("run_started");
    started.with("mechanism", spec.mechanism)
        .with("reserve", spec.reserve)
        .with("profitable_only", spec.profitable_only)
        .with("batch", spec.batch)
        .with("phones", static_cast<std::int64_t>(scenario.phone_count()))
        .with("tasks", static_cast<std::int64_t>(scenario.task_count()))
        .with("slots", static_cast<std::int64_t>(scenario.num_slots))
        .with("scenario", scenario_text.str())
        .with("bids", encode_bids(bids));
    log.append(std::move(started));
  }

  const auction::Outcome outcome = mechanism->run(scenario, bids);

  if (probe_critical_values && spec.mechanism == "online") {
    // Winner probe trails: the bisection records every probe into the
    // installed log (its inner allocation re-runs stay suppressed), so
    // explain_phone can trace the payment back to the critical bid. One
    // shared-prefix engine serves every winner's probes -- a single
    // factual pass, then per-probe forks at each winner's arrival.
    const auction::OnlineGreedyConfig config = online_config(spec);
    const auction::CounterfactualEngine engine(scenario, bids, config);
    for (const PhoneId winner : outcome.allocation.winners()) {
      (void)auction::greedy_critical_value(engine, winner);
    }
  }

  {
    obs::Event finished("run_finished");
    finished.with("outcome", encode_outcome(outcome))
        .with("winners", static_cast<std::int64_t>(
                             outcome.allocation.winners().size()))
        .with("total_payment", outcome.total_payment());
    log.append(std::move(finished));
  }
  return outcome;
}

// --------------------------------------------------------- replay_run

namespace {

/// Parses the stream line by line; returns every record and checks the
/// schema header.
std::vector<io::JsonValue> read_log(std::istream& is) {
  std::vector<io::JsonValue> records;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    records.push_back(io::parse_json(line));
  }
  if (records.empty()) {
    throw InvalidArgumentError("event log is empty");
  }
  const io::JsonValue& header = records.front();
  if (header.string_or("type", "") != "log_header" ||
      header.string_or("schema", "") != obs::EventLog::kSchema) {
    throw InvalidArgumentError(
        "not a mcs.events.v1 log (missing log_header record)");
  }
  return records;
}

}  // namespace

ReplayReport replay_run(std::istream& events_jsonl) {
  const std::vector<io::JsonValue> records = read_log(events_jsonl);

  const io::JsonValue* started = nullptr;
  const io::JsonValue* finished = nullptr;
  for (const io::JsonValue& record : records) {
    const std::string type = record.string_or("type", "");
    if (type == "run_started") {
      if (started != nullptr) {
        throw InvalidArgumentError(
            "replay expects exactly one recorded run per log");
      }
      started = &record;
    } else if (type == "run_finished") {
      finished = &record;
    }
  }
  if (started == nullptr || finished == nullptr) {
    throw InvalidArgumentError(
        "log holds no complete run (record it with mcs_cli run "
        "--events-out)");
  }

  RunSpec spec;
  spec.mechanism = started->at("mechanism").as_string();
  spec.reserve = started->at("reserve").as_number();
  spec.profitable_only = started->at("profitable_only").as_bool();
  spec.batch = started->at("batch").as_int();

  std::istringstream scenario_text(started->at("scenario").as_string());
  const model::Scenario scenario = model::read_scenario(scenario_text);
  const model::BidProfile bids = decode_bids(started->at("bids").as_string());

  ReplayReport report;
  report.mechanism = spec.mechanism;
  report.events = records.size();
  report.recorded = finished->at("outcome").as_string();
  {
    // The oracle re-run must not append to any installed log.
    const obs::ScopedEventLog suppress(nullptr);
    report.reproduced = encode_outcome(make_mechanism(spec)->run(scenario, bids));
  }
  report.clean = report.recorded == report.reproduced;
  if (!report.clean) {
    std::size_t at = 0;
    while (at < report.recorded.size() && at < report.reproduced.size() &&
           report.recorded[at] == report.reproduced[at]) {
      ++at;
    }
    report.diff = "outcomes diverge at byte " + std::to_string(at) +
                  ": recorded \"" + report.recorded + "\" vs reproduced \"" +
                  report.reproduced + "\"";
  }
  return report;
}

// ------------------------------------------------------- explain_phone

namespace {

std::string attr_or(const io::JsonValue& record, std::string_view key,
                    std::string fallback) {
  return record.string_or(key, std::move(fallback));
}

}  // namespace

std::string explain_phone(std::istream& events_jsonl, int phone) {
  const std::vector<io::JsonValue> records = read_log(events_jsonl);
  std::ostringstream out;
  bool mentioned = false;
  bool won = false;

  for (const io::JsonValue& record : records) {
    const std::string type = record.string_or("type", "");
    const std::int64_t record_phone = record.int_or("phone", -1);
    const std::int64_t slot = record.int_or("slot", -1);
    const std::int64_t task = record.int_or("task", -1);

    if (type == "run_started") {
      out << "phone " << phone << " in a '"
          << attr_or(record, "mechanism", "?") << "' run ("
          << record.int_or("phones", 0) << " phones, "
          << record.int_or("tasks", 0) << " tasks, "
          << record.int_or("slots", 0) << " slots)\n";
      continue;
    }
    if (type == "slot_pool") {
      if (const io::JsonValue* pool = record.find("pool")) {
        const auto& ids = pool->as_array();
        for (std::size_t k = 0; k < ids.size(); ++k) {
          if (ids[k].as_int() != phone) continue;
          out << "slot " << slot << ": candidate " << (k + 1) << " of "
              << ids.size() << " in the pool (cheapest first)\n";
          mentioned = true;
          break;
        }
      }
      continue;
    }
    if (record_phone != phone) continue;
    mentioned = true;

    if (type == "bid_admitted") {
      out << "slot " << slot << ": bid " << attr_or(record, "bid", "?")
          << " admitted, departs slot " << record.int_or("departs", -1)
          << '\n';
    } else if (type == "bid_rejected") {
      out << "slot " << slot << ": bid " << attr_or(record, "bid", "?")
          << " REJECTED (" << attr_or(record, "reason", "?") << ", reserve "
          << attr_or(record, "reserve", "?") << ")\n";
    } else if (type == "task_assigned") {
      won = true;
      out << "slot " << slot << ": WON task " << task << " at bid "
          << attr_or(record, "bid", "?") << " (task value "
          << attr_or(record, "task_value", "?") << ")";
      if (record.find("runner_up_phone") != nullptr) {
        out << "; runner-up phone " << record.int_or("runner_up_phone", -1)
            << " at " << attr_or(record, "runner_up_bid", "?");
      }
      out << '\n';
    } else if (type == "winner_selected") {
      won = true;
      out << "task " << task << " (slot " << slot << "): SELECTED with weight "
          << attr_or(record, "weight", "?");
      if (record.find("runner_up_phone") != nullptr) {
        out << "; runner-up phone " << record.int_or("runner_up_phone", -1)
            << " at weight " << attr_or(record, "runner_up_weight", "?");
      }
      out << '\n';
    } else if (type == "critical_probe") {
      out << "  probe bid " << attr_or(record, "probe", "?") << " -> "
          << (record.at("won").as_bool() ? "wins" : "loses") << " (bracket ["
          << attr_or(record, "lo", "?") << ", " << attr_or(record, "hi", "?")
          << "])\n";
    } else if (type == "critical_found") {
      if (const io::JsonValue* unbounded = record.find("unbounded");
          unbounded != nullptr && unbounded->as_bool()) {
        out << "critical bid unbounded up to "
            << attr_or(record, "upper_bound", "?") << " ("
            << record.int_or("probes", 0)
            << " probes; supply scarcity keeps the phone winning)\n";
      } else {
        out << "critical bid " << attr_or(record, "critical_bid", "?")
            << " (bisection bracket [" << attr_or(record, "lo", "?") << ", "
            << attr_or(record, "hi", "?") << "], "
            << record.int_or("probes", 0) << " probes)\n";
      }
    } else if (type == "payment_derivation") {
      out << "paid " << attr_or(record, "payment", "?") << " by rule "
          << attr_or(record, "rule", "?");
      if (const io::JsonValue* setter = record.find("set_by_phone")) {
        out << "; level set by rival phone " << setter->as_int();
        if (record.find("set_in_slot") != nullptr) {
          out << " in slot " << record.int_or("set_in_slot", -1);
        }
      } else if (record.find("set_in_slot") != nullptr) {
        out << "; level set in slot " << record.int_or("set_in_slot", -1);
      }
      if (const io::JsonValue* welfare = record.find("welfare_all")) {
        out << "; welfare " << welfare->as_string() << " vs "
            << attr_or(record, "welfare_without", "?") << " without the phone";
      }
      if (const io::JsonValue* scarce = record.find("scarce_applied");
          scarce != nullptr && scarce->as_bool()) {
        out << "; scarce-supply cap " << attr_or(record, "scarce_cap", "?")
            << " applied";
      }
      out << " (own bid " << attr_or(record, "own_bid", "?") << ")\n";
    }
  }

  if (!mentioned) {
    out << "phone " << phone << " does not appear in this log\n";
  } else {
    out << "verdict: phone " << phone << (won ? " won" : " did not win")
        << '\n';
  }
  return out.str();
}

}  // namespace mcs::analysis
