#include "serve/event.hpp"

#include <limits>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "io/json.hpp"

namespace mcs::serve {

namespace {

[[noreturn]] void bad_event(const std::string& what) {
  throw InvalidArgumentError("mcs.serve.v1 event: " + what);
}

/// Every slot/task/agent field is an int32 in memory (Slot::rep_type and
/// friends); decoding wider values would silently truncate, which for an
/// untrusted stream is indistinguishable from corruption. Reject instead.
constexpr std::int64_t kMaxNarrowField =
    std::numeric_limits<std::int32_t>::max();

/// Required integral member with an inclusive domain check. Values outside
/// [min_value, max_value] are rejected -- never narrowed or wrapped.
std::int64_t require_int(const io::JsonValue& line, std::string_view key,
                         std::int64_t min_value,
                         std::int64_t max_value = kMaxNarrowField) {
  const io::JsonValue* member = line.find(key);
  if (member == nullptr) bad_event("missing field '" + std::string(key) + "'");
  const std::int64_t value = member->as_int();
  if (value < min_value || value > max_value) {
    bad_event("field '" + std::string(key) + "' out of domain");
  }
  return value;
}

/// Required Money member (decimal string, Money::parse format).
Money require_money(const io::JsonValue& line, std::string_view key) {
  const io::JsonValue* member = line.find(key);
  if (member == nullptr) bad_event("missing field '" + std::string(key) + "'");
  return Money::parse(member->as_string());
}

Slot::rep_type to_slot_rep(std::int64_t value) {
  return static_cast<Slot::rep_type>(value);
}

}  // namespace

std::string_view to_string(ServeEventKind kind) {
  switch (kind) {
    case ServeEventKind::kRoundOpen:
      return "round_open";
    case ServeEventKind::kTaskArrived:
      return "task_arrived";
    case ServeEventKind::kBidSubmitted:
      return "bid_submitted";
    case ServeEventKind::kSlotTick:
      return "slot_tick";
    case ServeEventKind::kRoundClose:
      return "round_close";
  }
  return "unknown";
}

ServeEvent round_open(std::int64_t round, Slot::rep_type num_slots,
                      Money value) {
  ServeEvent event;
  event.kind = ServeEventKind::kRoundOpen;
  event.round = round;
  event.num_slots = num_slots;
  event.round_value = value;
  return event;
}

ServeEvent task_arrived(std::int64_t round, Slot slot, TaskId task) {
  ServeEvent event;
  event.kind = ServeEventKind::kTaskArrived;
  event.round = round;
  event.slot = slot;
  event.task = task;
  return event;
}

ServeEvent bid_submitted(std::int64_t round, PhoneId agent,
                         const model::Bid& bid) {
  ServeEvent event;
  event.kind = ServeEventKind::kBidSubmitted;
  event.round = round;
  event.slot = bid.window.begin();  // phones bid when they join
  event.agent = agent;
  event.window = bid.window;
  event.claimed_cost = bid.claimed_cost;
  return event;
}

ServeEvent slot_tick(std::int64_t round, Slot slot) {
  ServeEvent event;
  event.kind = ServeEventKind::kSlotTick;
  event.round = round;
  event.slot = slot;
  return event;
}

ServeEvent round_close(std::int64_t round) {
  ServeEvent event;
  event.kind = ServeEventKind::kRoundClose;
  event.round = round;
  return event;
}

model::Bid bid_of(const ServeEvent& event) {
  MCS_EXPECTS(event.kind == ServeEventKind::kBidSubmitted,
              "bid_of requires a bid_submitted event");
  return model::Bid{event.window, event.claimed_cost};
}

void write_stream_header(std::ostream& os) {
  io::JsonWriter writer(os);
  writer.begin_object().field("schema", kServeSchema).end_object();
  os << '\n';
}

void write_serve_event(std::ostream& os, const ServeEvent& event) {
  io::JsonWriter writer(os);
  writer.begin_object();
  writer.field("ev", to_string(event.kind));
  writer.field("round", event.round);
  switch (event.kind) {
    case ServeEventKind::kRoundOpen:
      writer.field("slots", static_cast<std::int64_t>(event.num_slots));
      writer.field("value", event.round_value.to_string());
      break;
    case ServeEventKind::kTaskArrived:
      writer.field("slot", static_cast<std::int64_t>(event.slot.value()));
      writer.field("task", static_cast<std::int64_t>(event.task.value()));
      break;
    case ServeEventKind::kBidSubmitted:
      writer.field("agent", static_cast<std::int64_t>(event.agent.value()));
      writer.field("from",
                   static_cast<std::int64_t>(event.window.begin().value()));
      writer.field("to", static_cast<std::int64_t>(event.window.end().value()));
      writer.field("cost", event.claimed_cost.to_string());
      break;
    case ServeEventKind::kSlotTick:
      writer.field("slot", static_cast<std::int64_t>(event.slot.value()));
      break;
    case ServeEventKind::kRoundClose:
      break;
  }
  writer.end_object();
  os << '\n';
}

std::string encode_serve_event(const ServeEvent& event) {
  std::ostringstream os;
  write_serve_event(os, event);
  std::string line = std::move(os).str();
  if (!line.empty() && line.back() == '\n') line.pop_back();
  return line;
}

ServeEvent decode_serve_event(const io::JsonValue& line) {
  if (!line.is_object()) bad_event("line is not a JSON object");
  const io::JsonValue* discriminator = line.find("ev");
  if (discriminator == nullptr) bad_event("missing field 'ev'");
  const std::string& ev = discriminator->as_string();
  const std::int64_t round = require_int(line, "round", 0, kMaxServeRound);

  if (ev == "round_open") {
    const std::int64_t slots = require_int(line, "slots", 1);
    return round_open(round, to_slot_rep(slots), require_money(line, "value"));
  }
  if (ev == "task_arrived") {
    const Slot slot{to_slot_rep(require_int(line, "slot", 1))};
    const TaskId task{
        static_cast<TaskId::rep_type>(require_int(line, "task", 0))};
    if (line.find("value") != nullptr) {
      bad_event(std::string(kPerTaskValueRefusal));
    }
    return task_arrived(round, slot, task);
  }
  if (ev == "bid_submitted") {
    const PhoneId agent{
        static_cast<PhoneId::rep_type>(require_int(line, "agent", 0))};
    const std::int64_t from = require_int(line, "from", 1);
    const std::int64_t to = require_int(line, "to", 1);
    if (to < from) bad_event("bid window end precedes begin");
    const Money cost = require_money(line, "cost");
    if (cost.is_negative()) bad_event("negative claimed cost");
    return bid_submitted(
        round, agent,
        model::Bid{SlotInterval::of(to_slot_rep(from), to_slot_rep(to)), cost});
  }
  if (ev == "slot_tick") {
    return slot_tick(round, Slot{to_slot_rep(require_int(line, "slot", 1))});
  }
  if (ev == "round_close") {
    return round_close(round);
  }
  bad_event("unknown event kind '" + ev + "'");
}

std::optional<ServeEvent> decode_serve_line(std::string_view line) {
  const io::JsonValue parsed = io::parse_json(line);
  if (const io::JsonValue* schema = parsed.find("schema")) {
    if (schema->as_string() != kServeSchema) {
      bad_event("unsupported schema '" + schema->as_string() + "'");
    }
    return std::nullopt;  // header line
  }
  return decode_serve_event(parsed);
}

}  // namespace mcs::serve
