#include "model/scenario.hpp"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>

#include "common/assert.hpp"
#include "common/error.hpp"

namespace mcs::model {

namespace {

/// A round's payment, cost and welfare totals each add at most one amount
/// per task, none above max(nu, the dearest cost). Refuses the round when
/// task_count times that amount leaves the Money envelope.
void check_money_envelope(const Scenario& scenario, Money dearest_cost,
                          const char* cost_kind) {
  const Money largest = std::max(scenario.task_value, dearest_cost);
  std::int64_t total = 0;
  if (__builtin_mul_overflow(largest.micros(),
                             static_cast<std::int64_t>(scenario.task_count()),
                             &total) ||
      total > Money::max().micros()) {
    throw InvalidScenarioError(
        std::string("round totals overflow: ") +
        std::to_string(scenario.task_count()) + " tasks x max(nu, " +
        cost_kind + ") exceeds Money::max()");
  }
}

}  // namespace

const TrueProfile& Scenario::phone(PhoneId id) const {
  MCS_EXPECTS(id.value() >= 0 && id.value() < phone_count(),
              "PhoneId out of range");
  return phones[static_cast<std::size_t>(id.value())];
}

std::vector<int> Scenario::tasks_per_slot() const {
  std::vector<int> r(static_cast<std::size_t>(num_slots) + 1, 0);
  for (const Task& task : tasks) {
    ++r[static_cast<std::size_t>(task.slot.value())];
  }
  return r;
}

BidProfile Scenario::truthful_bids() const {
  BidProfile bids;
  bids.reserve(phones.size());
  for (const TrueProfile& profile : phones) bids.push_back(truthful_bid(profile));
  return bids;
}

void Scenario::validate() const {
  if (num_slots < 1) {
    throw InvalidScenarioError("scenario must have at least one slot");
  }
  if (task_value.is_negative()) {
    throw InvalidScenarioError("task value nu must be nonnegative");
  }
  Slot previous_slot{0};
  for (std::size_t k = 0; k < tasks.size(); ++k) {
    const Task& task = tasks[k];
    if (task.id.value() != static_cast<int>(k)) {
      throw InvalidScenarioError("task ids must be dense and in order");
    }
    if (task.slot.value() < 1 || task.slot.value() > num_slots) {
      throw InvalidScenarioError("task slot outside the round");
    }
    if (task.slot < previous_slot) {
      throw InvalidScenarioError("tasks must be sorted by arrival slot");
    }
    previous_slot = task.slot;
  }
  Money dearest_cost;
  for (const TrueProfile& profile : phones) {
    if (profile.active.begin().value() < 1 ||
        profile.active.end().value() > num_slots) {
      throw InvalidScenarioError("phone active window outside the round");
    }
    if (profile.cost.is_negative() || profile.cost >= Money::max()) {
      throw InvalidScenarioError("phone cost out of range");
    }
    dearest_cost = std::max(dearest_cost, profile.cost);
  }
  check_money_envelope(*this, dearest_cost, "true cost");
}

ScenarioBuilder::ScenarioBuilder(Slot::rep_type num_slots) {
  scenario_.num_slots = num_slots;
  scenario_.task_value = Money::from_units(0);
}

ScenarioBuilder& ScenarioBuilder::value(std::int64_t units) {
  scenario_.task_value = Money::from_units(units);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::value(Money nu) {
  scenario_.task_value = nu;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::phone(Slot::rep_type begin,
                                        Slot::rep_type end,
                                        std::int64_t cost_units) {
  return phone(SlotInterval::of(begin, end), Money::from_units(cost_units));
}

ScenarioBuilder& ScenarioBuilder::phone(SlotInterval active, Money cost) {
  scenario_.phones.push_back(TrueProfile{active, cost});
  return *this;
}

ScenarioBuilder& ScenarioBuilder::task(Slot::rep_type slot) {
  scenario_.tasks.push_back(
      Task{TaskId{static_cast<int>(scenario_.tasks.size())}, Slot{slot}});
  return *this;
}

ScenarioBuilder& ScenarioBuilder::tasks(Slot::rep_type slot, int count) {
  MCS_EXPECTS(count >= 0, "task count must be >= 0");
  for (int k = 0; k < count; ++k) task(slot);
  return *this;
}

Scenario ScenarioBuilder::build() const {
  Scenario scenario = scenario_;
  // Tasks may have been added out of slot order; re-sort and renumber so the
  // dense-id invariant holds.
  std::stable_sort(scenario.tasks.begin(), scenario.tasks.end(),
                   [](const Task& a, const Task& b) { return a.slot < b.slot; });
  for (std::size_t k = 0; k < scenario.tasks.size(); ++k) {
    scenario.tasks[k].id = TaskId{static_cast<int>(k)};
  }
  scenario.validate();
  return scenario;
}

BidProfile with_bid(BidProfile bids, PhoneId id, Bid replacement) {
  MCS_EXPECTS(id.value() >= 0 &&
                  static_cast<std::size_t>(id.value()) < bids.size(),
              "PhoneId out of range");
  bids[static_cast<std::size_t>(id.value())] = replacement;
  return bids;
}

void validate_bids(const Scenario& scenario, const BidProfile& bids) {
  if (bids.size() != scenario.phones.size()) {
    throw InvalidScenarioError("bid profile size differs from phone count");
  }
  Money dearest_claim;
  for (const Bid& bid : bids) {
    if (bid.window.begin().value() < 1 ||
        bid.window.end().value() > scenario.num_slots) {
      throw InvalidScenarioError("bid window outside the round");
    }
    if (bid.claimed_cost.is_negative() || bid.claimed_cost >= Money::max()) {
      throw InvalidScenarioError("claimed cost out of range");
    }
    dearest_claim = std::max(dearest_claim, bid.claimed_cost);
  }
  check_money_envelope(scenario, dearest_claim, "claimed cost");
}

std::string describe(const Scenario& scenario) {
  std::ostringstream os;
  os << "Scenario: m=" << scenario.num_slots << " slots, nu="
     << scenario.task_value << ", " << scenario.task_count() << " tasks, "
     << scenario.phone_count() << " phones\n";
  const std::vector<int> r = scenario.tasks_per_slot();
  os << "  tasks per slot:";
  for (Slot::rep_type t = 1; t <= scenario.num_slots; ++t) {
    os << ' ' << r[static_cast<std::size_t>(t)];
  }
  os << '\n';
  for (int i = 0; i < scenario.phone_count(); ++i) {
    const TrueProfile& p = scenario.phones[static_cast<std::size_t>(i)];
    os << "  phone " << i << ": active " << p.active << ", cost " << p.cost
       << '\n';
  }
  return os.str();
}

}  // namespace mcs::model
