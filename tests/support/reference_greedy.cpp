#include "support/reference_greedy.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace mcs::test_support {

ReferenceRun reference_allocation(const model::Scenario& scenario,
                                  const model::BidProfile& bids,
                                  const auction::OnlineGreedyConfig& config,
                                  int exclude, Slot::rep_type last_slot) {
  const Slot::rep_type horizon =
      last_slot == 0 ? scenario.num_slots
                     : std::min(last_slot, scenario.num_slots);
  ReferenceRun run;
  run.task_winner.assign(scenario.tasks.size(), -1);
  std::vector<bool> allocated(bids.size(), false);
  const auto cost = [&](int phone) {
    return bids[static_cast<std::size_t>(phone)].claimed_cost;
  };

  for (Slot::rep_type t = 1; t <= horizon; ++t) {
    std::vector<int> pool;
    for (int i = 0; i < static_cast<int>(bids.size()); ++i) {
      const model::Bid& bid = bids[static_cast<std::size_t>(i)];
      if (i == exclude || allocated[static_cast<std::size_t>(i)]) continue;
      if (config.reserve_price && bid.claimed_cost > *config.reserve_price) {
        continue;
      }
      if (bid.window.contains(Slot{t})) pool.push_back(i);
    }
    std::sort(pool.begin(), pool.end(), [&](int a, int b) {
      return cost(a) != cost(b) ? cost(a) < cost(b) : a < b;
    });

    std::vector<int> tasks;
    for (const model::Task& task : scenario.tasks) {
      if (task.slot == Slot{t}) tasks.push_back(task.id.value());
    }
    std::stable_sort(tasks.begin(), tasks.end(), [&](int a, int b) {
      return scenario.value_of(TaskId{a}) > scenario.value_of(TaskId{b});
    });

    ReferenceSlot slot;
    std::size_t next = 0;
    for (const int task : tasks) {
      const bool unprofitable =
          next < pool.size() && config.allocate_only_profitable &&
          cost(pool[next]) > scenario.value_of(TaskId{task});
      if (next == pool.size() || unprofitable) {
        slot.unserved.push_back(task);
        continue;
      }
      const int phone = pool[next++];
      allocated[static_cast<std::size_t>(phone)] = true;
      run.task_winner[static_cast<std::size_t>(task)] = phone;
      slot.assigned.emplace_back(task, phone);
    }
    run.slots.push_back(std::move(slot));
  }
  return run;
}

ReferenceOutcome reference_online_greedy(
    const model::Scenario& scenario, const model::BidProfile& bids,
    const auction::OnlineGreedyConfig& config) {
  const ReferenceRun factual = reference_allocation(scenario, bids, config);
  ReferenceOutcome outcome;
  outcome.task_winner = factual.task_winner;
  outcome.payments.assign(bids.size(), Money{});

  for (std::size_t s = 0; s < factual.slots.size(); ++s) {
    const auto win_slot = static_cast<Slot::rep_type>(s + 1);
    for (const auto& [task, winner] : factual.slots[s].assigned) {
      const model::Bid& own = bids[static_cast<std::size_t>(winner)];
      const Slot::rep_type depart = own.window.end().value();
      const ReferenceRun without =
          reference_allocation(scenario, bids, config, winner, depart);

      Money payment = own.claimed_cost;
      bool scarce = false;
      Money cap;
      for (Slot::rep_type t = win_slot; t <= depart; ++t) {
        const ReferenceSlot& slot =
            without.slots[static_cast<std::size_t>(t - 1)];
        for (const auto& [other_task, rival] : slot.assigned) {
          payment = std::max(
              payment, bids[static_cast<std::size_t>(rival)].claimed_cost);
        }
        for (const int unserved : slot.unserved) {
          // Without the winner this task has no taker: the winner's
          // threshold for it is the reserve (capped by the task value
          // under profitable-only), else the task value.
          Money threshold = scenario.value_of(TaskId{unserved});
          if (config.reserve_price) {
            threshold = config.allocate_only_profitable
                            ? std::min(threshold, *config.reserve_price)
                            : *config.reserve_price;
          }
          scarce = true;
          cap = std::max(cap, threshold);
        }
      }
      if (scarce && config.scarce_payment ==
                        auction::OnlineGreedyConfig::ScarcePayment::kCapAtValue) {
        payment = std::max(payment, cap);
      }
      outcome.payments[static_cast<std::size_t>(winner)] = payment;
    }
  }
  return outcome;
}

void expect_matches_reference(const auction::Outcome& outcome,
                              const ReferenceOutcome& reference,
                              const std::string& label) {
  ASSERT_EQ(outcome.payments.size(), reference.payments.size()) << label;
  for (std::size_t i = 0; i < reference.payments.size(); ++i) {
    EXPECT_EQ(outcome.payments[i], reference.payments[i])
        << label << ": phone " << i;
  }
  ASSERT_EQ(static_cast<std::size_t>(outcome.allocation.task_count()),
            reference.task_winner.size())
      << label;
  for (std::size_t k = 0; k < reference.task_winner.size(); ++k) {
    const std::optional<PhoneId> phone =
        outcome.allocation.phone_for(TaskId{static_cast<int>(k)});
    EXPECT_EQ(phone ? phone->value() : -1, reference.task_winner[k])
        << label << ": task " << k;
  }
}

std::vector<std::pair<std::string, auction::OnlineGreedyConfig>>
config_families() {
  using auction::OnlineGreedyConfig;
  std::vector<std::pair<std::string, OnlineGreedyConfig>> families;
  families.emplace_back("paper_default", OnlineGreedyConfig{});

  OnlineGreedyConfig reserve;
  reserve.reserve_price = Money::from_units(20);
  families.emplace_back("reserve_20", reserve);

  OnlineGreedyConfig profitable;
  profitable.allocate_only_profitable = true;
  families.emplace_back("profitable_only", profitable);

  OnlineGreedyConfig own_bid;
  own_bid.scarce_payment = OnlineGreedyConfig::ScarcePayment::kOwnBid;
  families.emplace_back("scarce_own_bid", own_bid);

  OnlineGreedyConfig both;
  both.allocate_only_profitable = true;
  both.reserve_price = Money::from_units(25);
  families.emplace_back("reserve_and_profitable", both);
  return families;
}

}  // namespace mcs::test_support
