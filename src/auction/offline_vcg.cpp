#include "auction/offline_vcg.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mcs::auction {

namespace {

void count(const char* name, std::int64_t amount) {
  if (obs::MetricsRegistry* const registry = obs::current_registry()) {
    registry->counter(name).add(amount);
  }
}

/// The Fig. 3 graph in interval form, with its greedy maximum-weight
/// matching. Tasks are sorted by slot, so the tasks phone i can serve are
/// the index range [first_[i], last_[i]) of those inside its reported
/// window.
class TransversalGreedy {
 public:
  TransversalGreedy(const model::Scenario& scenario,
                    const model::BidProfile& bids)
      : bids_(bids),
        nu_(scenario.task_value),
        first_(bids.size()),
        last_(bids.size()),
        phone_task_(bids.size(), -1),
        task_phone_(scenario.tasks.size(), -1),
        free_next_(scenario.tasks.size() + 1),
        dead_(scenario.tasks.size(), 0),
        seen_(scenario.tasks.size(), 0) {
    std::vector<int> tasks_end(
        static_cast<std::size_t>(scenario.num_slots) + 1, 0);
    for (const model::Task& task : scenario.tasks) {
      ++tasks_end[static_cast<std::size_t>(task.slot.value())];
    }
    for (std::size_t t = 1; t < tasks_end.size(); ++t) {
      tasks_end[t] += tasks_end[t - 1];
    }
    for (std::size_t i = 0; i < bids.size(); ++i) {
      const auto begin =
          static_cast<std::size_t>(bids[i].window.begin().value());
      const auto end = static_cast<std::size_t>(bids[i].window.end().value());
      first_[i] = tasks_end[begin - 1];
      last_[i] = tasks_end[end];
      if (bids[i].claimed_cost <= nu_) {
        candidates_.push_back(static_cast<int>(i));
      }
    }
    std::sort(candidates_.begin(), candidates_.end(), [&](int a, int b) {
      const Money cost_a = cost(a);
      const Money cost_b = cost(b);
      return cost_a != cost_b ? cost_a < cost_b : a < b;
    });
    std::iota(free_next_.begin(), free_next_.end(), 0);

    std::int64_t added = 0;
    for (const int phone : candidates_) {
      if (augment(phone)) {
        ++added;
        welfare_ += nu_ - cost(phone);
      }
    }
    count("auction.offline_vcg.augmenting_paths", added);
    count("auction.offline_vcg.tasks_scanned", scanned_);
  }

  [[nodiscard]] Money welfare() const { return welfare_; }

  /// The phone serving `task`, or -1.
  [[nodiscard]] int phone_of(int task) const {
    return task_phone_[static_cast<std::size_t>(task)];
  }

  /// For each winner, the cheapest non-winner that can replace it (an
  /// alternating path from the non-winner reaches the winner's task), or
  /// -1 when none can. The non-winners search in (cost, id) order and
  /// share one set of marked tasks: whatever a later search could reach
  /// through a marked task, the earlier search that marked it has reached
  /// already. So the whole pass is O(edges).
  [[nodiscard]] std::vector<int> replacements() const {
    std::vector<int> replacement(bids_.size(), -1);
    std::vector<char> marked(task_phone_.size(), 0);
    std::vector<int> stack;
    std::int64_t scanned = 0;
    for (const int loser : candidates_) {
      if (phone_task_[static_cast<std::size_t>(loser)] >= 0) continue;
      stack.assign(1, loser);
      while (!stack.empty()) {
        const auto phone = static_cast<std::size_t>(stack.back());
        stack.pop_back();
        for (int task = first_[phone]; task < last_[phone]; ++task) {
          ++scanned;
          const auto t = static_cast<std::size_t>(task);
          // A non-winner never reaches a free task: the greedy would have
          // added it.
          if (marked[t] || task_phone_[t] < 0) continue;
          marked[t] = 1;
          replacement[static_cast<std::size_t>(task_phone_[t])] = loser;
          stack.push_back(task_phone_[t]);
        }
      }
    }
    count("auction.offline_vcg.tasks_scanned", scanned);
    return replacement;
  }

 private:
  struct Frame {
    int phone;
    int cursor;  ///< next task of the phone's range to try
    int via;     ///< the task the search last descended through
  };

  [[nodiscard]] Money cost(int phone) const {
    return bids_[static_cast<std::size_t>(phone)].claimed_cost;
  }

  /// The first free task at or after `task` (task_count() when none).
  /// Tasks only ever become matched, so a union-find skips matched runs.
  int next_free(int task) {
    auto k = static_cast<std::size_t>(task);
    while (free_next_[k] != static_cast<int>(k)) {
      free_next_[k] = free_next_[static_cast<std::size_t>(free_next_[k])];
      k = static_cast<std::size_t>(free_next_[k]);
    }
    return static_cast<int>(k);
  }

  /// A free task inside `phone`'s range, or -1.
  int free_task_for(int phone) {
    const auto i = static_cast<std::size_t>(phone);
    const int task = next_free(first_[i]);
    return task < last_[i] ? task : -1;
  }

  void assign(int phone, int task) {
    phone_task_[static_cast<std::size_t>(phone)] = task;
    task_phone_[static_cast<std::size_t>(task)] = phone;
  }

  /// One augmenting-path search from the unmatched `root`; on success the
  /// path is flipped and the root is matched. The tasks a failed search
  /// visits are all matched to phones whose ranges lie inside them (or
  /// inside earlier dead tasks), so no later path can pass through them:
  /// they are dead for every later search.
  bool augment(int root) {
    ++stamp_;
    visited_.clear();
    stack_.clear();
    int end_phone = root;
    int free_task = free_task_for(root);
    if (free_task < 0) {
      stack_.push_back(Frame{root, first_[static_cast<std::size_t>(root)], -1});
    }
    while (free_task < 0 && !stack_.empty()) {
      Frame& top = stack_.back();
      if (top.cursor == last_[static_cast<std::size_t>(top.phone)]) {
        stack_.pop_back();
        continue;
      }
      const int task = top.cursor++;
      ++scanned_;
      const auto t = static_cast<std::size_t>(task);
      if (dead_[t] != 0 || seen_[t] == stamp_) continue;
      seen_[t] = stamp_;
      visited_.push_back(task);
      top.via = task;
      end_phone = task_phone_[t];  // matched: the range has no free task
      free_task = free_task_for(end_phone);
      if (free_task < 0) {
        stack_.push_back(
            Frame{end_phone, first_[static_cast<std::size_t>(end_phone)], -1});
      }
    }
    if (free_task < 0) {
      for (const int task : visited_) dead_[static_cast<std::size_t>(task)] = 1;
      return false;
    }
    assign(end_phone, free_task);
    for (const Frame& frame : stack_) assign(frame.phone, frame.via);
    free_next_[static_cast<std::size_t>(free_task)] = free_task + 1;
    return true;
  }

  const model::BidProfile& bids_;
  Money nu_;
  std::vector<int> first_;
  std::vector<int> last_;
  std::vector<int> candidates_;  ///< phones with b_i <= nu, (cost, id) order
  std::vector<int> phone_task_;  ///< -1 = unmatched
  std::vector<int> task_phone_;  ///< -1 = unmatched
  std::vector<int> free_next_;   ///< union-find over free tasks
  std::vector<char> dead_;
  std::vector<std::uint32_t> seen_;  ///< search stamp of the last visit
  std::uint32_t stamp_{0};
  std::vector<int> visited_;
  std::vector<Frame> stack_;
  Money welfare_;
  std::int64_t scanned_{0};
};

}  // namespace

Money OfflineVcgMechanism::optimal_claimed_welfare(
    const model::Scenario& scenario, const model::BidProfile& bids) {
  scenario.validate();
  model::validate_bids(scenario, bids);
  return TransversalGreedy(scenario, bids).welfare();
}

Outcome OfflineVcgMechanism::run(const model::Scenario& scenario,
                                 const model::BidProfile& bids) const {
  const obs::TraceSpan span("offline_vcg.run");
  scenario.validate();
  model::validate_bids(scenario, bids);
  const Money nu = scenario.task_value;
  const auto cost = [&](int phone) {
    return bids[static_cast<std::size_t>(phone)].claimed_cost;
  };

  Outcome outcome;
  outcome.allocation = Allocation(scenario.task_count(), scenario.phone_count());
  outcome.payments.assign(scenario.phones.size(), Money{});

  std::optional<TransversalGreedy> greedy;
  {
    const obs::TraceSpan matching_span("offline_vcg.matching");
    greedy.emplace(scenario, bids);
    for (int t = 0; t < scenario.task_count(); ++t) {
      const Slot slot = scenario.tasks[static_cast<std::size_t>(t)].slot;
      const int phone = greedy->phone_of(t);
      if (phone >= 0) {
        outcome.allocation.assign(TaskId{t}, PhoneId{phone});
        obs::log_event([&] {
          obs::Event event("winner_selected");
          event.task = t;
          event.phone = phone;
          event.slot = slot.value();
          event.with("weight", nu - cost(phone));
          // Runner-up: the best weight this task could have had from any
          // other phone active in its slot (ignores the matching
          // constraints elsewhere).
          std::optional<Money> runner_up;
          std::int32_t runner_up_phone = -1;
          for (int j = 0; j < scenario.phone_count(); ++j) {
            if (j == phone ||
                !bids[static_cast<std::size_t>(j)].window.contains(slot)) {
              continue;
            }
            if (const Money w = nu - cost(j); !runner_up || w > *runner_up) {
              runner_up = w;
              runner_up_phone = j;
            }
          }
          if (runner_up) {
            event.with("runner_up_weight", *runner_up)
                .with("runner_up_phone",
                      static_cast<std::int64_t>(runner_up_phone));
          }
          return event;
        });
      } else {
        obs::log_event([&] {
          obs::Event event("task_unserved");
          event.task = t;
          event.slot = slot.value();
          event.with("reason", std::string("no_positive_weight_match"));
          return event;
        });
      }
    }
  }

  const obs::TraceSpan payment_span("offline_vcg.payments");
  const Money welfare_all = greedy->welfare();  // omega*(B)
  const std::vector<int> replacement = greedy->replacements();
  for (const PhoneId winner : outcome.allocation.winners()) {
    const int i = winner.value();
    // omega*(B_{-i}): the optimum loses i's weight and gains that of its
    // cheapest replacement, if any.
    Money welfare_without = welfare_all - (nu - cost(i));
    if (const int j = replacement[static_cast<std::size_t>(i)]; j >= 0) {
      welfare_without += std::max(Money{}, nu - cost(j));
    }
    // Eq. (7): p_i = (omega*(B) - (-b_i)) - omega*(B_{-i}).
    const Money payment = welfare_all + cost(i) - welfare_without;
    // A replacement is never cheaper than the winner it replaces, or the
    // greedy would have taken it first.
    MCS_ENSURES(payment >= cost(i), "VCG payment below claimed cost");
    outcome.payments[static_cast<std::size_t>(i)] = payment;
    obs::log_event([&] {
      obs::Event event("payment_derivation");
      event.phone = i;
      event.with("rule", std::string("vcg.marginal"))
          .with("payment", payment)
          .with("own_bid", cost(i))
          .with("welfare_all", welfare_all)
          .with("welfare_without", welfare_without);
      return event;
    });
  }

  outcome.validate(scenario, bids);
  return outcome;
}

}  // namespace mcs::auction
