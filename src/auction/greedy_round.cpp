#include "auction/greedy_round.hpp"

#include <algorithm>
#include <string>

#include "common/assert.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"

namespace mcs::auction {

namespace {

void count_fork(const char* fork_counter, std::int64_t replayed,
                std::int64_t skipped) {
  obs::MetricsRegistry* const registry = obs::current_registry();
  if (registry == nullptr) return;
  registry->counter(fork_counter).add(1);
  registry->counter("auction.counterfactual.slots_replayed").add(replayed);
  registry->counter("auction.counterfactual.slots_skipped").add(skipped);
}

}  // namespace

void GreedyPayment::log(Slot at) const {
  obs::log_event([&] {
    obs::Event event("payment_derivation");
    event.phone = phone.value();
    event.slot = static_cast<std::int32_t>(at.value());
    event.with("rule", std::string("algorithm2.counterfactual_max"))
        .with("payment", amount)
        .with("own_bid", own_bid)
        .with("window_end", static_cast<std::int64_t>(window_end));
    if (setter_phone) {
      event.with("set_by_phone", static_cast<std::int64_t>(setter_phone->value()))
          .with("set_in_slot", static_cast<std::int64_t>(setter_slot.value()));
    }
    event.with("scarce", scarce);
    if (scarce) event.with("scarce_cap", scarce_cap);
    event.with("scarce_applied", scarce_applied);
    return event;
  });
}

GreedyRound::GreedyRound(Slot::rep_type num_slots, Money task_value,
                         OnlineGreedyConfig config)
    : config_(config),
      task_value_(task_value),
      horizon_(num_slots),
      bids_end_(static_cast<std::size_t>(num_slots) + 1, 0),
      tasks_end_(static_cast<std::size_t>(num_slots) + 1, 0) {
  MCS_EXPECTS(num_slots >= 1, "round must have at least one slot");
  if (obs::MetricsRegistry* const registry = obs::current_registry()) {
    pool_hist_ = &registry->histogram("auction.greedy.pool_size");
  }
}

GreedyRound::GreedyRound(const model::Scenario& scenario,
                         const model::BidProfile& bids,
                         OnlineGreedyConfig config)
    : GreedyRound(scenario.num_slots, scenario.task_value, config) {
  scenario.validate();  // tasks sorted by slot with dense ids
  model::validate_bids(scenario, bids);

  task_count_ = scenario.task_count();
  for (const model::Task& task : scenario.tasks) {
    ++tasks_end_[static_cast<std::size_t>(task.slot.value())];
  }
  // Admission (and its events) in phone-id order; the pool order is then
  // by arrival slot, ties in id order.
  for (int i = 0; i < scenario.phone_count(); ++i) {
    const model::Bid& bid = bids[static_cast<std::size_t>(i)];
    if (!admit(PhoneId{i}, bid)) continue;
    bids_.push_back(Admitted{bid.claimed_cost.micros(), i,
                             bid.window.begin().value(),
                             bid.window.end().value(), 0});
    ++bids_end_[static_cast<std::size_t>(bid.window.begin().value())];
  }
  std::stable_sort(bids_.begin(), bids_.end(),
                   [](const Admitted& a, const Admitted& b) {
                     return a.arrival < b.arrival;
                   });
  for (std::size_t t = 1; t < bids_end_.size(); ++t) {
    bids_end_[t] += bids_end_[t - 1];
    tasks_end_[t] += tasks_end_[t - 1];
  }
  for (std::size_t k = 0; k < bids_.size(); ++k) index_bid(k);
}

void GreedyRound::announce_task() {
  MCS_EXPECTS(!finished(), "round is over");
  ++task_count_;
  tasks_end_[static_cast<std::size_t>(current_)] =
      static_cast<std::uint32_t>(task_count_);
}

bool GreedyRound::submit_bid(PhoneId phone, const model::Bid& bid) {
  MCS_EXPECTS(!finished(), "round is over");
  MCS_EXPECTS(bid.window.begin().value() == current_,
              "phones bid in the slot they join");
  MCS_EXPECTS(bid.window.end().value() <= horizon_,
              "reported departure beyond the round");
  MCS_EXPECTS(!bid.claimed_cost.is_negative(), "claimed cost must be >= 0");
  MCS_EXPECTS(phone.value() >= 0, "phone ids are nonnegative");
  const auto slot = static_cast<std::size_t>(phone.value());
  MCS_EXPECTS(slot >= bid_of_phone_.size() || bid_of_phone_[slot] < 0,
              "agent already submitted a bid");
  if (!admit(phone, bid)) return false;
  bids_.push_back(Admitted{bid.claimed_cost.micros(), phone.value(), current_,
                           bid.window.end().value(), 0});
  bids_end_[static_cast<std::size_t>(current_)] =
      static_cast<std::uint32_t>(bids_.size());
  index_bid(bids_.size() - 1);
  return true;
}

bool GreedyRound::admit(PhoneId phone, const model::Bid& bid) const {
  const auto arrival = static_cast<std::int32_t>(bid.window.begin().value());
  if (config_.reserve_price && bid.claimed_cost > *config_.reserve_price) {
    obs::log_event([&] {
      obs::Event event("bid_rejected");
      event.phone = phone.value();
      event.slot = arrival;
      event.with("reason", std::string("reserve"))
          .with("bid", bid.claimed_cost)
          .with("reserve", *config_.reserve_price);
      return event;
    });
    return false;  // above the platform reserve: never pooled
  }
  obs::log_event([&] {
    obs::Event event("bid_admitted");
    event.phone = phone.value();
    event.slot = arrival;
    event.with("bid", bid.claimed_cost)
        .with("departs", static_cast<std::int64_t>(bid.window.end().value()));
    return event;
  });
  return true;
}

void GreedyRound::index_bid(std::size_t position) {
  const Admitted& bid = bids_[position];
  const auto slot = static_cast<std::size_t>(bid.phone);
  if (slot >= bid_of_phone_.size()) bid_of_phone_.resize(slot + 1, -1);
  bid_of_phone_[slot] = static_cast<int>(position);
  max_span_ = std::max(max_span_, bid.departs - bid.arrival);
}

const GreedyRound::Admitted& GreedyRound::admitted(PhoneId phone) const {
  const auto slot = static_cast<std::size_t>(phone.value());
  MCS_EXPECTS(phone.value() >= 0 && slot < bid_of_phone_.size() &&
                  bid_of_phone_[slot] >= 0,
              "phone has no admitted bid");
  return bids_[static_cast<std::size_t>(bid_of_phone_[slot])];
}

Money GreedyRound::scarce_cap() const {
  // Without the phone a task has no winner: its threshold is the reserve
  // price if set (bids above it never enter), else the task value as the
  // documented cap (DESIGN.md Section 5).
  if (!config_.reserve_price) return task_value_;
  return config_.allocate_only_profitable
             ? std::min(*config_.reserve_price, task_value_)
             : *config_.reserve_price;
}

void GreedyRound::enter_slot(Slot::rep_type t,
                             std::vector<PoolBid>& pool) const {
  std::erase_if(pool, [t](const PoolBid& bid) { return bid.departs < t; });
  const auto t_index = static_cast<std::size_t>(t);
  for (std::size_t k = bids_end_[t_index - 1]; k < bids_end_[t_index]; ++k) {
    const Admitted& bid = bids_[k];
    const PoolBid entry{bid.cost_micros, bid.phone, bid.departs};
    pool.insert(std::upper_bound(pool.begin(), pool.end(), entry), entry);
  }
}

void GreedyRound::allocate_slot(Slot::rep_type t, std::vector<PoolBid>& pool,
                                SlotResult& out) const {
  out.slot = Slot{t};
  out.assigned.clear();
  out.unserved.clear();
  // The candidate pool at the start of the slot, cheapest first --
  // Fig. 4's "dynamic pool" as a replayable record.
  obs::log_event([&] {
    obs::Event event("slot_pool");
    event.slot = static_cast<std::int32_t>(t);
    std::vector<std::int64_t> ids;
    std::vector<std::int64_t> costs_micros;
    ids.reserve(pool.size());
    costs_micros.reserve(pool.size());
    for (const PoolBid& entry : pool) {
      ids.push_back(entry.phone);
      costs_micros.push_back(entry.cost_micros);
    }
    event.with("pool", std::move(ids))
        .with("pool_costs_micros", std::move(costs_micros));
    return event;
  });

  const auto t_index = static_cast<std::size_t>(t);
  std::size_t next = 0;  // pool[0, next) won this slot
  for (std::size_t k = tasks_end_[t_index - 1]; k < tasks_end_[t_index]; ++k) {
    const TaskId task{static_cast<int>(k)};
    if (next == pool.size()) {
      obs::log_event([&] {
        obs::Event event("task_unserved");
        event.slot = static_cast<std::int32_t>(t);
        event.task = task.value();
        event.with("reason", std::string("pool_empty"));
        return event;
      });
      out.unserved.push_back(task);
      continue;
    }
    const PoolBid& chosen = pool[next];
    if (config_.allocate_only_profitable &&
        Money::from_micros(chosen.cost_micros) > task_value_) {
      // The cheapest remaining bid already exceeds the task value, so no
      // profitable assignment exists; the phone stays in the pool.
      obs::log_event([&] {
        obs::Event event("task_unserved");
        event.slot = static_cast<std::int32_t>(t);
        event.task = task.value();
        event.with("reason", std::string("unprofitable"))
            .with("cheapest_bid", Money::from_micros(chosen.cost_micros))
            .with("cheapest_phone", static_cast<std::int64_t>(chosen.phone))
            .with("task_value", task_value_);
        return event;
      });
      out.unserved.push_back(task);
      continue;
    }
    obs::log_event([&] {
      obs::Event event("task_assigned");
      event.slot = static_cast<std::int32_t>(t);
      event.task = task.value();
      event.phone = chosen.phone;
      event.with("bid", Money::from_micros(chosen.cost_micros))
          .with("task_value", task_value_);
      // The runner-up bid documents how close the decision was; absent
      // when the pool emptied.
      if (next + 1 < pool.size()) {
        event.with("runner_up_phone",
                   static_cast<std::int64_t>(pool[next + 1].phone))
            .with("runner_up_bid",
                  Money::from_micros(pool[next + 1].cost_micros));
      }
      return event;
    });
    out.assigned.emplace_back(task, chosen);
    ++next;
  }
  pool.erase(pool.begin(),
             pool.begin() + static_cast<std::ptrdiff_t>(next));
}

const GreedyRound::SlotResult& GreedyRound::advance(
    std::vector<PhoneId>* pool) {
  MCS_EXPECTS(!finished(), "round is over");
  const Slot::rep_type t = current_;
  const auto t_index = static_cast<std::size_t>(t);
  // Slots without admissions inherit the running counts.
  bids_end_[t_index] = std::max(bids_end_[t_index], bids_end_[t_index - 1]);
  tasks_end_[t_index] = std::max(tasks_end_[t_index], tasks_end_[t_index - 1]);

  pool_insertions_ += bids_end_[t_index] - bids_end_[t_index - 1];
  enter_slot(t, pool_);
  if (pool != nullptr) {
    pool->clear();
    for (const PoolBid& entry : pool_) pool->push_back(PhoneId{entry.phone});
  }
  allocate_slot(t, pool_, result_);
  for (const auto& [task, bid] : result_.assigned) {
    bids_[static_cast<std::size_t>(
              bid_of_phone_[static_cast<std::size_t>(bid.phone)])]
        .win_slot = t;
  }
  tasks_assigned_ += static_cast<std::int64_t>(result_.assigned.size());
  tasks_unserved_ += static_cast<std::int64_t>(result_.unserved.size());
  if (pool_hist_ != nullptr) {
    pool_hist_->observe(pool_.size());
  }

  ++current_;
  if (finished()) publish_stats();
  return result_;
}

void GreedyRound::publish_stats() const {
  obs::MetricsRegistry* const registry = obs::current_registry();
  if (registry == nullptr) return;
  registry->counter("auction.greedy.allocation_runs").add(1);
  registry->counter("auction.greedy.slots_processed")
      .add(static_cast<std::int64_t>(horizon_));
  registry->counter("auction.greedy.pool_insertions").add(pool_insertions_);
  registry->counter("auction.greedy.tasks_assigned").add(tasks_assigned_);
  registry->counter("auction.greedy.tasks_unserved").add(tasks_unserved_);
}

std::vector<std::pair<PhoneId, bool>> GreedyRound::departing(
    Slot::rep_type t) const {
  MCS_EXPECTS(t >= 1 && t < current_, "departures of an unadvanced slot");
  std::vector<std::pair<PhoneId, bool>> out;
  const Slot::rep_type from = std::max<Slot::rep_type>(1, t - max_span_);
  for (std::size_t k = bids_end_[static_cast<std::size_t>(from) - 1];
       k < bids_end_[static_cast<std::size_t>(t)]; ++k) {
    if (bids_[k].departs == t) {
      out.emplace_back(PhoneId{bids_[k].phone}, bids_[k].win_slot != 0);
    }
  }
  return out;
}

std::vector<PoolBid> GreedyRound::pool_at(Slot::rep_type fork,
                                          int exclude) const {
  // Every bid pooled at `fork` arrived within max_span_ slots of it. The
  // ones allocated before `fork` are gone; later winners are still there.
  std::vector<PoolBid> pool;
  const Slot::rep_type from = std::max<Slot::rep_type>(1, fork - max_span_);
  for (std::size_t k = bids_end_[static_cast<std::size_t>(from) - 1];
       k < bids_end_[static_cast<std::size_t>(fork)]; ++k) {
    const Admitted& bid = bids_[k];
    if (bid.phone == exclude || bid.departs < fork) continue;
    if (bid.win_slot != 0 && bid.win_slot < fork) continue;
    pool.push_back(PoolBid{bid.cost_micros, bid.phone, bid.departs});
  }
  std::sort(pool.begin(), pool.end());
  return pool;
}

template <class OnSlot>
void GreedyRound::fork_run(const char* counter, int exclude,
                           Slot::rep_type fork, Slot::rep_type last,
                           const PoolBid* probe, OnSlot on_slot) const {
  // The counterfactual's allocation decisions are not decisions of the
  // recorded run.
  const obs::ScopedEventLog suppress_counterfactual(nullptr);
  std::vector<PoolBid> pool = pool_at(fork, exclude);
  if (probe != nullptr) {
    pool.insert(std::upper_bound(pool.begin(), pool.end(), *probe), *probe);
  }
  SlotResult result;
  Slot::rep_type t = fork;
  for (; t <= last; ++t) {
    if (t > fork) enter_slot(t, pool);
    allocate_slot(t, pool, result);
    if (!on_slot(t, result)) break;
  }
  count_fork(counter, std::min(t, last) - fork + 1, fork - 1);
}

GreedyPayment GreedyRound::payment(PhoneId winner) const {
  const Admitted& own = admitted(winner);
  MCS_EXPECTS(own.win_slot != 0, "payment requires a winner");
  obs::count("auction.critical_value.probes");

  GreedyPayment payment;
  payment.phone = winner;
  payment.win_slot = Slot{own.win_slot};
  payment.own_bid = Money::from_micros(own.cost_micros);
  payment.window_end = own.departs;
  payment.amount = payment.own_bid;  // Algorithm 2 line 1: p_i <- b_i

  // The run without the winner, forked at its reported arrival; Algorithm
  // 2 folds its slots [t'_i, d~_i].
  fork_run("auction.counterfactual.payment_forks", winner.value(),
           own.arrival, std::min(own.departs, current_ - 1), nullptr,
           [&](Slot::rep_type t, const SlotResult& slot) {
             if (t < own.win_slot) return true;
             if (!slot.unserved.empty()) {
               payment.scarce = true;
               payment.scarce_cap = scarce_cap();
             }
             if (!slot.assigned.empty()) {
               // Line 6: the r_t-th (dearest) winner of the slot.
               const PoolBid& rival = slot.assigned.back().second;
               if (Money::from_micros(rival.cost_micros) > payment.amount) {
                 payment.amount = Money::from_micros(rival.cost_micros);
                 payment.setter_phone = PhoneId{rival.phone};
                 payment.setter_slot = Slot{t};
               }
             }
             return true;
           });

  payment.scarce_applied =
      payment.scarce && payment.scarce_cap > payment.amount;
  if (payment.scarce_applied) payment.amount = payment.scarce_cap;
  return payment;
}

bool GreedyRound::wins_with(PhoneId phone, const model::Bid& bid) const {
  const Slot::rep_type fork = bid.window.begin().value();
  const Slot::rep_type last = std::min(bid.window.end().value(), current_ - 1);
  if ((config_.reserve_price && bid.claimed_cost > *config_.reserve_price) ||
      fork > last) {
    count_fork("auction.counterfactual.probe_forks", 0, 0);
    return false;  // never admitted, or arrives after the advanced history
  }
  const auto slot = static_cast<std::size_t>(phone.value());
  MCS_EXPECTS(slot >= bid_of_phone_.size() || bid_of_phone_[slot] < 0 ||
                  admitted(phone).arrival == fork,
              "a probe keeps the phone's reported arrival");

  const PoolBid probe{bid.claimed_cost.micros(), phone.value(),
                      bid.window.end().value()};
  bool won = false;
  fork_run("auction.counterfactual.probe_forks", phone.value(), fork, last,
           &probe, [&](Slot::rep_type, const SlotResult& result) {
             for (const auto& [task, winner] : result.assigned) {
               won = won || winner.phone == phone.value();
             }
             return !won;  // allocated once means allocated for good
           });
  return won;
}

}  // namespace mcs::auction
