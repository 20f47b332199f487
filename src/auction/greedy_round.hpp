// The one implementation of the online mechanism's rules (paper Section V):
// Algorithm 1's per-slot greedy step and Algorithm 2's critical-value
// payment. Every caller runs on it -- the batch mechanism
// (run_greedy_allocation, OnlineGreedyMechanism), the critical-value
// probes (CounterfactualEngine), and the serve path's per-round
// serve::RoundMachine, which owns one GreedyRound per streamed round.
//
// A GreedyRound learns its round slot by slot. Tasks and bids of the
// current slot are admitted (the reserve check happens at the door), then
// advance() runs the Algorithm 1 step on the dynamic pool -- the active
// unallocated bids ordered by (claimed cost, phone id) -- and records each
// winner's win slot. A batch caller admits the whole scenario up front and
// advances to the horizon; a streaming caller interleaves admissions with
// advance() and settles each winner at its reported departure: after
// advance() closes slot t, every departing(t) winner is paid payment().
//
// Algorithm 2 needs, per winner i, the run without B_i over [t'_i, d~_i].
// That run equals the factual one before i's reported arrival a~_i (B_i
// cannot influence a pool it has not joined), so payment() forks there:
// it rebuilds the pool at a~_i from the recorded win slots and replays
// only [a~_i, d~_i] with the same slot step. wins_with() forks the same
// way for critical-value probes. Nothing is snapshotted per slot:
// per-round state is O(bids + tasks + slots).
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "auction/online_greedy.hpp"
#include "common/money.hpp"
#include "model/scenario.hpp"

namespace mcs::obs {
class Histogram;
}  // namespace mcs::obs

namespace mcs::auction {

/// One pooled bid. Ordering by (claimed cost, phone id) ascending is the
/// total deterministic order that makes the allocation rule monotone
/// (Definition 10) and the audits exact.
struct PoolBid {
  std::int64_t cost_micros;
  int phone;
  Slot::rep_type departs;  ///< reported departure d~: pooled through it

  friend bool operator<(const PoolBid& a, const PoolBid& b) {
    if (a.cost_micros != b.cost_micros) return a.cost_micros < b.cost_micros;
    return a.phone < b.phone;
  }
};

/// Algorithm 2 for one winner, with the derivation the flight recorder
/// logs as a payment_derivation event.
struct GreedyPayment {
  PhoneId phone{-1};
  Slot win_slot{0};
  Money own_bid;
  Slot::rep_type window_end{0};
  Money amount;  ///< the payment
  /// Some task in [t'_i, d~_i] goes unserved without the winner.
  bool scarce{false};
  Money scarce_cap;
  bool scarce_applied{false};
  /// Which counterfactual slot winner set the payment (the argmax of
  /// Algorithm 2 line 6).
  std::optional<PhoneId> setter_phone;
  Slot setter_slot{0};

  /// Records the payment_derivation event, stamped with slot `at`.
  void log(Slot at) const;
};

class GreedyRound {
 public:
  /// An empty round of `num_slots` slots, fed by announce_task/submit_bid.
  GreedyRound(Slot::rep_type num_slots, OnlineGreedyConfig config);

  /// A whole scenario admitted up front: every task, and every bid in
  /// phone-id order except `exclude`'s (which never bids). The round ends
  /// after `last_slot` (0 = the scenario's horizon).
  GreedyRound(const model::Scenario& scenario, const model::BidProfile& bids,
              OnlineGreedyConfig config,
              std::optional<PhoneId> exclude = std::nullopt,
              Slot::rep_type last_slot = 0);

  /// The slot the next advance() processes.
  [[nodiscard]] Slot::rep_type current_slot() const { return current_; }
  [[nodiscard]] Slot::rep_type horizon() const { return horizon_; }
  [[nodiscard]] bool finished() const { return current_ > horizon_; }
  [[nodiscard]] const OnlineGreedyConfig& config() const { return config_; }
  [[nodiscard]] int task_count() const {
    return static_cast<int>(tasks_.size());
  }

  /// A task worth `value` arrives in the current slot; its id is the
  /// number of tasks announced before it.
  void announce_task(Money value);

  /// A phone bids in the slot it joins (its reported arrival must be the
  /// current slot). Returns false when the platform reserve turns it away.
  bool submit_bid(PhoneId phone, const model::Bid& bid);

  struct SlotTask {
    TaskId id;
    Money value;
  };

  /// What one slot of Algorithm 1 decided.
  struct SlotResult {
    Slot slot{0};
    /// Assignments in allocation order (cheapest bid first).
    std::vector<std::pair<TaskId, PoolBid>> assigned;
    /// Tasks left unserved (dry pool, or no profitable bid).
    std::vector<SlotTask> unserved;
  };

  /// Runs Algorithm 1 on the current slot and moves to the next one. When
  /// `pool` is non-null it receives the slot's dynamic pool, cheapest
  /// first (Fig. 4), before allocation.
  const SlotResult& advance(std::vector<PhoneId>* pool = nullptr);

  /// Admitted phones whose reported departure is slot `t` (<= the last
  /// advanced slot), in admission order, with whether each won.
  [[nodiscard]] std::vector<std::pair<PhoneId, bool>> departing(
      Slot::rep_type t) const;

  /// Algorithm 2 for `winner` over the history advanced so far: call it at
  /// the winner's reported departure when streaming, or after the round.
  [[nodiscard]] GreedyPayment payment(PhoneId winner) const;

  /// Does `phone` win when reporting `bid` instead, all other bids fixed?
  /// Forks at bid's arrival (which must be the phone's admitted arrival,
  /// if it was admitted) and stops at its first assignment. Equivalent to
  /// re-running the round on with_bid(bids, phone, bid).
  [[nodiscard]] bool wins_with(PhoneId phone, const model::Bid& bid) const;

 private:
  struct Admitted {
    std::int64_t cost_micros;
    int phone;
    Slot::rep_type arrival;
    Slot::rep_type departs;
    Slot::rep_type win_slot;  ///< 0 = not allocated (yet)
  };
  /// The reserve check at the door, with its bid_admitted/bid_rejected
  /// event.
  [[nodiscard]] bool admit(PhoneId phone, const model::Bid& bid) const;
  void index_bid(std::size_t position);
  [[nodiscard]] const Admitted& admitted(PhoneId phone) const;
  [[nodiscard]] Money scarce_cap(Money task_value) const;

  /// Algorithm 1 line 3: drops bids departed before `t` and pools the
  /// bids arriving in `t`.
  void enter_slot(Slot::rep_type t, std::vector<PoolBid>& pool) const;
  /// Algorithm 1 lines 5-8: the slot's tasks, highest value first, go to
  /// the cheapest pooled bids.
  void allocate_slot(Slot::rep_type t, std::vector<PoolBid>& pool,
                     SlotResult& out) const;
  /// The pool at the start of slot `fork` (arrivals of `fork` included),
  /// rebuilt from the recorded win slots, without `exclude`.
  [[nodiscard]] std::vector<PoolBid> pool_at(Slot::rep_type fork,
                                             int exclude) const;
  /// Replays slots [fork, last] of the run without `exclude` (plus
  /// `probe`, when set) and hands each slot's decisions to
  /// on_slot(t, result), which returns false to stop early. `exclude`
  /// must arrive at `fork` (if it bid at all), so only the rebuilt pool
  /// can hold it. Counts the fork under `counter`.
  template <class OnSlot>
  void fork_run(const char* counter, int exclude, Slot::rep_type fork,
                Slot::rep_type last, const PoolBid* probe,
                OnSlot on_slot) const;
  void publish_stats() const;

  OnlineGreedyConfig config_;
  Slot::rep_type horizon_;
  Slot::rep_type current_{1};

  /// Admitted bids in arrival-slot order; bids_end_[t] is the number
  /// arriving in slots <= t.
  std::vector<Admitted> bids_;
  std::vector<std::uint32_t> bids_end_;
  std::vector<int> bid_of_phone_;  ///< phone id -> bids_ index, -1 = none
  Slot::rep_type max_span_{0};     ///< longest reported d~ - a~ admitted
  /// Tasks in arrival-slot order, each slot's highest value first once it
  /// is advanced; tasks_end_[t] is the number arriving in slots <= t.
  std::vector<SlotTask> tasks_;
  std::vector<std::uint32_t> tasks_end_;

  std::vector<PoolBid> pool_;  ///< the factual dynamic pool
  SlotResult result_;

  obs::Histogram* pool_hist_{nullptr};
  std::int64_t pool_insertions_{0};
  std::int64_t tasks_assigned_{0};
  std::int64_t tasks_unserved_{0};
};

}  // namespace mcs::auction
