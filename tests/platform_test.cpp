// Tests for the deployable platform: a serve::RoundMachine fed one round's
// event stream (serve::round_events). Protocol-level behavior -- payment
// timing at reported departure, the stream checks on untrusted input --
// and equivalence with the batch OnlineGreedyMechanism on random windows
// and misreports, plus the truthfulness audit run through the streaming
// path itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <variant>
#include <vector>

#include "analysis/truthfulness.hpp"
#include "auction/online_greedy.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "model/paper_examples.hpp"
#include "obs/event_log.hpp"
#include "serve/event.hpp"
#include "serve/loadgen.hpp"
#include "serve/round_machine.hpp"
#include "support/generators.hpp"
#include "support/streaming.hpp"

namespace mcs {
namespace {

using serve::RoundMachine;
using test_support::stream_round;

Money mu(std::int64_t units) { return Money::from_units(units); }

model::Bid bid(Slot::rep_type from, Slot::rep_type to, std::int64_t cost) {
  return model::Bid{SlotInterval::of(from, to), mu(cost)};
}

// -------------------------------------------------------------- protocol

/// One payment_derivation record, with the stream event whose apply()
/// appended it.
struct PaymentRecord {
  PhoneId phone;
  Slot stamped;
  Money amount;
  serve::ServeEvent during;
};

struct StreamedPayments {
  serve::RoundOutcome outcome;
  std::vector<PaymentRecord> records;
};

/// Streams the truthful round event by event under a ring sink and checks
/// that every winner has exactly one payment_derivation record, appended
/// during the slot_tick of its reported departure and stamped with that
/// slot, for the amount take_outcome() reports; losers have none.
StreamedPayments expect_paid_at_departure(const model::Scenario& scenario,
                                          const std::string& label) {
  const model::BidProfile bids = scenario.truthful_bids();
  const std::vector<serve::ServeEvent> stream =
      serve::round_events(0, scenario, bids);
  obs::RingEventSink ring(65536);
  obs::EventLog log(&ring);
  RoundMachine machine(stream.front(), {});
  // before[k] = records appended before stream[k + 1] was applied.
  std::vector<std::uint64_t> before;
  {
    const obs::ScopedEventLog install(&log);
    for (std::size_t k = 1; k < stream.size(); ++k) {
      before.push_back(ring.total_appended());
      (void)machine.apply(stream[k]);
    }
  }
  const std::vector<obs::Event> events = ring.events();
  EXPECT_EQ(ring.total_appended(), events.size()) << label << ": overflow";
  StreamedPayments out{machine.take_outcome(), {}};
  const auction::Outcome& outcome = out.outcome.outcome;
  std::vector<PaymentRecord>& records = out.records;
  for (std::size_t j = 0; j < events.size(); ++j) {
    const obs::Event& event = events[j];
    if (event.type != "payment_derivation") continue;
    const auto applied =
        std::upper_bound(before.begin(), before.end(), j) - before.begin();
    Money amount;
    for (const auto& [key, value] : event.attrs) {
      if (key == "payment") amount = std::get<Money>(value);
    }
    records.push_back(PaymentRecord{PhoneId{event.phone}, Slot{event.slot},
                                    amount,
                                    stream[static_cast<std::size_t>(applied)]});
  }

  std::vector<int> per_phone(bids.size(), 0);
  for (const PaymentRecord& record : records) {
    const auto phone = static_cast<std::size_t>(record.phone.value());
    if (phone >= bids.size()) {
      ADD_FAILURE() << label << ": record for unknown phone " << phone;
      continue;
    }
    ++per_phone[phone];
    const Slot departure = bids[phone].window.end();
    EXPECT_EQ(record.during.kind, serve::ServeEventKind::kSlotTick) << label;
    EXPECT_EQ(record.during.slot, departure) << label << " phone " << phone;
    EXPECT_EQ(record.stamped, departure) << label << " phone " << phone;
    EXPECT_EQ(record.amount, outcome.payments[phone])
        << label << " phone " << phone;
  }
  for (int i = 0; i < scenario.phone_count(); ++i) {
    const bool winner = outcome.allocation.is_winner(PhoneId{i});
    EXPECT_EQ(per_phone[static_cast<std::size_t>(i)], winner ? 1 : 0)
        << label << " phone " << i;
  }
  return out;
}

TEST(Platform, PaymentsLandInTheReportedDepartureSlot) {
  // Section V-C: "each smartphone receives its payment in its reported
  // departure slot."
  const StreamedPayments fig4 =
      expect_paid_at_departure(model::fig4_scenario(), "fig4");
  const std::vector<PaymentRecord>& records = fig4.records;
  EXPECT_EQ(records.size(), 5u);
  // Phone 0 (wins slot 2, departs slot 5) is the paper's worked example.
  const auto phone0 =
      std::find_if(records.begin(), records.end(), [](const PaymentRecord& r) {
        return r.phone == PhoneId{0};
      });
  ASSERT_NE(phone0, records.end());
  EXPECT_EQ(phone0->stamped, Slot{5});
  EXPECT_EQ(phone0->amount, mu(9));
}

TEST(TranscriptAgreement, EveryPaymentIssuedHasADerivationRecord) {
  // The payment_derivation records (payment rule) and the outcome
  // take_outcome() reports are produced by different layers; they must
  // agree on phone, departure slot and amount for every winner.
  Rng rng(77);
  for (int i = 0; i < 25; ++i) {
    (void)expect_paid_at_departure(test_support::windowed(rng),
                                   "windowed#" + std::to_string(i));
  }
}

TEST(Platform, TotalPaidAccumulates) {
  const StreamedPayments fig4 =
      expect_paid_at_departure(model::fig4_scenario(), "fig4");
  Money total;
  for (const PaymentRecord& record : fig4.records) total += record.amount;
  EXPECT_EQ(fig4.outcome.total_paid, total);
  EXPECT_EQ(total, mu(50));  // the hand-computed Fig. 4 total
}

TEST(Platform, BidSubmissionRules) {
  RoundMachine machine(serve::round_open(0, 5, mu(20)), {});
  // Arrival must match the current slot.
  EXPECT_THROW(machine.apply(serve::bid_submitted(0, PhoneId{0}, bid(2, 4, 3))),
               InvalidArgumentError);
  // The window must end inside the round.
  EXPECT_THROW(machine.apply(serve::bid_submitted(0, PhoneId{0}, bid(1, 6, 3))),
               InvalidArgumentError);
  EXPECT_FALSE(
      machine.apply(serve::bid_submitted(0, PhoneId{0}, bid(1, 4, 3))));
  // One bid per agent per round.
  EXPECT_THROW(machine.apply(serve::bid_submitted(0, PhoneId{0}, bid(1, 2, 5))),
               InvalidArgumentError);
  for (Slot::rep_type t = 1; t <= 5; ++t) {
    (void)machine.apply(serve::slot_tick(0, Slot{t}));
  }
  ASSERT_TRUE(machine.apply(serve::round_close(0)));
  EXPECT_EQ(machine.take_outcome().bids_admitted, 1);
}

TEST(Platform, ReserveRejectsAtTheDoor) {
  auction::OnlineGreedyConfig config;
  config.reserve_price = mu(10);
  RoundMachine machine(serve::round_open(0, 3, mu(20)), config);
  (void)machine.apply(serve::bid_submitted(0, PhoneId{0}, bid(1, 3, 11)));
  (void)machine.apply(serve::bid_submitted(0, PhoneId{1}, bid(1, 3, 10)));
  for (Slot::rep_type t = 1; t <= 3; ++t) {
    (void)machine.apply(serve::slot_tick(0, Slot{t}));
  }
  ASSERT_TRUE(machine.apply(serve::round_close(0)));
  const serve::RoundOutcome outcome = machine.take_outcome();
  EXPECT_EQ(outcome.bids_rejected, 1);
  EXPECT_EQ(outcome.bids_admitted, 1);
}

TEST(Platform, TaskIdsMustBeDense) {
  RoundMachine machine(serve::round_open(0, 3, mu(20)), {});
  (void)machine.apply(serve::task_arrived(0, Slot{1}, TaskId{0}));
  EXPECT_THROW(machine.apply(serve::task_arrived(0, Slot{1}, TaskId{2})),
               InvalidArgumentError);
  // A negative round value is refused before the round exists.
  EXPECT_THROW((void)RoundMachine(serve::round_open(1, 3, mu(-1)), {}),
               InvalidArgumentError);
}

TEST(Platform, FinishedRoundRejectsFurtherInput) {
  RoundMachine machine(serve::round_open(0, 1, mu(20)), {});
  (void)machine.apply(serve::slot_tick(0, Slot{1}));
  EXPECT_THROW(machine.apply(serve::task_arrived(0, Slot{1}, TaskId{0})),
               InvalidArgumentError);
  EXPECT_THROW(machine.apply(serve::slot_tick(0, Slot{2})),
               InvalidArgumentError);
  ASSERT_TRUE(machine.apply(serve::round_close(0)));
  EXPECT_THROW(machine.apply(serve::round_close(0)), InvalidArgumentError);
}

TEST(Platform, UnservedTaskExpires) {
  obs::RingEventSink ring(64);
  obs::EventLog log(&ring);
  RoundMachine machine(serve::round_open(0, 2, mu(20)), {});
  {
    const obs::ScopedEventLog install(&log);
    (void)machine.apply(serve::task_arrived(0, Slot{1}, TaskId{0}));
    (void)machine.apply(serve::slot_tick(0, Slot{1}));
    (void)machine.apply(serve::slot_tick(0, Slot{2}));
  }
  ASSERT_TRUE(machine.apply(serve::round_close(0)));
  const serve::RoundOutcome outcome = machine.take_outcome();
  EXPECT_EQ(outcome.tasks_announced, 1);
  EXPECT_FALSE(outcome.outcome.allocation.phone_for(TaskId{0}).has_value());
  const std::vector<obs::Event> events = ring.events();
  const auto unserved =
      std::find_if(events.begin(), events.end(), [](const obs::Event& e) {
        return e.type == "task_unserved";
      });
  ASSERT_NE(unserved, events.end());
  EXPECT_EQ(unserved->task, 0);
  EXPECT_EQ(unserved->slot, 1);  // it expires in its arrival slot
}

// ------------------------------------------------------------ equivalence

TEST(Platform, EquivalenceOnRandomWindows) {
  Rng rng(88);
  model::ScenarioBuilder builder(6);
  builder.value(25);
  for (int i = 0; i < 8; ++i) {
    const auto a = static_cast<Slot::rep_type>(rng.uniform_int(1, 6));
    const auto d = static_cast<Slot::rep_type>(rng.uniform_int(a, 6));
    builder.phone(a, d, rng.uniform_int(1, 20));
  }
  for (int k = 0; k < 6; ++k) {
    builder.task(static_cast<Slot::rep_type>(rng.uniform_int(1, 6)));
  }
  const model::Scenario scenario = builder.build();
  const model::BidProfile bids = scenario.truthful_bids();

  const auction::Outcome batch =
      auction::OnlineGreedyMechanism{}.run(scenario, bids);
  const auction::Outcome streamed = stream_round(scenario, bids).outcome;
  EXPECT_EQ(streamed.payments, batch.payments);
  for (int t = 0; t < scenario.task_count(); ++t) {
    EXPECT_EQ(streamed.allocation.phone_for(TaskId{t}),
              batch.allocation.phone_for(TaskId{t}));
  }
}

TEST(Platform, EquivalenceUnderMisreports) {
  // The equivalence must hold on arbitrary bid profiles, not just truthful
  // ones (the platform never sees true profiles anyway).
  const model::Scenario s = model::fig4_scenario();
  const model::BidProfile bids = model::with_bid(
      s.truthful_bids(), PhoneId{0}, model::fig5_delayed_bid_phone1());
  const auction::Outcome batch =
      auction::OnlineGreedyMechanism{}.run(s, bids);
  EXPECT_EQ(stream_round(s, bids).outcome.payments, batch.payments);
}

TEST(Platform, DeployablePathIsItselfTruthful) {
  // Belt and braces: run the exhaustive deviation audit THROUGH the
  // streaming path (not the batch mechanism it is equivalent to), by
  // adapting it to the Mechanism interface. Catches any future drift
  // between the two at the incentive level.
  class StreamingAdapter final : public auction::Mechanism {
   public:
    [[nodiscard]] auction::Outcome run(
        const model::Scenario& scenario,
        const model::BidProfile& bids) const override {
      return stream_round(scenario, bids).outcome;
    }
    [[nodiscard]] std::string name() const override {
      return "online-platform";
    }
  };

  const model::Scenario s = model::fig4_scenario();
  const StreamingAdapter streaming_mechanism;
  const analysis::TruthfulnessReport report =
      analysis::audit_truthfulness(streaming_mechanism, s);
  EXPECT_TRUE(report.truthful()) << report.summary();
}

}  // namespace
}  // namespace mcs
