// Flight-recorder tests: JSONL golden stability, ring-sink bounds, the
// allocation-free disabled path, probe/record consistency of the
// critical-value bisection, deterministic replay (clean + tamper
// detection), and the per-bidder explain narrative on the paper's worked
// example.
#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/flight.hpp"
#include "common/error.hpp"
#include "auction/critical_value.hpp"
#include "model/paper_examples.hpp"
#include "obs/event_log.hpp"
#include "sim/simulator.hpp"
#include "support/generators.hpp"

// ------------------------------------------------------ allocation probe
//
// Global operator new override counting every heap allocation in the test
// binary -- the instrument behind the disabled-path test. Counting is the
// only extra work, so every other test runs unchanged.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

// The nothrow forms (std::stable_sort's temporary buffer) are replaced too,
// so every allocation is counted and every form pairs malloc with free.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace mcs {
namespace {

/// Attribute lookup helper; nullptr when absent.
const obs::Event::Value* attr(const obs::Event& event, std::string_view key) {
  for (const auto& [name, value] : event.attrs) {
    if (name == key) return &value;
  }
  return nullptr;
}

Money attr_money(const obs::Event& event, std::string_view key) {
  const obs::Event::Value* value = attr(event, key);
  EXPECT_NE(value, nullptr) << "missing attr " << key;
  return value != nullptr ? std::get<Money>(*value) : Money{};
}

// ------------------------------------------------------------- goldens

TEST(EventLogGolden, JsonlSerializationIsByteStable) {
  std::ostringstream os;
  obs::JsonlEventSink sink(os);
  obs::EventLog log(&sink);

  obs::Event assigned("task_assigned");
  assigned.slot = 2;
  assigned.phone = 1;
  assigned.task = 0;
  assigned.with("bid", Money::from_units(3)).with("profitable", true);
  log.append(std::move(assigned));

  obs::Event pool("slot_pool");
  pool.slot = 1;
  pool.with("pool", std::vector<std::int64_t>{2, 0, 1})
      .with("mean_cost", 2.5)
      .with("note", std::string("a\nb"))
      .with("count", std::int64_t{3});
  log.append(std::move(pool));

  EXPECT_EQ(os.str(),
            "{\"seq\":0,\"type\":\"log_header\",\"schema\":\"mcs.events.v1\"}\n"
            "{\"seq\":1,\"type\":\"task_assigned\",\"slot\":2,\"phone\":1,"
            "\"task\":0,\"bid\":\"3\",\"profitable\":true}\n"
            "{\"seq\":2,\"type\":\"slot_pool\",\"slot\":1,\"pool\":[2,0,1],"
            "\"mean_cost\":2.5,\"note\":\"a\\nb\",\"count\":3}\n");
  EXPECT_EQ(log.count(), 3u);
}

TEST(RingEventSink, KeepsMostRecentEventsOldestFirst) {
  obs::RingEventSink ring(3);
  obs::EventLog log(&ring);  // header is event 0
  for (int i = 0; i < 4; ++i) {
    log.append(obs::Event("e" + std::to_string(i)));
  }
  EXPECT_EQ(ring.total_appended(), 5u);
  const std::vector<obs::Event> events = ring.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].type, "e1");
  EXPECT_EQ(events[1].type, "e2");
  EXPECT_EQ(events[2].type, "e3");
}

// ------------------------------------------------------- disabled path

TEST(EventLogDisabled, NoAllocationsAndFactoryNeverRuns) {
  ASSERT_EQ(obs::current_event_log(), nullptr);
  bool factory_ran = false;
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) {
    obs::log_event([&] {
      factory_ran = true;
      return obs::Event("expensive")
          .with("key", std::string("a string long enough to force a heap "
                                   "allocation either way"));
    });
  }
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after, before) << "disabled log_event must not allocate";
  EXPECT_FALSE(factory_ran);
}

TEST(EventLogDisabled, SuppressionScopeNestsAndRestores) {
  obs::RingEventSink ring(8);
  obs::EventLog log(&ring);
  const obs::ScopedEventLog install(&log);
  obs::log_event([] { return obs::Event("outer"); });
  {
    const obs::ScopedEventLog suppress(nullptr);
    EXPECT_EQ(obs::current_event_log(), nullptr);
    obs::log_event([] { return obs::Event("hidden"); });
  }
  EXPECT_EQ(obs::current_event_log(), &log);
  obs::log_event([] { return obs::Event("outer2"); });
  const std::vector<obs::Event> events = ring.events();
  ASSERT_EQ(events.size(), 3u);  // header + outer + outer2
  EXPECT_EQ(events[1].type, "outer");
  EXPECT_EQ(events[2].type, "outer2");
}

// --------------------------------------------- bisection probe records

TEST(CriticalValueEvents, ProbeTrailMatchesSummary) {
  const model::Scenario scenario = model::fig4_scenario();
  const model::BidProfile bids = scenario.truthful_bids();

  obs::RingEventSink ring(4096);
  obs::EventLog log(&ring);
  std::optional<Money> critical;
  {
    const obs::ScopedEventLog install(&log);
    critical = auction::greedy_critical_value(scenario, bids, PhoneId{0});
  }
  ASSERT_TRUE(critical.has_value());

  const std::vector<obs::Event> events = ring.events();
  std::vector<obs::Event> probes;
  const obs::Event* found = nullptr;
  for (const obs::Event& event : events) {
    if (event.type == "critical_probe") probes.push_back(event);
    if (event.type == "critical_found") found = &event;
  }
  ASSERT_NE(found, nullptr);
  ASSERT_FALSE(probes.empty());

  // Every probe is tagged with the bidder and carries a coherent bracket.
  for (const obs::Event& probe : probes) {
    EXPECT_EQ(probe.phone, 0);
    EXPECT_LE(attr_money(probe, "lo"), attr_money(probe, "hi"));
    ASSERT_NE(attr(probe, "won"), nullptr);
  }
  // The summary's probe count is the number of probe records, and the
  // reported critical bid is the returned threshold -- the last bracket's
  // *upper* end (bisect_critical_value returns hi, and that is what the
  // payment path charges; reporting lo here once made explains drift one
  // micro below the money actually moved).
  EXPECT_EQ(std::get<std::int64_t>(*attr(*found, "probes")),
            static_cast<std::int64_t>(probes.size()));
  EXPECT_EQ(attr_money(*found, "critical_bid"),
            attr_money(probes.back(), "hi"));
  EXPECT_EQ(attr_money(*found, "critical_bid"), *critical);
  // Paper worked example: Algorithm 2 pays phone 0 (Smartphone 1)
  // exactly 9; the bisection brackets that threshold to one micro from
  // above, so the reported critical bid is 9.000001.
  EXPECT_EQ(attr_money(*found, "critical_bid"), Money::from_micros(9'000'001));
  EXPECT_EQ(attr_money(*found, "lo"), Money::from_units(9));
  // The inner counterfactual allocations stay out of the primary trail.
  for (const obs::Event& event : ring.events()) {
    EXPECT_NE(event.type, "task_assigned");
    EXPECT_NE(event.type, "slot_pool");
  }
}

// ------------------------------------------------------------- replay

analysis::ReplayReport record_and_replay(const analysis::RunSpec& spec,
                                         const model::Scenario& scenario) {
  std::ostringstream os;
  obs::JsonlEventSink sink(os);
  obs::EventLog log(&sink);
  (void)analysis::record_run(log, spec, scenario, scenario.truthful_bids());
  std::istringstream is(os.str());
  return analysis::replay_run(is);
}

TEST(Replay, OnlineRunReproducesByteForByte) {
  Rng rng(2024);
  for (int i = 0; i < 10; ++i) {
    const model::Scenario scenario = test_support::windowed(rng);
    const analysis::ReplayReport report =
        record_and_replay(analysis::RunSpec{}, scenario);
    EXPECT_TRUE(report.clean) << report.diff;
    EXPECT_EQ(report.mechanism, "online");
    EXPECT_EQ(report.recorded, report.reproduced);
  }
}

TEST(Replay, OfflineRunReproducesByteForByte) {
  Rng rng(2025);
  analysis::RunSpec spec;
  spec.mechanism = "offline";
  for (int i = 0; i < 10; ++i) {
    const model::Scenario scenario = test_support::windowed(rng);
    const analysis::ReplayReport report = record_and_replay(spec, scenario);
    EXPECT_TRUE(report.clean) << report.diff;
  }
}

TEST(Replay, ConfiguredOnlineRunRoundTrips) {
  analysis::RunSpec spec;
  spec.reserve = 8.0;
  spec.profitable_only = true;
  const analysis::ReplayReport report =
      record_and_replay(spec, model::fig4_scenario());
  EXPECT_TRUE(report.clean) << report.diff;
}

TEST(Replay, DetectsTamperedOutcome) {
  std::ostringstream os;
  obs::JsonlEventSink sink(os);
  obs::EventLog log(&sink);
  (void)analysis::record_run(log, analysis::RunSpec{}, model::fig4_scenario(),
                             model::fig4_scenario().truthful_bids());
  std::string text = os.str();
  // Corrupt the recorded outcome: the paper example pays phone 0 exactly
  // 9; claim it was 8.
  const std::size_t at = text.find("pay 9");
  ASSERT_NE(at, std::string::npos);
  text[at + 4] = '8';
  std::istringstream is(text);
  const analysis::ReplayReport report = analysis::replay_run(is);
  EXPECT_FALSE(report.clean);
  EXPECT_NE(report.diff.find("diverge"), std::string::npos);
}

TEST(Replay, RejectsForeignStreams) {
  std::istringstream empty("");
  EXPECT_THROW((void)analysis::replay_run(empty), InvalidArgumentError);
  std::istringstream foreign("{\"seq\":0,\"type\":\"something_else\"}\n");
  EXPECT_THROW((void)analysis::replay_run(foreign), InvalidArgumentError);
}

// ------------------------------------------------------------- explain

TEST(Explain, NamesTheCriticalBidOfTheWorkedExampleWinner) {
  const model::Scenario scenario = model::fig4_scenario();
  std::ostringstream os;
  obs::JsonlEventSink sink(os);
  obs::EventLog log(&sink);
  const auction::Outcome outcome =
      analysis::record_run(log, analysis::RunSpec{}, scenario,
                           scenario.truthful_bids(),
                           /*probe_critical_values=*/true);
  // Paper Section V-B: phone 0 (Smartphone 1) wins and is paid exactly 9.
  ASSERT_TRUE(outcome.allocation.is_winner(PhoneId{0}));
  ASSERT_EQ(outcome.payments[0], Money::from_units(9));

  std::istringstream is(os.str());
  const std::string story = analysis::explain_phone(is, 0);
  // The explain renders the returned threshold (one micro above the
  // bracketed bid of exactly 9), never a value below the payment charged.
  EXPECT_NE(story.find("critical bid 9.000001"), std::string::npos) << story;
  EXPECT_NE(story.find("paid 9"), std::string::npos) << story;
  EXPECT_NE(story.find("verdict: phone 0 won"), std::string::npos) << story;
}

TEST(Explain, ReportsAbsentPhones) {
  std::ostringstream os;
  obs::JsonlEventSink sink(os);
  obs::EventLog log(&sink);
  (void)analysis::record_run(log, analysis::RunSpec{}, model::fig4_scenario(),
                             model::fig4_scenario().truthful_bids());
  std::istringstream is(os.str());
  const std::string story = analysis::explain_phone(is, 99);
  EXPECT_NE(story.find("phone 99 does not appear"), std::string::npos);
}

// --------------------------------------------------- simulator sampling

TEST(SimulatorSampling, LogEveryNRecordsOnlySampledRepetitions) {
  sim::StandardMechanisms mechanisms;
  sim::SimulationConfig config;
  config.repetitions = 10;
  config.workload.num_slots = 4;
  config.workload.phone_arrival_rate = 2.0;
  config.workload.task_arrival_rate = 1.0;
  config.log_every_n = 3;  // samples repetitions 0, 3, 6, 9

  obs::RingEventSink ring(65536);
  obs::EventLog log(&ring);
  {
    const obs::ScopedEventLog install(&log);
    (void)sim::simulate(config, mechanisms.pointers());
  }
  int sampled = 0;
  for (const obs::Event& event : ring.events()) {
    if (event.type == "repetition_started") ++sampled;
  }
  EXPECT_EQ(sampled, 4);

  // log_every_n = 0 (the default) suppresses everything.
  obs::RingEventSink quiet_ring(1024);
  obs::EventLog quiet_log(&quiet_ring);
  config.log_every_n = 0;
  {
    const obs::ScopedEventLog install(&quiet_log);
    (void)sim::simulate(config, mechanisms.pointers());
  }
  EXPECT_EQ(quiet_log.count(), 1u);  // header only
}

}  // namespace
}  // namespace mcs
