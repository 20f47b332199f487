// Tests for the per-round tracing primitives: deterministic trace ids,
// bounded span timelines, the pinned-priority TraceRing (retained traces
// survive wraparound, healthy context is evicted first), sketch
// exemplars, and the multi-lane Chrome Trace Event exporter.
#include "obs/round_trace.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/export.hpp"

namespace mcs::obs {
namespace {

// ------------------------------------------------------------- trace ids

TEST(RoundTraceId, DeterministicAndDistinct) {
  EXPECT_EQ(trace_id_of(7), trace_id_of(7));
  EXPECT_NE(trace_id_of(7), trace_id_of(8));
  EXPECT_NE(trace_id_of(0), 0u) << "round 0 must still get a non-zero id";
}

TEST(RoundTraceId, PinnedToSplitMix64OfTheRound) {
  // Trace ids are part of the mcs.trace.v1 output; they must not move.
  EXPECT_EQ(trace_id_of(0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(trace_id_of(1), 0x910a2dec89025cc1ULL);
  EXPECT_EQ(trace_id_of(12345), 0x22118258a9d111a0ULL);
  EXPECT_EQ(trace_id_of(-1), 0xe4d971771b652c20ULL);
  EXPECT_EQ(format_trace_id(trace_id_of(7)), "63cbe1e459320dd7");
}

TEST(RoundTraceId, FormatsAsFixedWidthLowercaseHex) {
  EXPECT_EQ(format_trace_id(0), "0000000000000000");
  EXPECT_EQ(format_trace_id(0xabcULL), "0000000000000abc");
  EXPECT_EQ(format_trace_id(0xDEADBEEFCAFEF00DULL), "deadbeefcafef00d");
  EXPECT_EQ(format_trace_id(trace_id_of(3)).size(), 16u);
}

TEST(RoundTracePhase, NamesRoundTrip) {
  for (std::size_t p = 0; p < kTracePhaseCount; ++p) {
    const auto phase = static_cast<TracePhase>(p);
    TracePhase back{};
    ASSERT_TRUE(trace_phase_from_string(to_string(phase), back));
    EXPECT_EQ(back, phase);
  }
  TracePhase ignored{};
  EXPECT_FALSE(trace_phase_from_string("warp_drive", ignored));
}

// ------------------------------------------------------------- span cap

TEST(RoundTrace, SpanCapDropsAndCounts) {
  RoundTrace trace;
  trace.add_span(TracePhase::kQueueWait, -1, 0, 10, 2);
  trace.add_span(TracePhase::kSlotTick, 1, 10, 20, 2);
  trace.add_span(TracePhase::kSlotTick, 2, 20, 30, 2);
  trace.add_span(TracePhase::kPayment, -1, 30, 40, 2);
  ASSERT_EQ(trace.spans.size(), 2u);
  EXPECT_EQ(trace.spans_dropped, 2u);
  EXPECT_EQ(trace.spans[1].slot, 1);
  EXPECT_EQ(trace.spans[1].duration_ns(), 10u);
}

// ------------------------------------------------------------ trace ring

RoundTrace trace_of_round(std::int64_t round) {
  RoundTrace trace;
  trace.round = round;
  trace.trace_id = trace_id_of(round);
  return trace;
}

std::vector<std::int64_t> rounds_in(const TraceRing& ring) {
  std::vector<std::int64_t> rounds;
  for (const TraceRing::Entry& entry : ring.entries()) {
    rounds.push_back(entry.trace.round);
  }
  return rounds;
}

TEST(TraceRing, EvictsOldestUnpinnedFirst) {
  TraceRing ring(2);
  EXPECT_FALSE(ring.push(trace_of_round(0), false).evicted);
  EXPECT_FALSE(ring.push(trace_of_round(1), true).evicted);

  // Full: the unpinned round 0 is the victim, the pinned round 1 stays.
  const TraceRing::PushResult third = ring.push(trace_of_round(2), false);
  EXPECT_TRUE(third.evicted);
  EXPECT_FALSE(third.evicted_pinned);
  EXPECT_EQ(rounds_in(ring), (std::vector<std::int64_t>{2, 1}));

  // Again: round 2 (unpinned) goes, not the older pinned round 1.
  const TraceRing::PushResult fourth = ring.push(trace_of_round(3), true);
  EXPECT_TRUE(fourth.evicted);
  EXPECT_FALSE(fourth.evicted_pinned);
  EXPECT_EQ(rounds_in(ring), (std::vector<std::int64_t>{3, 1}));
}

TEST(TraceRing, AllPinnedFallsBackToOldestPinned) {
  TraceRing ring(2);
  ring.push(trace_of_round(0), true);
  ring.push(trace_of_round(1), true);
  const TraceRing::PushResult push = ring.push(trace_of_round(2), true);
  EXPECT_TRUE(push.evicted);
  EXPECT_TRUE(push.evicted_pinned) << "losing a retained trace is reported";
  EXPECT_EQ(rounds_in(ring), (std::vector<std::int64_t>{2, 1}));
}

TEST(TraceRing, ZeroCapacityClampsToOne) {
  TraceRing ring(0);
  EXPECT_EQ(ring.capacity(), 1u);
  ring.push(trace_of_round(0), false);
  EXPECT_TRUE(ring.push(trace_of_round(1), true).evicted);
  EXPECT_EQ(rounds_in(ring), (std::vector<std::int64_t>{1}));
}

// ------------------------------------------------------------- exemplars

TEST(SketchExemplars, KeepsWorstRoundPerBucketAboveThreshold) {
  SketchExemplars exemplars(100);
  EXPECT_EQ(exemplars.threshold_ns(), 100u);

  exemplars.offer(50, trace_id_of(1), 1);  // below threshold: ignored
  EXPECT_TRUE(exemplars.snapshot().empty());

  // 145 and 150 share a sub-bucket; the worst (150) wins it.
  exemplars.offer(145, trace_id_of(2), 2);
  exemplars.offer(150, trace_id_of(3), 3);
  exemplars.offer(148, trace_id_of(4), 4);  // not worse: ignored
  // A much slower round occupies a higher bucket.
  exemplars.offer(5000, trace_id_of(5), 5);

  const std::vector<SketchExemplars::Exemplar> snapshot =
      exemplars.snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].value_ns, 150u);
  EXPECT_EQ(snapshot[0].round, 3);
  EXPECT_EQ(snapshot[0].trace_id, trace_id_of(3));
  EXPECT_GE(snapshot[0].bucket_le_ns, 150u);
  EXPECT_EQ(snapshot[1].value_ns, 5000u);
  EXPECT_EQ(snapshot[1].round, 5);
  EXPECT_LT(snapshot[0].bucket_le_ns, snapshot[1].bucket_le_ns)
      << "snapshot is in ascending bucket order";
}

// ------------------------------------------- multi-lane Chrome exporter

TEST(ChromeTraceEvents, GoldenMultiLaneOutputWithFlows) {
  const std::vector<ChromeLane> lanes = {{1, 1, "producer"},
                                         {1, 2, "shard 0"}};
  std::vector<ChromeEvent> events;
  ChromeEvent queue;
  queue.name = "queue_wait";
  queue.tid = 1;
  queue.ts_us = 10;
  queue.dur_us = 5;
  queue.flow_out = 7;
  events.push_back(queue);
  ChromeEvent round;
  round.name = "round 7";
  round.tid = 2;
  round.ts_us = 15;
  round.dur_us = 20;
  round.flow_in = 7;
  events.push_back(round);

  std::ostringstream os;
  write_chrome_trace_events(os, lanes, events, {{"schema", "mcs.trace.v1"}});
  EXPECT_EQ(
      os.str(),
      "{\"traceEvents\":["
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
      "\"args\":{\"name\":\"mcs\"}},"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
      "\"args\":{\"name\":\"producer\"}},"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,"
      "\"args\":{\"name\":\"shard 0\"}},"
      "{\"name\":\"queue_wait\",\"cat\":\"mcs\",\"ph\":\"X\",\"ts\":10,"
      "\"dur\":5,\"pid\":1,\"tid\":1},"
      "{\"name\":\"round\",\"cat\":\"mcs\",\"ph\":\"s\",\"id\":7,\"ts\":15,"
      "\"pid\":1,\"tid\":1},"
      "{\"name\":\"round 7\",\"cat\":\"mcs\",\"ph\":\"X\",\"ts\":15,"
      "\"dur\":20,\"pid\":1,\"tid\":2},"
      "{\"name\":\"round\",\"cat\":\"mcs\",\"ph\":\"f\",\"bp\":\"e\","
      "\"id\":7,\"ts\":15,\"pid\":1,\"tid\":2}"
      "],\"displayTimeUnit\":\"ms\","
      "\"otherData\":{\"schema\":\"mcs.trace.v1\"}}\n");
}

TEST(ChromeTraceEvents, NoFlowsWhenIdsAreNegative) {
  ChromeEvent event;
  event.name = "payment";
  std::ostringstream os;
  write_chrome_trace_events(os, {}, {event});
  const std::string text = os.str();
  EXPECT_EQ(text.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_EQ(text.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"payment\""), std::string::npos);
}

}  // namespace
}  // namespace mcs::obs
