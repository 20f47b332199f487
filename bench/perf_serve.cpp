// Serving-path microbenches: end-to-end throughput of the sharded
// streaming engine across shard counts (submit -> queue -> worker ->
// RoundMachine -> drain), the batched producer handoff, and the two wire
// codecs -- mcs.serve.v1 JSONL vs the mcs.serve.b1 binary format -- both
// as pure decode loops and as full decode->submit->drain ingest pipelines
// (the binary-vs-JSONL events/sec headroom claim lives here).
//
// Every bench that drives the engine uses UseRealTime(): its work runs on
// the shard worker threads, so the main thread's CPU time would count
// only the producer and overstate items_per_second.
//
// Counter-pass determinism: block admission means every generated event is
// processed exactly once, so the serve.events.* counters merged at drain
// are identical run to run and for every shard count -- safe for the exact
// comparison `mcs_cli bench-diff` applies to the committed baseline.
#include <benchmark/benchmark.h>

#include <sstream>
#include <string>
#include <vector>

#include "serve/engine.hpp"
#include "serve/event.hpp"
#include "serve/loadgen.hpp"
#include "serve/replay.hpp"
#include "serve/wire.hpp"
#include "telemetry_main.hpp"

namespace {

using namespace mcs;

std::vector<serve::ServeEvent> canned_events(int rounds) {
  serve::LoadGenConfig load;
  load.rounds = rounds;
  load.seed = 7;
  std::vector<serve::ServeEvent> events;
  serve::generate_events(load, [&](const serve::ServeEvent& event) {
    events.push_back(event);
    return true;
  });
  return events;
}

void BM_ServeEngine(benchmark::State& state) {
  const std::vector<serve::ServeEvent> events = canned_events(16);
  for (auto _ : state) {
    serve::ServeConfig config;
    config.shards = static_cast<int>(state.range(0));
    config.admission = serve::ServeConfig::Admission::kBlock;
    serve::ServeEngine engine(config);
    for (const serve::ServeEvent& event : events) engine.submit(event);
    engine.drain();
    benchmark::DoNotOptimize(engine.stats());
  }
  state.counters["events"] = static_cast<double>(events.size());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_ServeEngine)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_ServeEncode(benchmark::State& state) {
  const std::vector<serve::ServeEvent> events = canned_events(4);
  for (auto _ : state) {
    for (const serve::ServeEvent& event : events) {
      benchmark::DoNotOptimize(serve::encode_serve_event(event));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_ServeEncode);

void BM_ServeDecode(benchmark::State& state) {
  std::vector<std::string> lines;
  for (const serve::ServeEvent& event : canned_events(4)) {
    lines.push_back(serve::encode_serve_event(event));
  }
  for (auto _ : state) {
    for (const std::string& line : lines) {
      benchmark::DoNotOptimize(serve::decode_serve_line(line));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(lines.size()));
}
BENCHMARK(BM_ServeDecode);

void BM_ServeEngineBatched(benchmark::State& state) {
  // Producer-side ShardBatcher handoff: one queue lock per batch instead
  // of one per event. Outcomes and merged counters are pinned identical
  // to the per-event path by serve_queue_test.
  const std::vector<serve::ServeEvent> events = canned_events(16);
  for (auto _ : state) {
    serve::ServeConfig config;
    config.shards = static_cast<int>(state.range(0));
    config.batch_size = static_cast<std::size_t>(state.range(1));
    config.admission = serve::ServeConfig::Admission::kBlock;
    serve::ServeEngine engine(config);
    serve::ShardBatcher batcher(engine);
    for (const serve::ServeEvent& event : events) batcher.add(event);
    batcher.flush();
    engine.drain();
    benchmark::DoNotOptimize(engine.stats());
  }
  state.counters["events"] = static_cast<double>(events.size());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_ServeEngineBatched)
    ->Args({4, 16})
    ->Args({8, 64})
    ->UseRealTime();

void BM_ServeEncodeWire(benchmark::State& state) {
  const std::vector<serve::ServeEvent> events = canned_events(4);
  std::string buffer;
  for (auto _ : state) {
    buffer.clear();
    for (const serve::ServeEvent& event : events) {
      serve::append_wire_frame(buffer, event);
    }
    benchmark::DoNotOptimize(buffer);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_ServeEncodeWire);

void BM_ServeDecodeWire(benchmark::State& state) {
  // Binary counterpart of BM_ServeDecode: same events, zero-copy frame
  // decode instead of JSON parsing.
  std::string frames;
  std::int64_t count = 0;
  for (const serve::ServeEvent& event : canned_events(4)) {
    serve::append_wire_frame(frames, event);
    ++count;
  }
  for (auto _ : state) {
    std::string_view rest(frames);
    while (!rest.empty()) {
      const auto decoded = serve::decode_wire_frame(rest);
      benchmark::DoNotOptimize(decoded);
      rest.remove_prefix(decoded->consumed);
    }
  }
  state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_ServeDecodeWire);

// Full ingest pipelines: a recorded stream decoded and pushed through the
// 8-shard engine with the batched handoff, stream parsing included. The
// two benches differ only in the wire format of the input bytes, so their
// items_per_second ratio is the end-to-end cost of the codec choice.
void pipeline_bench(benchmark::State& state, const std::string& stream) {
  std::int64_t events = 0;
  for (auto _ : state) {
    serve::ServeConfig config;
    config.shards = 8;
    config.batch_size = 64;
    config.admission = serve::ServeConfig::Admission::kBlock;
    serve::ServeEngine engine(config);
    std::istringstream is(stream);
    const serve::ReplayStats replayed =
        serve::replay_event_stream(is, engine, /*batch=*/true);
    engine.drain();
    events = replayed.events;
    benchmark::DoNotOptimize(engine.stats());
  }
  state.counters["events"] = static_cast<double>(events);
  state.SetItemsProcessed(state.iterations() * events);
}

void BM_ServePipelineJsonl(benchmark::State& state) {
  std::ostringstream recorded;
  serve::LoadGenConfig load;
  load.rounds = 16;
  load.seed = 7;
  serve::write_event_stream(recorded, load);
  pipeline_bench(state, recorded.str());
}
BENCHMARK(BM_ServePipelineJsonl)->UseRealTime();

void BM_ServePipelineWire(benchmark::State& state) {
  std::ostringstream recorded;
  serve::LoadGenConfig load;
  load.rounds = 16;
  load.seed = 7;
  serve::write_wire_stream(recorded, load);
  pipeline_bench(state, recorded.str());
}
BENCHMARK(BM_ServePipelineWire)->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  return mcs_bench::telemetry_main(argc, argv, "perf_serve");
}
