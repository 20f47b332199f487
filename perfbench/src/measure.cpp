#include "measure.hpp"

#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <exception>
#include <iostream>

#include "serve/verify.hpp"

namespace perfbench {

using mcs::serve::RoundOutcome;
using mcs::serve::ServeEvent;
using mcs::serve::WireFormat;

namespace {

/// Setup repetitions whose median is setup_s; each also re-checks that
/// the seed reproduces the stream byte for byte.
constexpr int kSetupReps = 15;
/// Fewest reported repetitions, however short `seconds` is.
constexpr std::size_t kMinReps = 3;
/// Serving time spent warming up before the reported repetitions.
constexpr double kWarmupSeconds = 1.0;
/// The live plane's snapshot period (the CLI's --stats-period-ms default).
constexpr std::chrono::milliseconds kSnapshotPeriod{100};
/// Heap use is sampled every this many events while serving.
constexpr std::int64_t kHeapSampleEvery = 8192;

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// Heap bytes in use, in MiB: malloc's count of allocated bytes over all
/// arenas plus its mmap-ed chunks. Unlike the resident set, this drops
/// when the previous repetition's memory is freed, so every repetition
/// measures its own growth.
double heap_mib() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

}  // namespace

void RunResult::fail(std::int64_t rounds, const std::string& why) {
  failed += rounds;
  if (first_error.empty()) first_error = why;
}

std::string to_json(const RunResult& result) {
  std::string out = "{\"correct\": ";
  out += result.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " +
         std::to_string(std::min(result.failed, result.attempted));
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& metric : result.metrics) {
    char number[64];
    const auto [end, ec] =
        std::to_chars(number, number + sizeof number, metric.value);
    out += first ? "" : ", ";
    first = false;
    out += "\"" + metric.name + "\": {\"value\": ";
    out.append(number, ec == std::errc{} ? end : number);
    out += ", \"unit\": \"" + metric.unit + "\"}";
  }
  out += "}}";
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------- Harness

mcs::serve::ServeConfig serve_config() {
  mcs::serve::ServeConfig config;
  config.shards = kShards;
  config.admission = mcs::serve::ServeConfig::Admission::kBlock;
  config.batch_size = kBatch;
  return config;
}

mcs::serve::EconTelemetryConfig econ_config() {
  mcs::serve::EconTelemetryConfig config;
  config.greedy = serve_config().greedy;
  return config;
}

Harness::Harness(const WorkloadSpec& spec) {
  mcs::serve::ServeConfig config = serve_config();
  if (spec.planes) {
    planes_ = std::make_unique<Planes>(econ_config());
    scope_.emplace(&planes_->registry);
    config.live = &planes_->live;
    config.econ = &planes_->econ;
    config.trace = &planes_->trace;
  }
  engine_ = std::make_unique<mcs::serve::ServeEngine>(config);
  batcher_ = std::make_unique<mcs::serve::ShardBatcher>(*engine_);
  if (spec.planes) {
    publisher_ = std::make_unique<mcs::serve::StatsPublisher>(
        planes_->live, planes_->stats_out, kSnapshotPeriod, &planes_->econ,
        &planes_->econ_out);
  }
}

Harness::~Harness() = default;

mcs::serve::SubmitStatus Harness::flush() { return batcher_->flush(); }

std::string Harness::drain() {
  try {
    engine_->drain();
  } catch (const std::exception& e) {
    return e.what();
  }
  return {};
}

void Harness::stop_planes() {
  if (publisher_) publisher_->stop();
}

mcs::serve::EconTelemetry* Harness::econ() {
  return planes_ ? &planes_->econ : nullptr;
}

// ------------------------------------------------------ correctness gate

bool same_outcome(const RoundOutcome& a, const RoundOutcome& b) {
  const mcs::auction::Allocation& x = a.outcome.allocation;
  const mcs::auction::Allocation& y = b.outcome.allocation;
  if (a.round != b.round || x.task_count() != y.task_count() ||
      x.phone_count() != y.phone_count() ||
      a.outcome.payments != b.outcome.payments) {
    return false;
  }
  for (int t = 0; t < x.task_count(); ++t) {
    if (x.phone_for(mcs::TaskId{t}) != y.phone_for(mcs::TaskId{t})) {
      return false;
    }
  }
  return true;
}

std::vector<RoundOutcome> check_engine(
    const WorkloadSpec& spec, std::uint64_t seed, Harness& harness,
    std::int64_t events, const std::string& drain_error,
    const std::vector<RoundOutcome>* reference, RunResult& result) {
  const std::int64_t rounds = spec.rounds;
  result.attempted += rounds;
  if (!drain_error.empty()) {
    result.fail(rounds, "stream error: " + drain_error);
    return {};
  }
  const mcs::serve::ServeStats& stats = harness.engine().stats();
  if (stats.submitted != events || stats.processed != events ||
      stats.rejected_backpressure != 0 || stats.rounds_abandoned != 0 ||
      stats.rounds_corrupted != 0 || stats.orphaned_events != 0) {
    result.fail(rounds, "serve stats: submitted " +
                            std::to_string(stats.submitted) + ", processed " +
                            std::to_string(stats.processed) + " of " +
                            std::to_string(events) + " events; rejected " +
                            std::to_string(stats.rejected_backpressure) +
                            ", abandoned " +
                            std::to_string(stats.rounds_abandoned) +
                            ", corrupted " +
                            std::to_string(stats.rounds_corrupted) +
                            ", orphaned " +
                            std::to_string(stats.orphaned_events));
    return {};
  }
  std::vector<RoundOutcome> outcomes = harness.engine().take_outcomes();
  std::int64_t bad = rounds - stats.rounds_completed;
  std::string why = bad == 0 ? "" : "rounds not completed";
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (outcomes[i].round != static_cast<std::int64_t>(i)) {
      result.fail(rounds, "outcome round ids are not 0..rounds-1");
      return {};
    }
  }
  if (reference != nullptr) {
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      if (i >= reference->size() || !same_outcome(outcomes[i], (*reference)[i])) {
        ++bad;
        if (why.empty()) {
          why = "round " + std::to_string(i) + " differs from the verified replay";
        }
      }
    }
  } else {
    const mcs::serve::VerifyReport report = mcs::serve::verify_against_batch(
        loadgen_config(spec, seed), outcomes, serve_config().greedy);
    bad += report.rounds_diverged;
    if (why.empty() && !report.clean()) why = report.first_diff;
  }
  if (mcs::serve::EconTelemetry* econ = harness.econ()) {
    const std::int64_t violations = econ->violations();
    bad += violations;
    if (why.empty() && violations > 0) {
      why = std::to_string(violations) + " econ sentinel violation(s)";
    }
  }
  if (bad > 0) result.fail(std::min(bad, rounds), why);
  return outcomes;
}

// ------------------------------------------------------- end-to-end run

RunResult run_end_to_end(const WorkloadSpec& spec, std::uint64_t seed,
                         double seconds) {
  RunResult result;

  // Set-up: input generation, encoding, engine and plane construction.
  std::vector<double> setup_s;
  std::string bytes;
  std::int64_t stream_events = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    RoundInputs inputs;
    std::unique_ptr<Harness> harness;
    const std::uint64_t start = now_ns();
    inputs = generate_rounds(spec, seed);
    const std::vector<ServeEvent> stream =
        interleave(inputs.events, spec.in_flight);
    std::string encoded = encode_stream(stream, WireFormat::kBinary);
    harness = std::make_unique<Harness>(spec);
    setup_s.push_back(seconds_since(start));
    if (rep == 0) {
      bytes = std::move(encoded);
      stream_events = static_cast<std::int64_t>(stream.size());
    } else if (encoded != bytes) {
      result.fail(spec.rounds, "the same seed gave a different stream");
    }
  }

  // Repetitions, each timed from its first decode to drain() return. The
  // first ones warm the host up to its sustained-load speed and are not
  // reported. The first repetition's outcomes are checked against the
  // batch oracle; every later one must reproduce them exactly.
  std::vector<double> events_per_s;
  std::vector<double> cpu_ms_per_kevent;
  std::vector<double> serve_heap_mib;
  std::vector<RoundOutcome> verified;
  double warm_s = 0.0;
  double timed_s = 0.0;
  for (int rep = 0; events_per_s.size() < kMinReps || timed_s < seconds; ++rep) {
    Harness harness(spec);
    const double heap_start = heap_mib();
    if (heap_start <= 0.0) {
      // A replaced allocator (e.g. a sanitizer's) leaves mallinfo2 at 0.
      result.fail(0, "malloc reports no heap in use; serve_heap_mib needs "
                     "glibc's mallinfo2");
    }
    double heap_peak = heap_start;
    std::int64_t sent = 0;
    std::string error;
    const std::uint64_t start = now_ns();
    const double cpu_start = process_cpu_s();
    try {
      StreamReader reader(bytes, WireFormat::kBinary);
      while (const std::optional<ServeEvent> event = reader.next()) {
        (void)harness.submit(*event);
        if (++sent % kHeapSampleEvery == 0) {
          heap_peak = std::max(heap_peak, heap_mib());
        }
      }
      (void)harness.flush();
    } catch (const std::exception& e) {
      error = std::string("decode: ") + e.what();
    }
    const std::string drain_error = harness.drain();
    const double wall_s = seconds_since(start);
    const double cpu_s = process_cpu_s() - cpu_start;
    heap_peak = std::max(heap_peak, heap_mib());
    harness.stop_planes();

    if (error.empty()) error = drain_error;
    if (error.empty() && sent != stream_events) {
      error = "decoded " + std::to_string(sent) + " of " +
              std::to_string(stream_events) + " events";
    }
    std::vector<RoundOutcome> outcomes = check_engine(
        spec, seed, harness, sent, error, rep == 0 ? nullptr : &verified,
        result);
    if (rep == 0) verified = std::move(outcomes);

    const double events = static_cast<double>(std::max<std::int64_t>(sent, 1));
    const bool warming = warm_s < kWarmupSeconds;
    std::cerr << (warming ? "warm-up " : "rep ") << rep << ": " << sent
              << " events, wall " << wall_s << " s, " << events / wall_s
              << " events/s, cpu " << cpu_s << " s, heap +"
              << heap_peak - heap_start << " MiB\n";
    if (warming) {
      warm_s += wall_s;
      continue;
    }
    events_per_s.push_back(events / wall_s);
    cpu_ms_per_kevent.push_back(cpu_s * 1e3 / (events / 1e3));
    serve_heap_mib.push_back(heap_peak - heap_start);
    timed_s += wall_s;
  }

  result.metrics = {
      {"setup_s", median(setup_s), "s"},
      {"events_per_s", median(events_per_s), "events/s"},
      {"cpu_ms_per_kevent", median(cpu_ms_per_kevent), "ms"},
      {"serve_heap_mib", median(serve_heap_mib), "MiB"},
  };
  return result;
}

}  // namespace perfbench
