#include "serve/engine.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/trace.hpp"
#include "serve/econ_telemetry.hpp"
#include "serve/telemetry.hpp"
#include "serve/trace_plane.hpp"

namespace mcs::serve {

namespace {

/// Counter name of one processed event kind.
std::string_view event_counter_name(ServeEventKind kind) {
  switch (kind) {
    case ServeEventKind::kRoundOpen:
      return "serve.events.round_open";
    case ServeEventKind::kTaskArrived:
      return "serve.events.task_arrived";
    case ServeEventKind::kBidSubmitted:
      return "serve.events.bid_submitted";
    case ServeEventKind::kSlotTick:
      return "serve.events.slot_tick";
    case ServeEventKind::kRoundClose:
      return "serve.events.round_close";
  }
  return "serve.events.unknown";
}

}  // namespace

void ServeConfig::validate() const {
  if (shards < 1) throw InvalidArgumentError("serve: shards must be >= 1");
  if (queue_capacity < 1) {
    throw InvalidArgumentError("serve: queue_capacity must be >= 1");
  }
  if (batch_size < 1 || batch_size > queue_capacity) {
    throw InvalidArgumentError(
        "serve: batch_size must be in [1, queue_capacity]");
  }
  // The sentinel checks payment == critical value by re-running the
  // mechanism under the econ plane's knobs; other knobs audit a different
  // mechanism than the one serving.
  if (econ != nullptr && econ->config().greedy != greedy) {
    throw InvalidArgumentError(
        "serve: the econ plane's greedy config must match the engine's");
  }
}

std::string_view to_string(SubmitStatus status) {
  switch (status) {
    case SubmitStatus::kAccepted:
      return "accepted";
    case SubmitStatus::kRejectedQueueFull:
      return "rejected:queue-full";
    case SubmitStatus::kRejectedStopped:
      return "rejected:stopped";
  }
  return "unknown";
}

int shard_of_round(std::int64_t round, int shards) {
  // splitmix64 of the round id: deterministic and well-mixed regardless
  // of the platform's std::hash.
  const std::uint64_t x = SplitMix64(static_cast<std::uint64_t>(round)).next();
  return static_cast<int>(x % static_cast<std::uint64_t>(shards));
}

// ---------------------------------------------------------------- engine

ServeEngine::ServeEngine(ServeConfig config)
    : config_(std::move(config)), parent_registry_(obs::current_registry()) {
  config_.validate();
  if (config_.live != nullptr) {
    config_.live->attach(config_.shards,
                         static_cast<std::int64_t>(config_.queue_capacity));
  }
  if (config_.econ != nullptr) config_.econ->attach(config_.shards);
  if (config_.trace != nullptr) config_.trace->attach(config_.shards);
  shards_.reserve(static_cast<std::size_t>(config_.shards));
  for (int i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(i, config_.queue_capacity));
  }
  // Start the workers only after every shard exists (shard_of_round may
  // route to any of them from the first submit on).
  for (auto& shard : shards_) {
    shard->worker = std::thread([this, raw = shard.get()] {
      worker_main(*raw);
    });
  }
}

ServeEngine::~ServeEngine() {
  if (drained_) return;
  stopping_.store(true, std::memory_order_relaxed);
  for (auto& shard : shards_) shard->queue.close();
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

std::uint64_t ServeEngine::stamp_ns() {
  if (config_.live != nullptr) return config_.live->now_ns();
  if (config_.trace != nullptr) return config_.trace->now_ns();
  return 0;
}

SubmitStatus ServeEngine::submit(const ServeEvent& event) {
  return submit_batch(shard_of_round(event.round, config_.shards), &event, 1);
}

SubmitStatus ServeEngine::submit_batch(int shard_index,
                                       const ServeEvent* events,
                                       std::size_t count) {
  if (count == 0) return SubmitStatus::kAccepted;
  if (shard_index < 0 || shard_index >= config_.shards) {
    throw InvalidArgumentError("serve: submit_batch shard out of range");
  }
  // A misrouted event would split its round across two workers and
  // silently corrupt the outcome; the hash re-check is a few ns per event.
  for (std::size_t i = 0; i < count; ++i) {
    if (shard_of_round(events[i].round, config_.shards) != shard_index) {
      throw InvalidArgumentError(
          "serve: submit_batch event routed to the wrong shard");
    }
  }
  if (stopping_.load(std::memory_order_relaxed)) {
    return SubmitStatus::kRejectedStopped;
  }
  LiveTelemetry* const live = config_.live;
  Shard& shard = *shards_[static_cast<std::size_t>(shard_index)];
  // One clock read per handoff: the whole batch is enqueued at a single
  // instant, so its events legitimately share the stamp.
  const std::int64_t depth =
      config_.admission == ServeConfig::Admission::kBlock
          ? shard.queue.push_block(events, count, stamp_ns())
          : shard.queue.try_push(events, count, stamp_ns());
  if (depth < 0) {
    if (stopping_.load(std::memory_order_relaxed)) {
      return SubmitStatus::kRejectedStopped;
    }
    const auto shed = static_cast<std::int64_t>(count);
    rejected_.fetch_add(shed, std::memory_order_relaxed);
    if (live != nullptr) live->on_reject(shard_index, shed);
    return SubmitStatus::kRejectedQueueFull;
  }
  submitted_.fetch_add(static_cast<std::int64_t>(count),
                       std::memory_order_relaxed);
  if (live != nullptr) {
    live->on_submit(shard_index, static_cast<std::int64_t>(count), depth);
  }
  return SubmitStatus::kAccepted;
}

void ServeEngine::worker_main(Shard& shard) {
  // Telemetry: record into the shard's own registry (merged at drain) so
  // reduction stays deterministic; with telemetry off nothing installs and
  // the whole path stays on the no-op fast branch.
  std::optional<obs::ScopedRegistry> guard;
  if (parent_registry_ != nullptr) guard.emplace(&shard.registry);
  const obs::TraceSpan span("serve.shard");

  LiveTelemetry* const live = config_.live;
  TracePlane* const trace = config_.trace;
  OpenRounds rounds;
  // Consumer-side batching mirrors the producer side: up to kPopBatch
  // events leave the ring under one lock. The buffer is reused across
  // iterations, so the steady-state loop performs no allocation.
  constexpr std::size_t kPopBatch = 64;
  std::vector<PoppedEvent> batch;
  batch.reserve(kPopBatch);
  while (shard.queue.pop_batch(batch, kPopBatch) > 0) {
    for (const PoppedEvent& popped : batch) {
      std::uint64_t now = 0;
      if (live != nullptr) {
        now = live->now_ns();
        live->on_process(shard.index,
                         now >= popped.enqueue_ns ? now - popped.enqueue_ns
                                                  : 0,
                         popped.depth_left);
      } else if (trace != nullptr) {
        now = trace->now_ns();
      }
      if (trace != nullptr) {
        trace->on_event(shard.index,
                        now >= popped.enqueue_ns ? now - popped.enqueue_ns
                                                 : 0,
                        popped.event.client_lag_ns);
      }
      if (!shard.error.empty()) continue;  // poisoned: drain without work
      try {
        process_event(shard, rounds, popped.event, now, popped.enqueue_ns);
      } catch (const std::exception& e) {
        // Any exception, std::bad_alloc included, fails the round or the
        // stream; none may escape the worker into std::terminate.
        if (config_.admission == ServeConfig::Admission::kReject) {
          // Shedding already made the stream lossy; a hole in one round's
          // event sequence drops that round, not the whole engine.
          if (trace != nullptr) {
            trace->on_round_corrupted(shard.index, popped.event.round,
                                      stamp_ns());
          }
          rounds.erase(popped.event.round);
          ++shard.stats.rounds_corrupted;
          obs::count("serve.rounds_corrupted");
        } else {
          shard.error = e.what();
        }
      }
    }
    batch.clear();
  }
  if (trace != nullptr) trace->on_worker_exit(shard.index, stamp_ns());
  shard.stats.rounds_abandoned += static_cast<std::int64_t>(rounds.size());
  if (!rounds.empty()) {
    obs::count("serve.rounds_abandoned",
               static_cast<std::int64_t>(rounds.size()));
  }
  shard.stats.queue_high_watermark = shard.queue.high_watermark();
  obs::set_gauge(
      "serve.shard." + std::to_string(shard.index) + ".queue_high_watermark",
      static_cast<double>(shard.stats.queue_high_watermark));
}

void ServeEngine::process_event(Shard& shard, OpenRounds& rounds,
                                const ServeEvent& event, std::uint64_t now_ns,
                                std::uint64_t enqueue_ns) {
  ++shard.stats.processed;
  obs::count(event_counter_name(event.kind));
  LiveTelemetry* const live = config_.live;
  TracePlane* const trace = config_.trace;

  if (event.kind == ServeEventKind::kRoundOpen) {
    if (rounds.contains(event.round)) {
      throw InvalidArgumentError("serve stream, round " +
                                 std::to_string(event.round) +
                                 ": duplicate round_open");
    }
    rounds.emplace(event.round,
                   OpenRound{RoundMachine(event, config_.greedy,
                                          /*capture=*/config_.econ != nullptr),
                             now_ns});
    if (trace != nullptr) {
      trace->on_round_open(shard.index, event.round, enqueue_ns, now_ns,
                           event.client_lag_ns);
    }
    return;
  }

  const auto it = rounds.find(event.round);
  if (it == rounds.end()) {
    if (config_.admission == ServeConfig::Admission::kReject) {
      // The round's open (or the whole round) was shed; drop silently.
      ++shard.stats.orphaned_events;
      obs::count("serve.events.orphaned");
      if (trace != nullptr) {
        trace->on_orphaned_event(shard.index, event.round, now_ns);
      }
      return;
    }
    throw InvalidArgumentError(
        "serve stream, round " + std::to_string(event.round) + ": " +
        std::string(to_string(event.kind)) + " for a round never opened");
  }
  RoundMachine& machine = it->second.machine;
  const bool done = machine.apply(event);
  if (trace != nullptr && event.kind == ServeEventKind::kSlotTick) {
    trace->on_slot_tick(shard.index, event.round,
                        static_cast<std::int32_t>(event.slot.value()), now_ns,
                        stamp_ns());
  }
  if (done) {
    RoundOutcome outcome = machine.take_outcome();
    // Econ sentinel: audit the closed round while its capture is still
    // alive. The shard registry is installed on this thread, so the one
    // sanctioned counter (econ.violations) lands in the deterministic
    // merge like any other shard counter.
    const std::uint64_t settled_ns = trace != nullptr ? stamp_ns() : 0;
    std::int64_t violations = 0;
    if (config_.econ != nullptr) {
      violations = config_.econ->observe_round(shard.index, machine, outcome);
    }
    if (live != nullptr) {
      const std::uint64_t open_ns = it->second.open_ns;
      live->on_round_close(shard.index,
                           now_ns >= open_ns ? now_ns - open_ns : 0);
    }
    rounds.erase(it);
    if (trace != nullptr) {
      trace->on_round_complete(shard.index, event.round, now_ns, settled_ns,
                               stamp_ns(), violations);
    }
    ++shard.stats.rounds_completed;
    shard.stats.tasks_announced += outcome.tasks_announced;
    shard.stats.bids_admitted += outcome.bids_admitted;
    shard.stats.bids_rejected_reserve += outcome.bids_rejected;
    shard.stats.total_paid += outcome.total_paid;
    obs::count("serve.payments_micros", outcome.total_paid.micros());
    shard.outcomes.push_back(std::move(outcome));
  }
}

void ServeEngine::drain() {
  if (drained_) return;
  stopping_.store(true, std::memory_order_relaxed);
  for (auto& shard : shards_) shard->queue.close();
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  // Deterministic reduction: fold shard registries and stats in shard
  // order (merge is associative/commutative on counters and histograms,
  // so the totals equal a single-threaded run over the same events).
  for (auto& shard : shards_) {
    if (parent_registry_ != nullptr) parent_registry_->merge(shard->registry);
    totals_.processed += shard->stats.processed;
    totals_.rounds_completed += shard->stats.rounds_completed;
    totals_.rounds_abandoned += shard->stats.rounds_abandoned;
    totals_.orphaned_events += shard->stats.orphaned_events;
    totals_.rounds_corrupted += shard->stats.rounds_corrupted;
    totals_.tasks_announced += shard->stats.tasks_announced;
    totals_.bids_admitted += shard->stats.bids_admitted;
    totals_.bids_rejected_reserve += shard->stats.bids_rejected_reserve;
    totals_.queue_high_watermark = std::max(
        totals_.queue_high_watermark, shard->stats.queue_high_watermark);
    totals_.total_paid += shard->stats.total_paid;
  }
  if (parent_registry_ != nullptr) {
    parent_registry_
        ->gauge("serve.queue_high_watermark",
                "highest queue depth any shard reached (max over shards)")
        .set(static_cast<double>(totals_.queue_high_watermark));
  }
  totals_.submitted = submitted_.load(std::memory_order_relaxed);
  totals_.rejected_backpressure = rejected_.load(std::memory_order_relaxed);
  drained_ = true;
  for (const auto& shard : shards_) {
    if (!shard->error.empty()) {
      throw InvalidArgumentError("serve engine: " + shard->error);
    }
  }
}

std::vector<RoundOutcome> ServeEngine::take_outcomes() {
  MCS_EXPECTS(drained_, "take_outcomes requires drain()");
  std::vector<RoundOutcome> all;
  for (auto& shard : shards_) {
    for (RoundOutcome& outcome : shard->outcomes) {
      all.push_back(std::move(outcome));
    }
    shard->outcomes.clear();
  }
  std::sort(all.begin(), all.end(),
            [](const RoundOutcome& a, const RoundOutcome& b) {
              return a.round < b.round;
            });
  return all;
}

const ServeStats& ServeEngine::stats() const {
  MCS_EXPECTS(drained_, "stats requires drain()");
  return totals_;
}

// ---------------------------------------------------------- ShardBatcher

ShardBatcher::ShardBatcher(ServeEngine& engine)
    : engine_(engine), batch_size_(engine.config().batch_size) {
  buffers_.resize(static_cast<std::size_t>(engine.config().shards));
  for (auto& buffer : buffers_) buffer.reserve(batch_size_);
}

ShardBatcher::~ShardBatcher() {
  (void)flush();  // best effort; call flush() yourself for the verdict
}

SubmitStatus ShardBatcher::flush_shard(std::size_t shard) {
  std::vector<ServeEvent>& buffer = buffers_[shard];
  if (buffer.empty()) return SubmitStatus::kAccepted;
  const std::int64_t count = static_cast<std::int64_t>(buffer.size());
  const SubmitStatus status = engine_.submit_batch(
      static_cast<int>(shard), buffer.data(), buffer.size());
  buffer.clear();
  if (status == SubmitStatus::kAccepted) {
    accepted_ += count;
  } else {
    rejected_ += count;
  }
  return status;
}

SubmitStatus ShardBatcher::add(const ServeEvent& event) {
  const int shard = shard_of_round(event.round, engine_.config().shards);
  std::vector<ServeEvent>& buffer =
      buffers_[static_cast<std::size_t>(shard)];
  buffer.push_back(event);
  if (buffer.size() < batch_size_) return SubmitStatus::kAccepted;
  return flush_shard(static_cast<std::size_t>(shard));
}

SubmitStatus ShardBatcher::flush() {
  SubmitStatus verdict = SubmitStatus::kAccepted;
  for (std::size_t shard = 0; shard < buffers_.size(); ++shard) {
    const SubmitStatus status = flush_shard(shard);
    if (status != SubmitStatus::kAccepted &&
        verdict == SubmitStatus::kAccepted) {
      verdict = status;
    }
  }
  return verdict;
}

std::int64_t ShardBatcher::buffered() const {
  std::int64_t total = 0;
  for (const auto& buffer : buffers_) {
    total += static_cast<std::int64_t>(buffer.size());
  }
  return total;
}

}  // namespace mcs::serve
