// Per-round causal tracing primitives -- the third leg of the
// observability plane (metrics: how much, sketches: how slow, traces:
// where and why).
//
// A RoundTrace is one round's bounded span timeline through the serving
// engine: client-side ingest lag, queue wait, per-slot allocation ticks,
// settlement (payment), the econ audit, and a terminal round_close
// marker. Traces are built single-writer (the round's shard worker owns
// its timeline end to end; producer-side stamps travel with the queued
// event), so recording a span is a plain vector append -- no locks, no
// registry writes, nothing the deterministic counter plane could observe.
// Cross-thread visibility happens only through the summary counters and
// latency sketches of the owning plane (relaxed atomics, same quarantine
// discipline as the live telemetry plane).
//
// Retention is tail-based: at round_close a sampler decides whether the
// timeline is worth keeping (slow, economically violating, or damaged
// rounds) or folds it into summary sketches and drops it. TraceRing is
// the per-shard fixed-capacity store backing that policy: retained
// ("pinned") traces survive wraparound, healthy context traces are
// evicted first.
//
// SketchExemplars companion-maps the LatencySketch bucket space: each
// bucket above an exemplar threshold remembers the trace id of the worst
// round that landed in it, so a sketch quantile links directly to a
// causal timeline.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/latency_sketch.hpp"

namespace mcs::obs {

/// Version string of the round-trace JSONL wire format.
inline constexpr std::string_view kTraceSchema = "mcs.trace.v1";

/// Phases of one round's timeline, in canonical (chronological) order.
enum class TracePhase : std::uint8_t {
  kIngest = 0,   ///< intended (paced) send time -> actual submit
  kQueueWait,    ///< enqueue -> dequeue on the shard queue
  kSlotTick,     ///< one slot_tick's allocation step
  kPayment,      ///< round_close: outcome materialisation (Algorithm 2 runs
                 ///< at departures, inside kSlotTick spans)
  kAudit,        ///< econ sentinel audit of the closed round
  kRoundClose,   ///< terminal zero-length marker; latency_ns is the field
};
inline constexpr std::size_t kTracePhaseCount = 6;

[[nodiscard]] std::string_view to_string(TracePhase phase);
/// Inverse of to_string; returns false on an unknown name.
[[nodiscard]] bool trace_phase_from_string(std::string_view name,
                                           TracePhase& out);

/// Lifecycle verdict of a trace at the time it was sealed.
enum class TraceStatus : std::uint8_t {
  kOpen = 0,    ///< still being built (never exported)
  kCompleted,   ///< round closed normally
  kCorrupted,   ///< shedding punched a hole mid-flight (kReject only)
  kOrphaned,    ///< events for a round whose open was shed (stub trace)
  kAbandoned,   ///< still open at drain
};

[[nodiscard]] std::string_view to_string(TraceStatus status);

/// Retention-reason bitmask of a sealed trace (0 = dropped after folding).
namespace retain {
inline constexpr unsigned kSlow = 1U;           ///< latency >= threshold
inline constexpr unsigned kEconViolation = 2U;  ///< sentinel tripped
inline constexpr unsigned kError = 4U;          ///< corrupted/orphaned/abandoned
}  // namespace retain

/// One span of a round timeline. Timestamps are uptime-relative
/// nanoseconds in the owning plane's timebase.
struct RoundSpan {
  TracePhase phase{TracePhase::kQueueWait};
  std::int32_t slot{-1};  ///< slot number for kSlotTick, -1 otherwise
  std::uint64_t start_ns{0};
  std::uint64_t end_ns{0};

  [[nodiscard]] std::uint64_t duration_ns() const {
    return end_ns >= start_ns ? end_ns - start_ns : 0;
  }
};

/// Deterministic trace id of a round (splitmix64 of the round id): stable
/// across runs and shard counts, so exemplars and JSONL records of the
/// same stream always agree.
[[nodiscard]] std::uint64_t trace_id_of(std::int64_t round);
/// 16-digit lowercase hex rendering of a trace id.
[[nodiscard]] std::string format_trace_id(std::uint64_t trace_id);

/// One round's bounded span timeline. Built by exactly one thread.
struct RoundTrace {
  std::uint64_t trace_id{0};
  std::int64_t round{-1};
  int shard{0};
  TraceStatus status{TraceStatus::kOpen};
  unsigned retained{0};          ///< retain:: bitmask, set when sealed
  std::int64_t violations{0};    ///< econ sentinel hits of this round
  std::uint64_t open_ns{0};      ///< round_open processing began
  std::uint64_t close_ns{0};     ///< last stamp of the timeline
  /// Round open->close latency as the live plane measures it (close
  /// processing begin minus open processing begin).
  std::uint64_t latency_ns{0};
  std::uint32_t spans_dropped{0};  ///< appends beyond the span cap
  std::vector<RoundSpan> spans;

  /// Appends one span, honouring the cap (drops and counts beyond it).
  void add_span(TracePhase phase, std::int32_t slot, std::uint64_t start_ns,
                std::uint64_t end_ns, std::size_t max_spans);
};

/// Fixed-capacity trace store with pinned-priority eviction. Retained
/// (pinned) traces survive wraparound; unpinned context traces are
/// evicted first, oldest first; only when every slot is pinned does the
/// oldest pinned trace fall out. Single-writer by design (one ring per
/// shard worker); read it only after the writer stopped.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity);

  struct PushResult {
    bool evicted{false};         ///< an older trace was overwritten
    bool evicted_pinned{false};  ///< ... and it was a retained one
  };
  PushResult push(RoundTrace trace, bool pinned);

  struct Entry {
    RoundTrace trace;
    bool pinned{false};
    std::uint64_t seq{0};  ///< monotone insertion order
  };
  [[nodiscard]] const std::vector<Entry>& entries() const { return slots_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  std::size_t capacity_;
  std::uint64_t next_seq_{0};
  std::vector<Entry> slots_;
};

/// Companion exemplar table over the LatencySketch bucket space: each
/// bucket at or above `threshold_ns` remembers the worst (highest-value)
/// round that landed in it, keyed by trace id. offer() is thread-safe
/// (round_close frequency only -- one short mutex, never on the per-event
/// path) and leaves the deterministic counter plane untouched.
class SketchExemplars {
 public:
  explicit SketchExemplars(std::uint64_t threshold_ns)
      : threshold_ns_(threshold_ns) {}
  SketchExemplars(const SketchExemplars&) = delete;
  SketchExemplars& operator=(const SketchExemplars&) = delete;

  [[nodiscard]] std::uint64_t threshold_ns() const { return threshold_ns_; }

  /// Offers one round's latency; kept when it is at or above the
  /// threshold and the worst seen for its bucket so far.
  void offer(std::uint64_t value_ns, std::uint64_t trace_id,
             std::int64_t round);

  struct Exemplar {
    std::uint64_t bucket_le_ns{0};  ///< inclusive upper edge of the bucket
    std::uint64_t value_ns{0};      ///< worst value observed in the bucket
    std::uint64_t trace_id{0};
    std::int64_t round{-1};
  };
  /// Occupied buckets in ascending bucket order.
  [[nodiscard]] std::vector<Exemplar> snapshot() const;

 private:
  struct Slot {
    std::uint64_t value_ns{0};
    std::uint64_t trace_id{0};
    std::int64_t round{-1};
  };
  std::uint64_t threshold_ns_;
  mutable std::mutex mutex_;
  std::vector<Slot> slots_;  ///< lazily sized to the sketch bucket space
};

}  // namespace mcs::obs
