// The serve stream: the compact binary codec for mcs.serve.v1 events
// ("mcs.serve.b1"), and the one decoder and one encoder of whole streams
// in either format (StreamDecoder, StreamEncoder). Replay, the socket
// front-end, transcoding and the CLI all read and write streams through
// them; the per-event codecs (decode_serve_line, decode_wire_frame and
// their encoders) are the only other entry points.
//
// JSONL is the right interchange format -- human-readable, greppable,
// diffable -- and the wrong hot path: every event pays a generic JSON
// parse, a decimal-string Money round trip, and a heap-allocated member
// tree. The binary codec removes all three. Events travel as
// length-prefixed frames of fixed-width little-endian fields with Money as
// its exact int64 micro count; decoding reads straight out of the byte
// span into a stack ServeEvent, touching no allocator.
//
// Stream layout:
//
//   header (8 bytes):  'M' 'C' 'S' 'B'  u16 version (=1, LE)  u16 flags (=0)
//   frame:             u32 payload length (LE), then the payload:
//                      u8 kind, fixed fields per kind (all LE)
//
//   kind 0 round_open     i64 round  i32 slots  i64 value_micros      (21)
//   kind 1 task_arrived   i64 round  i32 slot   i32 task  u8 flag=0    (18)
//   kind 2 bid_submitted  i64 round  i32 agent  i32 from  i32 to
//                         i64 cost_micros                            (29)
//   kind 3 slot_tick      i64 round  i32 slot                        (13)
//   kind 4 round_close    i64 round                                   (9)
//
// Versioning / compatibility rules (strict by design -- the stream is
// untrusted input on the serving hot path):
//   * the magic and version are mandatory; an unknown version is rejected,
//     never "best-effort" decoded, and v1 requires flags == 0;
//   * task_arrived's flag byte is reserved and must be zero; a 26-byte
//     frame with flag 1 (the retired per-task value layout) is refused
//     with kPerTaskValueRefusal, as JSONL refuses a "value" field;
//   * a frame's length must equal its kind's exact layout size -- trailing
//     bytes inside a frame, unknown kinds, and lengths beyond
//     kMaxWireFrameBytes are all rejected (no silent skipping: a payment
//     pipeline must not guess);
//   * any format evolution (new kinds, new fields) bumps the version; old
//     decoders then reject the whole stream up front instead of failing
//     midway.
//
// Both codecs enforce identical domain rules (round in [0, 2^53-1], slots
// and slot >= 1, dense non-negative ids, from <= to, non-negative cost,
// Money inside the +/-max() envelope), so for every event stream the
// binary and JSONL decoders accept or reject in lockstep -- the
// differential fuzz in serve_wire_test pins zero divergence, and feeds
// whole streams of both formats through StreamDecoder in every chunking.
// JSONL stays the debug/interop format; `mcs_cli transcode` converts
// losslessly in both directions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

#include "serve/event.hpp"

namespace mcs::serve {

/// Schema tag of the binary format (reported in errors and docs; the wire
/// itself carries the 4-byte magic + version below).
inline constexpr std::string_view kWireSchema = "mcs.serve.b1";

inline constexpr char kWireMagic[4] = {'M', 'C', 'S', 'B'};
inline constexpr std::uint16_t kWireVersion = 1;
inline constexpr std::size_t kWireHeaderBytes = 8;

/// Hard cap on one frame's payload length. The largest v1 frame is 29
/// bytes; anything claiming more is garbage (or a hostile length) and is
/// rejected before any buffering happens.
inline constexpr std::size_t kMaxWireFrameBytes = 64;

/// Appends the 8-byte stream header.
void append_wire_header(std::string& out);

/// Appends one event as a length-prefixed frame.
void append_wire_frame(std::string& out, const ServeEvent& event);

/// One event as its frame bytes (length prefix included).
[[nodiscard]] std::string encode_wire_frame(const ServeEvent& event);

/// Checks a stream header prefix. Returns the bytes consumed
/// (kWireHeaderBytes) or nullopt when `bytes` is a proper prefix of a
/// valid header (feed more). Throws InvalidArgumentError on a wrong magic,
/// unsupported version, or nonzero flags.
[[nodiscard]] std::optional<std::size_t> decode_wire_header(
    std::string_view bytes);

struct DecodedFrame {
  ServeEvent event;
  std::size_t consumed{0};  ///< frame bytes, length prefix included
};

/// Decodes the first frame of `bytes`. Returns nullopt when the bytes are
/// a proper prefix of a well-formed frame (feed more). Throws
/// InvalidArgumentError on malformed or out-of-domain frames -- same
/// domain rules as decode_serve_event, never UB, never zero-filled.
[[nodiscard]] std::optional<DecodedFrame> decode_wire_frame(
    std::string_view bytes);

// ------------------------------------------------------------ the stream

enum class WireFormat {
  kJsonl,   ///< mcs.serve.v1 JSON lines (debug / interop)
  kBinary,  ///< mcs.serve.b1 frames (hot path)
};

[[nodiscard]] std::string_view to_string(WireFormat format);

using EventSink = std::function<void(const ServeEvent&)>;

/// The one decoder of serve streams, fed bytes in chunks of any size. The
/// first byte picks the format ('M', the binary magic, means
/// mcs.serve.b1; anything else mcs.serve.v1 JSONL). JSONL is split on
/// '\n' (blank lines are skipped; a header line may appear anywhere);
/// b1 into its header and frames. Only a partial line or frame is ever
/// buffered: a JSONL line is capped at kMaxServeLineBytes and a frame at
/// kMaxWireFrameBytes, so a decoder holds at most a few KiB whatever it
/// is fed. Errors are InvalidArgumentError naming the position ("line N"
/// or "byte N"), and close the decoder: later calls keep throwing.
class StreamDecoder {
 public:
  /// Consumes `bytes`, invoking `sink` once per completed event. Returns
  /// the events decoded by this call. An exception thrown by `sink`
  /// propagates unchanged (and closes the decoder too).
  std::int64_t feed(std::string_view bytes, const EventSink& sink);

  /// The EOF rule, the same for every source: a non-empty unterminated
  /// JSONL tail is decoded as the last line; a partial b1 frame or a b1
  /// stream without its complete header is truncated and throws. An empty
  /// stream is a valid empty JSONL stream. Returns the events decoded by
  /// this call (0 or 1).
  std::int64_t finish(const EventSink& sink);

  /// The sniffed format; nullopt until the first byte arrives.
  [[nodiscard]] std::optional<WireFormat> format() const { return format_; }

  /// Bytes of the partial line or frame held between feeds.
  [[nodiscard]] std::size_t buffered() const { return carry_.size(); }

 private:
  void feed_jsonl(std::string_view bytes, const EventSink& sink);
  void feed_binary(std::string_view bytes, const EventSink& sink);
  void decode_line(std::string_view line, const EventSink& sink);
  void check_line_length(std::size_t bytes) const;

  std::optional<WireFormat> format_;
  std::string carry_;  ///< partial line or frame tail; capacity is retained
  bool header_done_{false};
  bool closed_{false};  ///< after an error or finish(): input is refused
  std::int64_t decoded_{0};
  std::int64_t lines_{0};     ///< JSONL lines completed
  std::uint64_t consumed_{0};  ///< b1 bytes consumed (header + frames)
};

/// The one encoder of serve streams: the format's header, then one line or
/// frame per event, gathered in a reused buffer that is handed to `out`
/// whenever it reaches 64 KiB. Call flush() after the last add().
class StreamEncoder {
 public:
  using Output = std::function<void(std::string_view)>;

  StreamEncoder(WireFormat format, Output out);

  void add(const ServeEvent& event);

  /// Hands the buffered bytes to `out`.
  void flush();

  [[nodiscard]] std::int64_t events() const { return events_; }
  /// Bytes handed to `out` so far.
  [[nodiscard]] std::int64_t bytes() const { return bytes_; }

 private:
  WireFormat format_;
  Output out_;
  std::string buffer_;
  /// Renders one JSONL line; reused because constructing a stream per
  /// event costs about a third of the JSONL encode time.
  std::ostringstream line_;
  std::int64_t events_{0};
  std::int64_t bytes_{0};
};

/// A StreamEncoder output that writes to `os`.
[[nodiscard]] StreamEncoder::Output write_to(std::ostream& os);

/// Reads a whole serve stream in either format through a StreamDecoder,
/// invoking `sink` per event; `decoder` may be inspected afterwards (its
/// sniffed format). Throws as StreamDecoder does. Returns the number of
/// events.
std::int64_t read_serve_stream(std::istream& is, StreamDecoder& decoder,
                               const EventSink& sink);
std::int64_t read_serve_stream(std::istream& is, const EventSink& sink);

struct TranscodeReport {
  std::int64_t events{0};
  WireFormat from{WireFormat::kJsonl};
  WireFormat to{WireFormat::kBinary};
};

/// Losslessly transcodes a serve stream (either input format) into `to`,
/// by default the other format. Event-preserving and, for canonical
/// streams, byte-exact on a round trip: jsonl -> binary -> jsonl
/// reproduces the input bytes.
TranscodeReport transcode_serve_stream(std::istream& is, std::ostream& os,
                                       std::optional<WireFormat> to = {});

}  // namespace mcs::serve
