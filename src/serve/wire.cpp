#include "serve/wire.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>

#include "common/error.hpp"

namespace mcs::serve {

namespace {

[[noreturn]] void bad_frame(const std::string& what) {
  throw InvalidArgumentError(std::string(kWireSchema) + " frame: " + what);
}

// ---------------------------------------------------- little-endian fields
// Explicit byte shifts instead of memcpy: identical bytes on every host
// endianness, and the compiler folds them to single moves on LE targets.

void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void put_i32(std::string& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_i64(std::string& out, std::int64_t v) {
  const auto u = static_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((u >> (8 * i)) & 0xFF));
  }
}

std::uint16_t get_u16(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint16_t>(b[0] | (b[1] << 8));
}

std::uint32_t get_u32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(b[0]) |
         (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) |
         (static_cast<std::uint32_t>(b[3]) << 24);
}

std::int32_t get_i32(const char* p) {
  return static_cast<std::int32_t>(get_u32(p));
}

std::int64_t get_i64(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  std::uint64_t u = 0;
  for (int i = 7; i >= 0; --i) u = (u << 8) | b[i];
  return static_cast<std::int64_t>(u);
}

// -------------------------------------------------------------- frame ABI

enum : std::uint8_t {
  kKindRoundOpen = 0,
  kKindTaskArrived = 1,
  kKindBidSubmitted = 2,
  kKindSlotTick = 3,
  kKindRoundClose = 4,
};

// Exact payload sizes (u8 kind + fields); the decoder requires equality.
constexpr std::size_t kRoundOpenBytes = 1 + 8 + 4 + 8;
constexpr std::size_t kTaskArrivedBytes = 1 + 8 + 4 + 4 + 1;
/// The retired per-task value layout (flag byte 1 plus i64 value micros):
/// still recognised, so that it is refused with kPerTaskValueRefusal.
constexpr std::size_t kTaskArrivedValueBytes = kTaskArrivedBytes + 8;
constexpr std::size_t kBidSubmittedBytes = 1 + 8 + 4 + 4 + 4 + 8;
constexpr std::size_t kSlotTickBytes = 1 + 8 + 4;
constexpr std::size_t kRoundCloseBytes = 1 + 8;

/// Shared Money envelope check (the JSONL side enforces the same bound
/// through Money::parse).
Money money_field(std::int64_t micros, std::string_view field) {
  if (micros > Money::max().micros() || micros < (-Money::max()).micros()) {
    bad_frame("field '" + std::string(field) +
              "' outside the Money envelope");
  }
  return Money::from_micros(micros);
}

std::int64_t round_field(std::int64_t round) {
  if (round < 0 || round > kMaxServeRound) bad_frame("round out of domain");
  return round;
}

}  // namespace

void append_wire_header(std::string& out) {
  out.append(kWireMagic, sizeof kWireMagic);
  put_u16(out, kWireVersion);
  put_u16(out, 0);  // flags, must be zero in v1
}

void append_wire_frame(std::string& out, const ServeEvent& event) {
  std::size_t payload = 0;
  std::uint8_t kind = 0;
  switch (event.kind) {
    case ServeEventKind::kRoundOpen:
      payload = kRoundOpenBytes;
      kind = kKindRoundOpen;
      break;
    case ServeEventKind::kTaskArrived:
      payload = kTaskArrivedBytes;
      kind = kKindTaskArrived;
      break;
    case ServeEventKind::kBidSubmitted:
      payload = kBidSubmittedBytes;
      kind = kKindBidSubmitted;
      break;
    case ServeEventKind::kSlotTick:
      payload = kSlotTickBytes;
      kind = kKindSlotTick;
      break;
    case ServeEventKind::kRoundClose:
      payload = kRoundCloseBytes;
      kind = kKindRoundClose;
      break;
  }
  out.reserve(out.size() + 4 + payload);
  put_u32(out, static_cast<std::uint32_t>(payload));
  out.push_back(static_cast<char>(kind));
  put_i64(out, event.round);
  switch (event.kind) {
    case ServeEventKind::kRoundOpen:
      put_i32(out, event.num_slots);
      put_i64(out, event.round_value.micros());
      break;
    case ServeEventKind::kTaskArrived:
      put_i32(out, event.slot.value());
      put_i32(out, event.task.value());
      out.push_back('\0');  // reserved flag byte
      break;
    case ServeEventKind::kBidSubmitted:
      put_i32(out, event.agent.value());
      put_i32(out, event.window.begin().value());
      put_i32(out, event.window.end().value());
      put_i64(out, event.claimed_cost.micros());
      break;
    case ServeEventKind::kSlotTick:
      put_i32(out, event.slot.value());
      break;
    case ServeEventKind::kRoundClose:
      break;
  }
}

std::string encode_wire_frame(const ServeEvent& event) {
  std::string out;
  append_wire_frame(out, event);
  return out;
}

std::optional<std::size_t> decode_wire_header(std::string_view bytes) {
  const std::size_t check = std::min(bytes.size(), sizeof kWireMagic);
  if (bytes.compare(0, check, kWireMagic, check) != 0) {
    bad_frame("bad stream magic (not an mcs.serve.b1 stream)");
  }
  if (bytes.size() < kWireHeaderBytes) return std::nullopt;
  const std::uint16_t version = get_u16(bytes.data() + 4);
  if (version != kWireVersion) {
    bad_frame("unsupported wire version " + std::to_string(version));
  }
  if (get_u16(bytes.data() + 6) != 0) bad_frame("nonzero header flags");
  return kWireHeaderBytes;
}

std::optional<DecodedFrame> decode_wire_frame(std::string_view bytes) {
  if (bytes.size() < 4) return std::nullopt;
  const std::uint32_t length = get_u32(bytes.data());
  if (length < 1 || length > kMaxWireFrameBytes) {
    bad_frame("implausible frame length " + std::to_string(length));
  }
  if (bytes.size() < 4 + static_cast<std::size_t>(length)) {
    return std::nullopt;  // incomplete: feed more bytes
  }
  const char* p = bytes.data() + 4;
  const auto kind = static_cast<std::uint8_t>(p[0]);
  const auto expect_length = [&](std::size_t want) {
    if (length != want) {
      bad_frame("frame length " + std::to_string(length) +
                " does not match its kind's layout");
    }
  };

  DecodedFrame decoded;
  decoded.consumed = 4 + static_cast<std::size_t>(length);
  switch (kind) {
    case kKindRoundOpen: {
      expect_length(kRoundOpenBytes);
      const std::int64_t round = round_field(get_i64(p + 1));
      const std::int32_t slots = get_i32(p + 9);
      if (slots < 1) bad_frame("slots out of domain");
      decoded.event =
          round_open(round, slots, money_field(get_i64(p + 13), "value"));
      return decoded;
    }
    case kKindTaskArrived: {
      if (length != kTaskArrivedBytes && length != kTaskArrivedValueBytes) {
        bad_frame("frame length " + std::to_string(length) +
                  " does not match its kind's layout");
      }
      const std::int64_t round = round_field(get_i64(p + 1));
      const std::int32_t slot = get_i32(p + 9);
      const std::int32_t task = get_i32(p + 13);
      if (slot < 1) bad_frame("slot out of domain");
      if (task < 0) bad_frame("task out of domain");
      const char flag = p[17];
      if (flag == '\1' && length == kTaskArrivedValueBytes) {
        bad_frame(std::string(kPerTaskValueRefusal));
      }
      if (flag != '\0') bad_frame("reserved flag byte must be zero");
      expect_length(kTaskArrivedBytes);
      decoded.event = task_arrived(round, Slot{slot}, TaskId{task});
      return decoded;
    }
    case kKindBidSubmitted: {
      expect_length(kBidSubmittedBytes);
      const std::int64_t round = round_field(get_i64(p + 1));
      const std::int32_t agent = get_i32(p + 9);
      const std::int32_t from = get_i32(p + 13);
      const std::int32_t to = get_i32(p + 17);
      if (agent < 0) bad_frame("agent out of domain");
      if (from < 1) bad_frame("bid window begins before slot 1");
      if (to < from) bad_frame("bid window end precedes begin");
      const Money cost = money_field(get_i64(p + 21), "cost");
      if (cost.is_negative()) bad_frame("negative claimed cost");
      decoded.event =
          bid_submitted(round, PhoneId{agent},
                        model::Bid{SlotInterval::of(from, to), cost});
      return decoded;
    }
    case kKindSlotTick: {
      expect_length(kSlotTickBytes);
      const std::int64_t round = round_field(get_i64(p + 1));
      const std::int32_t slot = get_i32(p + 9);
      if (slot < 1) bad_frame("slot out of domain");
      decoded.event = slot_tick(round, Slot{slot});
      return decoded;
    }
    case kKindRoundClose: {
      expect_length(kRoundCloseBytes);
      decoded.event = round_close(round_field(get_i64(p + 1)));
      return decoded;
    }
    default:
      bad_frame("unknown event kind " + std::to_string(kind));
  }
}

// ------------------------------------------------------------ the stream

std::string_view to_string(WireFormat format) {
  switch (format) {
    case WireFormat::kJsonl:
      return "jsonl";
    case WireFormat::kBinary:
      return "binary";
  }
  return "unknown";
}

void StreamDecoder::check_line_length(std::size_t bytes) const {
  if (bytes > kMaxServeLineBytes) {
    throw InvalidArgumentError("line " + std::to_string(lines_ + 1) +
                               ": longer than " +
                               std::to_string(kMaxServeLineBytes) + " bytes");
  }
}

std::int64_t StreamDecoder::feed(std::string_view bytes,
                                 const EventSink& sink) {
  if (closed_) {
    throw InvalidArgumentError(
        "serve stream: input after an error or finish()");
  }
  if (bytes.empty()) return 0;
  if (!format_) {
    format_ = bytes.front() == kWireMagic[0] ? WireFormat::kBinary
                                             : WireFormat::kJsonl;
  }
  const std::int64_t before = decoded_;
  closed_ = true;  // stays set when decoding or the sink throws
  if (*format_ == WireFormat::kBinary) {
    feed_binary(bytes, sink);
  } else {
    feed_jsonl(bytes, sink);
  }
  closed_ = false;
  return decoded_ - before;
}

void StreamDecoder::decode_line(std::string_view line, const EventSink& sink) {
  check_line_length(line.size());
  ++lines_;
  if (line.empty()) return;
  std::optional<ServeEvent> event;
  try {
    event = decode_serve_line(line);
  } catch (const Error& e) {
    throw InvalidArgumentError("line " + std::to_string(lines_) + ": " +
                               e.what());
  }
  if (!event) return;  // header line
  ++decoded_;
  sink(*event);
}

void StreamDecoder::feed_jsonl(std::string_view bytes, const EventSink& sink) {
  // Each byte is scanned once: a buffered tail is completed by the chunk's
  // first newline, and every later line is decoded straight out of the
  // chunk.
  for (std::size_t nl = bytes.find('\n'); nl != std::string_view::npos;
       nl = bytes.find('\n')) {
    std::string_view line = bytes.substr(0, nl);
    if (!carry_.empty()) {
      check_line_length(carry_.size() + line.size());
      carry_.append(line);
      line = carry_;
    }
    decode_line(line, sink);
    carry_.clear();
    bytes.remove_prefix(nl + 1);
  }
  check_line_length(carry_.size() + bytes.size());
  carry_.append(bytes);
}

void StreamDecoder::feed_binary(std::string_view bytes, const EventSink& sink) {
  // Fast path: decode directly out of the caller's chunk; only the
  // partial tail is ever copied into the carry buffer.
  std::string_view view = bytes;
  if (!carry_.empty()) {
    carry_.append(bytes);
    view = carry_;
  }
  std::size_t used = 0;
  while (used < view.size()) {
    const std::string_view rest = view.substr(used);
    std::optional<DecodedFrame> frame;
    try {
      if (!header_done_) {
        const std::optional<std::size_t> header = decode_wire_header(rest);
        if (!header) break;  // incomplete header prefix
        used += *header;
        consumed_ += *header;
        header_done_ = true;
        continue;
      }
      frame = decode_wire_frame(rest);
    } catch (const Error& e) {
      throw InvalidArgumentError("byte " + std::to_string(consumed_) + ": " +
                                 e.what());
    }
    if (!frame) break;  // incomplete frame prefix
    used += frame->consumed;
    consumed_ += frame->consumed;
    ++decoded_;
    sink(frame->event);
  }
  if (view.data() == carry_.data()) {
    carry_.erase(0, used);
  } else {
    carry_.assign(view.substr(used));
  }
}

std::int64_t StreamDecoder::finish(const EventSink& sink) {
  if (closed_) {
    throw InvalidArgumentError(
        "serve stream: input after an error or finish()");
  }
  closed_ = true;  // the stream is over either way
  if (format_ == WireFormat::kBinary && (!header_done_ || !carry_.empty())) {
    throw InvalidArgumentError(
        std::string(kWireSchema) + " stream: byte " +
        std::to_string(consumed_) + ": truncated (ends " +
        (header_done_ ? "mid-frame)" : "inside the header)"));
  }
  const std::int64_t before = decoded_;
  if (!carry_.empty()) decode_line(carry_, sink);  // unterminated JSONL tail
  carry_.clear();
  return decoded_ - before;
}

StreamEncoder::StreamEncoder(WireFormat format, Output out)
    : format_(format), out_(std::move(out)) {
  if (format_ == WireFormat::kBinary) {
    append_wire_header(buffer_);
  } else {
    write_stream_header(line_);
    buffer_ = line_.str();
  }
}

void StreamEncoder::add(const ServeEvent& event) {
  if (format_ == WireFormat::kBinary) {
    append_wire_frame(buffer_, event);
  } else {
    line_.str(std::string());
    write_serve_event(line_, event);
    buffer_ += line_.view();
  }
  ++events_;
  if (buffer_.size() >= std::size_t{64} * 1024) flush();
}

void StreamEncoder::flush() {
  if (buffer_.empty()) return;
  out_(buffer_);
  bytes_ += static_cast<std::int64_t>(buffer_.size());
  buffer_.clear();
}

StreamEncoder::Output write_to(std::ostream& os) {
  return [&os](std::string_view bytes) {
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
}

std::int64_t read_serve_stream(std::istream& is, StreamDecoder& decoder,
                               const EventSink& sink) {
  std::int64_t events = 0;
  std::string chunk(std::size_t{64} * 1024, '\0');
  while (is.read(chunk.data(), static_cast<std::streamsize>(chunk.size())) ||
         is.gcount() > 0) {
    events += decoder.feed(
        std::string_view(chunk.data(), static_cast<std::size_t>(is.gcount())),
        sink);
  }
  return events + decoder.finish(sink);
}

std::int64_t read_serve_stream(std::istream& is, const EventSink& sink) {
  StreamDecoder decoder;
  return read_serve_stream(is, decoder, sink);
}

TranscodeReport transcode_serve_stream(std::istream& is, std::ostream& os,
                                       std::optional<WireFormat> to) {
  // The output format may depend on the input's, which the decoder only
  // knows once bytes arrive; the encoder opens at the first event (or at
  // EOF for an empty stream).
  StreamDecoder decoder;
  std::optional<StreamEncoder> encoder;
  TranscodeReport report;
  const auto open = [&] {
    if (encoder) return;
    report.from = decoder.format().value_or(WireFormat::kJsonl);
    report.to = to.value_or(report.from == WireFormat::kBinary
                                ? WireFormat::kJsonl
                                : WireFormat::kBinary);
    encoder.emplace(report.to, write_to(os));
  };
  report.events = read_serve_stream(is, decoder, [&](const ServeEvent& event) {
    open();
    encoder->add(event);
  });
  open();
  encoder->flush();
  return report;
}

}  // namespace mcs::serve
