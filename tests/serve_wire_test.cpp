// Serve stream tests: golden b1 frame bytes, lossless round trips, strict
// rejection of malformed frames, the StreamDecoder (format sniffing,
// chunked feeds, the EOF rule, the line cap), JSONL<->binary transcoding,
// and the fuzz suites -- a mutation/truncation fuzz mirroring
// json_parse_fuzz, a per-event differential fuzz pinning that the binary
// and JSONL decoders accept or reject the same logical events with zero
// divergence, and whole-stream fuzzes over every chunking and every
// prefix of both encodings. Iteration counts scale with
// MCS_WIRE_FUZZ_ITERS (the CI smoke job runs 100k).
#include "serve/wire.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "model/bid.hpp"
#include "serve/loadgen.hpp"

namespace mcs::serve {
namespace {

std::int64_t fuzz_iters(std::int64_t fallback) {
  if (const char* env = std::getenv("MCS_WIRE_FUZZ_ITERS")) {
    return std::max<std::int64_t>(1, std::atoll(env));
  }
  return fallback;
}

model::Bid bid(int from, int to, double cost) {
  return model::Bid{SlotInterval::of(from, to), Money::from_double(cost)};
}

// Little-endian builders for hand-crafting raw (possibly malformed) frames.
std::string le32(std::int64_t v) {
  std::string out;
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((static_cast<std::uint64_t>(v) >> (8 * i)) &
                                    0xFF));
  }
  return out;
}

std::string le64(std::int64_t v) {
  std::string out;
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((static_cast<std::uint64_t>(v) >> (8 * i)) &
                                    0xFF));
  }
  return out;
}

std::string frame(const std::string& payload) {
  return le32(static_cast<std::int64_t>(payload.size())) + payload;
}

std::string header_bytes() {
  std::string out;
  append_wire_header(out);
  return out;
}

/// Decodes exactly one complete frame or throws.
ServeEvent decode_one(const std::string& bytes) {
  const auto decoded = decode_wire_frame(bytes);
  if (!decoded) throw InvalidArgumentError("incomplete frame in test");
  EXPECT_EQ(decoded->consumed, bytes.size());
  return decoded->event;
}

const std::vector<ServeEvent>& every_kind() {
  static const std::vector<ServeEvent> events = {
      round_open(5, 50, Money::from_double(12.25)),
      task_arrived(5, Slot{2}, TaskId{1}),
      bid_submitted(5, PhoneId{0}, bid(2, 9, 3.141592)),
      slot_tick(5, Slot{2}),
      round_close(5),
  };
  return events;
}

// ----------------------------------------------------------- golden bytes

TEST(WireCodec, GoldenHeader) {
  EXPECT_EQ(header_bytes(), std::string("MCSB\x01\x00\x00\x00", 8));
}

TEST(WireCodec, GoldenFrames) {
  // round_open(0, 12, "30"): kind 0, round 0, slots 12, 30'000'000 micros.
  EXPECT_EQ(encode_wire_frame(round_open(0, 12, Money::from_units(30))),
            frame(std::string(1, '\0') + le64(0) + le32(12) + le64(30000000)));
  // task_arrived: the reserved flag byte is 0, no trailing micros.
  EXPECT_EQ(encode_wire_frame(task_arrived(0, Slot{1}, TaskId{0})),
            frame(std::string(1, '\1') + le64(0) + le32(1) + le32(0) +
                  std::string(1, '\0')));
  EXPECT_EQ(encode_wire_frame(bid_submitted(0, PhoneId{3}, bid(1, 4, 7.5))),
            frame(std::string(1, '\2') + le64(0) + le32(3) + le32(1) +
                  le32(4) + le64(7500000)));
  EXPECT_EQ(encode_wire_frame(slot_tick(0, Slot{1})),
            frame(std::string(1, '\3') + le64(0) + le32(1)));
  EXPECT_EQ(encode_wire_frame(round_close(7)),
            frame(std::string(1, '\4') + le64(7)));
}

// ------------------------------------------------------------- round trip

TEST(WireCodec, EncodeDecodeRoundTripsEveryKind) {
  for (const ServeEvent& event : every_kind()) {
    const std::string bytes = encode_wire_frame(event);
    EXPECT_LE(bytes.size(), 4 + kMaxWireFrameBytes);
    EXPECT_EQ(decode_one(bytes), event) << encode_serve_event(event);
  }
}

TEST(WireCodec, MoneyExtremesTravelExactly) {
  const std::vector<Money> amounts = {
      Money::from_micros(1),           Money::from_micros(-1),
      Money::max(),                    -Money::max(),
      Money::from_micros(1234567),     Money{},
  };
  for (const Money amount : amounts) {
    const ServeEvent event = round_open(0, 1, amount);
    EXPECT_EQ(decode_one(encode_wire_frame(event)).round_value.micros(),
              amount.micros());
  }
}

TEST(WireCodec, RoundIdBoundsAreExact) {
  EXPECT_EQ(decode_one(encode_wire_frame(round_close(kMaxServeRound))).round,
            kMaxServeRound);
  EXPECT_THROW(decode_one(frame(std::string(1, '\4') +
                                le64(kMaxServeRound + 1))),
               InvalidArgumentError);
  EXPECT_THROW(decode_one(frame(std::string(1, '\4') + le64(-1))),
               InvalidArgumentError);
}

// -------------------------------------------------------- malformed input

TEST(WireCodec, HeaderRejectsWrongMagicVersionFlags) {
  EXPECT_THROW((void)decode_wire_header("XCSB\x01\x00\x00\x00"),
               InvalidArgumentError);
  EXPECT_THROW((void)decode_wire_header(std::string("MCSB\x02\x00\x00\x00", 8)),
               InvalidArgumentError);
  EXPECT_THROW((void)decode_wire_header(std::string("MCSB\x01\x00\x01\x00", 8)),
               InvalidArgumentError);
  // A proper prefix of a valid header asks for more bytes.
  EXPECT_EQ(decode_wire_header(std::string("MCS", 3)), std::nullopt);
  EXPECT_EQ(decode_wire_header(std::string("MCSB\x01", 5)), std::nullopt);
  // ...but a prefix that already contradicts the magic fails immediately.
  EXPECT_THROW((void)decode_wire_header(std::string("MX", 2)),
               InvalidArgumentError);
  EXPECT_EQ(decode_wire_header(header_bytes()), kWireHeaderBytes);
}

TEST(WireCodec, RejectsMalformedFrames) {
  const std::vector<std::string> bad = {
      // zero-length frame (no kind byte)
      le32(0),
      // hostile length beyond the frame cap
      le32(65) + std::string(65, '\0'),
      le32(1 << 30),
      // unknown kind
      frame(std::string(1, '\5') + le64(0)),
      frame(std::string(1, '\xff') + le64(0)),
      // wrong length for the kind (round_close with a trailing byte)
      frame(std::string(1, '\4') + le64(0) + std::string(1, '\0')),
      // slot_tick one byte short of its layout
      frame(std::string(1, '\3') + le64(0) + le32(1).substr(0, 3)),
      // domain: slots < 1
      frame(std::string(1, '\0') + le64(0) + le32(0) + le64(1)),
      // domain: slot < 1
      frame(std::string(1, '\3') + le64(0) + le32(0)),
      // domain: negative task id
      frame(std::string(1, '\1') + le64(0) + le32(1) + le32(-1) +
            std::string(1, '\0')),
      // domain: negative agent id
      frame(std::string(1, '\2') + le64(0) + le32(-2) + le32(1) + le32(2) +
            le64(0)),
      // domain: window begins before slot 1
      frame(std::string(1, '\2') + le64(0) + le32(0) + le32(0) + le32(2) +
            le64(0)),
      // domain: inverted window
      frame(std::string(1, '\2') + le64(0) + le32(0) + le32(4) + le32(2) +
            le64(0)),
      // domain: negative cost
      frame(std::string(1, '\2') + le64(0) + le32(0) + le32(1) + le32(2) +
            le64(-1)),
      // Money outside the +/-max() envelope
      frame(std::string(1, '\0') + le64(0) + le32(1) +
            le64(Money::max().micros() + 1)),
      frame(std::string(1, '\0') + le64(0) + le32(1) +
            le64(std::numeric_limits<std::int64_t>::min())),
      // reserved flag byte neither 0 nor the retired value flag
      frame(std::string(1, '\1') + le64(0) + le32(1) + le32(0) +
            std::string(1, '\2')),
      // flag 0 with a trailing value payload
      frame(std::string(1, '\1') + le64(0) + le32(1) + le32(0) +
            std::string(1, '\0') + le64(5)),
      // flag 1 without a value payload
      frame(std::string(1, '\1') + le64(0) + le32(1) + le32(0) +
            std::string(1, '\1')),
  };
  for (const std::string& bytes : bad) {
    EXPECT_THROW((void)decode_one(bytes), InvalidArgumentError)
        << "frame of " << bytes.size() << " bytes accepted";
  }
}

TEST(WireCodec, RefusesPerTaskValuesLikeJsonl) {
  // The retired 26-byte value layout is refused with the same message the
  // JSONL decoder gives a "value" field.
  const std::string valued =
      frame(std::string(1, '\1') + le64(2) + le32(3) + le32(4) +
            std::string(1, '\1') + le64(2500000));
  for (const auto& decode : std::vector<std::function<void()>>{
           [&] { (void)decode_one(valued); },
           [] {
             (void)decode_serve_line(
                 R"({"ev":"task_arrived","round":2,"slot":3,"task":4,"value":"2.5"})");
           }}) {
    try {
      decode();
      FAIL() << "per-task value accepted";
    } catch (const InvalidArgumentError& e) {
      EXPECT_NE(std::string(e.what()).find(kPerTaskValueRefusal),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(WireCodec, EveryTruncationAsksForMoreBytesNotGarbage) {
  // A strict prefix of a valid frame is "incomplete", never an event and
  // never UB -- except prefixes shorter than the length word are also just
  // incomplete. Mirrors json_parse_fuzz's EveryTruncationFailsCleanly.
  for (const ServeEvent& event : every_kind()) {
    const std::string bytes = encode_wire_frame(event);
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      EXPECT_EQ(decode_wire_frame(bytes.substr(0, len)), std::nullopt)
          << "prefix of length " << len;
    }
  }
}

// ---------------------------------------------------- incremental decoding

std::string jsonl_bytes(const std::vector<ServeEvent>& events) {
  std::string out;
  StreamEncoder encoder(WireFormat::kJsonl,
                        [&out](std::string_view bytes) { out += bytes; });
  for (const ServeEvent& event : events) encoder.add(event);
  encoder.flush();
  return out;
}

std::string binary_bytes(const std::vector<ServeEvent>& events) {
  std::string out = header_bytes();
  for (const ServeEvent& event : events) append_wire_frame(out, event);
  return out;
}

TEST(WireDecoderTest, OneByteAtATimeFeedsDecodeTheFullStream) {
  for (const std::string& stream :
       {binary_bytes(every_kind()), jsonl_bytes(every_kind())}) {
    StreamDecoder decoder;
    std::vector<ServeEvent> got;
    const auto sink = [&](const ServeEvent& event) { got.push_back(event); };
    for (char byte : stream) decoder.feed(std::string_view(&byte, 1), sink);
    EXPECT_EQ(decoder.finish(sink), 0);
    EXPECT_EQ(decoder.buffered(), 0u);
    EXPECT_EQ(got, every_kind());
  }
}

TEST(WireDecoderTest, PoisonsAfterMalformedInput) {
  StreamDecoder decoder;
  const auto sink = [](const ServeEvent&) {};
  std::string stream = header_bytes();
  append_wire_frame(stream, round_close(0));
  EXPECT_EQ(decoder.feed(stream, sink), 1);
  EXPECT_THROW(decoder.feed(frame(std::string(1, '\7') + le64(0)), sink),
               InvalidArgumentError);
  // Even valid bytes are refused now: the stream is corrupt.
  EXPECT_THROW(decoder.feed(encode_wire_frame(round_close(1)), sink),
               InvalidArgumentError);
  EXPECT_THROW(decoder.finish(sink), InvalidArgumentError);
}

TEST(WireDecoderTest, MissingHeaderIsRejected) {
  StreamDecoder decoder;
  // A frame's length prefix starts with a small byte, not 'M': the stream
  // is sniffed as JSONL and its first line is not JSON.
  EXPECT_THROW(
      {
        decoder.feed(encode_wire_frame(round_close(0)),
                     [](const ServeEvent&) {});
        decoder.finish([](const ServeEvent&) {});
      },
      InvalidArgumentError);
  // A b1 stream cut inside its header is truncated.
  StreamDecoder cut;
  cut.feed("MCSB\x01", [](const ServeEvent&) {});
  EXPECT_THROW(cut.finish([](const ServeEvent&) {}), InvalidArgumentError);
}

TEST(WireDecoderTest, SniffsFormatFromTheFirstByte) {
  StreamDecoder binary;
  EXPECT_EQ(binary.format(), std::nullopt);
  binary.feed("M", [](const ServeEvent&) {});
  EXPECT_EQ(binary.format(), WireFormat::kBinary);

  StreamDecoder jsonl;
  jsonl.feed("{", [](const ServeEvent&) {});
  EXPECT_EQ(jsonl.format(), WireFormat::kJsonl);

  // An empty stream is a valid, empty JSONL stream.
  StreamDecoder empty;
  EXPECT_EQ(empty.finish([](const ServeEvent&) {}), 0);
}

TEST(WireDecoderTest, UnterminatedFinalLineIsTheLastLine) {
  std::string stream = jsonl_bytes(every_kind());
  stream.pop_back();  // drop the final '\n'
  StreamDecoder decoder;
  std::vector<ServeEvent> got;
  const auto sink = [&](const ServeEvent& event) { got.push_back(event); };
  decoder.feed(stream, sink);
  EXPECT_EQ(got.size(), every_kind().size() - 1);
  EXPECT_EQ(decoder.finish(sink), 1);
  EXPECT_EQ(got, every_kind());

  // A partial JSON tail is still truncation.
  StreamDecoder partial;
  partial.feed(stream.substr(0, stream.size() - 1), sink);
  EXPECT_THROW(partial.finish(sink), InvalidArgumentError);
}

TEST(WireDecoderTest, NewlineFreeInputNeverBuffersPastTheLineCap) {
  // 1 MiB without a newline, in 64 KiB and in 1 KiB chunks: the decoder
  // throws as soon as the unterminated line outgrows kMaxServeLineBytes,
  // naming the line, and its buffer never holds more than the cap.
  for (const std::size_t chunk_size : {std::size_t{64} * 1024,
                                       std::size_t{1024}}) {
    const std::string chunk(chunk_size, ' ');
    StreamDecoder decoder;
    std::size_t fed = 0;
    bool threw = false;
    while (fed < std::size_t{1} << 20 && !threw) {
      try {
        decoder.feed(chunk, [](const ServeEvent&) {});
      } catch (const InvalidArgumentError& e) {
        threw = true;
        EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos)
            << e.what();
      }
      fed += chunk.size();
      EXPECT_LE(decoder.buffered(), kMaxServeLineBytes);
    }
    EXPECT_TRUE(threw) << "chunk " << chunk_size;
    EXPECT_LE(fed, kMaxServeLineBytes + chunk_size);
  }
}

TEST(WireDecoderTest, ErrorsNameTheByteOffset) {
  std::string stream = header_bytes();
  append_wire_frame(stream, round_close(0));
  const std::size_t bad_at = stream.size();
  stream += frame(std::string(1, '\7') + le64(0));
  StreamDecoder decoder;
  try {
    decoder.feed(stream, [](const ServeEvent&) {});
    FAIL() << "unknown kind accepted";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("byte " + std::to_string(bad_at)),
              std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------------------- transcoding

TEST(WireTranscode, JsonlToBinaryToJsonlIsByteExact) {
  LoadGenConfig config;
  config.rounds = 6;
  config.seed = 2024;
  std::ostringstream jsonl;
  const std::int64_t events = write_event_stream(jsonl, config);
  ASSERT_GT(events, 0);

  std::istringstream in1(jsonl.str());
  std::ostringstream binary;
  const TranscodeReport there = transcode_serve_stream(in1, binary);
  EXPECT_EQ(there.events, events);
  EXPECT_EQ(there.from, WireFormat::kJsonl);
  EXPECT_EQ(there.to, WireFormat::kBinary);
  EXPECT_EQ(binary.str().compare(0, 4, "MCSB"), 0);
  // The binary stream is materially smaller than its JSONL source.
  EXPECT_LT(binary.str().size(), jsonl.str().size() / 2);
  // ... and is what the loadgen writes in that format.
  std::ostringstream direct;
  write_event_stream(direct, config, WireFormat::kBinary);
  EXPECT_EQ(binary.str(), direct.str());

  std::istringstream in2(binary.str());
  std::ostringstream back;
  EXPECT_EQ(transcode_serve_stream(in2, back, WireFormat::kJsonl).events,
            events);
  EXPECT_EQ(back.str(), jsonl.str());
}

TEST(WireTranscode, ReadServeStreamReportsTruncation) {
  std::string stream = header_bytes();
  append_wire_frame(stream, round_close(0));
  stream.pop_back();  // drop the final byte: the last frame is truncated
  std::istringstream is(stream);
  EXPECT_THROW(
      read_serve_stream(is, [](const ServeEvent&) {}),
      InvalidArgumentError);
}

TEST(WireTranscode, ReadServeStreamNamesTheFailingLine) {
  std::istringstream is(
      "{\"schema\":\"mcs.serve.v1\"}\n{\"ev\":\"round_close\",\"round\":0}\nnot json\n");
  try {
    read_serve_stream(is, [](const ServeEvent&) {});
    FAIL() << "malformed line accepted";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------------------ mutation fuzz

TEST(WireFuzz, SeededMutationsNeverCrashTheDecoder) {
  // Mirror of JsonParseFuzz.SeededByteMutationsNeverCrash for the binary
  // path: flip bytes / truncate a valid stream, then decode. Every outcome
  // must be "decoded fine" or InvalidArgumentError -- the sanitizer jobs
  // turn any overread or UB into a failure.
  std::string stream = header_bytes();
  for (const ServeEvent& event : every_kind()) {
    append_wire_frame(stream, event);
  }
  std::mt19937_64 rng(20260809);
  const std::int64_t iters = fuzz_iters(4000);
  std::int64_t rejected = 0;
  for (std::int64_t i = 0; i < iters; ++i) {
    std::string mutated = stream;
    const int flips = 1 + static_cast<int>(rng() % 4);
    for (int f = 0; f < flips; ++f) {
      mutated[rng() % mutated.size()] ^=
          static_cast<char>(1 << (rng() % 8));
    }
    if (rng() % 4 == 0) mutated.resize(rng() % (mutated.size() + 1));
    StreamDecoder decoder;
    try {
      decoder.feed(mutated, [](const ServeEvent&) {});
      decoder.finish([](const ServeEvent&) {});
    } catch (const InvalidArgumentError&) {
      ++rejected;
    }
  }
  // Most random corruptions must be caught (magic, kinds, lengths, and
  // domains are all checked); a mutation in a Money field can legally
  // survive.
  EXPECT_GT(rejected, iters / 2);
}

// ---------------------------------------------------------- differential

/// One logical event drawn with adversarial field values, rendered both as
/// a JSONL line and as a binary frame carrying exactly the same values.
struct DrawnEvent {
  std::string jsonl;
  std::string binary;  ///< frame bytes (no stream header)
  bool per_task_value{false};  ///< a task_arrived carrying its own value
};

std::string render_micros(std::int64_t micros) {
  const bool negative = micros < 0;
  // Two's-complement-safe magnitude (INT64_MIN negates cleanly unsigned).
  const auto magnitude =
      negative ? 0ULL - static_cast<unsigned long long>(micros)
               : static_cast<unsigned long long>(micros);
  char fraction[8];
  std::snprintf(fraction, sizeof fraction, "%06llu", magnitude % 1000000ULL);
  return (negative ? "-" : "") + std::to_string(magnitude / 1000000ULL) +
         "." + fraction;
}

DrawnEvent draw_event(std::mt19937_64& rng) {
  // Edge-biased draws. i32 fields stay inside int32 (the binary wire
  // cannot even express wider values; the JSONL-side wide-value rejection
  // has its own test in serve_event_test).
  const auto pick = [&rng](const std::vector<std::int64_t>& edges) {
    if (rng() % 2 == 0) return edges[rng() % edges.size()];
    return static_cast<std::int64_t>(rng() % 7) - 1;
  };
  const std::vector<std::int64_t> id_edges = {
      -1, 0, 1, 2, std::numeric_limits<std::int32_t>::max()};
  const std::vector<std::int64_t> round_edges = {
      -1, 0, 1, kMaxServeRound, kMaxServeRound + 1};
  const std::vector<std::int64_t> micro_edges = {
      0,
      1,
      -1,
      Money::max().micros(),
      Money::max().micros() + 1,
      -Money::max().micros(),
      -Money::max().micros() - 1,
  };
  const std::int64_t round = pick(round_edges);
  DrawnEvent drawn;
  switch (rng() % 5) {
    case 0: {
      const std::int64_t slots = pick(id_edges);
      const std::int64_t micros = micro_edges[rng() % micro_edges.size()];
      drawn.jsonl = "{\"ev\":\"round_open\",\"round\":" +
                    std::to_string(round) +
                    ",\"slots\":" + std::to_string(slots) + ",\"value\":\"" +
                    render_micros(micros) + "\"}";
      drawn.binary = frame(std::string(1, '\0') + le64(round) + le32(slots) +
                           le64(micros));
      break;
    }
    case 1: {
      const std::int64_t slot = pick(id_edges);
      const std::int64_t task = pick(id_edges);
      const bool has_value = rng() % 2 == 0;
      const std::int64_t micros = micro_edges[rng() % micro_edges.size()];
      drawn.jsonl = "{\"ev\":\"task_arrived\",\"round\":" +
                    std::to_string(round) +
                    ",\"slot\":" + std::to_string(slot) +
                    ",\"task\":" + std::to_string(task);
      drawn.binary = std::string(1, '\1') + le64(round) + le32(slot) +
                     le32(task);
      if (has_value) {
        drawn.per_task_value = true;
        drawn.jsonl += ",\"value\":\"" + render_micros(micros) + "\"";
        drawn.binary += std::string(1, '\1') + le64(micros);
      } else {
        drawn.binary += std::string(1, '\0');
      }
      drawn.jsonl += "}";
      drawn.binary = frame(drawn.binary);
      break;
    }
    case 2: {
      const std::int64_t agent = pick(id_edges);
      const std::int64_t from = pick(id_edges);
      const std::int64_t to = pick(id_edges);
      const std::int64_t micros = micro_edges[rng() % micro_edges.size()];
      drawn.jsonl = "{\"ev\":\"bid_submitted\",\"round\":" +
                    std::to_string(round) +
                    ",\"agent\":" + std::to_string(agent) +
                    ",\"from\":" + std::to_string(from) +
                    ",\"to\":" + std::to_string(to) + ",\"cost\":\"" +
                    render_micros(micros) + "\"}";
      drawn.binary = frame(std::string(1, '\2') + le64(round) + le32(agent) +
                           le32(from) + le32(to) + le64(micros));
      break;
    }
    case 3: {
      const std::int64_t slot = pick(id_edges);
      drawn.jsonl = "{\"ev\":\"slot_tick\",\"round\":" +
                    std::to_string(round) +
                    ",\"slot\":" + std::to_string(slot) + "}";
      drawn.binary = frame(std::string(1, '\3') + le64(round) + le32(slot));
      break;
    }
    default: {
      drawn.jsonl =
          "{\"ev\":\"round_close\",\"round\":" + std::to_string(round) + "}";
      drawn.binary = frame(std::string(1, '\4') + le64(round));
      break;
    }
  }
  return drawn;
}

TEST(WireFuzz, BinaryAndJsonlDecodersAcceptAndRejectInLockstep) {
  std::mt19937_64 rng(987654321);
  const std::int64_t iters = fuzz_iters(4000);
  std::int64_t accepted = 0;
  std::int64_t rejected = 0;
  for (std::int64_t i = 0; i < iters; ++i) {
    const DrawnEvent drawn = draw_event(rng);
    std::optional<ServeEvent> from_jsonl;
    std::optional<ServeEvent> from_binary;
    std::string jsonl_error;
    std::string binary_error;
    try {
      from_jsonl = decode_serve_line(drawn.jsonl);
    } catch (const InvalidArgumentError& e) {
      jsonl_error = e.what();
    }
    try {
      const auto decoded = decode_wire_frame(drawn.binary);
      ASSERT_TRUE(decoded.has_value()) << drawn.jsonl;  // complete frame
      from_binary = decoded->event;
    } catch (const InvalidArgumentError& e) {
      binary_error = e.what();
    }
    ASSERT_EQ(from_jsonl.has_value(), from_binary.has_value())
        << "divergence on " << drawn.jsonl << " (jsonl "
        << (from_jsonl ? "accepted" : "rejected") << ", binary "
        << (from_binary ? "accepted" : "rejected") << ")";
    // A per-task value is refused by both, for the same reason.
    ASSERT_TRUE(!drawn.per_task_value || !from_jsonl) << drawn.jsonl;
    ASSERT_EQ(jsonl_error.find(kPerTaskValueRefusal) != std::string::npos,
              binary_error.find(kPerTaskValueRefusal) != std::string::npos)
        << drawn.jsonl << ": " << jsonl_error << " / " << binary_error;
    if (from_jsonl) {
      ++accepted;
      // Acceptance must also agree on the decoded value, byte for byte.
      ASSERT_EQ(*from_jsonl, *from_binary) << drawn.jsonl;
      ASSERT_EQ(encode_wire_frame(*from_jsonl), drawn.binary) << drawn.jsonl;
    } else {
      ++rejected;
    }
  }
  // The draw is adversarial but not degenerate: both outcomes must occur.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

// ------------------------------------------------------ whole-stream fuzz

/// A seeded sequence of valid events with edge-biased fields.
std::vector<ServeEvent> random_events(std::mt19937_64& rng, int max_events) {
  const auto micros = [&rng]() -> std::int64_t {
    switch (rng() % 4) {
      case 0:
        return 0;
      case 1:
        return Money::max().micros();
      default:
        return static_cast<std::int64_t>(rng() % 1'000'000'000);
    }
  };
  const auto small = [&rng](int lo, int hi) {
    return lo + static_cast<int>(rng() %
                                 static_cast<std::uint64_t>(hi - lo + 1));
  };
  std::vector<ServeEvent> events;
  const int n = static_cast<int>(
      rng() % static_cast<std::uint64_t>(max_events + 1));
  for (int i = 0; i < n; ++i) {
    const std::int64_t round = rng() % 8 == 0 ? kMaxServeRound : small(0, 5);
    switch (rng() % 5) {
      case 0:
        events.push_back(
            round_open(round, small(1, 60), Money::from_micros(micros())));
        break;
      case 1: {
        events.push_back(task_arrived(round, Slot{small(1, 60)},
                                      TaskId{small(0, 40)}));
        break;
      }
      case 2: {
        const int from = small(1, 30);
        events.push_back(bid_submitted(
            round, PhoneId{small(0, 99)},
            model::Bid{SlotInterval::of(from, from + small(0, 30)),
                       Money::from_micros(micros())}));
        break;
      }
      case 3:
        events.push_back(slot_tick(round, Slot{small(1, 60)}));
        break;
      default:
        events.push_back(round_close(round));
        break;
    }
  }
  return events;
}

/// Decodes `stream` fed in the given chunk sizes (cycled), then finish().
std::vector<ServeEvent> decode_chunked(std::string_view stream,
                                       const std::vector<std::size_t>& sizes) {
  StreamDecoder decoder;
  std::vector<ServeEvent> got;
  const auto sink = [&](const ServeEvent& event) { got.push_back(event); };
  for (std::size_t i = 0; !stream.empty(); ++i) {
    const std::size_t take = std::min(stream.size(), sizes[i % sizes.size()]);
    decoder.feed(stream.substr(0, take), sink);
    stream.remove_prefix(take);
  }
  decoder.finish(sink);
  return got;
}

TEST(WireFuzz, EveryChunkingOfBothFormatsYieldsTheSameEvents) {
  std::mt19937_64 rng(20261019);
  const std::int64_t sequences =
      std::max<std::int64_t>(1, fuzz_iters(4000) / 4);
  for (std::int64_t i = 0; i < sequences; ++i) {
    const std::vector<ServeEvent> events = random_events(rng, 12);
    std::vector<std::size_t> random_sizes;
    for (int k = 0; k < 16; ++k) random_sizes.push_back(1 + rng() % 97);
    for (const std::string& stream :
         {jsonl_bytes(events), binary_bytes(events)}) {
      ASSERT_EQ(decode_chunked(stream, {stream.size() + 1}), events);
      ASSERT_EQ(decode_chunked(stream, {1}), events);
      ASSERT_EQ(decode_chunked(stream, random_sizes), events);
    }
  }
}

TEST(WireFuzz, EveryPrefixIsAcceptedWithItsCompleteEventsOrRejected) {
  // A prefix ending on an event boundary (a line's closing brace or its
  // newline, or a frame's last byte) is accepted with exactly the events
  // before it; any other prefix -- mid-line, mid-frame, inside either
  // header -- is rejected.
  std::mt19937_64 rng(1019);
  const std::int64_t sequences =
      std::max<std::int64_t>(1, fuzz_iters(4000) / 50);
  for (std::int64_t i = 0; i < sequences; ++i) {
    const std::vector<ServeEvent> events = random_events(rng, 5);
    for (const WireFormat format : {WireFormat::kJsonl, WireFormat::kBinary}) {
      const bool binary = format == WireFormat::kBinary;
      const std::string stream =
          binary ? binary_bytes(events) : jsonl_bytes(events);
      // boundaries[offset] = events complete at that prefix length.
      std::map<std::size_t, std::size_t> boundaries = {{0, 0}};
      std::size_t at = binary ? kWireHeaderBytes : jsonl_bytes({}).size();
      if (!binary) boundaries[at - 1] = 0;  // header line without '\n'
      boundaries[at] = 0;
      for (std::size_t k = 0; k < events.size(); ++k) {
        if (binary) {
          at += encode_wire_frame(events[k]).size();
        } else {
          at += encode_serve_event(events[k]).size();
          boundaries[at] = k + 1;
          at += 1;  // '\n'
        }
        boundaries[at] = k + 1;
      }
      ASSERT_EQ(at, stream.size());
      for (std::size_t len = 0; len <= stream.size(); ++len) {
        std::optional<std::vector<ServeEvent>> got;
        try {
          got = decode_chunked(std::string_view(stream).substr(0, len),
                               {len + 1});
        } catch (const InvalidArgumentError&) {
        }
        const auto boundary = boundaries.find(len);
        ASSERT_EQ(got.has_value(), boundary != boundaries.end())
            << to_string(format) << " prefix " << len << " of "
            << stream.size();
        if (got) {
          ASSERT_EQ(*got, std::vector<ServeEvent>(
                              events.begin(),
                              events.begin() + static_cast<std::ptrdiff_t>(
                                                   boundary->second)));
        }
      }
    }
  }
}

}  // namespace
}  // namespace mcs::serve
