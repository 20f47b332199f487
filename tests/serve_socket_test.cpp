// Socket front-end smoke tests: an engine fed over the loopback TCP
// listener must produce byte-identical outcomes to one fed in-process, in
// both wire formats and across multiple concurrent connections; malformed
// input must poison exactly its own connection; a truncated stream must
// be reported, not silently absorbed; and a connection ends under the
// same EOF rule and line cap as a replayed file.
#include "serve/socket.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "serve/engine.hpp"
#include "serve/loadgen.hpp"
#include "serve/wire.hpp"

namespace mcs::serve {
namespace {

LoadGenConfig small_load() {
  LoadGenConfig config;
  config.rounds = 8;
  config.seed = 7;
  return config;
}

std::vector<ServeEvent> load_events(const LoadGenConfig& config) {
  std::vector<ServeEvent> events;
  generate_events(config, [&](const ServeEvent& event) {
    events.push_back(event);
    return true;
  });
  return events;
}

std::string binary_stream(const std::vector<ServeEvent>& events) {
  std::string bytes;
  append_wire_header(bytes);
  for (const ServeEvent& event : events) append_wire_frame(bytes, event);
  return bytes;
}

std::string jsonl_stream(const std::vector<ServeEvent>& events) {
  std::ostringstream os;
  write_stream_header(os);
  for (const ServeEvent& event : events) write_serve_event(os, event);
  return os.str();
}

void expect_same_outcomes(const std::vector<RoundOutcome>& a,
                          const std::vector<RoundOutcome>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].round, b[i].round);
    EXPECT_EQ(a[i].total_paid, b[i].total_paid);
    EXPECT_EQ(a[i].tasks_announced, b[i].tasks_announced);
    EXPECT_EQ(a[i].bids_admitted, b[i].bids_admitted);
    EXPECT_EQ(a[i].outcome.payments, b[i].outcome.payments);
  }
}

/// Runs an engine fed in-process over `events` (the reference run).
std::vector<RoundOutcome> reference_outcomes(
    const std::vector<ServeEvent>& events, int shards) {
  ServeConfig config;
  config.shards = shards;
  ServeEngine engine(config);
  for (const ServeEvent& event : events) engine.submit(event);
  engine.drain();
  return engine.take_outcomes();
}

/// Runs an engine fed the given raw bytes through the socket front-end.
struct SocketRun {
  std::vector<RoundOutcome> outcomes;
  SocketServerStats stats;
};

SocketRun socket_outcomes(const std::vector<std::string>& connections,
                          int shards) {
  ServeConfig config;
  config.shards = shards;
  ServeEngine engine(config);
  SocketServer server({}, [&engine](const ServeEvent& event) {
    (void)engine.submit(event);
  });
  server.start();
  for (const std::string& bytes : connections) {
    SocketClient client = SocketClient::connect("127.0.0.1", server.port());
    client.send(bytes);
    client.close();
  }
  // drain() accepts the pending backlog and joins the reader threads, so
  // every sent event is submitted before the engine drains.
  server.drain();
  engine.drain();
  SocketRun run;
  run.outcomes = engine.take_outcomes();
  run.stats = server.stats();
  return run;
}

TEST(ServeSocket, BinaryFeedMatchesInProcessFeed) {
  const std::vector<ServeEvent> events = load_events(small_load());
  ServeConfig config;
  config.shards = 2;
  ServeEngine reference(config);
  for (const ServeEvent& event : events) reference.submit(event);
  reference.drain();

  const SocketRun run = socket_outcomes({binary_stream(events)}, 2);
  EXPECT_EQ(run.stats.connections, 1);
  EXPECT_EQ(run.stats.decode_errors, 0);
  EXPECT_EQ(run.stats.events, static_cast<std::int64_t>(events.size()));
  expect_same_outcomes(run.outcomes, reference.take_outcomes());
}

TEST(ServeSocket, JsonlFeedMatchesBinaryFeed) {
  const std::vector<ServeEvent> events = load_events(small_load());
  const SocketRun binary = socket_outcomes({binary_stream(events)}, 1);
  const SocketRun jsonl = socket_outcomes({jsonl_stream(events)}, 1);
  EXPECT_EQ(jsonl.stats.decode_errors, 0);
  EXPECT_EQ(jsonl.stats.events, binary.stats.events);
  expect_same_outcomes(binary.outcomes, jsonl.outcomes);
}

TEST(ServeSocket, ConcurrentConnectionsPartitionTheRounds) {
  // Distinct rounds over distinct connections: arrival interleaving is
  // nondeterministic, but rounds are independent, so the merged outcomes
  // still match the single-feed reference.
  LoadGenConfig config = small_load();
  std::vector<ServeEvent> all;
  std::vector<std::string> streams;
  generate_events(config, [&](const ServeEvent& event) {
    all.push_back(event);
    return true;
  });
  std::vector<std::vector<ServeEvent>> per_round(
      static_cast<std::size_t>(config.rounds));
  for (const ServeEvent& event : all) {
    per_round[static_cast<std::size_t>(event.round)].push_back(event);
  }
  streams.reserve(per_round.size());
  for (const std::vector<ServeEvent>& round : per_round) {
    streams.push_back(binary_stream(round));
  }

  ServeConfig reference_config;
  reference_config.shards = 4;
  ServeEngine reference(reference_config);
  for (const ServeEvent& event : all) reference.submit(event);
  reference.drain();

  const SocketRun run = socket_outcomes(streams, 4);
  EXPECT_EQ(run.stats.connections, config.rounds);
  EXPECT_EQ(run.stats.decode_errors, 0);
  expect_same_outcomes(run.outcomes, reference.take_outcomes());
}

TEST(ServeSocket, MalformedConnectionIsContained) {
  const std::vector<ServeEvent> events = load_events(small_load());
  // One garbage connection (binary magic then junk) alongside one good one.
  std::string garbage = "MCSB";
  garbage += std::string(16, '\xff');
  const SocketRun run = socket_outcomes({garbage, binary_stream(events)}, 1);
  EXPECT_EQ(run.stats.connections, 2);
  EXPECT_EQ(run.stats.decode_errors, 1);
  EXPECT_EQ(run.stats.events, static_cast<std::int64_t>(events.size()));
  const std::vector<RoundOutcome> reference = reference_outcomes(events, 1);
  expect_same_outcomes(run.outcomes, reference);
}

TEST(ServeSocket, TruncatedStreamCountsAsDecodeError) {
  const std::vector<ServeEvent> events = load_events(small_load());
  std::string bytes = binary_stream(events);
  bytes.pop_back();  // the final frame now ends mid-field
  const SocketRun run = socket_outcomes({bytes}, 1);
  EXPECT_EQ(run.stats.decode_errors, 1);
  // All complete frames were still delivered.
  EXPECT_EQ(run.stats.events, static_cast<std::int64_t>(events.size()) - 1);
}

TEST(ServeSocket, UnterminatedFinalJsonlLineIsServed) {
  // The EOF rule of a file replay holds on a connection too: a final line
  // without its '\n' is the last line, not truncation.
  const std::vector<ServeEvent> events = load_events(small_load());
  std::string bytes = jsonl_stream(events);
  bytes.pop_back();
  const SocketRun run = socket_outcomes({bytes}, 1);
  EXPECT_EQ(run.stats.decode_errors, 0);
  EXPECT_EQ(run.stats.events, static_cast<std::int64_t>(events.size()));
  expect_same_outcomes(run.outcomes, reference_outcomes(events, 1));
}

TEST(ServeSocket, NewlineFreeConnectionIsDroppedBeforeItsPeerCloses) {
  // A peer that never sends a newline must not make the server buffer
  // until EOF: past kMaxServeLineBytes the server drops the connection,
  // which the still-open peer sees as EOF (or a reset).
  SocketServer server({}, [](const ServeEvent&) {});
  server.start();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0);
  const std::string junk(4 * kMaxServeLineBytes, ' ');
  EXPECT_EQ(::send(fd, junk.data(), junk.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(junk.size()));
  pollfd ready{fd, POLLIN, 0};
  EXPECT_EQ(::poll(&ready, 1, /*timeout_ms=*/10'000), 1);
  char byte = 0;
  EXPECT_LE(::recv(fd, &byte, 1, MSG_DONTWAIT), 0);
  ::close(fd);
  server.stop();
  EXPECT_EQ(server.stats().decode_errors, 1);
}

TEST(ServeSocket, StopIsIdempotentAndRestartForbidden) {
  SocketServer server({}, [](const ServeEvent&) {});
  server.start();
  const int port = server.port();
  EXPECT_GT(port, 0);
  server.stop();
  server.stop();  // idempotent
  EXPECT_THROW(SocketClient::connect("127.0.0.1", port), IoError);
}

}  // namespace
}  // namespace mcs::serve
