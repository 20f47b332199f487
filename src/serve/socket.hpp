// Loopback TCP front-end for the serving engine.
//
// The engine itself is transport-agnostic: it consumes ServeEvents from
// whatever calls submit(). This front-end puts a socket in front of that
// call so producers in other processes can feed rounds over the wire. One
// acceptor thread owns the listening socket; each accepted connection gets
// a reader thread that decodes its byte stream and hands every event to
// the server's sink (the engine's submit path, which is already
// thread-safe and applies the usual admission policy).
//
// Each connection carries one stream, decoded by its own StreamDecoder
// (serve/wire.hpp) -- the decoder replay and transcode use -- so a
// connection sniffs its format from its first byte, buffers at most one
// capped line or frame, and ends under the same EOF rule as a file.
// Malformed or truncated input poisons only its own connection -- the
// connection is dropped and counted in stats().decode_errors; other
// connections and the engine keep running. That containment is what makes
// the socket path safe to expose to untrusted producers.
//
// Lifecycle: construct, start() (binds; an ephemeral port is readable via
// port()), stop() (idempotent; wakes the acceptor, shuts down every open
// connection, joins all threads). The destructor calls stop().
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/event.hpp"
#include "serve/wire.hpp"

namespace mcs::serve {

struct SocketServerConfig {
  std::string host{"127.0.0.1"};  ///< bind address (loopback by default)
  int port{0};                    ///< 0 picks an ephemeral port
  int backlog{64};
};

struct SocketServerStats {
  std::int64_t connections{0};    ///< connections accepted so far
  std::int64_t events{0};         ///< events delivered to the sink
  std::int64_t decode_errors{0};  ///< connections dropped on malformed input
};

class SocketServer {
 public:
  /// `sink` is invoked from connection reader threads, potentially
  /// concurrently; it must be thread-safe (ServeEngine::submit is).
  SocketServer(SocketServerConfig config, EventSink sink);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds, listens, and starts the acceptor thread. Throws IoError when
  /// the address cannot be bound.
  void start();

  /// The bound port (resolves an ephemeral request). Valid after start().
  [[nodiscard]] int port() const { return port_; }

  /// Graceful shutdown: accepts whatever connections are already pending
  /// in the kernel backlog, then waits for every connection to reach EOF
  /// naturally (producers that sent-and-closed lose nothing) and joins all
  /// threads. Blocks for as long as the slowest producer keeps its
  /// connection open.
  void drain();

  /// Forced shutdown: stops accepting and shuts down open connections
  /// (in-flight buffered bytes are dropped), joins all threads.
  /// Idempotent; called by the destructor.
  void stop();

  [[nodiscard]] SocketServerStats stats() const;

 private:
  void accept_loop();
  void drain_backlog();
  bool accept_one(bool blocking);
  void connection_loop(int fd);
  void join_all();
  void close_fds();

  SocketServerConfig config_;
  EventSink sink_;
  int listen_fd_{-1};
  int wake_pipe_[2]{-1, -1};  ///< self-pipe: stop() wakes the acceptor poll
  int port_{0};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  bool started_{false};

  mutable std::mutex mutex_;  ///< guards conn_fds_, threads_, rare counters
  std::vector<int> conn_fds_;
  std::vector<std::thread> threads_;
  std::thread acceptor_;
  std::int64_t connections_{0};
  std::atomic<std::int64_t> events_{0};  ///< hot: one per delivered event
  std::int64_t decode_errors_{0};
};

/// Blocking client: connects to host:port and streams bytes. The serve CLI
/// uses it to push loadgen / replay traffic at a --listen'ing engine.
class SocketClient {
 public:
  SocketClient() = default;
  ~SocketClient();

  SocketClient(SocketClient&& other) noexcept;
  SocketClient& operator=(SocketClient&& other) noexcept;
  SocketClient(const SocketClient&) = delete;
  SocketClient& operator=(const SocketClient&) = delete;

  /// Connects (throws IoError on refusal / resolution failure).
  [[nodiscard]] static SocketClient connect(const std::string& host, int port);

  /// Sends the whole buffer (throws IoError on a broken connection).
  void send(std::string_view bytes);

  /// Half-closes the write side so the server sees EOF, then closes.
  void close();

  [[nodiscard]] bool is_open() const { return fd_ >= 0; }

 private:
  int fd_{-1};
};

}  // namespace mcs::serve
