//===-- serve/Server.h - Socket front-end and its shards --------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving layer's front door: a poll()-based event loop on one
/// thread multiplexing thousands of loopback TCP sessions onto N shards,
/// which the Server owns (see serve/Shard.h). The loop owns every socket
/// and Session; shard threads deliver completed batches through a locked
/// queue plus a wake pipe, so the only cross-thread traffic is
/// enqueue/drain of finished work.
///
///   accept -> Session (pinned to SessionId % shards)
///   readable -> frame lines -> parse -> RequestBatcher[shard]
///   shard batch done -> response queue -> wake pipe -> session Out
///     -> POLLOUT on the next poll() -> one write per session per round
///
/// Graceful lifecycle: requestDrain() (SIGTERM, or the `!drain` admin
/// command) stops accepting, stops reading, lets in-flight requests
/// finish and flush, closes each session as it empties, then stops the
/// shards — each takes a final checkpoint. A drain deadline force-closes
/// stragglers so shutdown is bounded.
///
//===----------------------------------------------------------------------===//

#ifndef MST_SERVE_SERVER_H
#define MST_SERVE_SERVER_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/Telemetry.h"
#include "serve/Session.h"
#include "serve/Shard.h"

namespace mst {
namespace serve {

struct ServerConfig {
  /// TCP port to listen on (loopback only); 0 picks an ephemeral port —
  /// read it back with port().
  uint16_t Port = 0;
  /// What every shard is built from.
  PoolConfig Pool;
  /// Outstanding requests per session before its reads are parked; at
  /// least 1.
  size_t MaxPipeline = 1024;
  /// Force-close deadline for a graceful drain.
  double DrainTimeoutSec = 30.0;
  /// Default per-request deadline stamped on evaluations that carry no
  /// `?deadline=MS` of their own; 0 = no default (runaways wedge their
  /// shard, as before).
  uint64_t RequestDeadlineMs = 0;
  /// Admission control: evaluations outstanding per shard before new
  /// ones fast-fail `ERR overloaded`; 0 = unbounded.
  size_t QueueBudget = 1024;
  /// Consecutive deadline expiries on one shard that open its circuit
  /// breaker; 0 disables the breaker.
  unsigned BreakerThreshold = 8;
  /// How long an open breaker sheds before letting one half-open probe
  /// through.
  uint64_t BreakerOpenMs = 1000;
};

class Server {
public:
  explicit Server(ServerConfig Config);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Boots the shards (each shard thread loads its own image; every one
  /// gets 300 s), binds the listener, starts the event loop. \returns
  /// false with \p Error set on failure, also for zero shards.
  bool start(std::string &Error);

  /// The bound port (valid after start()).
  uint16_t port() const { return BoundPort; }

  /// Begins a graceful drain: stop accepting, finish in-flight work,
  /// checkpoint every shard, stop. Safe from any thread; idempotent.
  /// (Signal handlers: set a flag and call this from a normal thread.)
  void requestDrain();

  /// Blocks until the event loop has fully stopped. \returns false on
  /// timeout.
  bool waitStopped(double TimeoutSec);

  /// requestDrain() + join. Also safe when start() failed half-way.
  void stop();

  ServeStats &stats() { return Stats; }

  /// Shards booted by start().
  unsigned shardCount() const { return static_cast<unsigned>(Shards.size()); }

  /// Every shard's point-in-time health, indexed by shard.
  std::vector<Shard::Health> health();

private:
  void loopMain();
  void acceptReady();
  void readSession(Session &S);
  void parseBuffered(Session &S);
  void handleLine(Session &S, const std::string &Line);
  void writeSession(Session &S);
  void closeSession(uint64_t Id);
  void deliverResponses();
  void wake();
  /// Stops every shard; Shard::stop is idempotent.
  void stopShards();

  /// The shard a session is pinned to: a session's requests must all hit
  /// the same image, since doIts mutate shard-local globals.
  unsigned shardFor(uint64_t SessionId) const {
    return static_cast<unsigned>(SessionId % Shards.size());
  }

  ServerConfig Config;
  ServeStats Stats;
  /// Built in start(); never resized after.
  std::vector<std::unique_ptr<Shard>> Shards;
  /// `serve.queue.depth`: requests queued across every shard's batcher.
  /// Registered once Shards is complete, so a concurrent telemetry read
  /// never walks a half-built vector; declared after Shards, so it is
  /// destroyed before them.
  std::unique_ptr<Gauge> QueueDepth;

  int ListenFd = -1;
  int WakeRd = -1, WakeWr = -1;
  uint16_t BoundPort = 0;

  std::thread LoopThread;

  // Event-loop-owned.
  std::unordered_map<uint64_t, Session> Sessions; // by session id
  uint64_t NextSessionId = 0;
  bool Draining = false;
  uint64_t DrainDeadlineNs = 0;

  /// Per-shard admission gate (event-loop-owned, like the sessions):
  /// outstanding-request budget plus the circuit breaker. Consecutive
  /// deadline expiries open the breaker; while open every evaluation
  /// fast-fails `ERR overloaded`; after BreakerOpenMs one probe request
  /// is let through half-open — success recloses, another expiry
  /// reopens.
  struct ShardGate {
    uint64_t Outstanding = 0;
    unsigned ConsecTimeouts = 0;
    enum class Breaker : uint8_t { Closed, Open, HalfOpen };
    Breaker State = Breaker::Closed;
    uint64_t OpenUntilNs = 0;
    bool ProbeInFlight = false;
    uint64_t ProbeSession = 0;
    uint64_t ProbeSeq = 0;
  };
  std::vector<ShardGate> Gates; // indexed by shard, sized in start()

  // Cross-thread: shard-completed batches + drain request.
  std::mutex RespMutex;
  std::deque<Batch> Responses; // guarded by RespMutex
  std::atomic<bool> DrainRequested{false};

  std::mutex StopMutex;
  std::condition_variable StopCv;
  bool Started = false; // loop thread launched (guarded by StopMutex)
  bool Stopped = false; // loop thread finished (guarded by StopMutex)
};

} // namespace serve
} // namespace mst

#endif // MST_SERVE_SERVER_H
