//===-- serve/ShardPool.h - The multi-VM shard pool -------------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// N independent VirtualMachine shards booted from one prewarmed base
/// image, each checkpointing to its own `shardNNN.image` (see
/// shardImagePath). The pool is deliberately dumb: it owns the shards,
/// routes by session pin (SessionId % N — a session's requests must all
/// hit the same image, since doIts mutate shard-local globals), and
/// aggregates health. Everything stateful lives in the Shard.
///
//===----------------------------------------------------------------------===//

#ifndef MST_SERVE_SHARDPOOL_H
#define MST_SERVE_SHARDPOOL_H

#include <memory>
#include <string>
#include <vector>

#include "obs/Telemetry.h"
#include "serve/Shard.h"

namespace mst {
namespace serve {

struct PoolConfig {
  unsigned Shards = 4;
  /// Prewarmed base image every shard boots from; empty = cold
  /// bootstrap per shard (slow — prefer bench_prewarm's output).
  std::string BaseImage;
  /// Directory for per-shard checkpoints; empty disables checkpointing.
  std::string DataDir;
  unsigned KeepGenerations = 2;
  uint64_t CheckpointEveryMs = 0;
  /// Write-ahead request journaling (`shardNNN.journal` next to the
  /// checkpoint): every acknowledged request survives any crash via
  /// checkpoint + replay. Requires DataDir.
  bool Journal = false;
  /// Per-request deadline during journal replay.
  uint64_t ReplayDeadlineMs = 5000;
  /// Watchdog grace before a dishonored abort escalates to a reboot.
  uint64_t AbortGraceMs = 250;
  VmConfig Vm = VmConfig::multiprocessor(1);
};

class ShardPool {
public:
  ShardPool(const PoolConfig &Config, Shard::ResponseSink Sink,
            ServeStats &Stats);

  /// Boots every shard (concurrently; each shard thread loads its own
  /// image). \returns false if any shard failed to come up in time.
  bool start(double ReadyTimeoutSec, std::string &Error);

  /// Drains and stops every shard (each takes a final checkpoint).
  void stop();

  unsigned size() const { return static_cast<unsigned>(Shards.size()); }

  /// The shard a session is pinned to.
  unsigned shardFor(uint64_t SessionId) const {
    return static_cast<unsigned>(SessionId % Shards.size());
  }

  /// Routes \p R to its session's shard (or, for Kill/Checkpoint control
  /// requests, to \p Explicit). \returns false when stopping.
  bool submit(unsigned ShardIndex, QueuedRequest R) {
    return Shards[ShardIndex]->submit(std::move(R));
  }

  std::vector<Shard::Health> health();

private:
  std::vector<std::unique_ptr<Shard>> Shards;
  /// `serve.queue.depth`: requests queued across every shard's batcher.
  /// Registered once Shards is complete, so a concurrent telemetry read
  /// never walks a half-built vector; destroyed before the shards.
  std::unique_ptr<Gauge> QueueDepth;
  bool Stopped = false;
};

} // namespace serve
} // namespace mst

#endif // MST_SERVE_SHARDPOOL_H
