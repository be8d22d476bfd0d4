//===-- serve/ShardPool.cpp - The multi-VM shard pool ---------------------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/ShardPool.h"

#include "image/Snapshot.h"

using namespace mst;
using namespace mst::serve;

ShardPool::ShardPool(const PoolConfig &Config, Shard::ResponseSink Sink,
                     ServeStats &Stats) {
  unsigned N = Config.Shards ? Config.Shards : 1;
  Shards.reserve(N);
  for (unsigned I = 0; I < N; ++I) {
    ShardConfig C;
    C.Index = I;
    C.BaseImage = Config.BaseImage;
    if (!Config.DataDir.empty()) {
      C.CheckpointPath = shardImagePath(Config.DataDir, I);
      if (Config.Journal) {
        std::string P = shardImagePath(Config.DataDir, I);
        C.JournalPath = P.substr(0, P.size() - 6) + ".journal";
      }
    }
    C.ReplayDeadlineMs = Config.ReplayDeadlineMs;
    C.KeepGenerations = Config.KeepGenerations;
    C.CheckpointEveryMs = Config.CheckpointEveryMs;
    C.AbortGraceMs = Config.AbortGraceMs;
    C.Vm = Config.Vm;
    Shards.push_back(std::make_unique<Shard>(C, Sink, Stats));
  }
  QueueDepth = std::make_unique<Gauge>("serve.queue.depth", [this] {
    uint64_t N = 0;
    for (auto &S : Shards)
      N += S->queueDepth();
    return N;
  });
}

bool ShardPool::start(double ReadyTimeoutSec, std::string &Error) {
  for (auto &S : Shards)
    S->start();
  for (auto &S : Shards) {
    if (!S->waitReady(ReadyTimeoutSec)) {
      Error = "shard " + std::to_string(S->index()) +
              " failed to become ready within " +
              std::to_string(ReadyTimeoutSec) + "s";
      return false;
    }
  }
  return true;
}

void ShardPool::stop() {
  if (Stopped)
    return;
  Stopped = true;
  for (auto &S : Shards)
    S->stop();
}

std::vector<Shard::Health> ShardPool::health() {
  std::vector<Shard::Health> Out;
  Out.reserve(Shards.size());
  for (auto &S : Shards)
    Out.push_back(S->health());
  return Out;
}
