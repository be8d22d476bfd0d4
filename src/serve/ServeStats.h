//===-- serve/ServeStats.h - Serving-layer telemetry ------------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving layer's registry entries, split by owner so every event is
/// counted exactly once. Each Shard owns a ShardStats and counts what its
/// shard thread does; Shard::health() reads the same instances. The
/// Server owns one ServeStats for what the front-end answers itself. The
/// process-wide Telemetry registry sums same-name instances (and merges
/// same-name histograms), so the admin health report and the BENCH_*.json
/// artifacts see one process-wide total per name:
///
///   ShardStats (one per shard):
///   serve.requests          requests a shard answered: evaluated,
///                           expired, dedup answers and journal refusals
///                           (counter)
///   serve.errors            of those, plus requests failed by a crash,
///                           the ones answered ERR (counter)
///   serve.shard.restarts    shard crash/restart cycles (counter)
///   serve.checkpoints       checkpoints a shard committed: `!checkpoint`,
///                           periodic and final (counter; health()'s
///                           `checkpoints`)
///   serve.deadline.expired  request deadlines that expired (counter)
///   serve.dedup.hits        retries answered from the dedup table
///                           instead of re-executing (counter)
///   serve.replayed          journaled requests re-applied during
///                           replay-on-reboot (counter)
///   serve.journal.appends   journal records written (counter)
///   serve.journal.fsyncs    batch-boundary journal fsyncs (counter)
///   serve.journal.append.failures  journal appends refused — the
///                           request was answered ERR, never executed
///   serve.journal.fsync.failures   journal fsyncs that failed (warn
///                           only: records are written, replay degrades
///                           gracefully)
///   serve.journal.truncations      checkpoint-commit compactions
///   serve.journal.torn      torn tails repaired at journal open
///   serve.batch.size        requests per batch (histogram, unit "reqs");
///                           its sample count is the batch count
///   serve.latency           enqueue-to-completion latency (histogram, ns)
///   serve.queue.wait        enqueue-to-eval-start wait (histogram, ns)
///
///   ServeStats (one per Server, front-end event loop):
///   serve.errors            requests the front-end answered ERR itself:
///                           bad lines, refused re-binds, shed requests,
///                           unbound ?seq=, submits to a stopping shard
///                           (counter)
///   serve.shed              requests fast-failed "ERR overloaded" by
///                           admission control / the breaker (counter)
///   serve.breaker.open      circuit-breaker open transitions (counter)
///   serve.socket.writes     write() calls on client sockets; one per
///                           session per poll round unless a short
///                           write leaves bytes for the next (counter)
///   serve.sessions.active   open client sessions (gauge)
///
///   Server (one per process, over its shards):
///   serve.queue.depth       requests queued across all batchers (gauge)
///
//===----------------------------------------------------------------------===//

#ifndef MST_SERVE_SERVESTATS_H
#define MST_SERVE_SERVESTATS_H

#include <atomic>
#include <cstdint>

#include "obs/Histogram.h"
#include "obs/Telemetry.h"

namespace mst {
namespace serve {

struct ShardStats {
  Counter Requests{"serve.requests"};
  Counter Errors{"serve.errors"};
  Counter Restarts{"serve.shard.restarts"};
  Counter Checkpoints{"serve.checkpoints"};
  Counter DeadlineExpired{"serve.deadline.expired"};
  Counter DedupHits{"serve.dedup.hits"};
  Counter Replayed{"serve.replayed"};
  Counter JournalAppends{"serve.journal.appends"};
  Counter JournalFsyncs{"serve.journal.fsyncs"};
  Counter JournalAppendFailures{"serve.journal.append.failures"};
  Counter JournalFsyncFailures{"serve.journal.fsync.failures"};
  Counter JournalTruncations{"serve.journal.truncations"};
  Counter JournalTorn{"serve.journal.torn"};
  Histogram BatchSize{"serve.batch.size", "reqs"};
  Histogram Latency{"serve.latency"};
  Histogram QueueWait{"serve.queue.wait"};
};

struct ServeStats {
  Counter Errors{"serve.errors"};
  Counter Shed{"serve.shed"};
  Counter BreakerOpen{"serve.breaker.open"};
  Counter SocketWrites{"serve.socket.writes"};

  std::atomic<uint64_t> ActiveSessions{0};
  std::atomic<uint64_t> TotalSessions{0};
  Gauge SessionsActive{"serve.sessions.active", [this] {
                         return ActiveSessions.load(
                             std::memory_order_relaxed);
                       }};
};

} // namespace serve
} // namespace mst

#endif // MST_SERVE_SERVESTATS_H
