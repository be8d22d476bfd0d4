//===-- serve/ServeStats.h - Serving-layer telemetry ------------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving layer's registry entries, gathered in one struct owned by
/// the Server so every shard increments the same instances. All
/// of them aggregate by name through the process-wide Telemetry registry,
/// so they appear in writeTelemetryJson, the admin health report, and the
/// BENCH_*.json artifacts without further plumbing:
///
///   serve.requests          requests completed (counter)
///   serve.errors            requests answered ERR (counter)
///   serve.batches           batches shards took off their queues (counter)
///   serve.shard.restarts    shard crash/restart cycles (counter)
///   serve.deadline.expired  request deadlines that expired (counter)
///   serve.aborts            in-VM aborts delivered to runaways (counter)
///   serve.aborts.escalated  aborts the VM never honored: the watchdog
///                           escalated to a shard reboot (counter)
///   serve.shed              requests fast-failed "ERR overloaded" by
///                           admission control / the breaker (counter)
///   serve.breaker.open      circuit-breaker open transitions (counter)
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
///   serve.sessions.active   open client sessions (gauge)
///   serve.queue.depth       requests queued across all batchers (gauge,
///                           registered by the ShardPool)
///   serve.batch.size        requests per batch (histogram, unit "reqs")
///   serve.latency           enqueue-to-completion latency (histogram, ns)
///   serve.queue.wait        enqueue-to-eval-start wait (histogram, ns)
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

struct ServeStats {
  Counter Requests{"serve.requests"};
  Counter Errors{"serve.errors"};
  Counter Batches{"serve.batches"};
  Counter Restarts{"serve.shard.restarts"};
  Counter DeadlineExpired{"serve.deadline.expired"};
  Counter Aborts{"serve.aborts"};
  Counter AbortsEscalated{"serve.aborts.escalated"};
  Counter Shed{"serve.shed"};
  Counter BreakerOpen{"serve.breaker.open"};
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
