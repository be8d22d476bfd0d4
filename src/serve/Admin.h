//===-- serve/Admin.h - Aggregate health/telemetry report -------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `!health` report: one JSON object aggregating the whole serving
/// process — per-shard state (generation, restarts, requests, errors,
/// queue depth, checkpoints), session counts, request totals (the shards'
/// sums plus the front-end's own errors), the sampling profiler's per-shard
/// state breakdown (running / lock-wait / gc / idle sample counts,
/// resolvable without touching any shard's heap), and the full telemetry
/// registry snapshot (serve.* counters, gc pause histograms, everything
/// else). Rendered on the event-loop thread; it reads only atomics,
/// registry aggregates, and profiler sample tables, never a VM.
///
//===----------------------------------------------------------------------===//

#ifndef MST_SERVE_ADMIN_H
#define MST_SERVE_ADMIN_H

#include <string>
#include <vector>

#include "serve/ServeStats.h"
#include "serve/Shard.h"

namespace mst {
namespace serve {

/// The front-end's per-shard admission view, rendered into the health
/// report next to the shard's own counters (the Server fills these from
/// its event-loop-owned gates).
struct ShardGateView {
  const char *Breaker = "closed"; ///< "closed" | "open" | "half-open"
  uint64_t Outstanding = 0;       ///< submitted, not yet answered
  uint64_t ConsecTimeouts = 0;
};

/// Renders the one-line aggregate health JSON. \p Stats is the
/// front-end's; each shard's counts come from \p Shards. \p Gates, when
/// non-null, is indexed by shard id (the caller guarantees one entry per
/// shard).
std::string buildHealthJson(const std::vector<Shard::Health> &Shards,
                            ServeStats &Stats,
                            const std::vector<ShardGateView> *Gates =
                                nullptr);

} // namespace serve
} // namespace mst

#endif // MST_SERVE_ADMIN_H
