//===-- perfbench/driver/Workload.h - Seeded request streams ----*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's inputs: every request line a workload sends, generated
/// from the run's seed, together with the answer the program must give.
/// The program sees only the generated lines; the expected answers never
/// leave the benchmark.
///
//===----------------------------------------------------------------------===//

#ifndef MST_PERFBENCH_WORKLOAD_H
#define MST_PERFBENCH_WORKLOAD_H

#include <cstdint>
#include <string>
#include <vector>

#include "support/SplitMix64.h"

namespace perfbench {

enum class WorkloadKind { ServeSmall, ServeCache, Macro };

/// Parses "serve_small" / "serve_cache" / "macro_table2". \returns false
/// for any other name.
bool parseWorkload(const std::string &Name, WorkloadKind &Out);

/// One generated request and the response value it must produce.
struct Request {
  std::string Line;   ///< protocol line, without the newline
  std::string Expect; ///< the exact value of the `OK value` response
};

/// Slots in each shard's serve_cache ring. With sizes of up to 512 slots
/// (4 KB) an object survives two scavenges of the 4 MB eden, is tenured,
/// and dies in old space when its slot is reused.
inline constexpr unsigned CacheRingSlots = 4096;
inline constexpr unsigned CacheMinSlots = 64;
inline constexpr unsigned CacheMaxSlots = 512;

/// The request stream of one connection. serve_small: `3 + 4 * n` reads,
/// and every fourth request an exactly-once (`?seq=`) increment of the
/// connection's counter. serve_cache: a fresh Array of seeded size stored
/// in the next ring slot, answering its size. Every connection of
/// serve_cache draws the same size sequence, so the shards allocate
/// identically and reach their collections at the same request.
class RequestStream {
public:
  RequestStream(WorkloadKind Kind, uint64_t Seed, unsigned Conn);

  /// The line that creates this connection's state on its shard, and the
  /// value it answers.
  Request setup() const;

  /// The next request of the stream.
  Request next();

  /// serve_small: reads back this connection's counter; it must equal
  /// increments() once every increment has been answered.
  Request readCounter() const;

private:
  WorkloadKind Kind;
  unsigned Conn;
  mst::SplitMix64 Rng;
  uint64_t Count = 0;
  uint64_t Increments = 0;
  std::vector<unsigned> CycleSizes; ///< serve_cache: this ring pass's sizes
};

} // namespace perfbench

#endif // MST_PERFBENCH_WORKLOAD_H
