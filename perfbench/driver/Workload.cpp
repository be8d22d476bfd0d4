//===-- perfbench/driver/Workload.cpp - Seeded request streams ------------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Workload.h"

#include <utility>

using namespace perfbench;

bool perfbench::parseWorkload(const std::string &Name, WorkloadKind &Out) {
  if (Name == "serve_small")
    Out = WorkloadKind::ServeSmall;
  else if (Name == "serve_cache")
    Out = WorkloadKind::ServeCache;
  else if (Name == "macro_table2")
    Out = WorkloadKind::Macro;
  else
    return false;
  return true;
}

namespace {
std::string counterName(unsigned Conn) {
  return "#PerfCtr" + std::to_string(Conn);
}
} // namespace

RequestStream::RequestStream(WorkloadKind Kind, uint64_t Seed, unsigned Conn)
    : Kind(Kind), Conn(Conn),
      // serve_cache connections share one size sequence (see the header).
      Rng(Seed * 0x9e3779b97f4a7c15ULL +
          (Kind == WorkloadKind::ServeCache ? 0 : Conn + 1)) {}

Request RequestStream::setup() const {
  if (Kind == WorkloadKind::ServeCache)
    return {"(Smalltalk at: #PerfRing put: (Array new: " +
                std::to_string(CacheRingSlots) + ")) size",
            std::to_string(CacheRingSlots)};
  return {"Smalltalk at: " + counterName(Conn) + " put: 0", "0"};
}

Request RequestStream::next() {
  uint64_t I = Count++;
  if (Kind == WorkloadKind::ServeCache) {
    // Each pass over the ring stores the same sizes, evenly spread over
    // [CacheMinSlots, CacheMaxSlots], in a seeded order: every seed then
    // tenures the same bytes per pass, and the old-space layout the
    // seed shapes varies less from seed to seed.
    if (I % CacheRingSlots == 0) {
      CycleSizes.resize(CacheRingSlots);
      for (unsigned K = 0; K < CacheRingSlots; ++K)
        CycleSizes[K] = CacheMinSlots + K * (CacheMaxSlots - CacheMinSlots) /
                                            (CacheRingSlots - 1);
      for (unsigned K = CacheRingSlots; K > 1; --K)
        std::swap(CycleSizes[K - 1], CycleSizes[Rng.nextBelow(K)]);
    }
    uint64_t Size = CycleSizes[I % CacheRingSlots];
    uint64_t Slot = I % CacheRingSlots + 1;
    return {"((Smalltalk at: #PerfRing) at: " + std::to_string(Slot) +
                " put: (Array new: " + std::to_string(Size) + ")) size",
            std::to_string(Size)};
  }
  if (I % 4 == 3) {
    ++Increments;
    std::string C = counterName(Conn);
    return {"@?seq=" + std::to_string(Increments) + " Smalltalk at: " + C +
                " put: (Smalltalk at: " + C + ") + 1",
            std::to_string(Increments)};
  }
  uint64_t N = Rng.nextBelow(1000000);
  return {"3 + 4 * " + std::to_string(N), std::to_string(7 * N)};
}

Request RequestStream::readCounter() const {
  return {"Smalltalk at: " + counterName(Conn), std::to_string(Increments)};
}
