//===-- tests/stress/FullGCChaosTest.cpp - Full GC under chaos ------------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mark-sweep collector under perturbed schedules: mutator
/// threads allocate and tenure while a driver runs repeated full
/// collections, then the trigger heuristic is stormed with tenure
/// pressure. Every run ends with the reachability-walking heap verifier
/// (which also audits the free lists the sweep rebuilt).
///
//===----------------------------------------------------------------------===//

#include <thread>

#include "StressSupport.h"
#include "objmem/ObjectMemory.h"

using namespace mst;

namespace {

/// A bare object memory with per-thread old holders, tuned so survivors
/// tenure immediately (maximum old-space churn).
struct StormHeap {
  explicit StormHeap(const MemoryConfig &MC, int Threads) : OM(MC) {
    OM.registerMutator("driver");
    Nil = OM.allocateOldPointers(Oop(), 0);
    OM.setNil(Nil);
    Cls = OM.allocateOldPointers(Nil, 0);
    Roots.resize(static_cast<size_t>(Threads));
    for (Oop &R : Roots)
      R = OM.allocateOldPointers(Cls, 4);
    OM.addRootWalker([this](const ObjectMemory::OopVisitor &V) {
      for (Oop &R : Roots)
        V(&R);
    });
  }
  ~StormHeap() { OM.unregisterMutator(); }

  ObjectMemory OM;
  Oop Nil, Cls;
  std::vector<Oop> Roots;
};

/// The worker body: allocate linked pairs, publish them into the old
/// holder (write barrier + tenuring traffic), poll safepoints via the
/// allocation slow path. When \p OldGarbageSlots is nonzero each
/// iteration also drops an unreferenced old object, piling up exactly the
/// tenured-garbage pressure the full collector exists to relieve.
void stormWorker(ObjectMemory &OM, Oop Holder, int Ordinal, int Iters,
                 uint32_t OldGarbageSlots) {
  chaos::setThreadOrdinal(static_cast<uint64_t>(Ordinal) + 1);
  OM.registerMutator("storm");
  for (int I = 0; I < Iters; ++I) {
    Handle A(OM.handles(),
             OM.allocatePointers(Holder.object()->classOop(), 3));
    Oop B = OM.allocatePointers(Holder.object()->classOop(), 2);
    OM.storePointer(A.get(), 0, B);
    OM.storePointer(A.get(), 1, Oop::fromSmallInt(I));
    OM.storePointer(Holder, static_cast<uint32_t>(I % 4), A.get());
    if (OldGarbageSlots)
      OM.allocateOldPointers(Holder.object()->classOop(), OldGarbageSlots);
  }
  OM.unregisterMutator();
}

TEST(FullGCChaosTest, MutatorStormDuringRepeatedFullCollections) {
  const int Threads = 3;
  // Not sanitizer-scaled below the scavenge threshold: the storm must
  // out-allocate eden or the collections race nothing.
  const int Iters = stressScale(600, 200);
  const int Collections = stressScale(8, 4);
  for (uint64_t Seed : chaosSeeds()) {
    SCOPED_TRACE(seedTag(Seed));
    MemoryConfig MC;
    MC.EdenBytes = 128 * 1024;
    MC.SurvivorBytes = 64 * 1024;
    MC.OldChunkBytes = 128 * 1024;
    MC.TenureAge = 1; // every survivor tenures: constant old churn
    MC.FullGcEnabled = false; // only the explicit driver collections run
    StormHeap H(MC, Threads);

    ScopedChaos Chaos(Seed);
    std::vector<std::thread> Ts;
    for (int T = 0; T < Threads; ++T)
      Ts.emplace_back([&H, T, Iters] {
        stormWorker(H.OM, H.Roots[static_cast<size_t>(T)], T, Iters,
                    /*OldGarbageSlots=*/8);
      });
    for (int K = 0; K < Collections; ++K)
      H.OM.fullCollect();
    {
      // The joining driver must count as safe at the workers' scavenges.
      BlockedRegion Region(H.OM.safepoint());
      for (auto &T : Ts)
        T.join();
    }

    std::string Error;
    EXPECT_TRUE(H.OM.verifyHeap(&Error)) << Error;
    FullGcStats F = H.OM.fullGcStatsSnapshot();
    EXPECT_EQ(F.Collections, static_cast<uint64_t>(Collections));

    // The collections crossed the intended injection points: each one
    // starts, marks and sweeps unconditionally.
    bool SawStart = false, SawMark = false, SawSweep = false;
    for (auto &[Name, Hits] : chaos::pointCounts()) {
      SawStart |= Name == "fullgc.start";
      SawMark |= Name == "fullgc.mark";
      SawSweep |= Name == "fullgc.sweep";
    }
    EXPECT_TRUE(SawStart);
    EXPECT_TRUE(SawMark);
    EXPECT_TRUE(SawSweep);
  }
}

TEST(FullGCChaosTest, AutoTriggerBoundsOldSpaceUnderChaos) {
  const int Threads = 3;
  const int Iters = stressScale(900, 300);
  for (uint64_t Seed : chaosSeeds()) {
    SCOPED_TRACE(seedTag(Seed));
    MemoryConfig MC;
    // Eden small enough that even the sanitizer-scaled storm scavenges
    // several times — scavenges are where the trigger is consulted.
    MC.EdenBytes = 32 * 1024;
    MC.SurvivorBytes = 16 * 1024;
    MC.OldChunkBytes = 128 * 1024;
    MC.TenureAge = 1;
    MC.FullGcThresholdBytes = 96 * 1024; // arm the trigger early
    StormHeap H(MC, Threads);

    ScopedChaos Chaos(Seed);
    std::vector<std::thread> Ts;
    for (int T = 0; T < Threads; ++T)
      Ts.emplace_back([&H, T, Iters] {
        stormWorker(H.OM, H.Roots[static_cast<size_t>(T)], T, Iters,
                    /*OldGarbageSlots=*/16);
      });
    {
      BlockedRegion Region(H.OM.safepoint());
      for (auto &T : Ts)
        T.join();
    }

    std::string Error;
    EXPECT_TRUE(H.OM.verifyHeap(&Error)) << Error;
    FullGcStats F = H.OM.fullGcStatsSnapshot();
    EXPECT_GE(F.Collections, 1u) << "trigger never fired under chaos";
    EXPECT_GT(F.SweptBytes, 0u);
    // Bounded: the trigger re-arms at live*1.5, so used old space cannot
    // be far past the threshold plus one scavenge's worth of tenuring.
    EXPECT_LT(H.OM.oldSpaceUsed(), MC.FullGcThresholdBytes * 4);
  }
}

} // namespace
