//===-- tests/objmem/FullGCTest.cpp - Mark-sweep full collection ----------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <thread>

#include <gtest/gtest.h>

#include "TestVm.h"
#include "objmem/ObjectMemory.h"
#include "obs/Telemetry.h"
#include "support/Timer.h"

using namespace mst;

namespace {

/// Raw object-memory fixture with registered external root cells.
class FullGCTest : public ::testing::Test {
protected:
  FullGCTest() : OM(config()) {
    OM.registerMutator("test");
    Nil = OM.allocateOldPointers(Oop(), 0);
    OM.setNil(Nil);
    FakeClass = OM.allocateOldPointers(Nil, 0);
    OM.addRootWalker([this](const ObjectMemory::OopVisitor &V) {
      for (Oop &R : Roots)
        V(&R);
    });
  }
  ~FullGCTest() override { OM.unregisterMutator(); }

  static MemoryConfig config() {
    MemoryConfig C;
    C.EdenBytes = 256 * 1024;
    C.SurvivorBytes = 128 * 1024;
    C.OldChunkBytes = 256 * 1024;
    return C;
  }

  Oop oldObj(uint32_t Slots) {
    return OM.allocateOldPointers(FakeClass, Slots);
  }

  ObjectMemory OM;
  Oop Nil, FakeClass;
  std::vector<Oop> Roots = std::vector<Oop>(8);
};

TEST_F(FullGCTest, CollectsUnreachableOldCycles) {
  // An unreachable cycle in old space defeats any refcount-style scheme
  // and the scavenger never looks at old space at all: only the full
  // collector can reclaim it.
  Oop A = oldObj(2);
  Oop B = oldObj(2);
  OM.storePointer(A, 0, B);
  OM.storePointer(B, 0, A);
  size_t UsedBefore = OM.oldSpaceUsed();

  OM.fullCollect();

  EXPECT_LT(OM.oldSpaceUsed(), UsedBefore) << "cycle should be reclaimed";
  EXPECT_GT(OM.oldSpaceFree(), 0u) << "swept bytes should hit free lists";
  FullGcStats F = OM.fullGcStatsSnapshot();
  EXPECT_EQ(F.Collections, 1u);
  EXPECT_GE(F.SweptBytes, 2 * (sizeof(ObjectHeader) + 2 * sizeof(Oop)));
  std::string Error;
  EXPECT_TRUE(OM.verifyHeap(&Error)) << Error;
}

TEST_F(FullGCTest, PreservesReachableAndRebuildsRemset) {
  // A live old holder of a young object must stay in the rebuilt entry
  // table; a dead remembered old object must be dropped from it.
  Oop Holder = oldObj(1);
  Oop Young = OM.allocatePointers(FakeClass, 1);
  Young.object()->slots()[0] = Oop::fromSmallInt(7);
  OM.storePointer(Holder, 0, Young);
  Roots[0] = Holder;

  Oop DeadHolder = oldObj(1);
  OM.storePointer(DeadHolder, 0, OM.allocatePointers(FakeClass, 1));
  ASSERT_TRUE(DeadHolder.object()->isRemembered());
  DeadHolder = Oop(); // now unreachable, but still in the entry table

  OM.fullCollect();

  EXPECT_TRUE(Roots[0].object()->isRemembered());
  EXPECT_EQ(OM.rememberedSet().size(), 1u)
      << "only the live holder may survive the rebuild";
  Oop Kept = ObjectMemory::fetchPointer(Roots[0], 0);
  ASSERT_TRUE(Kept.isPointer());
  EXPECT_FALSE(Kept.object()->isOld());
  EXPECT_EQ(Kept.object()->slots()[0].smallInt(), 7);
  std::string Error;
  EXPECT_TRUE(OM.verifyHeap(&Error)) << Error;
}

TEST_F(FullGCTest, FreeListsSatisfyAllocations) {
  // Pin live objects on both sides of a dead one so its block cannot
  // coalesce; the next same-size allocation must reuse it exactly.
  Oop A = oldObj(16);
  Oop B = oldObj(16);
  Oop C = oldObj(16);
  Roots[0] = A;
  Roots[1] = C;
  ObjectHeader *Freed = B.object();
  B = Oop();
  size_t CapBefore = OM.oldSpaceCapacity();

  OM.fullCollect();
  EXPECT_GE(OM.oldSpaceFree(), sizeof(ObjectHeader) + 16 * sizeof(Oop));

  Oop D = oldObj(16);
  EXPECT_EQ(D.object(), Freed) << "allocation should reuse the swept block";
  EXPECT_EQ(OM.oldSpaceCapacity(), CapBefore) << "no new chunk needed";
  std::string Error;
  EXPECT_TRUE(OM.verifyHeap(&Error)) << Error;
}

TEST_F(FullGCTest, UsedAccountingFallsAndRises) {
  size_t Baseline = OM.oldSpaceUsed();
  std::vector<ObjectHeader *> Garbage;
  for (int I = 0; I < 64; ++I)
    Garbage.push_back(oldObj(8).object());
  size_t Peak = OM.oldSpaceUsed();
  ASSERT_GT(Peak, Baseline);

  OM.fullCollect();
  EXPECT_LE(OM.oldSpaceUsed(), Baseline)
      << "used() must fall when garbage is swept";

  // Reuse raises it again without growing capacity.
  size_t Cap = OM.oldSpaceCapacity();
  for (int I = 0; I < 64; ++I)
    Roots[0] = oldObj(8); // all garbage except the last, which is rooted
  EXPECT_GT(OM.oldSpaceUsed(), Baseline);
  EXPECT_EQ(OM.oldSpaceCapacity(), Cap);
}

TEST_F(FullGCTest, VerifierCatchesCorruptFreeList) {
  Oop A = oldObj(16);
  Oop B = oldObj(16);
  Roots[0] = A;
  ObjectHeader *Dead = B.object();
  B = Oop();
  OM.fullCollect();
  ASSERT_GT(OM.oldSpaceFree(), 0u);
  std::string Error;
  ASSERT_TRUE(OM.verifyHeap(&Error)) << Error;

  // A stray store into swept memory must be caught by the zap check.
  reinterpret_cast<uint64_t *>(Dead + 1)[0] = 0x1234;
  EXPECT_FALSE(OM.verifyHeap(&Error));
  EXPECT_NE(Error.find("zap"), std::string::npos) << Error;
}

TEST_F(FullGCTest, TriggerHeuristicBoundsOldSpace) {
  // A workload that tenures cyclic garbage forever: with the trigger
  // armed, old space stays bounded; with full GC off, it only grows.
  // This is the issue's acceptance scenario.
  auto RunWorkload = [](bool FullGcOn) {
    size_t PeakOld = 0;
    std::thread([&PeakOld, FullGcOn] {
      MemoryConfig C;
      C.EdenBytes = 64 * 1024;
      C.SurvivorBytes = 64 * 1024;
      C.OldChunkBytes = 128 * 1024;
      C.TenureAge = 1; // every surviving object tenures immediately
      C.FullGcEnabled = FullGcOn;
      C.FullGcThresholdBytes = 512 * 1024;
      ObjectMemory OM(C);
      OM.registerMutator("tenure-pressure");
      Oop Nil = OM.allocateOldPointers(Oop(), 0);
      OM.setNil(Nil);
      Oop Cls = OM.allocateOldPointers(Nil, 0);
      std::vector<Oop> Window(256, Oop());
      OM.addRootWalker([&Window](const ObjectMemory::OopVisitor &V) {
        for (Oop &R : Window)
          V(&R);
      });
      for (int Round = 0; Round < 40; ++Round) {
        // Each pair is a cycle, rooted through the round's window. The
        // scavenge tenures the whole window (TenureAge=1); the eviction
        // then strands the cycles in old space, where only the full
        // collector can reclaim them.
        for (size_t I = 0; I < Window.size(); ++I) {
          Oop A = OM.allocatePointers(Cls, 8);
          Handle HA(OM.handles(), A);
          Oop B = OM.allocatePointers(Cls, 8);
          OM.storePointer(HA.get(), 0, B);
          OM.storePointer(B, 0, HA.get());
          Window[I] = HA.get();
        }
        OM.scavengeNow();
        for (Oop &W : Window)
          W = Oop();
        if (OM.oldSpaceUsed() > PeakOld)
          PeakOld = OM.oldSpaceUsed();
      }
      std::string Error;
      EXPECT_TRUE(OM.verifyHeap(&Error)) << Error;
      if (FullGcOn) {
        FullGcStats F = OM.fullGcStatsSnapshot();
        EXPECT_GE(F.Collections, 1u) << "trigger never fired";
        EXPECT_GT(F.SweptBytes, 0u);
      }
      OM.unregisterMutator();
    }).join();
    return PeakOld;
  };

  size_t BoundedPeak = RunWorkload(true);
  size_t UnboundedPeak = RunWorkload(false);
  // With the collector the peak hovers near the trigger; without it, the
  // tenured garbage accumulates far past it.
  EXPECT_LT(BoundedPeak, UnboundedPeak / 2)
      << "full GC failed to bound old-space growth (bounded peak "
      << BoundedPeak << ", unbounded " << UnboundedPeak << ")";
}

TEST_F(FullGCTest, TriggerFiresForLargeObjectsAllocatedOld) {
  // Objects over a quarter of eden are allocated straight into old space
  // and never pass through a scavenge, where the trigger is otherwise
  // checked. Unreferenced, they must still be collected once old space
  // passes the threshold, not pile up until old space refuses one.
  const size_t Threshold = 512 * 1024;
  std::thread([Threshold] {
    MemoryConfig C;
    C.EdenBytes = 64 * 1024;
    C.SurvivorBytes = 64 * 1024;
    C.OldChunkBytes = 128 * 1024;
    C.FullGcThresholdBytes = Threshold;
    ObjectMemory OM(C);
    OM.registerMutator("large-objects");
    Oop Nil = OM.allocateOldPointers(Oop(), 0);
    OM.setNil(Nil);
    Oop Cls = OM.allocateOldPointers(Nil, 0);
    size_t PeakOld = 0;
    for (int I = 0; I < 600; ++I) {
      if (OM.allocateBytes(Cls, 20 * 1024).isNull()) {
        ADD_FAILURE() << "allocation " << I << " refused";
        break;
      }
      PeakOld = std::max(PeakOld, OM.oldSpaceUsed());
    }
    EXPECT_EQ(OM.statsSnapshot().Scavenges,
              OM.fullGcStatsSnapshot().Collections)
        << "only the full collections' own scavenges may run";
    EXPECT_GE(OM.fullGcStatsSnapshot().Collections, 1u)
        << "trigger never fired";
    EXPECT_LT(PeakOld, 2 * Threshold)
        << "old space grew to " << PeakOld << " bytes";
    std::string Error;
    EXPECT_TRUE(OM.verifyHeap(&Error)) << Error;
    OM.unregisterMutator();
  }).join();
}

TEST_F(FullGCTest, SmallAllocationsSplitLargeFreeRunsCheaply) {
  // A collection that frees tens of MB coalesces them into chunk-sized
  // free runs, and every small old allocation afterwards splits one. The
  // split must write only the remainder's header: re-zapping the
  // remainder's body would rewrite up to a whole 8 MB run per
  // allocation, under the old-space lock.
  std::thread([] {
    ObjectMemory OM{MemoryConfig()}; // default 8 MB old-space chunks
    OM.registerMutator("split-cost");
    Oop Nil = OM.allocateOldPointers(Oop(), 0);
    OM.setNil(Nil);
    Oop Cls = OM.allocateOldPointers(Nil, 0);
    const size_t ObjBytes = sizeof(ObjectHeader) + 8 * sizeof(Oop);
    for (size_t Made = 0; Made < (32u << 20); Made += ObjBytes)
      (void)OM.allocateOldPointers(Cls, 8); // unreachable at once
    OM.fullCollect();
    EXPECT_GE(OM.oldSpaceFree(), 30u << 20) << "garbage was not swept";

    Stopwatch Watch;
    for (int I = 0; I < 10000; ++I)
      (void)OM.allocateOldPointers(Cls, 8);
    double Sec = Watch.seconds();
    EXPECT_LT(Sec, 1.0) << "10k small old allocations after a 32 MB "
                           "collection took "
                        << Sec << " s";
    std::string Error;
    EXPECT_TRUE(OM.verifyHeap(&Error)) << Error;
    OM.unregisterMutator();
  }).join();
}

TEST_F(FullGCTest, TenuredBytesCounterTracksOldPressure) {
  uint64_t Before = 0, After = 0;
  for (const auto &[Name, V] : Telemetry::snapshot().Counters)
    if (Name == "gc.bytes.tenured")
      Before = V;
  // Tenure a rooted object (age reaches the threshold after two
  // scavenges with the default TenureAge=2).
  Roots[0] = OM.allocatePointers(FakeClass, 4);
  OM.scavengeNow();
  OM.scavengeNow();
  ASSERT_TRUE(Roots[0].object()->isOld());
  for (const auto &[Name, V] : Telemetry::snapshot().Counters)
    if (Name == "gc.bytes.tenured")
      After = V;
  EXPECT_GE(After - Before, sizeof(ObjectHeader) + 4 * sizeof(Oop));
}

TEST(FullGCPrimitive, FullCollectRunsAndReports) {
  TestVm T;
  EXPECT_EQ(T.evalInt("nil fullCollect. ^1"), 1);
  FullGcStats F;
  {
    // The primitive must have run a real collection.
    F = T.vm().memory().fullGcStatsSnapshot();
  }
  EXPECT_GE(F.Collections, 1u);
  std::string Report = T.vm().telemetryReport();
  EXPECT_NE(Report.find("gc.full.pause"), std::string::npos) << Report;
  EXPECT_NE(Report.find("gc.full.collections"), std::string::npos)
      << Report;
  std::string Stats = T.vm().statisticsReport();
  EXPECT_NE(Stats.find("full collections: 1"), std::string::npos) << Stats;
}

} // namespace
