//===-- tests/objmem/MemoryPressureTest.cpp - Recovery-ladder tests -------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The memory-pressure recovery ladder under a heap ceiling: oversized
/// requests divert to old space instead of spinning, exhaustion walks
/// scavenge → full collection → bounded growth, every rung bumps its
/// telemetry counter, the low-space watermark fires edge-triggered, and a
/// whole VM surfaces exhaustion as a catchable OutOfMemoryError in the
/// allocating process while staying responsive.
///
//===----------------------------------------------------------------------===//

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "TestVm.h"
#include "objmem/ObjectMemory.h"
#include "vkernel/Chaos.h"

using namespace mst;

namespace {

uint64_t counterOf(const std::string &Name) {
  for (const auto &[N, V] : Telemetry::snapshot().Counters)
    if (N == Name)
      return V;
  return 0;
}

/// Raw-memory fixture with a caller-chosen configuration; registers the
/// test thread as a mutator and fakes nil + a class with old objects.
struct PressureHeap {
  explicit PressureHeap(const MemoryConfig &C) : OM(C) {
    OM.registerMutator("pressure-test");
    Nil = OM.allocateOldPointers(Oop(), 0);
    OM.setNil(Nil);
    FakeClass = OM.allocateOldPointers(Nil, 0);
  }
  ~PressureHeap() { OM.unregisterMutator(); }

  ObjectMemory OM;
  Oop Nil, FakeClass;
};

/// A small config with a tight ceiling: 64K eden, 32K survivors, 64K old
/// chunks, and 128K of old space under the ceiling.
MemoryConfig tinyCeilingConfig() {
  MemoryConfig C;
  C.EdenBytes = 64u * 1024;
  C.SurvivorBytes = 32u * 1024;
  C.OldChunkBytes = 64u * 1024;
  C.MaxHeapBytes = C.EdenBytes + 2 * C.SurvivorBytes + 128u * 1024;
  C.LowSpaceWatermarkBytes = 0; // Individual tests opt in.
  return C;
}

/// Deltas of the ladder counters across one test's allocations. The
/// registry aggregates by name across all live memories, so read deltas,
/// not absolutes.
struct LadderDeltas {
  uint64_t Scavenge0 = counterOf("mem.pressure.ladder.scavenge");
  uint64_t FullGc0 = counterOf("mem.pressure.ladder.fullgc");
  uint64_t Grow0 = counterOf("mem.pressure.ladder.grow");
  uint64_t Oom0 = counterOf("mem.pressure.ladder.oom");

  uint64_t scavenge() const {
    return counterOf("mem.pressure.ladder.scavenge") - Scavenge0;
  }
  uint64_t fullGc() const {
    return counterOf("mem.pressure.ladder.fullgc") - FullGc0;
  }
  uint64_t grow() const {
    return counterOf("mem.pressure.ladder.grow") - Grow0;
  }
  uint64_t oom() const {
    return counterOf("mem.pressure.ladder.oom") - Oom0;
  }
};

//===----------------------------------------------------------------------===//
// Oversized requests must never enter the scavenge-retry loop
//===----------------------------------------------------------------------===//

TEST(MemoryPressureTest, BiggerThanEdenAllocationDivertsToOldSpace) {
  // Regression: a request larger than eden used to spin forever in the
  // scavenge-retry loop — no number of scavenges can make it fit.
  MemoryConfig C;
  C.EdenBytes = 64u * 1024;
  C.SurvivorBytes = 32u * 1024;
  PressureHeap H(C);
  LadderDeltas D;
  Oop Big = H.OM.allocateBytes(H.FakeClass, 128u * 1024);
  ASSERT_FALSE(Big.isNull());
  EXPECT_TRUE(Big.object()->isOld());
  EXPECT_EQ(Big.object()->ByteLength, 128u * 1024);
  // The divert happened without a single pressure scavenge and without
  // counting the grow rung (nothing failed — the size alone diverted it).
  EXPECT_EQ(H.OM.statsSnapshot().Scavenges, 0u);
  EXPECT_EQ(D.scavenge(), 0u);
  EXPECT_EQ(D.grow(), 0u);
}

TEST(MemoryPressureTest, TlabRefillLargerThanEdenFallsBackToDirectBump) {
  // Regression: a TLAB refill size beyond eden's capacity used to make
  // every small allocation scavenge fruitlessly forever.
  MemoryConfig C;
  C.EdenBytes = 64u * 1024;
  C.SurvivorBytes = 32u * 1024;
  C.Allocator = AllocatorKind::Tlab;
  C.TlabBytes = 256u * 1024; // 4x eden: every refill must fail.
  PressureHeap H(C);
  Oop O = H.OM.allocatePointers(H.FakeClass, 4);
  ASSERT_FALSE(O.isNull());
  EXPECT_FALSE(O.object()->isOld());
  EXPECT_EQ(H.OM.statsSnapshot().Scavenges, 0u);
}

//===----------------------------------------------------------------------===//
// The ceiling and the ladder's rungs
//===----------------------------------------------------------------------===//

TEST(MemoryPressureTest, CeilingBoundsOldSpaceAndEndsInNullOop) {
  PressureHeap H(tinyCeilingConfig());
  LadderDeltas D;
  // Retain every allocation so neither the full-GC rung nor the growth
  // rung can ever recover; the ladder must bottom out at a null oop.
  std::vector<std::unique_ptr<Handle>> Live;
  bool SawNull = false;
  for (int I = 0; I < 20 && !SawNull; ++I) {
    Oop O = H.OM.allocateBytes(H.FakeClass, 32u * 1024);
    if (O.isNull())
      SawNull = true;
    else
      Live.push_back(std::make_unique<Handle>(H.OM.handles(), O));
  }
  EXPECT_TRUE(SawNull);
  EXPECT_GE(Live.size(), 2u); // The ceiling fits a few before refusing.
  // Old space never grew past its share of the ceiling.
  EXPECT_LE(H.OM.oldSpaceCapacity(), 128u * 1024);
  // The refusal ran the full-collection rung first and only then reported
  // out-of-memory.
  EXPECT_GE(D.fullGc(), 1u);
  EXPECT_GE(D.oom(), 1u);
  // The heap survives the refusal intact.
  std::string Err;
  EXPECT_TRUE(H.OM.verifyHeap(&Err)) << Err;
  while (!Live.empty())
    Live.pop_back(); // Handles are LIFO.
}

TEST(MemoryPressureTest, FullGcRungReclaimsDeadTenuredGarbage) {
  PressureHeap H(tinyCeilingConfig());
  LadderDeltas D;
  // Drop every allocation: each time old space fills, the full-collection
  // rung sweeps the dead tenured garbage and the allocation succeeds.
  for (int I = 0; I < 20; ++I) {
    Oop O = H.OM.allocateBytes(H.FakeClass, 32u * 1024);
    ASSERT_FALSE(O.isNull()) << "allocation " << I
                             << " failed although all prior garbage is dead";
  }
  EXPECT_GE(D.fullGc(), 1u);
  EXPECT_EQ(D.oom(), 0u);
  EXPECT_GE(H.OM.fullGcStatsSnapshot().Collections, 1u);
  std::string Err;
  EXPECT_TRUE(H.OM.verifyHeap(&Err)) << Err;
}

TEST(MemoryPressureTest, PressureScavengeRungRecyclesEden) {
  MemoryConfig C;
  C.EdenBytes = 64u * 1024;
  C.SurvivorBytes = 32u * 1024;
  PressureHeap H(C);
  LadderDeltas D;
  // Allocate several edens' worth of immediately dead objects: rung 1
  // scavenges recycle eden and every request stays young.
  for (int I = 0; I < 300; ++I) {
    Oop O = H.OM.allocateBytes(H.FakeClass, 1024);
    ASSERT_FALSE(O.isNull());
  }
  EXPECT_GE(H.OM.statsSnapshot().Scavenges, 2u);
  EXPECT_GE(D.scavenge(), 2u);
  EXPECT_EQ(D.oom(), 0u);
}

TEST(MemoryPressureTest, InjectedAllocFaultsWalkScavengeThenGrowRungs) {
  // With every eden attempt failing by injection, one allocation must walk
  // exactly three pressure scavenges, then divert into old space.
  MemoryConfig C;
  C.EdenBytes = 64u * 1024;
  C.SurvivorBytes = 32u * 1024;
  PressureHeap H(C);
  LadderDeltas D;
  chaos::armFail("alloc.fail", 1000, /*Seed=*/1);
  Oop O = H.OM.allocatePointers(H.FakeClass, 4);
  chaos::disarmFail();
  ASSERT_FALSE(O.isNull());
  EXPECT_TRUE(O.object()->isOld()); // Diverted, not eden-allocated.
  EXPECT_EQ(D.scavenge(), 3u);
  EXPECT_EQ(D.grow(), 1u);
  EXPECT_EQ(D.oom(), 0u);
  EXPECT_GT(chaos::failCount("alloc.fail"), 0u);
}

TEST(MemoryPressureTest, CeilingOvershootIsBoundedAndDrainsAfterRelease) {
  // Retained *small* objects reach the ceiling through tenuring, which
  // can refuse mid-evacuation — the scavenger then overshoots the
  // ceiling rather than wedge. The overshoot must stay bounded by the
  // young generation, the ladder must still end in an orderly null oop,
  // and releasing the data must let the rescue full collection drain the
  // overshoot so allocation works again.
  MemoryConfig C = tinyCeilingConfig();
  PressureHeap H(C);
  LadderDeltas D;
  std::vector<std::unique_ptr<Handle>> Live;
  bool SawNull = false;
  for (int I = 0; I < 100000 && !SawNull; ++I) {
    Oop O = H.OM.allocatePointers(H.FakeClass, 32);
    if (O.isNull())
      SawNull = true;
    else
      Live.push_back(std::make_unique<Handle>(H.OM.handles(), O));
  }
  EXPECT_TRUE(SawNull);
  EXPECT_GE(D.oom(), 1u);
  // Bounded overshoot: old space's 128K share, at most one young
  // generation evacuated past it, plus chunk-granularity slack — far
  // from unbounded growth.
  EXPECT_LE(H.OM.oldSpaceCapacity(),
            128u * 1024 + C.EdenBytes + 2 * C.SurvivorBytes +
                2 * C.OldChunkBytes);
  std::string Err;
  EXPECT_TRUE(H.OM.verifyHeap(&Err)) << Err;

  // Release everything: the rescue rung's full collection reclaims the
  // dead data (draining any overshoot) and the same heap serves a large
  // allocation again.
  while (!Live.empty())
    Live.pop_back(); // Handles are LIFO.
  Oop After = H.OM.allocateBytes(H.FakeClass, 32u * 1024);
  EXPECT_FALSE(After.isNull());
  EXPECT_LE(H.OM.oldSpaceUsed(), 128u * 1024);
  EXPECT_TRUE(H.OM.verifyHeap(&Err)) << Err;
}

//===----------------------------------------------------------------------===//
// Low-space watermark
//===----------------------------------------------------------------------===//

TEST(MemoryPressureTest, LowSpaceCallbackFiresOncePerCrossing) {
  MemoryConfig C;
  C.EdenBytes = 64u * 1024;
  C.SurvivorBytes = 32u * 1024;
  C.OldChunkBytes = 64u * 1024;
  C.MaxHeapBytes = C.EdenBytes + 2 * C.SurvivorBytes + 256u * 1024;
  C.LowSpaceWatermarkBytes = 128u * 1024;
  PressureHeap H(C);
  int Fired = 0;
  H.OM.setLowSpaceCallback([&Fired] { ++Fired; });

  // Sink 6 x 24K of live old data (two per 64K chunk): headroom falls
  // below the 128K watermark. The check runs at scavenge end, not at
  // allocation.
  std::vector<std::unique_ptr<Handle>> Live;
  auto SinkLiveData = [&] {
    for (int I = 0; I < 6; ++I) {
      Oop O = H.OM.allocateBytes(H.FakeClass, 24u * 1024);
      ASSERT_FALSE(O.isNull());
      Live.push_back(std::make_unique<Handle>(H.OM.handles(), O));
    }
  };
  SinkLiveData();
  ASSERT_LT(H.OM.headroomBytes(), C.LowSpaceWatermarkBytes);
  EXPECT_EQ(Fired, 0); // Not yet: no scavenge has run.
  H.OM.scavengeNow();
  EXPECT_EQ(Fired, 1);
  // Still below the watermark: edge-triggered, so no repeat.
  H.OM.scavengeNow();
  EXPECT_EQ(Fired, 1);

  // Recovery re-arms the trigger...
  while (!Live.empty())
    Live.pop_back();
  H.OM.fullCollect();
  H.OM.scavengeNow(); // Sees the recovered headroom; re-arms.
  ASSERT_GE(H.OM.headroomBytes(), C.LowSpaceWatermarkBytes);
  EXPECT_EQ(Fired, 1);

  // ...so the next crossing fires again.
  SinkLiveData();
  H.OM.scavengeNow();
  EXPECT_EQ(Fired, 2);
  while (!Live.empty())
    Live.pop_back();
}

//===----------------------------------------------------------------------===//
// The whole VM: exhaustion is an error in one process, not a VM death
//===----------------------------------------------------------------------===//

TEST(MemoryPressureTest, RunawayAllocationSignalsLowSpaceThenRaisesOom) {
  // The acceptance scenario: under a tight MaxHeapBytes a runaway
  // allocator must observe, in order, (1) the low-space semaphore signal,
  // (2) a catchable OutOfMemoryError terminating only the allocating
  // process, and (3) a VM that still answers afterwards.
  VmConfig Config = VmConfig::multiprocessor(1);
  Config.Memory.EdenBytes = 1u << 20;
  Config.Memory.SurvivorBytes = 256u * 1024;
  Config.Memory.MaxHeapBytes = 48u << 20;
  Config.Memory.LowSpaceWatermarkBytes = 16u << 20;
  TestVm T(Config);

  // Register the low-space semaphore (primitive 65), then allocate
  // without bound: each lap retains a 512K array (oversized — lands in
  // old space) and churns eden with short-lived arrays so scavenges run
  // and the watermark is checked as headroom declines.
  Oop R = T.vm().compileAndRun("| sem all |\n"
                               "sem := Semaphore new.\n"
                               "Smalltalk at: #LowSem put: sem.\n"
                               "nil lowSpaceSemaphore: sem.\n"
                               "all := OrderedCollection new.\n"
                               "[true] whileTrue: [\n"
                               "  all add: (Array new: 65536).\n"
                               "  1 to: 50 do: [:i | Array new: 256]]");
  EXPECT_TRUE(R.isNull()) << "runaway allocation terminated without error";
  std::string AllErrors;
  for (const std::string &E : T.vm().errors())
    AllErrors += E + "\n";
  EXPECT_NE(AllErrors.find("OutOfMemoryError"), std::string::npos)
      << "errors were:\n"
      << AllErrors;

  // (1) happened before (2): the semaphore collected its excess signal
  // while the runaway process was still allocating.
  EXPECT_GE(T.evalInt("^(Smalltalk at: #LowSem) excessSignals"), 1);

  // (3) the VM remains responsive — the dead process released its
  // retained garbage, so ordinary evaluation proceeds.
  EXPECT_EQ(T.evalInt("^3 + 4"), 7);
  EXPECT_EQ(T.evalInt("| s | s := 0. 1 to: 100 do: [:i | s := s + i]. ^s"),
            5050);
}

TEST(MemoryPressureTest, StringHelpersAnswerNullOnAFullHeap) {
  // Fill the heap with live objects: a runaway that keeps every Array it
  // makes in a global dies with OutOfMemoryError, and the global keeps
  // old space at the ceiling. A string or byte array too big for eden is
  // then refused, and both helpers must answer the null oop rather than
  // copy into it.
  VmConfig Config = VmConfig::multiprocessor(1);
  Config.Memory.EdenBytes = 1u << 20;
  Config.Memory.SurvivorBytes = 256u * 1024;
  Config.Memory.MaxHeapBytes = 24u << 20;
  TestVm T(Config);
  Oop R = T.vm().compileAndRun("| all |\n"
                               "all := OrderedCollection new.\n"
                               "Smalltalk at: #Hog put: all.\n"
                               "[true] whileTrue: [all add: (Array new: "
                               "65536)]");
  ASSERT_TRUE(R.isNull()) << "the runaway ended without error";

  // Twice the runaway's 512K Arrays, and past eden/4, so old space must
  // take it.
  const size_t Big = 1u << 20;
  EXPECT_TRUE(T.om().makeString(std::string(Big, 'x')).isNull());
  EXPECT_TRUE(T.om().makeByteArray(std::vector<uint8_t>(Big)).isNull());

  // Dropping the hog makes room again.
  T.eval("Smalltalk at: #Hog put: nil");
  EXPECT_FALSE(T.om().makeString(std::string(Big, 'x')).isNull());
}

} // namespace
