//===-- tests/objmem/ScavengerTest.cpp - Generation Scavenging ------------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include <thread>

#include <gtest/gtest.h>

#include "objmem/ObjectMemory.h"
#include "support/SplitMix64.h"
#include "vkernel/Chaos.h"

using namespace mst;

namespace {

/// Raw object-memory fixture with one registered external root cell.
class ScavengerTest : public ::testing::Test {
protected:
  ScavengerTest() : OM(config()) {
    OM.registerMutator("test");
    Nil = OM.allocateOldPointers(Oop(), 0);
    OM.setNil(Nil);
    FakeClass = OM.allocateOldPointers(Nil, 0);
    OM.addRootWalker([this](const ObjectMemory::OopVisitor &V) {
      for (Oop &R : Roots)
        V(&R);
    });
  }
  ~ScavengerTest() override { OM.unregisterMutator(); }

  static MemoryConfig config() {
    MemoryConfig C;
    C.EdenBytes = 256 * 1024;
    C.SurvivorBytes = 128 * 1024;
    return C;
  }

  Oop newObj(uint32_t Slots) { return OM.allocatePointers(FakeClass, Slots); }

  ObjectMemory OM;
  Oop Nil, FakeClass;
  std::vector<Oop> Roots = std::vector<Oop>(8);
};

TEST_F(ScavengerTest, RootedObjectSurvivesAndMoves) {
  Oop O = newObj(3);
  O.object()->slots()[0] = Oop::fromSmallInt(99);
  ObjectHeader *Before = O.object();
  Roots[0] = O;
  OM.scavengeNow();
  EXPECT_NE(Roots[0].object(), Before) << "survivor must have moved";
  EXPECT_EQ(Roots[0].object()->slots()[0].smallInt(), 99);
  EXPECT_FALSE(Roots[0].object()->isOld());
  EXPECT_EQ(Roots[0].object()->Age, 1);
}

TEST_F(ScavengerTest, UnrootedObjectIsCollected) {
  newObj(64);
  size_t Used = OM.edenUsed();
  EXPECT_GT(Used, 0u);
  OM.scavengeNow();
  ScavengeStats S = OM.statsSnapshot();
  EXPECT_EQ(S.Scavenges, 1u);
  EXPECT_EQ(S.ObjectsCopied + S.ObjectsTenured, 0u);
  EXPECT_EQ(OM.edenUsed(), 0u);
}

TEST_F(ScavengerTest, GraphsSurviveWithIdentityPreserved) {
  // A <-> B shared structure: identity (sharing) must survive the copy.
  Oop A = newObj(2);
  Roots[0] = A;
  Oop B = newObj(2);
  OM.storePointer(Roots[0], 0, B);
  OM.storePointer(Roots[0], 1, B);
  OM.scavengeNow();
  ObjectHeader *NewA = Roots[0].object();
  EXPECT_EQ(NewA->slots()[0], NewA->slots()[1]) << "sharing broken";
  EXPECT_NE(NewA->slots()[0], B) << "stale pointer survived";
}

TEST_F(ScavengerTest, CyclesSurvive) {
  Oop A = newObj(1);
  Roots[0] = A;
  Oop B = newObj(1);
  OM.storePointer(Roots[0], 0, B);
  OM.storePointer(B, 0, Roots[0]);
  OM.scavengeNow();
  ObjectHeader *NewA = Roots[0].object();
  Oop NewB = NewA->slots()[0];
  EXPECT_EQ(NewB.object()->slots()[0].object(), NewA);
}

TEST_F(ScavengerTest, TenuringAfterThresholdScavenges) {
  Oop O = newObj(2);
  Roots[0] = O;
  EXPECT_FALSE(Roots[0].object()->isOld());
  OM.scavengeNow(); // age 1
  EXPECT_FALSE(Roots[0].object()->isOld());
  OM.scavengeNow(); // age 2 = TenureAge -> old space
  EXPECT_TRUE(Roots[0].object()->isOld());
  ObjectHeader *Tenured = Roots[0].object();
  OM.scavengeNow(); // old objects do not move again
  EXPECT_EQ(Roots[0].object(), Tenured);
}

TEST_F(ScavengerTest, RememberedSetKeepsYoungAliveFromOld) {
  Oop Old = OM.allocateOldPointers(FakeClass, 1);
  Oop Young = newObj(1);
  Young.object()->slots()[0] = Oop::fromSmallInt(7);
  OM.storePointer(Old, 0, Young);
  // No root references Young except through Old.
  OM.scavengeNow();
  Oop Moved = ObjectMemory::fetchPointer(Old, 0);
  EXPECT_TRUE(Moved.isPointer());
  EXPECT_EQ(Moved.object()->slots()[0].smallInt(), 7);
}

TEST_F(ScavengerTest, RememberedFlagClearsWhenNoYoungRefsRemain) {
  Oop Old = OM.allocateOldPointers(FakeClass, 1);
  Oop Young = newObj(1);
  OM.storePointer(Old, 0, Young);
  EXPECT_TRUE(Old.object()->isRemembered());
  // Overwrite with a SmallInteger: after the next scavenge the old object
  // no longer refers to the young generation.
  OM.storePointer(Old, 0, Oop::fromSmallInt(1));
  OM.scavengeNow();
  EXPECT_FALSE(Old.object()->isRemembered());
  EXPECT_EQ(OM.rememberedSet().size(), 0u);
}

TEST_F(ScavengerTest, TenuredObjectWithYoungRefsEntersRememberedSet) {
  // Age an object holding a young ref until it tenures; the promoted
  // object must land in the entry table so its young ref stays traced.
  Oop Holder = newObj(1);
  Roots[0] = Holder;
  OM.scavengeNow();
  OM.scavengeNow(); // Holder tenures
  ASSERT_TRUE(Roots[0].object()->isOld());
  Oop Young = newObj(1);
  Young.object()->slots()[0] = Oop::fromSmallInt(5);
  OM.storePointer(Roots[0], 0, Young);
  OM.scavengeNow();
  Oop Kept = ObjectMemory::fetchPointer(Roots[0], 0);
  EXPECT_EQ(Kept.object()->slots()[0].smallInt(), 5);
  EXPECT_TRUE(Roots[0].object()->isRemembered());
}

TEST_F(ScavengerTest, ContextsScanOnlyToStackPointer) {
  // Slots beyond the context's sp hold stale junk and must not be
  // treated as live references.
  Oop Ctx = OM.allocateContextObject(FakeClass, 10);
  Roots[0] = Ctx;
  Oop Live = newObj(1);
  Live.object()->slots()[0] = Oop::fromSmallInt(11);
  Oop Dead = newObj(1);
  ObjectHeader *H = Ctx.object();
  H->slots()[ContextSpSlotIndex] = Oop::fromSmallInt(4);
  H->slots()[3] = Live;  // within sp=4: live
  H->slots()[4] = Live;
  H->slots()[7] = Dead;  // beyond sp: dead junk
  OM.scavengeNow();
  ObjectHeader *N = Roots[0].object();
  EXPECT_EQ(N->slots()[3].object()->slots()[0].smallInt(), 11);
  ScavengeStats S = OM.statsSnapshot();
  // Exactly two live objects: the context and Live (shared slot).
  EXPECT_EQ(S.ObjectsCopied + S.ObjectsTenured, 2u);
}

TEST_F(ScavengerTest, ByteObjectsAreNotScanned) {
  Oop Bytes = OM.allocateBytes(FakeClass, 64);
  // Fill with bit patterns that would look like pointers.
  for (int I = 0; I < 64; ++I)
    Bytes.object()->bytes()[I] = 0xAB;
  Roots[0] = Bytes;
  OM.scavengeNow();
  for (int I = 0; I < 64; ++I)
    EXPECT_EQ(Roots[0].object()->bytes()[I], 0xAB);
}

TEST_F(ScavengerTest, HandlesAreUpdated) {
  Oop O = newObj(1);
  O.object()->slots()[0] = Oop::fromSmallInt(13);
  Handle H(OM.handles(), O);
  OM.scavengeNow();
  EXPECT_NE(H.get(), O) << "handle should hold the relocated oop";
  EXPECT_EQ(H.get().object()->slots()[0].smallInt(), 13);
}

TEST_F(ScavengerTest, PreScavengeHooksRun) {
  int Calls = 0;
  OM.addPreScavengeHook([&Calls] { ++Calls; });
  OM.scavengeNow();
  OM.scavengeNow();
  EXPECT_EQ(Calls, 2);
}

TEST_F(ScavengerTest, SurvivorOverflowTenuresEarly) {
  // More live data than a survivor space holds: overflow must tenure, not
  // crash or drop objects. Runs on its own thread: mutator registration
  // is per-thread and the fixture already registered this one.
  std::thread([] {
  MemoryConfig C;
  C.EdenBytes = 512 * 1024;
  C.SurvivorBytes = 8 * 1024;
  ObjectMemory Small(C);
  Small.registerMutator("overflow");
  Oop N2 = Small.allocateOldPointers(Oop(), 0);
  Small.setNil(N2);
  Oop Cls = Small.allocateOldPointers(N2, 0);
  std::vector<Oop> Keep(1, Oop());
  Small.addRootWalker([&Keep](const ObjectMemory::OopVisitor &V) {
    for (Oop &R : Keep)
      V(&R);
  });
  // A linked list of ~64KB live data.
  Oop HeadObj = Small.allocatePointers(Cls, 16);
  Keep[0] = HeadObj;
  for (int I = 0; I < 500; ++I) {
    Oop Next = Small.allocatePointers(Cls, 16);
    Small.storePointer(Next, 0, Keep[0]);
    Keep[0] = Next;
  }
  Small.scavengeNow();
  ScavengeStats S = Small.statsSnapshot();
  EXPECT_GT(S.ObjectsTenured, 0u) << "overflow should tenure early";
  // The whole chain is intact: 501 links ending at nil.
  int Count = 0;
  for (Oop Cur = Keep[0]; Cur.isPointer() && Cur != N2 && Count < 1000;
       Cur = ObjectMemory::fetchPointer(Cur, 0))
    ++Count;
  EXPECT_EQ(Count, 501);
  Small.unregisterMutator();
  }).join();
}

TEST_F(ScavengerTest, RandomGraphSurvivesIntact) {
  // A graph of random edges: the scavenge must preserve exactly its
  // reachable part. Runs on its own thread, like SurvivorOverflow above.
  std::thread([] {
  MemoryConfig C;
  C.EdenBytes = 1024 * 1024;
  C.SurvivorBytes = 1024 * 1024;
  ObjectMemory OM(C);
  OM.registerMutator("graph");
  Oop Nil = OM.allocateOldPointers(Oop(), 0);
  OM.setNil(Nil);
  Oop Cls = OM.allocateOldPointers(Nil, 0);
  std::vector<Oop> Roots(4, Oop());
  OM.addRootWalker([&Roots](const ObjectMemory::OopVisitor &V) {
    for (Oop &R : Roots)
      V(&R);
  });

  // Build a random graph of 2000 nodes, each tagged with its index.
  SplitMix64 Rng(99);
  std::vector<Oop> Nodes;
  for (int I = 0; I < 2000; ++I) {
    Oop N = OM.allocatePointers(Cls, 4);
    N.object()->slots()[3] = Oop::fromSmallInt(I);
    Nodes.push_back(N);
    // Note: allocation cannot scavenge here (eden is large enough), so
    // holding raw oops in Nodes is safe within this test.
  }
  for (int I = 0; I < 2000; ++I)
    for (int E = 0; E < 3; ++E)
      OM.storePointer(Nodes[I], E,
                      Nodes[Rng.nextBelow(2000)]);
  Roots[0] = Nodes[0];
  Roots[1] = Nodes[1999];

  OM.scavengeNow();

  // Walk the surviving graph: every reachable node keeps its tag and
  // valid edges.
  std::vector<Oop> Stack = {Roots[0], Roots[1]};
  std::vector<Oop> Seen;
  size_t Checked = 0;
  while (!Stack.empty() && Checked < 10000) {
    Oop N = Stack.back();
    Stack.pop_back();
    bool Dup = false;
    for (Oop S : Seen)
      if (S == N)
        Dup = true;
    if (Dup)
      continue;
    Seen.push_back(N);
    ++Checked;
    ASSERT_TRUE(N.isPointer());
    Oop Tag = N.object()->slots()[3];
    ASSERT_TRUE(Tag.isSmallInt());
    ASSERT_GE(Tag.smallInt(), 0);
    ASSERT_LT(Tag.smallInt(), 2000);
    for (int E = 0; E < 3 && Seen.size() < 200; ++E)
      Stack.push_back(N.object()->slots()[E]);
  }
  EXPECT_GE(Seen.size(), 2u);
  OM.unregisterMutator();
  }).join();
}

/// Links \p Nodes fresh young nodes into a chain through slot 0, each
/// tagged with its index in slot 3 and holding a random edge to an earlier
/// node in slot 1. Eden must hold them all. \returns every node made, the
/// head (the last one) at the back.
std::vector<Oop> makeChain(ObjectMemory &OM, Oop Cls, int Nodes) {
  SplitMix64 Rng(7);
  std::vector<Oop> Made;
  for (int I = 0; I < Nodes; ++I) {
    Oop N = OM.allocatePointers(Cls, 4);
    N.object()->slots()[3] = Oop::fromSmallInt(I);
    if (I) {
      OM.storePointer(N, 0, Made.back());
      OM.storePointer(N, 1, Made[Rng.nextBelow(Made.size())]);
    }
    Made.push_back(N);
  }
  return Made;
}

/// Walks the chain makeChain built from \p Head, checking every tag and
/// edge, and counts its nodes into \p Seen.
void walkChain(Oop Head, Oop Nil, int Nodes, int &Seen) {
  Seen = 0;
  for (Oop N = Head; N.isPointer() && N != Nil;
       N = ObjectMemory::fetchPointer(N, 0)) {
    ASSERT_EQ(N.object()->slots()[3], Oop::fromSmallInt(Nodes - 1 - Seen));
    Oop Edge = N.object()->slots()[1];
    if (Seen != Nodes - 1) {
      ASSERT_TRUE(Edge.isPointer());
      ASSERT_LT(Edge.object()->slots()[3].smallInt(), Nodes - 1 - Seen);
    }
    ++Seen;
  }
}

TEST(SerialCollectionTest, UniprocessorCollectionsTakeNoLockOnOneThread) {
  // Without MpSupport OldSpace's lock is a no-op, and both collectors run
  // on the thread that stopped the world, so a collection takes no lock.
  std::thread([] {
  MemoryConfig C;
  C.MpSupport = false;
  C.TenureAge = 1;
  C.EdenBytes = 256 * 1024;
  C.SurvivorBytes = 128 * 1024;
  C.OldChunkBytes = 64 * 1024;
  // Old space may hold only 16 KB: the graph's first nodes tenure, and
  // the rest stay young in the survivor space once old space refuses.
  C.MaxHeapBytes = C.EdenBytes + 2 * C.SurvivorBytes + 16 * 1024;
  ObjectMemory OM(C);
  OM.registerMutator("serial");
  Oop Nil = OM.allocateOldPointers(Oop(), 0);
  OM.setNil(Nil);
  Oop Cls = OM.allocateOldPointers(Nil, 0);
  std::vector<Oop> Roots(1, Oop());
  OM.addRootWalker([&Roots](const ObjectMemory::OopVisitor &V) {
    for (Oop &R : Roots)
      V(&R);
  });
  const int Nodes = 1000;
  Roots[0] = makeChain(OM, Cls, Nodes).back();

  chaos::Config Count; // count the points crossed, perturb none
  Count.YieldPermille = Count.SleepPermille = Count.DelayPermille = 0;
  chaos::enable(Count);
  OM.scavengeNow();
  ScavengeStats S = OM.statsSnapshot();
  OM.fullCollect();
  auto Points = chaos::pointCounts();
  chaos::disable();

  EXPECT_GT(S.ObjectsTenured, 0u);
  EXPECT_GT(S.ObjectsCopied, 0u);
  int Seen = 0;
  walkChain(Roots[0], Nil, Nodes, Seen);
  EXPECT_EQ(Seen, Nodes);
  std::string Error;
  EXPECT_TRUE(OM.verifyHeap(&Error)) << Error;

  bool SawScavenge = false, SawFullGc = false;
  for (const auto &[Name, Hits] : Points) {
    SawScavenge |= Name == "scavenge.start";
    SawFullGc |= Name == "fullgc.start";
    EXPECT_NE(Name, "spinlock.acquire") << Hits << " hits";
    EXPECT_NE(Name, "spinlock.trylock") << Hits << " hits";
  }
  EXPECT_TRUE(SawScavenge);
  EXPECT_TRUE(SawFullGc);
  OM.unregisterMutator();
  }).join();
}

TEST(SerialCollectionTest, MultiprocessorFullCollectionMarksOnce) {
  // An MS heap with the default configuration collects on the thread that
  // stopped the world too: one full collection starts marking once.
  std::thread([] {
  ObjectMemory OM{MemoryConfig()};
  OM.registerMutator("mp");
  Oop Nil = OM.allocateOldPointers(Oop(), 0);
  OM.setNil(Nil);
  Oop Cls = OM.allocateOldPointers(Nil, 0);
  std::vector<Oop> Roots(1, Oop());
  OM.addRootWalker([&Roots](const ObjectMemory::OopVisitor &V) {
    for (Oop &R : Roots)
      V(&R);
  });
  const int Nodes = 1000;
  std::vector<Oop> Made = makeChain(OM, Cls, Nodes);
  Roots[0] = Made.back();
  // Old objects: every even node holds one in slot 2, and as many more
  // are garbage.
  for (int I = 0; I < Nodes; ++I) {
    Oop Old = OM.allocateOldPointers(Cls, 1);
    Old.object()->slots()[0] = Oop::fromSmallInt(I);
    if (I % 2 == 0)
      OM.storePointer(Made[static_cast<size_t>(I)], 2, Old);
  }

  chaos::Config Count; // count the points crossed, perturb none
  Count.YieldPermille = Count.SleepPermille = Count.DelayPermille = 0;
  chaos::enable(Count);
  OM.fullCollect();
  auto Points = chaos::pointCounts();
  chaos::disable();

  uint64_t MarkStarts = 0;
  for (const auto &[Name, Hits] : Points)
    if (Name == "fullgc.mark")
      MarkStarts = Hits;
  EXPECT_EQ(MarkStarts, 1u);

  FullGcStats F = OM.fullGcStatsSnapshot();
  EXPECT_EQ(F.Collections, 1u);
  EXPECT_GE(F.SweptBytes,
            Nodes / 2 * (sizeof(ObjectHeader) + sizeof(Oop)));
  int Seen = 0;
  walkChain(Roots[0], Nil, Nodes, Seen);
  EXPECT_EQ(Seen, Nodes);
  int Held = 0;
  for (Oop N = Roots[0]; N.isPointer() && N != Nil;
       N = ObjectMemory::fetchPointer(N, 0)) {
    Oop Old = N.object()->slots()[2];
    if (!Old.isPointer() || Old == Nil)
      continue;
    EXPECT_TRUE(Old.object()->isOld());
    EXPECT_EQ(Old.object()->slots()[0], N.object()->slots()[3]);
    ++Held;
  }
  EXPECT_EQ(Held, Nodes / 2);
  std::string Error;
  EXPECT_TRUE(OM.verifyHeap(&Error)) << Error;
  OM.unregisterMutator();
  }).join();
}

} // namespace
