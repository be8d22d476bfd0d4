//===-- tests/vm/MethodCacheTest.cpp - Method cache policies ---------------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include <thread>

#include <gtest/gtest.h>

#include "objmem/ObjectHeader.h"
#include "vm/MethodCache.h"

using namespace mst;

namespace {

/// Fake oops from aligned headers (the cache only compares identities).
struct FakeObjects {
  alignas(8) ObjectHeader H[8];
  Oop oop(int I) { return Oop::fromObject(&H[I]); }
};

TEST(MethodCacheTest, MissThenHit) {
  MethodCache C(MethodCacheKind::Replicated, 2, true);
  FakeObjects F;
  Oop M, D;
  EXPECT_FALSE(C.lookup(0, F.oop(0), F.oop(1), M, D));
  C.insert(0, F.oop(0), F.oop(1), F.oop(2), F.oop(3));
  ASSERT_TRUE(C.lookup(0, F.oop(0), F.oop(1), M, D));
  EXPECT_EQ(M, F.oop(2));
  EXPECT_EQ(D, F.oop(3));
  EXPECT_EQ(C.hits(), 1u);
  EXPECT_EQ(C.misses(), 1u);
}

TEST(MethodCacheTest, ReplicatedTablesAreIndependent) {
  // The §3.2 point: each interpreter owns its cache; filling one does not
  // warm another.
  MethodCache C(MethodCacheKind::Replicated, 3, true);
  FakeObjects F;
  C.insert(0, F.oop(0), F.oop(1), F.oop(2), F.oop(3));
  Oop M, D;
  EXPECT_TRUE(C.lookup(0, F.oop(0), F.oop(1), M, D));
  EXPECT_FALSE(C.lookup(1, F.oop(0), F.oop(1), M, D));
  EXPECT_FALSE(C.lookup(2, F.oop(0), F.oop(1), M, D));
}

TEST(MethodCacheTest, GlobalCacheIsShared) {
  MethodCache C(MethodCacheKind::GlobalLocked, 3, true);
  FakeObjects F;
  C.insert(0, F.oop(0), F.oop(1), F.oop(2), F.oop(3));
  Oop M, D;
  EXPECT_TRUE(C.lookup(1, F.oop(0), F.oop(1), M, D));
  EXPECT_TRUE(C.lookup(2, F.oop(0), F.oop(1), M, D));
}

TEST(MethodCacheTest, FlushAllEmptiesEverything) {
  MethodCache C(MethodCacheKind::Replicated, 2, true);
  FakeObjects F;
  C.insert(0, F.oop(0), F.oop(1), F.oop(2), F.oop(3));
  C.insert(1, F.oop(0), F.oop(1), F.oop(2), F.oop(3));
  C.flushAll();
  Oop M, D;
  EXPECT_FALSE(C.lookup(0, F.oop(0), F.oop(1), M, D));
  EXPECT_FALSE(C.lookup(1, F.oop(0), F.oop(1), M, D));
}

TEST(MethodCacheTest, FlushSelectorIsTargeted) {
  MethodCache C(MethodCacheKind::Replicated, 1, true);
  FakeObjects F;
  C.insert(0, F.oop(0), F.oop(1), F.oop(2), F.oop(3)); // selector oop(1)
  C.insert(0, F.oop(0), F.oop(4), F.oop(5), F.oop(3)); // selector oop(4)
  C.flushSelector(F.oop(1));
  Oop M, D;
  EXPECT_FALSE(C.lookup(0, F.oop(0), F.oop(1), M, D));
  EXPECT_TRUE(C.lookup(0, F.oop(0), F.oop(4), M, D));
}

TEST(MethodCacheTest, MissCountersBreakDownByKindAndAgree) {
  // Each lookup that misses counts once, whichever organization the
  // cache has; hits never count as misses.
  {
    MethodCache C(MethodCacheKind::Replicated, 2, true);
    FakeObjects F;
    Oop M, D;
    EXPECT_FALSE(C.lookup(0, F.oop(0), F.oop(1), M, D));
    EXPECT_FALSE(C.lookup(1, F.oop(0), F.oop(1), M, D));
    C.insert(0, F.oop(0), F.oop(1), F.oop(2), F.oop(3));
    EXPECT_TRUE(C.lookup(0, F.oop(0), F.oop(1), M, D)); // hit: no miss bump
    EXPECT_EQ(C.misses(), 2u);
  }
  {
    MethodCache C(MethodCacheKind::GlobalLocked, 2, true);
    FakeObjects F;
    Oop M, D;
    EXPECT_FALSE(C.lookup(0, F.oop(0), F.oop(1), M, D));
    EXPECT_FALSE(C.lookup(1, F.oop(4), F.oop(1), M, D));
    EXPECT_FALSE(C.lookup(0, F.oop(4), F.oop(5), M, D));
    C.insert(0, F.oop(0), F.oop(1), F.oop(2), F.oop(3));
    EXPECT_TRUE(C.lookup(1, F.oop(0), F.oop(1), M, D));
    EXPECT_EQ(C.misses(), 3u);
  }
}

TEST(MethodCacheTest, DifferentClassesDoNotCollideSemantically) {
  MethodCache C(MethodCacheKind::Replicated, 1, true);
  FakeObjects F;
  C.insert(0, F.oop(0), F.oop(1), F.oop(2), F.oop(3));
  Oop M, D;
  // Same selector, different class: must miss (or at worst return only
  // exact matches — never the wrong entry).
  EXPECT_FALSE(C.lookup(0, F.oop(4), F.oop(1), M, D));
}

TEST(RwSpinLockTest, ReadersShareWritersExclude) {
  RwSpinLock L(true);
  L.lockShared();
  L.lockShared(); // a second reader may enter
  L.unlockShared();
  L.unlockShared();
  L.lockExclusive();
  L.unlockExclusive();

  // Concurrent increments under the exclusive lock stay consistent while
  // readers hammer the shared side.
  std::atomic<bool> Stop{false};
  int64_t Shared = 0;
  std::thread Reader([&] {
    while (!Stop.load()) {
      L.lockShared();
      int64_t V = Shared;
      (void)V;
      L.unlockShared();
    }
  });
  for (int I = 0; I < 20000; ++I) {
    L.lockExclusive();
    ++Shared;
    L.unlockExclusive();
  }
  Stop.store(true);
  Reader.join();
  EXPECT_EQ(Shared, 20000);
}

} // namespace
