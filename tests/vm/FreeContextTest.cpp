//===-- tests/vm/FreeContextTest.cpp - Free context list -------------------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "TestVm.h"

#include "obs/Telemetry.h"
#include "vm/FreeContextList.h"

using namespace mst;

namespace {

/// Direct pool behaviour on raw context objects.
class FreeContextPoolTest : public ::testing::Test {
protected:
  FreeContextPoolTest() : OM(MemoryConfig{}) {
    OM.registerMutator("test");
    Nil = OM.allocateOldPointers(Oop(), 0);
    OM.setNil(Nil);
    Cls = OM.allocateOldPointers(Nil, 0);
  }
  ~FreeContextPoolTest() override { OM.unregisterMutator(); }

  Oop makeCtx(uint32_t Slots) {
    Oop C = OM.allocateContextObject(Cls, Slots);
    C.object()->slots()[ContextSpSlotIndex] = Oop::fromSmallInt(2);
    return C;
  }

  ObjectMemory OM;
  Oop Nil, Cls;
};

TEST_F(FreeContextPoolTest, TakeFromEmptyIsNull) {
  FreeContextPool P(FreeContextKind::Shared, 1, true);
  EXPECT_TRUE(P.take(0, SmallContextSlots).isNull());
}

TEST_F(FreeContextPoolTest, GiveThenTakeRoundTrips) {
  FreeContextPool P(FreeContextKind::Shared, 1, true);
  Oop C = makeCtx(SmallContextSlots);
  P.give(0, C);
  EXPECT_EQ(P.returns(), 1u);
  Oop Back = P.take(0, 10);
  EXPECT_EQ(Back, C);
  EXPECT_EQ(P.reuses(), 1u);
  EXPECT_TRUE(P.take(0, 10).isNull());
}

TEST_F(FreeContextPoolTest, SizeBinsAreSeparate) {
  FreeContextPool P(FreeContextKind::Shared, 1, true);
  P.give(0, makeCtx(SmallContextSlots));
  // A request too big for the small bin must not receive the small one.
  EXPECT_TRUE(P.take(0, SmallContextSlots + 1).isNull());
  P.give(0, makeCtx(LargeContextSlots));
  EXPECT_FALSE(P.take(0, LargeContextSlots).isNull());
}

TEST_F(FreeContextPoolTest, ReplicatedListsAreIndependent) {
  FreeContextPool P(FreeContextKind::Replicated, 2, true);
  P.give(0, makeCtx(SmallContextSlots));
  EXPECT_TRUE(P.take(1, 10).isNull()) << "interpreter 1 has its own list";
  EXPECT_FALSE(P.take(0, 10).isNull());
}

TEST_F(FreeContextPoolTest, SharedListIsShared) {
  FreeContextPool P(FreeContextKind::Shared, 2, true);
  P.give(0, makeCtx(SmallContextSlots));
  EXPECT_FALSE(P.take(1, 10).isNull());
}

TEST_F(FreeContextPoolTest, FlushEmptiesAllBins) {
  FreeContextPool P(FreeContextKind::Replicated, 2, true);
  P.give(0, makeCtx(SmallContextSlots));
  P.give(1, makeCtx(LargeContextSlots));
  P.flushAll();
  EXPECT_TRUE(P.take(0, 10).isNull());
  EXPECT_TRUE(P.take(1, LargeContextSlots).isNull());
}

TEST_F(FreeContextPoolTest, OldContextsAreNotPooled) {
  FreeContextPool P(FreeContextKind::Shared, 1, true);
  Oop C = makeCtx(SmallContextSlots);
  C.object()->setOld();
  P.give(0, C);
  EXPECT_TRUE(P.take(0, 10).isNull());
}

/// End-to-end: running Smalltalk recycles method contexts through the
/// pool, and escaped contexts stay out.
TEST(FreeContextIntegrationTest, MethodReturnsRecycleContexts) {
  TestVm T(VmConfig::multiprocessor(1));
  uint64_t Before = T.vm().contextPool().returns();
  T.evalInt("^10 factorial");
  EXPECT_GT(T.vm().contextPool().returns(), Before)
      << "returning method contexts must feed the free list";
}

TEST(FreeContextIntegrationTest, CapturedHomeIsNotRecycled) {
  TestVm T(VmConfig::multiprocessor(1));
  // makeAdder's home context is captured by the returned block; running
  // the block afterwards must still see its temps (so the home cannot
  // have been recycled into another activation).
  addMethod(T.vm(), T.om().known().ClassObject, "testing",
            "makeAdder: n ^[:x | x + n]");
  EXPECT_EQ(T.evalInt("| b | b := nil makeAdder: 5. nil makeAdder: 100. "
                      "1 to: 50 do: [:i | i printString]. ^b value: 2"),
            7);
}

uint64_t counterTotal(const char *Name) {
  for (const auto &[N, V] : Telemetry::counterTotals())
    if (N == Name)
      return V;
  return 0;
}

/// Paper §3.2: the replicated lists exist so that they need no
/// serialization. A multiprocessor VM's replicated lists recycle without
/// a lock round trip; the shared list still takes its lock.
TEST(FreeContextIntegrationTest, OnlyTheSharedListTakesALock) {
  for (FreeContextKind Kind :
       {FreeContextKind::Replicated, FreeContextKind::Shared}) {
    VmConfig C = VmConfig::multiprocessor(1);
    C.FreeCtxKind = Kind;
    TestVm T(C);
    uint64_t Locks = counterTotal("lock.freectx.acquisitions");
    uint64_t Reuses = T.vm().contextPool().reuses();
    T.evalInt("| s | s := 0. 1 to: 200 do: [:i | "
              "s := s + (i \\\\ 10) factorial printString size]. ^s");
    EXPECT_GT(T.vm().contextPool().reuses(), Reuses);
    uint64_t Taken = counterTotal("lock.freectx.acquisitions") - Locks;
    if (Kind == FreeContextKind::Replicated)
      EXPECT_EQ(Taken, 0u);
    else
      EXPECT_GT(Taken, 0u);
  }
}

} // namespace
