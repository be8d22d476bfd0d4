//===-- tests/objmem/ObjectMemoryTest.cpp - Allocation and barriers -------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include <malloc.h>
#include <thread>

#include <gtest/gtest.h>

#include "MemoryProbe.h"
#include "objmem/ObjectMemory.h"

using namespace mst;

namespace {

/// Raw-memory fixture: no VM on top, classes faked with old objects.
class ObjectMemoryTest : public ::testing::Test {
protected:
  ObjectMemoryTest() : OM(MemoryConfig{}) {
    OM.registerMutator("test");
    // A fake nil and a fake class, both old.
    Nil = OM.allocateOldPointers(Oop(), 0);
    OM.setNil(Nil);
    FakeClass = OM.allocateOldPointers(Nil, 0);
  }
  ~ObjectMemoryTest() override { OM.unregisterMutator(); }

  ObjectMemory OM;
  Oop Nil, FakeClass;
};

/// Builds a default heap and allocates in eden and old space.
/// \returns a failure message when that raised VmRSS by 4 MB or more.
std::string freshHeapResidentGrowth() {
  // MALLOC_PERTURB_ makes malloc itself write every byte it hands out;
  // turn it off so only the heap's own writes count.
  mallopt(M_PERTURB, 0);
  long Before = test::procStatusKb("VmRSS");
  ObjectMemory OM{MemoryConfig{}};
  OM.registerMutator("test");
  Oop Nil = OM.allocateOldPointers(Oop(), 0);
  OM.setNil(Nil);
  OM.allocatePointers(OM.allocateOldPointers(Nil, 0), 4);
  long GrowthKb = test::procStatusKb("VmRSS") - Before;
  OM.unregisterMutator();
  if (Before < 0 || GrowthKb >= 4 * 1024)
    return "a fresh heap raised VmRSS by " + std::to_string(GrowthKb) +
           " kB (bound 4096 kB)";
  return "";
}

// Spaces are not zero-filled, so a heap commits only the pages it writes.
// VmRSS is per process, so the case runs in a forked child.
TEST(ObjectMemoryFootprintTest, FreshHeapCommitsOnlyWhatItTouches) {
  EXPECT_PASSES_IN_CHILD(freshHeapResidentGrowth);
}

TEST_F(ObjectMemoryTest, PointerObjectsAreNilFilled) {
  Oop O = OM.allocatePointers(FakeClass, 5);
  ObjectHeader *H = O.object();
  EXPECT_EQ(H->SlotCount, 5u);
  EXPECT_EQ(H->Format, ObjectFormat::Pointers);
  EXPECT_FALSE(H->isOld());
  for (uint32_t I = 0; I < 5; ++I)
    EXPECT_EQ(H->slots()[I], Nil);
  EXPECT_EQ(H->classOop(), FakeClass);
}

TEST_F(ObjectMemoryTest, ByteObjectsAreZeroFilled) {
  Oop O = OM.allocateBytes(FakeClass, 13);
  ObjectHeader *H = O.object();
  EXPECT_EQ(H->Format, ObjectFormat::Bytes);
  EXPECT_EQ(H->ByteLength, 13u);
  EXPECT_EQ(H->SlotCount, 2u); // 13 bytes -> 2 slots
  for (uint32_t I = 0; I < 13; ++I)
    EXPECT_EQ(H->bytes()[I], 0u);
}

TEST_F(ObjectMemoryTest, IdentityHashesAreAssigned) {
  Oop A = OM.allocatePointers(FakeClass, 1);
  Oop B = OM.allocatePointers(FakeClass, 1);
  EXPECT_NE(A.object()->Hash, B.object()->Hash);
}

TEST_F(ObjectMemoryTest, OldAllocationIsMarkedOld) {
  Oop O = OM.allocateOldPointers(FakeClass, 3);
  EXPECT_TRUE(O.object()->isOld());
  Oop B = OM.allocateOldBytes(FakeClass, 10);
  EXPECT_TRUE(B.object()->isOld());
  EXPECT_EQ(B.object()->ByteLength, 10u);
}

TEST_F(ObjectMemoryTest, WriteBarrierRemembersOldToYoung) {
  Oop Old = OM.allocateOldPointers(FakeClass, 2);
  Oop Young = OM.allocatePointers(FakeClass, 1);
  EXPECT_EQ(OM.rememberedSet().size(), 0u);
  OM.storePointer(Old, 0, Young);
  EXPECT_TRUE(Old.object()->isRemembered());
  EXPECT_EQ(OM.rememberedSet().size(), 1u);
  // Storing again does not duplicate the entry.
  OM.storePointer(Old, 1, Young);
  EXPECT_EQ(OM.rememberedSet().size(), 1u);
}

TEST_F(ObjectMemoryTest, BarrierIgnoresYoungHolders) {
  Oop YoungA = OM.allocatePointers(FakeClass, 1);
  Oop YoungB = OM.allocatePointers(FakeClass, 1);
  OM.storePointer(YoungA, 0, YoungB);
  EXPECT_EQ(OM.rememberedSet().size(), 0u);
}

TEST_F(ObjectMemoryTest, BarrierIgnoresOldValuesAndSmallInts) {
  Oop Old = OM.allocateOldPointers(FakeClass, 2);
  Oop OldVal = OM.allocateOldPointers(FakeClass, 0);
  OM.storePointer(Old, 0, OldVal);
  OM.storePointer(Old, 1, Oop::fromSmallInt(42));
  EXPECT_EQ(OM.rememberedSet().size(), 0u);
}

TEST_F(ObjectMemoryTest, StoringContextsMarksThemEscaped) {
  Oop Ctx = OM.allocateContextObject(FakeClass, 8);
  Ctx.object()->slots()[ContextSpSlotIndex] = Oop::fromSmallInt(2);
  EXPECT_FALSE(Ctx.object()->isEscaped());
  Oop Holder = OM.allocatePointers(FakeClass, 1);
  OM.storePointer(Holder, 0, Ctx);
  EXPECT_TRUE(Ctx.object()->isEscaped());
}

TEST_F(ObjectMemoryTest, NoEscapeStoreKeepsContextsRecyclable) {
  Oop Ctx = OM.allocateContextObject(FakeClass, 8);
  Ctx.object()->slots()[ContextSpSlotIndex] = Oop::fromSmallInt(2);
  Oop Holder = OM.allocatePointers(FakeClass, 1);
  OM.storePointerNoEscape(Holder, 0, Ctx);
  EXPECT_FALSE(Ctx.object()->isEscaped());
}

TEST_F(ObjectMemoryTest, HandlesAreLifo) {
  HandleStack &HS = OM.handles();
  Oop A = OM.allocatePointers(FakeClass, 1);
  {
    Handle H1(HS, A);
    {
      Handle H2(HS, Nil);
      EXPECT_EQ(HS.cells().size(), 2u);
    }
    EXPECT_EQ(HS.cells().size(), 1u);
    EXPECT_EQ(H1.get(), A);
  }
  EXPECT_TRUE(HS.cells().empty());
}

TEST_F(ObjectMemoryTest, OversizedAllocationFallsToOldSpace) {
  // Mutator registration is per-thread, so the second memory gets its
  // own thread.
  std::thread([&] {
    MemoryConfig C;
    C.EdenBytes = 64 * 1024;
    ObjectMemory Small(C);
    Small.registerMutator("small");
    Oop N2 = Small.allocateOldPointers(Oop(), 0);
    Small.setNil(N2);
    // A request bigger than eden/4 goes straight to old space.
    Oop Big = Small.allocatePointers(N2, 8192);
    EXPECT_TRUE(Big.object()->isOld());
    Small.unregisterMutator();
  }).join();
}

TEST_F(ObjectMemoryTest, EdenUsageGrowsAndStatsStartClean) {
  size_t Before = OM.edenUsed();
  OM.allocatePointers(FakeClass, 100);
  EXPECT_GT(OM.edenUsed(), Before);
  EXPECT_EQ(OM.statsSnapshot().Scavenges, 0u);
}

TEST(OldSpaceTest, GrowsByChunks) {
  OldSpace Old(4096, true);
  // Allocations larger than a chunk still succeed.
  uint8_t *P = Old.allocate(16384);
  ASSERT_NE(P, nullptr);
  uint8_t *Q = Old.allocate(64);
  ASSERT_NE(Q, nullptr);
  EXPECT_GE(Old.used(), 16384u + 64u);
}

TEST(LinearSpaceTest, BumpAndReset) {
  LinearSpace S;
  S.init(1024);
  uint8_t *A = S.tryBumpAtomic(512);
  ASSERT_NE(A, nullptr);
  uint8_t *B = S.tryBumpAtomic(512);
  ASSERT_NE(B, nullptr);
  EXPECT_EQ(S.tryBumpAtomic(8), nullptr); // full
  EXPECT_TRUE(S.contains(A));
  EXPECT_EQ(S.used(), 1024u);
  S.reset();
  EXPECT_EQ(S.used(), 0u);
  EXPECT_NE(S.tryBumpAtomic(512), nullptr);
}

} // namespace
