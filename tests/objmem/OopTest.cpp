//===-- tests/objmem/OopTest.cpp - Tagged pointer encoding ----------------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include "objmem/ObjectHeader.h"
#include "objmem/Oop.h"
#include "support/SplitMix64.h"

using namespace mst;

namespace {

TEST(OopTest, NullOop) {
  Oop O;
  EXPECT_TRUE(O.isNull());
  EXPECT_FALSE(O.isSmallInt());
  EXPECT_FALSE(O.isPointer());
}

TEST(OopTest, SmallIntRoundTrip) {
  for (intptr_t V : {intptr_t(0), intptr_t(1), intptr_t(-1),
                     intptr_t(123456789), SmallIntMax, SmallIntMin}) {
    Oop O = Oop::fromSmallInt(V);
    EXPECT_TRUE(O.isSmallInt());
    EXPECT_FALSE(O.isPointer());
    EXPECT_EQ(O.smallInt(), V);
  }
}

/// Property sweep: random values round-trip through the tag encoding.
class OopPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OopPropertyTest, RandomSmallIntsRoundTrip) {
  SplitMix64 Rng(GetParam());
  for (int I = 0; I < 10000; ++I) {
    // Constrain to the representable 63-bit range.
    intptr_t V = static_cast<intptr_t>(Rng.next()) >> 1;
    Oop O = Oop::fromSmallInt(V);
    ASSERT_TRUE(O.isSmallInt());
    ASSERT_EQ(O.smallInt(), V);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OopPropertyTest,
                         ::testing::Values(3u, 17u, 2026u));

TEST(OopTest, PointerRoundTrip) {
  alignas(8) ObjectHeader H{};
  Oop O = Oop::fromObject(&H);
  EXPECT_TRUE(O.isPointer());
  EXPECT_FALSE(O.isSmallInt());
  EXPECT_EQ(O.object(), &H);
}

TEST(OopTest, IdentityComparison) {
  alignas(8) ObjectHeader A{}, B{};
  EXPECT_EQ(Oop::fromObject(&A), Oop::fromObject(&A));
  EXPECT_NE(Oop::fromObject(&A), Oop::fromObject(&B));
  EXPECT_NE(Oop::fromSmallInt(1), Oop::fromSmallInt(2));
  EXPECT_EQ(Oop::fromSmallInt(7), Oop::fromSmallInt(7));
}

TEST(OopTest, FitsSmallInt) {
  EXPECT_TRUE(fitsSmallInt(0));
  EXPECT_TRUE(fitsSmallInt(SmallIntMax));
  EXPECT_TRUE(fitsSmallInt(SmallIntMin));
  EXPECT_FALSE(fitsSmallInt(SmallIntMax + 1));
  EXPECT_FALSE(fitsSmallInt(SmallIntMin - 1));
}

TEST(ObjectHeaderTest, ForwardingEncoding) {
  alignas(8) ObjectHeader A{}, B{};
  A.setClassOop(Oop::fromObject(&B));
  EXPECT_FALSE(A.isForwarded());
  EXPECT_EQ(A.classOop().object(), &B);

  alignas(8) ObjectHeader Copy{};
  A.forwardTo(&Copy);
  EXPECT_TRUE(A.isForwarded());
  EXPECT_EQ(A.forwardee(), &Copy);
}

TEST(ObjectHeaderTest, FlagOperations) {
  ObjectHeader H{};
  EXPECT_FALSE(H.isOld());
  EXPECT_FALSE(H.isRemembered());
  EXPECT_FALSE(H.isEscaped());
  H.setOld();
  H.setRemembered(true);
  H.setEscaped();
  EXPECT_TRUE(H.isOld() && H.isRemembered() && H.isEscaped());
  H.setRemembered(false);
  EXPECT_FALSE(H.isRemembered());
  EXPECT_TRUE(H.isOld() && H.isEscaped());
}

TEST(ObjectHeaderTest, SlotsForBytes) {
  EXPECT_EQ(slotsForBytes(0), 0u);
  EXPECT_EQ(slotsForBytes(1), 1u);
  EXPECT_EQ(slotsForBytes(8), 1u);
  EXPECT_EQ(slotsForBytes(9), 2u);
  EXPECT_EQ(slotsForBytes(16), 2u);
}

} // namespace
