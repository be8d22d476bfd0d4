//===-- tests/support/SplitMixTest.cpp - Deterministic test RNG -----------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include "support/SplitMix64.h"

using namespace mst;

namespace {

TEST(SplitMixTest, DeterministicAcrossInstances) {
  SplitMix64 A(123), B(123);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(SplitMixTest, BoundsRespected) {
  SplitMix64 Rng(7);
  for (int I = 0; I < 1000; ++I) {
    EXPECT_LT(Rng.nextBelow(17), 17u);
    double D = Rng.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

} // namespace
