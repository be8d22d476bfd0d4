//===-- tests/integration/GcStressTest.cpp - Scavenging under load --------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generation Scavenging under allocation pressure: a small eden (the
/// paper ran with s = 80K bytes) forces frequent stop-the-world scavenges
/// while several interpreter processes allocate concurrently. Data
/// integrity after many collections is the pass criterion.
///
//===----------------------------------------------------------------------===//

#include "TestVm.h"

#include "image/MacroBenchmarks.h"

using namespace mst;

namespace {

VmConfig smallEden(unsigned K) {
  VmConfig C = VmConfig::multiprocessor(K);
  C.Memory.EdenBytes = 256 * 1024; // force frequent scavenges
  C.Memory.SurvivorBytes = 128 * 1024;
  C.Memory.VerifyAfterGc = true; // walk the heap after every collection
  return C;
}

TEST(GcStressTest, SurvivorsKeepTheirContents) {
  TestVm T(smallEden(1));
  // Build a long-lived structure, churn garbage through many scavenges,
  // then verify the structure.
  intptr_t R = T.evalInt(
      "| keep sum | keep := OrderedCollection new. 1 to: 100 do: [:i | "
      "keep add: i printString]. 1 to: 20000 do: [:i | (Array new: 40) "
      "at: 1 put: i]. sum := 0. keep do: [:s | sum := sum + s size]. "
      "^sum");
  // 1..9 -> 9 chars, 10..99 -> 180, 100 -> 3.
  EXPECT_EQ(R, 9 + 180 + 3);
  EXPECT_GT(T.vm().memory().statsSnapshot().Scavenges, 0u);
}

TEST(GcStressTest, ExplicitScavengePreservesGraph) {
  TestVm T(smallEden(1));
  intptr_t R = T.evalInt(
      "| d total | d := Dictionary new. 1 to: 64 do: [:i | d at: i put: "
      "(Array new: i)]. nil forceScavenge. nil forceScavenge. total := 0. "
      "d do: [:a | total := total + a size]. ^total");
  EXPECT_EQ(R, 64 * 65 / 2);
  EXPECT_GE(T.vm().memory().statsSnapshot().Scavenges, 2u);
}

TEST(GcStressTest, ParallelAllocationWithScavenges) {
  TestVm T(smallEden(4));
  T.vm().startInterpreters();
  unsigned Sig = T.vm().createHostSignal();
  constexpr int N = 8;
  for (int I = 0; I < N; ++I) {
    T.vm().forkDoIt(
        "| keep ok | keep := OrderedCollection new. 1 to: 50 do: [:i | "
        "keep add: i * i]. 1 to: 30000 do: [:i | Array new: 16]. ok := "
        "true. 1 to: 50 do: [:i | (keep at: i) = (i * i) ifFalse: [ok := "
        "false]]. ok ifTrue: [nil hostSignal: " + std::to_string(Sig) +
        "]",
        5, "churner");
  }
  EXPECT_TRUE(T.vm().waitHostSignal(Sig, N, 120.0));
  EXPECT_GT(T.vm().memory().statsSnapshot().Scavenges, 0u);
  EXPECT_TRUE(T.vm().errors().empty())
      << "first error: " << T.vm().errors().front();
}

TEST(GcStressTest, TenuredObjectsRememberYoung) {
  TestVm T(smallEden(1));
  // An old object (the system dictionary's association values are old;
  // instead: age an array until tenured, then store young data into it
  // and scavenge — the entry table must keep the young data alive).
  intptr_t R = T.evalInt(
      "| holder | holder := Array new: 4. nil forceScavenge. nil "
      "forceScavenge. nil forceScavenge. holder at: 1 put: 'young "
      "string'. nil forceScavenge. ^(holder at: 1) size");
  EXPECT_EQ(R, 12);
}

TEST(GcStressTest, MacroBenchmarkUnderTinyEdenAndBusyCompetition) {
  // The everything-at-once stress: paper-sized eden (close to the 80 KB
  // MS ran with), four interpreters, four busy competitors, and the
  // heaviest macro benchmark — with correctness asserted afterwards.
  VmConfig C = VmConfig::multiprocessor(4);
  C.Memory.EdenBytes = 128 * 1024;
  C.Memory.SurvivorBytes = 64 * 1024;
  TestVm T(C);
  setupMacroWorkload(T.vm());
  T.vm().startInterpreters();
  forkCompetitors(T.vm(), 4, busyProcessSource(), "StressGroup");
  TimedRun Run = runMacroBenchmark(T.vm(), macroBenchmarks()[0],
                                   /*Scale=*/0.25, 300.0);
  terminateCompetitors(T.vm(), "StressGroup");
  EXPECT_TRUE(Run.Ok);
  EXPECT_GT(T.vm().memory().statsSnapshot().Scavenges, 10u);
  EXPECT_TRUE(T.vm().errors().empty())
      << "first error: " << T.vm().errors().front();
  // The image is still coherent after hundreds of stop-the-world pauses
  // under competition.
  EXPECT_EQ(T.evalInt("^(1 to: 100) sum"), 5050);
  EXPECT_TRUE(T.evalBool("^(Smalltalk implementorsOf: #printOn:) "
                         "notEmpty"));
}

} // namespace
