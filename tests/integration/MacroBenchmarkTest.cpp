//===-- tests/integration/MacroBenchmarkTest.cpp - Table 2 workloads ------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each Table 2 macro benchmark must run to completion without VM errors
/// in every system state the paper measures: baseline BS, MS, MS with
/// idle competition, and MS with busy competition.
///
//===----------------------------------------------------------------------===//

#include <chrono>
#include <cmath>
#include <thread>

#include "TestVm.h"

#include "image/MacroBenchmarks.h"

using namespace mst;

namespace {

class MacroBenchmarkTest
    : public ::testing::TestWithParam<size_t> {};

TEST_P(MacroBenchmarkTest, RunsCleanlyOnMs) {
  const MacroBenchmark &B = macroBenchmarks()[GetParam()];
  TestVm T(VmConfig::multiprocessor(2));
  setupMacroWorkload(T.vm());
  T.vm().startInterpreters();
  TimedRun Run = runMacroBenchmark(T.vm(), B, /*Scale=*/0.2, 180.0);
  EXPECT_TRUE(Run.Ok) << "benchmark failed: " << B.Name;
  EXPECT_GE(Run.CpuSec, 0.0);
  EXPECT_TRUE(T.vm().errors().empty())
      << B.Name << " first error: " << T.vm().errors().front();
}

TEST_P(MacroBenchmarkTest, RunsCleanlyOnBaselineBS) {
  const MacroBenchmark &B = macroBenchmarks()[GetParam()];
  TestVm T(VmConfig::baselineBS());
  setupMacroWorkload(T.vm());
  T.vm().startInterpreters();
  TimedRun Run = runMacroBenchmark(T.vm(), B, /*Scale=*/0.2, 180.0);
  EXPECT_TRUE(Run.Ok) << "benchmark failed: " << B.Name;
  EXPECT_TRUE(T.vm().errors().empty())
      << B.Name << " first error: " << T.vm().errors().front();
}

INSTANTIATE_TEST_SUITE_P(AllEight, MacroBenchmarkTest,
                         ::testing::Range<size_t>(0, 8),
                         [](const auto &Info) {
                           std::string N =
                               macroBenchmarks()[Info.param].Name;
                           for (char &C : N)
                             if (!isalnum(static_cast<unsigned char>(C)))
                               C = '_';
                           return N;
                         });

TEST(MacroCompetitionTest, BusyCompetitionStillCompletes) {
  TestVm T(VmConfig::multiprocessor(2));
  setupMacroWorkload(T.vm());
  T.vm().startInterpreters();
  forkCompetitors(T.vm(), 4, busyProcessSource(), "BusyGroup");
  TimedRun Run =
      runMacroBenchmark(T.vm(), macroBenchmarks()[2], 0.2, 180.0);
  terminateCompetitors(T.vm(), "BusyGroup");
  EXPECT_TRUE(Run.Ok);
  EXPECT_GT(T.vm().display().submittedCount(), 0u)
      << "busy processes must contend for the display";
}

TEST(MacroCompetitionTest, IdleCompetitionStillCompletes) {
  TestVm T(VmConfig::multiprocessor(2));
  setupMacroWorkload(T.vm());
  T.vm().startInterpreters();
  forkCompetitors(T.vm(), 4, idleProcessSource(), "IdleGroup");
  TimedRun Run =
      runMacroBenchmark(T.vm(), macroBenchmarks()[2], 0.2, 180.0);
  terminateCompetitors(T.vm(), "IdleGroup");
  EXPECT_TRUE(Run.Ok);
}

TEST(TimedRunTest, CpuTimeIsBoundedByWallTime) {
  TestVm T(VmConfig::multiprocessor(2));
  T.vm().startInterpreters();
  TimedRun R = runTimedWorkload(
      T.vm(), "| n | n := 0. 1 to: 200000 do: [:i | n := n + 1]", 120.0);
  ASSERT_TRUE(R.Ok);
  EXPECT_GT(R.CpuSec, 0.0);
  // Attributed processor time can never exceed elapsed time (plus timer
  // granularity slack).
  EXPECT_LE(R.CpuSec, R.WallSec * 1.25 + 0.01);
}

// A run's CPU time is final when runTimedWorkload returns: the slice that
// sent the completion signal is credited only when it ends, which busy
// competitors can delay past the signal.
TEST(TimedRunTest, ReportedCpuTimeIsFinal) {
  TestVm T(VmConfig::multiprocessor(4));
  setupMacroWorkload(T.vm());
  T.vm().startInterpreters();
  forkCompetitors(T.vm(), 4, busyProcessSource(), "BusyGroup");
  for (size_t I = 0; I < 16; ++I) {
    SCOPED_TRACE("run " + std::to_string(I));
    TimedRun R =
        runMacroBenchmark(T.vm(), macroBenchmarks()[I % 8], 0.02, 180.0);
    ASSERT_TRUE(R.Ok);
    {
      BlockedRegion B(T.vm().memory().safepoint());
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    EXPECT_EQ(T.evalInt("^(Smalltalk at: #TimedWorkload) "
                        "accumulatedMicroseconds"),
              std::llround(R.CpuSec * 1e6));
  }
  terminateCompetitors(T.vm(), "BusyGroup");
}

} // namespace
