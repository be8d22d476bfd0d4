//===-- tests/stress/ProfilerChaosTest.cpp - Sampler vs mutators ----------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Schedule-chaos stress for the sampling profiler: the sampler thread
/// races interpreter send/return publication, allocation-site and
/// cache-miss ring writes, and VM teardown, with the chaos engine
/// perturbing both sides ("profiler.sample" fires on every sampler tick,
/// "profiler.slot.tear" between the slot's field stores). Run under TSan
/// this is the proof that the relaxed-atomic slot protocol is race-free;
/// functionally it checks that torn samples degrade to noise, never to
/// crashes or unresolvable reports.
///
//===----------------------------------------------------------------------===//

#include <string>

#include <gtest/gtest.h>

#include "StressSupport.h"
#include "TestVm.h"
#include "obs/ProfileReport.h"
#include "obs/Profiler.h"

using namespace mst;

namespace {

/// Stops and wipes the process-wide profiler on scope exit.
struct ProfilerGuard {
  ProfilerGuard() {
    Profiler::stop();
    Profiler::reset();
  }
  ~ProfilerGuard() {
    Profiler::stop();
    Profiler::reset();
  }
};

/// Every folded line must be "frames;state count" — split on the last
/// space, count must parse, the stack part must be non-empty.
void expectFoldedParses(const std::string &Folded) {
  size_t Pos = 0, Lines = 0;
  while (Pos < Folded.size()) {
    size_t Eol = Folded.find('\n', Pos);
    if (Eol == std::string::npos)
      Eol = Folded.size();
    std::string Line = Folded.substr(Pos, Eol - Pos);
    Pos = Eol + 1;
    if (Line.empty())
      continue;
    ++Lines;
    size_t Sp = Line.rfind(' ');
    ASSERT_NE(Sp, std::string::npos) << Line;
    ASSERT_GT(Sp, 0u) << Line;
    const std::string Count = Line.substr(Sp + 1);
    ASSERT_FALSE(Count.empty()) << Line;
    for (char C : Count)
      ASSERT_TRUE(C >= '0' && C <= '9') << Line;
    EXPECT_NE(Line.find(';'), std::string::npos) << Line;
  }
  EXPECT_GT(Lines, 0u);
}

TEST(ProfilerChaosTest, SamplerRacesSendReturnAcrossInterpreters) {
  for (uint64_t Seed : chaosSeeds()) {
    SCOPED_TRACE(seedTag(Seed));
    ProfilerGuard Guard;
    ScopedChaos Chaos(Seed);

    TestVm T(VmConfig::multiprocessor(3));
    ASSERT_TRUE(startVmProfiler(4000));
    T.vm().startInterpreters();

    // Three worker Processes hammer send/return, allocation, and the
    // method cache while the sampler walks their slots. printOn: runs
    // the Smalltalk digit loop; SmallInteger>>printString is a primitive.
    const int N = stressScale(8000, 1500);
    unsigned Sig = T.vm().createHostSignal();
    for (int P = 0; P < 3; ++P) {
      Oop Forked = T.vm().forkDoIt(
          "| s | s := 0. 1 to: " + std::to_string(N) +
              " do: [:i | s := s + (i \\\\ 7). (Array new: 4) size. "
              "(3 + 4) printOn: (WriteStream on: (String new: 16))]. nil "
              "hostSignal: " + std::to_string(Sig),
          5, "prof-spinner");
      ASSERT_FALSE(Forked.isNull());
    }
    ASSERT_TRUE(T.vm().waitHostSignal(Sig, 3, 300.0));

    stopVmProfiler();
    ProfileReport R = T.vm().buildProfileReport();
    EXPECT_GT(R.TotalSamples, 0u);
    EXPECT_FALSE(R.render().empty());
    expectFoldedParses(R.folded());
  }
}

TEST(ProfilerChaosTest, SamplerSurvivesVmTeardownAndThreadReuse) {
  // VMs come and go while the sampler keeps running: slots retire at
  // interpreter exit, the driver thread re-registers for each VM, and
  // samples taken against a dead VM's heap must never be dereferenced
  // (they resolve as reclaimed, they don't crash).
  ProfilerGuard Guard;
  ScopedChaos Chaos(7);
  ASSERT_TRUE(startVmProfiler(2000));
  const int Vms = stressScale(3, 2);
  for (int I = 0; I < Vms; ++I) {
    TestVm T(VmConfig::multiprocessor(2));
    T.vm().startInterpreters();
    T.evalInt("| s | s := 0. 1 to: 20000 do: [:i | s := s + i]. ^s");
    ProfileReport R = T.vm().buildProfileReport();
    EXPECT_FALSE(R.render().empty());
    Profiler::reset(); // next VM starts from a clean accumulation
  }
  stopVmProfiler();
}

} // namespace
