//===-- tests/stress/SchedulerChaosTest.cpp - VM macro-chaos --------------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Whole-VM chaos: bootstrapped images running parallel Smalltalk macro
/// workloads across a seed x interpreter-count sweep, with perturbation at
/// every kernel boundary (locks, safepoints, dispatch, free-context
/// pools). Afterwards the workload's arithmetic must be exact and the heap
/// must pass the reachability verifier.
///
//===----------------------------------------------------------------------===//

#include "StressSupport.h"
#include "TestVm.h"

using namespace mst;

namespace {

/// Forks \p Workers mutual-exclusion counters plus allocation churn and
/// waits for all of them; returns the final counter value.
intptr_t runMacroWorkload(TestVm &T, int Workers, int PerWorker) {
  unsigned Sig = T.vm().createHostSignal();
  T.eval("Smalltalk at: #Mutex put: Semaphore new. (Smalltalk at: #Mutex) "
         "signal. Smalltalk at: #Counter put: 0 -> 0. ^1");
  for (int W = 0; W < Workers; ++W) {
    std::string Src =
        "| m c | m := Smalltalk at: #Mutex. c := Smalltalk at: #Counter. "
        "1 to: " + std::to_string(PerWorker) +
        " do: [:i | m wait. c value: c value + 1. m signal. "
        "i \\\\ 50 = 0 ifTrue: [OrderedCollection new addAll: (1 to: 20); "
        "yourself]]. nil hostSignal: " + std::to_string(Sig);
    EXPECT_FALSE(
        T.vm().forkDoIt(Src, 5, "chaos" + std::to_string(W)).isNull());
  }
  EXPECT_TRUE(T.vm().waitHostSignal(Sig, static_cast<uint64_t>(Workers),
                                    120.0));
  return T.evalInt("^(Smalltalk at: #Counter) value");
}

void macroChaosSweep(unsigned Interpreters) {
  const int Workers = 4;
  const int PerWorker = stressScale(300, 60);
  VmConfig C = VmConfig::multiprocessor(Interpreters);
  C.Memory.EdenBytes = 512u << 10; // frequent scavenges under the churn
  // Bootstrapping under TSan is the expensive part; build the VM once and
  // sweep the seeds against it.
  TestVm T(C);
  T.vm().startInterpreters();
  for (uint64_t Seed : chaosSeeds()) {
    SCOPED_TRACE(seedTag(Seed));
    ScopedChaos Chaos(Seed);
    EXPECT_EQ(runMacroWorkload(T, Workers, PerWorker),
              static_cast<intptr_t>(Workers) * PerWorker);
    EXPECT_TRUE(T.vm().errors().empty()) << T.vm().errors().front();
  }
  // Quiesce completely, then verify the heap the storm left behind.
  T.vm().shutdown();
  std::string Error;
  EXPECT_TRUE(T.vm().memory().verifyHeap(&Error)) << Error;
}

TEST(SchedulerChaosTest, MacroWorkloadTwoInterpreters) {
  macroChaosSweep(2);
}

TEST(SchedulerChaosTest, MacroWorkloadFourInterpreters) {
  macroChaosSweep(4);
}

TEST(SchedulerChaosTest, ChaosCrossesTheKernelInjectionPoints) {
  // One perturbed run must actually exercise the seams the engine was
  // threaded through — a threading regression (a dropped chaos::point)
  // shows up here, not as silently weaker stress.
  VmConfig C = VmConfig::multiprocessor(2);
  C.Memory.EdenBytes = 256u << 10;
  TestVm T(C);
  T.vm().startInterpreters();
  {
    ScopedChaos Chaos(chaosSeeds().front());
    EXPECT_GT(runMacroWorkload(T, 2, stressScale(200, 50)), 0);
    // Allocation-heavy forks: enough eden churn to guarantee scavenges
    // (and with them safepoint polls) while other processes run.
    unsigned Sig = T.vm().createHostSignal();
    const int AllocIters = stressScale(400, 150);
    for (int W = 0; W < 2; ++W)
      T.vm().forkDoIt("1 to: " + std::to_string(AllocIters) +
                          " do: [:i | OrderedCollection new addAll: "
                          "(1 to: 100); yourself]. nil hostSignal: " +
                          std::to_string(Sig),
                      5, "alloc" + std::to_string(W));
    ASSERT_TRUE(T.vm().waitHostSignal(Sig, 2, 120.0));
    EXPECT_GT(T.vm().memory().statsSnapshot().Scavenges, 0u);
    auto Counts = chaos::pointCounts();
    auto Saw = [&Counts](const char *Name) {
      for (auto &[N, H] : Counts)
        if (N == Name && H > 0)
          return true;
      return false;
    };
    EXPECT_TRUE(Saw("spinlock.acquire"));
    EXPECT_TRUE(Saw("spinlock.acquired"));
    EXPECT_TRUE(Saw("sched.dispatch"));
    EXPECT_TRUE(Saw("sched.notify"));
    EXPECT_TRUE(Saw("freectx.take"));
    EXPECT_TRUE(Saw("freectx.give"));
    // Every scavenge passes through requestStopTheWorld ("safepoint
    // .request"); "safepoint.poll" alone would be schedule-dependent.
    EXPECT_TRUE(Saw("safepoint.request"));
    EXPECT_TRUE(Saw("scavenge.start"));
    EXPECT_GT(chaos::perturbationCount(), 0u);
  }
}

TEST(SchedulerChaosTest, InstallReachesEveryReplicatedCacheBeforeReturning) {
  // Sender Processes keep sending #stressProbe on every interpreter while
  // the driver keeps redefining it. Each interpreter fills its own cache
  // without a lock, so an install flushes them with the world stopped: a
  // send that starts after an install returned never answers an older
  // definition.
  const int Senders = 12; // three per interpreter
  const int Installs = stressScale(1000, 100);
  TestVm T(VmConfig::multiprocessor(4));
  T.vm().startInterpreters();
  const std::string N = std::to_string(Senders);
  T.eval("Compiler compile: 'stressProbe ^0' into: Object. "
         "Smalltalk at: #Installed put: 0. Smalltalk at: #Done put: false. "
         "Smalltalk at: #Stale put: (Array new: " + N + "). "
         "Smalltalk at: #Last put: (Array new: " + N + "). ^nil");
  unsigned Ready = T.vm().createHostSignal();
  unsigned Finished = T.vm().createHostSignal();
  for (int K = 1; K <= Senders; ++K) {
    std::string Slot = std::to_string(K);
    EXPECT_FALSE(
        T.vm()
            .forkDoIt("| installed stale | stale := 0. nil hostSignal: " +
                          std::to_string(Ready) +
                          ". [Smalltalk at: #Done] whileFalse: [installed "
                          ":= Smalltalk at: #Installed. nil stressProbe < "
                          "installed ifTrue: [stale := stale + 1]]. "
                          "(Smalltalk at: #Stale) at: " + Slot +
                          " put: stale. (Smalltalk at: #Last) at: " + Slot +
                          " put: nil stressProbe. nil hostSignal: " +
                          std::to_string(Finished),
                      5, "sender" + Slot)
            .isNull());
  }
  ASSERT_TRUE(T.vm().waitHostSignal(Ready, Senders, 120.0));
  ScopedChaos Chaos(chaosSeeds().front());
  for (int G = 1; G <= Installs; ++G) {
    std::string V = std::to_string(G);
    T.eval("Compiler compile: 'stressProbe ^" + V + "' into: Object. "
           "Smalltalk at: #Installed put: " + V + ". ^nil");
  }
  T.eval("Smalltalk at: #Done put: true. ^nil");
  ASSERT_TRUE(T.vm().waitHostSignal(Finished, Senders, 120.0));
  for (int K = 1; K <= Senders; ++K) {
    std::string Slot = std::to_string(K);
    EXPECT_EQ(T.evalInt("^(Smalltalk at: #Stale) at: " + Slot), 0)
        << "sender " << K << " answered a replaced definition";
    EXPECT_EQ(T.evalInt("^(Smalltalk at: #Last) at: " + Slot), Installs);
  }
  EXPECT_TRUE(T.vm().errors().empty()) << T.vm().errors().front();
}

TEST(SchedulerChaosTest, BaselineBSUnperturbedByChaosPoints) {
  // Chaos enabled but with all probabilities zero: the workload must run
  // exactly as without chaos (the points are crossed, nothing fires).
  chaos::Config Cfg;
  Cfg.Seed = 1;
  Cfg.YieldPermille = 0;
  Cfg.SleepPermille = 0;
  Cfg.DelayPermille = 0;
  ScopedChaos Chaos(Cfg);
  TestVm T(VmConfig::multiprocessor(2));
  T.vm().startInterpreters();
  EXPECT_EQ(runMacroWorkload(T, 2, 100), 200);
  EXPECT_EQ(chaos::perturbationCount(), 0u);
}

} // namespace
