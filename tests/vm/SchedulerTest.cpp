//===-- tests/vm/SchedulerTest.cpp - Process scheduling --------------------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scheduler semantics, including the paper's §3.3 reorganization: a
/// running Process is NOT removed from the ready queue, canRun: replaces
/// isActive:, and the activeProcess slot is only used around snapshots.
///
//===----------------------------------------------------------------------===//

#include <chrono>

#include "TestVm.h"

#include "vm/Compiler.h"

using namespace mst;

namespace {

class SchedulerTest : public ::testing::Test {
protected:
  SchedulerTest() : T(VmConfig::multiprocessor(2)) {}

  /// A suspended process with a trivial context. NOTE: the returned oop
  /// is GC-fragile; these tests stay within one eden's worth of
  /// allocation (no scavenge), which the huge default eden guarantees.
  Oop makeProcess(int Priority) {
    Oop Ctx = T.vm().buildBottomContext(doItMethod(), T.om().nil());
    return T.vm().scheduler().createProcess(Ctx, Priority, "test");
  }

  Oop doItMethod() {
    if (CachedMethod.isNull()) {
      CompileResult R = compileDoItSource(
          T.om(), T.om().known().ClassUndefinedObject, "^nil");
      CachedMethod = R.Method;
    }
    return CachedMethod;
  }

  TestVm T;
  Oop CachedMethod; // a young doIt: stable only because nothing scavenges
};

TEST_F(SchedulerTest, CreateProcessStartsSuspended) {
  Oop P = makeProcess(5);
  EXPECT_FALSE(T.vm().scheduler().canRun(P));
  EXPECT_EQ(ObjectMemory::fetchPointer(P, ProcPriority).smallInt(), 5);
  EXPECT_EQ(ObjectMemory::fetchPointer(P, ProcMyList), T.om().nil());
}

TEST_F(SchedulerTest, AddReadyMakesRunnable) {
  Oop P = makeProcess(5);
  T.vm().scheduler().addReadyProcess(P);
  EXPECT_TRUE(T.vm().scheduler().canRun(P));
  EXPECT_EQ(T.vm().scheduler().readyCount(), 1u);
}

TEST_F(SchedulerTest, PickMarksRunningAndKeepsInQueue) {
  // §3.3: "the MS system does not remove a Process from the ready queue
  // when it is made active".
  Oop P = makeProcess(5);
  T.vm().scheduler().addReadyProcess(P);
  Oop Picked = T.vm().scheduler().pickProcessToRun();
  EXPECT_EQ(Picked, P);
  EXPECT_EQ(ObjectMemory::fetchPointer(P, ProcRunning).smallInt(), 1);
  EXPECT_TRUE(T.vm().scheduler().canRun(P))
      << "a running Process still answers canRun:";
  EXPECT_EQ(T.vm().scheduler().readyCount(), 1u)
      << "running Processes stay in the ready queue";
  // And it cannot be picked twice.
  EXPECT_TRUE(T.vm().scheduler().pickProcessToRun().isNull());
}

TEST_F(SchedulerTest, HigherPriorityWinsThePick) {
  Oop Low = makeProcess(3);
  Oop High = makeProcess(7);
  T.vm().scheduler().addReadyProcess(Low);
  T.vm().scheduler().addReadyProcess(High);
  EXPECT_EQ(T.vm().scheduler().pickProcessToRun(), High);
  EXPECT_EQ(T.vm().scheduler().pickProcessToRun(), Low);
}

TEST_F(SchedulerTest, YieldRotatesWithinPriority) {
  Oop A = makeProcess(5);
  Oop B = makeProcess(5);
  T.vm().scheduler().addReadyProcess(A);
  T.vm().scheduler().addReadyProcess(B);
  Oop First = T.vm().scheduler().pickProcessToRun();
  EXPECT_EQ(First, A);
  T.vm().scheduler().yieldProcess(A);
  // After the rotation B is at the front.
  EXPECT_EQ(T.vm().scheduler().pickProcessToRun(), B);
  EXPECT_EQ(T.vm().scheduler().pickProcessToRun(), A);
}

TEST_F(SchedulerTest, SemaphoreExcessSignals) {
  Oop Sem = T.vm().compileAndRun("Smalltalk at: #S put: Semaphore new. "
                                 "^Smalltalk at: #S");
  ASSERT_FALSE(Sem.isNull());
  T.vm().scheduler().semaphoreSignal(Sem);
  T.vm().scheduler().semaphoreSignal(Sem);
  EXPECT_EQ(ObjectMemory::fetchPointer(Sem, SemExcessSignals).smallInt(),
            2);
  // A wait consumes an excess signal without blocking.
  Oop P = makeProcess(5);
  T.vm().scheduler().addReadyProcess(P);
  EXPECT_FALSE(T.vm().scheduler().semaphoreWait(Sem, P));
  EXPECT_EQ(ObjectMemory::fetchPointer(Sem, SemExcessSignals).smallInt(),
            1);
}

TEST_F(SchedulerTest, SemaphoreBlocksAndWakesFifo) {
  Oop Sem = T.vm().compileAndRun("Smalltalk at: #S2 put: Semaphore new. "
                                 "^Smalltalk at: #S2");
  Oop A = makeProcess(5);
  Oop B = makeProcess(5);
  T.vm().scheduler().addReadyProcess(A);
  T.vm().scheduler().addReadyProcess(B);
  EXPECT_TRUE(T.vm().scheduler().semaphoreWait(Sem, A));
  EXPECT_TRUE(T.vm().scheduler().semaphoreWait(Sem, B));
  EXPECT_FALSE(T.vm().scheduler().canRun(A));
  EXPECT_FALSE(T.vm().scheduler().canRun(B));
  // First signal wakes the longest waiter: A.
  T.vm().scheduler().semaphoreSignal(Sem);
  EXPECT_TRUE(T.vm().scheduler().canRun(A));
  EXPECT_FALSE(T.vm().scheduler().canRun(B));
  T.vm().scheduler().semaphoreSignal(Sem);
  EXPECT_TRUE(T.vm().scheduler().canRun(B));
}

TEST_F(SchedulerTest, SuspendRemovesFromAnyList) {
  Oop P = makeProcess(5);
  T.vm().scheduler().addReadyProcess(P);
  T.vm().scheduler().suspendProcess(P);
  EXPECT_FALSE(T.vm().scheduler().canRun(P));
  EXPECT_EQ(T.vm().scheduler().readyCount(), 0u);
  T.vm().scheduler().resumeProcess(P);
  EXPECT_TRUE(T.vm().scheduler().canRun(P));
  // Resuming an already-ready process is a no-op.
  T.vm().scheduler().resumeProcess(P);
  EXPECT_EQ(T.vm().scheduler().readyCount(), 1u);
}

TEST_F(SchedulerTest, TerminateClearsContext) {
  Oop P = makeProcess(5);
  T.vm().scheduler().addReadyProcess(P);
  T.vm().scheduler().terminateProcess(P);
  EXPECT_FALSE(T.vm().scheduler().canRun(P));
  EXPECT_EQ(ObjectMemory::fetchPointer(P, ProcSuspendedContext),
            T.om().nil());
}

TEST_F(SchedulerTest, ActiveProcessSlotOnlyForSnapshots) {
  // §3.3: "The only requirement is to fill in the activeProcess slot
  // before taking a snapshot and to empty it afterwards."
  Oop Processor = T.om().known().Processor;
  EXPECT_EQ(ObjectMemory::fetchPointer(Processor, SchedActiveProcess),
            T.om().nil());
  Oop P = makeProcess(5);
  T.vm().scheduler().fillActiveProcessSlot(P);
  EXPECT_EQ(ObjectMemory::fetchPointer(Processor, SchedActiveProcess), P);
  T.vm().scheduler().emptyActiveProcessSlot();
  EXPECT_EQ(ObjectMemory::fetchPointer(Processor, SchedActiveProcess),
            T.om().nil());
}

TEST_F(SchedulerTest, ReadyQueueIsSmalltalkVisible) {
  // The queue is made of image-level objects: Smalltalk code can walk it
  // (the visibility the paper both exploits and criticizes in §3.3).
  Oop P = makeProcess(4);
  T.vm().scheduler().addReadyProcess(P);
  EXPECT_EQ(T.evalInt("| lists n | lists := Processor "
                      "quiescentProcessLists. n := 0. 1 to: lists size "
                      "do: [:i | (lists at: i) do: [:p | n := n + 1]]. "
                      "^n"),
            1);
}

TEST_F(SchedulerTest, NotifyAfterTheEpochIsReadEndsTheWaitAtOnce) {
  // An idle interpreter reads the epoch, finds no Process, then waits. A
  // notifyWork between the read and the wait must not be lost: each of
  // these waits returns at once instead of after its 1 ms timeout.
  Scheduler &S = T.vm().scheduler();
  auto Start = std::chrono::steady_clock::now();
  for (int Round = 0; Round < 100; ++Round) {
    uint64_t Epoch = S.workEpoch();
    S.notifyWork();
    S.waitForWork(Epoch);
  }
  EXPECT_LT(std::chrono::steady_clock::now() - Start,
            std::chrono::milliseconds(50));
}

} // namespace
