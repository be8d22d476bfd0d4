//===-- tests/vm/VirtualMachineTest.cpp - VM facade ------------------------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

#include "TestVm.h"
#include "obs/Telemetry.h"

using namespace mst;

namespace {

TEST(VirtualMachineTest, ConfigPresets) {
  VmConfig BS = VmConfig::baselineBS();
  EXPECT_EQ(BS.Interpreters, 1u);
  EXPECT_FALSE(BS.Memory.MpSupport);

  VmConfig MS = VmConfig::multiprocessor(4);
  EXPECT_EQ(MS.Interpreters, 4u);
  EXPECT_TRUE(MS.Memory.MpSupport);
  EXPECT_EQ(MS.CacheKind, MethodCacheKind::Replicated);
  EXPECT_EQ(MS.FreeCtxKind, FreeContextKind::Replicated);
}

TEST(VirtualMachineTest, CompileErrorsAreLoggedNotFatal) {
  TestVm T;
  EXPECT_TRUE(T.vm().compileAndRun("^((").isNull());
  EXPECT_TRUE(T.vm().forkDoIt("^((", 5, "broken").isNull());
  auto Errors = T.vm().errors();
  ASSERT_GE(Errors.size(), 2u);
  EXPECT_NE(Errors[0].find("compile error"), std::string::npos);
  EXPECT_EQ(T.evalInt("^1"), 1);
}

TEST(VirtualMachineTest, HostSignalTimeoutAndCounting) {
  TestVm T;
  unsigned Sig = T.vm().createHostSignal();
  EXPECT_FALSE(T.vm().waitHostSignal(Sig, 1, 0.05)) << "nothing signals";
  T.vm().hostSignal(Sig);
  T.vm().hostSignal(Sig);
  EXPECT_TRUE(T.vm().waitHostSignal(Sig, 2, 1.0));
  EXPECT_FALSE(T.vm().waitHostSignal(Sig, 3, 0.05));
  // Unknown ids are ignored, not fatal.
  T.vm().hostSignal(12345);
}

TEST(VirtualMachineTest, MillisecondClockAdvances) {
  TestVm T;
  intptr_t A = T.evalInt("^nil millisecondClock");
  intptr_t B = T.evalInt("| n | n := 0. 1 to: 200000 do: [:i | n := n + "
                         "1]. ^nil millisecondClock");
  EXPECT_GE(B, A);
  EXPECT_GE(T.vm().millisecondClock(), B);
}

TEST(VirtualMachineTest, BytecodeCountingGrows) {
  TestVm T;
  uint64_t A = T.vm().totalBytecodes();
  T.evalInt("| n | n := 0. 1 to: 10000 do: [:i | n := n + 1]. ^n");
  EXPECT_GT(T.vm().totalBytecodes(), A + 10000);
}

TEST(VirtualMachineTest, ShutdownIsIdempotent) {
  VirtualMachine VM(VmConfig::multiprocessor(2));
  bootstrapImage(VM);
  VM.startInterpreters();
  VM.shutdown();
  VM.shutdown(); // second call must be a no-op
  EXPECT_TRUE(VM.stopping());
}

TEST(VirtualMachineTest, ShutdownWithRunningProcesses) {
  // Infinite Processes must not prevent shutdown (the stop flag is
  // checked inside the bytecode loop).
  VirtualMachine VM(VmConfig::multiprocessor(2));
  bootstrapImage(VM);
  VM.startInterpreters();
  VM.forkDoIt("[true] whileTrue", 5, "immortal-1");
  VM.forkDoIt("[true] whileTrue: [Point x: 1 y: 2]", 5, "immortal-2");
  VM.shutdown(); // must return promptly (joinAll inside)
  SUCCEED();
}

TEST(VirtualMachineTest, ShutdownParksTheDriverWhileAWorkerRequestsPauses) {
  // A worker collecting back to back is waiting for the driver to park
  // when shutdown begins; the driver must park while it joins, or both
  // wait forever. The watchdog turns that hang into an abort whose dump
  // names the driver.
  VmConfig C = VmConfig::multiprocessor(2);
  C.Memory.WatchdogMillis = 5000;
  VirtualMachine VM(C);
  bootstrapImage(VM);
  VM.startInterpreters();
  unsigned Started = VM.createHostSignal();
  VM.forkDoIt("nil hostSignal: " + std::to_string(Started) +
                  ". [true] whileTrue: [nil fullCollect]",
              5, "collector");
  ASSERT_TRUE(VM.waitHostSignal(Started, 1, 60.0));
  // Host work outside any blocked region: the collector's next pause
  // request waits for the driver.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  VM.shutdown();
  EXPECT_EQ(VM.memory().safepoint().watchdogFirings(), 0u);
}

TEST(VirtualMachineTest, StatisticsReportOnFreshVm) {
  TestVm T;
  std::string R = T.vm().statisticsReport();
  EXPECT_NE(R.find("instrumentation report"), std::string::npos);
  EXPECT_NE(R.find("method cache"), std::string::npos);
}

TEST(VirtualMachineTest, EvalWithDeadlineAbortsRunaway) {
  TestVm T;
  uint64_t Deadline = Telemetry::nowNs() + 200ull * 1000 * 1000;
  auto R = T.vm().evalWithDeadline("[true] whileTrue.", Deadline);
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.TimedOut);
  EXPECT_NE(R.Value.find("RequestTimeout"), std::string::npos) << R.Value;
  // The abort fired at a bytecode boundary: the heap and scheduler are
  // intact and the VM keeps answering.
  auto After = T.vm().evaluate("3 + 4");
  EXPECT_TRUE(After.Ok) << After.Value;
  EXPECT_EQ(After.Value, "7");
  EXPECT_FALSE(After.TimedOut);
}

TEST(VirtualMachineTest, EvalWithDeadlineLeavesQuickEvalsAlone) {
  TestVm T;
  uint64_t Deadline = Telemetry::nowNs() + 30ull * 1000 * 1000 * 1000;
  auto R = T.vm().evalWithDeadline("6 * 7", Deadline);
  EXPECT_TRUE(R.Ok) << R.Value;
  EXPECT_EQ(R.Value, "42");
  EXPECT_FALSE(R.TimedOut);
  // The deadline does not leak into the next (undeadlined) evaluation.
  auto Next = T.vm().evaluate("1 + 1");
  EXPECT_TRUE(Next.Ok);
  EXPECT_FALSE(Next.TimedOut);
}

TEST(VirtualMachineTest, EvalWithDeadlineOutrunsSlowPrimitives) {
  // A runaway that spends most of its time inside slow primitives: the
  // interpreter checks the deadline after each primitive, so expiry
  // lands within one primitive call and one clock tick of the deadline
  // rather than up to 512 bytecodes' worth of primitives later. The
  // perform: shape expires inside a primitive nested in another one,
  // which must still unwind once.
  TestVm T;
  for (const char *Runaway :
       {"[true] whileTrue: [nil fullCollect]",
        "[true] whileTrue: [Array new: 200000]",
        "[true] whileTrue: [nil perform: #fullCollect withArguments: #()]"}) {
    SCOPED_TRACE(Runaway);
    auto T0 = std::chrono::steady_clock::now();
    uint64_t Deadline = Telemetry::nowNs() + 200ull * 1000 * 1000;
    auto R = T.vm().evalWithDeadline(Runaway, Deadline);
    auto Ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                  std::chrono::steady_clock::now() - T0)
                  .count();
    EXPECT_FALSE(R.Ok);
    EXPECT_TRUE(R.TimedOut) << R.Value;
    EXPECT_EQ(R.Value.find("RequestTimeout"), R.Value.rfind("RequestTimeout"))
        << R.Value;
    EXPECT_LT(Ms, 400) << "the deadline fired late";
    auto After = T.vm().evaluate("3 + 4");
    EXPECT_TRUE(After.Ok) << After.Value;
    EXPECT_EQ(After.Value, "7");
  }
}

TEST(VirtualMachineTest, DriverRootsAreGcSafe) {
  // A doIt result referencing fresh objects must survive a forced
  // scavenge triggered from within the same doIt.
  TestVm T;
  EXPECT_EQ(T.evalString("| s | s := 'keep', 'me'. nil forceScavenge. "
                         "^s"),
            "keepme");
}

TEST(VirtualMachineTest, ServedRequestShapesStayWithinTheirWorkBudget) {
  // A shard answers every request through evaluate's `^(…) printString`
  // wrapper, and SmallInteger>>printString is primitive 12, so printing
  // the answer costs one send. Counts are exact on one interpreter; the
  // bounds leave headroom over the measured 1/7, 19/116 and 11/62.
  // Printing digit by digit in Smalltalk cost 53/488, 41/292 and 33/238.
  TestVm T(VmConfig::multiprocessor(1));
  // The counter's global sits in its home slot of Smalltalk's table, so
  // its counts do not depend on how far its symbol's hash makes the
  // lookup probe.
  std::string C;
  for (int I = 0; I < 100 && C.empty(); ++I) {
    std::string K = "#C" + std::to_string(I);
    T.eval("Smalltalk at: " + K + " put: 0");
    if (T.evalBool("| t | t := Smalltalk instVarAt: 2. ^(t at: " + K +
                   " identityHash \\\\ t size + 1) key == " + K))
      C = K;
  }
  ASSERT_FALSE(C.empty());
  struct Shape {
    std::string Source;
    uint64_t MaxSends, MaxBytecodes;
  };
  const Shape Shapes[] = {
      {"3 + 4 * 123456", 2, 10},
      {"Smalltalk at: " + C + " put: (Smalltalk at: " + C + ") + 1", 25,
       130},
      {"Smalltalk at: " + C, 15, 70},
  };
  Interpreter &Driver = T.vm().driver();
  for (const Shape &S : Shapes) {
    for (int Warm = 0; Warm < 3; ++Warm)
      ASSERT_TRUE(T.vm().evaluate(S.Source).Ok) << S.Source;
    uint64_t Sends = Driver.sendsExecuted();
    uint64_t Bytecodes = Driver.bytecodesExecuted();
    VirtualMachine::EvalResult R = T.vm().evaluate(S.Source);
    ASSERT_TRUE(R.Ok) << S.Source << ": " << R.Value;
    Sends = Driver.sendsExecuted() - Sends;
    Bytecodes = Driver.bytecodesExecuted() - Bytecodes;
    EXPECT_LE(Sends, S.MaxSends)
        << S.Source << ": " << Sends << " sends, " << Bytecodes
        << " bytecodes";
    EXPECT_LE(Bytecodes, S.MaxBytecodes)
        << S.Source << ": " << Sends << " sends, " << Bytecodes
        << " bytecodes";
  }
}

TEST(VirtualMachineTest, DoItsLeaveOldSpaceFlat) {
  // A doIt compiles into eden, so one that nothing references after it
  // returns dies at the next scavenge instead of tenuring.
  TestVm T;
  ASSERT_TRUE(T.vm().evaluate("3 + 4 * 0").Ok);
  size_t Before = T.vm().memory().oldSpaceUsed();
  for (int N = 1; N <= 100000; ++N) {
    VirtualMachine::EvalResult R =
        T.vm().evaluate("3 + 4 * " + std::to_string(N));
    ASSERT_TRUE(R.Ok) << R.Value;
  }
  EXPECT_LT(T.vm().memory().oldSpaceUsed(), Before + 64u * 1024);
}

TEST(VirtualMachineTest, EscapedDoItsSurviveScavengesAndFullCollection) {
  // A doIt's block or method stored in a global is copied and tenured
  // like any other live object, and still works after it moved.
  TestVm T;
  T.eval("| t | Smalltalk at: #B put: [:x | x + 1]. ^0");
  T.eval("Smalltalk at: #M put: thisContext method. ^0");
  for (int I = 0; I < 3; ++I)
    T.eval("nil forceScavenge");
  T.eval("nil fullCollect");
  EXPECT_EQ(T.evalInt("^(Smalltalk at: #B) value: 41"), 42);
  EXPECT_TRUE(T.evalBool("^(Smalltalk at: #M) decompile size > 0"));
}

TEST(VirtualMachineTest, DoItCompiledAcrossAScavengeKeepsItsYoungGlobal) {
  // A global bound by Smalltalk code has a young Association, which the
  // doIt's literal frame names. Filling eden first makes the literal
  // frame's own allocation scavenge, moving that Association while the
  // compiler holds it. The doIt keeps its method so the frame can be
  // checked afterwards.
  TestVm T(VmConfig::baselineBS());
  T.eval("Smalltalk at: #YoungGlobal put: 41");
  ASSERT_FALSE(
      T.om().globalAssociation("YoungGlobal", false).object()->isOld());
  // Leave less eden than a one-slot Array needs.
  ObjectMemory &OM = T.vm().memory();
  const size_t OneSlot = sizeof(ObjectHeader) + sizeof(Oop);
  for (size_t Left; (Left = OM.edenCapacity() - OM.edenUsed()) >= OneSlot;)
    OM.allocateBytes(T.om().known().ClassByteArray,
                     static_cast<uint32_t>(
                         std::min(Left, OM.edenCapacity() / 8) - OneSlot));
  EXPECT_EQ(T.evalInt("Smalltalk at: #YoungDoIt put: thisContext method. "
                      "^YoungGlobal + 1"),
            42);
  Oop Lits = ObjectMemory::fetchPointer(T.om().globalAt("YoungDoIt"),
                                        MthLiterals);
  Oop Assoc = T.om().globalAssociation("YoungGlobal", false);
  bool Named = false;
  for (uint32_t I = 0; I < Lits.object()->SlotCount; ++I)
    Named |= ObjectMemory::fetchPointer(Lits, I) == Assoc;
  EXPECT_TRUE(Named) << "the literal frame names a stale Association";
  std::string Error;
  EXPECT_TRUE(OM.verifyHeap(&Error)) << Error;
}

} // namespace
