//===-- image/MacroBenchmarks.cpp - The Smalltalk-80 macro suite ----------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "image/MacroBenchmarks.h"

#include <chrono>
#include <thread>

#include "image/Bootstrap.h"
#include "support/Timer.h"

using namespace mst;

const std::vector<MacroBenchmark> &mst::macroBenchmarks() {
  static const std::vector<MacroBenchmark> Suite = {
      {"read and write class organization",
       "1 to: %SCALE% do: [:r | Smalltalk allClassesDo: [:c | | org text "
       "| org := c organization. org isNil ifFalse: [text := org "
       "printString. c organization: (ClassOrganization fromString: "
       "text)]]]",
       16},
      {"print class definition",
       "1 to: %SCALE% do: [:r | Smalltalk allClassesDo: [:c | c "
       "definition]]",
       50},
      {"print class hierarchy",
       "1 to: %SCALE% do: [:r | Object printHierarchy]", 20},
      {"find all calls",
       "1 to: %SCALE% do: [:r | Smalltalk sendersOf: #printOn:]", 60},
      {"find all implementors",
       "1 to: %SCALE% do: [:r | Smalltalk implementorsOf: #printOn:]", 200},
      {"create inspector view",
       "1 to: %SCALE% do: [:r | (Inspector on: (Point x: 3 y: 4)) show. "
       "(Inspector on: (1 -> 'one')) show. (Inspector on: (WriteStream "
       "on: (String new: 4))) show]",
       800},
      {"compile dummy method",
       "1 to: %SCALE% do: [:r | Compiler compile: 'dummyMethod | a b | a "
       ":= 3. b := a + 4. 1 to: 10 do: [:i | b := b + (a someWork: i)]. "
       "^a * b' into: BenchmarkDummy]",
       3000},
      {"decompile class",
       "1 to: %SCALE% do: [:r | Behavior selectorsDo: [:s | (Behavior "
       "compiledMethodAt: s) decompile]]",
       300},
  };
  return Suite;
}

void mst::setupMacroWorkload(VirtualMachine &VM) {
  if (VM.model().globalAt("BenchmarkDummy").isNull())
    defineClass(VM, "BenchmarkDummy", "Object", ClassKind::Fixed, {},
                "Benchmarks");
  VM.compileAndRun("Smalltalk at: #BusyTick put: 0");
}

std::string mst::idleProcessSource() { return "[true] whileTrue"; }

std::string mst::busyProcessSource() {
  // Modeled on the "sweep hand" background Process: message sends, object
  // allocations, and contention for the display (paper §4).
  return "[true] whileTrue: [ | s p | p := Point x: 3 y: 4. s := "
         "WriteStream on: (String new: 8). s print: p x + p y. Display "
         "show: s contents]";
}

static std::string replaceScale(std::string Body, int Iters) {
  const std::string Tag = "%SCALE%";
  for (size_t Pos = Body.find(Tag); Pos != std::string::npos;
       Pos = Body.find(Tag, Pos))
    Body.replace(Pos, Tag.size(), std::to_string(Iters));
  return Body;
}

TimedRun mst::runTimedWorkload(VirtualMachine &VM,
                               const std::string &BodyStatements,
                               double TimeoutSec) {
  unsigned Sig = VM.createHostSignal();
  // Fork from Smalltalk so the Process oop lives in the image (a C++-held
  // oop would go stale across scavenges); read back its attributed
  // processor time afterwards.
  std::string Fork = "| p |\np := [" + BodyStatements +
                     ". nil hostSignal: " + std::to_string(Sig) +
                     "] newProcessAt: 5.\nSmalltalk at: #TimedWorkload "
                     "put: p.\np resume";
  TimedRun R;
  Stopwatch Watch;
  if (VM.compileAndRun(Fork).isNull())
    return R;
  if (!VM.waitHostSignal(Sig, 1, TimeoutSec))
    return R;
  R.WallSec = Watch.seconds();
  // The signal is the workload's last send, but its interpreter credits
  // the slice that ran it only when the slice ends, just before it
  // terminates the Process (Interpreter::runLoop). Read the time once the
  // Process has terminated, when it is final.
  for (;;) {
    Oop Us = VM.compileAndRun(
        "| p | p := Smalltalk at: #TimedWorkload. ^p suspendedContext "
        "isNil ifTrue: [p accumulatedMicroseconds]");
    if (Us.isSmallInt())
      R.CpuSec = static_cast<double>(Us.smallInt()) / 1e6;
    if (Us.isNull() || Us.isSmallInt() || Watch.seconds() > TimeoutSec)
      break;
    BlockedRegion Waiting(VM.memory().safepoint());
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  R.Ok = R.CpuSec >= 0.0;
  return R;
}

TimedRun mst::runMacroBenchmark(VirtualMachine &VM,
                                const MacroBenchmark &B, double Scale,
                                double TimeoutSec) {
  int Iters = static_cast<int>(B.BaseIterations * Scale);
  if (Iters < 1)
    Iters = 1;
  return runTimedWorkload(VM, replaceScale(B.Body, Iters), TimeoutSec);
}

void mst::forkCompetitors(VirtualMachine &VM, unsigned N,
                          const std::string &Source,
                          const std::string &GroupGlobal) {
  std::string DoIt = "| list |\nlist := Array new: " + std::to_string(N) +
                     ".\n1 to: " + std::to_string(N) +
                     " do: [:i | list at: i put: ([" + Source +
                     "] forkAt: 5)].\nSmalltalk at: #" + GroupGlobal +
                     " put: list";
  VM.compileAndRun(DoIt);
}

void mst::terminateCompetitors(VirtualMachine &VM,
                               const std::string &GroupGlobal) {
  VM.compileAndRun("(Smalltalk at: #" + GroupGlobal +
                   ") do: [:p | p terminate]. Smalltalk at: #" +
                   GroupGlobal + " put: nil");
}
