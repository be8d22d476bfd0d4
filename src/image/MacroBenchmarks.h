//===-- image/MacroBenchmarks.h - The Smalltalk-80 macro suite --*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The eight "macro" benchmarks of Table 2 (a subset of the standard
/// Smalltalk-80 benchmarks, McCall 1983): typical user activities such as
/// compiling code or searching for definitions or uses of a particular
/// message selector. Each is a Smalltalk doIt executed as a Smalltalk
/// Process; the host times fork-to-completion.
///
/// Also provides the competition workloads of §4:
///  - the **idle Process**: `[true] whileTrue` — compiled to bytecode that
///    neither looks up messages nor allocates memory;
///  - the **busy Process**: modeled on the "sweep hand" background
///    Process — message sends, object allocations, and display
///    contention.
///
//===----------------------------------------------------------------------===//

#ifndef MST_IMAGE_MACROBENCHMARKS_H
#define MST_IMAGE_MACROBENCHMARKS_H

#include <string>
#include <vector>

#include "vm/VirtualMachine.h"

namespace mst {

/// One macro benchmark: a named Smalltalk workload.
struct MacroBenchmark {
  /// Table 2 column name.
  std::string Name;
  /// The workload body (no completion signalling; the runner appends it).
  /// %SCALE% is replaced with the iteration count.
  std::string Body;
  /// Default iteration count at Scale = 1.
  int BaseIterations;
};

/// \returns the eight Table 2 benchmarks, in column order.
const std::vector<MacroBenchmark> &macroBenchmarks();

/// Installs benchmark support into the image (the BenchmarkDummy class the
/// compile benchmark compiles into, and its seed methods).
void setupMacroWorkload(VirtualMachine &VM);

/// The §4 idle Process source: minimum possible interference.
std::string idleProcessSource();

/// The §4 busy Process source: maximum interference — sends, allocations,
/// and display contention.
std::string busyProcessSource();

/// Result of one timed workload run.
struct TimedRun {
  bool Ok = false;
  /// Wall-clock fork-to-completion seconds. On a host with as many CPUs
  /// as interpreters this matches the paper's elapsed time; on a smaller
  /// host it is inflated by OS time-sharing.
  double WallSec = -1.0;
  /// Processor time attributed to the workload's own Smalltalk Process
  /// (thread-CPU time across its slices). This is the host-independent
  /// analogue of the paper's per-benchmark seconds: the Firefly gave each
  /// Process its own processor, so elapsed == processor time there.
  double CpuSec = -1.0;
};

/// Runs \p BodyStatements (no trailing period) as a priority-5 Smalltalk
/// Process and waits until that Process has terminated, so the CPU time
/// it reports is final.
TimedRun runTimedWorkload(VirtualMachine &VM,
                          const std::string &BodyStatements,
                          double TimeoutSec = 300.0);

/// Runs \p B at \p Scale (multiplies the iteration count).
TimedRun runMacroBenchmark(VirtualMachine &VM, const MacroBenchmark &B,
                           double Scale = 1.0, double TimeoutSec = 300.0);

/// Forks \p N competitor Processes running \p Source at priority 5 and
/// records them in the Smalltalk global \p GroupGlobal (oops must live in
/// the image: C++-held process oops would go stale across scavenges).
void forkCompetitors(VirtualMachine &VM, unsigned N,
                     const std::string &Source,
                     const std::string &GroupGlobal);

/// Terminates every Process recorded under \p GroupGlobal.
void terminateCompetitors(VirtualMachine &VM,
                          const std::string &GroupGlobal);

} // namespace mst

#endif // MST_IMAGE_MACROBENCHMARKS_H
