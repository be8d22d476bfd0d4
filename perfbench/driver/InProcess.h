//===-- perfbench/driver/InProcess.h - Library-linked passes ----*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The passes that link the program's libraries instead of driving the
/// daemon: the Table 2 system states (baseline BS, MS with one idle
/// Process, MS with four busy Processes) and the traced replay that
/// times each layer's public entry point per request. Each pass prints
/// one JSON object on stdout.
///
//===----------------------------------------------------------------------===//

#ifndef MST_PERFBENCH_INPROCESS_H
#define MST_PERFBENCH_INPROCESS_H

#include <cstdint>
#include <string>

#include "Workload.h"

namespace perfbench {

struct InProcessOptions {
  WorkloadKind Kind = WorkloadKind::ServeSmall;
  std::string Image;     ///< prewarmed image every VM boots from
  uint64_t Seed = 1;
  uint64_t Count = 1000; ///< requests per block (serve) / per replay pass
  unsigned Reps = 3;     ///< macro repetitions per state
  double Scale = 1.0;    ///< macro benchmark iteration scale
  std::string Journal;   ///< replay: journal file path
  std::string TraceOut;  ///< replay: per-batch Chrome trace lines
};

/// Boots an MS VM from the image and answers `3 + 4`: the set-up probe.
int runBoot(const InProcessOptions &O);

/// Runs the workload's VM work in the three Table 2 states.
int runStates(const InProcessOptions &O);

/// Replays the workload's request stream on one VM through each layer's
/// entry point, once with spans off and once with spans on.
int runReplay(const InProcessOptions &O);

} // namespace perfbench

#endif // MST_PERFBENCH_INPROCESS_H
