//===-- examples/repl.cpp - An interactive Smalltalk listener -------------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "interactive programming environment" itself, in miniature: a
/// read-eval-print listener over the bootstrapped image. Each line is
/// compiled as a doIt and evaluated; `printString` renders the answer.
///
///   ./examples/repl
///   > 3 + 4 * 2
///   14
///   > Smalltalk at: #Counter put: 0
///   > Smalltalk at: #Counter put: (Smalltalk at: #Counter) + 1
///   > (Smalltalk at: #Counter) printString
///   '1'
///
/// Also usable non-interactively: `echo '^42 factorial' | ./examples/repl`
/// (note: 42 factorial overflows SmallInteger — you get the clean error
/// and a Smalltalk backtrace, which is rather the point).
///
//===----------------------------------------------------------------------===//

#include <cstdio>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>

#include "image/Bootstrap.h"
#include "image/Snapshot.h"
#include "obs/Telemetry.h"
#include "obs/TraceBuffer.h"
#include "vkernel/Chaos.h"
#include "vm/VirtualMachine.h"

using namespace mst;

int main(int argc, char **argv) {
  bool TelemetryReport = false;
  std::string TraceOut;
  std::string SnapshotPath; // --snapshot=: save on exit and between lines
  std::string LoadPath;     // --load=: boot from an image, skip bootstrap
  uint64_t SnapshotEveryMs = 0;
  SnapshotOptions SaveOpts; // --snapshot-keep=
  bool Profile = false;        // --profile: sampling profiler
  uint32_t ProfileHz = 0;      // --profile-hz=N (0 = default rate)
  std::string ProfileFolded;   // --profile-folded=PATH: collapsed stacks
  VmConfig Config = VmConfig::multiprocessor(1);
  for (int I = 1; I < argc; ++I) {
    const char *A = argv[I];
    if (std::strcmp(A, "--telemetry") == 0) {
      TelemetryReport = true;
    } else if (std::strncmp(A, "--trace-out=", 12) == 0) {
      TraceOut = A + 12;
      Telemetry::setTracingEnabled(true);
    } else if (std::strncmp(A, "--chaos-seed=", 13) == 0) {
      chaos::enableSeed(std::strtoull(A + 13, nullptr, 0));
    } else if (std::strncmp(A, "--fullgc-threshold=", 19) == 0) {
      Config.Memory.FullGcThresholdBytes =
          std::strtoull(A + 19, nullptr, 0);
    } else if (std::strcmp(A, "--fullgc-off") == 0) {
      Config.Memory.FullGcEnabled = false;
    } else if (std::strncmp(A, "--max-heap=", 11) == 0) {
      // Heap ceiling in bytes (eden + survivors + old space). Exhaustion
      // walks the recovery ladder and ends in a catchable
      // OutOfMemoryError instead of growing without bound.
      Config.Memory.MaxHeapBytes = std::strtoull(A + 11, nullptr, 0);
    } else if (std::strncmp(A, "--watchdog-ms=", 14) == 0) {
      // Safepoint-rendezvous deadline; a stall past it produces a
      // postmortem dump naming the unresponsive thread.
      Config.Memory.WatchdogMillis = std::strtoull(A + 14, nullptr, 0);
    } else if (std::strncmp(A, "--snapshot=", 11) == 0) {
      SnapshotPath = A + 11;
    } else if (std::strncmp(A, "--load=", 7) == 0) {
      LoadPath = A + 7;
    } else if (std::strncmp(A, "--snapshot-every=", 17) == 0) {
      SnapshotEveryMs = std::strtoull(A + 17, nullptr, 0);
    } else if (std::strncmp(A, "--snapshot-keep=", 16) == 0) {
      SaveOpts.KeepGenerations =
          static_cast<unsigned>(std::strtoul(A + 16, nullptr, 0));
    } else if (std::strcmp(A, "--profile") == 0) {
      Profile = true;
    } else if (std::strncmp(A, "--profile-hz=", 13) == 0) {
      Profile = true;
      ProfileHz = static_cast<uint32_t>(std::strtoul(A + 13, nullptr, 0));
    } else if (std::strncmp(A, "--profile-folded=", 17) == 0) {
      Profile = true;
      ProfileFolded = A + 17;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--telemetry] [--trace-out=PATH] "
                   "[--chaos-seed=N] [--fullgc-threshold=BYTES] "
                   "[--fullgc-off] [--max-heap=BYTES] [--watchdog-ms=N] "
                   "[--snapshot=PATH] [--load=PATH] [--snapshot-every=MS] "
                   "[--snapshot-keep=N] [--profile] [--profile-hz=N] "
                   "[--profile-folded=PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (SnapshotEveryMs && SnapshotPath.empty()) {
    std::fprintf(stderr, "--snapshot-every requires --snapshot=PATH\n");
    return 2;
  }
  if (!chaos::enabled())
    chaos::enableFromEnv(); // MST_CHAOS_SEED et al.
  if (Profile)
    startVmProfiler(ProfileHz);

  if (Config.Memory.MaxHeapBytes) {
    // Keep the young generation evacuable under the ceiling: a scavenge
    // must be able to move a full eden into survivor + old space, or a
    // fully-retained eden wedges the collector instead of surfacing an
    // orderly OutOfMemoryError. Require fixed + eden + survivor <= max,
    // i.e. 2*eden + 3*survivor <= max, shrinking the defaults to fit.
    size_t &Eden = Config.Memory.EdenBytes;
    size_t &Surv = Config.Memory.SurvivorBytes;
    while (Eden > 64u * 1024 &&
           2 * Eden + 3 * Surv > Config.Memory.MaxHeapBytes) {
      Eden /= 2;
      Surv = Eden / 4 > 32u * 1024 ? Eden / 4 : 32u * 1024;
    }
  }

  VirtualMachine VM(Config);
  if (!LoadPath.empty()) {
    // Boot from an image: the recovery ladder falls back through rotated
    // generations when the primary fails verification.
    std::string Error;
    if (!loadSnapshot(VM, LoadPath, Error)) {
      std::fprintf(stderr, "cannot load image: %s\n", Error.c_str());
      return 1;
    }
  } else {
    bootstrapImage(VM);
  }

  std::optional<EmergencySnapshot> Emergency;
  if (!SnapshotPath.empty())
    Emergency.emplace(VM, SnapshotPath);

  std::printf("Multiprocessor Smalltalk listener — empty line or EOF "
              "quits.\n");

  std::string Line;
  // --snapshot-every: this thread saves between lines, so an image never
  // holds half of one; a line that runs forever is never saved.
  uint64_t NextSaveNs = Telemetry::nowNs() + SnapshotEveryMs * 1000000;
  bool Unsaved = false; // a line ran since the last save
  for (;;) {
    std::printf("> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, Line) || Line.empty())
      break;
    if (SnapshotEveryMs && Unsaved && Telemetry::nowNs() >= NextSaveNs) {
      std::string Error;
      if (saveSnapshot(VM, SnapshotPath, Error, SaveOpts))
        Unsaved = false;
      else
        std::fprintf(stderr, "snapshot failed: %s\n", Error.c_str());
      NextSaveNs = Telemetry::nowNs() + SnapshotEveryMs * 1000000;
    }
    VirtualMachine::EvalResult R = VM.evaluate(Line);
    Unsaved = true;
    std::printf(R.Ok ? "%s\n" : "error: %s\n", R.Value.c_str());
  }
  if (!SnapshotPath.empty()) {
    std::string Error;
    if (!saveSnapshot(VM, SnapshotPath, Error, SaveOpts))
      std::fprintf(stderr, "snapshot failed: %s\n", Error.c_str());
    else
      std::printf("image saved to %s\n", SnapshotPath.c_str());
  }
  if (TelemetryReport)
    std::printf("\n%s", VM.telemetryReport().c_str());
  if (Profile) {
    // Resolve against the live heap before the VM goes away.
    stopVmProfiler();
    ProfileReport R = VM.buildProfileReport();
    std::printf("\n%s", R.render().c_str());
    if (!ProfileFolded.empty()) {
      if (R.writeFolded(ProfileFolded))
        std::printf("folded stacks written to %s (feed to flamegraph.pl)\n",
                    ProfileFolded.c_str());
      else
        std::fprintf(stderr, "failed to write folded stacks to %s\n",
                     ProfileFolded.c_str());
    }
  }
  if (!TraceOut.empty()) {
    if (writeChromeTrace(TraceOut))
      std::printf("trace written to %s (open in https://ui.perfetto.dev)\n",
                  TraceOut.c_str());
    else
      std::fprintf(stderr, "failed to write trace to %s\n",
                   TraceOut.c_str());
  }
  std::printf("\nbye\n");
  return 0;
}
