//===-- bench/BenchSupport.h - Shared bench harness helpers -----*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the benchmark binaries: a system state as data (a
/// VM configuration plus its competitor Processes), the runner that times
/// the macro suite in one, and output formatting.
///
//===----------------------------------------------------------------------===//

#ifndef MST_BENCH_BENCHSUPPORT_H
#define MST_BENCH_BENCHSUPPORT_H

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "image/Bootstrap.h"
#include "image/MacroBenchmarks.h"
#include "image/Snapshot.h"
#include "obs/Telemetry.h"
#include "obs/TraceBuffer.h"
#include "support/Format.h"
#include "vkernel/Chaos.h"
#include "vm/VirtualMachine.h"

namespace mst {

/// The number of interpreter processes used for the MS states. The
/// Firefly ran five; we use min(host CPUs, 5) but always at least two,
/// so interpretation is genuinely replicated even on a uniprocessor host
/// while avoiding heavy thread oversubscription (which would charge OS
/// context-switch noise to the benchmark's processor-time attribution).
inline unsigned msInterpreters() {
  unsigned Hw = std::thread::hardware_concurrency();
  if (Hw == 0)
    Hw = 4;
  unsigned K = Hw < 5 ? Hw : 5;
  return K < 2 ? 2 : K;
}

/// \returns a scale factor from the MST_BENCH_SCALE environment variable
/// (default \p Dflt). Larger = longer, steadier measurements.
inline double benchScale(double Dflt) {
  if (const char *S = std::getenv("MST_BENCH_SCALE"))
    return std::atof(S);
  return Dflt;
}

/// One system state as data: the VM it runs on and the Processes that
/// compete with every benchmark in it.
struct BenchState {
  std::string Name;
  VmConfig Config;
  unsigned Competitors = 0;     ///< Processes forked before the suite
  std::string CompetitorSource; ///< the statements each of them runs
};

/// Telemetry/trace flags shared by the benchmark mains.
struct BenchFlags {
  bool TelemetryReport = false; ///< --telemetry: print counter summary
  std::string TraceOut;         ///< --trace-out=PATH: Chrome trace JSON
  std::string JsonOut;          ///< --json-out=PATH: machine-readable results
  bool Profile = false;         ///< --profile: run the sampling profiler
  uint32_t ProfileHz = 0;       ///< --profile-hz=N: sampling rate (0=default)
  std::string ProfileFolded;    ///< --profile-folded=PATH: collapsed stacks
};

/// The cross-state profile accumulator. Each runMacroSuite call resolves
/// the sampler's raw oop bits against its own VM's heap (bits go stale
/// with the VM) and merges the named rows here; finishBenchFlags renders
/// and exports the union.
inline ProfileReport &benchProfile() {
  static ProfileReport R;
  return R;
}

/// Folds the profiler's current raw tables into benchProfile(), resolved
/// against \p VM's heap. Call just before a bench VM shuts down — after
/// shutdown the sampled oop bits are unresolvable. No-op when the
/// profiler never ran.
inline void benchProfileFold(VirtualMachine &VM) {
  if (Profiler::enabled() || Profiler::ticks() > 0) {
    benchProfile().merge(VM.buildProfileReport());
    Profiler::reset();
  }
}

/// Shared prewarmed-image path (set by --image=PATH). When non-empty the
/// bench VMs boot by loading this snapshot instead of re-running the
/// bootstrap + macro-workload compilation for every system state.
inline std::string &benchImagePath() {
  static std::string Path;
  return Path;
}

/// Boots \p VM for a macro suite: from the prewarmed snapshot when one
/// was given (its load time lands in the `img.load.millis` histogram, so
/// every --json-out telemetry block records it), otherwise from scratch
/// via bootstrap + the macro-workload definitions. A snapshot that fails
/// verification falls back to the scratch path rather than aborting the
/// suite — the benches should still produce numbers off a stale image.
inline void bootBenchImage(VirtualMachine &VM) {
  const std::string &Img = benchImagePath();
  if (!Img.empty()) {
    std::string Error;
    if (loadSnapshot(VM, Img, Error))
      return;
    std::fprintf(stderr,
                 "cannot load prewarmed image %s: %sfalling back to "
                 "bootstrap\n",
                 Img.c_str(), Error.c_str());
  }
  bootstrapImage(VM);
  setupMacroWorkload(VM);
}

/// Parses --telemetry / --trace-out= / --json-out= / --chaos-seed= /
/// --image= and enables tracing when a trace path was given. Unknown
/// arguments abort with a usage message. A --chaos-seed (or
/// MST_CHAOS_SEED in the environment) turns on schedule chaos for the
/// whole run — for measuring how robust the numbers are to hostile
/// interleavings, not for Table 2.
inline BenchFlags parseBenchFlags(int Argc, char **Argv) {
  BenchFlags F;
  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    if (std::strcmp(A, "--telemetry") == 0) {
      F.TelemetryReport = true;
    } else if (std::strncmp(A, "--trace-out=", 12) == 0) {
      F.TraceOut = A + 12;
    } else if (std::strncmp(A, "--json-out=", 11) == 0) {
      F.JsonOut = A + 11;
    } else if (std::strncmp(A, "--image=", 8) == 0) {
      benchImagePath() = A + 8;
    } else if (std::strncmp(A, "--chaos-seed=", 13) == 0) {
      chaos::enableSeed(std::strtoull(A + 13, nullptr, 0));
    } else if (std::strcmp(A, "--profile") == 0) {
      F.Profile = true;
    } else if (std::strncmp(A, "--profile-hz=", 13) == 0) {
      F.Profile = true;
      F.ProfileHz =
          static_cast<uint32_t>(std::strtoul(A + 13, nullptr, 0));
    } else if (std::strncmp(A, "--profile-folded=", 17) == 0) {
      F.Profile = true;
      F.ProfileFolded = A + 17;
    } else {
      std::fprintf(stderr,
                   "unknown argument '%s'\nusage: %s [--telemetry] "
                   "[--trace-out=PATH] [--json-out=PATH] [--image=PATH] "
                   "[--chaos-seed=N] [--profile] [--profile-hz=N] "
                   "[--profile-folded=PATH]\n",
                   A, Argv[0]);
      std::exit(2);
    }
  }
  if (!F.TraceOut.empty())
    Telemetry::setTracingEnabled(true);
  if (F.Profile)
    startVmProfiler(F.ProfileHz);
  if (!chaos::enabled())
    chaos::enableFromEnv();
  return F;
}

/// Prints the aggregate counters and pause percentiles to stdout.
inline void printTelemetrySummary(const Telemetry::Snapshot &S) {
  std::printf("--- telemetry ---\n");
  for (const auto &[Name, V] : S.Counters)
    std::printf("  %-32s %llu\n", Name.c_str(),
                static_cast<unsigned long long>(V));
  for (const auto &H : S.Histograms)
    std::printf("  %-32s n=%llu p50=%.1fus p95=%.1fus p99=%.1fus "
                "max=%.1fus\n",
                H.Name.c_str(), static_cast<unsigned long long>(H.Count),
                H.P50 / 1e3, H.P95 / 1e3, H.P99 / 1e3, H.Max / 1e3);
}

/// Finalizes the tracing/telemetry flags after the measured runs: writes
/// the Chrome trace and/or prints the counter summary.
inline void finishBenchFlags(const BenchFlags &F,
                             const Telemetry::Snapshot &S) {
  if (F.TelemetryReport)
    printTelemetrySummary(S);
  if (!F.TraceOut.empty()) {
    if (writeChromeTrace(F.TraceOut))
      std::printf("trace written to %s (open in https://ui.perfetto.dev)\n",
                  F.TraceOut.c_str());
    else
      std::fprintf(stderr, "failed to write trace to %s\n",
                   F.TraceOut.c_str());
  }
  if (F.Profile) {
    stopVmProfiler();
    const ProfileReport &R = benchProfile();
    std::printf("%s", R.render().c_str());
    if (!F.ProfileFolded.empty()) {
      if (R.writeFolded(F.ProfileFolded))
        std::printf("folded stacks written to %s (feed to flamegraph.pl)\n",
                    F.ProfileFolded.c_str());
      else
        std::fprintf(stderr, "failed to write folded stacks to %s\n",
                     F.ProfileFolded.c_str());
    }
  }
}

/// One state's suite: each benchmark's kept run and the state's own
/// telemetry.
struct SuiteRun {
  std::vector<TimedRun> Times; ///< one per benchmark, Table 2 column order
  Telemetry::Snapshot Snap;    ///< the registry before the VM shut down
};

/// Runs all eight macro benchmarks in state \p S on one fresh VM, keeping
/// each benchmark's minimum-CPU repetition. \p BeforeShutdown, when
/// given, reads the VM after the last benchmark, once the competitors
/// are terminated and the snapshot is taken.
inline SuiteRun
runMacroSuite(const BenchState &S, double Scale, unsigned Repeats,
              const std::function<void(VirtualMachine &)> &BeforeShutdown =
                  nullptr) {
  VirtualMachine VM(S.Config);
  bootBenchImage(VM);
  VM.startInterpreters();
  if (S.Competitors)
    forkCompetitors(VM, S.Competitors, S.CompetitorSource, "Competitors");

  SuiteRun Out;
  for (const MacroBenchmark &B : macroBenchmarks()) {
    TimedRun Best;
    for (unsigned R = 0; R < Repeats; ++R) {
      TimedRun Run = runMacroBenchmark(VM, B, Scale, 600.0);
      if (!Run.Ok) {
        std::fprintf(stderr, "benchmark '%s' failed in state '%s'\n",
                     B.Name.c_str(), S.Name.c_str());
        for (const std::string &E : VM.errors())
          std::fprintf(stderr, "  error: %s\n", E.c_str());
        Best = Run;
        break;
      }
      // Keep the least-disturbed (minimum processor time) repetition.
      if (!Best.Ok || Run.CpuSec < Best.CpuSec)
        Best = Run;
    }
    Out.Times.push_back(Best);
  }

  if (S.Competitors)
    terminateCompetitors(VM, "Competitors");
  Out.Snap = Telemetry::snapshot();
  if (BeforeShutdown)
    BeforeShutdown(VM);
  benchProfileFold(VM);
  VM.shutdown();
  return Out;
}

/// Short column headers matching Table 2.
inline std::vector<std::string> macroShortNames() {
  return {"org r/w", "print def", "hierarchy", "calls",
          "implementors", "inspector", "compile", "decompile"};
}

/// Writes Table 2's machine-readable result file: per-state wall/CPU
/// seconds for every macro benchmark plus that state's telemetry snapshot
/// (lock contention, cache hit rates, scavenge pause percentiles).
/// \returns false on I/O failure.
inline bool writeBenchJson(const std::string &Path, double Scale,
                           const std::vector<BenchState> &States,
                           const std::vector<SuiteRun> &All) {
  std::ofstream Os(Path, std::ios::binary | std::ios::trunc);
  if (!Os)
    return false;
  Os << "{\"bench\":\"table2\",\"scale\":" << Scale
     << ",\"interpreters\":" << msInterpreters() << ",\"states\":[";
  const auto Names = macroShortNames();
  for (size_t SI = 0; SI < States.size(); ++SI) {
    if (SI)
      Os << ',';
    Os << "{\"name\":\"" << States[SI].Name << "\",\"results\":[";
    for (size_t B = 0; B < All[SI].Times.size(); ++B) {
      const TimedRun &R = All[SI].Times[B];
      if (B)
        Os << ',';
      Os << "{\"bench\":\"" << (B < Names.size() ? Names[B] : "?")
         << "\",\"ok\":" << (R.Ok ? "true" : "false")
         << ",\"cpu_sec\":" << R.CpuSec << ",\"wall_sec\":" << R.WallSec
         << "}";
    }
    Os << "],\"telemetry\":" << Telemetry::toJson(All[SI].Snap) << "}";
  }
  Os << "]";
  // When the sampling profiler ran, the accumulated cross-state profile
  // rides along in the result file.
  if (!benchProfile().empty())
    Os << ",\"profile\":" << benchProfile().toJson();
  Os << "}";
  return static_cast<bool>(Os);
}

} // namespace mst

#endif // MST_BENCH_BENCHSUPPORT_H
