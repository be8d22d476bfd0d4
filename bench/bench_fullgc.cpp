//===-- bench/bench_fullgc.cpp - Full-collection pause benchmarks ---------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two experiments on the mark-sweep collector:
///
/// 1. Micro: the pause of one full collection over a heap with a
///    substantial live old graph plus batches of old garbage.
///
/// 2. Macro: the Table 2 suite under tenuring pressure (small eden,
///    early tenuring, a low full-GC threshold), full GC on vs. off.
///    With the collector on, old space stays bounded and the run pays
///    for it in `gc.full.pause`; with it off, tenured garbage
///    accumulates for the life of the run.
///
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

#include "objmem/ObjectMemory.h"

using namespace mst;

namespace {

/// The micro experiment's result.
struct MicroRow {
  uint64_t Collections;
  double AvgPauseMs;
  double MaxPauseMs;
  uint64_t LiveBytes;
  uint64_t SweptBytes;
};

/// Builds a live old graph of \p LiveObjs linked 8-slot objects, then
/// runs \p Rounds explicit collections, re-littering old space with
/// \p GarbageObjs dead objects before each. Only the collector's own
/// pause shows up: no interpreters, no competing mutators.
MicroRow measureMicro(int LiveObjs, int GarbageObjs, int Rounds) {
  MemoryConfig MC;
  MC.EdenBytes = 1u << 20;
  MC.SurvivorBytes = 512u << 10;
  MC.OldChunkBytes = 4u << 20;
  MC.FullGcEnabled = false; // collections are explicit: exactly Rounds
  ObjectMemory OM(MC);
  OM.registerMutator("bench");
  Oop Nil = OM.allocateOldPointers(Oop(), 0);
  OM.setNil(Nil);
  Oop Cls = OM.allocateOldPointers(Nil, 0);

  std::vector<Oop> Live(static_cast<size_t>(LiveObjs));
  for (size_t I = 0; I < Live.size(); ++I) {
    Live[I] = OM.allocateOldPointers(Cls, 8);
    if (I) // a long chain: marking must actually chase pointers
      OM.storePointer(Live[I], 0, Live[I - 1]);
  }
  OM.addRootWalker([&Live](const ObjectMemory::OopVisitor &V) {
    for (Oop &R : Live)
      V(&R);
  });

  for (int R = 0; R < Rounds; ++R) {
    for (int I = 0; I < GarbageObjs; ++I)
      OM.allocateOldPointers(Cls, 8);
    OM.fullCollect();
  }

  FullGcStats F = OM.fullGcStatsSnapshot();
  OM.unregisterMutator();
  return MicroRow{F.Collections,
                  F.Collections ? F.TotalPauseSec /
                                      static_cast<double>(F.Collections) *
                                      1000.0
                                : 0.0,
                  F.MaxPauseSec * 1000.0, F.LastLiveBytes, F.SweptBytes};
}

/// One macro run: the Table 2 suite with the memory manager squeezed so
/// the workloads tenure constantly, with the full collector on or off.
struct MacroRun {
  SuiteRun Suite;
  FullGcStats Gc;
  size_t OldUsed = 0;
};

/// The state that squeezes the memory manager, with the full collector
/// on or off.
BenchState tenurePressure(bool FullGcOn) {
  VmConfig C = VmConfig::multiprocessor(msInterpreters());
  C.Memory.EdenBytes = 512u << 10;
  C.Memory.SurvivorBytes = 256u << 10;
  C.Memory.TenureAge = 1; // heavy tenure pressure: survivors go old fast
  C.Memory.FullGcEnabled = FullGcOn;
  // The bootstrapped image itself lives in a few hundred KB of old space;
  // a 1M trigger means the tenured churn from the workloads fires the
  // collector repeatedly rather than never.
  C.Memory.FullGcThresholdBytes = 1u << 20;
  // The Table 2 workloads themselves tenure little; the pressure comes
  // from a competitor that keeps refilling a rolling window of arrays.
  // With TenureAge 1 every window entry that survives a scavenge goes
  // old, and its eviction strands it there as tenured garbage — the
  // population only the full collector can reclaim.
  return {FullGcOn ? "fullgc on" : "fullgc off", C, 1,
          "| keep | keep := Array new: 256. [true] whileTrue: "
          "[1 to: 256 do: [:i | keep at: i put: (Array new: 16)]]"};
}

bool writeJson(const std::string &Path, double Scale, const MicroRow &Micro,
               const MacroRun &On, const MacroRun &Off) {
  std::ofstream Os(Path, std::ios::binary | std::ios::trunc);
  if (!Os)
    return false;
  Os << "{\"bench\":\"fullgc\",\"scale\":" << Scale
     << ",\"micro\":{\"collections\":" << Micro.Collections
     << ",\"avg_pause_ms\":" << Micro.AvgPauseMs
     << ",\"max_pause_ms\":" << Micro.MaxPauseMs
     << ",\"live_bytes\":" << Micro.LiveBytes
     << ",\"swept_bytes\":" << Micro.SweptBytes << "},\"macro\":[";
  const auto Names = macroShortNames();
  auto EmitMacro = [&Os, &Names](const char *Mode, const MacroRun &M) {
    Os << "{\"fullgc\":\"" << Mode << "\",\"collections\":"
       << M.Gc.Collections << ",\"total_pause_sec\":" << M.Gc.TotalPauseSec
       << ",\"old_used_bytes\":" << M.OldUsed << ",\"results\":[";
    for (size_t B = 0; B < M.Suite.Times.size(); ++B) {
      const TimedRun &R = M.Suite.Times[B];
      if (B)
        Os << ',';
      Os << "{\"bench\":\"" << (B < Names.size() ? Names[B] : "?")
         << "\",\"ok\":" << (R.Ok ? "true" : "false")
         << ",\"cpu_sec\":" << R.CpuSec << ",\"wall_sec\":" << R.WallSec
         << "}";
    }
    Os << "],\"telemetry\":" << Telemetry::toJson(M.Suite.Snap) << "}";
  };
  EmitMacro("on", On);
  Os << ',';
  EmitMacro("off", Off);
  Os << "]";
  if (!benchProfile().empty())
    Os << ",\"profile\":" << benchProfile().toJson();
  Os << "}";
  return static_cast<bool>(Os);
}

} // namespace

int main(int argc, char **argv) {
  BenchFlags Flags = parseBenchFlags(argc, argv);
  double Scale = benchScale(1.0);

  std::printf("Full collection: mark-sweep of old space\n\n");

  // --- 1. pause of one collection -------------------------------------
  int LiveObjs = static_cast<int>(40000 * Scale);
  int GarbageObjs = static_cast<int>(80000 * Scale);
  const int Rounds = 5;
  std::printf("Micro: %d live objects (linked), %d dead per round, "
              "%d collections\n",
              LiveObjs, GarbageObjs, Rounds);
  MicroRow Micro = measureMicro(LiveObjs, GarbageObjs, Rounds);
  TextTable T;
  T.setHeader({"collections", "avg pause (ms)", "max pause (ms)",
               "live bytes", "swept bytes"});
  T.addRow({std::to_string(Micro.Collections),
            formatDouble(Micro.AvgPauseMs, 3),
            formatDouble(Micro.MaxPauseMs, 3),
            std::to_string(Micro.LiveBytes),
            std::to_string(Micro.SweptBytes)});
  std::printf("%s", T.render().c_str());

  // --- 2. Table 2 suite under tenuring pressure -----------------------
  std::printf("\nMacro suite under tenuring pressure (512K eden, "
              "TenureAge 1, 1M trigger):\n\n");
  MacroRun On, Off;
  for (bool FullGcOn : {true, false}) {
    MacroRun &Run = FullGcOn ? On : Off;
    Run.Suite = runMacroSuite(tenurePressure(FullGcOn), Scale, 1,
                              [&Run](VirtualMachine &VM) {
                                Run.Gc = VM.memory().fullGcStatsSnapshot();
                                Run.OldUsed = VM.memory().oldSpaceUsed();
                              });
  }

  TextTable M;
  M.setHeader({"benchmark", "fullgc on (s)", "fullgc off (s)"});
  const auto Names = macroShortNames();
  for (size_t B = 0; B < Names.size(); ++B)
    M.addRow({Names[B],
              On.Suite.Times[B].Ok ? formatDouble(On.Suite.Times[B].CpuSec, 3)
                                   : "fail",
              Off.Suite.Times[B].Ok
                  ? formatDouble(Off.Suite.Times[B].CpuSec, 3)
                  : "fail"});
  std::printf("%s", M.render().c_str());
  std::printf("fullgc on:  %llu collections, %.3f ms total pause, "
              "old used %zu B at end\n",
              static_cast<unsigned long long>(On.Gc.Collections),
              On.Gc.TotalPauseSec * 1000.0, On.OldUsed);
  std::printf("fullgc off: old used %zu B at end (garbage never "
              "reclaimed)\n",
              Off.OldUsed);
  for (const auto &H : On.Suite.Snap.Histograms)
    if (H.Name == "gc.full.pause")
      std::printf("gc.full.pause: n=%llu p50=%.1fus p95=%.1fus p99=%.1fus "
                  "max=%.1fus\n",
                  static_cast<unsigned long long>(H.Count), H.P50 / 1e3,
                  H.P95 / 1e3, H.P99 / 1e3, H.Max / 1e3);

  if (!Flags.JsonOut.empty()) {
    if (!writeJson(Flags.JsonOut, Scale, Micro, On, Off))
      std::fprintf(stderr, "failed to write %s\n", Flags.JsonOut.c_str());
    else
      std::printf("results written to %s\n", Flags.JsonOut.c_str());
  }
  finishBenchFlags(Flags, On.Suite.Snap);
  return 0;
}
