//===-- bench/bench_table2.cpp - Table 2 and Figure 2 ---------------------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates **Table 2: Preliminary performance results** — the eight
/// macro benchmarks in four system states:
///
///   Baseline BS on multiprocessor   (no multiprocessor support)
///   MS on multiprocessor            (one idle Process)
///   MS with four idle Processes
///   MS with four busy Processes
///
/// then three what-if rows: MS with four busy Processes again, each with
/// one policy changed — the shared free-context list and the
/// two-level-locked global method cache that MS replaced (§3.2), and the
/// replicated new space (TLABs) the paper proposes (§4). Each state
/// prints its overhead over baseline BS next to its own telemetry: the
/// share of its alloc, freectx and sched lock acquisitions that were
/// contended, and its method-cache hit rate.
///
/// Then **Figure 2: Preliminary overhead measurements — normalized**
/// from the paper's four states: every benchmark's processor time
/// divided by its baseline-BS time, rendered as ASCII bars. Last, the
/// paper's §6 instrumentation report, read from the busy state's VM.
///
/// The primary metric is **processor time attributed to the benchmark
/// Process** (thread-CPU across its slices). On the Firefly each Process
/// effectively had its own processor, so the paper's elapsed seconds are
/// processor seconds; on hosts with fewer CPUs than interpreters, wall
/// clock is inflated by OS time-sharing and is reported separately.
///
/// Paper expectations (shape, not absolute numbers):
///  - MS vs baseline: static overhead < 15% worst case.
///  - Four idle: roughly +30% worst case over baseline.
///  - Four busy: up to ~65% worst case, ~40% average over baseline.
///  - A shared free-context list: up to 160% worst case (§3.2).
///  - A two-level-locked global cache: "much too slowly" (§3.2).
///  - Differences under 3% are noise ("should be discounted").
///  - Figure 2's bars grow from baseline (1.00) through MS and MS+idle to
///    MS+busy for most benchmarks.
///
//===----------------------------------------------------------------------===//

#include <algorithm>

#include "BenchSupport.h"

using namespace mst;

namespace {

/// \returns counter \p Name's value in \p S, or 0 when nothing registered it.
uint64_t counterIn(const Telemetry::Snapshot &S, const std::string &Name) {
  for (const auto &[N, V] : S.Counters)
    if (N == Name)
      return V;
  return 0;
}

/// \returns \p Part as a percentage of \p Whole, or "-" when nothing was
/// counted (baseline BS takes no lock).
std::string share(uint64_t Part, uint64_t Whole) {
  return Whole ? formatDouble(100.0 * static_cast<double>(Part) /
                                  static_cast<double>(Whole),
                              1) +
                     "%"
               : "-";
}

std::string signedPercent(double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof Buf, "%+.1f%%", V);
  return Buf;
}

} // namespace

int main(int argc, char **argv) {
  BenchFlags Flags = parseBenchFlags(argc, argv);
  double Scale = benchScale(3.0);
  unsigned Repeats = 3;

  std::printf("Table 2: Preliminary performance results\n");
  std::printf("workload scale %g, %u interpreters for MS states, host "
              "CPUs %u, min of %u runs\n\n",
              Scale, msInterpreters(),
              std::thread::hardware_concurrency(), Repeats);

  // The paper's four states, then the busy state with one policy changed
  // per row. MS always carries one idle Process (its "uniprocessor
  // mode"); the contended states carry four idle or busy ones.
  const VmConfig Ms = VmConfig::multiprocessor(msInterpreters());
  VmConfig SharedList = Ms, GlobalCache = Ms, Tlab = Ms;
  SharedList.FreeCtxKind = FreeContextKind::Shared;
  GlobalCache.CacheKind = MethodCacheKind::GlobalLocked;
  Tlab.Memory.Allocator = AllocatorKind::Tlab;
  const std::string Idle = idleProcessSource(), Busy = busyProcessSource();
  const std::vector<BenchState> States = {
      {"Baseline BS on multiprocessor", VmConfig::baselineBS(), 0, ""},
      {"MS on multiprocessor", Ms, 1, Idle},
      {"MS with four idle Processes", Ms, 4, Idle},
      {"MS with four busy Processes", Ms, 4, Busy},
      {"MS busy, shared free-context list", SharedList, 4, Busy},
      {"MS busy, global locked method cache", GlobalCache, 4, Busy},
      {"MS busy, TLAB allocation", Tlab, 4, Busy}};
  const size_t PaperStates = 4, BusyState = 3;

  std::vector<SuiteRun> All;
  std::string Report; // paper §6, from the busy state's own VM
  for (size_t SI = 0; SI < States.size(); ++SI)
    All.push_back(runMacroSuite(
        States[SI], Scale, Repeats, [&](VirtualMachine &VM) {
          if (SI == BusyState)
            Report = VM.statisticsReport() + "\n" + VM.telemetryReport();
        }));

  auto PrintTable = [&](const char *Title, auto Get) {
    std::printf("%s\n", Title);
    TextTable Table;
    std::vector<std::string> Header = {"State"};
    for (const std::string &N : macroShortNames())
      Header.push_back(N);
    Table.setHeader(Header);
    for (size_t SI = 0; SI < All.size(); ++SI) {
      std::vector<std::string> Row = {States[SI].Name};
      for (const TimedRun &R : All[SI].Times) {
        double T = Get(R);
        Row.push_back(!R.Ok || T < 0 ? "FAIL" : formatDouble(T, 3));
      }
      Table.addRow(Row);
    }
    std::printf("%s\n", Table.render().c_str());
  };

  PrintTable("Processor seconds per benchmark (the paper's metric):",
             [](const TimedRun &R) { return R.CpuSec; });
  PrintTable("Wall-clock seconds (inflated by time-sharing when host "
             "CPUs < interpreters):",
             [](const TimedRun &R) { return R.WallSec; });

  // Overhead against the baseline, as the paper discusses it, beside the
  // counts that explain it.
  const std::vector<TimedRun> &Base = All[0].Times;
  TextTable Summary;
  Summary.setHeader({"State", "worst case", "average", "alloc contended",
                     "freectx contended", "sched contended",
                     "cache hit rate"});
  for (size_t SI = 0; SI < All.size(); ++SI) {
    double Worst = 0.0, Sum = 0.0;
    size_t N = 0;
    for (size_t B = 0; B < Base.size(); ++B) {
      const TimedRun &Run = All[SI].Times[B];
      // Skip benchmarks whose baseline is too small to be significant.
      if (!Base[B].Ok || !Run.Ok || Base[B].CpuSec < 0.005)
        continue;
      double Over = Run.CpuSec / Base[B].CpuSec - 1.0;
      Worst = std::max(Worst, Over);
      Sum += Over;
      ++N;
    }
    const Telemetry::Snapshot &S = All[SI].Snap;
    auto Contended = [&S](const std::string &Lock) {
      return share(counterIn(S, "lock." + Lock + ".contended"),
                   counterIn(S, "lock." + Lock + ".acquisitions"));
    };
    uint64_t Hits = counterIn(S, "methodcache.hits");
    Summary.addRow({States[SI].Name, signedPercent(Worst * 100.0),
                    signedPercent(N ? Sum / N * 100.0 : 0.0),
                    Contended("alloc"), Contended("freectx"),
                    Contended("sched"),
                    share(Hits, Hits + counterIn(S, "methodcache.misses"))});
  }
  std::printf("Processor-time overhead relative to baseline BS (paper: "
              "<15%% static,\n~+30%% idle, 65%%/40%% busy; a shared "
              "free-context list 160%% worst case; a\nlocked global cache "
              "\"much too slowly\"), with the share of each state's lock\n"
              "acquisitions that were contended and its method-cache hit "
              "rate:\n%s",
              Summary.render().c_str());
  std::printf("\nNote: differences of less than 3%% are not significant "
              "(paper Table 2 footnote).\n");

  // Figure 2: the paper's four states' processor seconds, normalized per
  // benchmark to baseline BS.
  const auto Names = macroShortNames();
  auto Ratio = [&](size_t SI, size_t B) {
    const TimedRun &Run = All[SI].Times[B];
    return Base[B].Ok && Run.Ok && Base[B].CpuSec > 0 && Run.CpuSec > 0
               ? Run.CpuSec / Base[B].CpuSec
               : 0.0;
  };
  double MaxRatio = 1.0;
  for (size_t SI = 1; SI < PaperStates; ++SI)
    for (size_t B = 0; B < Names.size(); ++B)
      MaxRatio = std::max(MaxRatio, Ratio(SI, B));
  std::printf("\nFigure 2: Preliminary overhead measurements - "
              "normalized\n\n");
  for (size_t B = 0; B < Names.size(); ++B) {
    std::printf("%s\n", Names[B].c_str());
    for (size_t SI = 0; SI < PaperStates; ++SI)
      std::printf("  %-30s %5.2f |%s\n", States[SI].Name.c_str(),
                  Ratio(SI, B), asciiBar(Ratio(SI, B), MaxRatio, 48).c_str());
    std::printf("\n");
  }
  std::printf("Processor time normalized to the baseline BS time for "
              "each benchmark (1.00).\n");

  std::printf("\n%s", Report.c_str());

  if (!Flags.JsonOut.empty() &&
      !writeBenchJson(Flags.JsonOut, Scale, States, All))
    std::fprintf(stderr, "failed to write %s\n", Flags.JsonOut.c_str());
  finishBenchFlags(Flags, All[BusyState].Snap);
  return 0;
}
