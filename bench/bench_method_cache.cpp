//===-- bench/bench_method_cache.cpp - §3.2 method-cache ablation ---------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces the paper's §3.2 method-cache experience: "We originally
/// applied a serialization strategy for the method cache, using a
/// two-level locking scheme to allow multiple readers. When the system
/// was finally up and running, however, we found that contention for the
/// lock was causing it to run much too slowly. Replicating the cache on a
/// per-processor basis solved the problem."
///
/// Workload: a send-storm (every send consults the cache) run solo and
/// against four send-heavy competitors, for both cache organizations,
/// over 1..k interpreters.
///
/// Expected shape: GlobalLocked degrades sharply as competitors are
/// added; Replicated stays near its solo time.
///
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

using namespace mst;

namespace {

// printOn: runs the Smalltalk digit loop; SmallInteger>>printString is
// a primitive.
const char *SendStorm =
    "| p | p := Point x: 1 y: 2. 1 to: %N% do: [:i | p printString. i "
    "printOn: (WriteStream on: (String new: 16)). p x. p y. (p + p) x]";

std::string stormSource(int N) {
  std::string S = SendStorm;
  size_t Pos = S.find("%N%");
  S.replace(Pos, 3, std::to_string(N));
  return S;
}

double timedStorm(VirtualMachine &VM, int N) {
  TimedRun R = runTimedWorkload(VM, stormSource(N), 600.0);
  return R.Ok ? R.CpuSec : -1.0;
}

struct Result {
  double Solo = -1.0;
  double Contended = -1.0;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
};

Result measure(MethodCacheKind Kind, int N) {
  VmConfig C = VmConfig::multiprocessor(msInterpreters());
  C.CacheKind = Kind;
  VirtualMachine VM(C);
  bootstrapImage(VM);
  setupMacroWorkload(VM);
  VM.startInterpreters();

  Result R;
  R.Solo = timedStorm(VM, N);
  forkCompetitors(VM, 4,
                  "[true] whileTrue: [(Point x: 5 y: 6) printString]",
                  "StormCompetitors");
  R.Contended = timedStorm(VM, N);
  terminateCompetitors(VM, "StormCompetitors");
  R.Hits = VM.cache().hits();
  R.Misses = VM.cache().misses();
  benchProfileFold(VM);
  VM.shutdown();
  return R;
}

} // namespace

int main(int argc, char **argv) {
  BenchFlags Flags = parseBenchFlags(argc, argv);
  int N = static_cast<int>(30000 * benchScale(1.0));
  std::printf("Method lookup cache: two-level-locked global cache vs "
              "per-interpreter replication (paper §3.2)\n\n");

  Result Locked = measure(MethodCacheKind::GlobalLocked, N);
  Result Repl = measure(MethodCacheKind::Replicated, N);

  TextTable T;
  T.setHeader({"cache policy", "solo (s)", "4 busy (s)", "overhead",
               "hit rate"});
  auto Row = [&](const char *Name, const Result &R) {
    double Over =
        R.Solo > 0 ? (R.Contended / R.Solo - 1.0) * 100.0 : 0.0;
    double HitRate = R.Hits + R.Misses
                         ? 100.0 * static_cast<double>(R.Hits) /
                               static_cast<double>(R.Hits + R.Misses)
                         : 0.0;
    T.addRow({Name, formatDouble(R.Solo, 3), formatDouble(R.Contended, 3),
              formatDouble(Over, 1) + "%",
              formatDouble(HitRate, 1) + "%"});
  };
  Row("GlobalLocked (two-level lock)", Locked);
  Row("Replicated (per-interpreter)", Repl);
  std::printf("%s\n", T.render().c_str());
  std::printf("Expected: the locked cache runs 'much too slowly' under "
              "competition; replication solves it.\n");
  finishBenchFlags(Flags, Telemetry::snapshot());
  return 0;
}
