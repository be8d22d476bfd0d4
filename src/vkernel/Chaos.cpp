//===-- vkernel/Chaos.cpp - Seeded schedule-chaos engine --------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "vkernel/Chaos.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>

#include "support/SplitMix64.h"
#include "vkernel/Delay.h"

using namespace mst;
using namespace mst::chaos;

std::atomic<bool> detail::On{false};
std::atomic<uint32_t> detail::FailArmed{0};

namespace {

/// Engine-wide configuration, published as a pointer to an immutable,
/// deliberately-leaked Config so a thread still perturbing from the
/// previous epoch never races an enable() (a mutable shared Config would
/// be a data race under TSan — in the race *detector's* harness).
/// enable() is per-test-run, so the leak is a few dozen bytes ever.
std::atomic<const Config *> ActiveCfg{nullptr};

const Config &activeConfig() {
  static const Config Defaults;
  const Config *C = ActiveCfg.load(std::memory_order_acquire);
  return C ? *C : Defaults;
}

/// Bumped by every enable() so thread-local streams know to re-derive
/// themselves from the new seed.
std::atomic<uint64_t> Epoch{1};

/// Fallback ordinal source for threads that never called
/// setThreadOrdinal().
std::atomic<uint64_t> NextOrdinal{1u << 20};

std::atomic<uint64_t> Perturbations{0};

/// Per-point hit statistics. Lock-free on purpose: a mutex here would
/// synchronize every pair of threads that cross the same point and hide
/// the races the engine exists to expose. Fixed-capacity open-addressed
/// table keyed by the point-name *pointer* (points are string literals,
/// so one pointer per call site; the catalog dedupes by content).
constexpr size_t PointTableSize = 128; // power of two, >> #injection points
struct PointSlot {
  std::atomic<const char *> Name{nullptr};
  std::atomic<uint64_t> Hits{0};
};
PointSlot PointTable[PointTableSize];

void countPoint(const char *Point) {
  auto Key = reinterpret_cast<uintptr_t>(Point);
  size_t I = (Key >> 3) & (PointTableSize - 1);
  for (size_t Probe = 0; Probe < PointTableSize; ++Probe) {
    PointSlot &S = PointTable[I];
    const char *Cur = S.Name.load(std::memory_order_relaxed);
    if (Cur == Point) {
      S.Hits.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (Cur == nullptr) {
      const char *Expected = nullptr;
      if (S.Name.compare_exchange_strong(Expected, Point,
                                         std::memory_order_relaxed) ||
          Expected == Point) {
        S.Hits.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
    I = (I + 1) & (PointTableSize - 1);
  }
  // Table full: drop the sample (statistics only, never correctness).
}

void resetPoints() {
  for (PointSlot &S : PointTable) {
    S.Name.store(nullptr, std::memory_order_relaxed);
    S.Hits.store(0, std::memory_order_relaxed);
  }
  Perturbations.store(0, std::memory_order_relaxed);
}

/// Mixes two 64-bit values (seed, ordinal) into a stream seed.
uint64_t mixSeed(uint64_t Seed, uint64_t Ordinal) {
  SplitMix64 R(Seed ^ (Ordinal * 0x9e3779b97f4a7c15ULL));
  return R.next();
}

/// Armed fail points. Fixed-capacity like the point table, and matched by
/// *content* (arm site and check site use distinct literals). An entry's
/// Permille is the publication flag: failSlow() loads it acquire and skips
/// zero entries, so the name bytes written before the release store are
/// visible whenever the entry is live. Each hit draws from a stream keyed
/// by (arm seed, hit ordinal) — cross-thread timing decides which thread
/// gets which ordinal, but the fail/pass *sequence* replays by seed.
constexpr size_t MaxFailPoints = 16;
struct FailEntry {
  char Name[48] = {};
  std::atomic<uint32_t> Permille{0};
  uint64_t Seed = 0;
  std::atomic<uint64_t> Draws{0};
  std::atomic<uint64_t> Fails{0};
};
FailEntry FailTable[MaxFailPoints];

FailEntry *findFailEntry(const char *Point) {
  for (FailEntry &E : FailTable)
    if (E.Name[0] && std::strcmp(E.Name, Point) == 0)
      return &E;
  return nullptr;
}

/// The calling thread's decision stream, re-derived whenever the engine
/// epoch changes (i.e. after every enable()).
struct ThreadStream {
  uint64_t State = 0;
  uint64_t SeenEpoch = 0;
  uint64_t Ordinal = 0;
  bool OrdinalPinned = false;
};

ThreadStream &threadStream() {
  thread_local ThreadStream S;
  return S;
}

uint64_t drawFrom(ThreadStream &S) {
  // The acquire load of Epoch synchronizes with enable()'s release
  // increment, so a thread that observes the new epoch also observes the
  // ActiveCfg store that preceded it.
  uint64_t E = Epoch.load(std::memory_order_acquire);
  if (S.SeenEpoch != E) {
    if (!S.OrdinalPinned)
      S.Ordinal = NextOrdinal.fetch_add(1, std::memory_order_relaxed);
    S.State = mixSeed(activeConfig().Seed, S.Ordinal);
    S.SeenEpoch = E;
  }
  SplitMix64 R(S.State);
  uint64_t V = R.next();
  S.State += 0x9e3779b97f4a7c15ULL; // advance the underlying stream
  return V;
}

} // namespace

Action detail::perturb(const char *Point) {
  countPoint(Point);
  ThreadStream &S = threadStream();
  uint64_t V = drawFrom(S);
  uint32_t Roll = static_cast<uint32_t>(V % 1000);
  const Config &C = activeConfig();
  Action A = Action::None;
  if (Roll < C.YieldPermille)
    A = Action::Yield;
  else if (Roll < C.YieldPermille + C.SleepPermille)
    A = Action::Sleep;
  else if (Roll < C.YieldPermille + C.SleepPermille + C.DelayPermille)
    A = Action::Delay;

  switch (A) {
  case Action::None:
    return A;
  case Action::Yield:
    std::this_thread::yield();
    break;
  case Action::Sleep: {
    // Duration comes from the same stream, so it replays too.
    uint32_t Max = C.MaxSleepMicros ? C.MaxSleepMicros : 1;
    uint64_t Micros = 1 + (V >> 10) % Max;
    std::this_thread::sleep_for(std::chrono::microseconds(Micros));
    break;
  }
  case Action::Delay:
    vkDelay(0);
    break;
  }
  Perturbations.fetch_add(1, std::memory_order_relaxed);
  return A;
}

bool detail::failSlow(const char *Point) {
  for (FailEntry &E : FailTable) {
    uint32_t Pm = E.Permille.load(std::memory_order_acquire);
    if (Pm == 0 || std::strcmp(E.Name, Point) != 0)
      continue;
    countPoint(Point);
    uint64_t Ordinal = E.Draws.fetch_add(1, std::memory_order_relaxed);
    SplitMix64 R(E.Seed ^ (Ordinal * 0x9e3779b97f4a7c15ULL));
    if (R.next() % 1000 >= Pm)
      return false;
    E.Fails.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void chaos::armFail(const char *Point, uint32_t Permille, uint64_t Seed) {
  // Arm/disarm are test-setup operations; serialize them against each
  // other (failSlow stays lock-free — the Permille store publishes).
  static std::mutex ArmMutex;
  std::lock_guard<std::mutex> Guard(ArmMutex);
  FailEntry *E = findFailEntry(Point);
  if (!E) {
    for (FailEntry &Slot : FailTable)
      if (!Slot.Name[0]) {
        E = &Slot;
        break;
      }
    if (!E)
      return; // table full: drop (test-infrastructure capacity, not logic)
  }
  E->Permille.store(0, std::memory_order_release); // quiesce while rewriting
  std::strncpy(E->Name, Point, sizeof(E->Name) - 1);
  E->Name[sizeof(E->Name) - 1] = 0;
  E->Seed = Seed;
  E->Draws.store(0, std::memory_order_relaxed);
  E->Fails.store(0, std::memory_order_relaxed);
  E->Permille.store(Permille > 1000 ? 1000 : Permille,
                    std::memory_order_release);
  uint32_t Armed = 0;
  for (FailEntry &Slot : FailTable)
    if (Slot.Permille.load(std::memory_order_relaxed))
      ++Armed;
  detail::FailArmed.store(Armed, std::memory_order_release);
}

void chaos::disarmFail() {
  detail::FailArmed.store(0, std::memory_order_relaxed);
  for (FailEntry &E : FailTable)
    E.Permille.store(0, std::memory_order_release);
}

uint64_t chaos::failCount(const char *Point) {
  FailEntry *E = findFailEntry(Point);
  return E ? E->Fails.load(std::memory_order_relaxed) : 0;
}

bool chaos::armFailFromEnv(uint64_t Seed) {
  struct {
    const char *Env;
    const char *Point;
  } Map[] = {{"MST_CHAOS_ALLOC_FAIL_PM", "alloc.fail"},
             {"MST_CHAOS_GROW_FAIL_PM", "oldspace.grow.fail"},
             {"MST_CHAOS_STALL_PM", "watchdog.stall"},
             {"MST_CHAOS_IO_WRITE_FAIL_PM", "io.write.fail"},
             {"MST_CHAOS_IO_FSYNC_FAIL_PM", "io.fsync.fail"},
             {"MST_CHAOS_SNAPSHOT_TRUNCATE_PM", "snapshot.truncate"},
             {"MST_CHAOS_SHARD_CRASH_PM", "serve.shard.crash"},
             {"MST_CHAOS_REQUEST_STALL_PM", "serve.request.stall"},
             {"MST_CHAOS_JOURNAL_APPEND_FAIL_PM", "journal.append.fail"},
             {"MST_CHAOS_JOURNAL_FSYNC_FAIL_PM", "journal.fsync.fail"},
             {"MST_CHAOS_JOURNAL_TEAR_PM", "journal.tear"},
             {"MST_CHAOS_JOURNAL_TRUNCATE_FAIL_PM", "journal.truncate.fail"}};
  bool Any = false;
  for (auto &M : Map) {
    const char *S = std::getenv(M.Env);
    if (!S || !*S)
      continue;
    armFail(M.Point, static_cast<uint32_t>(std::strtoul(S, nullptr, 0)),
            Seed);
    Any = true;
  }
  return Any;
}

void chaos::enable(const Config &C) {
  // Quiesce the fast path, publish the new config + epoch, re-arm.
  detail::On.store(false, std::memory_order_relaxed);
  ActiveCfg.store(new Config(C), std::memory_order_release); // leaked
  resetPoints();
  Epoch.fetch_add(1, std::memory_order_release);
  detail::On.store(true, std::memory_order_release);
}

void chaos::enableSeed(uint64_t Seed) {
  Config C;
  C.Seed = Seed;
  enable(C);
}

void chaos::disable() {
  detail::On.store(false, std::memory_order_relaxed);
}

bool chaos::enabled() {
  return detail::On.load(std::memory_order_relaxed);
}

Config chaos::config() { return activeConfig(); }

bool chaos::enableFromEnv() {
  const char *SeedStr = std::getenv("MST_CHAOS_SEED");
  if (!SeedStr || !*SeedStr)
    return false;
  Config C;
  C.Seed = std::strtoull(SeedStr, nullptr, 0);
  if (const char *S = std::getenv("MST_CHAOS_YIELD_PM"))
    C.YieldPermille = static_cast<uint32_t>(std::strtoul(S, nullptr, 0));
  if (const char *S = std::getenv("MST_CHAOS_SLEEP_PM"))
    C.SleepPermille = static_cast<uint32_t>(std::strtoul(S, nullptr, 0));
  if (const char *S = std::getenv("MST_CHAOS_DELAY_PM"))
    C.DelayPermille = static_cast<uint32_t>(std::strtoul(S, nullptr, 0));
  if (const char *S = std::getenv("MST_CHAOS_MAX_SLEEP_US"))
    C.MaxSleepMicros = static_cast<uint32_t>(std::strtoul(S, nullptr, 0));
  enable(C);
  armFailFromEnv(C.Seed);
  return true;
}

void chaos::setThreadOrdinal(uint64_t Ordinal) {
  ThreadStream &S = threadStream();
  S.Ordinal = Ordinal;
  S.OrdinalPinned = true;
  S.SeenEpoch = 0; // re-derive from the pinned ordinal at the next point
}

uint64_t chaos::perturbationCount() {
  return Perturbations.load(std::memory_order_relaxed);
}

std::vector<std::pair<std::string, uint64_t>> chaos::pointCounts() {
  std::vector<std::pair<std::string, uint64_t>> Out;
  for (PointSlot &S : PointTable) {
    const char *Name = S.Name.load(std::memory_order_relaxed);
    if (!Name)
      continue;
    uint64_t Hits = S.Hits.load(std::memory_order_relaxed);
    // Several call sites may use distinct literals with equal content;
    // merge by name.
    auto It = std::find_if(Out.begin(), Out.end(),
                           [Name](const auto &P) { return P.first == Name; });
    if (It != Out.end())
      It->second += Hits;
    else
      Out.emplace_back(Name, Hits);
  }
  std::sort(Out.begin(), Out.end());
  return Out;
}

std::vector<std::string> chaos::pointCatalog() {
  std::vector<std::string> Names;
  for (auto &[Name, Hits] : pointCounts())
    Names.push_back(Name);
  return Names;
}
