//===-- bench/bench_spinlock.cpp - §3.1 spin-lock microbenchmarks ---------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Microbenchmarks of the V-style spin lock (test-and-set with Delay
/// backoff, paper §3.1): the cost of the serialization strategy itself,
/// and of the baseline-BS mode in which every lock is compiled to a
/// no-op branch.
///
//===----------------------------------------------------------------------===//

#include <benchmark/benchmark.h>

#include "vkernel/SpinLock.h"

using namespace mst;

namespace {

void BM_SpinLockUncontended(benchmark::State &State) {
  SpinLock Lock(true);
  for (auto _ : State) {
    Lock.lock();
    benchmark::DoNotOptimize(&Lock);
    Lock.unlock();
  }
}
BENCHMARK(BM_SpinLockUncontended);

void BM_SpinLockDisabled(benchmark::State &State) {
  // Baseline-BS mode: the lock is present but compiled to a branch.
  SpinLock Lock(false);
  for (auto _ : State) {
    Lock.lock();
    benchmark::DoNotOptimize(&Lock);
    Lock.unlock();
  }
}
BENCHMARK(BM_SpinLockDisabled);

void BM_SpinLockContended(benchmark::State &State) {
  static SpinLock Lock(true);
  static uint64_t Shared = 0;
  for (auto _ : State) {
    Lock.lock();
    ++Shared;
    benchmark::DoNotOptimize(Shared);
    Lock.unlock();
  }
  if (State.thread_index() == 0)
    State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_SpinLockContended)->Threads(1)->Threads(2)->Threads(4);

void BM_RememberedSetStyleCheck(benchmark::State &State) {
  // The write barrier's fast path: flag test without the lock.
  SpinLock Lock(true);
  uint64_t Flagged = 1;
  for (auto _ : State) {
    if (!Flagged) {
      Lock.lock();
      Flagged = 1;
      Lock.unlock();
    }
    benchmark::DoNotOptimize(Flagged);
  }
}
BENCHMARK(BM_RememberedSetStyleCheck);

} // namespace

BENCHMARK_MAIN();
