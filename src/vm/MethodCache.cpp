//===-- vm/MethodCache.cpp - Method lookup caches ---------------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "vm/MethodCache.h"

#include "objmem/Safepoint.h"
#include "support/Assert.h"
#include "vkernel/Delay.h"

using namespace mst;

void RwSpinLock::lockShared() {
  if (!Enabled)
    return;
  unsigned Spins = 0;
  for (;;) {
    int32_t S = State.load(std::memory_order_relaxed);
    if (S >= 0 &&
        State.compare_exchange_weak(S, S + 1, std::memory_order_acquire))
      return;
    if (++Spins >= 256) {
      Spins = 0;
      vkDelay(0);
    }
  }
}

void RwSpinLock::lockExclusive() {
  if (!Enabled)
    return;
  unsigned Spins = 0;
  for (;;) {
    int32_t Expected = 0;
    if (State.compare_exchange_weak(Expected, -1,
                                    std::memory_order_acquire))
      return;
    if (++Spins >= 256) {
      Spins = 0;
      vkDelay(0);
    }
  }
}

MethodCache::MethodCache(MethodCacheKind Kind, unsigned NumInterpreters,
                         bool LocksEnabled)
    : Kind(Kind), GlobalLock(LocksEnabled) {
  unsigned N = Kind == MethodCacheKind::Replicated ? NumInterpreters : 1;
  assert(N > 0 && "need at least one cache table");
  for (unsigned I = 0; I < N; ++I)
    Tables.push_back(std::make_unique<MethodCacheTable>());
}

bool MethodCache::lookup(unsigned InterpId, Oop Cls, Oop Selector,
                         Oop &Method, Oop &DefiningClass) {
  const MethodCacheTable::Entry *E = nullptr;
  if (Kind == MethodCacheKind::Replicated) {
    assert(InterpId < Tables.size() && "interpreter id out of range");
    E = Tables[InterpId]->lookup(Cls, Selector);
  } else {
    GlobalLock.lockShared();
    E = Tables[0]->lookup(Cls, Selector);
    if (E) {
      // Copy out under the read lock; the entry may be overwritten after
      // we release it.
      Method = E->Method;
      DefiningClass = E->DefiningClass;
      GlobalLock.unlockShared();
      Stats.Hits.add();
      return true;
    }
    GlobalLock.unlockShared();
    Stats.Misses.add();
    return false;
  }
  if (E) {
    Method = E->Method;
    DefiningClass = E->DefiningClass;
    Stats.Hits.add();
    return true;
  }
  Stats.Misses.add();
  return false;
}

void MethodCache::insert(unsigned InterpId, Oop Cls, Oop Selector,
                         Oop Method, Oop DefiningClass) {
  if (Kind == MethodCacheKind::Replicated) {
    Tables[InterpId]->insert(Cls, Selector, Method, DefiningClass);
    return;
  }
  GlobalLock.lockExclusive();
  Tables[0]->insert(Cls, Selector, Method, DefiningClass);
  GlobalLock.unlockExclusive();
}

void MethodCache::flushAll() {
  // Called with the world stopped (scavenge hook) or from the installer
  // thread; exclusive access either way.
  GlobalLock.lockExclusive();
  for (auto &T : Tables)
    T->clear();
  GlobalLock.unlockExclusive();
}

void MethodCache::flushSelector(Oop Selector) {
  if (Kind == MethodCacheKind::Replicated && WorldStop) {
    // Each interpreter fills its own table without a lock. A doSend has
    // no safepoint between its lookup and its insert, so with the world
    // stopped no stale entry can outlive the flush.
    while (!WorldStop->requestStopTheWorld()) {
    }
    for (auto &T : Tables)
      T->removeSelector(Selector);
    WorldStop->resume();
    return;
  }
  GlobalLock.lockExclusive();
  for (auto &T : Tables)
    T->removeSelector(Selector);
  GlobalLock.unlockExclusive();
}
