//===-- vm/FreeContextList.cpp - Free stack-frame lists ---------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "vm/FreeContextList.h"

#include "objmem/ObjectHeader.h"
#include "support/Assert.h"
#include "vkernel/Chaos.h"
#include "vm/ObjectModel.h"

using namespace mst;

FreeContextPool::FreeContextPool(FreeContextKind Kind,
                                 unsigned NumInterpreters,
                                 bool LocksEnabled)
    : Kind(Kind) {
  bool Replicated = Kind == FreeContextKind::Replicated;
  unsigned N = Replicated ? NumInterpreters : 1;
  assert(N > 0 && "need at least one free list");
  // A replica is touched only by its own interpreter, and flushAll runs
  // inside the scavenge pause or on a VM no interpreter runs yet.
  for (unsigned I = 0; I < N; ++I)
    PerInterp.push_back(std::make_unique<Bins>(LocksEnabled && !Replicated));
}

Oop FreeContextPool::take(unsigned InterpId, uint32_t Slots) {
  assert(Slots <= LargeContextSlots && "oversized context request");
  chaos::point("freectx.take");
  Bins &B = binsFor(InterpId);
  std::vector<Oop> &List = Slots <= SmallContextSlots ? B.Small : B.Large;
  SpinLockGuard Guard(B.Lock);
  if (List.empty())
    return Oop();
  Oop Ctx = List.back();
  List.pop_back();
  Reuses.add();
  return Ctx;
}

void FreeContextPool::give(unsigned InterpId, Oop Ctx) {
  ObjectHeader *H = Ctx.object();
  assert(H->Format == ObjectFormat::Context && "recycling a non-context");
  assert(!H->isEscaped() && "recycling an escaped context");
  // Old (tenured) contexts stay out of the pool: reusing them would demand
  // remembered-set maintenance on every reuse for no benefit.
  if (H->isOld())
    return;
  chaos::point("freectx.give");
  Bins &B = binsFor(InterpId);
  std::vector<Oop> &List =
      H->SlotCount <= SmallContextSlots ? B.Small : B.Large;
  SpinLockGuard Guard(B.Lock);
  List.push_back(Ctx);
  Returns.add();
}

void FreeContextPool::flushAll() {
  for (auto &B : PerInterp) {
    SpinLockGuard Guard(B->Lock);
    B->Small.clear();
    B->Large.clear();
  }
}
