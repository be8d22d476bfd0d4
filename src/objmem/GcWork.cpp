//===-- objmem/GcWork.cpp - Work engine shared by both collectors ---------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "objmem/GcWork.h"

#include "objmem/ObjectMemory.h"
#include "support/Assert.h"
#include "vkernel/Chaos.h"

using namespace mst;
using namespace mst::gc;

uint32_t gc::liveSlots(const ObjectHeader *Obj) {
  switch (Obj->Format) {
  case ObjectFormat::Pointers:
    return Obj->SlotCount;
  case ObjectFormat::Bytes:
    return 0;
  case ObjectFormat::Context: {
    Oop Sp = Obj->slots()[ContextSpSlotIndex];
    if (!Sp.isSmallInt())
      return Obj->SlotCount;
    intptr_t Top = Sp.smallInt();
    if (Top < 0)
      return 0;
    uint32_t Live = static_cast<uint32_t>(Top) + 1;
    return Live < Obj->SlotCount ? Live : Obj->SlotCount;
  }
  case ObjectFormat::Free:
    // Free blocks are unreachable; no heap walker should ask.
    break;
  }
  MST_UNREACHABLE("unknown object format");
}

bool gc::refsYoung(const ObjectHeader *Obj) {
  uint32_t N = liveSlots(Obj);
  const Oop *Slots = Obj->slots();
  for (uint32_t I = 0; I < N; ++I)
    if (Slots[I].isPointer() && !Slots[I].object()->isOld())
      return true;
  return false;
}

unsigned gc::workerCount(unsigned Configured, bool MpSupport) {
  return MpSupport && Configured > 1 ? Configured : 1;
}

WorkStacks::WorkStacks(unsigned NumWorkers, const char *StealPoint)
    : StealPoint(StealPoint) {
  for (unsigned W = 0; W < NumWorkers; ++W)
    Stacks.emplace_back(/*Shared=*/NumWorkers > 1);
}

ObjectHeader *WorkStacks::steal(unsigned W) {
  // Take the front half of a sibling's stack: the owner pops the back, so
  // the stolen entries are the coldest.
  chaos::point(StealPoint);
  for (unsigned I = 1; I < workers(); ++I) {
    Stack &Victim = Stacks[(W + I) % workers()];
    std::vector<ObjectHeader *> Loot;
    {
      SpinLockGuard Guard(Victim.Lock);
      if (Victim.Items.empty())
        continue;
      size_t Take = (Victim.Items.size() + 1) / 2;
      Loot.assign(Victim.Items.begin(), Victim.Items.begin() + Take);
      Victim.Items.erase(Victim.Items.begin(), Victim.Items.begin() + Take);
    }
    ObjectHeader *Obj = Loot.back();
    Loot.pop_back();
    if (!Loot.empty()) {
      Stack &Me = Stacks[W];
      SpinLockGuard Guard(Me.Lock);
      Me.Items.insert(Me.Items.end(), Loot.begin(), Loot.end());
    }
    return Obj;
  }
  return nullptr;
}
