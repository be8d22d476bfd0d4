//===-- objmem/GcWork.cpp - Rules every heap walker shares ----------------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "objmem/GcWork.h"

#include "objmem/ObjectMemory.h"
#include "support/Assert.h"

using namespace mst;

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
