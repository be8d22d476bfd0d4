//===-- objmem/Scavenger.cpp - Generation Scavenging ------------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "objmem/Scavenger.h"

#include <cstring>

#include "objmem/GcWork.h"
#include "objmem/ObjectMemory.h"
#include "obs/Profiler.h"
#include "support/Assert.h"

using namespace mst;

Scavenger::Scavenger(ObjectMemory &OM)
    : OM(OM), ToSpace(&OM.Survivors[1 - OM.ActiveSurvivor]) {}

ObjectHeader *Scavenger::copyObject(ObjectHeader *Obj) {
  assert(!Obj->isOld() && "only new objects are copied");
  if (Obj->isForwarded())
    return Obj->forwardee();

  size_t Total = Obj->totalBytes();
  uint8_t NewAge = Obj->Age < 255 ? static_cast<uint8_t>(Obj->Age + 1) : 255;
  bool Tenure = NewAge >= OM.Config.TenureAge;

  uint8_t *Dest = nullptr;
  if (!Tenure) {
    Dest = ToSpace->tryBumpAtomic(Total);
    if (!Dest)
      Tenure = true; // Survivor space overflow: tenure early.
  }
  if (Tenure) {
    Dest = OM.Old.allocate(Total);
    if (!Dest) {
      // Old space is at the heap ceiling. The object must still move —
      // eden is about to be reset — so keep it young in the survivor
      // space for another round and let the mutator's recovery ladder
      // deal with the pressure once the world restarts.
      Dest = ToSpace->tryBumpAtomic(Total);
      Tenure = false;
      if (!Dest) {
        // Both refused. Evacuation cannot back out — forwarding pointers
        // are already installed — so overshoot the ceiling rather than
        // wedge: at worst one young generation of live bytes. The ladder
        // refuses mutator allocation while used() sits past the ceiling,
        // so the overshoot drains instead of compounding.
        Dest = OM.Old.allocateOverCeiling(Total);
        Tenure = true;
        OM.OvershootCtr.add(Total);
      }
    }
  }

  auto *Copy = reinterpret_cast<ObjectHeader *>(Dest);
  std::memcpy(static_cast<void *>(Copy), static_cast<const void *>(Obj),
              Total);
  Copy->setRemembered(false);
  Copy->Age = Tenure ? 0 : NewAge;
  if (Tenure) {
    Copy->setOld();
    BytesTenured += Total;
    ++ObjectsTenured;
    Promoted.push_back(Copy);
  } else {
    BytesCopied += Total;
    ++ObjectsCopied;
  }
  Obj->forwardTo(Copy);
  ScanStack.push_back(Copy);
  return Copy;
}

void Scavenger::processCell(Oop *Cell) {
  Oop V = *Cell;
  if (!V.isPointer())
    return;
  ObjectHeader *O = V.object();
  if (O->isOld())
    return;
  *Cell = Oop::fromObject(copyObject(O));
}

void Scavenger::scanObject(ObjectHeader *Obj) {
  // The class reference is a root of the object too. Classes are normally
  // old, but nothing forbids a young class.
  Oop Cls = Obj->classOop();
  if (Cls.isPointer() && !Cls.object()->isOld())
    Obj->setClassOop(Oop::fromObject(copyObject(Cls.object())));
  uint32_t N = gc::liveSlots(Obj);
  Oop *Slots = Obj->slots();
  for (uint32_t I = 0; I < N; ++I)
    processCell(&Slots[I]);
}

void Scavenger::copyRoots() {
  auto Visitor = [this](Oop *Cell) { processCell(Cell); };

  // The distinguished nil (old, never moves, but uniformity is cheap).
  processCell(&OM.Nil);

  // Registered walkers: well-known objects, symbol table, scheduler,
  // per-interpreter state. Their cells lie outside the heap, so relocating
  // one referent moves no cell a walker has yet to visit.
  {
    std::lock_guard<std::mutex> Guard(OM.RootsMutex);
    for (auto &Walker : OM.RootWalkers)
      Walker(Visitor);
  }

  // Mutator handle stacks.
  {
    std::lock_guard<std::mutex> Guard(OM.MutatorsMutex);
    for (auto &M : OM.Mutators)
      for (Oop *Cell : M->Handles.cells())
        processCell(Cell);
  }

  // Live fields of every remembered old object (the entry table's purpose:
  // scavenge the young without scanning all of old space).
  for (ObjectHeader *Old : OM.RemSet.entries()) {
    uint32_t N = gc::liveSlots(Old);
    Oop *Slots = Old->slots();
    for (uint32_t I = 0; I < N; ++I)
      processCell(&Slots[I]);
  }
}

void Scavenger::rebuildRememberedSet() {
  std::vector<ObjectHeader *> Candidates = OM.RemSet.entries();
  Candidates.insert(Candidates.end(), Promoted.begin(), Promoted.end());
  std::vector<ObjectHeader *> NewEntries;
  for (ObjectHeader *Old : Candidates) {
    bool RefsYoung = gc::refsYoung(Old);
    Old->setRemembered(RefsYoung);
    if (RefsYoung)
      NewEntries.push_back(Old);
  }
  OM.RemSet.replaceEntries(std::move(NewEntries));
}

void Scavenger::run() {
  // The coordinating mutator's wall time is GC, not Smalltalk execution.
  ProfStateScope Prof(ProfState::Scavenge);
  assert(ToSpace->used() == 0 && "to-space must be empty before a scavenge");

  copyRoots();
  while (!ScanStack.empty()) {
    ObjectHeader *Obj = ScanStack.back();
    ScanStack.pop_back();
    scanObject(Obj);
  }

  rebuildRememberedSet();

  // Flip spaces: the destination survivor space now holds the survivors;
  // eden and the previous survivor space are free.
  OM.Survivors[OM.ActiveSurvivor].reset();
  OM.ActiveSurvivor = 1 - OM.ActiveSurvivor;
  OM.Eden.reset();
}
