//===-- objmem/Scavenger.cpp - Generation Scavenging ------------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "objmem/Scavenger.h"

#include <cstring>

#include "objmem/ObjectMemory.h"
#include "obs/Profiler.h"
#include "support/Assert.h"

using namespace mst;

Scavenger::Scavenger(ObjectMemory &OM)
    : OM(OM), ToSpace(&OM.Survivors[1 - OM.ActiveSurvivor]),
      Stacks(gc::workerCount(OM.Config.ScavengeWorkers, OM.Config.MpSupport),
             "scavenge.steal"),
      Out(Stacks.workers()) {}

ObjectHeader *Scavenger::copyObject(ObjectHeader *Obj, unsigned W) {
  assert(!Obj->isOld() && "only new objects are copied");
  if (Obj->isForwarded())
    return Obj->forwardee();

  // Capture the class word before copying; a racing worker could install a
  // forwarding pointer while we memcpy, and the destination must hold the
  // real class.
  uintptr_t ClassBits = Obj->ClassBits.load(std::memory_order_acquire);
  if (ClassBits & 1u)
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
  // The body is immutable while the world is stopped, so a plain memcpy is
  // fine there. The header is rebuilt field by field instead: a rival
  // worker's forwarding CAS may hit the source's class word concurrently,
  // so it must not be read again — the capture from above is used.
  std::memcpy(static_cast<void *>(Copy + 1),
              static_cast<const void *>(Obj + 1),
              Total - sizeof(ObjectHeader));
  Copy->ClassBits.store(ClassBits, std::memory_order_relaxed);
  Copy->SlotCount = Obj->SlotCount;
  Copy->Hash = Obj->Hash;
  Copy->ByteLength = Obj->ByteLength;
  Copy->Format = Obj->Format;
  Copy->Flags.store(
      Obj->Flags.load(std::memory_order_relaxed) & uint8_t(~FlagRemembered),
      std::memory_order_relaxed);
  Copy->Age = Tenure ? 0 : NewAge;
  Copy->Unused = 0;
  if (Tenure)
    Copy->setOld();

  if (!Obj->tryForwardTo(Copy)) {
    // Another worker won the copy race; abandon ours (the bump allocation
    // is wasted, which is harmless and rare).
    return Obj->forwardee();
  }

  WorkerOut &Mine = Out[W];
  if (Tenure) {
    Mine.BytesTenured += Total;
    ++Mine.ObjectsTenured;
    Mine.Promoted.push_back(Copy);
  } else {
    Mine.BytesCopied += Total;
    ++Mine.ObjectsCopied;
  }
  Stacks.push(W, Copy);
  return Copy;
}

void Scavenger::processCell(Oop *Cell, unsigned W) {
  Oop V = *Cell;
  if (!V.isPointer())
    return;
  ObjectHeader *O = V.object();
  if (O->isOld())
    return;
  *Cell = Oop::fromObject(copyObject(O, W));
}

void Scavenger::scanObject(ObjectHeader *Obj, unsigned W) {
  // The class reference is a root of the object too. Classes are normally
  // old, but nothing forbids a young class.
  {
    Oop Cls = Oop::fromBits(Obj->ClassBits.load(std::memory_order_relaxed));
    if (Cls.isPointer() && !Cls.object()->isOld()) {
      ObjectHeader *Copy = copyObject(Cls.object(), W);
      Obj->ClassBits.store(Oop::fromObject(Copy).bits(),
                           std::memory_order_relaxed);
    }
  }
  uint32_t N = gc::liveSlots(Obj);
  Oop *Slots = Obj->slots();
  for (uint32_t I = 0; I < N; ++I)
    processCell(&Slots[I], W);
}

void Scavenger::collectRootCells(std::vector<Oop *> &Cells) {
  auto Visitor = [&Cells](Oop *Cell) { Cells.push_back(Cell); };

  // The distinguished nil (old, never moves, but uniformity is cheap).
  Cells.push_back(&OM.Nil);

  // Registered walkers: well-known objects, symbol table, scheduler,
  // per-interpreter state.
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
        Cells.push_back(Cell);
  }

  // Live fields of every remembered old object (the entry table's purpose:
  // scavenge the young without scanning all of old space).
  for (ObjectHeader *Old : OM.RemSet.entries()) {
    uint32_t N = gc::liveSlots(Old);
    Oop *Slots = Old->slots();
    for (uint32_t I = 0; I < N; ++I)
      Cells.push_back(&Slots[I]);
  }
}

void Scavenger::rebuildRememberedSet() {
  std::vector<ObjectHeader *> Candidates = OM.RemSet.entries();
  Candidates.insert(Candidates.end(), Totals.Promoted.begin(),
                    Totals.Promoted.end());
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

  std::vector<Oop *> Roots;
  collectRootCells(Roots);

  // Partition the roots statically; each worker then drains its own scan
  // stack, stealing when it runs dry.
  unsigned N = Stacks.workers();
  gc::runWorkers(N, [&](unsigned W) {
    for (size_t I = W; I < Roots.size(); I += N)
      processCell(Roots[I], W);
    Stacks.drain(W, [&](ObjectHeader *Obj) { scanObject(Obj, W); });
  });
  for (const WorkerOut &Mine : Out) {
    Totals.Promoted.insert(Totals.Promoted.end(), Mine.Promoted.begin(),
                          Mine.Promoted.end());
    Totals.BytesCopied += Mine.BytesCopied;
    Totals.BytesTenured += Mine.BytesTenured;
    Totals.ObjectsCopied += Mine.ObjectsCopied;
    Totals.ObjectsTenured += Mine.ObjectsTenured;
  }

  rebuildRememberedSet();

  // Flip spaces: the destination survivor space now holds the survivors;
  // eden and the previous survivor space are free.
  OM.Survivors[OM.ActiveSurvivor].reset();
  OM.ActiveSurvivor = 1 - OM.ActiveSurvivor;
  OM.Eden.reset();
}
