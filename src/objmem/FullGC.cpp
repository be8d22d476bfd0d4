//===-- objmem/FullGC.cpp - Mark-sweep full collector -----------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "objmem/FullGC.h"

#include "objmem/GcWork.h"
#include "objmem/ObjectMemory.h"
#include "obs/Profiler.h"
#include "obs/TraceBuffer.h"
#include "support/Assert.h"
#include "vkernel/Chaos.h"

using namespace mst;

void FullGC::markAndPush(ObjectHeader *H) {
  if (H->tryMark())
    MarkStack.push_back(H);
}

void FullGC::markRoots() {
  auto MarkOop = [this](Oop V) {
    if (V.isPointer() && V.object()->isOld())
      markAndPush(V.object());
  };

  MarkOop(OM.Nil);
  {
    std::lock_guard<std::mutex> Guard(OM.RootsMutex);
    for (auto &Walker : OM.RootWalkers)
      Walker([&](Oop *Cell) { MarkOop(*Cell); });
  }
  {
    std::lock_guard<std::mutex> Guard(OM.MutatorsMutex);
    for (auto &M : OM.Mutators)
      for (Oop *Cell : M->Handles.cells())
        MarkOop(*Cell);
  }

  // Every live young object sits in the active survivor space (the
  // scavenge that precedes us emptied eden), which is linearly parseable:
  // scan it for young→old edges instead of marking young objects.
  LinearSpace &Active = OM.Survivors[OM.ActiveSurvivor];
  assert(OM.Eden.used() == 0 && "full GC requires an empty eden");
  uint8_t *Frontier = Active.frontier();
  for (uint8_t *P = Active.base(); P < Frontier;) {
    auto *H = reinterpret_cast<ObjectHeader *>(P);
    MarkOop(H->classOop());
    uint32_t N = gc::liveSlots(H);
    Oop *Slots = H->slots();
    for (uint32_t I = 0; I < N; ++I)
      MarkOop(Slots[I]);
    P += H->totalBytes();
  }
}

void FullGC::traceObject(ObjectHeader *Obj) {
  Oop Cls = Obj->classOop();
  if (Cls.isPointer() && Cls.object()->isOld())
    markAndPush(Cls.object());
  uint32_t N = gc::liveSlots(Obj);
  Oop *Slots = Obj->slots();
  for (uint32_t I = 0; I < N; ++I) {
    Oop V = Slots[I];
    if (V.isPointer() && V.object()->isOld())
      markAndPush(V.object());
  }
}

void FullGC::sweepChunk(uint8_t *Begin, uint8_t *End) {
  uint8_t *RunStart = nullptr;
  for (uint8_t *P = Begin; P < End;) {
    auto *H = reinterpret_cast<ObjectHeader *>(P);
    size_t Bytes = H->totalBytes();
    if (H->Format == ObjectFormat::Free) {
      // A stale free block from an earlier sweep (or the tail donated when
      // this chunk was retired): it rejoins the lists as part of the
      // current run, coalescing with dead neighbors, but its bytes were
      // never live so they do not count as reclaimed.
      if (!RunStart)
        RunStart = P;
    } else if (H->isMarked()) {
      if (RunStart) {
        OM.Old.addFreeBlock(RunStart, static_cast<size_t>(P - RunStart));
        RunStart = nullptr;
      }
      H->clearMarked();
      Live += Bytes;
      // Rebuild the remembered set from surviving old→young pointers: the
      // set itself was not a mark root (that would retain floating
      // garbage), so recompute each survivor's flag from scratch.
      bool RefsYoung = gc::refsYoung(H);
      H->setRemembered(RefsYoung);
      if (RefsYoung)
        Remembered.push_back(H);
    } else {
      // Unmarked and not already free: freshly dead.
      if (!RunStart)
        RunStart = P;
      Swept += Bytes;
    }
    P += Bytes;
  }
  if (RunStart)
    OM.Old.addFreeBlock(RunStart, static_cast<size_t>(End - RunStart));
}

void FullGC::run() {
  ProfStateScope Prof(ProfState::FullGc);
  {
    TraceSpan Span("fullgc.mark", "gc");
    markRoots();
    chaos::point("fullgc.mark");
    while (!MarkStack.empty()) {
      ObjectHeader *Obj = MarkStack.back();
      MarkStack.pop_back();
      traceObject(Obj);
    }
  }

  {
    TraceSpan Span("fullgc.sweep", "gc");
    OM.Old.sweepBegin();
    for (size_t I = 0, N = OM.Old.chunkCount(); I < N; ++I) {
      chaos::point("fullgc.sweep");
      OldSpace::ChunkSpan Chunk = OM.Old.chunkSpan(I);
      sweepChunk(Chunk.Begin, Chunk.End);
    }
  }

  OM.Old.noteReclaimed(Swept);
  OM.RemSet.replaceEntries(std::move(Remembered));
}
