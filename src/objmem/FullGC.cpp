//===-- objmem/FullGC.cpp - Parallel mark-sweep full collector --*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "objmem/FullGC.h"

#include <thread>

#include "objmem/ObjectMemory.h"
#include "objmem/Scavenger.h"
#include "obs/Profiler.h"
#include "obs/TraceBuffer.h"
#include "support/Assert.h"
#include "vkernel/Chaos.h"

using namespace mst;

FullGC::FullGC(ObjectMemory &OM) : OM(OM) {
  NumWorkers = OM.Config.FullGcWorkers;
  if (NumWorkers == 0)
    NumWorkers = 1;
  // The baseline-BS build runs every object-memory lock as a no-op; the
  // collector's own stack locks stay real, but OldSpace's allocation lock
  // (which addFreeBlock shares) does not, so the sweep must be serial.
  if (!OM.Config.MpSupport)
    NumWorkers = 1;
  for (unsigned W = 0; W < NumWorkers; ++W)
    Workers.emplace_back();
}

void FullGC::markAndPush(ObjectHeader *H, unsigned W) {
  if (!H->tryMark())
    return;
  Worker &Target = Workers[W];
  SpinLockGuard Guard(Target.StackLock);
  Target.Stack.push_back(H);
}

void FullGC::seedRoots() {
  unsigned Next = 0;
  auto MarkOop = [&](Oop V) {
    if (V.isPointer() && V.object()->isOld())
      markAndPush(V.object(), Next++ % NumWorkers);
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
  // scan it for young→old edges instead of marking young objects. Race
  // losers' abandoned copies are scanned too; their stale old referents
  // survive one cycle as floating garbage, which is harmless.
  LinearSpace &Active = OM.Survivors[OM.ActiveSurvivor];
  assert(OM.Eden.used() == 0 && "full GC requires an empty eden");
  uint8_t *Frontier = Active.frontier();
  for (uint8_t *P = Active.base(); P < Frontier;) {
    auto *H = reinterpret_cast<ObjectHeader *>(P);
    MarkOop(H->classOop());
    uint32_t N = Scavenger::liveSlots(H);
    Oop *Slots = H->slots();
    for (uint32_t I = 0; I < N; ++I)
      MarkOop(Slots[I]);
    P += H->totalBytes();
  }
}

void FullGC::traceObject(ObjectHeader *Obj, unsigned W) {
  Oop Cls = Obj->classOop();
  if (Cls.isPointer() && Cls.object()->isOld())
    markAndPush(Cls.object(), W);
  uint32_t N = Scavenger::liveSlots(Obj);
  Oop *Slots = Obj->slots();
  for (uint32_t I = 0; I < N; ++I) {
    Oop V = Slots[I];
    if (V.isPointer() && V.object()->isOld())
      markAndPush(V.object(), W);
  }
}

ObjectHeader *FullGC::popOrSteal(unsigned W) {
  Worker &Me = Workers[W];
  {
    SpinLockGuard Guard(Me.StackLock);
    if (!Me.Stack.empty()) {
      ObjectHeader *Obj = Me.Stack.back();
      Me.Stack.pop_back();
      return Obj;
    }
  }
  if (NumWorkers == 1)
    return nullptr;

  // Steal half a sibling's stack (from the front — the owner pops the
  // back, so stolen entries are the coldest). Items move stack-to-stack,
  // never held outside one, so the idle-count termination stays sound.
  chaos::point("fullgc.steal");
  for (unsigned I = 1; I < NumWorkers; ++I) {
    unsigned V = (W + I) % NumWorkers;
    std::vector<ObjectHeader *> Loot;
    {
      SpinLockGuard Guard(Workers[V].StackLock);
      auto &S = Workers[V].Stack;
      if (S.empty())
        continue;
      size_t Take = (S.size() + 1) / 2;
      Loot.assign(S.begin(), S.begin() + Take);
      S.erase(S.begin(), S.begin() + Take);
    }
    ObjectHeader *Obj = Loot.back();
    Loot.pop_back();
    if (!Loot.empty()) {
      SpinLockGuard Guard(Me.StackLock);
      Me.Stack.insert(Me.Stack.end(), Loot.begin(), Loot.end());
    }
    return Obj;
  }
  return nullptr;
}

void FullGC::markLoop(unsigned W) {
  chaos::point("fullgc.mark");
  bool Idle = false;
  for (;;) {
    ObjectHeader *Obj = popOrSteal(W);
    if (Obj) {
      if (Idle) {
        Idle = false;
        IdleWorkers.fetch_sub(1, std::memory_order_acq_rel);
      }
      traceObject(Obj, W);
      continue;
    }
    if (!Idle) {
      Idle = true;
      IdleWorkers.fetch_add(1, std::memory_order_acq_rel);
    }
    if (IdleWorkers.load(std::memory_order_acquire) == NumWorkers) {
      // Double-check: popOrSteal scans every stack, so success here means
      // a racing worker pushed between our miss and the idle-count read.
      if ((Obj = popOrSteal(W))) {
        Idle = false;
        IdleWorkers.fetch_sub(1, std::memory_order_acq_rel);
        traceObject(Obj, W);
        continue;
      }
      return;
    }
    std::this_thread::yield();
  }
}

void FullGC::sweepChunk(uint8_t *Begin, uint8_t *End, Worker &Me) {
  uint8_t *RunStart = nullptr;
  size_t SweptHere = 0, LiveHere = 0;
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
      LiveHere += Bytes;
      // Rebuild the remembered set from surviving old→young pointers: the
      // set itself was not a mark root (that would retain floating
      // garbage), so recompute each survivor's flag from scratch.
      uint32_t N = Scavenger::liveSlots(H);
      Oop *Slots = H->slots();
      bool RefsYoung = false;
      for (uint32_t I = 0; I < N && !RefsYoung; ++I) {
        Oop V = Slots[I];
        RefsYoung = V.isPointer() && !V.object()->isOld();
      }
      H->setRemembered(RefsYoung);
      if (RefsYoung)
        Me.RemsetOut.push_back(H);
    } else {
      // Unmarked and not already free: freshly dead.
      if (!RunStart)
        RunStart = P;
      SweptHere += Bytes;
    }
    P += Bytes;
  }
  if (RunStart)
    OM.Old.addFreeBlock(RunStart, static_cast<size_t>(End - RunStart));
  Swept.fetch_add(SweptHere, std::memory_order_relaxed);
  Live.fetch_add(LiveHere, std::memory_order_relaxed);
}

void FullGC::sweepLoop(unsigned W) {
  for (;;) {
    size_t I = NextChunk.fetch_add(1, std::memory_order_relaxed);
    if (I >= ChunksToSweep)
      return;
    chaos::point("fullgc.sweep");
    OldSpace::ChunkSpan Span = OM.Old.chunkSpan(I);
    sweepChunk(Span.Begin, Span.End, Workers[W]);
  }
}

void FullGC::run() {
  ProfStateScope Prof(ProfState::FullGc);
  {
    TraceSpan Span("fullgc.mark", "gc");
    seedRoots();
    if (NumWorkers == 1) {
      markLoop(0);
    } else {
      std::vector<std::thread> Threads;
      for (unsigned W = 1; W < NumWorkers; ++W)
        Threads.emplace_back([this, W] { markLoop(W); });
      markLoop(0);
      for (auto &T : Threads)
        T.join();
    }
  }

  {
    TraceSpan Span("fullgc.sweep", "gc");
    OM.Old.sweepBegin();
    ChunksToSweep = OM.Old.chunkCount();
    if (NumWorkers == 1) {
      sweepLoop(0);
    } else {
      std::vector<std::thread> Threads;
      for (unsigned W = 1; W < NumWorkers; ++W)
        Threads.emplace_back([this, W] { sweepLoop(W); });
      sweepLoop(0);
      for (auto &T : Threads)
        T.join();
    }
    OM.Old.noteReclaimed(Swept.load(std::memory_order_relaxed));
  }

  std::vector<ObjectHeader *> NewEntries;
  for (Worker &W : Workers)
    NewEntries.insert(NewEntries.end(), W.RemsetOut.begin(),
                      W.RemsetOut.end());
  OM.RemSet.replaceEntries(std::move(NewEntries));
}
