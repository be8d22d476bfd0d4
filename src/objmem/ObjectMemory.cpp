//===-- objmem/ObjectMemory.cpp - Generation-scavenged heap -----*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "objmem/ObjectMemory.h"

#include <cstdlib>
#include <cstring>
#include <unordered_set>

#include "objmem/FullGC.h"
#include "objmem/GcWork.h"
#include "objmem/Scavenger.h"
#include "obs/Profiler.h"
#include "obs/TraceBuffer.h"
#include "support/Assert.h"
#include "support/Panic.h"
#include "vkernel/Chaos.h"

using namespace mst;

namespace {
/// Thread-local pointer to the calling thread's mutator context within
/// whichever ObjectMemory it registered with. One memory per thread at a
/// time is sufficient for this system (each interpreter process serves a
/// single VM).
thread_local MutatorContext *CurrentMutator = nullptr;

/// The CI small-heap lane exports MST_MAX_HEAP_BYTES to impose a heap
/// ceiling on every memory that does not configure one of its own, so the
/// pressure-recovery ladder runs under the whole stress suite without
/// per-test plumbing. A config that sets an explicit ceiling always wins.
MemoryConfig withEnvCeiling(MemoryConfig C) {
  if (C.MaxHeapBytes == 0)
    if (const char *S = std::getenv("MST_MAX_HEAP_BYTES"))
      if (*S)
        C.MaxHeapBytes = std::strtoull(S, nullptr, 0);
  return C;
}
} // namespace

ObjectMemory::ObjectMemory(const MemoryConfig &InitialConfig)
    : Config(withEnvCeiling(InitialConfig)), RemSet(Config.MpSupport),
      Old(Config.OldChunkBytes, Config.MpSupport),
      AllocLock(Config.MpSupport, "alloc"),
      FullGcTrigger(Config.FullGcThresholdBytes) {
  Eden.init(Config.EdenBytes);
  Survivors[0].init(Config.SurvivorBytes);
  Survivors[1].init(Config.SurvivorBytes);
  if (Config.MaxHeapBytes) {
    // The ceiling covers the whole heap; eden and the survivor spaces are
    // reserved up front, so old space gets whatever remains.
    size_t Fixed = Config.EdenBytes + 2 * Config.SurvivorBytes;
    if (Config.MaxHeapBytes <= Fixed + OldSpace::MinBlockBytes)
      panic("MaxHeapBytes (" + std::to_string(Config.MaxHeapBytes) +
            ") leaves no old space after eden + survivors (" +
            std::to_string(Fixed) + " bytes)");
    Old.setCeiling(Config.MaxHeapBytes - Fixed);
  }
  Sp.setWatchdogMillis(Config.WatchdogMillis);
  HeapPanicSection =
      panicRegisterSection("heap", [this] { return heapSummary(); });
  SafepointPanicSection = panicRegisterSection(
      "safepoint", [this] { return Sp.describeMutators(); });
}

ObjectMemory::~ObjectMemory() {
  panicUnregisterSection(HeapPanicSection);
  panicUnregisterSection(SafepointPanicSection);
}

MutatorContext *ObjectMemory::registerMutator(const std::string &Name) {
  assert(CurrentMutator == nullptr && "thread already registered");
  auto M = std::make_unique<MutatorContext>();
  M->Name = Name;
  if (!Name.empty())
    setTraceThreadName(Name);
  {
    std::lock_guard<std::mutex> Guard(MutatorsMutex);
    M->Id = static_cast<unsigned>(Mutators.size());
    CurrentMutator = M.get();
    Mutators.push_back(std::move(M));
  }
  // Outside MutatorsMutex: this may wait out a pause, whose collector
  // takes that mutex.
  Sp.registerMutator(Name.empty()
                         ? "mutator-" + std::to_string(CurrentMutator->Id)
                         : Name);
  return CurrentMutator;
}

void ObjectMemory::unregisterMutator() {
  assert(CurrentMutator && "thread not registered");
  assert(CurrentMutator->Handles.cells().empty() &&
         "live handles at mutator exit");
  // Drop the TLAB (the remaining space is abandoned until the next
  // scavenge) and deactivate. The MutatorContext object itself stays owned
  // by the Mutators vector so handle-stack iteration never races.
  CurrentMutator->TlabCur = CurrentMutator->TlabEnd = nullptr;
  CurrentMutator = nullptr;
  Sp.unregisterMutator();
}

MutatorContext &ObjectMemory::mutator() {
  assert(CurrentMutator && "calling thread is not a registered mutator");
  return *CurrentMutator;
}

void ObjectMemory::initHeader(ObjectHeader *H, Oop Cls, uint32_t Slots,
                              ObjectFormat Format, uint32_t ByteLen,
                              bool IsOld) {
  H->setClassOop(Cls);
  H->SlotCount = Slots;
  H->Hash = NextHash.fetch_add(1, std::memory_order_relaxed);
  H->ByteLength = Format == ObjectFormat::Bytes ? ByteLen : 0;
  H->Format = Format;
  H->Flags.store(IsOld ? FlagOld : 0, std::memory_order_relaxed);
  H->Age = 0;
  H->Unused = 0;
}

void ObjectMemory::fillWithNil(ObjectHeader *H) {
  Oop *Slots = H->slots();
  for (uint32_t I = 0; I < H->SlotCount; ++I)
    Slots[I] = Nil;
}

uint8_t *ObjectMemory::allocateNewRaw(size_t TotalBytes, bool &WentOld) {
  WentOld = false;
  // Oversized requests go straight to old space; they would thrash eden.
  // "Bigger than eden" is the degenerate case: no number of scavenges
  // could ever make such a request fit, so it must never enter the retry
  // loop below.
  if (TotalBytes > Config.EdenBytes / 4 || TotalBytes > Eden.capacity()) {
    WentOld = true;
    // These bytes never pass through a scavenge, where the tenure-pressure
    // trigger is checked, so check it here. Before the allocation: the new
    // object is not rooted yet, and a collection after it would sweep it.
    if (Config.FullGcEnabled &&
        Old.used() >= FullGcTrigger.load(std::memory_order_relaxed))
      fullCollect();
    return allocateOldRescuing(TotalBytes);
  }

  MutatorContext &M = mutator();
  // Rung 1 of the recovery ladder: scavenge on eden exhaustion. Bounded:
  // when this many pressure scavenges cannot make the request fit (rival
  // allocators draining eden as fast as it empties, a TLAB refill policy
  // larger than eden, injected allocation faults), divert into old space
  // rather than spinning forever.
  unsigned ScavengesLeft = 3;
  for (;;) {
    // Allocation is a GC point: honor a pending stop-the-world first.
    if (Sp.pollNeeded())
      Sp.pollSlow();

    if (!chaos::failPoint("alloc.fail")) {
      if (Config.Allocator == AllocatorKind::Tlab) {
        if (M.TlabCur && M.TlabCur + TotalBytes <= M.TlabEnd) {
          uint8_t *Result = M.TlabCur;
          M.TlabCur += TotalBytes;
          return Result;
        }
        // Refill the thread-local buffer from eden. When the refill no
        // longer fits — eden nearly full, or TlabBytes misconfigured
        // beyond eden's size — fall back to a direct bump of just this
        // request before declaring eden exhausted.
        size_t Refill = Config.TlabBytes > TotalBytes ? Config.TlabBytes
                                                      : TotalBytes;
        if (uint8_t *Buf = Eden.tryBumpAtomic(Refill)) {
          M.TlabCur = Buf;
          M.TlabEnd = Buf + Refill;
          continue;
        }
        if (uint8_t *Result = Eden.tryBumpAtomic(TotalBytes))
          return Result;
      } else {
        // Serialized policy: MS's published design — a spin lock around a
        // bump pointer ("little more than incrementing a pointer").
        AllocLock.lock();
        uint8_t *Result = Eden.tryBumpAtomic(TotalBytes);
        AllocLock.unlock();
        if (Result)
          return Result;
      }
    }

    // With old space at (or overshot past) the ceiling, scavenging could
    // only evacuate further past it — go straight to the rescue rung,
    // whose full collection either recovers usage to below the ceiling
    // or surfaces an orderly out-of-memory.
    if (ScavengesLeft == 0 || oldAtCeiling()) {
      // Rung 3: divert this request into old space (rung 2, the full
      // collection, runs inside the rescue when old space refuses).
      WentOld = true;
      LadderGrowCtr.add();
      return allocateOldRescuing(TotalBytes);
    }
    --ScavengesLeft;
    LadderScavengeCtr.add();
    if (Sp.requestStopTheWorld()) {
      performScavenge();
      Sp.resume();
    }
    // If requestStopTheWorld returned false another thread's scavenge just
    // completed; either way eden has been reset — retry the allocation.
  }
}

uint8_t *ObjectMemory::allocateOldRescuing(size_t TotalBytes) {
  if (uint8_t *Mem = Old.allocate(TotalBytes))
    return Mem;
  if (Config.FullGcEnabled) {
    // Rung 2: a full collection reclaims tenured garbage and coalesces
    // free runs, often freeing a block big enough under the same ceiling.
    LadderFullGcCtr.add();
    fullCollect();
    if (uint8_t *Mem = Old.allocate(TotalBytes))
      return Mem;
  }
  // Every rung failed: out of memory. The caller propagates a null oop,
  // which the VM layer raises into the requesting process as
  // OutOfMemoryError — the VM itself keeps running.
  LadderOomCtr.add();
  return nullptr;
}

Oop ObjectMemory::allocateNew(Oop Cls, uint32_t Slots, ObjectFormat Format,
                              uint32_t ByteLen) {
  size_t Total = sizeof(ObjectHeader) + size_t(Slots) * sizeof(Oop);
  // The class oop must survive the potential scavenge inside the raw
  // allocation (classes are normally old, but nothing forbids young ones).
  Handle ClsHandle(handles(), Cls);
  bool WentOld = false;
  uint8_t *Mem = allocateNewRaw(Total, WentOld);
  if (!Mem)
    return Oop(); // Out of memory: the VM layer raises OutOfMemoryError.
  auto *H = reinterpret_cast<ObjectHeader *>(Mem);
  initHeader(H, ClsHandle.get(), Slots, Format, ByteLen, WentOld);
  if (Format == ObjectFormat::Bytes)
    std::memset(H->bytes(), 0, size_t(Slots) * sizeof(Oop));
  else
    fillWithNil(H);
  // Allocation-site profile: every new-space allocation funnels through
  // here, so one sampled hook covers objects and contexts alike.
  if (Profiler::enabled())
    profNoteAllocation(ClsHandle.get().bits());
  return Oop::fromObject(H);
}

Oop ObjectMemory::allocateOld(Oop Cls, uint32_t Slots, ObjectFormat Format,
                              uint32_t ByteLen) {
  size_t Total = sizeof(ObjectHeader) + size_t(Slots) * sizeof(Oop);
  uint8_t *Mem = Old.allocate(Total);
  if (!Mem) {
    // allocateOld carries a never-scavenges contract — callers (bootstrap,
    // kernel construction, method definitions and literal objects in the
    // compiler, symbol interning) hold raw oops a moving collection would
    // invalidate — so no recovery rung is sound here. These allocations
    // are small: method definitions are bounded by the program text, and
    // a doIt (compiled into eden) adds only its literal objects. So
    // overshoot the ceiling rather than panic; the pressure ladder
    // refuses ordinary mutator work until usage drops back below it.
    Mem = Old.allocateOverCeiling(Total);
    OvershootCtr.add(Total);
  }
  auto *H = reinterpret_cast<ObjectHeader *>(Mem);
  initHeader(H, Cls, Slots, Format, ByteLen, /*IsOld=*/true);
  if (Format == ObjectFormat::Bytes)
    std::memset(H->bytes(), 0, size_t(Slots) * sizeof(Oop));
  else
    fillWithNil(H);
  return Oop::fromObject(H);
}

Oop ObjectMemory::allocatePointers(Oop Cls, uint32_t Slots) {
  return allocateNew(Cls, Slots, ObjectFormat::Pointers, 0);
}

Oop ObjectMemory::allocateBytes(Oop Cls, uint32_t ByteLen) {
  return allocateNew(Cls, slotsForBytes(ByteLen), ObjectFormat::Bytes,
                     ByteLen);
}

Oop ObjectMemory::allocateContextObject(Oop Cls, uint32_t Slots) {
  assert(Slots > ContextSpSlotIndex && "context too small for its header");
  return allocateNew(Cls, Slots, ObjectFormat::Context, 0);
}

bool ObjectMemory::oldContains(const void *P) { return Old.contains(P); }

Oop ObjectMemory::allocateOldPointers(Oop Cls, uint32_t Slots) {
  return allocateOld(Cls, Slots, ObjectFormat::Pointers, 0);
}

Oop ObjectMemory::allocateOldBytes(Oop Cls, uint32_t ByteLen) {
  return allocateOld(Cls, slotsForBytes(ByteLen), ObjectFormat::Bytes,
                     ByteLen);
}

Oop ObjectMemory::allocateOldContextObject(Oop Cls, uint32_t Slots) {
  assert(Slots > ContextSpSlotIndex && "context too small for its header");
  return allocateOld(Cls, Slots, ObjectFormat::Context, 0);
}

void ObjectMemory::addRootWalker(RootWalker Walker) {
  std::lock_guard<std::mutex> Guard(RootsMutex);
  RootWalkers.push_back(std::move(Walker));
}

void ObjectMemory::addPreScavengeHook(std::function<void()> Hook) {
  std::lock_guard<std::mutex> Guard(RootsMutex);
  PreScavengeHooks.push_back(std::move(Hook));
}

void ObjectMemory::scavengeNow() {
  while (!Sp.requestStopTheWorld()) {
    // Another thread's scavenge ran; ours was explicitly requested, so
    // keep trying until we are the coordinator.
  }
  performScavenge();
  Sp.resume();
}

void ObjectMemory::fullCollect() {
  while (!Sp.requestStopTheWorld()) {
    // Another thread's scavenge ran; a full collection was explicitly
    // requested, so keep trying until we are the coordinator.
  }
  // The scavenge empties eden into the active survivor space, giving the
  // marker a linearly parseable young generation; performFullGC runs in
  // the same pause (AllowFullGc=false avoids triggering it twice).
  performScavenge(/*AllowFullGc=*/false);
  performFullGC();
  Sp.resume();
}

void ObjectMemory::performScavenge(bool AllowFullGc) {
  // Perturbing here widens the gap between winning the rendezvous and the
  // first forwarding store — the window where late pollers would bite.
  chaos::point("scavenge.start");
  TraceSpan Span("scavenge", "gc");
  uint64_t StartNs = Telemetry::nowNs();

  {
    std::lock_guard<std::mutex> Guard(RootsMutex);
    for (auto &Hook : PreScavengeHooks)
      Hook();
  }
  // Flush every mutator's TLAB: the unconsumed tail becomes a dead hole in
  // eden (never scanned — the scavenger traces from roots only).
  {
    std::lock_guard<std::mutex> Guard(MutatorsMutex);
    for (auto &M : Mutators)
      M->TlabCur = M->TlabEnd = nullptr;
  }

  Scavenger Scav(*this);
  Scav.run();

  PauseHist.record(Telemetry::nowNs() - StartNs);
  ScavengesCtr.add();
  BytesCopiedCtr.add(Scav.bytesCopied());
  BytesTenuredCtr.add(Scav.bytesTenured());
  ObjectsCopiedCtr.add(Scav.objectsCopied());
  ObjectsTenuredCtr.add(Scav.objectsTenured());
  Span.setArg(Scav.bytesCopied());

  // The tenure-pressure trigger: when tenuring has pushed old space past
  // the armed threshold, reclaim tenured garbage in the same pause (the
  // world is already stopped and eden is empty — exactly the state the
  // full collector wants).
  if (AllowFullGc && Config.FullGcEnabled &&
      Old.used() >= FullGcTrigger.load(std::memory_order_relaxed))
    performFullGC();

  // Scavenge end is the one place every mutator is parked and the heap
  // shape is settled — check the low-space watermark here.
  maybeSignalLowSpace();
  if (Config.VerifyAfterGc) {
    std::string Err;
    if (!verifyHeap(&Err))
      panic("verifyHeap failed after scavenge: " + Err);
  }
}

void ObjectMemory::performFullGC() {
  chaos::point("fullgc.start");
  TraceSpan Span("fullgc", "gc");
  uint64_t StartNs = Telemetry::nowNs();

  FullGC Collector(*this);
  Collector.run();

  FullPauseHist.record(Telemetry::nowNs() - StartNs);
  FullGcsCtr.add();
  FullSweptCtr.add(Collector.sweptBytes());
  LastLiveBytes.store(Collector.liveBytes(), std::memory_order_relaxed);
  Span.setArg(Collector.sweptBytes());

  // Re-arm the trigger at 1.5x the surviving live set, so a legitimately
  // growing heap does not collect on every scavenge.
  double Headroom = static_cast<double>(Old.used()) * 1.5;
  size_t Next = Config.FullGcThresholdBytes;
  if (Headroom > static_cast<double>(Next))
    Next = static_cast<size_t>(Headroom);
  FullGcTrigger.store(Next, std::memory_order_relaxed);

  if (Config.VerifyAfterGc) {
    std::string Err;
    if (!verifyHeap(&Err))
      panic("verifyHeap failed after full collection: " + Err);
  }
}

size_t ObjectMemory::headroomBytes() const {
  // Mechanically obtainable bytes: free bytes already carved into old
  // space, plus the open chunk's un-bumped remainder, plus whatever the
  // ceiling still permits old space to grow by. With no ceiling only the
  // first two are counted (growth is host-bounded, not ours).
  size_t Free = Old.freeBytes() + Old.bumpRemaining();
  size_t Cap = Old.ceiling();
  if (Cap == 0)
    return Free;
  size_t Have = Old.capacity();
  size_t Mechanical = Free + (Cap > Have ? Cap - Have : 0);
  // The ceiling also bounds live bytes, so headroom can never exceed the
  // gap between usage and the ceiling — after an evacuation overshoot
  // that gap is zero even while recycled blocks sit on the free lists.
  size_t Used = Old.used();
  size_t LiveRoom = Cap > Used ? Cap - Used : 0;
  return Mechanical < LiveRoom ? Mechanical : LiveRoom;
}

void ObjectMemory::setLowSpaceCallback(std::function<void()> Cb) {
  std::lock_guard<std::mutex> Guard(RootsMutex);
  LowSpaceCallback = std::move(Cb);
}

void ObjectMemory::maybeSignalLowSpace() {
  // Edge-triggered: one signal per downward crossing of the watermark,
  // re-armed once a collection recovers the headroom. Only meaningful
  // under a ceiling — an unbounded heap never runs "low".
  if (Old.ceiling() == 0 || Config.LowSpaceWatermarkBytes == 0)
    return;
  size_t Headroom = headroomBytes();
  if (LowSpaceArmed && Headroom < Config.LowSpaceWatermarkBytes) {
    LowSpaceArmed = false;
    LowSpaceSignalsCtr.add();
    std::function<void()> Cb;
    {
      std::lock_guard<std::mutex> Guard(RootsMutex);
      Cb = LowSpaceCallback;
    }
    // Invoked with the world stopped: the callback must not allocate.
    // Signalling a Smalltalk semaphore is allocation-free.
    if (Cb)
      Cb();
  } else if (!LowSpaceArmed && Headroom >= Config.LowSpaceWatermarkBytes) {
    LowSpaceArmed = true;
  }
}

std::string ObjectMemory::heapSummary() {
  // Panic-path rendering: atomics only. The panicking thread may be
  // mid-GC or hold a heap lock, so this function takes no lock at all.
  auto Kb = [](size_t B) { return std::to_string(B / 1024) + " KiB"; };
  std::string Out;
  Out += "eden: " + Kb(Eden.used()) + " / " + Kb(Eden.capacity()) + "\n";
  Out += "survivor[active]: " + Kb(Survivors[ActiveSurvivor].used()) + " / " +
         Kb(Config.SurvivorBytes) + "\n";
  Out += "old: used " + Kb(Old.used()) + ", free " + Kb(Old.freeBytes()) +
         ", capacity " + Kb(Old.capacity());
  if (Old.ceiling())
    Out += ", ceiling " + Kb(Old.ceiling());
  Out += "\n";
  Out += "headroom: " + Kb(headroomBytes()) + "\n";
  Out += "fullgc trigger: " +
         Kb(FullGcTrigger.load(std::memory_order_relaxed)) + "\n";
  Out += "pauses: " + std::to_string(Sp.pauseCount()) + "\n";
  return Out;
}

namespace {
double nsToSec(uint64_t Ns) { return static_cast<double>(Ns) * 1e-9; }
} // namespace

ScavengeStats ObjectMemory::statsSnapshot() const {
  ScavengeStats S;
  S.Scavenges = ScavengesCtr.value();
  S.TotalPauseSec = nsToSec(PauseHist.sum());
  S.MaxPauseSec = nsToSec(PauseHist.max());
  S.BytesCopied = BytesCopiedCtr.value();
  S.BytesTenured = BytesTenuredCtr.value();
  S.ObjectsCopied = ObjectsCopiedCtr.value();
  S.ObjectsTenured = ObjectsTenuredCtr.value();
  return S;
}

FullGcStats ObjectMemory::fullGcStatsSnapshot() const {
  FullGcStats F;
  F.Collections = FullGcsCtr.value();
  F.TotalPauseSec = nsToSec(FullPauseHist.sum());
  F.MaxPauseSec = nsToSec(FullPauseHist.max());
  F.SweptBytes = FullSweptCtr.value();
  F.LastLiveBytes = LastLiveBytes.load(std::memory_order_relaxed);
  return F;
}

bool ObjectMemory::verifyHeap(std::string *Error) {
  // Eden cannot be scanned linearly — abandoned TLAB tails leave
  // uninitialized holes — so verification is a reachability walk from the
  // same roots the scavenger uses.
  char Buf[192];
  auto Fail = [&](const ObjectHeader *H, const char *Msg) {
    if (Error) {
      std::snprintf(Buf, sizeof(Buf), "verifyHeap: object %p: %s",
                    static_cast<const void *>(H), Msg);
      *Error = Buf;
    }
    return false;
  };

  LinearSpace &Active = Survivors[ActiveSurvivor];
  LinearSpace &Inactive = Survivors[1 - ActiveSurvivor];
  auto IsYoung = [&](const ObjectHeader *H) {
    return Eden.contains(H) || Active.contains(H);
  };

  std::vector<Oop> Pending;
  auto AddRoot = [&](Oop V) {
    if (V.isPointer())
      Pending.push_back(V);
  };
  AddRoot(Nil);
  {
    std::lock_guard<std::mutex> Guard(RootsMutex);
    for (auto &Walker : RootWalkers)
      Walker([&](Oop *Cell) { AddRoot(*Cell); });
  }
  {
    std::lock_guard<std::mutex> Guard(MutatorsMutex);
    for (auto &M : Mutators)
      for (Oop *Cell : M->Handles.cells())
        AddRoot(*Cell);
  }
  for (ObjectHeader *H : RemSet.entries()) {
    if (!H->isRemembered())
      return Fail(H, "entry-table member without remembered flag");
    AddRoot(Oop::fromObject(H));
  }

  std::unordered_set<const ObjectHeader *> Visited;
  while (!Pending.empty()) {
    Oop O = Pending.back();
    Pending.pop_back();
    if (O.bits() & 7u)
      return Fail(O.object(), "misaligned object pointer");
    ObjectHeader *H = O.object();
    if (!Visited.insert(H).second)
      continue;

    bool InEden = Eden.contains(H);
    bool InActive = Active.contains(H);
    if (Inactive.contains(H))
      return Fail(H, "lives in the inactive survivor space");
    if (!InEden && !InActive && !Old.contains(H))
      return Fail(H, "lies outside every heap space");
    if (H->isOld() == (InEden || InActive))
      return Fail(H, "old flag disagrees with the space it lives in");
    if (H->isForwarded())
      return Fail(H, "forwarded outside a scavenge");
    if (H->isMarked())
      return Fail(H, "mark bit set outside a full collection");
    if (H->Format != ObjectFormat::Pointers &&
        H->Format != ObjectFormat::Bytes &&
        H->Format != ObjectFormat::Context)
      return Fail(H, "invalid format byte (or a reachable free block)");
    const uint8_t *End =
        reinterpret_cast<const uint8_t *>(H) + H->totalBytes();
    if (InEden && End > Eden.frontier())
      return Fail(H, "body overruns the eden frontier");
    if (InActive && End > Active.frontier())
      return Fail(H, "body overruns the survivor frontier");

    // A null class word is legal (the bootstrap nil); anything else must
    // be an object pointer — the scavenger treats it as a reference.
    Oop Cls = H->classOop();
    if (!Cls.isNull()) {
      if (!Cls.isPointer())
        return Fail(H, "class word is neither null nor an object pointer");
      Pending.push_back(Cls);
    }

    if (H->Format == ObjectFormat::Context &&
        H->SlotCount <= ContextSpSlotIndex)
      return Fail(H, "context too small for its stack-pointer slot");
    uint32_t Live = gc::liveSlots(H);
    if (Live > H->SlotCount)
      return Fail(H, "live slot count exceeds the slot count");
    bool RefsYoung = false;
    const Oop *Slots = H->slots();
    for (uint32_t I = 0; I < Live; ++I) {
      Oop V = Slots[I];
      if (V.isNull() || V.isSmallInt())
        continue;
      if (V.bits() & 7u)
        return Fail(H, "misaligned pointer in a live slot");
      if (IsYoung(V.object()))
        RefsYoung = true;
      Pending.push_back(V);
    }
    if (H->isOld() && RefsYoung && !H->isRemembered())
      return Fail(H, "old object references young but is not remembered");
  }
  // The sweep's output is unreachable by construction, so the walk above
  // never sees it; check the free lists directly.
  return Old.verifyFreeLists(Error);
}
