//===-- objmem/ObjectMemory.h - Generation-scavenged heap -------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The object memory: a Generation Scavenging heap (Ungar 1984) shared by
/// all interpreter processes, exactly the arrangement MS inherited from BS
/// (paper §2, §3.1). Serialization and replication appear here as
/// first-class policies:
///
///  - **Allocation** is serialized with a spin lock ("little more than
///    incrementing a pointer", brief and comparatively infrequent), or
///    replicated per-interpreter with thread-local allocation buffers —
///    the improvement the paper proposes in §4.
///  - **Garbage collection** is serialized behind a stop-the-world
///    safepoint; optionally several processors are applied to one scavenge.
///  - **Entry table** updates are serialized with one lock on the array
///    that also synchronizes the remembered-flag tests.
///
//===----------------------------------------------------------------------===//

#ifndef MST_OBJMEM_OBJECTMEMORY_H
#define MST_OBJMEM_OBJECTMEMORY_H

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/Histogram.h"
#include "obs/Telemetry.h"

#include "objmem/Handles.h"
#include "objmem/MemoryConfig.h"
#include "objmem/ObjectHeader.h"
#include "objmem/Oop.h"
#include "objmem/RememberedSet.h"
#include "objmem/Safepoint.h"
#include "objmem/Spaces.h"
#include "vkernel/SpinLock.h"

namespace mst {

class Scavenger;

/// Context slot index holding the stack pointer (a SmallInteger, the index
/// of the topmost live slot). The scavenger scans Format::Context objects
/// only up to this bound; the VM layer maintains the convention.
constexpr uint32_t ContextSpSlotIndex = 2;

/// Per-mutator-thread state: allocation buffer and handle stack.
struct MutatorContext {
  unsigned Id = 0;
  std::string Name;
  /// Thread-local allocation buffer (AllocatorKind::Tlab only).
  uint8_t *TlabCur = nullptr;
  uint8_t *TlabEnd = nullptr;
  /// Oop cells protected across allocation points.
  HandleStack Handles;
};

/// Cumulative full-collection statistics of one heap (the mark-sweep
/// collector for old space; see FullGC.h), read from its registry
/// instances.
struct FullGcStats {
  uint64_t Collections = 0;
  double TotalPauseSec = 0.0;
  double MaxPauseSec = 0.0;
  /// Freshly dead old bytes returned to the free lists.
  uint64_t SweptBytes = 0;
  /// Old bytes surviving the most recent collection.
  uint64_t LastLiveBytes = 0;
};

/// Cumulative scavenger statistics of one heap, for the §3.1 "3% of
/// processor time" and r/s scavenge-frequency experiments, read from its
/// registry instances.
struct ScavengeStats {
  uint64_t Scavenges = 0;
  double TotalPauseSec = 0.0;
  double MaxPauseSec = 0.0;
  uint64_t BytesCopied = 0;
  uint64_t BytesTenured = 0;
  uint64_t ObjectsCopied = 0;
  uint64_t ObjectsTenured = 0;
};

/// The shared object memory.
class ObjectMemory {
public:
  /// A root walker is called with a visitor; it must invoke the visitor on
  /// the address of every oop cell it owns. Called with the world stopped.
  using OopVisitor = std::function<void(Oop *)>;
  using RootWalker = std::function<void(const OopVisitor &)>;

  explicit ObjectMemory(const MemoryConfig &Config);
  ~ObjectMemory();

  ObjectMemory(const ObjectMemory &) = delete;
  ObjectMemory &operator=(const ObjectMemory &) = delete;

  const MemoryConfig &config() const { return Config; }

  /// --- Mutator lifecycle -------------------------------------------------

  /// Registers the calling thread as a mutator; required before any
  /// allocation or heap access from that thread.
  MutatorContext *registerMutator(const std::string &Name);

  /// Unregisters the calling thread. Its handle stack must be empty.
  void unregisterMutator();

  /// \returns the calling thread's mutator context.
  MutatorContext &mutator();

  /// \returns the calling thread's handle stack.
  HandleStack &handles() { return mutator().Handles; }

  /// --- The distinguished nil object --------------------------------------

  /// Sets the oop used to fill fresh pointer objects. Must be an old-space
  /// object (it is never moved). Called once during bootstrap.
  void setNil(Oop NilOop) { Nil = NilOop; }

  Oop nil() const { return Nil; }

  /// --- Allocation ---------------------------------------------------------
  /// New-space allocation may trigger a scavenge: every call is a GC point.
  /// Callers must hold no raw object pointers across these calls unless
  /// protected by handles.
  ///
  /// Under a heap ceiling (MemoryConfig::MaxHeapBytes) allocation walks
  /// the memory-pressure recovery ladder — scavenge, full collection,
  /// bounded old-space growth — and when every rung fails answers the
  /// *null oop*. The VM layer raises that into the requesting Smalltalk
  /// process as OutOfMemoryError; only paths with no process to fail
  /// (bootstrap, mid-scavenge tenuring) escalate to panic().

  /// Allocates a pointers object with \p Slots nil-filled fields.
  /// \returns the object, or null when memory is exhausted.
  Oop allocatePointers(Oop Cls, uint32_t Slots);

  /// Allocates a byte object of exactly \p ByteLen zero-filled bytes.
  /// \returns the object, or null when memory is exhausted.
  Oop allocateBytes(Oop Cls, uint32_t ByteLen);

  /// Allocates a context object (Format::Context) with \p Slots fields.
  /// \returns the object, or null when memory is exhausted.
  Oop allocateContextObject(Oop Cls, uint32_t Slots);

  /// Allocates directly in old space (bootstrap / permanent objects).
  /// Never triggers a scavenge.
  Oop allocateOldPointers(Oop Cls, uint32_t Slots);
  Oop allocateOldBytes(Oop Cls, uint32_t ByteLen);
  /// Old-space context allocation (snapshot loading).
  Oop allocateOldContextObject(Oop Cls, uint32_t Slots);

  /// Raises the identity-hash counter above \p H (snapshot loading keeps
  /// loaded hashes; fresh objects must not collide systematically).
  void ensureHashCounterAbove(uint32_t H) {
    uint32_t Cur = NextHash.load(std::memory_order_relaxed);
    while (Cur <= H &&
           !NextHash.compare_exchange_weak(Cur, H + 1,
                                           std::memory_order_relaxed)) {
    }
  }

  /// --- Field access -------------------------------------------------------

  /// \returns field \p I of \p Obj. No barrier needed on reads.
  ///
  /// Slot accesses go through acquire/release atomics: object bodies are
  /// shared between interpreters with no per-object lock (the paper's MS
  /// never locks bodies — races on slots are Smalltalk-level races,
  /// resolved by Smalltalk-level synchronization or accepted by the
  /// program). The atomic makes the word-sized access untorn, and the
  /// release/acquire pair orders a new object's header initialization
  /// before any use by a thread that observes its oop through a shared
  /// slot — the publication edge a real multiprocessor needs. On x86
  /// both compile to the same mov as a plain access.
  static Oop fetchPointer(Oop Obj, uint32_t I) {
    ObjectHeader *H = Obj.object();
    // Out-of-range fetches indicate VM corruption; diagnose loudly even
    // though the assert aborts right after (release builds keep asserts).
    if (I >= H->SlotCount)
      std::fprintf(stderr,
                   "fetchPointer out of range: index %u, %u slots, "
                   "format %d\n",
                   I, H->SlotCount, static_cast<int>(H->Format));
    assert(I < H->SlotCount && "fetchPointer out of range");
    uintptr_t &Cell = reinterpret_cast<uintptr_t *>(H->slots())[I];
    return Oop::fromBits(
        std::atomic_ref<uintptr_t>(Cell).load(std::memory_order_acquire));
  }

  /// Stores \p V into field \p I of \p Obj with the generational write
  /// barrier; additionally marks stored contexts as escaped so they are
  /// never recycled onto a free context list.
  void storePointer(Oop Obj, uint32_t I, Oop V) {
    if (V.isPointer() && V.object()->Format == ObjectFormat::Context)
      V.object()->setEscaped();
    storePointerNoEscape(Obj, I, V);
  }

  /// Stores with the write barrier but without escape marking. Used for
  /// context linkage (sender/caller fields) where capturing a context is
  /// part of normal activation, not an escape.
  void storePointerNoEscape(Oop Obj, uint32_t I, Oop V) {
    ObjectHeader *H = Obj.object();
    assert(I < H->SlotCount && "storePointer out of range");
    uintptr_t &Cell = reinterpret_cast<uintptr_t *>(H->slots())[I];
    std::atomic_ref<uintptr_t>(Cell).store(V.bits(),
                                           std::memory_order_release);
    writeBarrier(H, V);
  }

  /// The generational write barrier: remembers \p Holder when an old
  /// object gains a reference to a new one.
  void writeBarrier(ObjectHeader *Holder, Oop V) {
    if (Holder->isOld() && V.isPointer() && !V.object()->isOld() &&
        !Holder->isRemembered())
      RemSet.remember(Holder);
  }

  /// --- Roots and scavenge hooks -------------------------------------------

  /// Registers a walker over external root cells (well-known objects, the
  /// scheduler's queues, interpreter state, the symbol table).
  void addRootWalker(RootWalker Walker);

  /// Registers a hook run at the start of every scavenge with the world
  /// stopped (e.g. flushing free context lists, which hold dead objects).
  void addPreScavengeHook(std::function<void()> Hook);

  /// --- Garbage collection -------------------------------------------------

  /// Performs a stop-the-world scavenge now. The caller must be a
  /// registered mutator holding no unprotected heap pointers.
  void scavengeNow();

  /// Performs a stop-the-world full (mark-sweep) collection of old space
  /// now, preceded by a scavenge in the same pause. Same caller contract
  /// as scavengeNow(). Runs even when the automatic trigger is disabled.
  void fullCollect();

  Safepoint &safepoint() { return Sp; }
  RememberedSet &rememberedSet() { return RemSet; }

  /// \returns true when \p P points into an old-space chunk. Profile
  /// resolution uses this to validate sampled method bits before
  /// dereferencing them (takes the old-space allocation lock).
  bool oldContains(const void *P);

  /// --- Memory pressure ----------------------------------------------------

  /// \returns obtainable old-space bytes: recycled free-list bytes plus
  /// whatever the ceiling still allows old space to grow. With no ceiling
  /// the growth term is unbounded, so only the free-list bytes are
  /// reported (the mem.headroom gauge reads this).
  size_t headroomBytes() const;

  /// Installs the low-space notification. Invoked at the end of a
  /// scavenge, on the coordinator thread with the world still stopped,
  /// when headroom first drops below MemoryConfig::LowSpaceWatermarkBytes
  /// (edge-triggered; re-armed when headroom recovers). The callback must
  /// not allocate — the VM layer signals a Smalltalk semaphore, which is
  /// allocation-free.
  void setLowSpaceCallback(std::function<void()> Cb);

  /// --- Debug verification ---------------------------------------------------

  /// Walks every object reachable from the roots (nil, registered root
  /// walkers, mutator handle stacks, remembered old objects) and checks
  /// the heap invariants: each object lies in eden, the active survivor
  /// space, or old space (never the inactive survivor space); its old flag
  /// agrees with where it lives; it is not forwarded; its body stays below
  /// its space's frontier; its class is a valid pointer; live pointer
  /// slots are aligned; and every old object holding a young reference is
  /// remembered. Must run with no concurrent mutation (world stopped or
  /// workload quiesced). \returns true when the heap is consistent; on
  /// failure describes the first violation in \p Error when given.
  bool verifyHeap(std::string *Error = nullptr);

  /// \returns this heap's scavenger statistics (racy but monotonic reads
  /// of its counters and pause histogram).
  ScavengeStats statsSnapshot() const;

  /// \returns this heap's full-collection statistics (same reads).
  FullGcStats fullGcStatsSnapshot() const;

  /// \returns bytes currently used in eden (includes TLAB slack).
  size_t edenUsed() const { return Eden.used(); }
  size_t edenCapacity() const { return Eden.capacity(); }
  size_t oldSpaceUsed() const { return Old.used(); }
  size_t oldSpaceFree() const { return Old.freeBytes(); }
  size_t oldSpaceCapacity() const { return Old.capacity(); }

  /// \returns instrumentation handle on the allocation lock.
  SpinLock &allocationLock() { return AllocLock; }

  /// \returns the distribution of stop-the-world scavenge pauses (ns).
  const Histogram &pauseHistogram() const { return PauseHist; }

private:
  friend class Scavenger;
  friend class FullGC;

  /// Allocates \p TotalBytes in new space, walking the recovery ladder on
  /// exhaustion: bounded scavenging, then diversion into old space (which
  /// itself may run a full collection). Oversized requests — larger than
  /// a quarter of eden, or than eden outright — divert immediately; they
  /// could never be satisfied by scavenging and must not spin. They run
  /// the full collection first when old space is past its trigger.
  /// \returns the block (the caller learns where it landed via \p
  /// WentOld), or nullptr when every rung failed.
  uint8_t *allocateNewRaw(size_t TotalBytes, bool &WentOld);

  /// Old-space allocation walking the ladder's lower rungs: on refusal
  /// (heap ceiling, injected fault) a full collection runs to reclaim
  /// tenured garbage before one retry. The caller must be at a legal GC
  /// point. \returns the block, or nullptr — out of memory.
  uint8_t *allocateOldRescuing(size_t TotalBytes);

  /// \returns whether old-space usage has reached the heap ceiling —
  /// the state left behind when an evacuation had to overshoot it. While
  /// true the ladder skips the scavenge rungs (they could only push
  /// further past) and routes allocations through the rescue rung, whose
  /// full collection brings usage back under the ceiling or surfaces an
  /// orderly out-of-memory.
  bool oldAtCeiling() const {
    return Old.ceiling() != 0 && Old.used() >= Old.ceiling();
  }

  /// The edge-triggered low-space watermark check; end of scavenge, world
  /// stopped.
  void maybeSignalLowSpace();

  /// Bounded heap summary for the panic dump (atomics only — callable
  /// from any fatal path).
  std::string heapSummary();

  Oop allocateNew(Oop Cls, uint32_t Slots, ObjectFormat Format,
                  uint32_t ByteLen);
  Oop allocateOld(Oop Cls, uint32_t Slots, ObjectFormat Format,
                  uint32_t ByteLen);

  void initHeader(ObjectHeader *H, Oop Cls, uint32_t Slots,
                  ObjectFormat Format, uint32_t ByteLen, bool IsOld);
  void fillWithNil(ObjectHeader *H);

  /// Runs the scavenge with the world stopped (caller is coordinator).
  /// When \p AllowFullGc, tenuring that pushes old space past the current
  /// trigger runs a full collection inside the same pause.
  void performScavenge(bool AllowFullGc = true);

  /// Runs a full (mark-sweep) collection of old space with the world
  /// stopped and eden empty (a scavenge must precede it in this pause),
  /// then re-arms the growth-threshold trigger.
  void performFullGC();

  MemoryConfig Config;
  Safepoint Sp;
  RememberedSet RemSet;

  LinearSpace Eden;
  LinearSpace Survivors[2];
  unsigned ActiveSurvivor = 0; // Index of the space holding live survivors.
  OldSpace Old;

  SpinLock AllocLock;
  std::atomic<uint32_t> NextHash{1};

  Oop Nil;

  std::mutex MutatorsMutex;
  std::vector<std::unique_ptr<MutatorContext>> Mutators;

  std::mutex RootsMutex;
  std::vector<RootWalker> RootWalkers;
  std::vector<std::function<void()>> PreScavengeHooks;

  /// Old-space occupancy (bytes) that triggers the next automatic full
  /// collection; re-armed after every full GC from the survivors' size.
  /// Atomic only so diagnostics may read it racily; updates happen with
  /// the world stopped.
  std::atomic<size_t> FullGcTrigger;

  /// GC telemetry, this heap's only record of its collections. The
  /// registry sums same-name instances across every heap in the process
  /// (telemetry report, bench JSON); statsSnapshot(),
  /// fullGcStatsSnapshot() and the VM's statisticsReport() read this
  /// heap's instances alone. Written with the world stopped.
  Histogram PauseHist{"gc.scavenge.pause"};
  Histogram FullPauseHist{"gc.full.pause"};
  Counter ScavengesCtr{"gc.scavenges"};
  Counter BytesCopiedCtr{"gc.bytes.copied"};
  Counter BytesTenuredCtr{"gc.bytes.tenured"};
  Counter ObjectsCopiedCtr{"gc.objects.copied"};
  Counter ObjectsTenuredCtr{"gc.objects.tenured"};
  Counter FullGcsCtr{"gc.full.collections"};
  Counter FullSweptCtr{"gc.full.swept.bytes"};
  /// Old bytes surviving the most recent full collection.
  std::atomic<uint64_t> LastLiveBytes{0};
  Gauge EdenUsedGauge{"mem.eden.used", [this] { return edenUsed(); }};
  Gauge OldUsedGauge{"mem.old.used", [this] { return oldSpaceUsed(); }};
  Gauge OldFreeGauge{"mem.old.free", [this] { return oldSpaceFree(); }};

  /// Memory-pressure instrumentation: one counter per recovery-ladder
  /// rung, the low-space signal count, and the live headroom gauge.
  Counter LadderScavengeCtr{"mem.pressure.ladder.scavenge"};
  Counter LadderFullGcCtr{"mem.pressure.ladder.fullgc"};
  Counter LadderGrowCtr{"mem.pressure.ladder.grow"};
  Counter LadderOomCtr{"mem.pressure.ladder.oom"};
  Counter LowSpaceSignalsCtr{"gc.lowspace.signals"};
  /// Bytes the scavenger tenured past the ceiling because both old space
  /// and the survivor space refused mid-evacuation.
  Counter OvershootCtr{"mem.pressure.overshoot.bytes"};
  Gauge HeadroomGauge{"mem.headroom", [this] { return headroomBytes(); }};

  /// Low-space notification; write guarded by RootsMutex, invoked with
  /// the world stopped.
  std::function<void()> LowSpaceCallback;
  /// Edge trigger for the watermark; touched only with the world stopped.
  bool LowSpaceArmed = true;

  /// Panic-dump sections owned by this memory (heap summary + safepoint
  /// mutator table); unregistered in the destructor.
  int HeapPanicSection = -1;
  int SafepointPanicSection = -1;
};

} // namespace mst

#endif // MST_OBJMEM_OBJECTMEMORY_H
