//===-- objmem/FullGC.h - Parallel mark-sweep full collector ----*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A stop-the-world, parallel mark-sweep collector for old space. BS/MS
/// never reclaimed tenured garbage — the paper's old space only grows —
/// which no long-running system survives, so this is the repo's deliberate
/// departure: the standard next step for per-thread young-generation
/// machinery (cf. Auhagen et al., "Garbage Collection for Multicore NUMA
/// Machines").
///
/// The collector reuses the safepoint rendezvous as its pause and always
/// runs immediately after a scavenge in the same pause: eden is then empty
/// and every live young object sits in the active survivor space, which is
/// linearly parseable. Marking therefore roots from the external root
/// cells (VM globals, symbol table, per-process context chains, handle
/// stacks) plus a linear scan of the survivor space, and the mark stacks
/// only ever hold old objects. The remembered set is deliberately *not* a
/// root — treating it as one would keep dead old objects alive; it is
/// rebuilt during the sweep from surviving old→young pointers.
///
/// Marking fans out over FullGcWorkers threads with per-worker mark stacks
/// and work-stealing (GcWork.h, shared with the scavenger); sweeping
/// parallelizes over old-space chunks, threads reclaimed blocks onto
/// OldSpace's per-size-class free lists, and coalesces adjacent dead runs.
/// Each worker keeps its own sweep results, summed after the join, so a
/// serial collection (one worker, or any BS heap) takes no lock of its own.
///
//===----------------------------------------------------------------------===//

#ifndef MST_OBJMEM_FULLGC_H
#define MST_OBJMEM_FULLGC_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "objmem/GcWork.h"

namespace mst {

class ObjectMemory;

/// One full collection of old space. Construct and run() with the world
/// stopped, immediately after a scavenge (eden must be empty).
class FullGC {
public:
  explicit FullGC(ObjectMemory &OM);

  /// Marks live old objects, sweeps the chunks, rebuilds the remembered
  /// set. The caller owns the safepoint.
  void run();

  /// \returns bytes of freshly dead objects returned to the free lists.
  size_t sweptBytes() const { return Swept; }
  /// \returns bytes of old objects that survived the collection.
  size_t liveBytes() const { return Live; }

private:
  /// What one worker's sweep found.
  struct alignas(64) SweepOut {
    /// Survivors that still reference young objects.
    std::vector<ObjectHeader *> Remembered;
    size_t Swept = 0;
    size_t Live = 0;
  };

  /// Marks \p H if old and unmarked, pushing it on worker \p W's stack.
  void markAndPush(ObjectHeader *H, unsigned W);

  /// Seeds the mark stacks from the root cells and the survivor scan
  /// (coordinator only, before the workers start).
  void seedRoots();

  /// Traces \p Obj's class and live slots, marking old referents onto
  /// worker \p W's stack.
  void traceObject(ObjectHeader *Obj, unsigned W);

  /// Claims and sweeps chunks until none remain.
  void sweepLoop(unsigned W);

  /// Sweeps one chunk span, coalescing dead runs onto the free lists.
  void sweepChunk(uint8_t *Begin, uint8_t *End, SweepOut &Mine);

  ObjectMemory &OM;
  gc::WorkStacks Stacks;
  std::vector<SweepOut> Out;
  size_t ChunksToSweep = 0;
  std::atomic<size_t> NextChunk{0};
  size_t Swept = 0;
  size_t Live = 0;
};

} // namespace mst

#endif // MST_OBJMEM_FULLGC_H
