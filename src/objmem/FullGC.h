//===-- objmem/FullGC.h - Mark-sweep full collector -------------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A stop-the-world mark-sweep collector for old space. BS/MS never
/// reclaimed tenured garbage — the paper's old space only grows — which
/// no long-running system survives, so this is the repo's deliberate
/// departure: the standard next step for per-thread young-generation
/// machinery (cf. Auhagen et al., "Garbage Collection for Multicore NUMA
/// Machines").
///
/// The collector reuses the safepoint rendezvous as its pause and always
/// runs immediately after a scavenge in the same pause: eden is then empty
/// and every live young object sits in the active survivor space, which is
/// linearly parseable. Marking therefore roots from the external root
/// cells (VM globals, symbol table, per-process context chains, handle
/// stacks) plus a linear scan of the survivor space, and the mark stack
/// only ever holds old objects. The remembered set is deliberately *not* a
/// root — treating it as one would keep dead old objects alive; it is
/// rebuilt during the sweep from surviving old→young pointers.
///
/// Like the scavenger, it runs on the thread that stopped the world: one
/// LIFO mark stack, then a sweep of the chunks in order that threads
/// reclaimed blocks onto OldSpace's per-size-class free lists and
/// coalesces adjacent dead runs. It takes no lock of its own.
///
//===----------------------------------------------------------------------===//

#ifndef MST_OBJMEM_FULLGC_H
#define MST_OBJMEM_FULLGC_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "objmem/Oop.h"

namespace mst {

class ObjectMemory;

/// One full collection of old space. Construct and run() with the world
/// stopped, immediately after a scavenge (eden must be empty).
class FullGC {
public:
  explicit FullGC(ObjectMemory &OM) : OM(OM) {}

  /// Marks live old objects, sweeps the chunks, rebuilds the remembered
  /// set. The caller owns the safepoint.
  void run();

  /// \returns bytes of freshly dead objects returned to the free lists.
  size_t sweptBytes() const { return Swept; }
  /// \returns bytes of old objects that survived the collection.
  size_t liveBytes() const { return Live; }

private:
  /// Marks \p H if unmarked, pushing it on the mark stack.
  void markAndPush(ObjectHeader *H);

  /// Marks the old referents of the root cells and of the survivor space.
  void markRoots();

  /// Traces \p Obj's class and live slots, marking old referents.
  void traceObject(ObjectHeader *Obj);

  /// Sweeps one chunk span, coalescing dead runs onto the free lists.
  void sweepChunk(uint8_t *Begin, uint8_t *End);

  ObjectMemory &OM;
  /// Marked objects whose fields are not yet traced.
  std::vector<ObjectHeader *> MarkStack;
  /// Survivors that still reference young objects.
  std::vector<ObjectHeader *> Remembered;
  size_t Swept = 0;
  size_t Live = 0;
};

} // namespace mst

#endif // MST_OBJMEM_FULLGC_H
