//===-- objmem/Scavenger.h - Generation Scavenging --------------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Generation Scavenging collector (Ungar 1984): a stop-and-copy
/// scheme over eden plus one survivor space, with tenuring into the
/// non-moving old generation. Because BS/MS use direct pointers with no
/// indirection except during the scavenge itself, the world is stopped for
/// the duration (paper §3.1).
///
/// Supports applying multiple processors to one scavenge — the experiment
/// the paper describes but had not yet performed. Each worker copies from
/// its own share of the roots onto its own scan stack (GcWork.h), stealing
/// when it runs dry; workers bump-allocate survivor space atomically and
/// race to install forwarding pointers with compare-and-swap. Each keeps
/// its own promoted list and counts, summed after the join, so a serial
/// scavenge shares nothing and takes no lock.
///
//===----------------------------------------------------------------------===//

#ifndef MST_OBJMEM_SCAVENGER_H
#define MST_OBJMEM_SCAVENGER_H

#include <cstdint>
#include <vector>

#include "objmem/GcWork.h"
#include "objmem/Oop.h"

namespace mst {

class ObjectMemory;

/// One scavenge operation. Constructed per scavenge by ObjectMemory with
/// the world stopped.
class Scavenger {
public:
  explicit Scavenger(ObjectMemory &OM);

  /// Runs the scavenge. On return all live new objects have been copied
  /// into the destination survivor space or tenured, every root and
  /// old-space reference is updated, and the remembered set is rebuilt.
  void run();

  uint64_t bytesCopied() const { return Totals.BytesCopied; }
  uint64_t bytesTenured() const { return Totals.BytesTenured; }
  uint64_t objectsCopied() const { return Totals.ObjectsCopied; }
  uint64_t objectsTenured() const { return Totals.ObjectsTenured; }

private:
  /// What one worker copied and tenured.
  struct alignas(64) WorkerOut {
    std::vector<ObjectHeader *> Promoted;
    uint64_t BytesCopied = 0;
    uint64_t BytesTenured = 0;
    uint64_t ObjectsCopied = 0;
    uint64_t ObjectsTenured = 0;
  };

  /// Gathers the addresses of every root oop cell: registered walkers,
  /// mutator handle stacks, and the live fields of remembered old objects.
  void collectRootCells(std::vector<Oop *> &Cells);

  /// Relocates the object referenced by \p Cell (if young) and updates the
  /// cell. Copies worker \p W makes go onto its scan stack.
  void processCell(Oop *Cell, unsigned W);

  /// Ensures \p Obj has a copy in to-space or old space.
  /// \returns the copy (or \p Obj's existing forwardee).
  ObjectHeader *copyObject(ObjectHeader *Obj, unsigned W);

  /// Visits the class word and every live field of \p Obj.
  void scanObject(ObjectHeader *Obj, unsigned W);

  /// Rebuilds the remembered set from the prior entries plus every object
  /// tenured during this scavenge.
  void rebuildRememberedSet();

  ObjectMemory &OM;
  /// Destination survivor space for this scavenge.
  class LinearSpace *ToSpace;
  gc::WorkStacks Stacks;
  std::vector<WorkerOut> Out;
  WorkerOut Totals;
};

} // namespace mst

#endif // MST_OBJMEM_SCAVENGER_H
