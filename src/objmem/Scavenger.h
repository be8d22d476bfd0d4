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
/// The scavenge runs on the thread that stopped the world, as MS's did:
/// it copies every root's referent in root order, then drains one LIFO
/// scan stack. The paper's open question, whether several processors
/// could share one scavenge, was measured here and answered no for this
/// heap (EXPERIMENTS.md §3.1/§6), so nothing is shared and nothing is
/// locked.
///
//===----------------------------------------------------------------------===//

#ifndef MST_OBJMEM_SCAVENGER_H
#define MST_OBJMEM_SCAVENGER_H

#include <cstdint>
#include <vector>

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

  uint64_t bytesCopied() const { return BytesCopied; }
  uint64_t bytesTenured() const { return BytesTenured; }
  uint64_t objectsCopied() const { return ObjectsCopied; }
  uint64_t objectsTenured() const { return ObjectsTenured; }

private:
  /// Relocates the referent of every root oop cell, in order: registered
  /// walkers, mutator handle stacks, and the live fields of remembered old
  /// objects.
  void copyRoots();

  /// Relocates the object referenced by \p Cell (if young) and updates the
  /// cell.
  void processCell(Oop *Cell);

  /// Ensures \p Obj has a copy in to-space or old space, pushing a new
  /// copy on the scan stack. \returns the copy (or \p Obj's existing
  /// forwardee).
  ObjectHeader *copyObject(ObjectHeader *Obj);

  /// Visits the class word and every live field of \p Obj.
  void scanObject(ObjectHeader *Obj);

  /// Rebuilds the remembered set from the prior entries plus every object
  /// tenured during this scavenge.
  void rebuildRememberedSet();

  ObjectMemory &OM;
  /// Destination survivor space for this scavenge.
  class LinearSpace *ToSpace;
  /// Copies whose fields are not yet scanned.
  std::vector<ObjectHeader *> ScanStack;
  /// Objects tenured by this scavenge.
  std::vector<ObjectHeader *> Promoted;
  uint64_t BytesCopied = 0;
  uint64_t BytesTenured = 0;
  uint64_t ObjectsCopied = 0;
  uint64_t ObjectsTenured = 0;
};

} // namespace mst

#endif // MST_OBJMEM_SCAVENGER_H
