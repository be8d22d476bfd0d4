//===-- objmem/GcWork.h - Rules every heap walker shares --------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-object rules every heap walker must agree on: which slots of an
/// object are live oop cells, and whether an old object refers to a young
/// one. The scavenger, the full collector, the heap verifier and the
/// snapshot writer all trace through these.
///
//===----------------------------------------------------------------------===//

#ifndef MST_OBJMEM_GCWORK_H
#define MST_OBJMEM_GCWORK_H

#include <cstdint>

#include "objmem/ObjectHeader.h"

namespace mst {
namespace gc {

/// \returns the number of body slots a heap walker must treat as live oop
/// cells: all of a pointer object's, none of a byte object's, and a
/// context's only up to its stack pointer (the dead slots above it may
/// hold stale junk). Both collectors, the heap verifier and the snapshot
/// writer trace exactly these.
uint32_t liveSlots(const ObjectHeader *Obj);

/// \returns true when a live slot of \p Obj references a young object, i.e.
/// when an old \p Obj belongs in the remembered set.
bool refsYoung(const ObjectHeader *Obj);

} // namespace gc
} // namespace mst

#endif // MST_OBJMEM_GCWORK_H
