//===-- objmem/Spaces.h - Heap spaces ---------------------------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The memory regions of the Generation Scavenging heap: a linear
/// new-object space (eden), two survivor semispaces, and a chunked,
/// non-moving old space.
///
/// No space is zero-filled: nothing reads a space byte before an
/// allocator or the scavenger writes it. Allocation writes every header
/// and nil-fills or clears every body, the scavenger copies whole
/// objects, free blocks are zap-filled, linear walks stop at a survivor
/// space's frontier or a chunk's Top, and eden is never walked. So the
/// host commits a space's pages when they are first written, and a heap
/// holds only the memory its objects have touched.
///
//===----------------------------------------------------------------------===//

#ifndef MST_OBJMEM_SPACES_H
#define MST_OBJMEM_SPACES_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "vkernel/SpinLock.h"

namespace mst {

/// A contiguous bump-allocated region.
class LinearSpace {
public:
  LinearSpace() = default;

  /// Allocates the backing memory. May be called once.
  void init(size_t Bytes);

  /// Bump-allocates \p Bytes using an atomic fetch-add, so mutators refilling
  /// their TLABs from eden need no lock. \returns the block, or nullptr
  /// when full.
  uint8_t *tryBumpAtomic(size_t Bytes) {
    uint8_t *Old = Cur.fetch_add(Bytes, std::memory_order_relaxed);
    if (Old + Bytes <= Limit)
      return Old;
    // Undo the overshoot so used() stays meaningful.
    Cur.fetch_sub(Bytes, std::memory_order_relaxed);
    return nullptr;
  }

  /// Resets the bump pointer, making the whole space free again.
  void reset() { Cur.store(Base, std::memory_order_relaxed); }

  /// \returns true when \p P points into this space.
  bool contains(const void *P) const {
    auto *B = static_cast<const uint8_t *>(P);
    return B >= Base && B < Limit;
  }

  /// \returns bytes currently allocated.
  size_t used() const {
    return static_cast<size_t>(Cur.load(std::memory_order_relaxed) - Base);
  }

  /// \returns the capacity in bytes.
  size_t capacity() const { return static_cast<size_t>(Limit - Base); }

  /// \returns the start of the space (for linear scans).
  uint8_t *base() const { return Base; }

  /// \returns the current allocation frontier.
  uint8_t *frontier() const { return Cur.load(std::memory_order_relaxed); }

private:
  std::unique_ptr<uint8_t[]> Storage;
  uint8_t *Base = nullptr;
  uint8_t *Limit = nullptr;
  std::atomic<uint8_t *> Cur{nullptr};
};

/// The non-moving old generation: a list of chunks, grown on demand, plus
/// per-size-class free lists refilled by the full collector's sweep.
/// Allocation is serialized by a spin lock; old-space allocation happens
/// only at bootstrap, at tenuring time, and for objects too large for eden,
/// so contention is rare (the paper's criterion for serialization).
///
/// Free-list format: each free block is a dead object rewritten in place to
/// ObjectFormat::Free — the header's class word carries the raw next-block
/// pointer, the body is filled with FreeZapWord (see ObjectHeader.h). The
/// body is zap-filled once, when the block is formatted (sweep, chunk-tail
/// donation); a split writes only the remainder's header, because the
/// remainder lies inside a body that is already zap-filled. Exact size
/// classes cover blocks up to OverflowClassBytes in 8-byte steps; one
/// overflow list holds everything larger, allocated first-fit with a split.
class OldSpace {
public:
  /// Free blocks of exactly OverflowClassBytes + anything larger land on
  /// the overflow list; below that, list I holds blocks of exactly
  /// MinBlockBytes + I*8 bytes.
  static constexpr size_t NumExactClasses = 64;
  static constexpr size_t MinBlockBytes = 24; // == sizeof(ObjectHeader)
  static constexpr size_t OverflowClassBytes =
      MinBlockBytes + NumExactClasses * 8;

  /// \param ChunkBytes size of each chunk.
  /// \param LocksEnabled false for the baseline-BS (no-MP) build.
  OldSpace(size_t ChunkBytes, bool LocksEnabled)
      : ChunkBytes(ChunkBytes), Lock(LocksEnabled, "oldspace") {}

  /// Allocates \p Bytes from old space, preferring a recycled free block
  /// over bump allocation. Growth respects the configured ceiling: when
  /// satisfying the request needs a new chunk that would push usable
  /// capacity past setCeiling() — or when fault injection refuses the
  /// growth ("oldspace.grow.fail") — allocation fails instead of taking
  /// more memory from the host. \returns the block, or nullptr on
  /// refusal; callers walk the memory-pressure recovery ladder, or fall
  /// back to allocateOverCeiling() when no rung is sound for them.
  uint8_t *allocate(size_t Bytes);

  /// allocate() for callers that can neither back out nor walk the
  /// recovery ladder: an evacuation mid-copy (forwarding pointers already
  /// installed) and VM-metadata allocation (compiled methods, symbols —
  /// raw-oop holders that must not trigger a moving collection). Ignores
  /// the ceiling (and fault injection) and overshoots rather than wedge
  /// or panic. The overshoot is bounded — by the young generation being
  /// evacuated, or by the program text driving the compiler — and the
  /// pressure ladder refuses mutator work while used() stays at or past
  /// the ceiling, so it is transient, not a leak.
  uint8_t *allocateOverCeiling(size_t Bytes);

  /// Caps usable capacity at \p Bytes (0 = unbounded). Set before the
  /// space is shared between threads; allocate() reads it unlocked.
  void setCeiling(size_t Bytes) { Ceiling = Bytes; }

  /// \returns the usable-capacity ceiling (0 = unbounded).
  size_t ceiling() const { return Ceiling; }

  /// \returns bytes currently held by live allocations (bump allocations
  /// plus free-list reuse, minus bytes reclaimed by sweeps).
  size_t used() const { return Used.load(std::memory_order_relaxed); }

  /// \returns bytes currently parked on the free lists.
  size_t freeBytes() const { return FreeBytes.load(std::memory_order_relaxed); }

  /// \returns un-carved bytes left in the open chunk's bump region —
  /// obtainable without growing, but on neither the free lists nor
  /// used(). Headroom accounting must include it or it undercounts by up
  /// to a whole chunk. Racy snapshot; exact only with allocation quiesced.
  size_t bumpRemaining() const {
    return BumpRemaining.load(std::memory_order_relaxed);
  }

  /// \returns total usable bytes across all chunks.
  size_t capacity() const { return Capacity.load(std::memory_order_relaxed); }

  /// \returns true when \p P points into any old-space chunk. Heap
  /// verification support; takes the allocation lock.
  bool contains(const void *P);

  /// --- Sweep support (world stopped; the full collector only) ------------

  /// A chunk's walkable extent: every byte in [Begin, End) is covered by
  /// consecutive object or free-block headers.
  struct ChunkSpan {
    uint8_t *Begin;
    uint8_t *End;
  };

  size_t chunkCount();
  ChunkSpan chunkSpan(size_t I);

  /// Empties every free list (the sweep rebuilds them from scratch; stale
  /// blocks are rediscovered as it walks the chunks).
  void sweepBegin();

  /// Formats [P, P+Bytes) as a free block and threads it onto the fitting
  /// list. \p Bytes must be 8-aligned and >= sizeof(ObjectHeader).
  void addFreeBlock(uint8_t *P, size_t Bytes);

  /// Credits \p Bytes of freshly dead objects back to the space: used()
  /// drops by that amount. Recycled free blocks are not re-counted.
  void noteReclaimed(size_t Bytes);

  /// Walks every free list checking each block is inside a chunk, carries
  /// the Free format and magic, and has an intact zap-filled body, and
  /// that the per-list totals add up to freeBytes(). \returns true when
  /// consistent; on failure describes the first violation in \p Error.
  bool verifyFreeLists(std::string *Error = nullptr);

private:
  struct Chunk {
    std::unique_ptr<uint8_t[]> Mem;
    uint8_t *Base = nullptr; // 16-aligned usable start
    size_t Bytes = 0;        // usable length
    uint8_t *Top = nullptr;  // walkable end: headers cover [Base, Top)
  };

  /// allocate()/allocateOverCeiling() shared body; OverCeiling skips the
  /// ceiling refusal and the injected growth fault.
  uint8_t *allocateImpl(size_t Bytes, bool OverCeiling);

  /// Formats a free block (header and zap-filled body) and threads it
  /// onto the fitting list. Lock held.
  void pushFreeBlockLocked(uint8_t *P, size_t Bytes);

  /// Writes a free-block header at \p P and threads it onto the fitting
  /// list; the body must already be zap-filled. Lock held.
  void linkFreeBlockLocked(uint8_t *P, size_t Bytes);

  /// Carves \p Bytes off the front of free block \p Block (of \p BlockBytes
  /// total), returning any usable remainder to the lists. The remainder's
  /// body is already zap-filled, so only its header is written: O(1) no
  /// matter how large the block. Lock held.
  uint8_t *splitFreeBlock(uint8_t *Block, size_t BlockBytes, size_t Bytes);

  /// Pops a fitting free block, or nullptr. Lock held.
  uint8_t *takeFromFreeLists(size_t Bytes);

  /// contains() with the lock already held.
  bool containsLocked(const uint8_t *B) const;

  size_t ChunkBytes;
  size_t Ceiling = 0; // usable-capacity cap; 0 = unbounded
  SpinLock Lock;
  std::vector<Chunk> Chunks;
  uint8_t *Cur = nullptr;
  uint8_t *Limit = nullptr;
  std::atomic<size_t> Used{0};
  std::atomic<size_t> FreeBytes{0};
  std::atomic<size_t> Capacity{0};
  std::atomic<size_t> BumpRemaining{0}; // Limit - Cur, published per alloc.
  /// Heads of the per-size-class lists ([NumExactClasses] is overflow);
  /// links live in the blocks' class words.
  uint8_t *FreeHeads[NumExactClasses + 1] = {};
};

} // namespace mst

#endif // MST_OBJMEM_SPACES_H
