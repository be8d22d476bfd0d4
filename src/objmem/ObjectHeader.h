//===-- objmem/ObjectHeader.h - Heap object layout --------------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The header that precedes every heap object's body. The layout supports
/// the Generation Scavenging collector: a survival-count byte for tenuring,
/// a remembered flag for the entry table, an old-generation bit, and a
/// forwarding encoding that overlays the class word during a scavenge.
///
//===----------------------------------------------------------------------===//

#ifndef MST_OBJMEM_OBJECTHEADER_H
#define MST_OBJMEM_OBJECTHEADER_H

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "objmem/Oop.h"

namespace mst {

/// How an object's body is interpreted.
enum class ObjectFormat : uint8_t {
  /// Every body slot is an oop.
  Pointers,
  /// The body is raw bytes (Strings, Symbols, ByteArrays).
  Bytes,
  /// A context: slots are oops, but only slots [0, stack pointer] are live;
  /// the collector asks the VM layer for the live slot count.
  Context,
  /// A free block in old space (swept garbage awaiting reuse). Never
  /// reachable: the full collector's sweep produces these and
  /// OldSpace::allocate consumes them. The header is reused as free-list
  /// metadata — ClassBits holds the raw next-block pointer (8-aligned, so
  /// bit 0 stays clear and the block never looks forwarded), SlotCount
  /// keeps totalBytes() honest for chunk walks, and ByteLength holds
  /// FreeBlockMagic so the heap verifier can tell a genuine free block
  /// from scribbled memory.
  Free,
};

/// Sentinel stored in a free block's ByteLength field.
constexpr uint32_t FreeBlockMagic = 0xF6EEB10Cu;

/// Word pattern filling a free block's body; the verifier checks it so a
/// stray store into swept memory is caught at the next verifyHeap.
constexpr uint64_t FreeZapWord = 0xDEADBEEFDEADBEEFull;

/// Header flag bits.
enum : uint8_t {
  /// Object lives in the old generation (tenured or allocated old).
  FlagOld = 1u << 0,
  /// Old object recorded in the entry table (may refer to new objects).
  FlagRemembered = 1u << 1,
  /// Context has been captured (by a block or a pointer store) and must not
  /// be recycled onto the free context list.
  FlagEscaped = 1u << 2,
  /// Old object marked live by the current full collection. Cleared during
  /// the sweep, so the bit is always zero outside a full collection.
  FlagMarked = 1u << 3,
};

/// The per-object header. The body (slots or bytes) follows immediately.
struct ObjectHeader {
  /// The object's class oop. During a scavenge this word is overlaid with
  /// the forwarding pointer: forwarded iff bit 0 is set (class oops are
  /// always heap pointers, so bit 0 is otherwise clear).
  std::atomic<uintptr_t> ClassBits;

  /// Number of body slots (oop-sized words). For byte objects this counts
  /// the words that cover ByteLength bytes.
  uint32_t SlotCount;

  /// Identity hash, assigned at allocation.
  uint32_t Hash;

  /// Exact byte length for ObjectFormat::Bytes objects; 0 otherwise.
  uint32_t ByteLength;

  ObjectFormat Format;

  /// Flag bits (FlagOld, FlagRemembered, FlagEscaped). Atomic because
  /// different bits are owned by different subsystems (tenuring, the
  /// entry-table lock, context escape) and may be updated from different
  /// threads; relaxed RMWs keep concurrent bit updates from losing each
  /// other. No ordering is implied — each bit's consistency comes from
  /// its own subsystem's synchronization.
  std::atomic<uint8_t> Flags;

  /// Scavenges survived; reaching the tenuring threshold promotes the
  /// object to the old generation.
  uint8_t Age;

  uint8_t Unused = 0;

  /// \returns the object's class.
  Oop classOop() const {
    uintptr_t Bits = ClassBits.load(std::memory_order_relaxed);
    assert((Bits & 1u) == 0 && "reading class of a forwarded object");
    return Oop::fromBits(Bits);
  }

  /// Sets the object's class.
  void setClassOop(Oop Cls) {
    ClassBits.store(Cls.bits(), std::memory_order_relaxed);
  }

  /// \returns true when the header holds a forwarding pointer.
  bool isForwarded() const {
    return (ClassBits.load(std::memory_order_acquire) & 1u) != 0;
  }

  /// \returns the forwarding destination. Must be forwarded.
  ObjectHeader *forwardee() const {
    uintptr_t Bits = ClassBits.load(std::memory_order_acquire);
    assert((Bits & 1u) != 0 && "object is not forwarded");
    return reinterpret_cast<ObjectHeader *>(Bits & ~uintptr_t(1));
  }

  /// Overlays the class word with \p To as this object's forwarding
  /// pointer. The scavenger calls it once per copied object.
  void forwardTo(ObjectHeader *To) {
    assert(!isForwarded() && "object is already forwarded");
    ClassBits.store(reinterpret_cast<uintptr_t>(To) | 1u,
                    std::memory_order_release);
  }

  bool isOld() const {
    return (Flags.load(std::memory_order_relaxed) & FlagOld) != 0;
  }
  bool isRemembered() const {
    return (Flags.load(std::memory_order_relaxed) & FlagRemembered) != 0;
  }
  bool isEscaped() const {
    return (Flags.load(std::memory_order_relaxed) & FlagEscaped) != 0;
  }

  void setOld() { Flags.fetch_or(FlagOld, std::memory_order_relaxed); }
  void setRemembered(bool R) {
    if (R)
      Flags.fetch_or(FlagRemembered, std::memory_order_relaxed);
    else
      Flags.fetch_and(uint8_t(~FlagRemembered), std::memory_order_relaxed);
  }
  void setEscaped() { Flags.fetch_or(FlagEscaped, std::memory_order_relaxed); }

  bool isMarked() const {
    return (Flags.load(std::memory_order_relaxed) & FlagMarked) != 0;
  }
  /// Sets the mark bit. \returns true if this call set it (the caller owns
  /// tracing the object); false if the object was already marked.
  bool tryMark() {
    return (Flags.fetch_or(FlagMarked, std::memory_order_relaxed) &
            FlagMarked) == 0;
  }
  void clearMarked() {
    Flags.fetch_and(uint8_t(~FlagMarked), std::memory_order_relaxed);
  }

  /// \returns a pointer to the body's slot array.
  Oop *slots() { return reinterpret_cast<Oop *>(this + 1); }
  const Oop *slots() const { return reinterpret_cast<const Oop *>(this + 1); }

  /// \returns a pointer to the body's byte array.
  uint8_t *bytes() { return reinterpret_cast<uint8_t *>(this + 1); }
  const uint8_t *bytes() const {
    return reinterpret_cast<const uint8_t *>(this + 1);
  }

  /// \returns the object's total size in bytes, header included.
  size_t totalBytes() const {
    return sizeof(ObjectHeader) + SlotCount * sizeof(Oop);
  }
};

static_assert(sizeof(ObjectHeader) == 24, "header layout changed");
static_assert(alignof(ObjectHeader) == 8, "headers must be 8-byte aligned");

/// \returns the number of body slots needed to hold \p Bytes bytes.
inline uint32_t slotsForBytes(size_t Bytes) {
  return static_cast<uint32_t>((Bytes + sizeof(Oop) - 1) / sizeof(Oop));
}

} // namespace mst

#endif // MST_OBJMEM_OBJECTHEADER_H
