//===-- objmem/Spaces.cpp - Heap spaces -------------------------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "objmem/Spaces.h"

#include <cstdio>

#include "objmem/ObjectHeader.h"
#include "support/Assert.h"
#include "vkernel/Chaos.h"

using namespace mst;

static_assert(OldSpace::MinBlockBytes == sizeof(ObjectHeader),
              "free blocks must be at least one header");

void LinearSpace::init(size_t Bytes) {
  assert(!Storage && "space already initialized");
  // Over-align to 16 so every object header lands 8-byte aligned. Not
  // zero-filled: nothing reads a byte before it is written (Spaces.h),
  // so pages are committed only when first used.
  Storage = std::make_unique_for_overwrite<uint8_t[]>(Bytes + 16);
  auto Raw = reinterpret_cast<uintptr_t>(Storage.get());
  Base = reinterpret_cast<uint8_t *>((Raw + 15) & ~uintptr_t(15));
  Limit = Base + Bytes;
  Cur.store(Base, std::memory_order_relaxed);
}

namespace {
/// Free-list index for a block of \p Bytes total bytes.
size_t freeListIndex(size_t Bytes) {
  if (Bytes >= OldSpace::OverflowClassBytes)
    return OldSpace::NumExactClasses;
  return (Bytes - OldSpace::MinBlockBytes) / 8;
}
} // namespace

void OldSpace::pushFreeBlockLocked(uint8_t *P, size_t Bytes) {
  linkFreeBlockLocked(P, Bytes);
  auto *H = reinterpret_cast<ObjectHeader *>(P);
  auto *Body = reinterpret_cast<uint64_t *>(H + 1);
  for (uint32_t I = 0; I < H->SlotCount; ++I)
    Body[I] = FreeZapWord;
}

void OldSpace::linkFreeBlockLocked(uint8_t *P, size_t Bytes) {
  assert(Bytes >= MinBlockBytes && Bytes % 8 == 0 && "bad free block size");
  size_t Idx = freeListIndex(Bytes);
  auto *H = reinterpret_cast<ObjectHeader *>(P);
  H->ClassBits.store(reinterpret_cast<uintptr_t>(FreeHeads[Idx]),
                     std::memory_order_relaxed);
  H->SlotCount = static_cast<uint32_t>((Bytes - sizeof(ObjectHeader)) / 8);
  H->Hash = 0;
  H->ByteLength = FreeBlockMagic;
  H->Format = ObjectFormat::Free;
  H->Flags.store(0, std::memory_order_relaxed);
  H->Age = 0;
  H->Unused = 0;
  FreeHeads[Idx] = P;
  FreeBytes.fetch_add(Bytes, std::memory_order_relaxed);
}

uint8_t *OldSpace::splitFreeBlock(uint8_t *Block, size_t BlockBytes,
                                  size_t Bytes) {
  FreeBytes.fetch_sub(BlockBytes, std::memory_order_relaxed);
  size_t Remainder = BlockBytes - Bytes;
  assert((Remainder == 0 || Remainder >= MinBlockBytes) &&
         "split would strand an unparseable sliver");
  if (Remainder)
    linkFreeBlockLocked(Block + Bytes, Remainder);
  return Block;
}

uint8_t *OldSpace::takeFromFreeLists(size_t Bytes) {
  size_t Idx = freeListIndex(Bytes);
  if (Idx < NumExactClasses) {
    // Exact fit first.
    if (uint8_t *Head = FreeHeads[Idx]) {
      auto *H = reinterpret_cast<ObjectHeader *>(Head);
      FreeHeads[Idx] = reinterpret_cast<uint8_t *>(
          H->ClassBits.load(std::memory_order_relaxed));
      return splitFreeBlock(Head, Bytes, Bytes);
    }
    // A larger exact class, splitting off the remainder. Classes Idx+1 and
    // Idx+2 are skipped: their remainder (8 or 16 bytes) is smaller than a
    // header and would leave old space unparseable.
    for (size_t J = Idx + 3; J < NumExactClasses; ++J) {
      if (uint8_t *Head = FreeHeads[J]) {
        auto *H = reinterpret_cast<ObjectHeader *>(Head);
        FreeHeads[J] = reinterpret_cast<uint8_t *>(
            H->ClassBits.load(std::memory_order_relaxed));
        return splitFreeBlock(Head, MinBlockBytes + J * 8, Bytes);
      }
    }
  }
  // Overflow list: first fit, same no-sliver rule.
  ObjectHeader *Prev = nullptr;
  for (uint8_t *Block = FreeHeads[NumExactClasses]; Block;) {
    auto *H = reinterpret_cast<ObjectHeader *>(Block);
    size_t BlockBytes = H->totalBytes();
    auto *Next = reinterpret_cast<uint8_t *>(
        H->ClassBits.load(std::memory_order_relaxed));
    if (BlockBytes == Bytes || BlockBytes >= Bytes + MinBlockBytes) {
      if (Prev)
        Prev->ClassBits.store(reinterpret_cast<uintptr_t>(Next),
                              std::memory_order_relaxed);
      else
        FreeHeads[NumExactClasses] = Next;
      return splitFreeBlock(Block, BlockBytes, Bytes);
    }
    Prev = H;
    Block = Next;
  }
  return nullptr;
}

uint8_t *OldSpace::allocate(size_t Bytes) {
  return allocateImpl(Bytes, /*OverCeiling=*/false);
}

uint8_t *OldSpace::allocateOverCeiling(size_t Bytes) {
  return allocateImpl(Bytes, /*OverCeiling=*/true);
}

uint8_t *OldSpace::allocateImpl(size_t Bytes, bool OverCeiling) {
  assert(Bytes % 8 == 0 && "old-space requests must be 8-byte multiples");
  assert(Bytes >= MinBlockBytes && "request smaller than a header");
  SpinLockGuard Guard(Lock);
  // The ceiling bounds live old-space bytes, not just chunk growth:
  // serving a request past it — even from a recycled block — would let a
  // heap the evacuator overshot keep absorbing allocations forever
  // instead of surfacing out-of-memory to the recovery ladder.
  if (!OverCeiling && Ceiling &&
      Used.load(std::memory_order_relaxed) + Bytes > Ceiling)
    return nullptr;
  if (uint8_t *Recycled = takeFromFreeLists(Bytes)) {
    Used.fetch_add(Bytes, std::memory_order_relaxed);
    return Recycled;
  }
  if (Cur == nullptr || Cur + Bytes > Limit) {
    // Growth needs a fresh chunk. Refuse — leaving the current chunk
    // intact — when that would push usable capacity past the ceiling, or
    // when fault injection asks this growth to fail; the caller walks the
    // recovery ladder instead. Over-ceiling callers cannot back out (an
    // evacuation mid-copy) or recover (raw-oop metadata allocation), so
    // for them the ceiling and the injected fault are both waived.
    size_t NewChunk = ChunkBytes > Bytes + 16 ? ChunkBytes : Bytes + 16;
    if (Ceiling && !OverCeiling) {
      size_t Have = Capacity.load(std::memory_order_relaxed);
      size_t Avail = Ceiling > Have ? Ceiling - Have : 0;
      if (Avail < Bytes)
        return nullptr;
      // Shrink the final chunk to exactly what the ceiling still allows.
      if (NewChunk - 16 > Avail)
        NewChunk = Avail + 16;
    }
    if (!OverCeiling && chaos::failPoint("oldspace.grow.fail"))
      return nullptr;
    // Retire the current chunk: donate a parseable tail to the free lists;
    // a sliver smaller than a header is abandoned (the chunk walk stops at
    // Top, so it is never misread as an object).
    if (!Chunks.empty()) {
      size_t Tail = static_cast<size_t>(Limit - Cur);
      if (Tail >= MinBlockBytes) {
        pushFreeBlockLocked(Cur, Tail);
        Chunks.back().Top = Limit;
      } else {
        Chunks.back().Top = Cur;
      }
    }
    Chunk C;
    C.Mem = std::make_unique_for_overwrite<uint8_t[]>(NewChunk);
    auto Raw = reinterpret_cast<uintptr_t>(C.Mem.get());
    C.Base = reinterpret_cast<uint8_t *>((Raw + 15) & ~uintptr_t(15));
    C.Bytes = NewChunk - 16;
    Cur = C.Base;
    Limit = C.Base + C.Bytes;
    Capacity.fetch_add(C.Bytes, std::memory_order_relaxed);
    Chunks.push_back(std::move(C));
  }
  uint8_t *Result = Cur;
  Cur += Bytes;
  Used.fetch_add(Bytes, std::memory_order_relaxed);
  BumpRemaining.store(static_cast<size_t>(Limit - Cur),
                      std::memory_order_relaxed);
  return Result;
}

bool OldSpace::contains(const void *P) {
  auto *B = static_cast<const uint8_t *>(P);
  SpinLockGuard Guard(Lock);
  return containsLocked(B);
}

bool OldSpace::containsLocked(const uint8_t *B) const {
  for (size_t I = 0; I < Chunks.size(); ++I) {
    const Chunk &C = Chunks[I];
    // Only the allocated prefix of the current (= last) chunk counts;
    // retired chunks count up to their walkable Top.
    uint8_t *End = I + 1 == Chunks.size() ? Cur : C.Top;
    if (B >= C.Base && B < End)
      return true;
  }
  return false;
}

size_t OldSpace::chunkCount() {
  SpinLockGuard Guard(Lock);
  return Chunks.size();
}

OldSpace::ChunkSpan OldSpace::chunkSpan(size_t I) {
  SpinLockGuard Guard(Lock);
  assert(I < Chunks.size() && "chunk index out of range");
  const Chunk &C = Chunks[I];
  return {C.Base, I + 1 == Chunks.size() ? Cur : C.Top};
}

void OldSpace::sweepBegin() {
  SpinLockGuard Guard(Lock);
  // The sweep rediscovers every surviving free block as it walks the
  // chunks, so the lists restart empty (stale links would otherwise thread
  // through blocks the sweep is about to coalesce).
  for (uint8_t *&Head : FreeHeads)
    Head = nullptr;
  FreeBytes.store(0, std::memory_order_relaxed);
}

void OldSpace::addFreeBlock(uint8_t *P, size_t Bytes) {
  SpinLockGuard Guard(Lock);
  pushFreeBlockLocked(P, Bytes);
}

void OldSpace::noteReclaimed(size_t Bytes) {
  Used.fetch_sub(Bytes, std::memory_order_relaxed);
}

bool OldSpace::verifyFreeLists(std::string *Error) {
  char Buf[160];
  auto Fail = [&](const void *P, const char *Msg) {
    if (Error) {
      std::snprintf(Buf, sizeof(Buf), "verifyFreeLists: block %p: %s", P, Msg);
      *Error = Buf;
    }
    return false;
  };

  SpinLockGuard Guard(Lock);
  size_t Total = 0;
  // Cap the walk so a cyclic list terminates with a diagnostic instead of
  // hanging the verifier.
  size_t MaxBlocks =
      FreeBytes.load(std::memory_order_relaxed) / MinBlockBytes + 1;
  for (size_t Idx = 0; Idx <= NumExactClasses; ++Idx) {
    size_t Walked = 0;
    for (uint8_t *P = FreeHeads[Idx]; P;) {
      if (++Walked > MaxBlocks)
        return Fail(P, "free list is cyclic or longer than freeBytes allows");
      if (reinterpret_cast<uintptr_t>(P) & 7u)
        return Fail(P, "misaligned free block");
      auto *H = reinterpret_cast<ObjectHeader *>(P);
      if (H->Format != ObjectFormat::Free)
        return Fail(P, "free-list block without the Free format");
      if (H->ByteLength != FreeBlockMagic)
        return Fail(P, "free block without the free magic");
      size_t Bytes = H->totalBytes();
      if (Idx < NumExactClasses ? Bytes != MinBlockBytes + Idx * 8
                                : Bytes < OverflowClassBytes)
        return Fail(P, "free block on the wrong size-class list");
      if (!containsLocked(P) || !containsLocked(P + Bytes - 1))
        return Fail(P, "free block lies outside every old-space chunk");
      const auto *Body = reinterpret_cast<const uint64_t *>(H + 1);
      for (uint32_t I = 0; I < H->SlotCount; ++I)
        if (Body[I] != FreeZapWord)
          return Fail(P, "free block body lost its zap fill");
      Total += Bytes;
      P = reinterpret_cast<uint8_t *>(
          H->ClassBits.load(std::memory_order_relaxed));
    }
  }
  if (Total != FreeBytes.load(std::memory_order_relaxed))
    return Fail(nullptr, "free-list totals disagree with freeBytes()");
  return true;
}
