//===-- objmem/MemoryConfig.h - Object memory configuration -----*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Configuration of the object memory. The allocation-space size `s` and
/// the allocator policy are first-class experimental knobs: the paper
/// argues (§3.1) that scavenge frequency is roughly r/s and that a
/// k-processor system wants a k·s allocation space, and suspects (§4) that
/// contention in storage allocation is a major overhead source, proposing
/// replication of the new-object space — our Tlab allocator.
///
//===----------------------------------------------------------------------===//

#ifndef MST_OBJMEM_MEMORYCONFIG_H
#define MST_OBJMEM_MEMORYCONFIG_H

#include <cstddef>
#include <cstdint>

namespace mst {

/// Policy for allocating in the new-object space (paper Table 3 column 1 vs
/// the §4 improvement).
enum class AllocatorKind : uint8_t {
  /// One bump pointer guarded by a spin lock — MS as published: "memory
  /// allocation ... amounts to little more than incrementing a pointer".
  Serialized,
  /// Per-interpreter allocation buffers carved out of eden — "replication
  /// of the new-object space should have significant benefits".
  Tlab,
};

/// Object memory configuration.
struct MemoryConfig {
  /// Size of the allocation space (eden), the paper's `s`. MS used 80K
  /// bytes; we default larger because modern allocation rates are higher,
  /// and sweep it in bench_scavenge.
  size_t EdenBytes = 4u << 20;

  /// Size of each survivor semispace.
  size_t SurvivorBytes = 1u << 20;

  /// Size of each old-space chunk; old space grows by whole chunks.
  size_t OldChunkBytes = 8u << 20;

  /// Scavenges an object must survive before being tenured into old space.
  uint8_t TenureAge = 2;

  /// Allocation policy for the new-object space.
  AllocatorKind Allocator = AllocatorKind::Serialized;

  /// Bytes per thread-local allocation buffer refill (Tlab policy only).
  size_t TlabBytes = 16u * 1024;

  /// Full (mark-sweep) collection of old space. BS/MS never reclaimed
  /// tenured garbage — old space only grew — which no long-running system
  /// survives; the full collector is our departure from the paper.
  bool FullGcEnabled = true;

  /// Old-space occupancy that arms the growth-threshold trigger: when a
  /// scavenge's tenuring pushes used old bytes past the current trigger, a
  /// full collection runs inside the same pause. After each full GC the
  /// trigger is re-armed at max(threshold, 1.5 x live bytes) (the
  /// "tenure-pressure heuristic"), so a genuinely growing live set does
  /// not thrash the collector.
  size_t FullGcThresholdBytes = 64u << 20;

  /// Ceiling on total heap bytes: eden + both survivor spaces + old
  /// space's live bytes and usable capacity. 0 = unbounded (old space
  /// grows chunk by chunk forever, the pre-ceiling behaviour). With a
  /// ceiling, allocation failure walks the recovery ladder — scavenge,
  /// full collection, bounded old-space growth — and finally surfaces as
  /// a null oop that
  /// the VM layer raises into the requesting process as OutOfMemoryError.
  /// The Firefly had 16 MB for everything; exhaustion is a normal
  /// operating condition, not a crash. When this is 0 the MST_MAX_HEAP_BYTES
  /// environment variable supplies a default ceiling (the CI small-heap
  /// lane's hook); an explicit value here always wins.
  size_t MaxHeapBytes = 0;

  /// Low-space watermark. At the end of every scavenge the obtainable
  /// old-space headroom (bytes still allocatable under the ceiling plus
  /// recycled free-list bytes) is compared against this; on falling below
  /// it the registered low-space semaphore is signalled, once per
  /// crossing (re-armed when headroom recovers). Meaningful only with a
  /// ceiling.
  size_t LowSpaceWatermarkBytes = 256u * 1024;

  /// Safepoint watchdog deadline (milliseconds): a stop-the-world
  /// rendezvous stalled longer than this emits a postmortem panic dump
  /// naming the unresponsive mutators — and aborts when no panic handler
  /// is installed — instead of hanging forever. 0 = no watchdog.
  uint64_t WatchdogMillis = 0;

  /// Runs verifyHeap() at the end of every collection, with the world
  /// still stopped, routing any failure through panic(). Expensive (full
  /// reachability walk per GC); stress suites only.
  bool VerifyAfterGc = false;

  /// When false every lock in the object memory is a no-op: the
  /// "baseline BS" uniprocessor configuration of Table 2.
  bool MpSupport = true;
};

} // namespace mst

#endif // MST_OBJMEM_MEMORYCONFIG_H
