//===-- vm/MethodCache.h - Method lookup caches -----------------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The method-lookup cache. "A Smalltalk implementation performs a method
/// lookup very frequently; in typical interactive use, more than 10% of
/// the bytecodes interpreted require lookup. As a result, most Smalltalk
/// implementations rely heavily on software method-lookup caches" (paper
/// §3.2).
///
/// Two policies reproduce the paper's experience:
///  - **GlobalLocked**: one cache shared by every interpreter behind a
///    two-level locking scheme allowing multiple readers. MS tried this
///    first and "found that contention for the lock was causing it to run
///    much too slowly."
///  - **Replicated**: one cache per interpreter process — the fix. "The
///    drawback, of course, is that more overhead is involved ... because
///    it is replicated."
///
/// Entries hold oops; caches are flushed at every scavenge (objects move)
/// and on method installation (selectively, by selector). Both flushes of
/// a replicated cache run with the world stopped once interpreters run.
///
//===----------------------------------------------------------------------===//

#ifndef MST_VM_METHODCACHE_H
#define MST_VM_METHODCACHE_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "objmem/Oop.h"
#include "obs/Telemetry.h"
#include "vkernel/SpinLock.h"

namespace mst {

class Safepoint;

/// Which cache organization the VM uses (Table 3: serialization vs
/// replication of the method cache).
enum class MethodCacheKind : uint8_t {
  GlobalLocked,
  Replicated,
};

/// A readers/writer spin lock: the "two-level locking scheme to allow
/// multiple readers" of the paper's first method-cache design.
class RwSpinLock {
public:
  explicit RwSpinLock(bool Enabled) : Enabled(Enabled) {}

  void lockShared();
  void unlockShared() {
    if (Enabled)
      State.fetch_sub(1, std::memory_order_release);
  }
  void lockExclusive();
  void unlockExclusive() {
    if (Enabled)
      State.store(0, std::memory_order_release);
  }

private:
  bool Enabled;
  /// >0: reader count; 0: free; -1: writer.
  std::atomic<int32_t> State{0};
};

/// One direct-mapped cache table: (class, selector) -> method.
class MethodCacheTable {
public:
  static constexpr uint32_t NumEntries = 1024; // power of two

  MethodCacheTable() { clear(); }

  struct Entry {
    Oop Class;
    Oop Selector;
    Oop Method;
    Oop DefiningClass;
  };

  /// \returns the matching entry or nullptr.
  const Entry *lookup(Oop Cls, Oop Selector) const {
    const Entry &E = Entries[indexFor(Cls, Selector)];
    if (E.Class == Cls && E.Selector == Selector)
      return &E;
    return nullptr;
  }

  /// Installs a lookup result.
  void insert(Oop Cls, Oop Selector, Oop Method, Oop DefiningClass) {
    Entries[indexFor(Cls, Selector)] = {Cls, Selector, Method,
                                        DefiningClass};
  }

  /// Empties the whole table (scavenge flush).
  void clear() {
    for (Entry &E : Entries)
      E = Entry();
  }

  /// Removes entries whose selector is \p Selector (method installation).
  void removeSelector(Oop Selector) {
    for (Entry &E : Entries)
      if (E.Selector == Selector)
        E = Entry();
  }

private:
  static uint32_t indexFor(Oop Cls, Oop Selector) {
    uintptr_t H = (Cls.bits() >> 4) ^ (Selector.bits() >> 4) * 2654435761u;
    return static_cast<uint32_t>(H) & (NumEntries - 1);
  }

  Entry Entries[NumEntries];
};

/// Hit and miss counters, registered process-wide as methodcache.hits /
/// methodcache.misses; the §6 report and bench_table2's hit-rate column
/// read them. A cache's kind is fixed at construction, so kind() says
/// which organization the counts describe.
struct MethodCacheStats {
  Counter Hits{"methodcache.hits"};
  Counter Misses{"methodcache.misses"};
};

/// The cache facade used by interpreters. Holds either one shared locked
/// table or one table per interpreter.
class MethodCache {
public:
  /// \param Kind cache organization.
  /// \param NumInterpreters table count for the Replicated policy.
  /// \param LocksEnabled false in the baseline-BS build.
  MethodCache(MethodCacheKind Kind, unsigned NumInterpreters,
              bool LocksEnabled);

  MethodCacheKind kind() const { return Kind; }

  /// Looks up (class, selector) on behalf of interpreter \p InterpId.
  /// \returns true on a hit, filling \p Method / \p DefiningClass.
  bool lookup(unsigned InterpId, Oop Cls, Oop Selector, Oop &Method,
              Oop &DefiningClass);

  /// Records a completed full lookup.
  void insert(unsigned InterpId, Oop Cls, Oop Selector, Oop Method,
              Oop DefiningClass);

  /// Flushes everything (scavenge hook: cached oops may have moved).
  void flushAll();

  /// Flushes entries for \p Selector in every table (method install).
  /// After stopWorldToFlush, a replicated flush stops the world: the
  /// caller must be a mutator whose frame is written back, and must
  /// refresh it afterwards.
  void flushSelector(Oop Selector);

  /// Called when other threads start filling the replicated tables: from
  /// now on flushSelector rewrites them with \p Sp's world stopped.
  void stopWorldToFlush(Safepoint &Sp) { WorldStop = &Sp; }

  uint64_t hits() const { return Stats.Hits.value(); }
  uint64_t misses() const { return Stats.Misses.value(); }

private:
  MethodCacheKind Kind;
  RwSpinLock GlobalLock;
  std::vector<std::unique_ptr<MethodCacheTable>> Tables; // 1 or N
  Safepoint *WorldStop = nullptr; ///< set once interpreters run
  MethodCacheStats Stats;
};

} // namespace mst

#endif // MST_VM_METHODCACHE_H
