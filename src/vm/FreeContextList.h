//===-- vm/FreeContextList.h - Free stack-frame lists -----------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The free context list: "BS maintains a list of unused stack frames,
/// because it is more efficient to reuse one than to allocate and
/// initialize a new one" (paper §3.2). Profiling an early MS revealed that
/// serializing access to this list was a bottleneck; replicating it
/// per-interpreter cut the worst-case overhead from 160% to 65%.
///
/// Both policies are provided so bench_table2's shared-list row can
/// reproduce that result. Lists hold oops of *dead, never-escaped*
/// contexts; because a scavenge would otherwise treat stale entries as
/// garbage roots, every list is flushed at the start of each scavenge
/// (pre-scavenge hook). Replicated lists take no lock: only the owning
/// interpreter touches its list, and the flush runs while every
/// interpreter is stopped.
///
//===----------------------------------------------------------------------===//

#ifndef MST_VM_FREECONTEXTLIST_H
#define MST_VM_FREECONTEXTLIST_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "objmem/Oop.h"
#include "obs/Telemetry.h"
#include "vkernel/SpinLock.h"

namespace mst {

/// Which free-context organization the VM uses.
enum class FreeContextKind : uint8_t {
  /// One list shared by all interpreters behind a spin lock — the early-MS
  /// bottleneck.
  Shared,
  /// One unlocked list per interpreter — the published fix.
  Replicated,
};

/// The pool of reusable context objects.
class FreeContextPool {
public:
  /// \param LocksEnabled false in the baseline-BS build; only a Shared
  ///        list ever locks.
  FreeContextPool(FreeContextKind Kind, unsigned NumInterpreters,
                  bool LocksEnabled);

  FreeContextKind kind() const { return Kind; }

  /// \returns a recycled context with at least \p Slots body slots, or the
  /// null oop when the matching bin is empty. \p InterpId selects the
  /// replica under the Replicated policy.
  Oop take(unsigned InterpId, uint32_t Slots);

  /// Returns a dead context to the pool. The caller guarantees it is
  /// unreferenced (never escaped, just returned from).
  void give(unsigned InterpId, Oop Ctx);

  /// Empties every list. Runs as a pre-scavenge hook: recycled contexts
  /// are dead objects and must not survive into the next GC cycle.
  void flushAll();

  uint64_t reuses() const { return Reuses.value(); }
  uint64_t returns() const { return Returns.value(); }

private:
  struct Bins {
    explicit Bins(bool LocksEnabled) : Lock(LocksEnabled, "freectx") {}
    SpinLock Lock;
    std::vector<Oop> Small;
    std::vector<Oop> Large;
  };

  Bins &binsFor(unsigned InterpId) {
    return Kind == FreeContextKind::Replicated ? *PerInterp[InterpId]
                                               : *PerInterp[0];
  }

  FreeContextKind Kind;
  std::vector<std::unique_ptr<Bins>> PerInterp; // 1 or N
  Counter Reuses{"freectx.reuses"};
  Counter Returns{"freectx.returns"};
};

} // namespace mst

#endif // MST_VM_FREECONTEXTLIST_H
