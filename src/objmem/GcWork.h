//===-- objmem/GcWork.h - Work engine shared by both collectors -*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the scavenger and the full collector share: the per-object rules
/// every heap walker must agree on, and the machinery that applies several
/// processors to one collection (paper §3.1: "It may be possible to apply
/// multiple processors to the garbage collection task").
///
/// Work state is per worker, the way MS replicates per-interpreter state so
/// that it needs no lock: each worker pushes and pops its own LIFO stack,
/// and one that runs dry steals half a sibling's. With one worker nothing
/// is shared, so the stack locks are built disabled and unnamed and a
/// serial collection takes no lock at all. This is the one place that
/// starts collector threads (runWorkers) and decides when a drain is done
/// (WorkStacks::drain).
///
//===----------------------------------------------------------------------===//

#ifndef MST_OBJMEM_GCWORK_H
#define MST_OBJMEM_GCWORK_H

#include <atomic>
#include <cstdint>
#include <deque>
#include <thread>
#include <vector>

#include "objmem/ObjectHeader.h"
#include "vkernel/SpinLock.h"

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

/// \returns the number of threads to apply to one collection: the
/// configured count (0 means 1), or 1 without MpSupport, where OldSpace's
/// lock is a no-op and cannot serialize tenuring or the sweep.
unsigned workerCount(unsigned Configured, bool MpSupport);

/// Runs Body(W) for every worker W in [0, N): worker 0 on the calling
/// thread, the others on fresh threads, and returns once all are done.
template <typename BodyFn> void runWorkers(unsigned N, BodyFn &&Body) {
  std::vector<std::thread> Helpers;
  Helpers.reserve(N - 1);
  for (unsigned W = 1; W < N; ++W)
    Helpers.emplace_back([&Body, W] { Body(W); });
  Body(0);
  for (std::thread &T : Helpers)
    T.join();
}

/// Per-worker LIFO work stacks with steal-half and idle-count termination.
class WorkStacks {
public:
  /// \param StealPoint chaos point crossed before each steal attempt.
  WorkStacks(unsigned NumWorkers, const char *StealPoint);

  unsigned workers() const { return static_cast<unsigned>(Stacks.size()); }

  /// Pushes \p Obj on worker \p W's stack. A worker pushes only onto its
  /// own stack once the drain has started.
  void push(unsigned W, ObjectHeader *Obj) {
    Stack &S = Stacks[W];
    SpinLockGuard Guard(S.Lock);
    S.Items.push_back(Obj);
  }

  /// Worker \p W's drain: pops (or steals) and calls Visit on each object
  /// until every worker is idle and a last scan of every stack finds
  /// nothing. Visit may push more work onto \p W's stack. A worker that
  /// leaves can only miss loot a thief is still carrying, and the thief
  /// visits that itself, so the work is done once runWorkers has joined
  /// every worker.
  template <typename VisitFn> void drain(unsigned W, VisitFn &&Visit) {
    bool Idle = false;
    for (;;) {
      ObjectHeader *Obj = popOrSteal(W);
      if (!Obj) {
        if (!Idle) {
          Idle = true;
          IdleWorkers.fetch_add(1, std::memory_order_acq_rel);
        }
        if (IdleWorkers.load(std::memory_order_acquire) != workers()) {
          std::this_thread::yield();
          continue;
        }
        // Everyone is idle. popOrSteal scans every stack, so finding work
        // now means a racing worker pushed between our miss and the read.
        if (!(Obj = popOrSteal(W)))
          return;
      }
      if (Idle) {
        Idle = false;
        IdleWorkers.fetch_sub(1, std::memory_order_acq_rel);
      }
      Visit(Obj);
    }
  }

private:
  struct Stack {
    explicit Stack(bool Shared) : Lock(Shared) {}
    SpinLock Lock;
    std::vector<ObjectHeader *> Items;
  };

  /// Pops from \p W's own stack, else steals. \returns nullptr when every
  /// stack was empty.
  ObjectHeader *popOrSteal(unsigned W) {
    Stack &Me = Stacks[W];
    {
      SpinLockGuard Guard(Me.Lock);
      if (!Me.Items.empty()) {
        ObjectHeader *Obj = Me.Items.back();
        Me.Items.pop_back();
        return Obj;
      }
    }
    return workers() == 1 ? nullptr : steal(W);
  }

  /// Moves half of the first non-empty sibling stack onto \p W's and
  /// \returns one of the stolen objects, or nullptr.
  ObjectHeader *steal(unsigned W);

  /// deque: a Stack holds a SpinLock and cannot move once constructed.
  std::deque<Stack> Stacks;
  const char *StealPoint;
  std::atomic<unsigned> IdleWorkers{0};
};

} // namespace gc
} // namespace mst

#endif // MST_OBJMEM_GCWORK_H
