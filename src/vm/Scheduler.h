//===-- vm/Scheduler.h - Smalltalk Process scheduling -----------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scheduling of Smalltalk Processes onto interpreter processes.
///
/// Structure follows the paper faithfully:
///  - **Serialization** (§3.1): one lock guards the single priority queue;
///    scheduling events (signals, suspends, resumes) are infrequent.
///  - **Single ready queue** (§3.2): although the interpreter is
///    replicated, the ProcessorScheduler is not — one queue, so Smalltalk
///    Processes are *dynamically* assigned to interpreter processes and
///    never need moving between queues.
///  - **Reorganization** (§3.3): the VM ignores the activeProcess slot;
///    `thisProcess` and `canRun:` replace `activeProcess`; a running
///    Process is NOT removed from the ready queue, so "the ready queue
///    contains all Processes which are ready to run including those
///    running". The activeProcess slot is only filled in before a snapshot
///    and emptied afterwards.
///
/// The queue itself is made of Smalltalk objects (Process links inside
/// LinkedLists hanging off the Processor object), fully visible at the
/// user level, exactly as in Smalltalk-80.
///
//===----------------------------------------------------------------------===//

#ifndef MST_VM_SCHEDULER_H
#define MST_VM_SCHEDULER_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>

#include "objmem/Safepoint.h"
#include "obs/Telemetry.h"
#include "vkernel/SpinLock.h"
#include "vm/ObjectModel.h"

namespace mst {

/// C++ face of the (single) ProcessorScheduler.
class Scheduler {
public:
  Scheduler(ObjectModel &Om, Safepoint &Sp);

  /// Creates a new suspended Process (new space: the caller must treat
  /// this as a GC point). \p InitialContext is its suspended context.
  /// \returns the null oop when an allocation is refused.
  Oop createProcess(Oop InitialContext, int Priority,
                    const std::string &Name);

  /// Puts \p Proc on the ready queue (resume / initial schedule) and wakes
  /// an idle interpreter.
  void addReadyProcess(Oop Proc);

  /// Picks the highest-priority ready Process not already running and
  /// marks it running. The Process **stays in the queue** (reorganized
  /// canRun: semantics). \returns null when nothing is runnable.
  Oop pickProcessToRun();

  /// Ends \p Proc's turn: moves it to the back of its priority list and
  /// clears its running flag (timeslice round-robin / Processor yield).
  void yieldProcess(Oop Proc);

  /// Semaphore wait on behalf of the running \p Proc. \returns true when
  /// the process blocked (caller must reschedule); false when an excess
  /// signal was consumed and the process continues.
  bool semaphoreWait(Oop Sem, Oop Proc);

  /// Semaphore signal: unblocks the longest-waiting process, or banks an
  /// excess signal.
  void semaphoreSignal(Oop Sem);

  /// Removes \p Proc from whatever list it is on (ready or semaphore).
  /// A process running on another interpreter keeps executing until its
  /// slice ends; that interpreter then notices the empty myList and drops
  /// it (the §3.3 concurrency caveat: manipulating an active Process is
  /// inherently racy at user level).
  void suspendProcess(Oop Proc);

  /// Puts a suspended \p Proc back on the ready queue.
  void resumeProcess(Oop Proc);

  /// Terminates \p Proc: removes it from its list and clears its context.
  void terminateProcess(Oop Proc);

  /// \returns true when \p Proc is on the ready queue (running included) —
  /// the reorganized replacement for "is Process x active?".
  bool canRun(Oop Proc);

  /// Clears the running flag after a slice; re-queues nothing (the process
  /// never left the queue). \returns false when the process was suspended
  /// or terminated meanwhile and must not continue.
  bool releaseAfterSlice(Oop Proc);

  /// Blocks the calling interpreter until work may be available. The
  /// caller must hold no heap references (blocked region).
  void waitForWork();

  /// Wakes idle interpreters.
  void notifyWork();

  /// §3.3 snapshot compatibility: fill in the activeProcess slot before a
  /// snapshot and empty it afterwards.
  void fillActiveProcessSlot(Oop Proc);
  void emptyActiveProcessSlot();

  /// \returns the number of ready (runnable or running) processes.
  unsigned readyCount();

  /// Lock instrumentation for the contention benches.
  SpinLock &lock() { return Lock; }

private:
  /// Linked-list helpers over the Smalltalk objects; callers hold Lock.
  void llAppend(Oop List, Oop Proc);
  bool llRemove(Oop List, Oop Proc);
  Oop llRemoveFirst(Oop List);

  Oop readyListFor(Oop Proc);

  ObjectModel &Om;
  Safepoint &Sp;
  SpinLock Lock;
  Counter Picks{"sched.picks"};
  Counter Yields{"sched.yields"};

  std::mutex IdleMutex;
  std::condition_variable IdleCv;
  uint64_t WorkEpoch = 0;
};

} // namespace mst

#endif // MST_VM_SCHEDULER_H
