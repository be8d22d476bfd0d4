//===-- vm/Scheduler.cpp - Smalltalk Process scheduling ---------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "vm/Scheduler.h"

#include <chrono>

#include "obs/Profiler.h"
#include "support/Assert.h"
#include "vkernel/Chaos.h"

using namespace mst;

Scheduler::Scheduler(ObjectModel &Om, Safepoint &Sp)
    : Om(Om), Sp(Sp), Lock(Om.memory().config().MpSupport, "sched") {}

/// --- Smalltalk linked-list plumbing (Lock held) -------------------------

void Scheduler::llAppend(Oop List, Oop Proc) {
  ObjectMemory &OM = Om.memory();
  Oop Nil = Om.nil();
  OM.storePointer(Proc, ProcNextLink, Nil);
  OM.storePointer(Proc, ProcMyList, List);
  Oop Last = ObjectMemory::fetchPointer(List, LlLastLink);
  if (Last == Nil) {
    OM.storePointer(List, LlFirstLink, Proc);
    OM.storePointer(List, LlLastLink, Proc);
    return;
  }
  OM.storePointer(Last, ProcNextLink, Proc);
  OM.storePointer(List, LlLastLink, Proc);
}

bool Scheduler::llRemove(Oop List, Oop Proc) {
  ObjectMemory &OM = Om.memory();
  Oop Nil = Om.nil();
  Oop Prev = Nil;
  for (Oop Cur = ObjectMemory::fetchPointer(List, LlFirstLink); Cur != Nil;
       Cur = ObjectMemory::fetchPointer(Cur, ProcNextLink)) {
    if (Cur == Proc) {
      Oop Next = ObjectMemory::fetchPointer(Cur, ProcNextLink);
      if (Prev == Nil)
        OM.storePointer(List, LlFirstLink, Next);
      else
        OM.storePointer(Prev, ProcNextLink, Next);
      if (ObjectMemory::fetchPointer(List, LlLastLink) == Proc)
        OM.storePointer(List, LlLastLink, Prev);
      OM.storePointer(Proc, ProcNextLink, Nil);
      OM.storePointer(Proc, ProcMyList, Nil);
      return true;
    }
    Prev = Cur;
  }
  return false;
}

Oop Scheduler::llRemoveFirst(Oop List) {
  ObjectMemory &OM = Om.memory();
  Oop Nil = Om.nil();
  Oop First = ObjectMemory::fetchPointer(List, LlFirstLink);
  if (First == Nil)
    return Oop();
  Oop Next = ObjectMemory::fetchPointer(First, ProcNextLink);
  OM.storePointer(List, LlFirstLink, Next);
  if (Next == Nil)
    OM.storePointer(List, LlLastLink, Nil);
  OM.storePointer(First, ProcNextLink, Nil);
  OM.storePointer(First, ProcMyList, Nil);
  return First;
}

Oop Scheduler::readyListFor(Oop Proc) {
  intptr_t Pri = ObjectMemory::fetchPointer(Proc, ProcPriority).smallInt();
  assert(Pri >= 1 && Pri <= static_cast<intptr_t>(NumPriorities) &&
         "priority out of range");
  Oop Lists = ObjectMemory::fetchPointer(Om.known().Processor,
                                         SchedQuiescentProcessLists);
  return ObjectMemory::fetchPointer(Lists,
                                    static_cast<uint32_t>(Pri - 1));
}

/// --- public API ------------------------------------------------------

Oop Scheduler::createProcess(Oop InitialContext, int Priority,
                             const std::string &Name) {
  assert(Priority >= 1 && Priority <= static_cast<int>(NumPriorities) &&
         "priority out of range");
  ObjectMemory &OM = Om.memory();
  // Protect the context across the allocations below.
  Handle Ctx(OM.handles(), InitialContext);
  Handle Proc(OM.handles(),
              OM.allocatePointers(Om.known().ClassProcess,
                                  ProcessSlotCount));
  if (Proc.get().isNull())
    return Oop(); // Out of memory; the caller reports the failure.
  Oop NameStr = Name.empty() ? Om.nil() : Om.makeString(Name);
  if (NameStr.isNull())
    return Oop();
  OM.storePointer(Proc.get(), ProcNextLink, Om.nil());
  OM.storePointer(Proc.get(), ProcSuspendedContext, Ctx.get());
  OM.storePointer(Proc.get(), ProcPriority, Oop::fromSmallInt(Priority));
  OM.storePointer(Proc.get(), ProcMyList, Om.nil());
  OM.storePointer(Proc.get(), ProcName, NameStr);
  OM.storePointer(Proc.get(), ProcRunning, Oop::fromSmallInt(0));
  OM.storePointer(Proc.get(), ProcAccumUs, Oop::fromSmallInt(0));
  return Proc.get();
}

void Scheduler::addReadyProcess(Oop Proc) {
  {
    SpinLockGuard Guard(Lock);
    assert(ObjectMemory::fetchPointer(Proc, ProcMyList) == Om.nil() &&
           "process is already on a list");
    llAppend(readyListFor(Proc), Proc);
  }
  notifyWork();
}

Oop Scheduler::pickProcessToRun() {
  chaos::point("sched.dispatch");
  SpinLockGuard Guard(Lock);
  Oop Nil = Om.nil();
  Oop Lists = ObjectMemory::fetchPointer(Om.known().Processor,
                                         SchedQuiescentProcessLists);
  for (int Pri = NumPriorities - 1; Pri >= 0; --Pri) {
    Oop List =
        ObjectMemory::fetchPointer(Lists, static_cast<uint32_t>(Pri));
    for (Oop P = ObjectMemory::fetchPointer(List, LlFirstLink); P != Nil;
         P = ObjectMemory::fetchPointer(P, ProcNextLink)) {
      if (ObjectMemory::fetchPointer(P, ProcRunning).smallInt() == 0) {
        Om.memory().storePointer(P, ProcRunning, Oop::fromSmallInt(1));
        Picks.add();
        return P;
      }
    }
  }
  return Oop();
}

void Scheduler::yieldProcess(Oop Proc) {
  Yields.add();
  {
    SpinLockGuard Guard(Lock);
    Oop List = ObjectMemory::fetchPointer(Proc, ProcMyList);
    Om.memory().storePointer(Proc, ProcRunning, Oop::fromSmallInt(0));
    if (List != Om.nil()) {
      // Rotate to the back of its priority list.
      llRemove(List, Proc);
      llAppend(readyListFor(Proc), Proc);
    }
  }
  notifyWork();
}

bool Scheduler::semaphoreWait(Oop Sem, Oop Proc) {
  SpinLockGuard Guard(Lock);
  ObjectMemory &OM = Om.memory();
  intptr_t Excess =
      ObjectMemory::fetchPointer(Sem, SemExcessSignals).smallInt();
  if (Excess > 0) {
    OM.storePointer(Sem, SemExcessSignals, Oop::fromSmallInt(Excess - 1));
    return false;
  }
  Oop List = ObjectMemory::fetchPointer(Proc, ProcMyList);
  if (List != Om.nil())
    llRemove(List, Proc);
  llAppend(Sem, Proc);
  OM.storePointer(Proc, ProcRunning, Oop::fromSmallInt(0));
  return true;
}

void Scheduler::semaphoreSignal(Oop Sem) {
  Oop Woken;
  {
    SpinLockGuard Guard(Lock);
    Woken = llRemoveFirst(Sem);
    if (Woken.isNull()) {
      intptr_t Excess =
          ObjectMemory::fetchPointer(Sem, SemExcessSignals).smallInt();
      Om.memory().storePointer(Sem, SemExcessSignals,
                               Oop::fromSmallInt(Excess + 1));
      return;
    }
    llAppend(readyListFor(Woken), Woken);
  }
  notifyWork();
}

void Scheduler::suspendProcess(Oop Proc) {
  SpinLockGuard Guard(Lock);
  Oop List = ObjectMemory::fetchPointer(Proc, ProcMyList);
  if (List != Om.nil())
    llRemove(List, Proc);
}

void Scheduler::resumeProcess(Oop Proc) {
  {
    SpinLockGuard Guard(Lock);
    if (ObjectMemory::fetchPointer(Proc, ProcMyList) != Om.nil())
      return; // Already waiting or ready; resume is a no-op.
    llAppend(readyListFor(Proc), Proc);
  }
  notifyWork();
}

void Scheduler::terminateProcess(Oop Proc) {
  SpinLockGuard Guard(Lock);
  ObjectMemory &OM = Om.memory();
  Oop List = ObjectMemory::fetchPointer(Proc, ProcMyList);
  if (List != Om.nil())
    llRemove(List, Proc);
  OM.storePointer(Proc, ProcSuspendedContext, Om.nil());
  OM.storePointer(Proc, ProcRunning, Oop::fromSmallInt(0));
}

bool Scheduler::canRun(Oop Proc) {
  SpinLockGuard Guard(Lock);
  Oop List = ObjectMemory::fetchPointer(Proc, ProcMyList);
  if (List == Om.nil())
    return false;
  // On a list: runnable iff that list is its ready list (not a semaphore).
  return List == readyListFor(Proc);
}

uint64_t Scheduler::workEpoch() {
  std::lock_guard<std::mutex> Idle(IdleMutex);
  return WorkEpoch;
}

void Scheduler::waitForWork(uint64_t Seen) {
  ProfStateScope Prof(ProfState::Idle);
  chaos::point("sched.wait");
  std::unique_lock<std::mutex> Idle(IdleMutex);
  IdleCv.wait_for(Idle, std::chrono::milliseconds(1),
                  [this, Seen] { return WorkEpoch != Seen; });
}

void Scheduler::notifyWork() {
  chaos::point("sched.notify");
  std::lock_guard<std::mutex> Idle(IdleMutex);
  ++WorkEpoch;
  IdleCv.notify_all();
}

void Scheduler::fillActiveProcessSlot(Oop Proc) {
  Om.memory().storePointer(Om.known().Processor, SchedActiveProcess, Proc);
}

void Scheduler::emptyActiveProcessSlot() {
  Om.memory().storePointer(Om.known().Processor, SchedActiveProcess,
                           Om.nil());
}

unsigned Scheduler::readyCount() {
  SpinLockGuard Guard(Lock);
  Oop Nil = Om.nil();
  Oop Lists = ObjectMemory::fetchPointer(Om.known().Processor,
                                         SchedQuiescentProcessLists);
  unsigned N = 0;
  for (uint32_t Pri = 0; Pri < NumPriorities; ++Pri) {
    Oop List = ObjectMemory::fetchPointer(Lists, Pri);
    for (Oop P = ObjectMemory::fetchPointer(List, LlFirstLink); P != Nil;
         P = ObjectMemory::fetchPointer(P, ProcNextLink))
      ++N;
  }
  return N;
}
