//===-- objmem/Safepoint.cpp - Stop-the-world rendezvous --------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "objmem/Safepoint.h"

#include <chrono>
#include <cstdlib>
#include <thread>
#include <utility>

#include "obs/Profiler.h"
#include "obs/TraceBuffer.h"
#include "support/Assert.h"
#include "support/Panic.h"
#include "vkernel/Chaos.h"

using namespace mst;

namespace {
/// Which MutState belongs to the calling thread, per safepoint instance.
/// A vector rather than a single slot because raw Safepoint tests may
/// register one thread with several instances over its lifetime.
thread_local std::vector<std::pair<const Safepoint *, Safepoint::MutState *>>
    TlsStates;

Safepoint::MutState *tlsLookup(const Safepoint *Sp) {
  for (auto &[Owner, State] : TlsStates)
    if (Owner == Sp)
      return State;
  return nullptr;
}
} // namespace

Safepoint::MutState *Safepoint::myStateLocked() { return tlsLookup(this); }

void Safepoint::registerMutator(const std::string &Name) {
  auto State = std::make_unique<MutState>();
  State->Name = Name.empty() ? "mutator" : Name;
  std::unique_lock<std::mutex> Lock(Mutex);
  // A pause counts the mutators it stops when it starts; one that joined
  // during it would run unstopped inside it. Join after it instead.
  Cv.wait(Lock, [this] { return !Pending && !InProgress; });
  ++Mutators;
  TlsStates.emplace_back(this, State.get());
  States.push_back(std::move(State));
}

void Safepoint::unregisterMutator() {
  std::lock_guard<std::mutex> Guard(Mutex);
  assert(Mutators > 0 && "unregister without register");
  --Mutators;
  if (MutState *Mine = myStateLocked()) {
    for (size_t I = 0; I < States.size(); ++I)
      if (States[I].get() == Mine) {
        States.erase(States.begin() + I);
        break;
      }
    for (size_t I = 0; I < TlsStates.size(); ++I)
      if (TlsStates[I].first == this) {
        TlsStates.erase(TlsStates.begin() + I);
        break;
      }
  }
  // A coordinator may be waiting for this thread; re-evaluate.
  Cv.notify_all();
}

std::string Safepoint::stalledNamesLocked() const {
  std::string Out;
  for (const auto &S : States) {
    if (S->Safe)
      continue;
    if (!Out.empty())
      Out += ", ";
    Out += S->Name;
  }
  return Out.empty() ? "<none registered>" : Out;
}

std::string Safepoint::describeMutators() {
  std::lock_guard<std::mutex> Guard(Mutex);
  std::string Out = "mutators: " + std::to_string(Mutators) +
                    " registered, " + std::to_string(SafeMutators) +
                    " safe; pending=" + std::to_string(Pending) +
                    " in-progress=" + std::to_string(InProgress) +
                    " pauses=" +
                    std::to_string(Pauses.load(std::memory_order_relaxed)) +
                    "\n";
  for (const auto &S : States)
    Out += std::string("  [") + (S->Safe ? "safe  " : "UNSAFE") + "] " +
           S->Name + "\n";
  return Out;
}

void Safepoint::pollSlow() {
  ProfStateScope Prof(ProfState::Safepoint);
  chaos::point("safepoint.poll");
  if (chaos::failPoint("watchdog.stall")) {
    // Deliberately late to the rendezvous: sleep well past the watchdog
    // deadline *before* reporting safe, so a coordinator watching the
    // clock fires and names this thread.
    uint64_t Ms = WatchdogMs.load(std::memory_order_relaxed);
    uint64_t Stall = Ms ? Ms * 3 : 20;
    if (Stall > 1000)
      Stall = 1000;
    std::this_thread::sleep_for(std::chrono::milliseconds(Stall));
  }
  std::unique_lock<std::mutex> Lock(Mutex);
  if (!Pending && !InProgress)
    return;
  MutState *Mine = myStateLocked();
  ++SafeMutators;
  if (Mine)
    Mine->Safe = true;
  Cv.notify_all();
  Cv.wait(Lock, [this] { return !Pending && !InProgress; });
  --SafeMutators;
  if (Mine)
    Mine->Safe = false;
  Lock.unlock();
  chaos::point("safepoint.resume");
}

void Safepoint::blockedRegionEnter() {
  chaos::point("safepoint.blocked.enter");
  std::lock_guard<std::mutex> Guard(Mutex);
  ++SafeMutators;
  if (MutState *Mine = myStateLocked())
    Mine->Safe = true;
  Cv.notify_all();
}

void Safepoint::blockedRegionLeave() {
  // The wait below is for a stop-the-world pause to finish, so the time
  // is a safepoint park, not whatever blocked state the region covered.
  ProfStateScope Prof(ProfState::Safepoint);
  chaos::point("safepoint.blocked.leave");
  std::unique_lock<std::mutex> Lock(Mutex);
  Cv.wait(Lock, [this] { return !Pending && !InProgress; });
  assert(SafeMutators > 0 && "blocked-region bookkeeping broken");
  --SafeMutators;
  if (MutState *Mine = myStateLocked())
    Mine->Safe = false;
}

bool Safepoint::requestStopTheWorld() {
  // Covers both outcomes: parking behind another collector and waiting
  // out our own rendezvous. The collection itself re-tags the state
  // (Scavenger/FullGC install their own scopes).
  ProfStateScope Prof(ProfState::Safepoint);
  chaos::point("safepoint.request");
  std::unique_lock<std::mutex> Lock(Mutex);
  MutState *Mine = myStateLocked();
  if (Pending || InProgress) {
    // Someone else is collecting. Park as a safe mutator until their pause
    // finishes, then tell the caller to retry its allocation.
    ++SafeMutators;
    if (Mine)
      Mine->Safe = true;
    Cv.notify_all();
    Cv.wait(Lock, [this] { return !Pending && !InProgress; });
    --SafeMutators;
    if (Mine)
      Mine->Safe = false;
    return false;
  }
  TraceSpan Rendezvous("safepoint.rendezvous", "gc");
  uint64_t StartNs = Telemetry::nowNs();
  Pending = true;
  GlobalFlag.store(true, std::memory_order_seq_cst);
  // Count ourselves safe while waiting so other requesters' math works.
  ++SafeMutators;
  if (Mine)
    Mine->Safe = true;
  Cv.notify_all();
  uint64_t Ms = WatchdogMs.load(std::memory_order_relaxed);
  if (Ms == 0) {
    Cv.wait(Lock, [this] { return SafeMutators >= Mutators; });
  } else {
    auto Deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(Ms);
    while (SafeMutators < Mutators) {
      if (Cv.wait_until(Lock, Deadline) != std::cv_status::timeout)
        continue;
      if (SafeMutators >= Mutators)
        break;
      // Rendezvous stalled past the deadline: postmortem dump naming the
      // unresponsive mutators. A handler (test harness) consumes it and
      // the wait continues; unhandled, escalate — a silently hung VM is
      // strictly worse than a crashed one with a dump.
      WatchdogFires.fetch_add(1, std::memory_order_relaxed);
      std::string Stalled = stalledNamesLocked();
      Lock.unlock();
      bool Handled = panicReport(
          "safepoint watchdog: rendezvous stalled past " +
          std::to_string(Ms) + " ms; unresponsive: " + Stalled);
      if (!Handled)
        std::abort();
      Lock.lock();
      Deadline =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(Ms);
    }
  }
  --SafeMutators;
  if (Mine)
    Mine->Safe = false;
  Pending = false;
  InProgress = true;
  RendezvousHist.record(Telemetry::nowNs() - StartNs);
  Lock.unlock();
  // The window between winning the rendezvous and starting the stopped-
  // world work is where a coordinator-side bug would bite; widen it.
  chaos::point("safepoint.handoff");
  return true;
}

void Safepoint::resume() {
  std::lock_guard<std::mutex> Guard(Mutex);
  assert(InProgress && "resume() without a stopped world");
  InProgress = false;
  GlobalFlag.store(false, std::memory_order_seq_cst);
  Pauses.fetch_add(1, std::memory_order_relaxed);
  Cv.notify_all();
}

unsigned Safepoint::mutatorCount() {
  std::lock_guard<std::mutex> Guard(Mutex);
  return Mutators;
}

bool Safepoint::currentThreadRegistered() {
  std::lock_guard<std::mutex> Guard(Mutex);
  return myStateLocked() != nullptr;
}
