//===-- objmem/Safepoint.h - Stop-the-world rendezvous ----------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scavenge rendezvous. Since scavenging requires all live new objects
/// to move and no indirection is used except during the scavenge, "the
/// interpreter must suspend all other activity for the duration of the
/// operation" (paper §3.1). And because garbage collection takes long
/// compared to other interpreter activities, spin-locks are not used here;
/// instead all processes are synchronized with a *global flag* plus kernel
/// synchronization.
///
/// Protocol:
///  - Every interpreter process registers as a *mutator*.
///  - Mutators poll the global flag in the bytecode loop and at allocation
///    points. When it is raised they park until the scavenge completes.
///  - A mutator about to block for a long time (e.g. waiting for runnable
///    Smalltalk Processes) brackets the wait in a *blocked region*, during
///    which it counts as parked and must touch no heap object.
///  - The thread whose allocation failed becomes the coordinator: it raises
///    the flag, waits for every mutator to be safe, runs the scavenge, and
///    resumes the world.
///
//===----------------------------------------------------------------------===//

#ifndef MST_OBJMEM_SAFEPOINT_H
#define MST_OBJMEM_SAFEPOINT_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/Histogram.h"

namespace mst {

/// Coordinates stop-the-world pauses between mutator threads.
class Safepoint {
public:
  Safepoint() = default;
  Safepoint(const Safepoint &) = delete;
  Safepoint &operator=(const Safepoint &) = delete;

  /// Registers the calling thread as a mutator. \p Name labels the thread
  /// in watchdog reports and the panic mutator table.
  void registerMutator(const std::string &Name = std::string());

  /// Unregisters the calling thread. The thread must not be inside a
  /// blocked region and must not hold heap references afterwards.
  void unregisterMutator();

  /// \returns true when a stop-the-world pause has been requested and the
  /// caller must call pollSlow(). Hot-path check: one relaxed load.
  bool pollNeeded() const {
    return GlobalFlag.load(std::memory_order_relaxed);
  }

  /// Parks the calling mutator until the pending pause completes. The
  /// caller must have written back any cached heap state first, and must
  /// refresh all cached heap pointers afterwards.
  void pollSlow();

  /// Enters a blocked region: the caller may sleep indefinitely and counts
  /// as safe for stop-the-world purposes.
  void blockedRegionEnter();

  /// Leaves a blocked region, waiting out any pause in progress.
  void blockedRegionLeave();

  /// Requests a stop-the-world pause. Blocks until every other mutator is
  /// safe. \returns true when the caller is now the coordinator and must
  /// call resume() after doing its work with the world stopped; false when
  /// another thread's pause ran while we waited (the caller should retry
  /// whatever failed — e.g. an allocation — before requesting again).
  bool requestStopTheWorld();

  /// Resumes the world after requestStopTheWorld() returned true.
  void resume();

  /// \returns the number of registered mutators (diagnostic).
  unsigned mutatorCount();

  /// \returns whether the calling thread is registered as a mutator with
  /// this safepoint. The emergency-snapshot panic section uses this to
  /// decide whether a stop-the-world request is even legal on the
  /// panicking thread (an unregistered caller would corrupt the
  /// rendezvous count).
  bool currentThreadRegistered();

  /// \returns how many stop-the-world pauses have completed.
  uint64_t pauseCount() const {
    return Pauses.load(std::memory_order_relaxed);
  }

  /// --- Watchdog -----------------------------------------------------------
  /// A mutator that never reaches a poll (wedged primitive, deadlocked
  /// host lock, runaway native loop) stalls every future rendezvous and
  /// with it the whole VM. The watchdog bounds the coordinator's wait:
  /// past the deadline it emits a panic dump naming the mutators that
  /// have not reported safe. If a panic handler consumed the dump (test
  /// harness), the wait continues and the dump repeats each deadline;
  /// unhandled, the watchdog aborts rather than hang forever.

  /// Sets the rendezvous deadline in milliseconds; 0 disables.
  void setWatchdogMillis(uint64_t Ms) {
    WatchdogMs.store(Ms, std::memory_order_relaxed);
  }

  /// \returns how many times the watchdog has fired.
  uint64_t watchdogFirings() const {
    return WatchdogFires.load(std::memory_order_relaxed);
  }

  /// Renders the mutator table (name + safe/unsafe + rendezvous state)
  /// for the panic dump. Takes the internal mutex; fatal paths never hold
  /// it, so panic sections may call this.
  std::string describeMutators();

  /// Per-mutator bookkeeping, exposed only because the thread-local
  /// registration map in Safepoint.cpp needs the type.
  struct MutState {
    std::string Name;
    bool Safe = false; // guarded by Mutex
  };

private:
  /// The calling thread's state within this safepoint, or nullptr when
  /// the thread is not registered here. Mutex held.
  MutState *myStateLocked();

  /// Comma-joined names of registered mutators not currently safe.
  /// Mutex held.
  std::string stalledNamesLocked() const;

  std::mutex Mutex;
  std::condition_variable Cv;
  std::atomic<bool> GlobalFlag{false};
  bool Pending = false;     // Coordinator elected, gathering mutators.
  bool InProgress = false;  // World stopped, coordinator working.
  unsigned Mutators = 0;
  unsigned SafeMutators = 0;
  std::vector<std::unique_ptr<MutState>> States; // guarded by Mutex
  std::atomic<uint64_t> Pauses{0};
  std::atomic<uint64_t> WatchdogMs{0};
  std::atomic<uint64_t> WatchdogFires{0};
  Histogram RendezvousHist{"gc.safepoint.rendezvous"};
};

/// RAII bracket for a blocked region.
class BlockedRegion {
public:
  explicit BlockedRegion(Safepoint &Sp) : Sp(Sp) { Sp.blockedRegionEnter(); }
  ~BlockedRegion() { Sp.blockedRegionLeave(); }

  BlockedRegion(const BlockedRegion &) = delete;
  BlockedRegion &operator=(const BlockedRegion &) = delete;

private:
  Safepoint &Sp;
};

} // namespace mst

#endif // MST_OBJMEM_SAFEPOINT_H
