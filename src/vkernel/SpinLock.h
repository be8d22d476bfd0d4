//===-- vkernel/SpinLock.h - Test-and-set spin lock -------------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The V System spin-lock that MS uses for every brief serialization
/// (paper §3.1): an interlocked test-and-set; when the test fails the
/// locking code invokes the kernel's Delay operation with a minimal
/// timeout, which allows process switching to occur and avoids
/// monopolizing the memory bus.
///
/// The lock can be *disabled* to model the "baseline BS" interpreter — the
/// uniprocessor build with no multiprocessor support. Table 2's state-1 vs
/// state-2 comparison measures exactly the cost of turning these on. A
/// disabled lock does no atomic work at all — not even counting — so the
/// baseline configuration pays nothing for the instrumentation.
///
//===----------------------------------------------------------------------===//

#ifndef MST_VKERNEL_SPINLOCK_H
#define MST_VKERNEL_SPINLOCK_H

#include <atomic>
#include <cstdint>

#include "obs/Telemetry.h"
#include "vkernel/Chaos.h"

namespace mst {

/// Interlocked test-and-set spin lock with Delay backoff.
///
/// Instrumented through the telemetry registry: a *named* lock registers
/// `lock.<name>.{acquisitions,contended,delays}` counters (striped, so the
/// counting never becomes its own serialization point) and records a
/// contended-wait trace span when tracing is on. An unnamed lock still
/// counts locally but stays out of the registry.
class SpinLock {
public:
  /// \param Enabled when false, lock/unlock are no-ops. Models baseline BS.
  /// \param Name registry/trace name; must be a string literal (or
  ///        otherwise immortal). nullptr = unnamed.
  explicit SpinLock(bool Enabled = true, const char *Name = nullptr);

  SpinLock(const SpinLock &) = delete;
  SpinLock &operator=(const SpinLock &) = delete;

  /// Acquires the lock, spinning briefly and then delaying.
  void lock();

  /// Releases the lock.
  void unlock() {
    if (!Enabled)
      return;
    Flag.store(0, std::memory_order_release);
  }

  /// Attempts to acquire without blocking. \returns true on success.
  /// Always succeeds — and counts nothing — when the lock is disabled.
  bool tryLock() {
    if (!Enabled)
      return true;
    chaos::point("spinlock.trylock");
    bool Ok = Flag.exchange(1, std::memory_order_acquire) == 0;
    Acquisitions.add();
    if (!Ok)
      Contended.add();
    else
      chaos::point("spinlock.acquired");
    return Ok;
  }

  /// \returns true when lock()/unlock() actually synchronize.
  bool isEnabled() const { return Enabled; }

  /// \returns the lock's trace name, or nullptr when unnamed.
  const char *name() const { return TraceName; }

  /// \returns total lock() and tryLock() calls.
  uint64_t acquisitions() const { return Acquisitions.value(); }

  /// \returns acquisitions that found the lock already held.
  uint64_t contendedAcquisitions() const { return Contended.value(); }

  /// \returns how many times an acquirer fell back to a kernel Delay.
  uint64_t delays() const { return Delays.value(); }

  /// Resets the instrumentation counters.
  void resetCounters() {
    Acquisitions.reset();
    Contended.reset();
    Delays.reset();
  }

private:
  std::atomic<uint8_t> Flag{0};
  const bool Enabled;
  const char *TraceName;
  Counter Acquisitions;
  Counter Contended;
  Counter Delays;
};

/// RAII guard for SpinLock.
class SpinLockGuard {
public:
  explicit SpinLockGuard(SpinLock &L) : Lock(L) { Lock.lock(); }
  ~SpinLockGuard() { Lock.unlock(); }

  SpinLockGuard(const SpinLockGuard &) = delete;
  SpinLockGuard &operator=(const SpinLockGuard &) = delete;

private:
  SpinLock &Lock;
};

} // namespace mst

#endif // MST_VKERNEL_SPINLOCK_H
