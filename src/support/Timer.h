//===-- support/Timer.h - Wall-clock stopwatch ------------------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A monotonic wall-clock stopwatch used by the benchmark harnesses and by
/// the scavenger's bookkeeping (scavenge share of total time, Table 2 rows).
///
//===----------------------------------------------------------------------===//

#ifndef MST_SUPPORT_TIMER_H
#define MST_SUPPORT_TIMER_H

#include <chrono>
#include <cstdint>

namespace mst {

/// Monotonic stopwatch measuring elapsed wall-clock time.
class Stopwatch {
public:
  Stopwatch() : Start(Clock::now()) {}

  /// Resets the start point to now.
  void reset() { Start = Clock::now(); }

  /// \returns seconds elapsed since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - Start).count();
  }

private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point Start;
};

/// \returns the calling thread's consumed CPU time in microseconds.
/// Excludes time the thread was descheduled — on a uniprocessor host this
/// is the per-thread "processor time" the benchmark attribution needs.
uint64_t threadCpuMicros();

} // namespace mst

#endif // MST_SUPPORT_TIMER_H
