//===-- io/Display.h - Serialized display output queue ----------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The output side of the I/O system: "there is also an output queue
/// associated with the display controller, into which display commands are
/// placed" (paper §3.1). Access is brief, so the queue is serialized with
/// a spin lock — and it is exactly what the paper's *busy* background
/// Process contends for ("... and also contends for the display", §4).
///
/// The display controller here is simulated: commands accumulate in a
/// bounded ring (the "screen" keeps the most recent lines) and are
/// counted; there is no real frame buffer to damage.
///
//===----------------------------------------------------------------------===//

#ifndef MST_IO_DISPLAY_H
#define MST_IO_DISPLAY_H

#include <cstdint>
#include <string>
#include <vector>

#include "vkernel/SpinLock.h"

namespace mst {

/// The simulated display controller with its serialized command queue.
class Display {
public:
  /// \param LocksEnabled false for the baseline-BS (no-MP) build.
  /// \param RingCapacity how many recent commands the "screen" retains.
  explicit Display(bool LocksEnabled, size_t RingCapacity = 64)
      : Lock(LocksEnabled, "display"), Ring(RingCapacity) {}

  /// Enqueues a display command (e.g. "show: 'some text'").
  void submit(const std::string &Command) {
    SpinLockGuard Guard(Lock);
    Ring[Submitted % Ring.size()] = Command;
    ++Submitted;
    // Simulate the controller touching shared state per command: a short
    // critical section, as on the Firefly's display path.
    Checksum += Command.size();
  }

  /// \returns total commands ever submitted.
  uint64_t submittedCount() {
    SpinLockGuard Guard(Lock);
    return Submitted;
  }

  /// \returns the most recent commands, oldest first.
  std::vector<std::string> recentCommands() {
    SpinLockGuard Guard(Lock);
    std::vector<std::string> Out;
    size_t N = Submitted < Ring.size() ? Submitted : Ring.size();
    for (size_t I = 0; I < N; ++I)
      Out.push_back(Ring[(Submitted - N + I) % Ring.size()]);
    return Out;
  }

  /// \returns lock instrumentation for contention analysis.
  SpinLock &lock() { return Lock; }

private:
  SpinLock Lock;
  std::vector<std::string> Ring;
  uint64_t Submitted = 0;
  uint64_t Checksum = 0;
};

} // namespace mst

#endif // MST_IO_DISPLAY_H
