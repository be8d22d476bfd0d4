//===-- image/Checkpoint.h - Auto- and emergency checkpoints ----*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The checkpoint policy layer on top of image/Snapshot: a periodic
/// auto-snapshot thread (the repl's `--snapshot-every=ms`), generation
/// rotation, and a best-effort emergency snapshot wired into the Panic
/// funnel, so a panicking VM leaves a restartable image next to its
/// postmortem dump.
///
/// Lives in the image library (not the VM) because it calls saveSnapshot;
/// mst_image links mst_vm, never the other way around.
///
//===----------------------------------------------------------------------===//

#ifndef MST_IMAGE_CHECKPOINT_H
#define MST_IMAGE_CHECKPOINT_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "image/Snapshot.h"

namespace mst {

/// Periodic and emergency checkpointing for one VM. Construct after the
/// VM, destroy before it.
class Checkpointer {
public:
  struct Options {
    /// Target image path; rotation and the `.panic` emergency image hang
    /// off this name. Empty disables the checkpointer entirely.
    std::string Path;
    /// Auto-snapshot interval in milliseconds; 0 disables the periodic
    /// thread (checkpointNow and the panic section still work).
    uint64_t EveryMs = 0;
    /// Rotated generations to keep per snapshot (SnapshotOptions).
    unsigned KeepGenerations = 0;
    /// Register a Panic-funnel section that writes a best-effort
    /// emergency image to `<Path>.panic` when the VM panics.
    bool EmergencyOnPanic = true;
  };

  Checkpointer(VirtualMachine &VM, Options Opts);
  ~Checkpointer();

  Checkpointer(const Checkpointer &) = delete;
  Checkpointer &operator=(const Checkpointer &) = delete;

  /// Takes a checkpoint right now on the calling thread, which must be a
  /// registered mutator (the driver, or the checkpointer's own thread).
  /// A \p JournalMark is stamped into the image (the JPOS section): the
  /// request-journal position the image covers, which the serving layer
  /// replays past and truncates below.
  bool checkpointNow(std::string &Error,
                     std::optional<uint64_t> JournalMark = std::nullopt);

  /// \returns how many checkpoints have been written successfully.
  uint64_t checkpointsTaken() const {
    return Taken.load(std::memory_order_relaxed);
  }

  /// \returns the most recent checkpoint failure, or empty.
  std::string lastError();

private:
  void threadMain();
  std::string emergencySnapshot();

  VirtualMachine &VM;
  Options Opts;

  std::thread Thread;
  std::mutex Mutex;
  std::condition_variable Cv;
  bool Stop = false; // guarded by Mutex

  std::atomic<uint64_t> Taken{0};

  std::mutex ErrMutex;
  std::string LastError; // guarded by ErrMutex

  int PanicSection = -1;
};

} // namespace mst

#endif // MST_IMAGE_CHECKPOINT_H
