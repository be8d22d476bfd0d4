//===-- image/Checkpoint.cpp - Auto- and emergency checkpoints ------------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "image/Checkpoint.h"

#include <chrono>

#include "obs/Telemetry.h"
#include "support/Panic.h"

using namespace mst;

namespace {
Counter &emergencyCtr() {
  static Counter C{"img.save.emergency"};
  return C;
}
Counter &autoCtr() {
  static Counter C{"img.save.auto"};
  return C;
}
} // namespace

Checkpointer::Checkpointer(VirtualMachine &VM, Options O)
    : VM(VM), Opts(std::move(O)) {
  if (Opts.Path.empty())
    return;
  if (Opts.EmergencyOnPanic)
    PanicSection = panicRegisterSection(
        "emergency snapshot", [this] { return emergencySnapshot(); });
  if (Opts.EveryMs > 0)
    Thread = std::thread([this] { threadMain(); });
}

Checkpointer::~Checkpointer() {
  // Unregister the panic section first: once the periodic thread is gone
  // and the caller starts tearing down the VM, an emergency snapshot
  // would walk a dying heap.
  if (PanicSection >= 0)
    panicUnregisterSection(PanicSection);
  if (Thread.joinable()) {
    {
      std::lock_guard<std::mutex> L(Mutex);
      Stop = true;
    }
    Cv.notify_all();
    // The periodic thread may be mid-checkpoint, waiting for every other
    // mutator — including this one — to reach a safepoint. Joining from
    // inside a blocked region keeps the caller safe so that rendezvous
    // can complete.
    Safepoint &Sp = VM.memory().safepoint();
    if (Sp.currentThreadRegistered()) {
      BlockedRegion B(Sp);
      Thread.join();
    } else {
      Thread.join();
    }
  }
}

bool Checkpointer::checkpointNow(std::string &Error,
                                 std::optional<uint64_t> JournalMark) {
  SnapshotOptions SO;
  SO.KeepGenerations = Opts.KeepGenerations;
  SO.HasJournalMark = JournalMark.has_value();
  SO.JournalMark = JournalMark.value_or(0);
  if (!saveSnapshot(VM, Opts.Path, Error, SO)) {
    std::lock_guard<std::mutex> G(ErrMutex);
    LastError = Error;
    return false;
  }
  Taken.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::string Checkpointer::lastError() {
  std::lock_guard<std::mutex> G(ErrMutex);
  return LastError;
}

void Checkpointer::threadMain() {
  // The periodic thread is a registered mutator so its stop-the-world
  // request participates in the rendezvous arithmetic; while sleeping it
  // sits in a blocked region so it never stalls anyone else's pause.
  VM.memory().registerMutator("checkpointer");
  for (;;) {
    bool StopNow = false;
    {
      BlockedRegion B(VM.memory().safepoint());
      std::unique_lock<std::mutex> L(Mutex);
      Cv.wait_for(L, std::chrono::milliseconds(Opts.EveryMs),
                  [this] { return Stop; });
      StopNow = Stop;
    }
    if (StopNow)
      break;
    std::string Error;
    if (checkpointNow(Error))
      autoCtr().add();
  }
  VM.memory().unregisterMutator();
}

std::string Checkpointer::emergencySnapshot() {
  // Best-effort by design: this runs on whatever thread panicked. Skip
  // when a stop-the-world request could never complete (a pause is
  // already in progress — e.g. a heap-verification panic mid-GC) or
  // would corrupt the rendezvous count (unregistered thread).
  Safepoint &Sp = VM.memory().safepoint();
  if (Sp.pollNeeded())
    return "skipped: a stop-the-world pause is in progress\n";
  if (!Sp.currentThreadRegistered())
    return "skipped: panicking thread is not a registered mutator\n";
  std::string Target = Opts.Path + ".panic";
  std::string Error;
  if (!saveSnapshot(VM, Target, Error))
    return "failed: " + Error + "\n";
  emergencyCtr().add();
  return "written to " + Target + "\n";
}
