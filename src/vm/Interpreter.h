//===-- vm/Interpreter.h - The replicated interpreter -----------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bytecode interpreter. MS obtains parallelism by replicating the
/// interpretation process (paper §3.2): each Interpreter instance runs as
/// one lightweight V process, and all of them execute Smalltalk Processes
/// drawn dynamically from the single shared ready queue.
///
/// Resources used continuously by an interpreter are replicated with it
/// (method cache, free context list — policy-dependent); everything shared
/// (allocation, scheduling, entry table, I/O queues) is serialized; and
/// the interpreter's "notion of the active process" lives here, not in the
/// ProcessorScheduler (§3.3 reorganization).
///
//===----------------------------------------------------------------------===//

#ifndef MST_VM_INTERPRETER_H
#define MST_VM_INTERPRETER_H

#include <atomic>
#include <cstdint>
#include <string>

#include "objmem/ObjectMemory.h"
#include "vm/Bytecode.h"
#include "vm/ObjectModel.h"

namespace mst {

class VirtualMachine;

/// The per-interpreter oop roots, updated by the scavenger.
struct InterpreterRoots {
  Oop ActiveProcess;
  Oop ActiveContext;
  Oop PendingResult; ///< result of a finished bottom context
};

/// Why a slice of interpretation ended.
enum class RunResult : uint8_t {
  Yielded,    ///< timeslice expired or Processor yield
  Blocked,    ///< active process blocked (semaphore wait / suspend)
  Terminated, ///< active process finished or was terminated / errored
  Stopping,   ///< the VM is shutting down
};

/// One interpretation process.
class Interpreter {
public:
  Interpreter(VirtualMachine &VM, unsigned Id);

  Interpreter(const Interpreter &) = delete;
  Interpreter &operator=(const Interpreter &) = delete;

  unsigned id() const { return Id; }

  /// Thread body for a worker interpreter: pick runnable Smalltalk
  /// Processes from the shared queue and run them until VM shutdown.
  /// Registers itself as a mutator.
  void runLoop();

  /// Runs \p Ctx (a bottom context: nil sender) to completion on the
  /// calling thread, which must be a registered mutator. Used by the
  /// driver for doIts and by tests. \returns the returned value, or the
  /// null oop when the execution errored (see VirtualMachine::errors()).
  Oop runToCompletion(Oop Ctx);

  InterpreterRoots &roots() { return Roots; }

  uint64_t bytecodesExecuted() const { return BytecodeCount; }
  uint64_t sendsExecuted() const { return SendCount; }

  /// --- asynchronous abort / deadlines -----------------------------------
  ///
  /// A watchdog on another thread can abort whatever this interpreter is
  /// running: requestAbort() arms a flag the bytecode loop checks at the
  /// same per-bytecode poll as the safepoint/stopping checks. The next
  /// poll unwinds the running execution with a catchable RequestTimeout
  /// error (heap and scheduler stay consistent — the abort only ever
  /// fires at a bytecode boundary). The release store pairs with the
  /// loop's acquire load; no other ordering is required because the abort
  /// carries no payload, only the edge.
  void requestAbort() {
    AbortFlag.store(true, std::memory_order_release);
  }

  /// Drops any abort that is still pending (it arrived after the victim
  /// finished on its own). Called between requests by the owner of the
  /// abort protocol; never concurrently with the loop consuming it.
  void clearAbort() {
    AbortFlag.store(false, std::memory_order_relaxed);
  }

  /// Arms (non-zero) or disarms (0) an absolute deadline, in
  /// Telemetry::nowNs time. Checked every 512 bytecodes even in untimed
  /// driver slices; on expiry the execution unwinds exactly like
  /// requestAbort(). Owner-thread only (the driver arms its own deadline
  /// before running a request).
  void setDeadlineNs(uint64_t Ns) { DeadlineNs = Ns; }

  /// True — and self-clearing — when the last execution was unwound by
  /// requestAbort() or a deadline expiry. Owner-thread only.
  bool takeAborted() {
    bool A = Aborted;
    Aborted = false;
    return A;
  }

private:
  // --- frame cache (refreshed after every GC point)
  void reloadFrame();
  void writeBackIp();

  Oop *ctxSlots() { return CtxH->slots(); }
  void pushValue(Oop V);
  Oop popValue();
  Oop topValue(unsigned Down = 0);
  void dropValues(unsigned N);

  // --- temp / receiver / instvar access (blue-book home indirection)
  Oop fetchTemp(unsigned Idx);
  void storeTempValue(unsigned Idx, Oop V);
  Oop receiver();
  Oop fetchIvar(unsigned Idx);
  void storeIvar(unsigned Idx, Oop V);

  // --- execution
  RunResult interpretSlice(uint64_t MaxBytecodes);
  void doSend(Oop Selector, unsigned Argc, bool Super);
  void doSpecialSend(SpecialSelector S);
  void activateMethod(Oop Method, unsigned Argc);
  void doesNotUnderstand(Oop Selector, unsigned Argc);
  void doReturn(Oop Value, bool BlockReturn);
  void doBlockCopy(unsigned NumArgs, unsigned Frame);

  /// Allocates (or recycles) a context with \p SlotsNeeded body slots of
  /// class \p Cls. A GC point; the frame cache is refreshed.
  Oop allocateContext(uint32_t SlotsNeeded, Oop Cls);

  // --- primitives (Primitives.cpp)
  enum class PrimResult : uint8_t { Success, Fail };
  PrimResult dispatchPrimitive(int Index, unsigned Argc);

  /// Reports a VM-level error: logs it and terminates the active process.
  void vmError(const std::string &Msg);

  // --- process plumbing for runLoop
  bool activateProcess(Oop Proc);
  void saveProcessState();

  VirtualMachine &VM;
  ObjectModel &Om;
  ObjectMemory &OM;
  unsigned Id;

  InterpreterRoots Roots;

  // Frame cache. CtxH, HomeH, CurMethod and Code may all point into new
  // space (a doIt's method and bytecodes are young), so reloadFrame()
  // re-derives them from the active context at every GC point.
  ObjectHeader *CtxH = nullptr;
  ObjectHeader *HomeH = nullptr; // == CtxH for method contexts
  bool IsBlock = false;
  Oop CurMethod;
  const uint8_t *Code = nullptr;
  uint32_t Ip = 0;
  intptr_t SpVal = 0;

  // Slice control flags set by sends/primitives.
  bool Finished = false;
  bool Errored = false;
  bool FlagBlocked = false;
  bool FlagYield = false;

  // Asynchronous abort (set by any thread, consumed by the loop) and the
  // owner-thread deadline/result bookkeeping around it.
  std::atomic<bool> AbortFlag{false};
  uint64_t DeadlineNs = 0;
  bool Aborted = false;

  uint64_t BytecodeCount = 0;
  uint64_t SendCount = 0;
};

} // namespace mst

#endif // MST_VM_INTERPRETER_H
