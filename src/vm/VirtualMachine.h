//===-- vm/VirtualMachine.h - The MS virtual machine ------------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Multiprocessor Smalltalk virtual machine: object memory, object
/// model, scheduler, caches, I/O, and k replicated interpreter processes
/// on a V-kernel substrate. The configuration matrix covers every cell of
/// the paper's Table 3:
///
///   serialization: allocation, GC, entry table, scheduling, I/O queues
///   replication:   interpreters, method caches, free contexts, (TLABs)
///   reorganization: activeProcess / canRun: / thisProcess
///
/// `Memory.MpSupport = false` with one interpreter is "baseline BS" — the
/// interpreter ported to the Firefly *before* any multiprocessor support,
/// the reference point of Table 2.
///
//===----------------------------------------------------------------------===//

#ifndef MST_VM_VIRTUALMACHINE_H
#define MST_VM_VIRTUALMACHINE_H

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "io/Display.h"
#include "io/EventQueue.h"
#include "objmem/ObjectMemory.h"
#include "obs/ProfileReport.h"
#include "support/Timer.h"
#include "vkernel/VKernel.h"
#include "vm/FreeContextList.h"
#include "vm/Interpreter.h"
#include "vm/MethodCache.h"
#include "vm/ObjectModel.h"
#include "vm/Scheduler.h"

namespace mst {

/// Complete VM configuration.
struct VmConfig {
  /// Number of worker interpreter processes (the Firefly ran up to 5).
  unsigned Interpreters = 1;
  MethodCacheKind CacheKind = MethodCacheKind::Replicated;
  FreeContextKind FreeCtxKind = FreeContextKind::Replicated;
  /// Memory.MpSupport is the master switch for every lock in the system;
  /// false = baseline BS.
  MemoryConfig Memory;

  /// Canonical "baseline BS" configuration (Table 2, row 1).
  static VmConfig baselineBS();
  /// Canonical MS configuration with \p K interpreters.
  static VmConfig multiprocessor(unsigned K);
};

/// The virtual machine.
class VirtualMachine {
public:
  /// Builds the VM core (no image methods yet — see image/Bootstrap). The
  /// calling thread is registered as a mutator and becomes the driver.
  explicit VirtualMachine(const VmConfig &Config);

  /// Stops interpreters and unregisters the driver thread (which must be
  /// the constructing thread).
  ~VirtualMachine();

  VirtualMachine(const VirtualMachine &) = delete;
  VirtualMachine &operator=(const VirtualMachine &) = delete;

  const VmConfig &config() const { return Config; }

  /// Virtual processors in the V kernel (the Firefly had 5).
  static constexpr unsigned Processors = 5;

  ObjectMemory &memory() { return *OM; }
  ObjectModel &model() { return *Om; }
  Scheduler &scheduler() { return *Sched; }
  MethodCache &cache() { return *Cache; }
  FreeContextPool &contextPool() { return *CtxPool; }
  Display &display() { return Disp; }
  EventQueue &events() { return Events; }
  VKernel &kernel() { return Kernel; }

  /// The driver interpreter, bound to the constructing thread.
  Interpreter &driver() { return *Driver; }

  /// --- Interpreter lifecycle ---------------------------------------------

  /// Spawns the worker interpreter processes.
  void startInterpreters();

  /// Requests shutdown and joins every worker. The caller counts as
  /// parked while it waits, so interpreters may still collect: a GC
  /// point.
  void shutdown();

  bool stopping() const {
    return StopFlag.load(std::memory_order_relaxed);
  }

  /// --- Execution front door ----------------------------------------------

  /// Compiles \p Source as a doIt and runs it to completion on the calling
  /// (driver) thread. \returns the result, or null oop on error.
  Oop compileAndRun(const std::string &Source);

  /// One evaluated request/response exchange (VirtualMachine::evaluate).
  struct EvalResult {
    bool Ok = false;
    /// The result's printString (strings render verbatim, everything else
    /// via ObjectModel::describe) on success; the compile/runtime
    /// diagnostics on failure.
    std::string Value;
    /// True when the evaluation was unwound by a deadline expiry (the
    /// RequestTimeout error); Ok is then false.
    bool TimedOut = false;
  };

  /// The serving layer's reentrant front door: evaluates \p Source as an
  /// expression on the calling (driver) thread and renders the answer.
  /// Sources not starting with `^` or `|` are wrapped as
  /// `^(...) printString`, REPL-style. Unlike compileAndRun, failures are
  /// *consumed*: the error-log entries this evaluation produced are
  /// returned in EvalResult::Value and removed from the log, so a shard
  /// serving millions of requests neither leaks error state nor
  /// interleaves one session's diagnostics into another's. Callable any
  /// number of times; each call is independent.
  EvalResult evaluate(const std::string &Source);

  /// evaluate() with an absolute deadline (Telemetry::nowNs time, 0 =
  /// none). The interpreter checks the deadline every 512 bytecodes and
  /// after every successful primitive, on a clock that may lag by one
  /// timer tick; once it has expired the execution unwinds with a
  /// RequestTimeout error at that check and the result reports TimedOut.
  /// A primitive in progress always finishes first. Same thread rule as
  /// evaluate().
  EvalResult evalWithDeadline(const std::string &Source,
                              uint64_t DeadlineNs);

  /// Compiles \p Source as a doIt and forks it as a Smalltalk Process at
  /// \p Priority. \returns the Process oop (already scheduled).
  Oop forkDoIt(const std::string &Source, int Priority,
               const std::string &Name);

  /// Builds a bottom MethodContext activating \p Method on \p Receiver
  /// with no arguments. GC point.
  Oop buildBottomContext(Oop Method, Oop Receiver);

  /// The Process to record in the ProcessorScheduler's activeProcess slot
  /// while a snapshot is on disk (§3.3): the driver's current Process, or
  /// nil when the driver is idle. Only meaningful with the world stopped
  /// or quiescent — image/Snapshot is the intended caller.
  Oop snapshotActiveProcess() {
    Oop P = Driver->roots().ActiveProcess;
    return P.isNull() ? Om->nil() : P;
  }

  /// --- Low-space notification ---------------------------------------------

  /// Registers \p Sem (a Semaphore, or nil to clear) as the low-space
  /// semaphore, mirroring Smalltalk-80's `lowSpaceSemaphore`. The memory
  /// signals it when free headroom first drops below the configured
  /// watermark; a Smalltalk process waiting on it can release caches or
  /// warn the user before the OutOfMemoryError rung is reached.
  void setLowSpaceSemaphore(Oop Sem);

  Oop lowSpaceSemaphore() const { return LowSpaceSem; }

  /// --- Host signals (benchmark completion notification) -------------------

  /// Creates a host signal slot. Smalltalk signals it via
  /// <primitive: 60> with the slot id.
  unsigned createHostSignal();

  /// Signals slot \p Id (called from a primitive).
  void hostSignal(unsigned Id);

  /// Waits until slot \p Id has been signalled at least \p Count times.
  /// Enters a blocked region (GC-safe). \returns false on timeout.
  bool waitHostSignal(unsigned Id, uint64_t Count, double TimeoutSec);

  /// --- Diagnostics ---------------------------------------------------------

  void logError(const std::string &Msg);
  std::vector<std::string> errors();

  /// Milliseconds since VM construction (primitive 42).
  intptr_t millisecondClock() const {
    return static_cast<intptr_t>(Uptime.seconds() * 1000.0);
  }

  /// Total bytecodes executed across all interpreters (approximate while
  /// running).
  uint64_t totalBytecodes() const;

  /// The instrumentation the paper plans in §6: a report of contention
  /// and activity per shared resource — lock acquisitions and contended
  /// acquisitions for allocation, scheduling, the entry table and the
  /// display; method-cache hit rates; free-context reuse; scavenger
  /// totals; per-interpreter bytecode and send counts.
  std::string statisticsReport();

  /// The registry view of the same instrumentation: every named counter,
  /// gauge, and pause-time histogram in the process, aggregated — lock
  /// contention by lock, cache hit rates, scavenge pause p50/p95/p99.
  std::string telemetryReport();

  /// --- Profiling -----------------------------------------------------------

  /// A resolver that turns sampled oop bits into names against this VM's
  /// heap: bits are validated (pointer, old space, live CompiledMethod
  /// header) before any slot is read, so methods swept by a full
  /// collection since the sample resolve to "" rather than crashing.
  /// Method bits outside old space name a doIt (the only young methods)
  /// and resolve to "(doIt)".
  ProfileResolver profileResolver();

  /// Resolves everything the sampling profiler has accumulated so far
  /// against this VM's heap. Call from a registered mutator thread.
  ProfileReport buildProfileReport();

private:
  VmConfig Config;
  std::unique_ptr<ObjectMemory> OM;
  std::unique_ptr<ObjectModel> Om;
  std::unique_ptr<Scheduler> Sched;
  std::unique_ptr<MethodCache> Cache;
  std::unique_ptr<FreeContextPool> CtxPool;
  Display Disp;
  EventQueue Events;
  VKernel Kernel;

  std::vector<std::unique_ptr<Interpreter>> Workers;
  std::unique_ptr<Interpreter> Driver;
  std::atomic<bool> StopFlag{false};
  bool WorkersStarted = false;

  std::mutex SignalMutex;
  std::condition_variable SignalCv;
  std::vector<uint64_t> SignalCounts;

  std::mutex ErrorMutex;
  std::vector<std::string> ErrorLog;

  /// The registered low-space Semaphore (nil when none). A GC root; the
  /// mutex serializes rival registrations — the GC-time read and in-place
  /// update happen with every mutator parked, which the safepoint protocol
  /// already orders after any registration.
  std::mutex LowSpaceMutex;
  Oop LowSpaceSem;

  /// Panic-dump section describing the interpreters; unregistered in the
  /// destructor.
  int VmPanicSection = -1;

  Stopwatch Uptime;
};

/// Starts the process-wide sampling profiler with the VM's chaos hook
/// installed on the sampler tick. \p Hz == 0 uses the default rate.
/// \returns false if the sampler was already running.
bool startVmProfiler(uint32_t Hz = 0);

/// Stops and joins the sampler thread (accumulated data survives).
void stopVmProfiler();

} // namespace mst

#endif // MST_VM_VIRTUALMACHINE_H
