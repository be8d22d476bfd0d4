//===-- vm/VirtualMachine.cpp - The MS virtual machine ----------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "vm/VirtualMachine.h"

#include <chrono>
#include <fstream>

#include "obs/Profiler.h"
#include "obs/Telemetry.h"
#include "support/Assert.h"
#include "vkernel/Chaos.h"
#include "support/Format.h"
#include "support/Panic.h"
#include "vm/Compiler.h"

using namespace mst;

VmConfig VmConfig::baselineBS() {
  VmConfig C;
  C.Interpreters = 1;
  C.MpSupport = false;
  C.CacheKind = MethodCacheKind::Replicated;
  C.FreeCtxKind = FreeContextKind::Replicated;
  C.Memory.MpSupport = false;
  return C;
}

VmConfig VmConfig::multiprocessor(unsigned K) {
  VmConfig C;
  C.Interpreters = K;
  C.MpSupport = true;
  C.CacheKind = MethodCacheKind::Replicated;
  C.FreeCtxKind = FreeContextKind::Replicated;
  C.Memory.MpSupport = true;
  return C;
}

namespace {
MemoryConfig withMpSupport(MemoryConfig M, bool Mp) {
  M.MpSupport = Mp;
  return M;
}
} // namespace

VirtualMachine::VirtualMachine(const VmConfig &Config)
    : Config(Config),
      OM(std::make_unique<ObjectMemory>(
          withMpSupport(Config.Memory, Config.MpSupport))),
      Om(std::make_unique<ObjectModel>(*OM)), Disp(Config.MpSupport),
      Events(Config.MpSupport), Kernel(Config.Processors) {
  OM->registerMutator("driver");
  Profiler::registerThread("driver", static_cast<int>(Config.Interpreters));
  Om->initCore();

  Sched = std::make_unique<Scheduler>(*Om, OM->safepoint());
  Cache = std::make_unique<MethodCache>(
      Config.CacheKind, Config.Interpreters + 1, Config.MpSupport);
  CtxPool = std::make_unique<FreeContextPool>(
      Config.FreeCtxKind, Config.Interpreters + 1, Config.MpSupport);

  // Scavenge hooks: caches hold oops of (young, movable) objects; free
  // context lists hold dead objects. Both must empty before objects move.
  OM->addPreScavengeHook([this] { Cache->flushAll(); });
  OM->addPreScavengeHook([this] { CtxPool->flushAll(); });

  for (unsigned I = 0; I < Config.Interpreters; ++I)
    Workers.push_back(std::make_unique<Interpreter>(*this, I));
  Driver = std::make_unique<Interpreter>(*this, Config.Interpreters);

  OM->addRootWalker([this](const ObjectMemory::OopVisitor &V) {
    auto VisitRoots = [&V](Interpreter &I) {
      V(&I.roots().ActiveProcess);
      V(&I.roots().ActiveContext);
      V(&I.roots().PendingResult);
    };
    for (auto &W : Workers)
      VisitRoots(*W);
    VisitRoots(*Driver);
    V(&LowSpaceSem);
  });

  // The memory's low-space notification: signal the registered Smalltalk
  // semaphore. Runs with the world stopped — semaphoreSignal never
  // allocates, so this is a legal callback.
  OM->setLowSpaceCallback([this] {
    if (LowSpaceSem.isPointer())
      Sched->semaphoreSignal(LowSpaceSem);
  });

  VmPanicSection = panicRegisterSection("vm", [this] {
    std::string Out;
    auto Describe = [&Out](const char *Kind, Interpreter &I) {
      Out += std::string(Kind) + " " + std::to_string(I.id()) + ": " +
             std::to_string(I.bytecodesExecuted()) + " bytecodes, " +
             std::to_string(I.sendsExecuted()) + " sends\n";
    };
    for (auto &W : Workers)
      Describe("worker", *W);
    Describe("driver", *Driver);
    std::lock_guard<std::mutex> Guard(ErrorMutex);
    Out += "logged errors: " + std::to_string(ErrorLog.size()) + "\n";
    for (const auto &E : ErrorLog)
      Out += "  " + E + "\n";
    return Out;
  });
}

VirtualMachine::~VirtualMachine() {
  panicUnregisterSection(VmPanicSection);
  shutdown();
  // The callback captures this; the memory outlives the scheduler in the
  // member order, so clear it before teardown begins.
  OM->setLowSpaceCallback(nullptr);
  Profiler::retireThread();
  OM->unregisterMutator();
}

void VirtualMachine::setLowSpaceSemaphore(Oop Sem) {
  std::lock_guard<std::mutex> Guard(LowSpaceMutex);
  LowSpaceSem = Sem;
}

void VirtualMachine::startInterpreters() {
  assert(!WorkersStarted && "interpreters already started");
  WorkersStarted = true;
  for (auto &W : Workers) {
    Interpreter *I = W.get();
    Kernel.createProcess("interpreter-" + std::to_string(I->id()),
                         [I] { I->runLoop(); });
  }
}

void VirtualMachine::shutdown() {
  // No early-out on an already-set flag: requestStop() sets it without
  // joining, and this call must still join the workers (joinAll is
  // idempotent — already-joined threads are skipped).
  StopFlag.store(true, std::memory_order_relaxed);
  Sched->notifyWork();
  Kernel.joinAll();
}

void VirtualMachine::requestStop() {
  StopFlag.store(true, std::memory_order_relaxed);
  Sched->notifyWork();
}

void VirtualMachine::requestAbort() { Driver->requestAbort(); }

void VirtualMachine::clearAbort() { Driver->clearAbort(); }

/// --- execution front door ----------------------------------------------

Oop VirtualMachine::buildBottomContext(Oop Method, Oop Receiver) {
  // A doIt's method is young: hold it across the context allocation.
  Handle MethodHandle(OM->handles(), Method);
  Handle RecvHandle(OM->handles(), Receiver);
  intptr_t NumTemps =
      ObjectMemory::fetchPointer(Method, MthNumTemps).smallInt();
  intptr_t Frame =
      ObjectMemory::fetchPointer(Method, MthFrameSize).smallInt();
  uint32_t Slots = CtxFixedSlots + static_cast<uint32_t>(Frame);
  // Round small frames up to the standard small-context size, matching the
  // interpreter's own activations (and giving perform: headroom).
  if (Slots < SmallContextSlots)
    Slots = SmallContextSlots;
  Oop Ctx = OM->allocateContextObject(Om->known().ClassMethodContext,
                                      Slots);
  if (Ctx.isNull())
    return Oop(); // Out of memory; the caller reports the failure.
  ObjectHeader *N = Ctx.object();
  Oop *NS = N->slots();
  NS[CtxSender] = Om->nil();
  NS[CtxIp] = Oop::fromSmallInt(0);
  // A context larger than eden/4 is allocated old, so both stores need
  // the barrier.
  NS[CtxMethod] = MethodHandle.get();
  OM->writeBarrier(N, MethodHandle.get());
  NS[CtxReceiver] = RecvHandle.get();
  OM->writeBarrier(N, RecvHandle.get());
  NS[CtxSp] = Oop::fromSmallInt(CtxFixedSlots + NumTemps - 1);
  return Ctx;
}

Oop VirtualMachine::compileAndRun(const std::string &Source) {
  CompileResult R = compileDoItSource(
      *Om, Om->known().ClassUndefinedObject, Source);
  if (!R.ok()) {
    logError("doIt compile error: " + R.Error);
    return Oop();
  }
  Oop Ctx = buildBottomContext(R.Method, Om->nil());
  if (Ctx.isNull()) {
    logError("doIt failed: out of memory building the bottom context");
    return Oop();
  }
  return Driver->runToCompletion(Ctx);
}

VirtualMachine::EvalResult
VirtualMachine::evaluate(const std::string &Source) {
  return evalWithDeadline(Source, 0);
}

VirtualMachine::EvalResult
VirtualMachine::evalWithDeadline(const std::string &Source,
                                 uint64_t DeadlineNs) {
  if (Source.empty())
    return {false, "empty source", false};
  std::string Src = Source;
  // Tolerate a trailing statement period ("[true] whileTrue.") — the doIt
  // wrapper parenthesizes the source, where that period would turn the
  // client's runaway into a parse error.
  while (!Src.empty() && (Src.back() == ' ' || Src.back() == '\t' ||
                          Src.back() == '\r' || Src.back() == '\n'))
    Src.pop_back();
  if (!Src.empty() && Src.back() == '.')
    Src.pop_back();
  if (Src.empty())
    return {false, "empty source", false};
  if (Src[0] != '^' && Src[0] != '|')
    Src = "^(" + Src + ") printString";
  size_t Mark;
  {
    std::lock_guard<std::mutex> Guard(ErrorMutex);
    Mark = ErrorLog.size();
  }
  (void)Driver->takeAborted(); // drop stale state from non-evaluate runs
  Driver->setDeadlineNs(DeadlineNs);
  Oop R = compileAndRun(Src);
  Driver->setDeadlineNs(0);
  bool TimedOut = Driver->takeAborted();
  if (R.isNull()) {
    // Collect (and drop) the diagnostics this evaluation appended. Only
    // the driver thread runs evaluate, so entries past Mark are ours —
    // a worker interpreter could interleave one of its own, which we
    // would then attribute here; harmless for a diagnostics string.
    std::lock_guard<std::mutex> Guard(ErrorMutex);
    std::string Msg;
    for (size_t I = Mark; I < ErrorLog.size(); ++I) {
      if (!Msg.empty())
        Msg += "; ";
      Msg += ErrorLog[I];
    }
    ErrorLog.resize(Mark);
    return {false, Msg.empty() ? "evaluation failed" : Msg, TimedOut};
  }
  if (R.isPointer() && R.object()->Format == ObjectFormat::Bytes)
    return {true, ObjectModel::stringValue(R), false};
  return {true, Om->describe(R), false};
}

Oop VirtualMachine::forkDoIt(const std::string &Source, int Priority,
                             const std::string &Name) {
  CompileResult R = compileDoItSource(
      *Om, Om->known().ClassUndefinedObject, Source);
  if (!R.ok()) {
    logError("forkDoIt compile error: " + R.Error);
    return Oop();
  }
  Oop Ctx = buildBottomContext(R.Method, Om->nil());
  if (Ctx.isNull()) {
    logError("forkDoIt failed: out of memory building the bottom context");
    return Oop();
  }
  Oop Proc = Sched->createProcess(Ctx, Priority, Name);
  if (Proc.isNull()) {
    logError("forkDoIt failed: out of memory creating the Process");
    return Oop();
  }
  Sched->addReadyProcess(Proc);
  return Proc;
}

/// --- host signals ------------------------------------------------------

unsigned VirtualMachine::createHostSignal() {
  std::lock_guard<std::mutex> Guard(SignalMutex);
  SignalCounts.push_back(0);
  return static_cast<unsigned>(SignalCounts.size() - 1);
}

void VirtualMachine::hostSignal(unsigned Id) {
  std::lock_guard<std::mutex> Guard(SignalMutex);
  if (Id < SignalCounts.size()) {
    ++SignalCounts[Id];
    SignalCv.notify_all();
  }
}

bool VirtualMachine::waitHostSignal(unsigned Id, uint64_t Count,
                                    double TimeoutSec) {
  // The waiter holds no heap references; let scavenges proceed.
  BlockedRegion Region(OM->safepoint());
  std::unique_lock<std::mutex> Lock(SignalMutex);
  return SignalCv.wait_for(
      Lock, std::chrono::duration<double>(TimeoutSec), [this, Id, Count] {
        return Id < SignalCounts.size() && SignalCounts[Id] >= Count;
      });
}

/// --- diagnostics -------------------------------------------------------

void VirtualMachine::logError(const std::string &Msg) {
  std::lock_guard<std::mutex> Guard(ErrorMutex);
  ErrorLog.push_back(Msg);
}

std::vector<std::string> VirtualMachine::errors() {
  std::lock_guard<std::mutex> Guard(ErrorMutex);
  return ErrorLog;
}

std::string VirtualMachine::statisticsReport() {
  TextTable Locks;
  Locks.setHeader({"serialized resource", "acquisitions", "contended",
                   "delays"});
  auto LockRow = [&Locks](const char *Name, SpinLock &L) {
    Locks.addRow({Name, std::to_string(L.acquisitions()),
                  std::to_string(L.contendedAcquisitions()),
                  std::to_string(L.delays())});
  };
  LockRow("allocation (new space)", OM->allocationLock());
  LockRow("scheduling (ready queue)", Sched->lock());
  LockRow("entry table (remembered set)", OM->rememberedSet().lock());
  LockRow("display output queue", Disp.lock());
  LockRow("input event queue", Events.lock());

  std::string Out = "=== MS instrumentation report (paper SS6) ===\n";
  Out += Locks.render();

  uint64_t Hits = Cache->hits(), Misses = Cache->misses();
  double HitRate = Hits + Misses
                       ? 100.0 * static_cast<double>(Hits) /
                             static_cast<double>(Hits + Misses)
                       : 0.0;
  Out += "method cache (";
  Out += Config.CacheKind == MethodCacheKind::Replicated
             ? "replicated"
             : "global, two-level locked";
  Out += "): " + std::to_string(Hits) + " hits, " +
         std::to_string(Misses) + " misses (" + formatDouble(HitRate, 1) +
         "% hit rate)\n";
  Out += "free contexts (";
  Out += Config.FreeCtxKind == FreeContextKind::Replicated ? "replicated"
                                                           : "shared";
  Out += "): " + std::to_string(CtxPool->reuses()) + " reuses, " +
         std::to_string(CtxPool->returns()) + " returns\n";

  ScavengeStats S = OM->statsSnapshot();
  Out += "scavenges: " + std::to_string(S.Scavenges) + ", total pause " +
         formatDouble(S.TotalPauseSec * 1000.0, 3) + " ms, copied " +
         std::to_string(S.BytesCopied) + " B, tenured " +
         std::to_string(S.BytesTenured) + " B\n";
  FullGcStats F = OM->fullGcStatsSnapshot();
  Out += "full collections: " + std::to_string(F.Collections) +
         ", total pause " + formatDouble(F.TotalPauseSec * 1000.0, 3) +
         " ms, swept " + std::to_string(F.SweptBytes) + " B, old live " +
         std::to_string(F.LastLiveBytes) + " B (used " +
         std::to_string(OM->oldSpaceUsed()) + " B, free " +
         std::to_string(OM->oldSpaceFree()) + " B)\n";
  Out += "display commands: " + std::to_string(Disp.submittedCount()) +
         "\n";

  TextTable Interp;
  Interp.setHeader({"interpreter", "bytecodes", "sends"});
  for (const auto &W : Workers)
    Interp.addRow({"worker " + std::to_string(W->id()),
                   std::to_string(W->bytecodesExecuted()),
                   std::to_string(W->sendsExecuted())});
  Interp.addRow({"driver", std::to_string(Driver->bytecodesExecuted()),
                 std::to_string(Driver->sendsExecuted())});
  Out += Interp.render();
  return Out;
}

std::string VirtualMachine::telemetryReport() {
  Telemetry::Snapshot S = Telemetry::snapshot();
  std::string Out = "=== telemetry report ===\n";

  TextTable Counters;
  Counters.setHeader({"counter", "value"});
  for (const auto &[Name, V] : S.Counters)
    Counters.addRow({Name, std::to_string(V)});
  Out += Counters.render();

  if (!S.Gauges.empty()) {
    TextTable Gauges;
    Gauges.setHeader({"gauge", "value"});
    for (const auto &[Name, V] : S.Gauges)
      Gauges.addRow({Name, std::to_string(V)});
    Out += Gauges.render();
  }

  TextTable Hists;
  Hists.setHeader({"histogram", "count", "p50 (us)", "p95 (us)",
                   "p99 (us)", "max (us)"});
  auto Us = [](uint64_t Ns) {
    return formatDouble(static_cast<double>(Ns) / 1000.0, 1);
  };
  for (const auto &H : S.Histograms)
    Hists.addRow({H.Name, std::to_string(H.Count), Us(H.P50), Us(H.P95),
                  Us(H.P99), Us(H.Max)});
  Out += Hists.render();
  return Out;
}

bool VirtualMachine::writeTelemetryJson(const std::string &Path) {
  std::string Json = Telemetry::toJson(Telemetry::snapshot());
  // Splice the resolved profile in as a sibling of counters/gauges when
  // there is one; the document stays a single JSON object either way.
  if (Profiler::enabled() || Profiler::ticks() > 0) {
    ProfileReport Report = buildProfileReport();
    if (!Report.empty() && !Json.empty() && Json.back() == '}') {
      Json.pop_back();
      Json += ",\"profile\":" + Report.toJson() + "}";
    }
  }
  std::ofstream Os(Path, std::ios::binary | std::ios::trunc);
  if (!Os)
    return false;
  Os << Json;
  return static_cast<bool>(Os);
}

/// --- profiling -----------------------------------------------------------

namespace {

/// \returns the header for \p Bits when they still name a plausible live
/// old-space object of \p WantFormat; nullptr otherwise. Old space never
/// moves objects, and a swept header is rewritten as a Free block (with
/// its body zap-filled), so the checks below turn "sampled bits went
/// stale" into a resolution failure instead of a wild dereference.
ObjectHeader *validOldObject(ObjectMemory &M, uintptr_t Bits,
                             ObjectFormat WantFormat) {
  Oop O = Oop::fromBits(Bits);
  if (!O.isPointer())
    return nullptr;
  ObjectHeader *H = O.object();
  if (!M.oldContains(H))
    return nullptr;
  if (H->Format != WantFormat)
    return nullptr;
  return H;
}

/// Byte contents of an old-space byte object (Symbol/String), or "".
std::string safeBytes(ObjectMemory &M, Oop S) {
  ObjectHeader *H = validOldObject(M, S.bits(), ObjectFormat::Bytes);
  if (!H || H->ByteLength == 0)
    return {};
  return std::string(reinterpret_cast<const char *>(H->bytes()),
                     H->ByteLength);
}

std::string safeClassName(ObjectMemory &M, uintptr_t Bits) {
  ObjectHeader *H = validOldObject(M, Bits, ObjectFormat::Pointers);
  if (!H || H->SlotCount < ClassSlotCount)
    return {};
  return safeBytes(M, H->slots()[ClsName]);
}

} // namespace

ProfileResolver VirtualMachine::profileResolver() {
  ObjectMemory *M = OM.get();
  Oop MethodClass = Om->known().ClassCompiledMethod;
  ProfileResolver R;
  R.SelectorName = [M](uintptr_t Bits) {
    return safeBytes(*M, Oop::fromBits(Bits));
  };
  R.ClassName = [M](uintptr_t Bits) { return safeClassName(*M, Bits); };
  R.MethodName = [M, MethodClass](uintptr_t Bits) -> std::string {
    // Only doIts are compiled into new space, and young bits cannot be
    // validated (the object may have moved or died since the sample).
    Oop O = Oop::fromBits(Bits);
    if (O.isPointer() && !M->oldContains(O.object()))
      return "(doIt)";
    ObjectHeader *H = validOldObject(*M, Bits, ObjectFormat::Pointers);
    if (!H || H->classOop() != MethodClass ||
        H->SlotCount < MethodSlotCount)
      return {};
    std::string Sel = safeBytes(*M, H->slots()[MthSelector]);
    if (Sel.empty())
      return {};
    std::string Cls = safeClassName(*M, H->slots()[MthClass].bits());
    return (Cls.empty() ? "?" : Cls) + ">>" + Sel;
  };
  return R;
}

ProfileReport VirtualMachine::buildProfileReport() {
  return resolveProfile(Profiler::data(), profileResolver());
}

std::string VirtualMachine::profileReport() {
  return buildProfileReport().render();
}

bool mst::startVmProfiler(uint32_t Hz) {
  ProfilerOptions O;
  if (Hz)
    O.SampleHz = Hz;
  O.TickHook = [] { chaos::point("profiler.sample"); };
  return Profiler::start(O);
}

void mst::stopVmProfiler() { Profiler::stop(); }

uint64_t VirtualMachine::totalBytecodes() const {
  uint64_t N = Driver->bytecodesExecuted();
  for (const auto &W : Workers)
    N += W->bytecodesExecuted();
  return N;
}
