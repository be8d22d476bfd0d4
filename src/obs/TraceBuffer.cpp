//===-- obs/TraceBuffer.cpp - Per-thread trace rings & export -------------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/TraceBuffer.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <vector>

using namespace mst;

namespace {

/// One thread's ring. The owning thread writes events and bumps WriteIdx
/// with a release store; the merger reads the index with acquire and then
/// the events. Once the ring wraps, the oldest events are overwritten in
/// place — the merger reads at most the last TraceRingCapacity events.
struct Ring {
  TraceEvent Events[TraceRingCapacity];
  std::atomic<uint64_t> WriteIdx{0};
  std::string ThreadName; // guarded by the trace registry mutex
  int Processor = -1;     // guarded by the trace registry mutex
  unsigned Id = 0;
};

/// Intentionally leaked (see Telemetry.cpp's registry for the rationale).
/// Rings are created lazily, live for the rest of the process, and keep
/// their events after the owning thread exits — merging happens after a
/// run, when the worker threads are long gone.
struct TraceRegistry {
  std::mutex M;
  std::vector<std::unique_ptr<Ring>> Rings;
  /// Events overwritten by ring wrap-around since process start. A Chrome
  /// trace merged from wrapped rings silently shows only the most recent
  /// window; this counter makes the truncation detectable.
  Counter Dropped{"vm.trace.dropped"};
  /// Overwritten events currently unrecoverable from the live rings
  /// (resets with clearTrace, unlike the cumulative counter).
  Gauge DroppedNow{"vm.trace.dropped.current", [this] {
                     uint64_t N = 0;
                     std::lock_guard<std::mutex> G(M);
                     for (const auto &R : Rings) {
                       uint64_t W =
                           R->WriteIdx.load(std::memory_order_relaxed);
                       if (W > TraceRingCapacity)
                         N += W - TraceRingCapacity;
                     }
                     return N;
                   }};
};

TraceRegistry &treg() {
  static TraceRegistry *R = new TraceRegistry;
  return *R;
}

struct PendingThreadInfo {
  std::string Name;
  int Processor = -1;
  bool Set = false;
};

thread_local PendingThreadInfo PendingTL;
thread_local Ring *RingTL = nullptr;

Ring &myRing() {
  if (RingTL)
    return *RingTL;
  TraceRegistry &R = treg();
  std::lock_guard<std::mutex> G(R.M);
  auto Owned = std::make_unique<Ring>();
  Ring *P = Owned.get();
  P->Id = static_cast<unsigned>(R.Rings.size());
  if (PendingTL.Set) {
    P->ThreadName = PendingTL.Name;
    P->Processor = PendingTL.Processor;
  }
  R.Rings.push_back(std::move(Owned));
  RingTL = P;
  return *P;
}

void append(const TraceEvent &E) {
  Ring &R = myRing();
  uint64_t W = R.WriteIdx.load(std::memory_order_relaxed);
  if (W >= TraceRingCapacity)
    treg().Dropped.add(); // overwriting the oldest event
  R.Events[W & (TraceRingCapacity - 1)] = E;
  R.WriteIdx.store(W + 1, std::memory_order_release);
}

void appendMicros(std::string &Out, uint64_t Ns) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.3f", static_cast<double>(Ns) / 1000.0);
  Out += Buf;
}

int ringPid(const Ring &R) { return R.Processor >= 0 ? R.Processor + 1 : 0; }

} // namespace

void mst::obsdetail::recordComplete(const char *Name, const char *Cat,
                                    uint64_t StartNs, uint64_t DurNs,
                                    uint64_t Arg, bool HasArg) {
  TraceEvent E;
  E.Name = Name;
  E.Cat = Cat;
  E.StartNs = StartNs;
  E.DurNs = DurNs;
  E.Arg = Arg;
  E.HasArg = HasArg;
  E.Phase = TracePhase::Complete;
  append(E);
}

void mst::obsdetail::recordInstant(const char *Name, const char *Cat,
                                   uint64_t Arg, bool HasArg) {
  TraceEvent E;
  E.Name = Name;
  E.Cat = Cat;
  E.StartNs = Telemetry::nowNs();
  E.Arg = Arg;
  E.HasArg = HasArg;
  E.Phase = TracePhase::Instant;
  append(E);
}

void mst::setTraceThreadInfo(std::string Name, int Processor) {
  PendingTL.Name = std::move(Name);
  PendingTL.Processor = Processor;
  PendingTL.Set = true;
  if (RingTL) {
    TraceRegistry &R = treg();
    std::lock_guard<std::mutex> G(R.M);
    RingTL->ThreadName = PendingTL.Name;
    RingTL->Processor = Processor;
  }
}

void mst::setTraceThreadName(std::string Name) {
  PendingTL.Name = std::move(Name);
  PendingTL.Set = true;
  if (RingTL) {
    TraceRegistry &R = treg();
    std::lock_guard<std::mutex> G(R.M);
    RingTL->ThreadName = PendingTL.Name;
  }
}

std::string mst::chromeTraceJson() {
  std::string Out;
  Out.reserve(1 << 16);
  Out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool First = true;
  auto comma = [&] {
    if (!First)
      Out += ',';
    First = false;
  };

  TraceRegistry &R = treg();
  std::lock_guard<std::mutex> G(R.M);

  // Process metadata: one process per virtual processor, plus pid 0 for
  // host/service threads.
  std::vector<int> Pids;
  for (const auto &Ring : R.Rings)
    Pids.push_back(ringPid(*Ring));
  std::sort(Pids.begin(), Pids.end());
  Pids.erase(std::unique(Pids.begin(), Pids.end()), Pids.end());
  for (int Pid : Pids) {
    comma();
    Out += "{\"ph\":\"M\",\"pid\":" + std::to_string(Pid) +
           ",\"name\":\"process_name\",\"args\":{\"name\":\"";
    if (Pid == 0)
      Out += "host";
    else
      Out += "vp " + std::to_string(Pid - 1);
    Out += "\"}}";
  }

  for (const auto &RingPtr : R.Rings) {
    const Ring &B = *RingPtr;
    int Pid = ringPid(B);
    std::string Tid = std::to_string(B.Id);
    if (!B.ThreadName.empty()) {
      comma();
      Out += "{\"ph\":\"M\",\"pid\":" + std::to_string(Pid) +
             ",\"tid\":" + Tid +
             ",\"name\":\"thread_name\",\"args\":{\"name\":";
      jsonStringTo(Out, B.ThreadName);
      Out += "}}";
    }
    uint64_t W = B.WriteIdx.load(std::memory_order_acquire);
    uint64_t Count = std::min<uint64_t>(W, TraceRingCapacity);
    for (uint64_t I = W - Count; I < W; ++I) {
      const TraceEvent &E = B.Events[I & (TraceRingCapacity - 1)];
      comma();
      Out += "{\"name\":";
      jsonStringTo(Out, E.Name ? E.Name : "?");
      Out += ",\"cat\":";
      jsonStringTo(Out, E.Cat ? E.Cat : "mst");
      Out += ",\"ph\":\"";
      Out += E.Phase == TracePhase::Complete ? "X" : "i";
      Out += "\",\"pid\":" + std::to_string(Pid) + ",\"tid\":" + Tid +
             ",\"ts\":";
      appendMicros(Out, E.StartNs);
      if (E.Phase == TracePhase::Complete) {
        Out += ",\"dur\":";
        appendMicros(Out, E.DurNs);
      } else {
        Out += ",\"s\":\"t\"";
      }
      if (E.HasArg)
        Out += ",\"args\":{\"value\":" + std::to_string(E.Arg) + "}";
      Out += "}";
    }
  }
  Out += "]}";
  return Out;
}

bool mst::writeChromeTrace(const std::string &Path) {
  std::string Json = chromeTraceJson();
  std::ofstream Os(Path, std::ios::binary | std::ios::trunc);
  if (!Os)
    return false;
  Os << Json;
  return static_cast<bool>(Os);
}

void mst::clearTrace() {
  TraceRegistry &R = treg();
  std::lock_guard<std::mutex> G(R.M);
  for (const auto &RingPtr : R.Rings)
    RingPtr->WriteIdx.store(0, std::memory_order_release);
}

size_t mst::countTraceSpans(const char *Name) {
  size_t N = 0;
  TraceRegistry &R = treg();
  std::lock_guard<std::mutex> G(R.M);
  for (const auto &RingPtr : R.Rings) {
    const Ring &B = *RingPtr;
    uint64_t W = B.WriteIdx.load(std::memory_order_acquire);
    uint64_t Count = std::min<uint64_t>(W, TraceRingCapacity);
    for (uint64_t I = W - Count; I < W; ++I) {
      const TraceEvent &E = B.Events[I & (TraceRingCapacity - 1)];
      if (E.Phase == TracePhase::Complete && E.Name &&
          std::strcmp(E.Name, Name) == 0)
        ++N;
    }
  }
  return N;
}

size_t mst::traceEventCount() {
  size_t N = 0;
  TraceRegistry &R = treg();
  std::lock_guard<std::mutex> G(R.M);
  for (const auto &RingPtr : R.Rings)
    N += static_cast<size_t>(
        std::min<uint64_t>(RingPtr->WriteIdx.load(std::memory_order_acquire),
                           TraceRingCapacity));
  return N;
}
