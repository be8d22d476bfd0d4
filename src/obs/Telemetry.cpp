//===-- obs/Telemetry.cpp - Counter and gauge registry --------------------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/Telemetry.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>

#include "obs/Histogram.h"

using namespace mst;

std::atomic<bool> Telemetry::TracingOn{false};

namespace {

/// The process-wide registry. Intentionally leaked: counters with static
/// storage duration may outlive any function-local static, and a dangling
/// registry in their destructors would be worse than 200 bytes at exit.
struct Registry {
  std::mutex M;
  std::vector<Counter *> Counters;
  std::vector<Gauge *> Gauges;
  std::vector<Histogram *> Histograms;
};

Registry &reg() {
  static Registry *R = new Registry;
  return *R;
}

template <typename T> void eraseOne(std::vector<T *> &V, T *P) {
  auto It = std::find(V.begin(), V.end(), P);
  if (It != V.end())
    V.erase(It);
}

} // namespace

unsigned mst::obsdetail::nextThreadSlot() {
  static std::atomic<unsigned> Next{0};
  return Next.fetch_add(1, std::memory_order_relaxed);
}

Counter::Counter(std::string Name) : Name(std::move(Name)) {
  if (!this->Name.empty())
    Telemetry::registerCounter(this);
}

Counter::~Counter() {
  if (!Name.empty())
    Telemetry::unregisterCounter(this);
}

Gauge::Gauge(std::string Name, std::function<uint64_t()> Read)
    : Name(std::move(Name)), Read(std::move(Read)) {
  Telemetry::registerGauge(this);
}

Gauge::~Gauge() { Telemetry::unregisterGauge(this); }

void Telemetry::registerCounter(Counter *C) {
  Registry &R = reg();
  std::lock_guard<std::mutex> G(R.M);
  R.Counters.push_back(C);
}

void Telemetry::unregisterCounter(Counter *C) {
  Registry &R = reg();
  std::lock_guard<std::mutex> G(R.M);
  eraseOne(R.Counters, C);
}

void Telemetry::registerGauge(Gauge *G) {
  Registry &R = reg();
  std::lock_guard<std::mutex> L(R.M);
  R.Gauges.push_back(G);
}

void Telemetry::unregisterGauge(Gauge *G) {
  Registry &R = reg();
  std::lock_guard<std::mutex> L(R.M);
  eraseOne(R.Gauges, G);
}

void Telemetry::registerHistogram(Histogram *H) {
  Registry &R = reg();
  std::lock_guard<std::mutex> G(R.M);
  R.Histograms.push_back(H);
}

void Telemetry::unregisterHistogram(Histogram *H) {
  Registry &R = reg();
  std::lock_guard<std::mutex> G(R.M);
  eraseOne(R.Histograms, H);
}

std::vector<std::pair<std::string, uint64_t>> Telemetry::counterTotals() {
  std::map<std::string, uint64_t> Totals;
  Registry &R = reg();
  std::lock_guard<std::mutex> G(R.M);
  for (Counter *C : R.Counters)
    Totals[C->name()] += C->value();
  return {Totals.begin(), Totals.end()};
}

std::vector<std::pair<std::string, uint64_t>> Telemetry::gaugeValues() {
  std::map<std::string, uint64_t> Values;
  Registry &R = reg();
  std::lock_guard<std::mutex> G(R.M);
  for (Gauge *Gg : R.Gauges)
    Values[Gg->name()] += Gg->read();
  return {Values.begin(), Values.end()};
}

std::vector<Telemetry::HistogramSummary> Telemetry::histogramSummaries() {
  // Same-name replicas (one pause histogram per VM instance, say) merge
  // bucket-wise into an unregistered scratch copy before summarizing.
  std::map<std::string, Histogram> Merged;
  {
    Registry &R = reg();
    std::lock_guard<std::mutex> G(R.M);
    for (Histogram *H : R.Histograms) {
      auto It = Merged.find(H->name());
      if (It == Merged.end())
        Merged.emplace(H->name(), *H);
      else
        It->second.merge(*H);
    }
  }
  std::vector<HistogramSummary> Out;
  Out.reserve(Merged.size());
  for (auto &[Name, H] : Merged) {
    HistogramSummary S;
    S.Name = Name;
    S.Unit = H.unit();
    S.Count = H.count();
    S.P50 = H.percentile(50.0);
    S.P95 = H.percentile(95.0);
    S.P99 = H.percentile(99.0);
    S.Max = H.max();
    Out.push_back(std::move(S));
  }
  return Out;
}

Telemetry::Snapshot Telemetry::snapshot() {
  Snapshot S;
  S.Counters = counterTotals();
  S.Gauges = gaugeValues();
  S.Histograms = histogramSummaries();
  return S;
}

void mst::jsonStringTo(std::string &Out, std::string_view S) {
  Out += '"';
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  Out += '"';
}

std::string Telemetry::toJson(const Snapshot &S) {
  std::string Out = "{\"counters\":{";
  bool First = true;
  for (const auto &[Name, V] : S.Counters) {
    if (!First)
      Out += ',';
    First = false;
    jsonStringTo(Out, Name);
    Out += ':' + std::to_string(V);
  }
  Out += "},\"gauges\":{";
  First = true;
  for (const auto &[Name, V] : S.Gauges) {
    if (!First)
      Out += ',';
    First = false;
    jsonStringTo(Out, Name);
    Out += ':' + std::to_string(V);
  }
  Out += "},\"histograms\":{";
  First = true;
  for (const auto &H : S.Histograms) {
    if (!First)
      Out += ',';
    First = false;
    jsonStringTo(Out, H.Name);
    const std::string &U = H.Unit;
    Out += ":{\"count\":" + std::to_string(H.Count) +
           ",\"p50_" + U + "\":" + std::to_string(H.P50) +
           ",\"p95_" + U + "\":" + std::to_string(H.P95) +
           ",\"p99_" + U + "\":" + std::to_string(H.P99) +
           ",\"max_" + U + "\":" + std::to_string(H.Max) + "}";
  }
  Out += "}}";
  return Out;
}

namespace {
std::chrono::steady_clock::time_point traceEpoch() {
  static const std::chrono::steady_clock::time_point Epoch =
      std::chrono::steady_clock::now();
  return Epoch;
}

uint64_t sinceTraceEpochNs(std::chrono::steady_clock::time_point T) {
  auto D = std::chrono::duration_cast<std::chrono::nanoseconds>(
      T - traceEpoch());
  return D.count() > 0 ? static_cast<uint64_t>(D.count()) : 0;
}
} // namespace

uint64_t Telemetry::nowNs() {
  return sinceTraceEpochNs(std::chrono::steady_clock::now());
}

uint64_t Telemetry::coarseNowNs() {
  // steady_clock reads CLOCK_MONOTONIC on Linux; the coarse clock is the
  // same clock sampled at the last tick, so both share the epoch.
  timespec Ts;
  clock_gettime(CLOCK_MONOTONIC_COARSE, &Ts);
  return sinceTraceEpochNs(std::chrono::steady_clock::time_point(
      std::chrono::seconds(Ts.tv_sec) + std::chrono::nanoseconds(Ts.tv_nsec)));
}
