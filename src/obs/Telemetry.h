//===-- obs/Telemetry.h - Counter and gauge registry ------------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The VM-wide telemetry registry: named counters, gauges, and histograms
/// that any subsystem can register and a report can aggregate on demand.
/// This is the unified form of the instrumentation the paper plans in §6 —
/// instead of each shared resource keeping ad-hoc atomics, every lock,
/// cache, and allocator owns registry counters, and one snapshot shows
/// where serialization eats the parallel speedup.
///
/// Design constraints:
///  - Counting must be cheap under heavy multiprocessor use, so a Counter
///    is *striped*: cache-line-padded per-thread-slot cells incremented
///    with relaxed atomics, summed only when read. A single shared
///    fetch_add would itself be a serialization point — precisely the
///    disease this layer exists to measure.
///  - Multiple VirtualMachine instances may coexist (the test suite builds
///    dozens); the registry therefore aggregates *by name*, summing
///    duplicates, and entries unregister themselves on destruction.
///
//===----------------------------------------------------------------------===//

#ifndef MST_OBS_TELEMETRY_H
#define MST_OBS_TELEMETRY_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mst {

class Histogram;

namespace obsdetail {
/// \returns a small dense slot index for the calling thread, used to pick
/// a counter stripe. Assigned once per thread, never reused.
unsigned nextThreadSlot();

inline unsigned threadSlot() {
  thread_local unsigned Slot = nextThreadSlot();
  return Slot;
}
} // namespace obsdetail

/// A monotonically increasing event counter. Safe to increment from any
/// thread; increments are striped across cache-line-padded cells so
/// concurrent counting never bounces a shared line.
class Counter {
public:
  /// \param Name registry name; empty = private (not aggregated).
  explicit Counter(std::string Name = {});
  ~Counter();

  Counter(const Counter &) = delete;
  Counter &operator=(const Counter &) = delete;

  /// Adds \p N to the counter. Relaxed; never a synchronization point.
  void add(uint64_t N = 1) {
    Stripes[obsdetail::threadSlot() & (NumStripes - 1)].V.fetch_add(
        N, std::memory_order_relaxed);
  }

  /// \returns the current total (sum over stripes; racy but monotonic).
  uint64_t value() const {
    uint64_t Sum = 0;
    for (const Stripe &S : Stripes)
      Sum += S.V.load(std::memory_order_relaxed);
    return Sum;
  }

  /// Zeroes every stripe. Only meaningful while writers are quiescent.
  void reset() {
    for (Stripe &S : Stripes)
      S.V.store(0, std::memory_order_relaxed);
  }

  const std::string &name() const { return Name; }

private:
  static constexpr unsigned NumStripes = 8; // power of two

  struct alignas(64) Stripe {
    std::atomic<uint64_t> V{0};
  };

  Stripe Stripes[NumStripes];
  std::string Name;
};

/// A named read-through gauge: reports the current value of some quantity
/// (heap usage, queue depth) by invoking a callback at snapshot time.
class Gauge {
public:
  Gauge(std::string Name, std::function<uint64_t()> Read);
  ~Gauge();

  Gauge(const Gauge &) = delete;
  Gauge &operator=(const Gauge &) = delete;

  uint64_t read() const { return Read ? Read() : 0; }
  const std::string &name() const { return Name; }

private:
  std::string Name;
  std::function<uint64_t()> Read;
};

/// Static facade over the process-wide registry.
class Telemetry {
public:
  /// One histogram's summary, in the histogram's native unit (ns for the
  /// pause-time histograms; the serving layer records request counts).
  struct HistogramSummary {
    std::string Name;
    std::string Unit = "ns";
    uint64_t Count = 0;
    uint64_t P50 = 0;
    uint64_t P95 = 0;
    uint64_t P99 = 0;
    uint64_t Max = 0;
  };

  /// A full point-in-time copy of the registry's aggregates. Taken before
  /// a VM shuts down, it survives the destruction of the underlying
  /// counters (benchmark JSON needs exactly this).
  struct Snapshot {
    std::vector<std::pair<std::string, uint64_t>> Counters;
    std::vector<std::pair<std::string, uint64_t>> Gauges;
    std::vector<HistogramSummary> Histograms;
  };

  /// \returns totals of all registered counters, aggregated by name and
  /// sorted lexicographically.
  static std::vector<std::pair<std::string, uint64_t>> counterTotals();

  /// \returns current values of all registered gauges (duplicates summed).
  static std::vector<std::pair<std::string, uint64_t>> gaugeValues();

  /// \returns summaries of all registered histograms (duplicates merged by
  /// keeping each instance as its own entry is wrong for replicas, so
  /// same-name histograms are merged bucket-wise).
  static std::vector<HistogramSummary> histogramSummaries();

  /// \returns the whole registry state at once.
  static Snapshot snapshot();

  /// Serializes \p S as a JSON object: {"counters":{...},"gauges":{...},
  /// "histograms":{name:{count,p50_ns,p95_ns,p99_ns,max_ns}}}.
  static std::string toJson(const Snapshot &S);

  /// --- Tracing master switch ---------------------------------------------
  /// The tracing fast path is a single relaxed load of this flag; when
  /// false, spans and instants compile down to a test-and-branch.

  static bool tracingEnabled() {
    return TracingOn.load(std::memory_order_relaxed);
  }
  static void setTracingEnabled(bool On) {
    TracingOn.store(On, std::memory_order_relaxed);
  }

  /// \returns nanoseconds since the process's trace epoch (first use).
  static uint64_t nowNs();

  /// nowNs() as of the kernel's last timer tick: a few ns per read
  /// instead of tens, and behind nowNs() by at most one tick (1-10 ms).
  /// For checks on hot paths that may fire that much late.
  static uint64_t coarseNowNs();

private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;

  static void registerCounter(Counter *C);
  static void unregisterCounter(Counter *C);
  static void registerGauge(Gauge *G);
  static void unregisterGauge(Gauge *G);
  static void registerHistogram(Histogram *H);
  static void unregisterHistogram(Histogram *H);

  static std::atomic<bool> TracingOn;
};

/// Appends \p S to \p Out as a quoted JSON string: `"` and `\` get a
/// backslash, newline, carriage return and tab their short escapes, and
/// every other control byte \u00XX. The one escaper behind the telemetry,
/// trace, profile and `!health` JSON.
void jsonStringTo(std::string &Out, std::string_view S);

} // namespace mst

#endif // MST_OBS_TELEMETRY_H
