//===-- obs/Histogram.h - Log-bucketed pause-time histogram -----*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A log-linear histogram for pause times and other latency-like samples:
/// power-of-two major buckets, each split into 16 linear sub-buckets, so
/// the relative quantile error is bounded by 1/16 (~6%) across the full
/// uint64 range while the whole structure stays a fixed 8 KB of relaxed
/// atomics. The scavenger and safepoint record stop-the-world pauses here;
/// the report prints p50/p95/p99/max — the numbers the multicore-GC
/// literature (Auhagen et al.) uses to locate rendezvous bottlenecks.
///
//===----------------------------------------------------------------------===//

#ifndef MST_OBS_HISTOGRAM_H
#define MST_OBS_HISTOGRAM_H

#include <atomic>
#include <cstdint>
#include <string>

namespace mst {

/// Thread-safe log-linear histogram over non-negative integer samples
/// (typically nanoseconds).
class Histogram {
public:
  /// \param Name registry name; empty = private (not aggregated).
  /// \param Unit the unit samples are recorded in ("ns" for the pause
  /// histograms; "reqs" for the serving layer's batch sizes). Purely
  /// descriptive: it names the percentile keys in the telemetry JSON.
  explicit Histogram(std::string Name = {}, std::string Unit = "ns");
  ~Histogram();

  /// Copies values only; the copy is always unregistered (a registered
  /// copy would double-count its original in the registry).
  Histogram(const Histogram &Other);
  Histogram &operator=(const Histogram &) = delete;

  /// Records one sample.
  void record(uint64_t Value);

  /// \returns the number of recorded samples.
  uint64_t count() const {
    return N.load(std::memory_order_relaxed);
  }

  /// \returns the sum of all samples.
  uint64_t sum() const { return Total.load(std::memory_order_relaxed); }

  /// \returns the exact largest sample, or 0 when empty.
  uint64_t max() const { return MaxV.load(std::memory_order_relaxed); }

  /// \returns the exact smallest sample, or 0 when empty.
  uint64_t min() const {
    uint64_t M = MinV.load(std::memory_order_relaxed);
    return M == UINT64_MAX ? 0 : M;
  }

  /// \returns the value at quantile \p P in [0,100], interpolated inside
  /// its bucket; relative error is bounded by the sub-bucket width (~6%).
  /// 0 when empty.
  uint64_t percentile(double P) const;

  /// Merges \p Other's samples into this histogram (registry aggregation
  /// of same-name replicas).
  void merge(const Histogram &Other);

  const std::string &name() const { return Name; }
  const std::string &unit() const { return Unit; }

  /// Number of buckets (exposed for the white-box tests).
  static constexpr unsigned SubBucketBits = 4;
  static constexpr unsigned SubBuckets = 1u << SubBucketBits;
  static constexpr unsigned NumBuckets = 1024;

private:
  static unsigned bucketIndex(uint64_t V);
  /// \returns the inclusive lower bound and width of bucket \p Idx.
  static void bucketRange(unsigned Idx, uint64_t &Low, uint64_t &Width);

  std::atomic<uint64_t> Buckets[NumBuckets];
  std::atomic<uint64_t> N{0};
  std::atomic<uint64_t> Total{0};
  std::atomic<uint64_t> MaxV{0};
  std::atomic<uint64_t> MinV{UINT64_MAX};
  std::string Name;
  std::string Unit = "ns";
};

} // namespace mst

#endif // MST_OBS_HISTOGRAM_H
