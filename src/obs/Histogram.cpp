//===-- obs/Histogram.cpp - Log-bucketed pause-time histogram -------------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/Histogram.h"

#include <bit>
#include <cmath>

#include "obs/Telemetry.h"

using namespace mst;

namespace {
void atomicMax(std::atomic<uint64_t> &A, uint64_t V) {
  uint64_t Cur = A.load(std::memory_order_relaxed);
  while (V > Cur &&
         !A.compare_exchange_weak(Cur, V, std::memory_order_relaxed)) {
  }
}

void atomicMin(std::atomic<uint64_t> &A, uint64_t V) {
  uint64_t Cur = A.load(std::memory_order_relaxed);
  while (V < Cur &&
         !A.compare_exchange_weak(Cur, V, std::memory_order_relaxed)) {
  }
}
} // namespace

Histogram::Histogram(std::string Name, std::string Unit)
    : Name(std::move(Name)), Unit(std::move(Unit)) {
  for (auto &B : Buckets)
    B.store(0, std::memory_order_relaxed);
  if (!this->Name.empty())
    Telemetry::registerHistogram(this);
}

Histogram::~Histogram() {
  if (!Name.empty())
    Telemetry::unregisterHistogram(this);
}

Histogram::Histogram(const Histogram &Other) {
  Unit = Other.Unit;
  for (unsigned I = 0; I < NumBuckets; ++I)
    Buckets[I].store(Other.Buckets[I].load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  N.store(Other.N.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
  Total.store(Other.Total.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
  MaxV.store(Other.MaxV.load(std::memory_order_relaxed),
             std::memory_order_relaxed);
  MinV.store(Other.MinV.load(std::memory_order_relaxed),
             std::memory_order_relaxed);
}

unsigned Histogram::bucketIndex(uint64_t V) {
  if (V < SubBuckets)
    return static_cast<unsigned>(V);
  unsigned Msb = 63u - static_cast<unsigned>(std::countl_zero(V));
  unsigned Shift = Msb - SubBucketBits;
  unsigned Idx = ((Msb - SubBucketBits + 1) << SubBucketBits) +
                 static_cast<unsigned>((V >> Shift) & (SubBuckets - 1));
  return Idx < NumBuckets ? Idx : NumBuckets - 1;
}

void Histogram::bucketRange(unsigned Idx, uint64_t &Low, uint64_t &Width) {
  if (Idx < SubBuckets) {
    Low = Idx;
    Width = 1;
    return;
  }
  unsigned Major = Idx >> SubBucketBits;
  unsigned Sub = Idx & (SubBuckets - 1);
  unsigned Msb = Major + SubBucketBits - 1;
  Width = 1ull << (Msb - SubBucketBits);
  Low = (1ull << Msb) + Sub * Width;
}

void Histogram::record(uint64_t Value) {
  Buckets[bucketIndex(Value)].fetch_add(1, std::memory_order_relaxed);
  N.fetch_add(1, std::memory_order_relaxed);
  Total.fetch_add(Value, std::memory_order_relaxed);
  atomicMax(MaxV, Value);
  atomicMin(MinV, Value);
}

uint64_t Histogram::percentile(double P) const {
  uint64_t C = count();
  if (C == 0)
    return 0;
  if (P >= 100.0)
    return max();
  if (P < 0.0)
    P = 0.0;
  uint64_t Target =
      static_cast<uint64_t>(std::ceil(P / 100.0 * static_cast<double>(C)));
  if (Target == 0)
    Target = 1;
  uint64_t Cum = 0;
  for (unsigned Idx = 0; Idx < NumBuckets; ++Idx) {
    uint64_t B = Buckets[Idx].load(std::memory_order_relaxed);
    if (Cum + B >= Target) {
      uint64_t Low, Width;
      bucketRange(Idx, Low, Width);
      double Frac = static_cast<double>(Target - Cum) /
                    static_cast<double>(B);
      uint64_t V = Low + static_cast<uint64_t>(
                             static_cast<double>(Width) * Frac);
      // The exact extremes are tracked; never report outside them.
      if (V > max())
        V = max();
      if (V < min())
        V = min();
      return V;
    }
    Cum += B;
  }
  return max();
}

void Histogram::merge(const Histogram &Other) {
  for (unsigned I = 0; I < NumBuckets; ++I)
    if (uint64_t B = Other.Buckets[I].load(std::memory_order_relaxed))
      Buckets[I].fetch_add(B, std::memory_order_relaxed);
  N.fetch_add(Other.N.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
  Total.fetch_add(Other.Total.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
  atomicMax(MaxV, Other.MaxV.load(std::memory_order_relaxed));
  atomicMin(MinV, Other.MinV.load(std::memory_order_relaxed));
}
