//===-- obs/Profiler.cpp - Signal-free sampling profiler ------------------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/Profiler.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>

using namespace mst;

constinit thread_local ProfileSlot *mst::profdetail::SlotTL = nullptr;

std::atomic<bool> Profiler::Enabled{false};
std::atomic<uint32_t> Profiler::AllocPeriod{64};

namespace {

/// Intentionally leaked, like the trace-ring registry: slots are created
/// lazily, survive their owning thread, and stay valid for report code
/// that runs after the workers have exited.
struct ProfRegistry {
  std::mutex M;
  std::vector<std::unique_ptr<ProfileSlot>> Slots;

  // Sampler lifecycle, guarded by M except the atomics.
  std::thread Sampler;
  bool Running = false;
  std::atomic<bool> StopRequested{false};
  std::atomic<uint64_t> Ticks{0};
  uint32_t SampleHz = 0;
  void (*TickHook)() = nullptr;
};

ProfRegistry &preg() {
  static ProfRegistry *R = new ProfRegistry;
  return *R;
}

/// Drains [Read, Write) of an overwrite ring into \p Into, counting what
/// the producer overwrote before we got to it. Registry mutex held.
void drainRing(ProfileSlot::PairEvent (&Ring)[ProfileSlot::EventRingCap],
               std::atomic<uint64_t> &Write, uint64_t &Read,
               std::unordered_map<ProfileSlot::PairKey, uint64_t,
                                  ProfileSlot::PairHash> &Into,
               uint64_t &Dropped) {
  uint64_t W = Write.load(std::memory_order_acquire);
  if (W - Read > ProfileSlot::EventRingCap) {
    Dropped += (W - Read) - ProfileSlot::EventRingCap;
    Read = W - ProfileSlot::EventRingCap;
  }
  for (; Read < W; ++Read) {
    const ProfileSlot::PairEvent &E =
        Ring[Read & (ProfileSlot::EventRingCap - 1)];
    ProfileSlot::PairKey K{E.A.load(std::memory_order_relaxed),
                           E.B.load(std::memory_order_relaxed)};
    ++Into[K];
  }
}

void sampleOnce(ProfRegistry &R) {
  std::lock_guard<std::mutex> G(R.M);
  for (auto &SlotPtr : R.Slots) {
    ProfileSlot &S = *SlotPtr;
    if (!S.Active.load(std::memory_order_relaxed))
      continue;
    ProfileSlot::TupleKey K{S.Method.load(std::memory_order_relaxed),
                            S.RecvClass.load(std::memory_order_relaxed),
                            S.State.load(std::memory_order_relaxed)};
    ++S.Samples[K];
    drainRing(S.AllocRing, S.AllocWrite, S.AllocRead, S.AllocSites,
              S.AllocDropped);
    drainRing(S.MissRing, S.MissWrite, S.MissRead, S.MissSites,
              S.MissDropped);
  }
  R.Ticks.fetch_add(1, std::memory_order_relaxed);
}

void samplerMain(uint32_t Hz, void (*TickHook)()) {
  ProfRegistry &R = preg();
  const auto Period =
      std::chrono::nanoseconds(uint64_t(1000000000ull / std::max(1u, Hz)));
  auto Next = std::chrono::steady_clock::now();
  while (!R.StopRequested.load(std::memory_order_acquire)) {
    Next += Period;
    auto Now = std::chrono::steady_clock::now();
    if (Next > Now)
      std::this_thread::sleep_until(Next);
    else // Fell behind (debugger, overload): resync instead of bursting.
      Next = Now;
    if (R.StopRequested.load(std::memory_order_acquire))
      break;
    if (TickHook)
      TickHook();
    sampleOnce(R);
  }
}

} // namespace

bool Profiler::start(const ProfilerOptions &O) {
  ProfRegistry &R = preg();
  std::lock_guard<std::mutex> G(R.M);
  if (R.Running)
    return false;
  R.SampleHz = O.SampleHz ? O.SampleHz : ProfilerOptions().SampleHz;
  AllocPeriod.store(std::max(1u, O.AllocSamplePeriod),
                    std::memory_order_relaxed);
  R.TickHook = O.TickHook;
  R.StopRequested.store(false, std::memory_order_release);
  Enabled.store(true, std::memory_order_relaxed);
  R.Sampler = std::thread(samplerMain, R.SampleHz, R.TickHook);
  R.Running = true;
  return true;
}

void Profiler::stop() {
  ProfRegistry &R = preg();
  std::thread ToJoin;
  {
    std::lock_guard<std::mutex> G(R.M);
    if (!R.Running)
      return;
    Enabled.store(false, std::memory_order_relaxed);
    R.StopRequested.store(true, std::memory_order_release);
    ToJoin = std::move(R.Sampler);
    R.Running = false;
  }
  // Join outside the mutex: the sampler's final tick needs it.
  ToJoin.join();
}

void Profiler::reset() {
  ProfRegistry &R = preg();
  std::lock_guard<std::mutex> G(R.M);
  for (auto &SlotPtr : R.Slots) {
    ProfileSlot &S = *SlotPtr;
    S.Samples.clear();
    S.AllocSites.clear();
    S.MissSites.clear();
    S.AllocDropped = S.MissDropped = 0;
    // Skip, rather than count, anything already in the rings.
    S.AllocRead = S.AllocWrite.load(std::memory_order_acquire);
    S.MissRead = S.MissWrite.load(std::memory_order_acquire);
  }
  R.Ticks.store(0, std::memory_order_relaxed);
}

uint64_t Profiler::ticks() {
  return preg().Ticks.load(std::memory_order_relaxed);
}

ProfileSlot *Profiler::registerThread(std::string Name, int Vproc) {
  ProfRegistry &R = preg();
  ProfileSlot *S = profdetail::SlotTL;
  std::lock_guard<std::mutex> G(R.M);
  if (!S) {
    auto Owned = std::make_unique<ProfileSlot>();
    S = Owned.get();
    R.Slots.push_back(std::move(Owned));
    profdetail::SlotTL = S;
  }
  S->Name = std::move(Name);
  S->Vproc = Vproc;
  S->Method.store(0, std::memory_order_relaxed);
  S->RecvClass.store(0, std::memory_order_relaxed);
  S->Pc.store(0, std::memory_order_relaxed);
  S->State.store(static_cast<uint8_t>(ProfState::Idle),
                 std::memory_order_relaxed);
  S->AllocCountdown = 1;
  S->Active.store(true, std::memory_order_relaxed);
  return S;
}

void Profiler::retireThread() {
  if (ProfileSlot *S = profdetail::SlotTL)
    S->Active.store(false, std::memory_order_relaxed);
}

Profiler::Data Profiler::data() {
  ProfRegistry &R = preg();
  Data D;
  std::lock_guard<std::mutex> G(R.M);
  D.Ticks = R.Ticks.load(std::memory_order_relaxed);
  D.SampleHz = R.SampleHz;
  D.AllocSamplePeriod = AllocPeriod.load(std::memory_order_relaxed);
  for (auto &SlotPtr : R.Slots) {
    ProfileSlot &S = *SlotPtr;
    if (S.Samples.empty() && S.AllocSites.empty() && S.MissSites.empty())
      continue;
    VprocData V;
    V.Name = S.Name;
    V.Vproc = S.Vproc;
    V.Samples = S.Samples;
    V.AllocSites = S.AllocSites;
    V.MissSites = S.MissSites;
    V.AllocDropped = S.AllocDropped;
    V.MissDropped = S.MissDropped;
    D.Vprocs.push_back(std::move(V));
  }
  return D;
}
