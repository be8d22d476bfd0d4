//===-- obs/Profiler.h - Signal-free sampling profiler ----------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A low-overhead sampling profiler for the replicated interpreter. Each
/// vproc's interpreter thread publishes a tiny *profile slot* — the
/// current CompiledMethod oop, the receiver's class, the bytecode pc, and
/// a state tag (running / lookup-miss / lock-wait / safepoint / scavenge /
/// fullgc / ipc-blocked / idle) — through relaxed atomic stores on
/// send/return and state transitions. A dedicated sampler thread wakes at
/// a configurable hz, walks the registered slots, and accumulates
/// (method, receiver class, state) tuples into per-vproc hash tables.
///
/// Design constraints, in order:
///  - **Mutators never take a lock or a signal.** Publication is plain
///    relaxed stores into the thread's own slot; the sampler reads them
///    with relaxed loads. No handshake, no SIGPROF, no unwinding.
///  - **Torn samples are tolerated, not prevented.** The (method, class,
///    pc, state) tuple is not updated atomically as a unit, so the
///    sampler can observe a method from send N and a class from send N+1.
///    Each field is individually valid (it was published by *some* recent
///    send), so the worst case is one sample attributed to a neighbouring
///    call — noise well below sampling error at any sane hz. This is why
///    the slot needs no seqlock: readers never crash (oop bits are only
///    *resolved* later, against a live heap, with full validation) and
///    mis-pairing decays as 1/samples.
///  - **Disabled means free.** When the profiler is off the interpreter
///    pays exactly one relaxed store per send (the method publication);
///    everything richer is gated behind one relaxed load of the enabled
///    flag. No allocation ever happens on a mutator path.
///
/// The sampler accumulates *raw oop bits*; it never dereferences the heap.
/// Resolution to "Class>>selector" strings happens at report time in the
/// VM layer (see VirtualMachine::buildProfileReport), which validates that
/// the bits still name a live old-space CompiledMethod before touching it
/// (a young doIt's bits are only named "(doIt)").
///
//===----------------------------------------------------------------------===//

#ifndef MST_OBS_PROFILER_H
#define MST_OBS_PROFILER_H

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace mst {

/// What a vproc is doing at the instant of a sample. Running is the
/// default between explicit transition scopes; everything else is entered
/// through a ProfStateScope on the (cold) transition paths.
enum class ProfState : uint8_t {
  Idle = 0,   ///< no runnable Smalltalk Process (Scheduler::waitForWork)
  Running,    ///< executing bytecodes
  LookupMiss, ///< full method lookup after a cache miss
  LockWait,   ///< spinning on a contended SpinLock
  Safepoint,  ///< parked at a stop-the-world rendezvous
  Scavenge,   ///< coordinating a scavenge
  FullGc,     ///< coordinating a full mark-sweep collection
  IpcBlocked, ///< blocked in a synchronous IPC send/receive
};

inline constexpr unsigned NumProfStates = 8;

/// \returns the lowercase report name of \p S ("lock-wait", ...).
const char *profStateName(ProfState S);

/// One thread's publication slot plus its sampler-side accumulation.
/// Mutator-owned fields are written with relaxed stores only; the
/// Stats side is touched only under the profiler registry mutex (sampler
/// tick, data snapshot, reset).
struct ProfileSlot {
  /// A (method, class) or (method, selector) event for the single-
  /// producer rings below. The two words are individually-relaxed
  /// atomics so a sampler racing a lapping producer reads torn pairs,
  /// never UB — same tolerance argument as the sample tuple.
  struct PairEvent {
    std::atomic<uintptr_t> A{0};
    std::atomic<uintptr_t> B{0};
  };
  static constexpr uint32_t EventRingCap = 256; // power of two

  // --- published by the owning mutator (relaxed stores) -----------------
  std::atomic<uintptr_t> Method{0};    ///< current CompiledMethod oop bits
  std::atomic<uintptr_t> RecvClass{0}; ///< receiver class oop bits
  std::atomic<uint32_t> Pc{0};         ///< bytecode ip at last publication
  std::atomic<uint8_t> State{0};       ///< ProfState
  std::atomic<bool> Active{false};     ///< sampled only while true

  /// Allocation-site events: (instantiating method, instantiated class),
  /// written every Nth allocation. Overwrite ring — the producer never
  /// blocks; the sampler drains and counts what it lost.
  PairEvent AllocRing[EventRingCap];
  std::atomic<uint64_t> AllocWrite{0};

  /// Method-cache-miss events: (missing method = call site, selector).
  PairEvent MissRing[EventRingCap];
  std::atomic<uint64_t> MissWrite{0};

  /// Owner-only countdown to the next allocation sample.
  uint32_t AllocCountdown = 1;

  // --- sampler-side accumulation (registry mutex) -----------------------
  struct TupleKey {
    uintptr_t Method;
    uintptr_t RecvClass;
    uint8_t State;
    bool operator==(const TupleKey &O) const {
      return Method == O.Method && RecvClass == O.RecvClass &&
             State == O.State;
    }
  };
  struct TupleHash {
    size_t operator()(const TupleKey &K) const {
      uintptr_t H = K.Method * 0x9E3779B97F4A7C15ull;
      H ^= K.RecvClass + 0x9E3779B97F4A7C15ull + (H << 6) + (H >> 2);
      return static_cast<size_t>(H ^ K.State);
    }
  };
  struct PairKey {
    uintptr_t A;
    uintptr_t B;
    bool operator==(const PairKey &O) const { return A == O.A && B == O.B; }
  };
  struct PairHash {
    size_t operator()(const PairKey &K) const {
      uintptr_t H = K.A * 0x9E3779B97F4A7C15ull;
      return static_cast<size_t>(H ^ (K.B + (H << 6) + (H >> 2)));
    }
  };

  std::unordered_map<TupleKey, uint64_t, TupleHash> Samples;
  std::unordered_map<PairKey, uint64_t, PairHash> AllocSites;
  std::unordered_map<PairKey, uint64_t, PairHash> MissSites;
  uint64_t AllocRead = 0; ///< drain cursor
  uint64_t MissRead = 0;
  uint64_t AllocDropped = 0; ///< ring overruns (producer lapped the drain)
  uint64_t MissDropped = 0;

  std::string Name; ///< registry mutex
  int Vproc = -1;   ///< registry mutex; -1 = host/service thread
};

namespace profdetail {
/// The calling thread's slot, or nullptr before registration. Exposed so
/// the per-send publication inlines to a TLS load + relaxed store.
extern thread_local ProfileSlot *SlotTL;
} // namespace profdetail

struct ProfilerOptions {
  /// Sampling rate. A prime default avoids phase-locking with the
  /// millisecond timeslice clock and other round-number periodic work.
  uint32_t SampleHz = 997;
  /// Record one allocation-site event every N allocations.
  uint32_t AllocSamplePeriod = 64;
  /// Called once per sampler tick before the slot walk. The fault-
  /// injection harness hangs a chaos point here (the obs layer itself
  /// stays below the chaos engine); tests may use it as a tick hook.
  void (*TickHook)() = nullptr;
};

/// Static facade over the process-wide profiler: slot registry, sampler
/// thread lifecycle, and raw-data snapshots. Slots are leaked like trace
/// rings — created on first registration, reused when the same thread
/// drives a second VM, kept after thread exit so reports can still read
/// their accumulated tables.
class Profiler {
public:
  /// One relaxed load; the gate for every optional mutator-side cost.
  static bool enabled() {
    return Enabled.load(std::memory_order_relaxed);
  }

  /// Starts the sampler thread. \returns false if already running.
  static bool start(const ProfilerOptions &O = {});

  /// Stops and joins the sampler thread. Accumulated data survives until
  /// reset(). Safe to call when not running.
  static void stop();

  /// Clears all accumulated samples/sites and the tick count.
  static void reset();

  /// \returns sampler ticks since start/reset (each tick samples every
  /// active slot once).
  static uint64_t ticks();

  static uint32_t allocSamplePeriod() {
    return AllocPeriod.load(std::memory_order_relaxed);
  }

  /// Registers (or re-activates) the calling thread's slot. \p Vproc is
  /// the virtual-processor / interpreter id, or -1 for service threads.
  static ProfileSlot *registerThread(std::string Name, int Vproc);

  /// Marks the calling thread's slot inactive: the sampler stops reading
  /// it, its accumulated tables remain until reset().
  static void retireThread();

  static ProfileSlot *slot() { return profdetail::SlotTL; }

  /// A deep copy of one slot's accumulation plus its identity.
  struct VprocData {
    std::string Name;
    int Vproc = -1;
    std::unordered_map<ProfileSlot::TupleKey, uint64_t,
                       ProfileSlot::TupleHash>
        Samples;
    std::unordered_map<ProfileSlot::PairKey, uint64_t,
                       ProfileSlot::PairHash>
        AllocSites;
    std::unordered_map<ProfileSlot::PairKey, uint64_t,
                       ProfileSlot::PairHash>
        MissSites;
    uint64_t AllocDropped = 0;
    uint64_t MissDropped = 0;
  };

  struct Data {
    std::vector<VprocData> Vprocs;
    uint64_t Ticks = 0;
    uint32_t SampleHz = 0;
    uint32_t AllocSamplePeriod = 0;
  };

  /// Snapshot of everything accumulated so far (running or stopped).
  static Data data();

private:
  friend void profNoteAllocation(uintptr_t);
  friend void profNoteCacheMiss(uintptr_t, uintptr_t);

  static std::atomic<bool> Enabled;
  static std::atomic<uint32_t> AllocPeriod;
};

/// RAII state-tag transition for the cold paths (lock acquisition, GC,
/// safepoint parks, idle waits, IPC). Two relaxed stores into the calling
/// thread's own slot; a no-op on unregistered threads. Unconditional —
/// not gated on enabled() — so state tags are correct the instant the
/// sampler starts mid-run.
class ProfStateScope {
public:
  explicit ProfStateScope(ProfState St) : S(profdetail::SlotTL) {
    if (S) {
      Prev = S->State.load(std::memory_order_relaxed);
      S->State.store(static_cast<uint8_t>(St), std::memory_order_relaxed);
    }
  }
  ~ProfStateScope() {
    if (S)
      S->State.store(Prev, std::memory_order_relaxed);
  }
  ProfStateScope(const ProfStateScope &) = delete;
  ProfStateScope &operator=(const ProfStateScope &) = delete;

private:
  ProfileSlot *S;
  uint8_t Prev = 0;
};

/// The per-send publication: exactly one relaxed store when the profiler
/// is disabled. Callers publish the richer tuple (class, pc, state)
/// themselves behind Profiler::enabled() — see Interpreter::reloadFrame.
inline void profNoteMethod(uintptr_t MethodBits) {
  if (ProfileSlot *S = profdetail::SlotTL)
    S->Method.store(MethodBits, std::memory_order_relaxed);
}

/// Allocation-site sampling hook: records (current method, \p ClsBits)
/// every allocSamplePeriod() calls. Caller gates on Profiler::enabled().
inline void profNoteAllocation(uintptr_t ClsBits) {
  ProfileSlot *S = profdetail::SlotTL;
  if (!S)
    return;
  if (--S->AllocCountdown != 0)
    return;
  S->AllocCountdown = Profiler::allocSamplePeriod();
  uint64_t W = S->AllocWrite.load(std::memory_order_relaxed);
  ProfileSlot::PairEvent &E =
      S->AllocRing[W & (ProfileSlot::EventRingCap - 1)];
  E.A.store(S->Method.load(std::memory_order_relaxed),
            std::memory_order_relaxed);
  E.B.store(ClsBits, std::memory_order_relaxed);
  S->AllocWrite.store(W + 1, std::memory_order_release);
}

/// Method-cache-miss hook: records (call-site method, selector). The miss
/// path already pays a full lookup, so every miss is recorded, not
/// sampled. Caller gates on Profiler::enabled().
inline void profNoteCacheMiss(uintptr_t MethodBits, uintptr_t SelectorBits) {
  ProfileSlot *S = profdetail::SlotTL;
  if (!S)
    return;
  uint64_t W = S->MissWrite.load(std::memory_order_relaxed);
  ProfileSlot::PairEvent &E =
      S->MissRing[W & (ProfileSlot::EventRingCap - 1)];
  E.A.store(MethodBits, std::memory_order_relaxed);
  E.B.store(SelectorBits, std::memory_order_relaxed);
  S->MissWrite.store(W + 1, std::memory_order_release);
}

} // namespace mst

#endif // MST_OBS_PROFILER_H
