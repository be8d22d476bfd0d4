//===-- vkernel/Chaos.h - Seeded schedule-chaos engine ----------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic fault/schedule injection for the concurrency kernel. The
/// host scheduler only ever shows us the "lucky" interleavings, so races
/// in the SpinLock/Safepoint/Scheduler protocols can hide indefinitely.
/// Every concurrency-critical boundary calls a named `chaos::point("...")`;
/// when the engine is enabled it probabilistically yields the processor,
/// sleeps a few microseconds, or forces a kernel Delay there, widening
/// race windows by orders of magnitude.
///
/// Properties the stress suite depends on:
///  - **Disabled is free**: `point()` compiles to one relaxed load and a
///    predicted branch. No registration, no allocation, nothing.
///  - **Reproducible**: all randomness flows from one SplitMix64 seed.
///    Each thread draws from its own stream, derived from the seed and
///    the thread's *ordinal* — so a thread's decision sequence depends
///    only on (seed, ordinal), never on cross-thread timing. Rerunning
///    with the same seed replays the identical perturbation sequence.
///  - **No hidden synchronization**: the hot path and the per-point
///    statistics use only relaxed atomics. A mutex here would create
///    happens-before edges that *mask* exactly the races this engine
///    exists to expose (TSan would never see them).
///
/// Seeds come from `--chaos-seed=N` on the repl / bench binaries or the
/// `MST_CHAOS_SEED` environment variable (see enableFromEnv()); a failing
/// stress test prints the seed that provoked it.
///
//===----------------------------------------------------------------------===//

#ifndef MST_VKERNEL_CHAOS_H
#define MST_VKERNEL_CHAOS_H

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace mst {
namespace chaos {

/// What a chaos point did. None is the only possible answer while the
/// engine is disabled.
enum class Action : uint8_t {
  None,  ///< no perturbation
  Yield, ///< gave up the processor (std::this_thread::yield)
  Sleep, ///< slept 1..MaxSleepMicros microseconds
  Delay, ///< invoked the kernel Delay with a minimal timeout (vkDelay(0))
};

/// Engine configuration. The three per-mille fields are per-point
/// probabilities and must sum to at most 1000; the remainder is "do
/// nothing". Defaults perturb ~15% of points — enough to scramble
/// interleavings without grinding workloads to a halt.
struct Config {
  uint64_t Seed = 1;
  uint32_t YieldPermille = 100;
  uint32_t SleepPermille = 40;
  uint32_t DelayPermille = 10;
  /// Inclusive upper bound on Sleep durations, in microseconds.
  uint32_t MaxSleepMicros = 50;
};

namespace detail {
/// The master switch. Read relaxed on every point() — the entire cost of
/// the engine when disabled.
extern std::atomic<bool> On;

/// Slow path, only reached while enabled.
Action perturb(const char *Point);

/// Number of armed fail points. Read relaxed on every failPoint().
extern std::atomic<uint32_t> FailArmed;

/// Slow path, only reached while at least one fail point is armed.
bool failSlow(const char *Point);
} // namespace detail

/// The injection point. Call at every concurrency-critical boundary with
/// a string-literal name ("spinlock.acquire", "safepoint.poll", ...).
/// \returns the action taken (None when disabled).
inline Action point(const char *Point) {
  if (!detail::On.load(std::memory_order_relaxed))
    return Action::None;
  return detail::perturb(Point);
}

/// Enables the engine with \p C. Reseeds every thread's stream (threads
/// re-derive their state from the new seed at their next point).
/// Resets the per-point statistics.
void enable(const Config &C);

/// Enables with default probabilities and the given seed.
void enableSeed(uint64_t Seed);

/// Disables the engine. point() returns to its one-load fast path.
void disable();

/// \returns true when the engine is currently perturbing.
bool enabled();

/// \returns the active (or most recently active) configuration.
Config config();

/// Reads MST_CHAOS_SEED (and the optional MST_CHAOS_YIELD_PM /
/// MST_CHAOS_SLEEP_PM / MST_CHAOS_DELAY_PM / MST_CHAOS_MAX_SLEEP_US
/// overrides) and enables the engine when a seed is present.
/// \returns true when chaos was enabled from the environment.
bool enableFromEnv();

/// --- Fault injection ----------------------------------------------------
/// Named *fail points* are the second half of the engine: where point()
/// perturbs schedules, failPoint() injects operation failures (a refused
/// allocation, a refused old-space growth, a mutator deliberately late to
/// a rendezvous) so recovery paths run deterministically by seed. The two
/// switches are independent: fail points stay armed across enable() /
/// disable() epochs, and draw from their own per-point SplitMix64 streams
/// keyed by (arm seed, hit ordinal) so a sweep replays exactly.

/// The injection check. Call where an operation may be forced to fail,
/// with a string-literal name ("alloc.fail", "oldspace.grow.fail", ...).
/// One relaxed load when nothing is armed.
/// \returns true when the caller must fail the operation.
inline bool failPoint(const char *Point) {
  if (detail::FailArmed.load(std::memory_order_relaxed) == 0)
    return false;
  return detail::failSlow(Point);
}

/// Arms fail point \p Point: each subsequent failPoint(Point) fails with
/// probability \p Permille / 1000, decided by a SplitMix64 stream derived
/// from \p Seed — same seed, same decision sequence. Permille 1000 fails
/// every hit; 0 disarms just this point. Re-arming resets the point's
/// stream and failure count. At most 16 distinct points may be armed.
void armFail(const char *Point, uint32_t Permille, uint64_t Seed);

/// Disarms every fail point. failPoint() returns to its one-load path;
/// failure counts remain readable until the next armFail().
void disarmFail();

/// \returns how many failures \p Point has injected since it was armed.
uint64_t failCount(const char *Point);

/// Reads MST_CHAOS_ALLOC_FAIL_PM / MST_CHAOS_GROW_FAIL_PM /
/// MST_CHAOS_STALL_PM / MST_CHAOS_IO_WRITE_FAIL_PM /
/// MST_CHAOS_IO_FSYNC_FAIL_PM / MST_CHAOS_SNAPSHOT_TRUNCATE_PM /
/// MST_CHAOS_SHARD_CRASH_PM / MST_CHAOS_REQUEST_STALL_PM /
/// MST_CHAOS_JOURNAL_APPEND_FAIL_PM / MST_CHAOS_JOURNAL_FSYNC_FAIL_PM /
/// MST_CHAOS_JOURNAL_TEAR_PM / MST_CHAOS_JOURNAL_TRUNCATE_FAIL_PM and
/// arms the corresponding fail points ("alloc.fail",
/// "oldspace.grow.fail", "watchdog.stall", "io.write.fail",
/// "io.fsync.fail", "snapshot.truncate", "serve.shard.crash",
/// "serve.request.stall", "journal.append.fail", "journal.fsync.fail",
/// "journal.tear", "journal.truncate.fail") with \p Seed. The CI
/// small-heap, snapfuzz, serve, and journal-fuzz lanes use this to push
/// fault injection into every stress binary without per-test plumbing.
/// \returns true when at least one point was armed.
bool armFailFromEnv(uint64_t Seed);

/// Fixes the calling thread's stream ordinal. Threads that never call
/// this get a process-unique ordinal at first use (deterministic only if
/// thread creation order is); tests that assert exact replay pin
/// ordinals explicitly.
void setThreadOrdinal(uint64_t Ordinal);

/// \returns the total number of perturbations (non-None actions) taken
/// since the last enable().
uint64_t perturbationCount();

/// \returns every point name seen since the last enable(), with the
/// number of times the point was *hit* (whatever the action), sorted by
/// name. Test support: asserts that the injection points a workload
/// should cross were actually exercised.
std::vector<std::pair<std::string, uint64_t>> pointCounts();

/// \returns just the names from pointCounts().
std::vector<std::string> pointCatalog();

} // namespace chaos
} // namespace mst

#endif // MST_VKERNEL_CHAOS_H
