//===-- serve/Shard.h - One VM image serving requests -----------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One shard = one independent VirtualMachine image plus the thread that
/// drives it. The shard thread constructs/boots the VM (it must own its
/// VM: a VirtualMachine is built, driven, and destroyed on its
/// constructing thread), then loops
///
///   RequestBatcher::takeBatch -> journal intents -> evaluate each
///   request -> deliver responses to the front-end sink
///
/// Batches run strictly in order while the next batch accumulates in the
/// batcher.
///
/// Recovery ladder (the serving layer's whole point of reusing the PR 5
/// snapshot machinery): a shard boots from its own last committed
/// checkpoint (`<dir>/shardNNN.image`, with rotated-generation fallback),
/// else from the pool's prewarmed base image, else from a cold bootstrap.
/// A *crash* — the `serve.shard.crash` chaos fail point or an admin
/// `!kill` — tears down the VM on the shard thread and walks the same
/// ladder again; requests already queued behind the crash are answered
/// ERR rather than silently dropped, the batcher survives, and every
/// other shard keeps serving. A real panic() still aborts the
/// process (shards share one address space by design — the paper's
/// shared-memory image, multiplied); the chaos kill models the crash the
/// way the snapshot fuzz lane models torn writes.
///
/// While waiting for a batch the shard thread sits in a safepoint
/// BlockedRegion, so its periodic Checkpointer can stop that VM's world
/// between batches.
///
/// Durability (opt-in via ShardConfig::JournalPath; see serve/Journal.h):
/// the shard write-ahead-logs every Eval and fsyncs once per batch before
/// executing it, then appends an outcome record per resolved request; the
/// crash ladder, after loading a checkpoint, replays journaled work past
/// the checkpoint's covered position before reporting Ready — so a
/// journaled shard's `!kill` loses nothing that was acknowledged.
/// Journaled shards disable the *periodic* Checkpointer thread and
/// instead checkpoint on the shard thread between batches, so the
/// recorded journal mark is exact; truncation below the oldest retained
/// generation's mark happens strictly after each checkpoint's rename
/// lands.
///
/// Deadlines: each shard runs a watchdog thread. The shard thread
/// publishes the in-flight request's deadline (under AbortMutex) around
/// every evaluation; when the watchdog sees it expire it arms the VM's
/// asynchronous abort, and the runaway unwinds with a catchable
/// RequestTimeout error at its next bytecode boundary. If the VM does not
/// honor the abort within AbortGraceMs (a wedged primitive — simulated by
/// the `serve.abort.stuck` fail point suppressing the abort), the
/// watchdog escalates: VirtualMachine::requestStop() makes the evaluation
/// return, the shard thread observes the stop flag and walks the same
/// crash/reboot ladder as `serve.shard.crash`. Requests whose deadline
/// already expired while queued are answered ERR without evaluating. The
/// `serve.request.stall` fail point rewrites an eval into a runaway
/// `[true] whileTrue.` for storm tests.
///
//===----------------------------------------------------------------------===//

#ifndef MST_SERVE_SHARD_H
#define MST_SERVE_SHARD_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "serve/Journal.h"
#include "serve/RequestBatcher.h"
#include "serve/ServeStats.h"
#include "vm/VirtualMachine.h"

namespace mst {

class Checkpointer;

namespace serve {

struct ShardConfig {
  unsigned Index = 0;
  /// Prewarmed base image to boot from; empty = cold bootstrap.
  std::string BaseImage;
  /// This shard's checkpoint target; empty disables checkpointing (the
  /// shard then restarts from BaseImage / bootstrap).
  std::string CheckpointPath;
  /// Rotated generations kept per checkpoint.
  unsigned KeepGenerations = 2;
  /// Periodic auto-checkpoint interval; 0 = only explicit checkpoints.
  uint64_t CheckpointEveryMs = 0;
  /// How long the deadline watchdog waits for the VM to honor an armed
  /// abort before escalating to a shard reboot.
  uint64_t AbortGraceMs = 250;
  /// Write-ahead request journal path; empty disables journaling (the
  /// default — a crash then rolls back to the last checkpoint). With a
  /// journal, the shard logs every Eval before its batch executes and the
  /// crash ladder replays past the checkpoint's covered position, so
  /// acknowledged requests survive.
  std::string JournalPath;
  /// Per-request deadline for replayed intents whose outcome record was
  /// lost — bounds how long a torn-tail runaway can wedge a reboot.
  uint64_t ReplayDeadlineMs = 5000;
  VmConfig Vm = VmConfig::multiprocessor(1);
};

class Shard {
public:
  /// Called with a completed batch (every request Done). Runs on the
  /// shard thread; must not block long.
  using ResponseSink = std::function<void(Batch &&)>;

  Shard(ShardConfig Config, ResponseSink Sink, ServeStats &Stats);

  /// stop() must have run (the Server guarantees it).
  ~Shard();

  Shard(const Shard &) = delete;
  Shard &operator=(const Shard &) = delete;

  /// Spawns the shard and watchdog threads; the shard thread boots the VM.
  void start();

  /// Blocks until the first boot finished (or failed terminally).
  /// \returns true when the shard is serving.
  bool waitReady(double TimeoutSec);

  /// Enqueues \p R for this shard. \returns false once stopping (the
  /// caller answers the session with an error).
  bool submit(QueuedRequest R);

  /// Graceful stop: closes the batcher; the shard thread completes every
  /// queued request, takes a final checkpoint, and destroys its VM. Joins
  /// both threads.
  void stop();

  /// Point-in-time health, readable from any thread.
  struct Health {
    unsigned Index = 0;
    std::string State;       ///< "booting" | "serving" | "restarting" | "stopped"
    uint64_t Generation = 0; ///< boots completed (1 = first boot)
    uint64_t Restarts = 0;   ///< crash/restart cycles
    uint64_t Requests = 0;   ///< requests this shard completed
    uint64_t Batches = 0;    ///< batches this shard completed
    uint64_t Checkpoints = 0;
    size_t QueueDepth = 0;   ///< requests waiting in the batcher
    uint64_t OldestQueuedMs = 0; ///< age of the oldest queued request
    uint64_t DeadlineExpired = 0; ///< deadlines that expired here
    uint64_t Aborts = 0;          ///< in-VM aborts the watchdog armed
    uint64_t AbortsEscalated = 0; ///< aborts escalated to a reboot
    uint64_t JournalBytes = 0;    ///< journal file size (0 = no journal)
    uint64_t Replayed = 0;        ///< intents re-applied across reboots
    uint64_t DedupSize = 0;       ///< cached (client, seq) responses
    uint64_t DedupHits = 0;       ///< retries answered from the cache
    std::string LastError;   ///< last boot/checkpoint failure, or empty
  };
  Health health();

  /// Requests waiting in the batcher (racy; telemetry/health use only).
  size_t queueDepth() { return Batcher.depth(); }

  unsigned index() const { return Config.Index; }

private:
  void shardMain();
  void watchdogMain();
  void bootVm();
  void restartVm(const char *Why);
  void teardownVm();
  void processBatch(Batch &B);
  /// Runs one Eval request against the VM, with deadline/abort plumbing.
  /// \returns false when the watchdog escalated and the caller must
  /// reboot the VM.
  bool evalRequest(QueuedRequest &Q);
  void failFrom(Batch &B, size_t First);
  void setState(const char *S);
  void noteError(const std::string &E);

  // --- write-ahead journal plumbing (no-ops when JournalPath is empty) ---
  bool journaled() const { return Jrnl != nullptr; }
  /// Before a batch executes: answer dedup hits, refuse in-flight
  /// duplicates, append + fsync intent records for everything else.
  void prepareBatchJournal(Batch &B);
  /// After a batch executes: clear in-flight marks and cache completed
  /// (client, seq) responses.
  void finishBatchJournal(Batch &B);
  /// Record how \p Q resolved (also remembered in Q.JournalOutcome for
  /// finishBatchJournal's dedup insert).
  void appendOutcomeFor(QueuedRequest &Q, Journal::Outcome Out);
  /// Fsync pending refusal outcomes (SkippedCrash / SkippedExpired /
  /// TimedOut). A refusal tells the client "this did not (fully)
  /// execute", so it must be durable before the response escapes —
  /// otherwise a torn tail would make replay re-execute a request the
  /// client was told to retry. Executed outcomes stay unsynced on
  /// purpose: losing one only degrades replay to a deterministic re-run.
  void syncRefusals();
  /// After image load: re-apply journaled intents at or past \p Mark per
  /// their outcome records.
  void replayJournal(uint64_t Mark);
  /// After a successful checkpoint rename: compact the journal below the
  /// oldest retained generation's mark.
  void commitJournalTruncate();
  /// Between batches: periodic checkpoint for journaled shards (their
  /// Checkpointer thread is disabled so the mark is always read at a
  /// batch boundary).
  void maybeAutoCheckpoint();

  ShardConfig Config;
  ResponseSink Sink;
  ServeStats &Stats;

  RequestBatcher Batcher;
  std::thread ShardThread;
  std::thread WatchdogThread;

  /// The abort protocol between the shard thread and its watchdog. The
  /// shard thread publishes the in-flight eval's deadline before running
  /// it and clears it (plus any unconsumed VM abort) after; the watchdog
  /// wakes on a coarse tick, arms the VM abort at expiry, and escalates
  /// after the grace period. Everything below AbortMutex is guarded by
  /// it; the VM pointer is only dereferenced by the watchdog while an
  /// in-flight deadline is published, which the shard thread only does
  /// while the VM is alive and evaluating.
  std::mutex AbortMutex;
  std::condition_variable WatchdogCv;
  uint64_t InFlightDeadlineNs = 0; ///< 0 = nothing abortable in flight
  uint64_t InFlightToken = 0;      ///< increments per published eval
  uint64_t ArmedToken = 0;         ///< token the watchdog armed/escalated
  bool AbortArmed = false;
  bool EscalateFired = false;
  bool StuckSim = false; ///< serve.abort.stuck drill: don't deliver
  uint64_t EscalateAtNs = 0;
  bool WatchdogStop = false; ///< set by stop() after the shard joined

  // Shard-thread-owned; other threads only observe the atomics below.
  std::unique_ptr<VirtualMachine> VM;
  std::unique_ptr<Checkpointer> Ck;

  /// Write-ahead journal (null when disabled). Opened in start() before
  /// the shard thread runs; after that only the shard thread writes it,
  /// and health() only reads counters through the journal's own mutex.
  std::unique_ptr<Journal> Jrnl;
  DedupTable Dedup;
  /// Journal mark the in-progress checkpoint covers; shard thread only
  /// (set right before every checkpointNow, read by its JournalMark
  /// callback on the same thread).
  uint64_t PendingMark = 0;
  /// A non-Executed outcome was appended since the last sync; shard
  /// thread only.
  bool RefusalPending = false;
  /// Marks of the last KeepGenerations+1 committed checkpoints, oldest
  /// first: truncation must stay below what the oldest *retained* rotated
  /// image still needs. Seeded with 0 so nothing is dropped until the
  /// rotation window has cycled once. Shard thread only.
  std::deque<uint64_t> PrevMarks;
  uint64_t NextAutoCkNs = 0; ///< shard thread only

  std::mutex ReadyMutex;
  std::condition_variable ReadyCv;
  bool BootDone = false; // guarded by ReadyMutex

  std::atomic<bool> Stopping{false};
  std::atomic<uint64_t> Generation{0};
  std::atomic<uint64_t> RestartCount{0};
  std::atomic<uint64_t> RequestCount{0};
  std::atomic<uint64_t> BatchCount{0};
  std::atomic<uint64_t> CheckpointCount{0};
  std::atomic<uint64_t> DeadlineExpiredCount{0};
  std::atomic<uint64_t> AbortCount{0};
  std::atomic<uint64_t> EscalatedCount{0};
  std::atomic<uint64_t> ReplayedCount{0};
  std::atomic<uint64_t> DedupHitCount{0};
  /// Checkpoints taken by Checkpointers of earlier generations (each
  /// restart builds a fresh one). Shard thread only.
  uint64_t CkTakenBase = 0;

  std::mutex StateMutex;
  std::string State = "booting";   // guarded by StateMutex
  std::string LastError;           // guarded by StateMutex
};

} // namespace serve
} // namespace mst

#endif // MST_SERVE_SHARD_H
