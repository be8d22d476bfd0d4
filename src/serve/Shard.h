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
/// checkpoint (`<dir>/shardNNN.image`, with rotated-generation fallback,
/// also when a kill between a save's rotation and its rename left only
/// `shardNNN.image.1`), else from the pool's prewarmed base image, else
/// from a cold bootstrap.
/// A *crash* — the `serve.shard.crash` chaos fail point or an admin
/// `!kill` — tears down the VM on the shard thread and walks the same
/// ladder again; requests already queued behind the crash are answered
/// ERR rather than silently dropped, the batcher survives, and every
/// other shard keeps serving. A real panic() still aborts the
/// process (shards share one address space by design — the paper's
/// shared-memory image, multiplied); the chaos kill models the crash the
/// way the snapshot fuzz lane models torn writes.
///
/// Checkpoints: a `!checkpoint`, the periodic one (CheckpointEveryMs) and
/// the final one at stop all run on the shard thread through
/// checkpoint(), between requests, so an image never holds half of one.
/// A `!checkpoint` ends the batch it lands in. The periodic one is
/// skipped while the VM has run nothing since the last checkpoint; when
/// one is pending, the batcher wakes an idle shard at its due time.
///
/// Durability (opt-in via ShardConfig::JournalPath; see serve/Journal.h):
/// the shard write-ahead-logs every Eval and fsyncs once per batch before
/// executing it, then appends an outcome record per resolved request; the
/// crash ladder, after loading a checkpoint, replays journaled work past
/// the checkpoint's covered position before reporting Ready — so a
/// journaled shard's `!kill` loses nothing that was acknowledged.
/// Checkpoints run between batches, so the recorded journal mark is
/// exact. The journal is synced before the mark is read, so no crash can
/// leave it ending below a committed mark; truncation below the oldest
/// retained generation's mark happens strictly after each checkpoint's
/// rename lands.
///
/// Deadlines: the shard thread runs every evaluation through
/// VirtualMachine::evalWithDeadline, so the interpreter itself checks the
/// request's deadline as it runs (every 512 bytecodes and after each
/// primitive) and unwinds a runaway with a catchable RequestTimeout
/// error; no second thread watches the shard. Requests whose deadline already expired while
/// queued are answered ERR without evaluating. The `serve.request.stall`
/// fail point rewrites an eval into a runaway `[true] whileTrue.` for
/// storm tests.
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

class EmergencySnapshot;

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
  /// Write-ahead request journal path; empty disables journaling (the
  /// default — a crash then rolls back to the last checkpoint). With a
  /// journal, the shard logs every Eval before its batch executes and the
  /// crash ladder replays past the checkpoint's covered position, so
  /// acknowledged requests survive.
  std::string JournalPath;
  /// Per-request deadline for replayed intents whose outcome record was
  /// lost — bounds how long a torn-tail runaway can wedge a reboot.
  uint64_t ReplayDeadlineMs = 5000;
};

class Shard {
public:
  /// Called with a completed batch (every request Done). Runs on the
  /// shard thread; must not block long.
  using ResponseSink = std::function<void(Batch &&)>;

  Shard(ShardConfig Config, ResponseSink Sink);

  /// stop() must have run (the Server guarantees it).
  ~Shard();

  Shard(const Shard &) = delete;
  Shard &operator=(const Shard &) = delete;

  /// Spawns the shard thread, which boots the VM.
  void start();

  /// Blocks until the first boot finished (or failed terminally).
  /// \returns true when the shard is serving.
  bool waitReady(double TimeoutSec);

  /// Enqueues \p R for this shard. \returns false once stopping (the
  /// caller answers the session with an error).
  bool submit(QueuedRequest R);

  /// Graceful stop: closes the batcher; the shard thread completes every
  /// queued request, takes a final checkpoint, and destroys its VM. Joins
  /// the shard thread.
  void stop();

  /// Point-in-time health, readable from any thread.
  struct Health {
    unsigned Index = 0;
    std::string State;       ///< "booting" | "serving" | "restarting" | "stopped"
    uint64_t Generation = 0; ///< boots completed (1 = first boot)
    uint64_t Restarts = 0;   ///< crash/restart cycles
    /// Requests this shard answered, dedup answers and journal refusals
    /// included (not those a crash failed).
    uint64_t Requests = 0;
    uint64_t Errors = 0;     ///< ERR answers, crash failures included
    uint64_t Batches = 0;    ///< batches this shard took
    uint64_t Checkpoints = 0;
    size_t QueueDepth = 0;   ///< requests waiting in the batcher
    uint64_t OldestQueuedMs = 0; ///< age of the oldest queued request
    uint64_t DeadlineExpired = 0; ///< deadlines that expired here
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
  void bootVm();
  void restartVm(const char *Why);
  void teardownVm();
  void processBatch(Batch &B);
  /// Runs one Eval request against the VM under its deadline.
  void evalRequest(QueuedRequest &Q);
  void failFrom(Batch &B, size_t First);
  void setState(const char *S);
  void noteError(const std::string &E);

  // --- write-ahead journal plumbing (no-ops when JournalPath is empty) ---
  bool journaled() const { return Jrnl != nullptr; }
  /// Before a batch executes: answer dedup hits, refuse a (client, seq)
  /// pair that an earlier request of the batch journaled, append + fsync
  /// intent records for everything else.
  void prepareBatchJournal(Batch &B);
  /// After a batch executes: cache completed (client, seq) responses.
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
  /// Fsync the journal, counting the sync or its failure.
  void syncJournal();
  /// After image load: re-apply journaled intents at or past \p Mark per
  /// their outcome records.
  void replayJournal(uint64_t Mark);
  /// After a successful checkpoint rename covering \p Mark: compact the
  /// journal below the oldest retained generation's mark.
  void commitJournalTruncate(uint64_t Mark);
  /// Stores the journal size and dedup size for health(); shard thread.
  void publishJournalCounts();

  bool checkpointing() const { return !Config.CheckpointPath.empty(); }
  /// Every checkpoint this shard takes; shard thread, between requests,
  /// with a checkpoint path. Syncs the journal and stamps its end as the
  /// image's mark.
  bool checkpoint(std::string &Err);
  /// When a periodic checkpoint waits on unsaved work: its due time
  /// (Telemetry::nowNs); otherwise 0.
  uint64_t autoCheckpointDueNs() const;
  /// Between batches: the periodic checkpoint, once due.
  void maybeAutoCheckpoint();

  ShardConfig Config;
  ResponseSink Sink;
  /// This shard's registry instances: the counts health() reports, and
  /// this shard's share of every serve.* total.
  ShardStats Stats;

  RequestBatcher Batcher;
  std::thread ShardThread;

  // Shard-thread-owned. Emergency (set with a checkpoint path) dies
  // before the VM.
  std::unique_ptr<VirtualMachine> VM;
  std::unique_ptr<EmergencySnapshot> Emergency;

  /// Write-ahead journal (null when disabled) and dedup table. start()
  /// opens the journal before the shard thread runs; after that only the
  /// shard thread calls either, so neither takes a lock. health() reads
  /// their sizes from JournalBytes and DedupSize instead.
  std::unique_ptr<Journal> Jrnl;
  DedupTable Dedup;
  /// Published by publishJournalCounts(); read by health() on any thread.
  std::atomic<uint64_t> JournalBytes{0};
  std::atomic<uint64_t> DedupSize{0};
  /// A non-Executed outcome was appended since the last sync; shard
  /// thread only.
  bool RefusalPending = false;
  /// Marks of the last KeepGenerations+1 committed checkpoints, oldest
  /// first: truncation must stay below what the oldest *retained* rotated
  /// image still needs. Seeded with 0 so nothing is dropped until the
  /// rotation window has cycled once. Shard thread only.
  std::deque<uint64_t> PrevMarks;
  uint64_t NextAutoCkNs = 0; ///< shard thread only
  /// The VM ran something (an eval or a replay) since its image was
  /// loaded or last checkpointed. Shard thread only.
  bool Unsaved = false;

  std::mutex ReadyMutex;
  std::condition_variable ReadyCv;
  bool BootDone = false; // guarded by ReadyMutex

  std::atomic<uint64_t> Generation{0};

  std::mutex StateMutex;
  std::string State = "booting";   // guarded by StateMutex
  std::string LastError;           // guarded by StateMutex
};

} // namespace serve
} // namespace mst

#endif // MST_SERVE_SHARD_H
