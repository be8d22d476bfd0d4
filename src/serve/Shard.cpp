//===-- serve/Shard.cpp - One VM image serving requests -------------------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/Shard.h"

#include <unistd.h>

#include "image/Bootstrap.h"
#include "image/Checkpoint.h"
#include "image/Snapshot.h"
#include "objmem/Safepoint.h"
#include "obs/Profiler.h"
#include "vkernel/Chaos.h"

using namespace mst;
using namespace mst::serve;

namespace {
bool fileExists(const std::string &Path) {
  return !Path.empty() && ::access(Path.c_str(), F_OK) == 0;
}
} // namespace

Shard::Shard(ShardConfig Config, ResponseSink Sink, ServeStats &Stats)
    : Config(std::move(Config)), Sink(std::move(Sink)), Stats(Stats) {}

Shard::~Shard() { stop(); }

void Shard::start() {
  if (!Config.JournalPath.empty()) {
    // Open before the shard thread exists: boot replays it and the first
    // batch appends to it. A journal that cannot open disables
    // journaling rather than the shard — the crash ladder then behaves
    // exactly as without one, which is degraded, not broken.
    Jrnl = std::make_unique<Journal>();
    std::string Err;
    if (!Jrnl->open(Config.JournalPath, Err)) {
      noteError("journal open failed (journaling disabled): " + Err);
      Jrnl.reset();
    } else if (Jrnl->tornRepairs() > 0) {
      Stats.JournalTorn.add(Jrnl->tornRepairs());
    }
  }
  ShardThread = std::thread([this] { shardMain(); });
  WatchdogThread = std::thread([this] { watchdogMain(); });
}

bool Shard::waitReady(double TimeoutSec) {
  std::unique_lock<std::mutex> Lock(ReadyMutex);
  if (!ReadyCv.wait_for(Lock,
                        std::chrono::duration<double>(TimeoutSec),
                        [this] { return BootDone; }))
    return false;
  std::lock_guard<std::mutex> G(StateMutex);
  return State == "serving";
}

bool Shard::submit(QueuedRequest R) {
  if (Stopping.load(std::memory_order_relaxed))
    return false;
  return Batcher.push(std::move(R));
}

void Shard::stop() {
  if (Stopping.exchange(true)) {
    // A racing second stop still has to wait for the joins below, which
    // only the first caller performs; Shard is stopped exactly once by
    // the Server, so just fall through when the threads are gone.
  }
  Batcher.close();
  if (ShardThread.joinable())
    ShardThread.join();
  // The watchdog outlives the shard thread: drained requests with
  // deadlines may still need aborting while the shard works through its
  // final batches above.
  {
    std::lock_guard<std::mutex> G(AbortMutex);
    WatchdogStop = true;
  }
  WatchdogCv.notify_all();
  if (WatchdogThread.joinable())
    WatchdogThread.join();
}

Shard::Health Shard::health() {
  Health H;
  H.Index = Config.Index;
  H.Generation = Generation.load(std::memory_order_relaxed);
  H.Restarts = RestartCount.load(std::memory_order_relaxed);
  H.Requests = RequestCount.load(std::memory_order_relaxed);
  H.Batches = BatchCount.load(std::memory_order_relaxed);
  H.Checkpoints = CheckpointCount.load(std::memory_order_relaxed);
  H.QueueDepth = queueDepth();
  uint64_t Oldest = Batcher.oldestEnqueueNs();
  if (Oldest != 0) {
    uint64_t Now = Telemetry::nowNs();
    H.OldestQueuedMs = Now > Oldest ? (Now - Oldest) / 1000000 : 0;
  }
  H.DeadlineExpired =
      DeadlineExpiredCount.load(std::memory_order_relaxed);
  H.Aborts = AbortCount.load(std::memory_order_relaxed);
  H.AbortsEscalated = EscalatedCount.load(std::memory_order_relaxed);
  if (Jrnl)
    H.JournalBytes = Jrnl->bytes();
  H.Replayed = ReplayedCount.load(std::memory_order_relaxed);
  H.DedupSize = Dedup.size();
  H.DedupHits = DedupHitCount.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> G(StateMutex);
  H.State = State;
  H.LastError = LastError;
  return H;
}

void Shard::setState(const char *S) {
  std::lock_guard<std::mutex> G(StateMutex);
  State = S;
}

void Shard::noteError(const std::string &E) {
  std::lock_guard<std::mutex> G(StateMutex);
  LastError = E;
}

/// Boots (or re-boots) this shard's VM on the shard thread, walking the
/// recovery ladder: own committed checkpoint -> pool base image -> cold
/// bootstrap. A candidate that fails to load may have mutated the VM
/// (materialization failures), so each rung starts from a freshly
/// constructed VirtualMachine.
void Shard::bootVm() {
  auto Fresh = [this] {
    Ck.reset();
    VM.reset();
    VM = std::make_unique<VirtualMachine>(Config.Vm);
  };
  Fresh();
  bool Booted = false;
  SnapshotInfo Info;
  if (fileExists(Config.CheckpointPath)) {
    std::string Err;
    if (loadSnapshot(*VM, Config.CheckpointPath, Err, &Info)) {
      Booted = true;
    } else {
      noteError("shard checkpoint load failed: " + Err);
      Info = SnapshotInfo();
      Fresh();
    }
  }
  if (!Booted && !Config.BaseImage.empty()) {
    std::string Err;
    if (loadSnapshot(*VM, Config.BaseImage, Err)) {
      Booted = true;
    } else {
      noteError("base image load failed: " + Err);
      Fresh();
    }
  }
  if (!Booted)
    bootstrapImage(*VM);

  // The shard's Smalltalk-visible identity; sessions read it back to
  // verify pinning ((Smalltalk at: #ShardId) is stable per session).
  VM->evaluate("Smalltalk at: #ShardId put: " +
               std::to_string(Config.Index));

  if (journaled()) {
    if (PrevMarks.empty())
      PrevMarks.push_back(0);
    // The image we just loaded covers the journal up to its recorded
    // mark (0 for a base image / cold bootstrap, which covers nothing):
    // everything at or past it re-applies now, before Ready.
    replayJournal(Info.HasJournalMark ? Info.JournalMark : 0);
  }

  // Rename this thread's profiler slot so state breakdowns attribute
  // samples per shard rather than to one merged "driver".
  Profiler::registerThread("shard" + std::to_string(Config.Index),
                           static_cast<int>(Config.Vm.Interpreters));

  if (!Config.CheckpointPath.empty()) {
    Checkpointer::Options O;
    O.Path = Config.CheckpointPath;
    // A journaled shard must not let the periodic thread stop the world
    // mid-eval: a checkpoint taken there would cover half a request and
    // no single journal position describes it. The shard thread
    // checkpoints between batches instead (maybeAutoCheckpoint).
    O.EveryMs = journaled() ? 0 : Config.CheckpointEveryMs;
    O.KeepGenerations = Config.KeepGenerations;
    if (journaled())
      O.JournalMark = [this](uint64_t &M) {
        M = PendingMark;
        return true;
      };
    Ck = std::make_unique<Checkpointer>(*VM, O);
  }
  // First boot only: rebooting must not push an overdue auto-checkpoint
  // further out, or a kill storm arriving faster than CheckpointEveryMs
  // starves checkpoints forever — the journal never truncates and every
  // reboot replays a longer history.
  if (journaled() && Config.CheckpointEveryMs > 0 && NextAutoCkNs == 0)
    NextAutoCkNs =
        Telemetry::nowNs() + Config.CheckpointEveryMs * 1000000;
  Generation.fetch_add(1, std::memory_order_relaxed);
  setState("serving");
}

void Shard::restartVm(const char *Why) {
  setState("restarting");
  noteError(std::string("shard crashed (") + Why +
            "); restarting from last committed snapshot");
  if (Ck)
    CkTakenBase += Ck->checkpointsTaken();
  RestartCount.fetch_add(1, std::memory_order_relaxed);
  Stats.Restarts.add();
  if (journaled() && chaos::failPoint("journal.tear")) {
    // Torn-tail drill: a real crash can lose whatever the last fsync
    // didn't cover — only *Executed* outcome records by construction:
    // intents are synced before their batch executes, and refusal
    // outcomes are synced before their ERR escapes (failFrom runs
    // before this). Replay must still converge by re-executing the
    // intents whose Executed outcomes tore off.
    uint64_t Cut = Jrnl->tearTail(256, chaos::failCount("journal.tear"));
    if (Cut > 0)
      Stats.JournalTorn.add();
  }
  bootVm();
}

void Shard::teardownVm() {
  if (Ck)
    CkTakenBase += Ck->checkpointsTaken();
  Ck.reset();
  if (VM)
    VM->shutdown();
  VM.reset();
}

void Shard::processBatch(Batch &B) {
  for (size_t I = 0; I < B.size(); ++I) {
    QueuedRequest &Q = B[I];
    if (Q.Done)
      continue; // answered by prepareBatchJournal (dedup hit / refusal)
    if (Q.Kind == Request::Kind::Kill) {
      Q.Done = true;
      Q.Ok = true;
      Q.Value = "shard " + std::to_string(Config.Index) +
                " killed; restarting from last committed checkpoint";
      failFrom(B, I + 1);
      restartVm("admin kill");
      return;
    }
    if (chaos::failPoint("serve.shard.crash")) {
      // The injected crash takes the in-flight request down with it —
      // exactly what a segfaulting shard would do to its batch.
      failFrom(B, I);
      restartVm("chaos fail point");
      return;
    }
    switch (Q.Kind) {
    case Request::Kind::Eval: {
      if (!evalRequest(Q)) {
        // The watchdog escalated a dishonored abort: this VM is stopping
        // and cannot serve another request — walk the crash ladder.
        failFrom(B, I + 1);
        restartVm("deadline abort escalated");
        return;
      }
      break;
    }
    case Request::Kind::Checkpoint: {
      Q.Done = true;
      if (!Ck) {
        Q.Ok = false;
        Q.Value = "shard " + std::to_string(Config.Index) +
                  ": checkpointing disabled";
      } else {
        if (journaled()) {
          // Mid-batch checkpoint: everything executed so far has its
          // outcome below endPos, but this batch's *unexecuted* intents
          // are below it too (prepareBatchJournal appends the whole
          // batch up front). Freeze the mark, then re-journal the
          // unexecuted tail above it, so replay-from-mark re-sees exactly
          // the work this image will not contain.
          PendingMark = Jrnl->endPos();
          bool ReAppended = false;
          for (size_t J = I + 1; J < B.size(); ++J) {
            QueuedRequest &T = B[J];
            if (T.Kind != Request::Kind::Eval || T.Done ||
                T.JournalId == 0)
              continue;
            std::string Err;
            // Retire the original intent first: a replay from an older
            // fallback mark must not run both it and its copy. Counts
            // toward the sync below — an unsynced retirement could tear
            // off and resurrect the original.
            if (Jrnl->appendOutcome(T.JournalId, T.ClientId, T.ClientSeq,
                                    T.HasSeq,
                                    Journal::Outcome::SkippedCrash, false,
                                    "superseded by re-journal", Err))
              ReAppended = true;
            uint64_t NewId = 0;
            if (Jrnl->appendIntent(T.ClientId, T.ClientSeq, T.HasSeq,
                                   T.Source, NewId, Err)) {
              T.JournalId = NewId;
              Stats.JournalAppends.add();
              ReAppended = true;
            } else {
              Stats.JournalAppendFailures.add();
            }
          }
          if (ReAppended) {
            std::string Err;
            if (Jrnl->sync(Err))
              Stats.JournalFsyncs.add();
            else
              Stats.JournalFsyncFailures.add();
          }
        }
        std::string Err;
        Q.Ok = Ck->checkpointNow(Err);
        if (Q.Ok) {
          Q.Value = "shard " + std::to_string(Config.Index) +
                    " checkpointed to " + Config.CheckpointPath;
          if (journaled())
            commitJournalTruncate();
        } else {
          Q.Value = "shard " + std::to_string(Config.Index) +
                    " checkpoint failed: " + Err;
          noteError(Q.Value);
        }
      }
      break;
    }
    default:
      // Front-end-only kinds (Health/Drain/Quit/Bad) never reach a shard.
      Q.Done = true;
      Q.Ok = false;
      Q.Value = "request kind not servable by a shard";
      break;
    }
    chaos::point("serve.shard.request");
  }
  if (Ck)
    CheckpointCount.store(CkTakenBase + Ck->checkpointsTaken(),
                          std::memory_order_relaxed);
}

bool Shard::evalRequest(QueuedRequest &Q) {
  uint64_t Now = Telemetry::nowNs();
  Stats.QueueWait.record(Now - Q.EnqueueNs);
  if (Q.DeadlineNs != 0 && Now >= Q.DeadlineNs) {
    // Expired while queued: answer without burning VM time on it.
    Q.Done = true;
    Q.Ok = false;
    Q.TimedOut = true;
    Q.Value = "RequestTimeout: deadline expired before evaluation "
              "(queued " +
              std::to_string((Now - Q.EnqueueNs) / 1000000) + "ms)";
    Stats.DeadlineExpired.add();
    DeadlineExpiredCount.fetch_add(1, std::memory_order_relaxed);
    Stats.Requests.add();
    Stats.Errors.add();
    RequestCount.fetch_add(1, std::memory_order_relaxed);
    // Never ran: replay must skip it, and a retry should re-execute.
    appendOutcomeFor(Q, Journal::Outcome::SkippedExpired);
    return true;
  }

  const char *Source = Q.Source.c_str();
  // Storm drills. "stall" rewrites the request into a runaway loop (the
  // infinite request a buggy client would send); "stuck" models a wedged
  // primitive: the VM never reaches a bytecode boundary, so neither the
  // in-VM deadline nor the watchdog's abort can fire — only escalation
  // gets the shard back.
  if (chaos::failPoint("serve.request.stall"))
    Source = "[true] whileTrue.";
  bool Stuck = chaos::failPoint("serve.abort.stuck");

  {
    std::lock_guard<std::mutex> G(AbortMutex);
    ++InFlightToken;
    InFlightDeadlineNs = Q.DeadlineNs;
    AbortArmed = false;
    EscalateFired = false;
    StuckSim = Stuck;
  }
  VirtualMachine::EvalResult R =
      (Q.DeadlineNs != 0 && !Stuck)
          ? VM->evalWithDeadline(Source, Q.DeadlineNs)
          : VM->evaluate(Source);
  bool Escalated;
  {
    std::lock_guard<std::mutex> G(AbortMutex);
    InFlightDeadlineNs = 0;
    Escalated = EscalateFired;
    // An abort that raced with normal completion must not leak into the
    // next request.
    VM->clearAbort();
  }

  Q.Done = true;
  Q.Ok = R.Ok;
  Q.TimedOut = R.TimedOut;
  Q.Value = std::move(R.Value);
  if (Escalated) {
    Q.Ok = false;
    Q.TimedOut = true;
    Q.Value = "RequestTimeout: abort not honored within grace; shard " +
              std::to_string(Config.Index) +
              " rebooting from its last committed checkpoint";
  }
  if (Q.TimedOut) {
    Stats.DeadlineExpired.add();
    DeadlineExpiredCount.fetch_add(1, std::memory_order_relaxed);
  }
  Stats.Requests.add();
  if (!Q.Ok)
    Stats.Errors.add();
  RequestCount.fetch_add(1, std::memory_order_relaxed);
  // TimedOut (aborted mid-run or escalated) still consumed VM state up
  // to the unwind, and re-running a runaway would wedge the reboot —
  // replay answers the recorded ERR instead of re-executing.
  appendOutcomeFor(Q, Q.TimedOut ? Journal::Outcome::TimedOut
                                 : Journal::Outcome::Executed);
  return !Escalated;
}

void Shard::watchdogMain() {
  std::unique_lock<std::mutex> Lock(AbortMutex);
  while (!WatchdogStop) {
    WatchdogCv.wait_for(Lock, std::chrono::milliseconds(5));
    if (WatchdogStop)
      break;
    if (InFlightDeadlineNs == 0)
      continue;
    uint64_t Now = Telemetry::nowNs();
    if (Now < InFlightDeadlineNs)
      continue;
    if (!AbortArmed) {
      AbortArmed = true;
      ArmedToken = InFlightToken;
      EscalateAtNs = Now + Config.AbortGraceMs * 1000000;
      if (!StuckSim) {
        // Normal path: the VM consumes this at its next bytecode
        // boundary and unwinds with RequestTimeout. The in-VM deadline
        // usually beats us to it; this catches evals stuck between
        // bytecodes. The stuck drill skips delivery so the grace
        // escalation below is what recovers the shard.
        VM->requestAbort();
        Stats.Aborts.add();
        AbortCount.fetch_add(1, std::memory_order_relaxed);
      }
    } else if (!EscalateFired && ArmedToken == InFlightToken &&
               Now >= EscalateAtNs) {
      EscalateFired = true;
      Stats.AbortsEscalated.add();
      EscalatedCount.fetch_add(1, std::memory_order_relaxed);
      // Stop flag, no join: the evaluation returns at its next poll and
      // the shard thread reboots its VM on its own thread.
      VM->requestStop();
    }
  }
}

void Shard::failFrom(Batch &B, size_t First) {
  for (size_t I = First; I < B.size(); ++I) {
    QueuedRequest &Q = B[I];
    if (Q.Done)
      continue; // already answered (dedup hit / journal refusal)
    Q.Done = true;
    Q.Ok = false;
    Q.Value = "shard " + std::to_string(Config.Index) +
              " crashed; request not executed (shard restarted from its "
              "last committed checkpoint)";
    Stats.Errors.add();
    // Recorded *before* the reboot replays the journal: these intents
    // never executed, so replay must not execute them either — the
    // client was told "not executed" and owns the retry.
    appendOutcomeFor(Q, Journal::Outcome::SkippedCrash);
  }
  // Durable before restartVm's tear drill can run: a torn refusal would
  // make replay execute what the client was told to retry.
  syncRefusals();
}

void Shard::shardMain() {
  bootVm();
  {
    std::lock_guard<std::mutex> G(ReadyMutex);
    BootDone = true;
  }
  ReadyCv.notify_all();

  constexpr size_t MaxBatch = 256;
  for (;;) {
    Batch B;
    {
      // Waiting between batches counts as safe: the periodic checkpointer
      // (or any service thread) can stop this shard's world meanwhile.
      BlockedRegion Blocked(VM->memory().safepoint());
      ProfStateScope Prof(ProfState::Idle);
      if (!Batcher.takeBatch(B, MaxBatch))
        break; // closed and drained: graceful exit
    }
    Stats.Batches.add();
    Stats.BatchSize.record(B.size());
    // WAL discipline: every Eval's intent is on disk (and fsynced, once
    // for the whole batch) before any request in the batch executes — an
    // OK can then always be re-derived from checkpoint + journal.
    if (journaled())
      prepareBatchJournal(B);
    processBatch(B);
    // Any refusal this batch produced (deadline expiries, timeouts) is
    // on disk before the sink releases its ERR to the client.
    syncRefusals();
    // Journaled shards auto-checkpoint here, between batches: the
    // journal is quiescent, so the recorded mark covers exactly what the
    // image contains.
    maybeAutoCheckpoint();
    BatchCount.fetch_add(1, std::memory_order_relaxed);
    uint64_t Now = Telemetry::nowNs();
    for (const QueuedRequest &Q : B)
      Stats.Latency.record(Now - Q.EnqueueNs);
    if (journaled())
      finishBatchJournal(B);
    Sink(std::move(B));
  }

  // Graceful lifecycle: SIGTERM/stop() checkpoints every shard before
  // the pool goes down.
  if (Ck) {
    if (journaled())
      PendingMark = Jrnl->endPos();
    std::string Err;
    if (Ck->checkpointNow(Err)) {
      CheckpointCount.store(CkTakenBase + Ck->checkpointsTaken(),
                            std::memory_order_relaxed);
      if (journaled())
        commitJournalTruncate();
    } else {
      noteError("final checkpoint failed: " + Err);
    }
  }
  teardownVm();
  setState("stopped");
}

void Shard::prepareBatchJournal(Batch &B) {
  bool Appended = false;
  for (QueuedRequest &Q : B) {
    if (Q.Kind != Request::Kind::Eval || Q.Done)
      continue;
    if (Q.HasSeq) {
      DedupTable::Response R;
      if (Dedup.lookup(Q.ClientId, Q.ClientSeq, R)) {
        // A resend of a completed request: answer what the original was
        // told. Never journaled, never re-executed.
        Q.Done = true;
        Q.Ok = R.Ok;
        Q.TimedOut = R.TimedOut;
        Q.Value = std::move(R.Value);
        Stats.DedupHits.add();
        DedupHitCount.fetch_add(1, std::memory_order_relaxed);
        Stats.Requests.add();
        if (!Q.Ok)
          Stats.Errors.add();
        continue;
      }
      if (!Dedup.markInFlight(Q.ClientId, Q.ClientSeq)) {
        // The original is still somewhere between journal and response;
        // executing the resend too would double-apply it.
        Q.Done = true;
        Q.Ok = false;
        Q.Value = "overloaded: request seq " +
                  std::to_string(Q.ClientSeq) +
                  " still in flight; retry later";
        Stats.Requests.add();
        Stats.Errors.add();
        continue;
      }
    }
    std::string Err;
    if (!Jrnl->appendIntent(Q.ClientId, Q.ClientSeq, Q.HasSeq, Q.Source,
                            Q.JournalId, Err)) {
      // Durable-or-refused: a request we cannot journal is answered ERR
      // without executing, so the no-acknowledged-loss invariant never
      // depends on an unjournaled execution.
      Stats.JournalAppendFailures.add();
      if (Q.HasSeq)
        Dedup.clearInFlight(Q.ClientId, Q.ClientSeq);
      Q.Done = true;
      Q.Ok = false;
      Q.Value = "journal append failed; request not executed: " + Err;
      Stats.Requests.add();
      Stats.Errors.add();
      continue;
    }
    Stats.JournalAppends.add();
    Appended = true;
  }
  if (Appended) {
    std::string Err;
    if (Jrnl->sync(Err)) {
      Stats.JournalFsyncs.add();
    } else {
      // Warn-only: the records are written, so in-process crash replay
      // still sees them; only power loss could lose the unsynced tail,
      // and the tear drill proves replay converges even then.
      Stats.JournalFsyncFailures.add();
      noteError("journal fsync failed (continuing): " + Err);
    }
  }
}

void Shard::finishBatchJournal(Batch &B) {
  for (QueuedRequest &Q : B) {
    if (Q.JournalId == 0 || !Q.HasSeq)
      continue;
    Dedup.clearInFlight(Q.ClientId, Q.ClientSeq);
    auto Out = static_cast<Journal::Outcome>(Q.JournalOutcome);
    if (Out == Journal::Outcome::Executed ||
        Out == Journal::Outcome::TimedOut) {
      // Executed (or consumed by an abort): the response is final, so a
      // retry must be answered, not re-run. Skipped outcomes stay out of
      // the cache — their retry *should* execute.
      DedupTable::Response R;
      R.Ok = Q.Ok;
      R.TimedOut = Q.TimedOut;
      R.Value = Q.Value;
      Dedup.insert(Q.ClientId, Q.ClientSeq, std::move(R));
    }
  }
}

void Shard::appendOutcomeFor(QueuedRequest &Q, Journal::Outcome Out) {
  Q.JournalOutcome = static_cast<uint8_t>(Out);
  if (!journaled() || Q.JournalId == 0)
    return;
  std::string Err;
  if (Jrnl->appendOutcome(Q.JournalId, Q.ClientId, Q.ClientSeq, Q.HasSeq,
                          Out, Q.Ok, Q.Value, Err)) {
    Stats.JournalAppends.add();
    // Refusals must reach disk before their ERR escapes (syncRefusals
    // runs before every batch reaches the sink and before the crash
    // ladder's tear window); Executed outcomes ride the next batch fsync.
    if (Out != Journal::Outcome::Executed)
      RefusalPending = true;
  } else {
    // A lost Executed outcome only degrades replay to re-execution (or,
    // for a skip, to one bounded re-run) — never to losing an
    // acknowledged response.
    Stats.JournalAppendFailures.add();
  }
}

void Shard::syncRefusals() {
  if (!journaled() || !RefusalPending)
    return;
  RefusalPending = false;
  std::string Err;
  if (Jrnl->sync(Err))
    Stats.JournalFsyncs.add();
  else {
    // The refusal record is written, just not fsynced: an in-process
    // reboot replays it fine, and only the tear drill / power loss can
    // cut it — at which point replay re-executes a request the client
    // was told failed. Surface it loudly; don't wedge the shard.
    Stats.JournalFsyncFailures.add();
    noteError("journal refusal fsync failed (continuing): " + Err);
  }
}

void Shard::replayJournal(uint64_t Mark) {
  std::vector<Journal::Entry> Entries;
  std::string Err;
  if (!Jrnl->scan(Mark, Entries, Err)) {
    noteError("journal replay scan failed: " + Err);
    return;
  }
  for (Journal::Entry &E : Entries) {
    DedupTable::Response R;
    bool CacheIt = E.HasSeq;
    switch (E.Out) {
    case Journal::Outcome::SkippedExpired:
    case Journal::Outcome::SkippedCrash:
      // Never executed and the client was told so; a retry re-executes.
      continue;
    case Journal::Outcome::TimedOut:
      // Re-running a runaway would wedge the reboot; the recorded ERR is
      // what the client saw, so it is what a retry must get.
      R.Ok = E.Ok;
      R.TimedOut = true;
      R.Value = std::move(E.Value);
      break;
    case Journal::Outcome::Executed:
    case Journal::Outcome::None: {
      // Deterministic re-execution against the same image state, in the
      // same order. For an intent whose outcome record tore off, this
      // bounded run *becomes* its outcome.
      uint64_t DeadlineNs =
          Telemetry::nowNs() + Config.ReplayDeadlineMs * 1000000;
      VirtualMachine::EvalResult Res =
          VM->evalWithDeadline(E.Source, DeadlineNs);
      ReplayedCount.fetch_add(1, std::memory_order_relaxed);
      Stats.Replayed.add();
      if (E.Out == Journal::Outcome::Executed) {
        // The acknowledged response is canonical — what the client was
        // already told always wins over what the re-run printed.
        R.Ok = E.Ok;
        R.TimedOut = false;
        R.Value = std::move(E.Value);
      } else {
        R.Ok = Res.Ok;
        R.TimedOut = Res.TimedOut;
        R.Value = Res.Value;
        std::string OutErr;
        (void)Jrnl->appendOutcome(E.RecordId, E.ClientId, E.Seq, E.HasSeq,
                                  Res.TimedOut
                                      ? Journal::Outcome::TimedOut
                                      : Journal::Outcome::Executed,
                                  Res.Ok, Res.Value, OutErr);
      }
      break;
    }
    }
    if (CacheIt)
      Dedup.insert(E.ClientId, E.Seq, std::move(R));
  }
}

void Shard::commitJournalTruncate() {
  // The checkpoint that just committed covers PendingMark, but a crash
  // ladder may still fall back to a rotated generation: keep everything
  // the *oldest retained* image needs. The deque is seeded with 0, so
  // truncation only starts once the rotation window has cycled.
  PrevMarks.push_back(PendingMark);
  while (PrevMarks.size() > Config.KeepGenerations + 1)
    PrevMarks.pop_front();
  std::string Err;
  if (Jrnl->truncateBelow(PrevMarks.front(), Err))
    Stats.JournalTruncations.add();
  else
    // Harmless beyond disk growth: replay skips below the mark anyway.
    noteError("journal truncation failed: " + Err);
}

void Shard::maybeAutoCheckpoint() {
  if (!journaled() || !Ck || Config.CheckpointEveryMs == 0)
    return;
  uint64_t Now = Telemetry::nowNs();
  if (Now < NextAutoCkNs)
    return;
  NextAutoCkNs = Now + Config.CheckpointEveryMs * 1000000;
  PendingMark = Jrnl->endPos();
  std::string Err;
  if (Ck->checkpointNow(Err)) {
    CheckpointCount.store(CkTakenBase + Ck->checkpointsTaken(),
                          std::memory_order_relaxed);
    commitJournalTruncate();
  } else {
    noteError("auto checkpoint failed: " + Err);
  }
}
