//===-- serve/Shard.cpp - One VM image serving requests -------------------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/Shard.h"

#include <unistd.h>

#include "image/Bootstrap.h"
#include "image/Snapshot.h"
#include "obs/Profiler.h"
#include "vkernel/Chaos.h"

using namespace mst;
using namespace mst::serve;

namespace {
/// Requests a shard takes from its batcher at once.
constexpr size_t MaxBatch = 256;

bool fileExists(const std::string &Path) {
  return ::access(Path.c_str(), F_OK) == 0;
}

/// Whether a request ahead of B[I] in its batch journaled the same
/// (ClientId, ClientSeq) pair. A batch holds at most MaxBatch requests,
/// so the scan stays short.
bool journaledAhead(const Batch &B, size_t I) {
  const QueuedRequest &Q = B[I];
  for (size_t J = 0; J < I; ++J)
    if (B[J].JournalId != 0 && B[J].HasSeq && B[J].ClientId == Q.ClientId &&
        B[J].ClientSeq == Q.ClientSeq)
      return true;
  return false;
}
} // namespace

Shard::Shard(ShardConfig Config, ResponseSink Sink)
    : Config(std::move(Config)), Sink(std::move(Sink)) {}

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

bool Shard::submit(QueuedRequest R) { return Batcher.push(std::move(R)); }

void Shard::stop() {
  Batcher.close();
  if (ShardThread.joinable())
    ShardThread.join();
}

Shard::Health Shard::health() {
  Health H;
  H.Index = Config.Index;
  H.Generation = Generation.load(std::memory_order_relaxed);
  H.Restarts = Stats.Restarts.value();
  H.Requests = Stats.Requests.value();
  H.Errors = Stats.Errors.value();
  H.Batches = Stats.BatchSize.count();
  H.Checkpoints = Stats.Checkpoints.value();
  H.QueueDepth = queueDepth();
  uint64_t Oldest = Batcher.oldestEnqueueNs();
  if (Oldest != 0) {
    uint64_t Now = Telemetry::nowNs();
    H.OldestQueuedMs = Now > Oldest ? (Now - Oldest) / 1000000 : 0;
  }
  H.DeadlineExpired = Stats.DeadlineExpired.value();
  H.JournalBytes = JournalBytes.load(std::memory_order_relaxed);
  H.Replayed = Stats.Replayed.value();
  H.DedupSize = DedupSize.load(std::memory_order_relaxed);
  H.DedupHits = Stats.DedupHits.value();
  std::lock_guard<std::mutex> G(StateMutex);
  H.State = State;
  H.LastError = LastError;
  return H;
}

void Shard::publishJournalCounts() {
  JournalBytes.store(Jrnl ? Jrnl->bytes() : 0, std::memory_order_relaxed);
  DedupSize.store(Dedup.size(), std::memory_order_relaxed);
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
    Emergency.reset();
    VM.reset();
    VM = std::make_unique<VirtualMachine>(VmConfig::multiprocessor(1));
  };
  Fresh();
  bool Booted = false;
  SnapshotInfo Info;
  // A kill between a save's rotation and its rename leaves no
  // checkpoint, only `<path>.1`; the ladder boots from that.
  if (checkpointing() && (fileExists(Config.CheckpointPath) ||
                          fileExists(Config.CheckpointPath + ".1"))) {
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

  // The loaded image is what the crash ladder would load again.
  Unsaved = false;
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
                           static_cast<int>(VM->config().Interpreters));

  if (checkpointing())
    Emergency = std::make_unique<EmergencySnapshot>(*VM,
                                                    Config.CheckpointPath);
  // First boot only: rebooting must not push an overdue auto-checkpoint
  // further out, or a kill storm arriving faster than CheckpointEveryMs
  // starves checkpoints forever — the journal never truncates and every
  // reboot replays a longer history.
  if (Config.CheckpointEveryMs > 0 && NextAutoCkNs == 0)
    NextAutoCkNs =
        Telemetry::nowNs() + Config.CheckpointEveryMs * 1000000;
  publishJournalCounts();
  Generation.fetch_add(1, std::memory_order_relaxed);
  setState("serving");
}

void Shard::restartVm(const char *Why) {
  setState("restarting");
  noteError(std::string("shard crashed (") + Why +
            "); restarting from last committed snapshot");
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
  Emergency.reset();
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
    case Request::Kind::Eval:
      evalRequest(Q);
      break;
    case Request::Kind::Checkpoint: {
      // Last in its batch (RequestBatcher::takeBatch), so every intent
      // this batch journaled has executed before the mark is read.
      std::string Err;
      Q.Done = true;
      Q.Ok = checkpointing() && checkpoint(Err);
      Q.Value = "shard " + std::to_string(Config.Index);
      if (!checkpointing())
        Q.Value += ": checkpointing disabled";
      else if (Q.Ok)
        Q.Value += " checkpointed to " + Config.CheckpointPath;
      else
        Q.Value += " checkpoint failed: " + Err;
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
}

void Shard::evalRequest(QueuedRequest &Q) {
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
    Stats.Requests.add();
    Stats.Errors.add();
    // Never ran: replay must skip it, and a retry should re-execute.
    appendOutcomeFor(Q, Journal::Outcome::SkippedExpired);
    return;
  }

  // Storm drill: rewrite the request into the infinite loop a buggy
  // client would send, for the in-VM deadline to unwind.
  const char *Source = chaos::failPoint("serve.request.stall")
                           ? "[true] whileTrue."
                           : Q.Source.c_str();
  VirtualMachine::EvalResult R = VM->evalWithDeadline(Source, Q.DeadlineNs);
  Unsaved = true;

  Q.Done = true;
  Q.Ok = R.Ok;
  Q.TimedOut = R.TimedOut;
  Q.Value = std::move(R.Value);
  if (Q.TimedOut)
    Stats.DeadlineExpired.add();
  Stats.Requests.add();
  if (!Q.Ok)
    Stats.Errors.add();
  // TimedOut (unwound by its deadline mid-run) still consumed VM state
  // up to the unwind, and re-running a runaway would wedge the reboot —
  // replay answers the recorded ERR instead of re-executing.
  appendOutcomeFor(Q, Q.TimedOut ? Journal::Outcome::TimedOut
                                 : Journal::Outcome::Executed);
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

  for (;;) {
    Batch B;
    {
      ProfStateScope Prof(ProfState::Idle);
      if (!Batcher.takeBatch(B, MaxBatch, autoCheckpointDueNs()))
        break; // closed and drained: graceful exit
    }
    if (B.empty()) { // woken with nothing queued: a checkpoint is due
      maybeAutoCheckpoint();
      continue;
    }
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
    uint64_t Now = Telemetry::nowNs();
    for (const QueuedRequest &Q : B)
      Stats.Latency.record(Now - Q.EnqueueNs);
    if (journaled())
      finishBatchJournal(B);
    // Before the answers leave: a client holding its `!checkpoint`
    // answer must see the compacted journal in `!health`.
    publishJournalCounts();
    Sink(std::move(B));
    // Between batches no request is half done, and the journal is
    // quiescent, so the recorded mark covers exactly what the image
    // contains. The batch's answers are already out: none waits on the
    // save.
    maybeAutoCheckpoint();
  }

  // Graceful lifecycle: SIGTERM/stop() checkpoints every shard before
  // the pool goes down.
  std::string Err;
  if (checkpointing())
    checkpoint(Err);
  teardownVm();
  setState("stopped");
}

void Shard::prepareBatchJournal(Batch &B) {
  bool Appended = false;
  for (size_t I = 0; I < B.size(); ++I) {
    QueuedRequest &Q = B[I];
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
        Stats.Requests.add();
        if (!Q.Ok)
          Stats.Errors.add();
        continue;
      }
      if (journaledAhead(B, I)) {
        // The original is journaled earlier in this batch and has not
        // run yet; executing the resend too would double-apply it. An
        // original from an earlier batch has finished (the client is
        // pinned to this shard), so lookup() answered the resend above,
        // or the original never ran and the resend should.
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
  if (Appended)
    syncJournal();
}

void Shard::finishBatchJournal(Batch &B) {
  for (QueuedRequest &Q : B) {
    if (Q.JournalId == 0 || !Q.HasSeq)
      continue;
    auto Out = static_cast<Journal::Outcome>(Q.JournalOutcome);
    if (Out == Journal::Outcome::Executed ||
        Out == Journal::Outcome::TimedOut) {
      // Executed (or unwound by its deadline): the response is final, so
      // a retry must be answered, not re-run. Skipped outcomes stay out of
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
  syncJournal();
}

void Shard::syncJournal() {
  std::string Err;
  if (Jrnl->sync(Err)) {
    Stats.JournalFsyncs.add();
  } else {
    // Warn-only: the records are written, so in-process crash replay
    // still sees them; only power loss (or the tear drill) can cut the
    // unsynced tail. Surface it loudly; don't wedge the shard.
    Stats.JournalFsyncFailures.add();
    noteError("journal fsync failed (continuing): " + Err);
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
      Unsaved = true;
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

bool Shard::checkpoint(std::string &Err) {
  SnapshotOptions O;
  O.KeepGenerations = Config.KeepGenerations;
  if (journaled()) {
    // A crash may tear off what is unsynced. Were that below the mark,
    // the records appended after the reboot would land under it, and the
    // next reboot from this image would skip them.
    syncJournal();
    RefusalPending = false; // that sync covered them too
    O.HasJournalMark = true;
    O.JournalMark = Jrnl->endPos();
  }
  if (!saveSnapshot(*VM, Config.CheckpointPath, Err, O)) {
    noteError("checkpoint failed: " + Err);
    return false;
  }
  Stats.Checkpoints.add();
  Unsaved = false;
  if (O.HasJournalMark) {
    commitJournalTruncate(O.JournalMark);
    publishJournalCounts();
  }
  return true;
}

void Shard::commitJournalTruncate(uint64_t Mark) {
  // The checkpoint that just committed covers Mark, but a crash ladder
  // may still fall back to a rotated generation: keep everything the
  // *oldest retained* image needs. The deque is seeded with 0, so
  // truncation only starts once the rotation window has cycled.
  PrevMarks.push_back(Mark);
  while (PrevMarks.size() > Config.KeepGenerations + 1)
    PrevMarks.pop_front();
  std::string Err;
  if (Jrnl->truncateBelow(PrevMarks.front(), Err))
    Stats.JournalTruncations.add();
  else
    // Harmless beyond disk growth: replay skips below the mark anyway.
    noteError("journal truncation failed: " + Err);
}

uint64_t Shard::autoCheckpointDueNs() const {
  return checkpointing() && Config.CheckpointEveryMs > 0 && Unsaved
             ? NextAutoCkNs
             : 0;
}

void Shard::maybeAutoCheckpoint() {
  uint64_t Due = autoCheckpointDueNs();
  if (Due == 0 || Telemetry::nowNs() < Due)
    return;
  NextAutoCkNs = Telemetry::nowNs() + Config.CheckpointEveryMs * 1000000;
  std::string Err;
  checkpoint(Err);
}
