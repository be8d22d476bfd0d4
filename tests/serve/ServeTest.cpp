//===-- tests/serve/ServeTest.cpp - End-to-end serving tests --------------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end tests for the serving layer: a real Server (2 shards booted
/// from a shared base snapshot) serving real loopback TCP clients. Covers
/// the request/response protocol, shard pinning + state isolation, FIFO
/// pipelining, the admin surface, and crash/checkpoint recovery.
///
//===----------------------------------------------------------------------===//

#include <unistd.h>

#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "image/Snapshot.h"
#include "obs/Telemetry.h"
#include "serve/Admin.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "serve/ServeTestUtil.h"
#include "vkernel/Chaos.h"

using namespace mst;
using namespace mst::serve;
using namespace mst::serve_test;

namespace {

class ServeTest : public ::testing::Test {
protected:
  void SetUp() override {
    DataDir = makeTempDir();
    S = std::make_unique<Server>(testServerConfig(2, DataDir));
    std::string Error;
    ASSERT_TRUE(S->start(Error)) << Error;
  }

  void TearDown() override {
    if (S)
      S->stop();
  }

  Client connect() {
    Client C;
    EXPECT_TRUE(C.connect(S->port()));
    return C;
  }

  std::string DataDir;
  std::unique_ptr<Server> S;
};

TEST_F(ServeTest, EvalRoundTrip) {
  Client C = connect();
  bool Ok = false;
  std::string Value;
  ASSERT_TRUE(C.eval("3 + 4 * 2", Ok, Value));
  EXPECT_TRUE(Ok) << Value;
  EXPECT_EQ(Value, "14");
}

TEST_F(ServeTest, EvalErrorIsReported) {
  Client C = connect();
  bool Ok = true;
  std::string Value;
  ASSERT_TRUE(C.eval("this is ))) not smalltalk", Ok, Value));
  EXPECT_FALSE(Ok);
  EXPECT_FALSE(Value.empty());

  // The session survives an error and keeps serving.
  ASSERT_TRUE(C.eval("1 + 1", Ok, Value));
  EXPECT_TRUE(Ok);
  EXPECT_EQ(Value, "2");
}

TEST_F(ServeTest, TagsEchoOnResponses) {
  Client C = connect();
  ASSERT_TRUE(C.sendLine("@first 10 * 10"));
  std::string Line, Tag, Value;
  bool Ok = false;
  ASSERT_TRUE(C.recvLine(Line));
  ASSERT_TRUE(parseResponseLine(Line, Ok, Tag, Value));
  EXPECT_TRUE(Ok);
  EXPECT_EQ(Tag, "@first");
  EXPECT_EQ(Value, "100");
}

TEST_F(ServeTest, SessionsPinToDistinctShardsAndImagesAreIsolated) {
  // Session ids are sequential, so with 2 shards consecutive sessions
  // land on different shards.
  Client A = connect();
  Client B = connect();
  bool Ok = false;
  std::string ShardA, ShardB, Value;
  ASSERT_TRUE(A.eval("Smalltalk at: #ShardId", Ok, ShardA));
  ASSERT_TRUE(Ok);
  ASSERT_TRUE(B.eval("Smalltalk at: #ShardId", Ok, ShardB));
  ASSERT_TRUE(Ok);
  EXPECT_NE(ShardA, ShardB);

  // A's global mutation is invisible in B's image...
  ASSERT_TRUE(A.eval("Smalltalk at: #Pin put: 777", Ok, Value));
  ASSERT_TRUE(Ok);
  ASSERT_TRUE(B.eval("Smalltalk includesKey: #Pin", Ok, Value));
  ASSERT_TRUE(Ok);
  EXPECT_EQ(Value, "false");

  // ...but persists across A's own requests (same pinned image).
  ASSERT_TRUE(A.eval("Smalltalk at: #Pin", Ok, Value));
  ASSERT_TRUE(Ok);
  EXPECT_EQ(Value, "777");
}

TEST_F(ServeTest, PipelinedRequestsAnswerInOrder) {
  Client C = connect();
  const int N = 20;
  for (int I = 0; I < N; ++I)
    ASSERT_TRUE(C.sendLine("@r" + std::to_string(I) + " " +
                           std::to_string(I) + " + 1"));
  for (int I = 0; I < N; ++I) {
    std::string Line, Tag, Value;
    bool Ok = false;
    ASSERT_TRUE(C.recvLine(Line));
    ASSERT_TRUE(parseResponseLine(Line, Ok, Tag, Value));
    EXPECT_TRUE(Ok);
    EXPECT_EQ(Tag, "@r" + std::to_string(I)); // strict FIFO
    EXPECT_EQ(Value, std::to_string(I + 1));
  }
}

TEST_F(ServeTest, MultiLineSourceAndResult) {
  Client C = connect();
  bool Ok = false;
  std::string Value;
  ASSERT_TRUE(C.eval("| x |\nx := 5.\n^(x * x) printString", Ok, Value));
  EXPECT_TRUE(Ok) << Value;
  EXPECT_EQ(Value, "25");
}

TEST_F(ServeTest, HealthReportsEveryShardServing) {
  Client C = connect();
  bool Ok = false;
  std::string Json;
  ASSERT_TRUE(C.eval("!health", Ok, Json));
  ASSERT_TRUE(Ok);
  EXPECT_NE(Json.find("\"shards\":[{\"id\":0"), std::string::npos);
  EXPECT_NE(Json.find("\"id\":1"), std::string::npos);
  EXPECT_NE(Json.find("\"state\":\"serving\""), std::string::npos);
  EXPECT_NE(Json.find("\"serve.requests\""), std::string::npos);
  EXPECT_NE(Json.find("\"serve.sessions.active\""), std::string::npos);
  EXPECT_NE(Json.find("\"serve.batch.size\""), std::string::npos);
  EXPECT_NE(Json.find("\"serve.latency\""), std::string::npos);
  // Overload-control surface: per-shard gate + deadline counters plus
  // the new telemetry instruments.
  EXPECT_NE(Json.find("\"breaker\":\"closed\""), std::string::npos);
  EXPECT_NE(Json.find("\"outstanding\":"), std::string::npos);
  EXPECT_NE(Json.find("\"oldest_queued_ms\":"), std::string::npos);
  EXPECT_NE(Json.find("\"deadline_expired\":"), std::string::npos);
  EXPECT_NE(Json.find("\"aborts\":"), std::string::npos);
  EXPECT_NE(Json.find("\"aborts_escalated\":"), std::string::npos);
  EXPECT_NE(Json.find("\"serve.queue.depth\""), std::string::npos);
  EXPECT_NE(Json.find("\"serve.queue.wait\""), std::string::npos);
  EXPECT_NE(Json.find("\"serve.shed\""), std::string::npos);
  EXPECT_NE(Json.find("\"serve.deadline.expired\""), std::string::npos);
}

TEST_F(ServeTest, CheckpointWritesEveryShardImage) {
  Client C = connect();
  ASSERT_TRUE(C.sendLine("!checkpoint"));
  for (int I = 0; I < 2; ++I) { // one response per shard
    std::string Line, Tag, Value;
    bool Ok = false;
    ASSERT_TRUE(C.recvLine(Line, 120.0));
    ASSERT_TRUE(parseResponseLine(Line, Ok, Tag, Value));
    EXPECT_TRUE(Ok) << Value;
  }
  EXPECT_EQ(access(shardImagePath(DataDir, 0).c_str(), F_OK), 0);
  EXPECT_EQ(access(shardImagePath(DataDir, 1).c_str(), F_OK), 0);
}

TEST_F(ServeTest, KillRestartsShardFromLastCommittedCheckpoint) {
  Client C = connect(); // session 0 -> shard 0
  bool Ok = false;
  std::string Value;
  ASSERT_TRUE(C.eval("Smalltalk at: #K put: 42", Ok, Value));
  ASSERT_TRUE(Ok);

  // Commit #K=42, then mutate past the checkpoint.
  ASSERT_TRUE(C.sendLine("!checkpoint"));
  for (int I = 0; I < 2; ++I) {
    std::string Line;
    ASSERT_TRUE(C.recvLine(Line, 120.0));
  }
  ASSERT_TRUE(C.eval("Smalltalk at: #K put: 99", Ok, Value));
  ASSERT_TRUE(Ok);

  // Crash this session's own shard. FIFO on the shard queue makes the
  // post-kill eval deterministic: it runs on the rebooted image.
  ASSERT_TRUE(C.eval("!kill 0", Ok, Value, 120.0));
  EXPECT_TRUE(Ok) << Value;
  ASSERT_TRUE(C.eval("Smalltalk at: #K", Ok, Value, 120.0));
  ASSERT_TRUE(Ok) << Value;
  EXPECT_EQ(Value, "42"); // the uncheckpointed 99 rolled back

  // Health shows the crash/recovery.
  std::string Json;
  ASSERT_TRUE(C.eval("!health", Ok, Json));
  ASSERT_TRUE(Ok);
  EXPECT_NE(Json.find("\"restarts\":1"), std::string::npos);
  EXPECT_NE(Json.find("\"state\":\"serving\""), std::string::npos);
}

TEST_F(ServeTest, OtherShardKeepsServingWhileVictimReboots) {
  Client A = connect(); // shard 0
  Client B = connect(); // shard 1
  bool Ok = false;
  std::string Value;
  ASSERT_TRUE(B.sendLine("!kill 1")); // crash B's shard, don't wait
  for (int I = 0; I < 10; ++I) {
    ASSERT_TRUE(A.eval(std::to_string(I) + " + 1", Ok, Value, 120.0));
    EXPECT_TRUE(Ok);
    EXPECT_EQ(Value, std::to_string(I + 1));
  }
  std::string Line;
  ASSERT_TRUE(B.recvLine(Line, 120.0)); // kill ack
  ASSERT_TRUE(B.eval("2 + 2", Ok, Value, 120.0));
  EXPECT_TRUE(Ok);
  EXPECT_EQ(Value, "4"); // victim is back
}

TEST_F(ServeTest, QuitFlushesPipelinedResponsesFirst) {
  Client C = connect();
  const int N = 5;
  for (int I = 0; I < N; ++I)
    ASSERT_TRUE(C.sendLine(std::to_string(I) + " + 0"));
  ASSERT_TRUE(C.sendLine("!quit"));
  int Evals = 0;
  bool SawBye = false;
  std::string Line, Tag, Value;
  bool Ok = false;
  // `bye` answers out of band; all N eval responses must still arrive
  // before the server closes the socket.
  while (C.recvLine(Line, 60.0)) {
    ASSERT_TRUE(parseResponseLine(Line, Ok, Tag, Value));
    if (Value == "bye")
      SawBye = true;
    else
      ++Evals;
  }
  EXPECT_EQ(Evals, N);
  EXPECT_TRUE(SawBye);
}

TEST_F(ServeTest, DrainStopsTheServerAndCheckpointsShards) {
  Client C = connect();
  bool Ok = false;
  std::string Value;
  ASSERT_TRUE(C.eval("!drain", Ok, Value));
  EXPECT_TRUE(Ok);
  EXPECT_TRUE(S->waitStopped(120.0));
  // The drain path checkpoints every shard on the way out.
  EXPECT_EQ(access(shardImagePath(DataDir, 0).c_str(), F_OK), 0);
  EXPECT_EQ(access(shardImagePath(DataDir, 1).c_str(), F_OK), 0);
}

TEST_F(ServeTest, ProtocolErrorsAnswerWithoutKillingTheServer) {
  Client C = connect();
  bool Ok = true;
  std::string Value;
  ASSERT_TRUE(C.eval("!kill 99", Ok, Value));
  EXPECT_FALSE(Ok);
  ASSERT_TRUE(C.eval("!nosuch", Ok, Value));
  EXPECT_FALSE(Ok);
  ASSERT_TRUE(C.eval("41 + 1", Ok, Value));
  EXPECT_TRUE(Ok);
  EXPECT_EQ(Value, "42");
}

// --- Periodic checkpoints ------------------------------------------------

uint64_t autoCheckpointsTaken() {
  for (const auto &[Name, Value] : Telemetry::counterTotals())
    if (Name == "img.save.auto")
      return Value;
  return 0;
}

TEST(ServeCheckpoint, PeriodicCheckpointerStopsAnIdleShard) {
  // A shard waiting for work must sit in a safepoint BlockedRegion, or its
  // periodic Checkpointer can never stop that VM's world.
  std::string DataDir = makeTempDir();
  ServerConfig Config = testServerConfig(2, DataDir);
  Config.Pool.CheckpointEveryMs = 50;
  uint64_t Before = autoCheckpointsTaken();
  Server S(std::move(Config));
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;

  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (autoCheckpointsTaken() - Before < 4 &&
         std::chrono::steady_clock::now() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(autoCheckpointsTaken() - Before, 4u);
  S.stop();
}

// --- Deadlines, runaway abort, and overload control ----------------------

TEST(ServeDeadline, RunawayAnswersErrWithinTwiceTheDeadline) {
  std::string DataDir = makeTempDir();
  ServerConfig Config = testServerConfig(2, DataDir);
  Config.Pool.AbortGraceMs = 10000; // abort must win, never escalation
  Server S(std::move(Config));
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;

  Client A, B, C;
  ASSERT_TRUE(A.connect(S.port())); // session 0 -> shard 0
  ASSERT_TRUE(B.connect(S.port())); // session 1 -> shard 1
  ASSERT_TRUE(C.connect(S.port())); // session 2 -> shard 0, like A

  auto T0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(A.sendLine("@r?deadline=500 [true] whileTrue."));
  ASSERT_TRUE(C.sendLine("@c 6 * 7")); // queues behind the runaway

  // The other shard serves while shard 0 burns its runaway.
  bool Ok = false;
  std::string Value;
  ASSERT_TRUE(B.eval("10 * 10", Ok, Value, 240.0));
  EXPECT_TRUE(Ok);
  EXPECT_EQ(Value, "100");

  // Acceptance: the runaway answers ERR within 2x its deadline.
  std::string Line, Tag;
  ASSERT_TRUE(A.recvLine(Line, 240.0));
  auto ElapsedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - T0)
                       .count();
  ASSERT_TRUE(parseResponseLine(Line, Ok, Tag, Value));
  EXPECT_FALSE(Ok);
  EXPECT_EQ(Tag, "@r");
  EXPECT_NE(Value.find("RequestTimeout"), std::string::npos) << Value;
  EXPECT_LT(ElapsedMs, 1000) << "abort overshot 2x the 500ms deadline";

  // The same shard keeps serving: C's queued request answers, and both
  // sessions stay usable — no shard reboot happened.
  ASSERT_TRUE(C.recvLine(Line, 240.0));
  ASSERT_TRUE(parseResponseLine(Line, Ok, Tag, Value));
  EXPECT_TRUE(Ok) << Value;
  EXPECT_EQ(Value, "42");
  ASSERT_TRUE(A.eval("1 + 1", Ok, Value, 240.0));
  EXPECT_TRUE(Ok);
  EXPECT_EQ(Value, "2");

  auto Health = S.pool().health();
  EXPECT_EQ(Health[0].Restarts, 0u);
  EXPECT_GE(Health[0].DeadlineExpired, 1u);
  S.stop();
}

TEST(ServeOverload, QueueBudgetShedsAndRetrySucceeds) {
  std::string DataDir = makeTempDir();
  ServerConfig Config = testServerConfig(1, DataDir);
  Config.QueueBudget = 2;
  Config.BreakerThreshold = 0; // isolate admission control
  Config.Pool.AbortGraceMs = 10000;
  Server S(std::move(Config));
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;

  Client C;
  ASSERT_TRUE(C.connect(S.port()));

  // Wedge the shard, then overflow the 2-deep budget: the overflow must
  // fast-fail ERR overloaded instead of queueing without bound.
  ASSERT_TRUE(C.sendLine("@r?deadline=800 [true] whileTrue."));
  const int N = 6;
  for (int I = 0; I < N; ++I)
    ASSERT_TRUE(C.sendLine("@q" + std::to_string(I) + " 1 + " +
                           std::to_string(I)));

  int Shed = 0, Served = 0, TimedOut = 0;
  for (int I = 0; I < N + 1; ++I) {
    std::string Line, Tag, Value;
    bool Ok = false;
    ASSERT_TRUE(C.recvLine(Line, 240.0));
    ASSERT_TRUE(parseResponseLine(Line, Ok, Tag, Value));
    if (Ok)
      ++Served;
    else if (Value.find("overloaded") != std::string::npos)
      ++Shed;
    else if (Value.find("RequestTimeout") != std::string::npos)
      ++TimedOut;
  }
  EXPECT_EQ(TimedOut, 1); // the runaway
  EXPECT_GE(Shed, 1) << "budget never shed";
  EXPECT_GE(Served, 1) << "admitted requests must still answer";
  EXPECT_GE(S.stats().Shed.value(), 1u);

  // Once the shard drains, a backoff-retried request gets through.
  bool Ok = false;
  std::string Value;
  ASSERT_TRUE(C.evalRetry("2 + 2", Ok, Value, 240.0));
  EXPECT_TRUE(Ok) << Value;
  EXPECT_EQ(Value, "4");
  EXPECT_EQ(S.pool().health()[0].Restarts, 0u);
  S.stop();
}

TEST(ServeOverload, BreakerOpensAfterConsecutiveExpiriesAndRecloses) {
  std::string DataDir = makeTempDir();
  ServerConfig Config = testServerConfig(1, DataDir);
  Config.BreakerThreshold = 2;
  Config.BreakerOpenMs = 400;
  Config.QueueBudget = 0; // isolate the breaker
  Config.Pool.AbortGraceMs = 10000;
  Server S(std::move(Config));
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;

  Client C;
  ASSERT_TRUE(C.connect(S.port()));
  bool Ok = false;
  std::string Value;

  // Two consecutive deadline expiries trip the breaker.
  for (int I = 0; I < 2; ++I) {
    ASSERT_TRUE(C.eval("@?deadline=150 [true] whileTrue.", Ok, Value,
                       240.0));
    EXPECT_FALSE(Ok);
    EXPECT_NE(Value.find("RequestTimeout"), std::string::npos) << Value;
  }

  // Open: evaluations shed instantly, and health says so.
  ASSERT_TRUE(C.eval("1 + 1", Ok, Value, 240.0));
  EXPECT_FALSE(Ok);
  EXPECT_NE(Value.find("circuit breaker open"), std::string::npos)
      << Value;
  std::string Json;
  ASSERT_TRUE(C.eval("!health", Ok, Json));
  ASSERT_TRUE(Ok);
  EXPECT_NE(Json.find("\"breaker\":\"open\""), std::string::npos);

  // evalRetry backs off past the open window; its attempt becomes the
  // half-open probe, succeeds, and recloses the breaker.
  ASSERT_TRUE(C.evalRetry("2 + 3", Ok, Value, 240.0, 12, 20));
  EXPECT_TRUE(Ok) << Value;
  EXPECT_EQ(Value, "5");
  ASSERT_TRUE(C.eval("3 + 4", Ok, Value, 240.0));
  EXPECT_TRUE(Ok) << Value;
  EXPECT_EQ(Value, "7");
  ASSERT_TRUE(C.eval("!health", Ok, Json));
  ASSERT_TRUE(Ok);
  EXPECT_NE(Json.find("\"breaker\":\"closed\""), std::string::npos);
  EXPECT_GE(S.stats().BreakerOpen.value(), 1u);
  S.stop();
}

// --- Durability: write-ahead journal + replay ----------------------------

TEST(ServeJournal, KillPreservesAcknowledgedUncheckpointedState) {
  std::string DataDir = makeTempDir();
  ServerConfig Config = testServerConfig(1, DataDir);
  Config.Pool.Journal = true;
  Server S(std::move(Config));
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;

  Client C;
  ASSERT_TRUE(C.connect(S.port()));
  bool Ok = false;
  std::string Value;
  ASSERT_TRUE(C.eval("Smalltalk at: #K put: 42", Ok, Value));
  ASSERT_TRUE(Ok);
  ASSERT_TRUE(C.eval("!checkpoint", Ok, Value, 120.0));
  ASSERT_TRUE(Ok) << Value;

  // Acknowledged after the checkpoint: without the journal this is
  // exactly the state KillRestartsShardFromLastCommittedCheckpoint
  // proves gets rolled back.
  ASSERT_TRUE(C.eval("Smalltalk at: #K put: 99", Ok, Value));
  ASSERT_TRUE(Ok);

  ASSERT_TRUE(C.eval("!kill 0", Ok, Value, 120.0));
  EXPECT_TRUE(Ok) << Value;
  ASSERT_TRUE(C.eval("Smalltalk at: #K", Ok, Value, 120.0));
  ASSERT_TRUE(Ok) << Value;
  EXPECT_EQ(Value, "99") << "acknowledged write lost across the crash";

  auto Health = S.pool().health();
  EXPECT_GE(Health[0].Replayed, 1u);
  EXPECT_GT(Health[0].JournalBytes, 0u);

  // The health JSON carries the journal surface.
  std::string Json;
  ASSERT_TRUE(C.eval("!health", Ok, Json));
  ASSERT_TRUE(Ok);
  EXPECT_NE(Json.find("\"journal_bytes\":"), std::string::npos);
  EXPECT_NE(Json.find("\"replayed\":"), std::string::npos);
  EXPECT_NE(Json.find("\"dedup_size\":"), std::string::npos);
  EXPECT_NE(Json.find("\"dedup_hits\":"), std::string::npos);
  S.stop();
}

TEST(ServeJournal, BoundSessionResendIsAnsweredFromDedupNotReExecuted) {
  std::string DataDir = makeTempDir();
  ServerConfig Config = testServerConfig(2, DataDir);
  Config.Pool.Journal = true;
  Server S(std::move(Config));
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;

  Client C;
  ASSERT_TRUE(C.connect(S.port()));
  ASSERT_TRUE(C.bindSession(41)); // pins to shard 41 % 2 = 1
  EXPECT_TRUE(C.bound());

  bool Ok = false;
  std::string Value;
  ASSERT_TRUE(C.eval("Smalltalk at: #Cnt put: 0", Ok, Value));
  ASSERT_TRUE(Ok);

  // An explicit seq'd increment, then a manual resend of the SAME seq:
  // the dedup table must answer with the original response and the
  // increment must not run twice.
  const std::string Inc =
      "Smalltalk at: #Cnt put: (Smalltalk at: #Cnt) + 1";
  ASSERT_TRUE(C.sendLine("@?seq=700 " + Inc));
  std::string Line, Tag, First;
  ASSERT_TRUE(C.recvLine(Line, 120.0));
  ASSERT_TRUE(parseResponseLine(Line, Ok, Tag, First));
  ASSERT_TRUE(Ok) << First;

  ASSERT_TRUE(C.sendLine("@?seq=700 " + Inc));
  ASSERT_TRUE(C.recvLine(Line, 120.0));
  ASSERT_TRUE(parseResponseLine(Line, Ok, Tag, Value));
  EXPECT_TRUE(Ok);
  EXPECT_EQ(Value, First) << "resend must replay the cached response";

  ASSERT_TRUE(C.eval("Smalltalk at: #Cnt", Ok, Value));
  ASSERT_TRUE(Ok);
  EXPECT_EQ(Value, "1") << "dedup failed: the increment ran twice";
  EXPECT_GE(S.stats().DedupHits.value(), 1u);

  // ?seq= without a bound session is refused (a fresh connection's
  // implicit identity would silently collide across reconnects).
  Client U;
  ASSERT_TRUE(U.connect(S.port()));
  ASSERT_TRUE(U.sendLine("@?seq=1 1 + 1"));
  ASSERT_TRUE(U.recvLine(Line, 120.0));
  ASSERT_TRUE(parseResponseLine(Line, Ok, Tag, Value));
  EXPECT_FALSE(Ok);
  EXPECT_NE(Value.find("!session"), std::string::npos) << Value;
  S.stop();
}

TEST(ServeJournal, EvalRetryReconnectsRebindsAndDedups) {
  std::string DataDir = makeTempDir();
  ServerConfig Config = testServerConfig(1, DataDir);
  Config.Pool.Journal = true;
  Server S(std::move(Config));
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;

  Client C;
  ASSERT_TRUE(C.connect(S.port()));
  ASSERT_TRUE(C.bindSession(7));
  bool Ok = false;
  std::string Value;
  ASSERT_TRUE(C.evalRetry("Smalltalk at: #R put: 5", Ok, Value, 120.0));
  ASSERT_TRUE(Ok) << Value;

  // Sever the transport under the client's feet: evalRetry must
  // reconnect, rebind the same identity, and still serve exactly-once.
  C.disconnect();
  ASSERT_TRUE(
      C.evalRetry("Smalltalk at: #R put: (Smalltalk at: #R) + 1", Ok,
                  Value, 120.0));
  EXPECT_TRUE(Ok) << Value;
  ASSERT_TRUE(C.evalRetry("Smalltalk at: #R", Ok, Value, 120.0));
  ASSERT_TRUE(Ok);
  EXPECT_EQ(Value, "6");
  S.stop();
}

// Satellite regression: checkpoint commit vs journal truncation ordering.
// A crash in the window between the checkpoint rename landing and the
// journal truncation (here: the truncation failing outright, which leaves
// the same on-disk state) must replay to exactly the acknowledged state —
// no lost writes, no double-applied increments from below-mark records.
TEST(ServeJournal, KillBetweenCheckpointCommitAndTruncationConverges) {
  std::string DataDir = makeTempDir();
  ServerConfig Config = testServerConfig(1, DataDir);
  Config.Pool.Journal = true;
  Config.Pool.KeepGenerations = 0; // first commit truncates for real
  Server S(std::move(Config));
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;

  Client C;
  ASSERT_TRUE(C.connect(S.port()));
  bool Ok = false;
  std::string Value;
  ASSERT_TRUE(C.eval("Smalltalk at: #C put: 0", Ok, Value));
  ASSERT_TRUE(Ok);
  ASSERT_TRUE(
      C.eval("Smalltalk at: #C put: (Smalltalk at: #C) + 1", Ok, Value));
  ASSERT_TRUE(Ok); // C = 1, journaled below the mark

  chaos::armFail("journal.truncate.fail", 1000, 99);
  ASSERT_TRUE(C.eval("!checkpoint", Ok, Value, 120.0));
  EXPECT_TRUE(Ok) << Value; // rename landed; truncation injected-failed
  EXPECT_GE(chaos::failCount("journal.truncate.fail"), 1u);
  chaos::disarmFail();

  ASSERT_TRUE(
      C.eval("Smalltalk at: #C put: (Smalltalk at: #C) + 1", Ok, Value));
  ASSERT_TRUE(Ok); // C = 2, journaled past the mark

  ASSERT_TRUE(C.eval("!kill 0", Ok, Value, 120.0));
  EXPECT_TRUE(Ok) << Value;
  ASSERT_TRUE(C.eval("Smalltalk at: #C", Ok, Value, 120.0));
  ASSERT_TRUE(Ok) << Value;
  // Below-mark intents (put 0, first increment) must NOT re-apply on top
  // of the checkpoint that already contains them.
  EXPECT_EQ(Value, "2") << "replay double-applied or lost an increment";
  S.stop();
}

TEST(ServeDrainDeadline, QueuedRequestsGetCleanErrAtTheDrainDeadline) {
  std::string DataDir = makeTempDir();
  ServerConfig Config = testServerConfig(1, DataDir);
  Config.DrainTimeoutSec = 1.0;
  Config.Pool.AbortGraceMs = 10000;
  Server S(std::move(Config));
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;

  Client C;
  ASSERT_TRUE(C.connect(S.port()));

  // Wedge the shard past the drain deadline, queue work behind it, then
  // drain: the unanswerable requests must get a clean ERR (not a dropped
  // connection) and the server must still exit.
  ASSERT_TRUE(C.sendLine("@r?deadline=2500 [true] whileTrue."));
  for (int I = 0; I < 3; ++I)
    ASSERT_TRUE(C.sendLine("@q" + std::to_string(I) + " 1 + 1"));
  ASSERT_TRUE(C.sendLine("!drain"));

  int DrainAcks = 0, Expired = 0, Other = 0;
  std::string Line, Tag, Value;
  bool Ok = false;
  while (C.recvLine(Line, 240.0)) {
    ASSERT_TRUE(parseResponseLine(Line, Ok, Tag, Value));
    if (Ok && Value == "draining")
      ++DrainAcks;
    else if (!Ok && Value.find("draining") != std::string::npos)
      ++Expired;
    else
      ++Other;
  }
  EXPECT_EQ(DrainAcks, 1);
  EXPECT_EQ(Expired, 4) << "runaway + 3 queued requests";
  EXPECT_EQ(Other, 0);
  EXPECT_TRUE(S.waitStopped(240.0));
  S.stop();
}

} // namespace
