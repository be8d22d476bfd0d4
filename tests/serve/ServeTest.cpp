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

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iterator>
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

TEST_F(ServeTest, PipelinedAnswersShareASocketWritePerRound) {
  // The front-end appends every answer of a delivery round to its
  // session's buffer, and the next poll's POLLOUT writes it once, so one
  // session's 64 pipelined answers cost at most one write per batch.
  Client C = connect();
  ASSERT_TRUE(C.bindSession(7));
  auto BatchesRun = [this] {
    uint64_t N = 0;
    for (const Shard::Health &H : S->pool().health())
      N += H.Batches;
    return N;
  };
  uint64_t Writes = S->stats().SocketWrites.value();
  uint64_t Batches = BatchesRun();
  const int N = 64;
  std::string Lines;
  for (int I = 0; I < N; ++I)
    Lines += (I ? "\n@r" : "@r") + std::to_string(I) + " 3 + 4 * " +
             std::to_string(I);
  ASSERT_TRUE(C.sendLine(Lines)); // one write() for all 64 lines
  for (int I = 0; I < N; ++I) {
    std::string Line, Tag, Value;
    bool Ok = false;
    ASSERT_TRUE(C.recvLine(Line));
    ASSERT_TRUE(parseResponseLine(Line, Ok, Tag, Value));
    EXPECT_TRUE(Ok) << Value;
    EXPECT_EQ(Tag, "@r" + std::to_string(I));
    EXPECT_EQ(Value, std::to_string(7 * I)); // (3 + 4) * I
  }
  Writes = S->stats().SocketWrites.value() - Writes;
  Batches = BatchesRun() - Batches;
  EXPECT_LT(Writes, static_cast<uint64_t>(N));
  EXPECT_LE(Writes, Batches) << Writes << " writes for " << Batches
                             << " batches";
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
  EXPECT_NE(Json.find("\"serve.queue.depth\""), std::string::npos);
  EXPECT_NE(Json.find("\"serve.queue.wait\""), std::string::npos);
  EXPECT_NE(Json.find("\"serve.shed\""), std::string::npos);
  EXPECT_NE(Json.find("\"serve.socket.writes\""), std::string::npos);
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

// --- Session rules: pipeline cap, line limit, rebinding ------------------

TEST(ServeSession, PipelineCapParksReadsAndResumesInOrder) {
  for (size_t Cap : {1, 4}) {
    SCOPED_TRACE("cap " + std::to_string(Cap));
    std::string DataDir = makeTempDir();
    ServerConfig Config = testServerConfig(1, DataDir);
    Config.MaxPipeline = Cap;
    Server S(std::move(Config));
    std::string Error;
    ASSERT_TRUE(S.start(Error)) << Error;

    // Sixteen lines in one write: the session stops parsing at the cap
    // and resumes from its buffer as the answers drain, since the client
    // has nothing more to send.
    Client C;
    ASSERT_TRUE(C.connect(S.port()));
    const int N = 16;
    std::string Lines;
    for (int I = 0; I < N; ++I)
      Lines += (I ? "\n@r" : "@r") + std::to_string(I) + " " +
               std::to_string(I) + " * 2";
    ASSERT_TRUE(C.sendLine(Lines));
    for (int I = 0; I < N; ++I) {
      std::string Line, Tag, Value;
      bool Ok = false;
      ASSERT_TRUE(C.recvLine(Line, 120.0)) << "no answer for @r" << I;
      ASSERT_TRUE(parseResponseLine(Line, Ok, Tag, Value));
      EXPECT_TRUE(Ok) << Value;
      EXPECT_EQ(Tag, "@r" + std::to_string(I));
      EXPECT_EQ(Value, std::to_string(2 * I));
    }
    S.stop();
  }
}

TEST_F(ServeTest, OverlongLineIsRefusedAndTheSessionClosed) {
  // 70,000 bytes and no newline: past the 64 KiB line limit the server
  // stops waiting for the line's end, answers ERR and hangs up. Client
  // appends a newline to every line, so this one goes out raw.
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(S->port());
  ASSERT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr),
            0);
  std::string Junk(70000, 'x');
  for (size_t Off = 0; Off < Junk.size();) {
    ssize_t N = ::send(Fd, Junk.data() + Off, Junk.size() - Off, 0);
    ASSERT_GT(N, 0);
    Off += static_cast<size_t>(N);
  }
  std::string Got;
  bool Closed = false;
  while (!Closed) {
    pollfd P{Fd, POLLIN, 0};
    ASSERT_EQ(::poll(&P, 1, 120000), 1) << "no answer, no close; got: " << Got;
    char Buf[256];
    ssize_t N = ::recv(Fd, Buf, sizeof Buf, 0);
    if (N <= 0)
      Closed = true;
    else
      Got.append(Buf, static_cast<size_t>(N));
  }
  ::close(Fd);
  EXPECT_EQ(Got, "ERR request line too long\n");
}

TEST_F(ServeTest, SessionRebindWithRequestsInFlightIsRefused) {
  // Both lines arrive in one read, so the eval is still in flight when
  // `!session` is parsed. Rebinding then would split this connection's
  // answers across two client identities.
  Client C = connect();
  ASSERT_TRUE(C.sendLine("@slow | t | 1 to: 300000 do: [:i | t := i]. ^0\n"
                         "!session 9"));
  std::string Line, Tag, Value;
  bool Ok = true;
  ASSERT_TRUE(C.recvLine(Line, 120.0));
  ASSERT_TRUE(parseResponseLine(Line, Ok, Tag, Value));
  EXPECT_FALSE(Ok);
  EXPECT_EQ(Value, "!session refused: requests still in flight");
  ASSERT_TRUE(C.recvLine(Line, 120.0));
  ASSERT_TRUE(parseResponseLine(Line, Ok, Tag, Value));
  EXPECT_TRUE(Ok) << Value;
  EXPECT_EQ(Tag, "@slow");
  EXPECT_EQ(Value, "0");
}

// --- Periodic checkpoints ------------------------------------------------

uint64_t counterTotal(const char *Name) {
  for (const auto &[N, Value] : Telemetry::counterTotals())
    if (N == Name)
      return Value;
  return 0;
}

TEST(ServeCheckpoint, PeriodicCheckpointRunsOnceAfterWorkAndNotWhileIdle) {
  constexpr uint64_t PeriodMs = 50;
  std::string DataDir = makeTempDir();
  ServerConfig Config = testServerConfig(2, DataDir);
  Config.Pool.CheckpointEveryMs = PeriodMs;
  uint64_t Before = counterTotal("img.save.snapshots");
  Server S(std::move(Config));
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;
  auto Saved = [&] { return counterTotal("img.save.snapshots") - Before; };

  // Freshly booted shards have nothing to save.
  std::this_thread::sleep_for(std::chrono::milliseconds(4 * PeriodMs));
  EXPECT_EQ(Saved(), 0u);

  Client C;
  ASSERT_TRUE(C.connect(S.port())); // session 0 -> shard 0
  bool Ok = false;
  std::string Value;
  ASSERT_TRUE(C.eval("3 + 4", Ok, Value));
  ASSERT_TRUE(Ok) << Value;

  // The checkpoint the eval made due lands with no further request to
  // the shard, and !health (answered by the front-end) counts it.
  std::string Json;
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  do {
    ASSERT_TRUE(C.eval("!health", Ok, Json));
    ASSERT_TRUE(Ok);
    if (Json.find("\"checkpoints\":1,") != std::string::npos)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  } while (std::chrono::steady_clock::now() < Deadline);
  EXPECT_NE(Json.find("\"checkpoints\":1,"), std::string::npos) << Json;
  EXPECT_EQ(Saved(), 1u);

  // Clean again: more than ten periods pass without another image.
  std::this_thread::sleep_for(std::chrono::milliseconds(12 * PeriodMs));
  EXPECT_EQ(Saved(), 1u);
  auto Health = S.pool().health();
  EXPECT_EQ(Health[0].Checkpoints, 1u);
  EXPECT_EQ(Health[1].Checkpoints, 0u);
  S.stop();
}

TEST(ServeCheckpoint, PeriodicCheckpointNeverHoldsHalfARequest) {
  // A long request spans many periods. Every image the shard commits
  // must hold either none of it or all of it.
  std::string DataDir = makeTempDir();
  ServerConfig Config = testServerConfig(1, DataDir);
  Config.Pool.CheckpointEveryMs = 20;
  Server S(std::move(Config));
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;

  Client C;
  ASSERT_TRUE(C.connect(S.port()));
  bool Ok = false;
  std::string Value;
  ASSERT_TRUE(
      C.eval("Smalltalk at: #A put: (Smalltalk at: #B put: 0)", Ok, Value));
  ASSERT_TRUE(Ok) << Value;
  ASSERT_TRUE(C.eval("!checkpoint", Ok, Value, 120.0));
  ASSERT_TRUE(Ok) << Value;
  ASSERT_TRUE(C.eval("| t | Smalltalk at: #A put: 1. "
                     "1 to: 10000000 do: [:i | t := i]. "
                     "Smalltalk at: #B put: 1. ^'done'",
                     Ok, Value, 600.0));
  ASSERT_TRUE(Ok) << Value;

  ASSERT_TRUE(C.eval("!kill 0", Ok, Value, 120.0));
  ASSERT_TRUE(Ok) << Value;
  ASSERT_TRUE(C.eval("^(Smalltalk at: #A) printString, ' ', "
                     "(Smalltalk at: #B) printString",
                     Ok, Value, 120.0));
  ASSERT_TRUE(Ok) << Value;
  EXPECT_TRUE(Value == "0 0" || Value == "1 1")
      << "the reboot loaded a checkpoint taken mid-request: " << Value;
  S.stop();
}

// --- Threads ---------------------------------------------------------------

namespace {
size_t processThreads() {
  std::error_code Ec;
  std::filesystem::directory_iterator It("/proc/self/task", Ec);
  return Ec ? 0 : static_cast<size_t>(std::distance(It, {}));
}
} // namespace

TEST(ServeThreads, EachShardRunsOnOneThread) {
  // A serving process adds its event loop plus one thread per shard;
  // the shard thread enforces request deadlines and takes the periodic
  // checkpoints itself.
  constexpr unsigned Shards = 3;
  std::string DataDir = makeTempDir();
  ServerConfig Config = testServerConfig(Shards, DataDir);
  Config.Pool.CheckpointEveryMs = 50;
  // ThreadSanitizer's runtime starts a helper thread when the process
  // creates its first thread; create one first so it is already counted.
  std::thread([] {}).join();
  size_t Before = processThreads();
  ASSERT_GT(Before, 0u) << "cannot list /proc/self/task";
  Server S(std::move(Config));
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;
  EXPECT_EQ(processThreads(), Before + Shards + 1);
  S.stop();
}

// --- Deadlines, runaway abort, and overload control ----------------------

TEST(ServeDeadline, RunawayAnswersErrWithinTwiceTheDeadline) {
  std::string DataDir = makeTempDir();
  Server S(testServerConfig(2, DataDir));
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
  // The shard counts the dedup answer as one of its requests, exactly
  // once: set, increment, resend, read.
  auto Health = S.pool().health();
  EXPECT_EQ(Health[1].Requests, 4u);
  EXPECT_EQ(Health[1].DedupHits, 1u);
  EXPECT_EQ(Health[0].Requests, 0u);

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

// A kill between a save's rotation and its rename leaves the newest
// image at `<path>.1` and no `<path>`. The reboot must load it through
// the ladder: the journal was truncated to that image's mark, so the base
// image plus the journal no longer holds the acknowledged writes.
TEST(ServeJournal, KillBetweenRotationAndRenameBootsFromTheRotatedImage) {
  std::string DataDir = makeTempDir();
  auto Config = [&] {
    ServerConfig C = testServerConfig(1, DataDir);
    C.Pool.Journal = true;
    C.Pool.KeepGenerations = 1;
    return C;
  };
  bool Ok = false;
  std::string Error, Value;
  {
    Server S(Config());
    ASSERT_TRUE(S.start(Error)) << Error;
    Client C;
    ASSERT_TRUE(C.connect(S.port()));
    ASSERT_TRUE(C.bindSession(1)); // every eval carries a ?seq=
    ASSERT_TRUE(C.eval("Smalltalk at: #C put: 0", Ok, Value));
    ASSERT_TRUE(Ok) << Value;
    for (int I = 1; I <= 9; ++I) {
      ASSERT_TRUE(C.eval("Smalltalk at: #C put: (Smalltalk at: #C) + 1",
                         Ok, Value));
      ASSERT_TRUE(Ok) << Value;
      if (I % 3 == 0) {
        ASSERT_TRUE(C.eval("!checkpoint", Ok, Value, 120.0));
        ASSERT_TRUE(Ok) << Value;
      }
    }
    S.stop();
  }

  std::string Image = shardImagePath(DataDir, 0);
  ASSERT_EQ(std::rename(Image.c_str(), (Image + ".1").c_str()), 0);
  Server S(Config());
  ASSERT_TRUE(S.start(Error)) << Error;
  Client C;
  ASSERT_TRUE(C.connect(S.port()));
  ASSERT_TRUE(C.eval("Smalltalk at: #C", Ok, Value, 120.0));
  EXPECT_TRUE(Ok) << Value;
  EXPECT_EQ(Value, "9");
  S.stop();
}

// A `!checkpoint` pipelined between increments: the image holds exactly
// the increments ahead of it. With a journal, the reboot replays the two
// behind it; without one, they roll back.
TEST(ServeJournal, CheckpointAmidPipelinedIncrementsCoversWhatRanBeforeIt) {
  for (bool Journaled : {true, false}) {
    SCOPED_TRACE(Journaled ? "journaled" : "unjournaled");
    std::string DataDir = makeTempDir();
    ServerConfig Config = testServerConfig(1, DataDir);
    Config.Pool.Journal = Journaled;
    Server S(std::move(Config));
    std::string Error;
    ASSERT_TRUE(S.start(Error)) << Error;

    Client C;
    ASSERT_TRUE(C.connect(S.port()));
    bool Ok = false;
    std::string Value;
    ASSERT_TRUE(C.eval("Smalltalk at: #C put: 0", Ok, Value));
    ASSERT_TRUE(Ok) << Value;

    // The slow eval holds the shard while the rest queue up behind it.
    const std::string Inc = "Smalltalk at: #C put: (Smalltalk at: #C) + 1";
    for (const std::string &Line :
         {std::string("| t | 1 to: 300000 do: [:i | t := i]. ^0"), Inc,
          std::string("!checkpoint"), Inc, Inc})
      ASSERT_TRUE(C.sendLine(Line));
    for (int I = 0; I < 5; ++I) {
      std::string Line, Tag;
      ASSERT_TRUE(C.recvLine(Line, 120.0));
      ASSERT_TRUE(parseResponseLine(Line, Ok, Tag, Value));
      EXPECT_TRUE(Ok) << Value;
    }

    ASSERT_TRUE(C.eval("!kill 0", Ok, Value, 120.0));
    ASSERT_TRUE(Ok) << Value;
    ASSERT_TRUE(C.eval("Smalltalk at: #C", Ok, Value, 120.0));
    ASSERT_TRUE(Ok) << Value;
    EXPECT_EQ(Value, Journaled ? "3" : "1");
    S.stop();
  }
}

// A checkpoint's mark covers every record the shard appended, synced or
// not. A crash that tears the unsynced tail must not leave the journal
// ending below that mark: records appended after the reboot would land
// below it, and the next reboot from the same image would skip them.
TEST(ServeJournal, TornTailUnderACheckpointMarkLosesNoLaterWrite) {
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
  const std::string Inc = "Smalltalk at: #C put: (Smalltalk at: #C) + 1";
  ASSERT_TRUE(C.eval("Smalltalk at: #C put: 0", Ok, Value));
  ASSERT_TRUE(C.eval(Inc, Ok, Value));
  ASSERT_TRUE(Ok) << Value; // its Executed outcome waits for a sync
  ASSERT_TRUE(C.eval("!checkpoint", Ok, Value, 120.0));
  ASSERT_TRUE(Ok) << Value;

  chaos::armFail("journal.tear", 1000, 7);
  ASSERT_TRUE(C.eval("!kill 0", Ok, Value, 120.0));
  EXPECT_TRUE(Ok) << Value;
  chaos::disarmFail();
  ASSERT_TRUE(C.eval(Inc, Ok, Value, 120.0));
  ASSERT_TRUE(Ok) << Value;
  EXPECT_EQ(Value, "2");

  ASSERT_TRUE(C.eval("!kill 0", Ok, Value, 120.0));
  EXPECT_TRUE(Ok) << Value;
  ASSERT_TRUE(C.eval("Smalltalk at: #C", Ok, Value, 120.0));
  ASSERT_TRUE(Ok) << Value;
  EXPECT_EQ(Value, "2") << "an acknowledged increment was lost";
  S.stop();
}

// A timed-out request's journal outcome carries its ERR, so replay
// answers from the record: re-running the runaway would hold the reboot
// for the whole replay deadline, and count as a replayed intent.
TEST(ServeJournal, ReplayAnswersATimedOutRequestWithoutReRunningIt) {
  std::string DataDir = makeTempDir();
  ServerConfig Config = testServerConfig(1, DataDir);
  Config.Pool.Journal = true;
  Server S(std::move(Config));
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;

  Client Admin, C;
  ASSERT_TRUE(Admin.connect(S.port()));
  ASSERT_TRUE(C.connect(S.port()));
  ASSERT_TRUE(C.bindSession(3));
  bool Ok = false;
  std::string Line, Tag, Value;
  ASSERT_TRUE(Admin.eval("!checkpoint", Ok, Value, 120.0));
  ASSERT_TRUE(Ok) << Value;
  ASSERT_TRUE(C.sendLine("@a?deadline=100&seq=1 [true] whileTrue."));
  ASSERT_TRUE(C.recvLine(Line, 120.0));
  ASSERT_TRUE(parseResponseLine(Line, Ok, Tag, Value));
  EXPECT_FALSE(Ok);
  EXPECT_NE(Value.find("RequestTimeout"), std::string::npos) << Value;

  // The kill answers once the reboot, replay included, is done.
  auto T0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(Admin.eval("!kill 0", Ok, Value, 120.0));
  EXPECT_TRUE(Ok) << Value;
  auto Ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - T0)
                .count();
  EXPECT_LT(Ms, 2500) << "replay re-ran the runaway up to its 5 s deadline";
  EXPECT_EQ(S.pool().health()[0].Replayed, 0u);
  S.stop();
}

// Two bound clients whose (client, seq) pairs differ but which the old
// mixed 64-bit in-flight key mapped to the same value: both requests
// run, in one batch, behind a third session's runaway.
TEST(ServeJournal, DistinctSeqPairsInOneBatchBothExecute) {
  std::string DataDir = makeTempDir();
  ServerConfig Config = testServerConfig(1, DataDir);
  Config.Pool.Journal = true;
  Server S(std::move(Config));
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;

  Client A, B, Busy;
  ASSERT_TRUE(A.connect(S.port()));
  ASSERT_TRUE(B.connect(S.port()));
  ASSERT_TRUE(Busy.connect(S.port()));
  ASSERT_TRUE(A.bindSession(1));
  ASSERT_TRUE(B.bindSession(2));
  bool Ok = false;
  std::string Line, Tag, Value;
  ASSERT_TRUE(Busy.eval("Smalltalk at: #C put: 0", Ok, Value));
  ASSERT_TRUE(Ok) << Value;

  // The runaway holds the shard; both increments queue behind it.
  uint64_t Batches = S.pool().health()[0].Batches;
  ASSERT_TRUE(Busy.sendLine("@busy?deadline=500 [true] whileTrue."));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const std::string Inc = " Smalltalk at: #C put: (Smalltalk at: #C) + 1";
  ASSERT_TRUE(A.sendLine("@a?seq=1" + Inc));
  ASSERT_TRUE(B.sendLine("@b?seq=6793268496247915532" + Inc));
  for (Client *C : {&A, &B}) {
    ASSERT_TRUE(C->recvLine(Line, 120.0));
    ASSERT_TRUE(parseResponseLine(Line, Ok, Tag, Value));
    EXPECT_TRUE(Ok) << Tag << ": " << Value;
  }
  ASSERT_TRUE(Busy.recvLine(Line, 120.0));
  EXPECT_EQ(S.pool().health()[0].Batches - Batches, 2u)
      << "the two increments did not share a batch";
  ASSERT_TRUE(Busy.eval("Smalltalk at: #C", Ok, Value));
  ASSERT_TRUE(Ok) << Value;
  EXPECT_EQ(Value, "2");
  S.stop();
}

// A resend racing its original in one batch is refused, exactly as
// before: the counter rises once.
TEST(ServeJournal, ResendInTheSameBatchIsRefusedAsInFlight) {
  std::string DataDir = makeTempDir();
  ServerConfig Config = testServerConfig(1, DataDir);
  Config.Pool.Journal = true;
  Server S(std::move(Config));
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;

  Client A, Busy;
  ASSERT_TRUE(A.connect(S.port()));
  ASSERT_TRUE(Busy.connect(S.port()));
  ASSERT_TRUE(A.bindSession(1));
  bool Ok = false;
  std::string Line, Tag, Value;
  ASSERT_TRUE(Busy.eval("Smalltalk at: #C put: 0", Ok, Value));
  ASSERT_TRUE(Ok) << Value;

  uint64_t Batches = S.pool().health()[0].Batches;
  ASSERT_TRUE(Busy.sendLine("@busy?deadline=500 [true] whileTrue."));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const std::string Inc =
      "@a?seq=5 Smalltalk at: #C put: (Smalltalk at: #C) + 1";
  ASSERT_TRUE(A.sendLine(Inc + "\n" + Inc));
  ASSERT_TRUE(A.recvLine(Line, 120.0));
  ASSERT_TRUE(parseResponseLine(Line, Ok, Tag, Value));
  EXPECT_TRUE(Ok) << Value;
  EXPECT_EQ(Value, "1");
  ASSERT_TRUE(A.recvLine(Line, 120.0));
  ASSERT_TRUE(parseResponseLine(Line, Ok, Tag, Value));
  EXPECT_FALSE(Ok);
  EXPECT_EQ(Value, "overloaded: request seq 5 still in flight; retry later");
  ASSERT_TRUE(Busy.recvLine(Line, 120.0));
  EXPECT_EQ(S.pool().health()[0].Batches - Batches, 2u)
      << "the resend did not share its original's batch";
  ASSERT_TRUE(Busy.eval("Smalltalk at: #C", Ok, Value));
  ASSERT_TRUE(Ok) << Value;
  EXPECT_EQ(Value, "1");
  S.stop();
}

TEST(ServeDrainDeadline, QueuedRequestsGetCleanErrAtTheDrainDeadline) {
  std::string DataDir = makeTempDir();
  ServerConfig Config = testServerConfig(1, DataDir);
  Config.DrainTimeoutSec = 1.0;
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
