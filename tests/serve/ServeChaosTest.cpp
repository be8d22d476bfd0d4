//===-- tests/serve/ServeChaosTest.cpp - Serving under fault storms -------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving layer's stress suite: session churn and real traffic while
/// the `serve.shard.crash` fail point (or an admin kill storm) keeps
/// tearing shards down mid-batch. Invariants under fire:
///
///  - a crashed shard's queued requests answer ERR, never vanish;
///  - every other shard keeps serving while the victim reboots;
///  - the victim comes back from its last committed checkpoint and
///    serves again;
///  - the server survives the whole storm and still drains cleanly.
///
/// The CI `serve` lane reruns this binary under TSan with the fail point
/// armed from the environment (MST_CHAOS_SHARD_CRASH_PM).
///
//===----------------------------------------------------------------------===//

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/Client.h"
#include "serve/Server.h"
#include "serve/ServeTestUtil.h"
#include "stress/StressSupport.h"
#include "vkernel/Chaos.h"

using namespace mst;
using namespace mst::serve;
using namespace mst::serve_test;

namespace {

uint64_t restartTotal(const std::vector<Shard::Health> &H) {
  uint64_t N = 0;
  for (const auto &S : H)
    N += S.Restarts;
  return N;
}

/// Runs traffic through one churning session: connect, a handful of
/// evals, disconnect, repeat. Crash-window ERR responses are expected;
/// transport failures are not (the server must never drop a connection
/// because a *shard* died).
void churn(uint16_t Port, int Rounds, std::atomic<uint64_t> &Oks,
           std::atomic<uint64_t> &Errs, std::atomic<bool> &Failed) {
  for (int R = 0; R < Rounds && !Failed; ++R) {
    Client C;
    if (!C.connect(Port)) {
      Failed = true;
      return;
    }
    for (int I = 0; I < 8; ++I) {
      bool Ok = false;
      std::string Value;
      if (!C.eval(std::to_string(I) + " + " + std::to_string(R), Ok, Value,
                  240.0)) {
        Failed = true; // transport failure or timeout
        return;
      }
      if (Ok) {
        if (Value != std::to_string(I + R)) {
          ADD_FAILURE() << "wrong answer: " << Value;
          Failed = true;
          return;
        }
        ++Oks;
      } else {
        ++Errs; // caught a crash window
      }
    }
  }
}

TEST(ServeChaos, SessionChurnSurvivesShardCrashStorm) {
  std::string DataDir = makeTempDir();
  ServerConfig Config = testServerConfig(2, DataDir);
  Server S(Config);
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;

  // Seed each shard's checkpoint so crash recovery has something
  // committed to reboot from.
  {
    Client C;
    ASSERT_TRUE(C.connect(S.port()));
    ASSERT_TRUE(C.sendLine("!checkpoint"));
    for (unsigned I = 0; I < Config.Pool.Shards; ++I) {
      std::string Line;
      ASSERT_TRUE(C.recvLine(Line, 240.0));
    }
  }

  std::atomic<uint64_t> Oks{0}, Errs{0};
  std::atomic<bool> Failed{false};
  uint64_t Crashes = 0;
  {
    // Schedule chaos + env-armed fail points (the CI serve lane exports
    // MST_CHAOS_SHARD_CRASH_PM); standalone runs arm the crash point
    // themselves. ~8% of requests crash their shard mid-batch — across
    // the ~100+ requests below, a crash-free (vacuous) run is vanishingly
    // unlikely.
    uint64_t Seed = chaosSeeds().front();
    SCOPED_TRACE(seedTag(Seed));
    ScopedChaos Chaos(Seed);
    if (!std::getenv("MST_CHAOS_SHARD_CRASH_PM"))
      chaos::armFail("serve.shard.crash", 80, Seed);

    std::vector<std::thread> Workers;
    for (int W = 0; W < 3; ++W)
      Workers.emplace_back([&, W] {
        churn(S.port(), stressScale(6, 4) + W, Oks, Errs, Failed);
      });
    for (auto &T : Workers)
      T.join();
    Crashes = chaos::failCount("serve.shard.crash");
  } // chaos off and disarmed before the recovery checks below

  EXPECT_FALSE(Failed) << "a session saw a transport failure";
  EXPECT_GT(Oks.load(), 0u);

  // The storm must actually have crashed shards (otherwise this test
  // proves nothing) and every shard must be serving again.
  EXPECT_GT(Crashes, 0u);
  uint64_t Restarts = restartTotal(S.health());
  EXPECT_GT(Restarts, 0u);

  // Post-storm: both shards answer fresh sessions.
  for (int I = 0; I < 2; ++I) {
    Client C;
    ASSERT_TRUE(C.connect(S.port()));
    bool Ok = false;
    std::string Value;
    ASSERT_TRUE(C.eval("6 * 7", Ok, Value, 240.0));
    EXPECT_TRUE(Ok) << Value;
    EXPECT_EQ(Value, "42");
  }
  for (const auto &H : S.health())
    EXPECT_EQ(H.State, "serving");

  S.stop();
  EXPECT_TRUE(S.waitStopped(240.0));
}

TEST(ServeChaos, RequestStallStormAbortsRunawaysAndKeepsServing) {
  std::string DataDir = makeTempDir();
  ServerConfig Config = testServerConfig(2, DataDir);
  Config.RequestDeadlineMs = 300; // default deadline for every eval
  Server S(std::move(Config));
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;

  {
    Client C;
    ASSERT_TRUE(C.connect(S.port()));
    ASSERT_TRUE(C.sendLine("!checkpoint"));
    for (unsigned I = 0; I < 2; ++I) {
      std::string Line;
      ASSERT_TRUE(C.recvLine(Line, 240.0));
    }
  }

  std::atomic<uint64_t> Oks{0}, Errs{0};
  std::atomic<bool> Failed{false};
  uint64_t Stalls = 0;
  {
    // The CI serve lane arms MST_CHAOS_REQUEST_STALL_PM; standalone runs
    // arm the stall point themselves: ~8% of evals are rewritten into
    // `[true] whileTrue.` runaways that the in-VM deadline must unwind,
    // never wedging their shard.
    uint64_t Seed = chaosSeeds().front();
    SCOPED_TRACE(seedTag(Seed));
    ScopedChaos Chaos(Seed);
    if (!std::getenv("MST_CHAOS_REQUEST_STALL_PM"))
      chaos::armFail("serve.request.stall", 80, Seed);

    std::vector<std::thread> Workers;
    for (int W = 0; W < 3; ++W)
      Workers.emplace_back([&, W] {
        churn(S.port(), stressScale(6, 4) + W, Oks, Errs, Failed);
      });
    for (auto &T : Workers)
      T.join();
    Stalls = chaos::failCount("serve.request.stall");
  }

  EXPECT_FALSE(Failed) << "a session saw a transport failure or wedged";
  EXPECT_GT(Oks.load(), 0u);
  EXPECT_GT(Stalls, 0u) << "the storm never injected a runaway";
  EXPECT_GT(Errs.load(), 0u) << "stalled evals must answer ERR";

  // No shard is wedged: every shard serves fresh sessions, and the
  // deadline machinery (not luck) is what killed the runaways.
  uint64_t Expired = 0;
  for (const auto &H : S.health()) {
    EXPECT_EQ(H.State, "serving");
    Expired += H.DeadlineExpired;
  }
  EXPECT_GT(Expired, 0u);

  for (int I = 0; I < 2; ++I) {
    Client C;
    ASSERT_TRUE(C.connect(S.port()));
    bool Ok = false;
    std::string Value;
    ASSERT_TRUE(C.eval("6 * 7", Ok, Value, 240.0));
    EXPECT_TRUE(Ok) << Value;
    EXPECT_EQ(Value, "42");
  }
  S.stop();
  EXPECT_TRUE(S.waitStopped(240.0));
}

// Satellite: the circuit breaker's half-open probe racing fresh deadline
// expiries. Runaway evals trip the breaker; while it is open/half-open,
// more runaways and good requests keep arriving, so probe completions and
// new expiries interleave arbitrarily. The breaker must keep cycling
// open -> half-open -> (closed | open) without ever wedging the shard
// queue: every request answers, and after the storm the shard serves.
TEST(ServeChaos, BreakerHalfOpenProbeRacesDeadlineExpiries) {
  std::string DataDir = makeTempDir();
  ServerConfig Config = testServerConfig(1, DataDir);
  Config.BreakerThreshold = 2;
  Config.BreakerOpenMs = 60; // reopen fast: many half-open windows
  Config.QueueBudget = 0;
  Server S(std::move(Config));
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;

  std::atomic<uint64_t> Oks{0}, Timeouts{0}, Shed{0};
  std::atomic<bool> Failed{false};
  const int Workers = 3;
  const int Rounds = stressScale(8, 5);
  std::vector<std::thread> Pool;
  for (int W = 0; W < Workers; ++W)
    Pool.emplace_back([&, W] {
      Client C;
      if (!C.connect(S.port())) {
        Failed = true;
        return;
      }
      for (int R = 0; R < Rounds && !Failed; ++R) {
        bool Ok = false;
        std::string Value;
        // A runaway that will expire (feeding ConsecTimeouts and, when
        // it lands on a half-open probe, re-opening the breaker)...
        if (!C.eval("@?deadline=80 [true] whileTrue.", Ok, Value,
                    240.0)) {
          Failed = true;
          return;
        }
        if (!Ok && Value.find("RequestTimeout") != std::string::npos)
          ++Timeouts;
        else if (!Ok && Value.find("overloaded") != std::string::npos)
          ++Shed;
        // ...then a good request retried through the open window — its
        // attempt often *is* the half-open probe.
        if (!C.evalRetry(std::to_string(W) + " + " + std::to_string(R),
                         Ok, Value, 240.0, 10, 15)) {
          Failed = true;
          return;
        }
        if (Ok) {
          if (Value != std::to_string(W + R)) {
            ADD_FAILURE() << "wrong answer: " << Value;
            Failed = true;
            return;
          }
          ++Oks;
        } else if (Value.find("overloaded") != std::string::npos) {
          ++Shed; // breaker never gave way this round — legal
        }
      }
    });
  for (auto &T : Pool)
    T.join();

  EXPECT_FALSE(Failed) << "transport failure or a wedged request";
  EXPECT_GT(Oks.load(), 0u) << "the breaker never closed back";
  EXPECT_GT(Timeouts.load(), 0u) << "no expiries: the race never ran";
  EXPECT_GE(S.stats().BreakerOpen.value(), 1u) << "breaker never tripped";

  // The queue is not wedged and the breaker recloses: a retried request
  // succeeds, the shard never rebooted, and health converges to closed.
  Client C;
  ASSERT_TRUE(C.connect(S.port()));
  bool Ok = false;
  std::string Value;
  ASSERT_TRUE(C.evalRetry("6 * 7", Ok, Value, 240.0, 12, 30));
  EXPECT_TRUE(Ok) << Value;
  EXPECT_EQ(Value, "42");
  auto Health = S.health();
  EXPECT_EQ(Health[0].Restarts, 0u);
  EXPECT_EQ(Health[0].State, "serving");
  EXPECT_EQ(Health[0].QueueDepth, 0u);
  S.stop();
  EXPECT_TRUE(S.waitStopped(240.0));
}

// The tentpole acceptance storm: journaled shards under a kill + torn-
// tail barrage, 1000 bound sessions each running seq'd increments on its
// own counter. The invariant under fire is exactly-once for every
// acknowledged request: at session end the counter equals the number of
// OK-acknowledged increments — a lost acknowledged write reads low, a
// double-applied replay reads high. Checkpoints run throughout, so
// truncation, the JPOS mark, and multi-generation replay all cycle under
// the same storm.
TEST(ServeChaos, JournaledKillAndTearStormLosesNoAcknowledgedRequest) {
  std::string DataDir = makeTempDir();
  ServerConfig Config = testServerConfig(2, DataDir);
  Config.Pool.Journal = true;
  Config.Pool.CheckpointEveryMs = 400; // truncation cycles mid-storm
  Server S(std::move(Config));
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;

  const int Workers = 8;
  const int PerWorker = stressScale(125, 25); // 8 x 125 = 1000 sessions
  const int Increments = 3;
  std::atomic<bool> Failed{false};
  std::atomic<uint64_t> AckedTotal{0}, Sessions{0};

  uint64_t Seed = chaosSeeds().front();
  SCOPED_TRACE(seedTag(Seed));
  // CI lanes layer extra journal fault points on top via the
  // MST_CHAOS_JOURNAL_*_PM variables (armFailFromEnv). The tear drill
  // defaults on; an explicit MST_CHAOS_JOURNAL_TEAR_PM (including 0, for
  // the fsync-failure pass where tearing unsynced-but-written refusals
  // would be a genuine loss) takes over.
  chaos::armFailFromEnv(Seed);
  const char *TearEnv = std::getenv("MST_CHAOS_JOURNAL_TEAR_PM");
  const bool TearArmed =
      !TearEnv || std::strtoul(TearEnv, nullptr, 0) > 0;
  if (!TearEnv)
    chaos::armFail("journal.tear", 800, Seed); // tear tails on most reboots

  std::atomic<bool> StopKiller{false};
  std::thread Killer([&] {
    Client K;
    if (!K.connect(S.port()))
      return;
    bool Ok = false;
    std::string Value;
    unsigned Victim = 0;
    while (!StopKiller) {
      if (!K.eval("!kill " + std::to_string(Victim % 2), Ok, Value,
                  240.0))
        return;
      ++Victim;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });

  std::vector<std::thread> Pool;
  for (int W = 0; W < Workers; ++W)
    Pool.emplace_back([&, W] {
      for (int R = 0; R < PerWorker && !Failed; ++R) {
        uint64_t Id = 1000 + static_cast<uint64_t>(W) * 10000 +
                      static_cast<uint64_t>(R);
        std::string Var = "#J" + std::to_string(Id);
        Client C;
        if (!C.connect(S.port()) || !C.bindSession(Id)) {
          Failed = true;
          return;
        }
        bool Ok = false;
        std::string Value;
        if (!C.evalRetry("Smalltalk at: " + Var + " put: 0", Ok, Value,
                         240.0, 12, 10)) {
          Failed = true;
          return;
        }
        if (!Ok)
          continue; // init shed on every attempt: skip this session
        uint64_t Acked = 0;
        for (int I = 0; I < Increments; ++I) {
          if (!C.evalRetry("Smalltalk at: " + Var +
                               " put: (Smalltalk at: " + Var + ") + 1",
                           Ok, Value, 240.0, 12, 10)) {
            Failed = true;
            return;
          }
          if (Ok)
            ++Acked;
          // ERR (shed / crashed-out-of-batch) = not executed: the
          // convergence check below catches it if that ever lies.
        }
        if (!C.evalRetry("Smalltalk at: " + Var, Ok, Value, 240.0, 12,
                         10)) {
          Failed = true;
          return;
        }
        if (Ok && Value != std::to_string(Acked)) {
          ADD_FAILURE() << "client " << Id << ": acknowledged " << Acked
                        << " increments but counter reads " << Value;
          Failed = true;
          return;
        }
        AckedTotal += Acked;
        ++Sessions;
      }
    });
  for (auto &T : Pool)
    T.join();
  StopKiller = true;
  Killer.join();
  uint64_t Tears = chaos::failCount("journal.tear");
  chaos::disarmFail();

  EXPECT_FALSE(Failed) << "a session saw a transport failure";
  EXPECT_GT(Sessions.load(), 0u);
  EXPECT_GT(AckedTotal.load(), 0u);

  // The storm must actually have exercised the machinery.
  auto Health = S.health();
  uint64_t Restarts = 0, Replayed = 0;
  for (const auto &H : Health) {
    Restarts += H.Restarts;
    Replayed += H.Replayed;
    EXPECT_EQ(H.State, "serving");
  }
  EXPECT_GT(Restarts, 0u) << "the kill storm never landed";
  EXPECT_GT(Replayed, 0u) << "no reboot ever replayed the journal";
  if (TearArmed && Restarts > 2) {
    EXPECT_GT(Tears, 0u) << "the tear drill never fired";
  }

  S.stop();
  EXPECT_TRUE(S.waitStopped(240.0));
}

TEST(ServeChaos, AdminKillStormKeepsOtherShardServing) {
  std::string DataDir = makeTempDir();
  Server S(testServerConfig(2, DataDir));
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;

  // Victim state on shard 0, committed; shard 1 serves throughout.
  Client Admin;
  ASSERT_TRUE(Admin.connect(S.port())); // session 0 -> shard 0
  bool Ok = false;
  std::string Value;
  ASSERT_TRUE(Admin.eval("Smalltalk at: #Survive put: 123", Ok, Value));
  ASSERT_TRUE(Ok);
  ASSERT_TRUE(Admin.sendLine("!checkpoint"));
  for (int I = 0; I < 2; ++I) {
    std::string Line;
    ASSERT_TRUE(Admin.recvLine(Line, 240.0));
  }

  Client Other;
  ASSERT_TRUE(Other.connect(S.port())); // session 1 -> shard 1
  std::atomic<bool> StopTraffic{false};
  std::atomic<uint64_t> OtherOks{0};
  std::thread Traffic([&] {
    bool TOk = false;
    std::string TValue;
    while (!StopTraffic) {
      if (!Other.eval("2 + 3", TOk, TValue, 240.0))
        break;
      if (TOk && TValue == "5")
        ++OtherOks;
    }
  });

  // Kill shard 0 over and over; every reboot must restore #Survive.
  for (int Round = 0; Round < 3; ++Round) {
    ASSERT_TRUE(Admin.eval("!kill 0", Ok, Value, 240.0));
    EXPECT_TRUE(Ok) << Value;
    ASSERT_TRUE(Admin.eval("Smalltalk at: #Survive", Ok, Value, 240.0));
    ASSERT_TRUE(Ok) << Value;
    EXPECT_EQ(Value, "123");
  }
  StopTraffic = true;
  Traffic.join();

  EXPECT_GT(OtherOks.load(), 0u); // shard 1 served during the storm
  auto Health = S.health();
  EXPECT_EQ(Health[0].Restarts, 3u);
  EXPECT_EQ(Health[1].Restarts, 0u);
  for (const auto &H : Health)
    EXPECT_EQ(H.State, "serving");

  S.stop();
  EXPECT_TRUE(S.waitStopped(240.0));
}

} // namespace
