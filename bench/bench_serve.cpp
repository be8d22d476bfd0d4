//===-- bench/bench_serve.cpp - End-to-end serving traffic bench ----------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving layer under load: an in-process mst_serve Server (4 shards
/// booted from the prewarmed snapshot) carrying traffic from 1000+
/// concurrent loopback TCP sessions, with one shard killed mid-run to
/// price crash recovery under fire. Reports sustained requests/sec and
/// the serve.latency percentiles, plus the usual full telemetry block.
///
/// A second phase storms one shard with offered load beyond its queue
/// budget while a deliberate `[true] whileTrue.` runaway stalls its VM:
/// gates on requests shed (ERR overloaded), the runaway aborted by its
/// deadline (ERR RequestTimeout, no shard reboot), bounded accepted-
/// request p99, and the victim shard still serving afterwards.
///
/// The whole bench runs with `--journal` semantics (write-ahead request
/// journal on), so phase 1's steady-state req/s prices the once-per-batch
/// journal fsync against the unjournaled baseline. A third phase then
/// crashes shards under load carried by `!session`-bound clients running
/// seq'd increments, and gates on ZERO acknowledged-request loss: every
/// session's counter must equal exactly the number of OK-acknowledged
/// increments after the kill storm — replay and the dedup table, priced
/// and verified under fire.
///
///   bench_serve --json-out=OUT.json --image=prewarmed.image
///
/// Scaled by MST_BENCH_SCALE (sessions and rounds; the session count
/// never drops below 4 per thread). The traffic pattern keeps exactly one
/// request outstanding per session — load concurrency comes from session
/// count, matching an interactive-user fleet rather than a pipelined
/// batch client.
///
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <sys/resource.h>
#include <thread>

#include "BenchSupport.h"
#include "serve/Client.h"
#include "serve/Server.h"

using namespace mst;
using namespace mst::serve;

namespace {

/// The serving fleet needs ~2 fds per session in one process (client +
/// server end of every loopback socket); the default soft cap of 1024
/// would wedge the connect phase.
void raiseFdLimit(rlim_t Want) {
  rlimit R{};
  if (getrlimit(RLIMIT_NOFILE, &R) != 0)
    return;
  if (R.rlim_cur >= Want)
    return;
  R.rlim_cur = std::min(Want, R.rlim_max);
  setrlimit(RLIMIT_NOFILE, &R);
}

struct TrafficTotals {
  std::atomic<uint64_t> Oks{0};
  std::atomic<uint64_t> Errs{0};
  std::atomic<uint64_t> Transport{0}; ///< connection-level failures
};

/// One worker: drives its slice of sessions round-robin, one outstanding
/// request per session (send all, then collect all, per round).
void drive(std::deque<Client> &Mine, int Rounds, TrafficTotals &T) {
  for (int R = 0; R < Rounds; ++R) {
    for (Client &C : Mine)
      if (C.connected() && !C.sendLine("3 + 4 * " + std::to_string(R)))
        C.disconnect();
    for (Client &C : Mine) {
      if (!C.connected()) {
        ++T.Transport;
        continue;
      }
      std::string Line, Tag, Value;
      bool Ok = false;
      if (!C.recvLine(Line, 600.0) ||
          !parseResponseLine(Line, Ok, Tag, Value)) {
        ++T.Transport;
        C.disconnect();
        continue;
      }
      // Crash-window ERRs are part of the measured workload.
      ++(Ok ? T.Oks : T.Errs);
    }
  }
}

double histP(const Telemetry::Snapshot &S, const std::string &Name,
             int Which) {
  for (const auto &H : S.Histograms)
    if (H.Name == Name)
      return Which == 50 ? H.P50 : (Which == 95 ? H.P95 : H.P99);
  return 0.0;
}

// --- Phase 2: overload storm ---------------------------------------------

struct StormResult {
  uint64_t Accepted = 0;  ///< OK responses
  uint64_t Shed = 0;      ///< ERR overloaded (budget/breaker fast-fail)
  uint64_t TimedOut = 0;  ///< ERR RequestTimeout (deadline abort)
  uint64_t Transport = 0; ///< connection-level failures
  std::vector<double> AcceptedMs; ///< arrival latency of OK responses
};

/// Floods one session: pipelines \p M quick evals (optionally preceded by
/// a deliberate runaway with a 400ms deadline), then collects every
/// response, timing OK arrivals. Sheds and deadline ERRs are the point of
/// the storm, not failures.
void stormSession(Client &C, int M, bool Runaway, StormResult &R) {
  auto T0 = std::chrono::steady_clock::now();
  int Expect = M;
  if (Runaway) {
    if (!C.sendLine("@run?deadline=400 [true] whileTrue.")) {
      ++R.Transport;
      return;
    }
    ++Expect;
  }
  for (int I = 0; I < M; ++I)
    if (!C.sendLine("@s" + std::to_string(I) + " 3 + " +
                    std::to_string(I))) {
      ++R.Transport;
      return;
    }
  for (int I = 0; I < Expect; ++I) {
    std::string Line, Tag, Value;
    bool Ok = false;
    if (!C.recvLine(Line, 600.0) ||
        !parseResponseLine(Line, Ok, Tag, Value)) {
      ++R.Transport;
      return;
    }
    if (Ok) {
      ++R.Accepted;
      R.AcceptedMs.push_back(
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - T0)
              .count());
    } else if (Value.rfind("overloaded", 0) == 0) {
      ++R.Shed;
    } else if (Value.find("RequestTimeout") != std::string::npos) {
      ++R.TimedOut;
    }
  }
}

double pctile(std::vector<double> &V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t I = static_cast<size_t>(P * (V.size() - 1));
  return V[I];
}

} // namespace

int main(int argc, char **argv) {
  BenchFlags Flags = parseBenchFlags(argc, argv);
  double Scale = benchScale(1.0);
  const unsigned Shards = 4;
  const unsigned Threads = 4;
  const size_t Sessions = std::max<size_t>(
      Threads * 4, static_cast<size_t>(1000 * Scale));
  const int Rounds = std::max(4, static_cast<int>(12 * Scale));
  raiseFdLimit(2 * Sessions + 256);

  std::string DataDir;
  {
    char Buf[] = "/tmp/mst-bench-serve-XXXXXX";
    const char *D = mkdtemp(Buf);
    DataDir = D ? D : "/tmp";
  }

  ServerConfig Config;
  Config.Pool.Shards = Shards;
  Config.Pool.BaseImage = Flags.ImagePath;
  Config.Pool.DataDir = DataDir;
  // Overload-control knob the phase-2 storm runs against. The queue
  // budget is far above phase 1's ~250 outstanding per shard, so the
  // headline numbers stay comparable across runs.
  Config.QueueBudget = 1024;
  // Durability on for the whole run: phase 1's headline req/s includes
  // the once-per-batch journal fsync, phase 3 gates on replay + dedup.
  Config.Pool.Journal = true;
  Server S(Config);
  std::string Error;
  if (!S.start(Error)) {
    std::fprintf(stderr, "bench_serve: server start failed: %s\n",
                 Error.c_str());
    return 1;
  }
  std::printf("bench_serve: %u shards on port %u, %zu sessions x %d "
              "rounds\n",
              Shards, S.port(), Sessions, Rounds);

  // Commit a checkpoint per shard so the mid-run crash restores real
  // state rather than falling back to the base image.
  Client Admin;
  if (!Admin.connect(S.port())) {
    std::fprintf(stderr, "bench_serve: admin connect failed\n");
    return 1;
  }
  Admin.sendLine("!checkpoint");
  for (unsigned I = 0; I < Shards; ++I) {
    std::string Line;
    if (!Admin.recvLine(Line, 600.0)) {
      std::fprintf(stderr, "bench_serve: checkpoint did not answer\n");
      return 1;
    }
  }

  // Connect the fleet: Sessions concurrent sockets, striped over the
  // worker threads (session ids are sequential, so every stripe spans
  // all shards).
  std::vector<std::deque<Client>> PerThread(Threads);
  for (size_t I = 0; I < Sessions; ++I) {
    Client C;
    if (!C.connect(S.port())) {
      std::fprintf(stderr, "bench_serve: connect %zu failed\n", I);
      return 1;
    }
    PerThread[I % Threads].push_back(std::move(C));
  }
  std::printf("bench_serve: %zu sessions connected (active=%llu)\n",
              Sessions,
              static_cast<unsigned long long>(
                  S.stats().ActiveSessions.load()));

  TrafficTotals Totals;
  auto Start = std::chrono::steady_clock::now();
  std::vector<std::thread> Workers;
  const int Half = Rounds / 2;
  for (unsigned W = 0; W < Threads; ++W)
    Workers.emplace_back([&, W] {
      // First half, then second half, with the shard kill in between —
      // the barrier is per worker, so traffic never fully stops.
      drive(PerThread[W], Half, Totals);
      if (W == 0) {
        bool Ok = false;
        std::string Value;
        Admin.eval("!kill 0", Ok, Value, 600.0);
        std::printf("bench_serve: mid-run kill -> %s\n", Value.c_str());
      }
      drive(PerThread[W], Rounds - Half, Totals);
    });
  for (auto &T : Workers)
    T.join();
  double Elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    Start)
          .count();

  // Recovery must have happened and every shard must be serving again.
  uint64_t Restarts = 0;
  bool AllServing = true;
  for (const auto &H : S.health()) {
    Restarts += H.Restarts;
    AllServing = AllServing && H.State == "serving";
  }
  uint64_t Completed = Totals.Oks.load() + Totals.Errs.load();
  double Rps = Completed / (Elapsed > 0 ? Elapsed : 1e-9);
  Telemetry::Snapshot Snap = Telemetry::snapshot();
  double P50 = histP(Snap, "serve.latency", 50);
  double P95 = histP(Snap, "serve.latency", 95);
  double P99 = histP(Snap, "serve.latency", 99);

  std::printf("bench_serve: %llu responses in %.2fs (%.0f req/s), "
              "errors=%llu, transport=%llu, restarts=%llu, p50=%.2fms "
              "p99=%.2fms\n",
              static_cast<unsigned long long>(Completed), Elapsed, Rps,
              static_cast<unsigned long long>(Totals.Errs.load()),
              static_cast<unsigned long long>(Totals.Transport.load()),
              static_cast<unsigned long long>(Restarts), P50 / 1e6,
              P99 / 1e6);

  bool Pass = Totals.Transport.load() == 0 && Totals.Oks.load() > 0 &&
              Restarts >= 1 && AllServing;
  if (!Pass)
    std::fprintf(stderr, "bench_serve: FAILED (transport=%llu oks=%llu "
                         "restarts=%llu all_serving=%d)\n",
                 static_cast<unsigned long long>(Totals.Transport.load()),
                 static_cast<unsigned long long>(Totals.Oks.load()),
                 static_cast<unsigned long long>(Restarts), AllServing);

  // --- Phase 2: overload storm against one shard -------------------------
  // Offered load deliberately exceeds the shard's queue budget while a
  // runaway request stalls its VM: the budget must shed (ERR overloaded),
  // the deadline machinery must abort the runaway (no reboot), accepted
  // requests must complete with bounded latency, and the victim shard
  // must keep serving.
  const int StormPerSession = 192; // 8 sessions -> 1537 offered vs 1024
  std::deque<Client> Storm;
  std::string TargetShard;
  for (int Probe = 0; Probe < 32 && Storm.size() < 8; ++Probe) {
    Client C;
    if (!C.connect(S.port()))
      break;
    bool Ok = false;
    std::string Id;
    if (!C.eval("Smalltalk at: #ShardId", Ok, Id, 600.0) || !Ok)
      continue;
    if (TargetShard.empty())
      TargetShard = Id;
    if (Id == TargetShard)
      Storm.push_back(std::move(C));
  }
  uint64_t RestartsBefore = 0, ExpiredBefore = 0;
  for (const auto &H : S.health()) {
    RestartsBefore += H.Restarts;
    ExpiredBefore += H.DeadlineExpired;
  }

  std::vector<StormResult> StormResults(Storm.size());
  auto StormStart = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> StormWorkers;
    for (size_t I = 0; I < Storm.size(); ++I)
      StormWorkers.emplace_back([&, I] {
        stormSession(Storm[I], StormPerSession, I == 0, StormResults[I]);
      });
    for (auto &T : StormWorkers)
      T.join();
  }
  double StormWallMs = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - StormStart)
                           .count();

  StormResult Agg;
  for (StormResult &R : StormResults) {
    Agg.Accepted += R.Accepted;
    Agg.Shed += R.Shed;
    Agg.TimedOut += R.TimedOut;
    Agg.Transport += R.Transport;
    Agg.AcceptedMs.insert(Agg.AcceptedMs.end(), R.AcceptedMs.begin(),
                          R.AcceptedMs.end());
  }
  double AcceptedP50 = pctile(Agg.AcceptedMs, 0.50);
  double AcceptedP99 = pctile(Agg.AcceptedMs, 0.99);

  // The runaway's shard keeps serving, with no reboot (its deadline
  // unwound it inside the VM).
  bool ShardServes = false;
  if (!Storm.empty()) {
    bool Ok = false;
    std::string Value;
    ShardServes = Storm.front().eval("6 * 7", Ok, Value, 600.0) && Ok &&
                  Value == "42";
  }
  uint64_t RestartsAfter = 0, ExpiredAfter = 0;
  for (const auto &H : S.health()) {
    RestartsAfter += H.Restarts;
    ExpiredAfter += H.DeadlineExpired;
  }

  bool StormPass = Storm.size() == 8 && Agg.Transport == 0 &&
                   Agg.Shed > 0 && Agg.TimedOut >= 1 &&
                   ExpiredAfter > ExpiredBefore &&
                   RestartsAfter == RestartsBefore && ShardServes &&
                   AcceptedP99 < 15000.0;
  std::printf("bench_serve: storm shard=%s offered=%d accepted=%llu "
              "shed=%llu timed_out=%llu accepted_p99=%.1fms wall=%.0fms "
              "%s\n",
              TargetShard.c_str(),
              static_cast<int>(Storm.size()) * StormPerSession + 1,
              static_cast<unsigned long long>(Agg.Accepted),
              static_cast<unsigned long long>(Agg.Shed),
              static_cast<unsigned long long>(Agg.TimedOut), AcceptedP99,
              StormWallMs, StormPass ? "PASS" : "FAILED");
  if (!StormPass)
    std::fprintf(stderr,
                 "bench_serve: storm FAILED (sessions=%zu transport=%llu "
                 "shed=%llu timed_out=%llu expired_delta=%llu "
                 "restarts_delta=%llu serves=%d p99=%.1fms)\n",
                 Storm.size(),
                 static_cast<unsigned long long>(Agg.Transport),
                 static_cast<unsigned long long>(Agg.Shed),
                 static_cast<unsigned long long>(Agg.TimedOut),
                 static_cast<unsigned long long>(ExpiredAfter -
                                                 ExpiredBefore),
                 static_cast<unsigned long long>(RestartsAfter -
                                                 RestartsBefore),
                 ShardServes, AcceptedP99);
  Pass = Pass && StormPass;

  // --- Phase 3: crash-under-load durability gate -------------------------
  // Bound sessions run seq'd increments on private counters while an
  // admin thread keeps killing shards. Every OK the server hands out is a
  // durability promise; at the end each counter must equal exactly the
  // session's OK-acknowledged increment count. One lost acknowledged
  // request (reads low) or one double-applied replay (reads high) fails
  // the bench.
  const size_t CrashSessions =
      std::max<size_t>(16, static_cast<size_t>(64 * Scale));
  const int CrashIncrements = 6;
  std::atomic<uint64_t> CrashAcked{0}, CrashMismatches{0},
      CrashTransport{0}, CrashDone{0};
  uint64_t CrashRestartsBefore = 0;
  for (const auto &H : S.health())
    CrashRestartsBefore += H.Restarts;
  auto CrashStart = std::chrono::steady_clock::now();
  {
    std::atomic<bool> StopKiller{false};
    std::thread Killer([&] {
      Client K;
      if (!K.connect(S.port()))
        return;
      unsigned Victim = 0;
      while (!StopKiller) {
        bool Ok = false;
        std::string Value;
        if (!K.eval("!kill " + std::to_string(Victim++ % Shards), Ok,
                    Value, 600.0))
          return;
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
      }
    });
    std::vector<std::thread> CrashWorkers;
    for (unsigned W = 0; W < Threads; ++W)
      CrashWorkers.emplace_back([&, W] {
        for (size_t I = W; I < CrashSessions; I += Threads) {
          uint64_t Id = 50000 + I;
          std::string Var = "#D" + std::to_string(Id);
          Client C;
          if (!C.connect(S.port()) || !C.bindSession(Id)) {
            ++CrashTransport;
            continue;
          }
          bool Ok = false;
          std::string Value;
          if (!C.evalRetry("Smalltalk at: " + Var + " put: 0", Ok, Value,
                           600.0, 12, 10)) {
            ++CrashTransport;
            continue;
          }
          if (!Ok)
            continue;
          uint64_t Acked = 0;
          bool Lost = false;
          for (int R = 0; R < CrashIncrements; ++R) {
            if (!C.evalRetry("Smalltalk at: " + Var +
                                 " put: (Smalltalk at: " + Var + ") + 1",
                             Ok, Value, 600.0, 12, 10)) {
              ++CrashTransport;
              Lost = true;
              break;
            }
            if (Ok)
              ++Acked;
          }
          if (Lost)
            continue;
          if (!C.evalRetry("Smalltalk at: " + Var, Ok, Value, 600.0, 12,
                           10)) {
            ++CrashTransport;
            continue;
          }
          if (Ok && Value != std::to_string(Acked))
            ++CrashMismatches;
          CrashAcked += Acked;
          ++CrashDone;
        }
      });
    for (auto &T : CrashWorkers)
      T.join();
    StopKiller = true;
    Killer.join();
  }
  double CrashWallMs = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - CrashStart)
                           .count();
  uint64_t CrashRestartsAfter = 0, Replayed = 0, DedupHits = 0;
  bool CrashAllServing = true;
  for (const auto &H : S.health()) {
    CrashRestartsAfter += H.Restarts;
    Replayed += H.Replayed;
    DedupHits += H.DedupHits;
    CrashAllServing = CrashAllServing && H.State == "serving";
  }
  uint64_t CrashKills = CrashRestartsAfter - CrashRestartsBefore;
  bool CrashPass = CrashMismatches == 0 && CrashTransport == 0 &&
                   CrashDone > 0 && CrashAcked > 0 && CrashKills >= 1 &&
                   Replayed >= 1 && CrashAllServing;
  std::printf("bench_serve: crash-under-load sessions=%llu acked=%llu "
              "kills=%llu replayed=%llu dedup_hits=%llu mismatches=%llu "
              "wall=%.0fms %s\n",
              static_cast<unsigned long long>(CrashDone.load()),
              static_cast<unsigned long long>(CrashAcked.load()),
              static_cast<unsigned long long>(CrashKills),
              static_cast<unsigned long long>(Replayed),
              static_cast<unsigned long long>(DedupHits),
              static_cast<unsigned long long>(CrashMismatches.load()),
              CrashWallMs, CrashPass ? "PASS" : "FAILED");
  if (!CrashPass)
    std::fprintf(stderr,
                 "bench_serve: durability gate FAILED (done=%llu "
                 "acked=%llu mismatches=%llu transport=%llu kills=%llu "
                 "replayed=%llu serving=%d)\n",
                 static_cast<unsigned long long>(CrashDone.load()),
                 static_cast<unsigned long long>(CrashAcked.load()),
                 static_cast<unsigned long long>(CrashMismatches.load()),
                 static_cast<unsigned long long>(CrashTransport.load()),
                 static_cast<unsigned long long>(CrashKills),
                 static_cast<unsigned long long>(Replayed),
                 CrashAllServing);
  Pass = Pass && CrashPass;

  Telemetry::Snapshot Final = Telemetry::snapshot();
  if (!Flags.JsonOut.empty()) {
    std::ofstream Out(Flags.JsonOut);
    Out << "{\n  \"bench\": \"serve\",\n"
        << "  \"scale\": " << Scale << ",\n"
        << "  \"shards\": " << Shards << ",\n"
        << "  \"sessions\": " << Sessions << ",\n"
        << "  \"rounds\": " << Rounds << ",\n"
        << "  \"responses\": " << Completed << ",\n"
        << "  \"ok\": " << Totals.Oks.load() << ",\n"
        << "  \"errors\": " << Totals.Errs.load() << ",\n"
        << "  \"elapsed_sec\": " << Elapsed << ",\n"
        << "  \"requests_per_sec\": " << Rps << ",\n"
        << "  \"latency_p50_ns\": " << P50 << ",\n"
        << "  \"latency_p95_ns\": " << P95 << ",\n"
        << "  \"latency_p99_ns\": " << P99 << ",\n"
        << "  \"shard_restarts\": " << Restarts << ",\n"
        << "  \"all_shards_serving\": " << (AllServing ? "true" : "false")
        << ",\n  \"storm\": {\n"
        << "    \"sessions\": " << Storm.size() << ",\n"
        << "    \"offered\": "
        << static_cast<int>(Storm.size()) * StormPerSession + 1 << ",\n"
        << "    \"accepted\": " << Agg.Accepted << ",\n"
        << "    \"shed\": " << Agg.Shed << ",\n"
        << "    \"timed_out\": " << Agg.TimedOut << ",\n"
        << "    \"accepted_p50_ms\": " << AcceptedP50 << ",\n"
        << "    \"accepted_p99_ms\": " << AcceptedP99 << ",\n"
        << "    \"wall_ms\": " << StormWallMs << ",\n"
        << "    \"restarts_during_storm\": "
        << (RestartsAfter - RestartsBefore) << ",\n"
        << "    \"pass\": " << (StormPass ? "true" : "false") << "\n"
        << "  },\n  \"phase3\": {\n"
        << "    \"sessions\": " << CrashDone.load() << ",\n"
        << "    \"acked\": " << CrashAcked.load() << ",\n"
        << "    \"mismatches\": " << CrashMismatches.load() << ",\n"
        << "    \"kills\": " << CrashKills << ",\n"
        << "    \"replayed\": " << Replayed << ",\n"
        << "    \"dedup_hits\": " << DedupHits << ",\n"
        << "    \"wall_ms\": " << CrashWallMs << ",\n"
        << "    \"pass\": " << (CrashPass ? "true" : "false") << "\n"
        << "  },\n  \"telemetry\": " << Telemetry::toJson(Final)
        << "\n}\n";
    std::printf("results written to %s\n", Flags.JsonOut.c_str());
  }

  // Orderly drain (checkpoints every shard) before teardown.
  for (auto &PT : PerThread)
    for (auto &C : PT)
      C.disconnect();
  for (auto &C : Storm)
    C.disconnect();
  Admin.disconnect();
  S.stop();
  finishBenchFlags(Flags, Final);
  return Pass ? 0 : 1;
}
