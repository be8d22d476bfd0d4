//===-- serve/ServeMain.cpp - The mst_serve daemon ------------------------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving daemon: boots N shards, one Smalltalk image each, and
/// serves the line protocol on a loopback TCP port until SIGTERM/SIGINT,
/// which triggers a graceful drain (in-flight requests finish, every
/// shard checkpoints). Try it:
///
///   ./src/serve/mst_serve --port=7777 --shards=4 --data-dir=/tmp/mst &
///   printf '3 + 4 * 2\n!health\n!quit\n' | nc localhost 7777
///
//===----------------------------------------------------------------------===//

#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>

#include "obs/Profiler.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "vkernel/Chaos.h"

using namespace mst;
using namespace mst::serve;

namespace {
volatile std::sig_atomic_t StopRequested = 0;
void onSignal(int) { StopRequested = 1; }

/// Prints the refusal of flag \p A, whose name is its first \p Prefix - 1
/// characters. \returns false.
bool badValue(const char *A, size_t Prefix) {
  std::fprintf(stderr, "mst_serve: bad value for %.*s: %s\n",
               static_cast<int>(Prefix - 1), A, A + Prefix);
  return false;
}

/// Reads the value of flag \p A (after its \p Prefix) into \p Out when it
/// is a decimal whole number no greater than \p Max, by default the
/// largest \p T. \returns false, after printing the refusal, otherwise.
template <typename T>
bool wholeFlag(const char *A, size_t Prefix, T &Out,
               uint64_t Max = std::numeric_limits<T>::max()) {
  uint64_t N = 0;
  if (!parseDecimal(A + Prefix, Max, N))
    return badValue(A, Prefix);
  Out = static_cast<T>(N);
  return true;
}

/// Reads the value of flag \p A (after its \p Prefix) into \p Out when it
/// is a finite, non-negative number. \returns false, after printing the
/// refusal, otherwise.
bool secondsFlag(const char *A, size_t Prefix, double &Out) {
  const char *V = A + Prefix;
  char *End = nullptr;
  double D = std::strtod(V, &End);
  if (End == V || *End || !std::isfinite(D) || D < 0)
    return badValue(A, Prefix);
  Out = D;
  return true;
}
} // namespace

int main(int argc, char **argv) {
  ServerConfig Config;
  Config.Pool.CheckpointEveryMs = 0;
  bool Profile = false;
  for (int I = 1; I < argc; ++I) {
    const char *A = argv[I];
    bool Ok = true;
    if (std::strncmp(A, "--port=", 7) == 0) {
      Ok = wholeFlag(A, 7, Config.Port);
    } else if (std::strncmp(A, "--shards=", 9) == 0) {
      Ok = wholeFlag(A, 9, Config.Pool.Shards);
    } else if (std::strncmp(A, "--image=", 8) == 0) {
      Config.Pool.BaseImage = A + 8;
    } else if (std::strncmp(A, "--data-dir=", 11) == 0) {
      Config.Pool.DataDir = A + 11;
    } else if (std::strncmp(A, "--snapshot-every=", 17) == 0) {
      Ok = wholeFlag(A, 17, Config.Pool.CheckpointEveryMs);
    } else if (std::strncmp(A, "--snapshot-keep=", 16) == 0) {
      Ok = wholeFlag(A, 16, Config.Pool.KeepGenerations);
    } else if (std::strcmp(A, "--journal") == 0) {
      Config.Pool.Journal = true;
    } else if (std::strncmp(A, "--replay-deadline-ms=", 21) == 0) {
      Ok = wholeFlag(A, 21, Config.Pool.ReplayDeadlineMs, MaxDeadlineMs);
    } else if (std::strncmp(A, "--max-pipeline=", 15) == 0) {
      Ok = wholeFlag(A, 15, Config.MaxPipeline);
    } else if (std::strncmp(A, "--drain-timeout=", 16) == 0) {
      Ok = secondsFlag(A, 16, Config.DrainTimeoutSec);
    } else if (std::strncmp(A, "--request-deadline-ms=", 22) == 0) {
      Ok = wholeFlag(A, 22, Config.RequestDeadlineMs, MaxDeadlineMs);
    } else if (std::strncmp(A, "--queue-budget=", 15) == 0) {
      Ok = wholeFlag(A, 15, Config.QueueBudget);
    } else if (std::strncmp(A, "--breaker-threshold=", 20) == 0) {
      Ok = wholeFlag(A, 20, Config.BreakerThreshold);
    } else if (std::strncmp(A, "--breaker-open-ms=", 18) == 0) {
      Ok = wholeFlag(A, 18, Config.BreakerOpenMs);
    } else if (std::strncmp(A, "--chaos-seed=", 13) == 0) {
      uint64_t Seed = 0;
      if ((Ok = wholeFlag(A, 13, Seed)))
        chaos::enableSeed(Seed);
    } else if (std::strcmp(A, "--profile") == 0) {
      Profile = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--port=N] [--shards=N] [--image=PATH] "
                   "[--data-dir=DIR] [--snapshot-every=MS] "
                   "[--snapshot-keep=N] [--journal] "
                   "[--replay-deadline-ms=MS] [--max-pipeline=N] "
                   "[--drain-timeout=SEC] [--request-deadline-ms=MS] "
                   "[--queue-budget=N] [--breaker-threshold=N] "
                   "[--breaker-open-ms=MS] [--chaos-seed=N] "
                   "[--profile]\n",
                   argv[0]);
      return 2;
    }
    if (!Ok)
      return 2;
  }
  if (Config.Pool.Journal && Config.Pool.DataDir.empty()) {
    std::fprintf(stderr, "mst_serve: --journal requires --data-dir\n");
    return 2;
  }
  if (Config.Pool.Shards == 0) {
    std::fprintf(stderr, "mst_serve: --shards must be at least 1\n");
    return 2;
  }
  if (Config.MaxPipeline == 0) {
    // A session would park after its first line with nothing in flight
    // to resume it.
    std::fprintf(stderr, "mst_serve: --max-pipeline must be at least 1\n");
    return 2;
  }
  if (!chaos::enabled())
    chaos::enableFromEnv(); // MST_CHAOS_SEED / MST_CHAOS_*_PM
  if (Profile)
    startVmProfiler(0);

  std::signal(SIGTERM, onSignal);
  std::signal(SIGINT, onSignal);
  std::signal(SIGPIPE, SIG_IGN);

  Server S(std::move(Config));
  std::string Error;
  if (!S.start(Error)) {
    std::fprintf(stderr, "mst_serve: %s\n", Error.c_str());
    return 1;
  }
  std::printf("mst_serve: %u shards serving on 127.0.0.1:%u\n",
              S.shardCount(), S.port());
  std::fflush(stdout);

  // Signal handlers only set a flag; the drain itself runs on a normal
  // thread. `!drain` over the wire stops the loop the same way.
  while (!S.waitStopped(0.2)) {
    if (StopRequested) {
      std::printf("mst_serve: draining...\n");
      std::fflush(stdout);
      S.requestDrain();
      StopRequested = 0;
    }
  }
  S.stop();
  uint64_t Served = 0;
  for (const Shard::Health &H : S.health())
    Served += H.Requests;
  std::printf("mst_serve: drained, %llu requests served; bye\n",
              static_cast<unsigned long long>(Served));
  return 0;
}
