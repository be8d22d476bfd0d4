//===-- serve/ServeMain.cpp - The mst_serve daemon ------------------------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving daemon: boots a shard pool of Smalltalk images and serves
/// the line protocol on a loopback TCP port until SIGTERM/SIGINT, which
/// triggers a graceful drain (in-flight requests finish, every shard
/// checkpoints). Try it:
///
///   ./src/serve/mst_serve --port=7777 --shards=4 --data-dir=/tmp/mst &
///   printf '3 + 4 * 2\n!health\n!quit\n' | nc localhost 7777
///
//===----------------------------------------------------------------------===//

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "obs/Profiler.h"
#include "serve/Server.h"
#include "vkernel/Chaos.h"

using namespace mst;
using namespace mst::serve;

namespace {
volatile std::sig_atomic_t StopRequested = 0;
void onSignal(int) { StopRequested = 1; }
} // namespace

int main(int argc, char **argv) {
  ServerConfig Config;
  Config.Pool.CheckpointEveryMs = 0;
  bool Profile = false;
  for (int I = 1; I < argc; ++I) {
    const char *A = argv[I];
    if (std::strncmp(A, "--port=", 7) == 0) {
      Config.Port = static_cast<uint16_t>(std::strtoul(A + 7, nullptr, 0));
    } else if (std::strncmp(A, "--shards=", 9) == 0) {
      Config.Pool.Shards =
          static_cast<unsigned>(std::strtoul(A + 9, nullptr, 0));
    } else if (std::strncmp(A, "--image=", 8) == 0) {
      Config.Pool.BaseImage = A + 8;
    } else if (std::strncmp(A, "--data-dir=", 11) == 0) {
      Config.Pool.DataDir = A + 11;
    } else if (std::strncmp(A, "--snapshot-every=", 17) == 0) {
      Config.Pool.CheckpointEveryMs = std::strtoull(A + 17, nullptr, 0);
    } else if (std::strncmp(A, "--snapshot-keep=", 16) == 0) {
      Config.Pool.KeepGenerations =
          static_cast<unsigned>(std::strtoul(A + 16, nullptr, 0));
    } else if (std::strcmp(A, "--journal") == 0) {
      Config.Pool.Journal = true;
    } else if (std::strncmp(A, "--replay-deadline-ms=", 21) == 0) {
      Config.Pool.ReplayDeadlineMs = std::strtoull(A + 21, nullptr, 0);
    } else if (std::strncmp(A, "--max-pipeline=", 15) == 0) {
      Config.MaxPipeline = std::strtoull(A + 15, nullptr, 0);
    } else if (std::strncmp(A, "--drain-timeout=", 16) == 0) {
      Config.DrainTimeoutSec = std::strtod(A + 16, nullptr);
    } else if (std::strncmp(A, "--request-deadline-ms=", 22) == 0) {
      Config.RequestDeadlineMs = std::strtoull(A + 22, nullptr, 0);
    } else if (std::strncmp(A, "--queue-budget=", 15) == 0) {
      Config.QueueBudget = std::strtoull(A + 15, nullptr, 0);
    } else if (std::strncmp(A, "--breaker-threshold=", 20) == 0) {
      Config.BreakerThreshold =
          static_cast<unsigned>(std::strtoul(A + 20, nullptr, 0));
    } else if (std::strncmp(A, "--breaker-open-ms=", 18) == 0) {
      Config.BreakerOpenMs = std::strtoull(A + 18, nullptr, 0);
    } else if (std::strncmp(A, "--chaos-seed=", 13) == 0) {
      chaos::enableSeed(std::strtoull(A + 13, nullptr, 0));
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
  }
  if (Config.Pool.Journal && Config.Pool.DataDir.empty()) {
    std::fprintf(stderr, "mst_serve: --journal requires --data-dir\n");
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
              S.pool().size(), S.port());
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
  for (const Shard::Health &H : S.pool().health())
    Served += H.Requests;
  std::printf("mst_serve: drained, %llu requests served; bye\n",
              static_cast<unsigned long long>(Served));
  return 0;
}
