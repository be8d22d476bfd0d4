//===-- perfbench/driver/main.cpp - Benchmark driver entry point ----------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench_driver: the compiled half of the benchmark; run.py calls it.
///
///   perfbench_driver loadgen --port=N --workload=W --seed=N --warmup=N
///                            --rate=R --paced=N --closed=N
///                            [--min-full-gcs=N] [--server-pid=N]
///       drive a running mst_serve over 4 pipelined loopback connections
///   perfbench_driver boot --image=PATH
///       boot a VM from the image and answer one request (set-up probe)
///   perfbench_driver states --workload=W --image=PATH --seed=N ...
///       the workload's VM work in the Table 2 states bs / ms / busy
///   perfbench_driver replay --workload=W --image=PATH --seed=N ...
///       the traced in-process replay of the workload's requests
///
/// Every command prints one JSON object on stdout and exits non-zero
/// when a check failed.
///
//===----------------------------------------------------------------------===//

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <dirent.h>
#include <unistd.h>

#include "InProcess.h"
#include "Json.h"
#include "LoadGen.h"

using namespace perfbench;

namespace {

// The load shape every serve workload shares.
constexpr unsigned Conns = 4;     ///< one per shard, each its own session
constexpr unsigned Window = 32;   ///< closed-loop requests in flight per conn
constexpr unsigned Segments = 10; ///< back-to-back segments per measured phase
/// serve_cache warm-up: requests per step while waiting for every shard's
/// full collection, and how many it sends at most before giving up.
constexpr uint64_t WarmChunk = 500;
constexpr uint64_t WarmMax = 2000000;

/// --key=value arguments after the command name.
std::map<std::string, std::string> parseArgs(int Argc, char **Argv) {
  std::map<std::string, std::string> Out;
  for (int I = 2; I < Argc; ++I) {
    const char *A = Argv[I];
    const char *Eq = std::strchr(A, '=');
    if (std::strncmp(A, "--", 2) != 0 || !Eq) {
      std::fprintf(stderr, "perfbench_driver: bad argument '%s'\n", A);
      std::exit(2);
    }
    Out[std::string(A + 2, Eq)] = Eq + 1;
  }
  return Out;
}

struct Args {
  std::map<std::string, std::string> M;
  std::string str(const std::string &K, const std::string &Dflt = "") const {
    auto It = M.find(K);
    return It == M.end() ? Dflt : It->second;
  }
  uint64_t num(const std::string &K, uint64_t Dflt) const {
    auto It = M.find(K);
    return It == M.end() ? Dflt : std::strtoull(It->second.c_str(), nullptr, 0);
  }
  /// A numeric argument the command cannot run without.
  uint64_t need(const std::string &K) const {
    if (!M.count(K)) {
      std::fprintf(stderr, "perfbench_driver: missing --%s=N\n", K.c_str());
      std::exit(2);
    }
    return num(K, 0);
  }
  double real(const std::string &K, double Dflt) const {
    auto It = M.find(K);
    return It == M.end() ? Dflt : std::strtod(It->second.c_str(), nullptr);
  }
};

/// CPU seconds process \p Pid's live threads have run, summed from each
/// thread's schedstat (nanosecond resolution; the daemon's threads live
/// as long as it does).
double processCpuSec(long Pid) {
  std::string Dir = "/proc/" + std::to_string(Pid) + "/task";
  DIR *D = opendir(Dir.c_str());
  if (!D)
    return -1.0;
  unsigned long long Total = 0;
  while (dirent *E = readdir(D)) {
    if (E->d_name[0] == '.')
      continue;
    std::string Path = Dir + "/" + E->d_name + "/schedstat";
    if (FILE *F = std::fopen(Path.c_str(), "r")) {
      unsigned long long Ns = 0;
      if (std::fscanf(F, "%llu", &Ns) == 1)
        Total += Ns;
      std::fclose(F);
    }
  }
  closedir(D);
  return static_cast<double>(Total) / 1e9;
}

/// The value of registry counter \p Name in a `!health` JSON line, or 0.
uint64_t healthCounter(const std::string &Health, const std::string &Name) {
  std::string Key = "\"" + Name + "\":";
  size_t At = Health.find(Key);
  return At == std::string::npos
             ? 0
             : std::strtoull(Health.c_str() + At + Key.size(), nullptr, 10);
}

std::string phaseJson(const PhaseResult &R, double CpuSec = -1.0) {
  std::string Out = "{\"sent\":" + std::to_string(R.Sent) +
                    ",\"ok\":" + std::to_string(R.Ok) +
                    ",\"err\":" + std::to_string(R.Err) +
                    ",\"wrong\":" + std::to_string(R.Wrong) +
                    ",\"transport\":" + std::to_string(R.Transport) +
                    ",\"elapsed_s\":" + jsonNumber(R.ElapsedSec) +
                    ",\"first_problem\":" + jsonString(R.FirstProblem);
  if (CpuSec >= 0.0)
    Out += ",\"server_cpu_s\":" + jsonNumber(CpuSec);
  if (!R.LatencyNs.empty())
    Out += ",\"latency_ns\":" + jsonArray(R.LatencyNs) +
           ",\"lateness_ns\":" + jsonArray(R.LatenessNs);
  return Out + "}";
}

int runLoadGen(const Args &A) {
  WorkloadKind Kind;
  if (!parseWorkload(A.str("workload"), Kind) || Kind == WorkloadKind::Macro) {
    std::fprintf(stderr, "perfbench_driver: loadgen needs a serve workload\n");
    return 2;
  }
  const uint16_t Port = static_cast<uint16_t>(A.need("port"));
  const long Pid = static_cast<long>(A.num("server-pid", 0));
  const uint64_t Seed = A.need("seed");
  const double Rate = A.real("rate", 0.0);
  if (Rate <= 0.0) {
    std::fprintf(stderr, "perfbench_driver: loadgen needs --rate=REQ_PER_S\n");
    return 2;
  }

  std::vector<int> Fds;
  for (unsigned K = 0; K < Conns; ++K) {
    int Fd = connectLoopback(Port);
    if (Fd < 0) {
      std::fprintf(stderr, "perfbench_driver: connect to %u failed\n", Port);
      for (int F : Fds)
        close(F);
      return 1;
    }
    Fds.push_back(Fd);
  }
  LoadGen G(Fds);
  std::vector<RequestStream> Streams;
  std::string Problem; // the first failed check
  auto Fail = [&](const std::string &What) {
    if (Problem.empty())
      Problem = What;
  };
  auto Expect = [&](unsigned K, const std::string &Line,
                    const std::string &Want) {
    std::string Resp;
    if (!G.roundTrip(K, Line, Resp))
      Fail("no answer to '" + Line + "'");
    else if (Resp != "OK " + Want)
      Fail("'" + Line + "' answered '" + Resp + "'");
  };
  // Connection k is session k, which the daemon pins to shard k.
  for (unsigned K = 0; K < Conns; ++K) {
    Expect(K, "!session " + std::to_string(K),
           "session bound to client " + std::to_string(K) + " shard " +
               std::to_string(K));
    Streams.emplace_back(Kind, Seed, K);
    Request Setup = Streams.back().setup();
    Expect(K, Setup.Line, Setup.Expect);
  }
  auto Health = [&] {
    std::string Resp;
    if (!G.roundTrip(0, "!health", Resp) || Resp.rfind("OK {", 0) != 0) {
      Fail("!health failed");
      return std::string("{}");
    }
    return Resp.substr(3);
  };
  // Checkpoints come at phase boundaries, with nothing in flight, rather
  // than from the daemon's timer: a timed checkpoint lands at a different
  // point of each run, and its transient buffers made the RSS high-water
  // mark differ by up to 60 MB from run to run.
  auto Checkpoint = [&] {
    std::string Resp;
    bool Ok = G.roundTrip(0, "!checkpoint", Resp) && Resp.rfind("OK", 0) == 0;
    for (unsigned K = 1; K < Conns && Ok; ++K)
      Ok = G.receive(0, Resp) && Resp.rfind("OK", 0) == 0;
    if (!Ok)
      Fail("!checkpoint answered '" + Resp + "'");
  };
  NextRequest Next = [&](unsigned K) { return Streams[K].next(); };

  std::string Out = "{";
  if (Problem.empty()) {
    std::string H0 = Health();
    // Warm-up: a fixed count, then (serve_cache) fixed-size chunks until
    // every shard has completed the required full collections. The shards
    // allocate identically, so a total of MinFullGcs * shards means each
    // shard has run MinFullGcs of them.
    PhaseResult Warm = G.closed(A.need("warmup"), Window, Next);
    const uint64_t NeedGcs = A.num("min-full-gcs", 0) * Conns;
    std::string H1 = Health();
    for (uint64_t Extra = 0;
         Problem.empty() && Warm.failed() == 0 &&
         healthCounter(H1, "gc.full.collections") < NeedGcs &&
         Extra < WarmMax;
         Extra += WarmChunk) {
      Warm.absorb(G.closed(WarmChunk, Window, Next));
      H1 = Health();
    }
    if (healthCounter(H1, "gc.full.collections") < NeedGcs)
      Fail("warm-up ended before every shard ran a full collection");
    Checkpoint();

    // The measured phases run as back-to-back segments; the report takes
    // the median over segments, so one host hiccup moves one segment.
    std::string PacedJson = "[", ClosedJson = "[";
    for (unsigned K = 0; K < Segments; ++K) {
      double Cpu0 = processCpuSec(Pid);
      PhaseResult Seg =
          G.paced(A.need("paced") / Segments, Rate, Next);
      double Cpu1 = processCpuSec(Pid);
      PacedJson += (K ? "," : "") + phaseJson(Seg, Cpu1 - Cpu0);
    }
    std::string H2 = Health();
    Checkpoint();
    for (unsigned K = 0; K < Segments; ++K)
      ClosedJson += (K ? "," : "") +
                    phaseJson(G.closed(A.need("closed") / Segments, Window,
                                       Next));
    std::string H3 = Health();
    Checkpoint();

    // serve_small: each counter must equal its acknowledged increments.
    if (Kind == WorkloadKind::ServeSmall)
      for (unsigned K = 0; K < Conns; ++K) {
        Request Q = Streams[K].readCounter();
        Expect(K, Q.Line, Q.Expect);
      }
    Out += "\"phases\":{\"warmup\":" + phaseJson(Warm) +
           ",\"paced\":" + PacedJson + "],\"closed\":" + ClosedJson +
           "]},\"health\":{\"start\":" +
           H0 + ",\"warm\":" + H1 + ",\"paced\":" + H2 + ",\"closed\":" +
           H3 + "},";
  }
  Out += "\"problem\":" + jsonString(Problem) + "}";
  std::printf("%s\n", Out.c_str());
  return Problem.empty() ? 0 : 1;
}

InProcessOptions inProcessOptions(const Args &A) {
  InProcessOptions O;
  if (!A.str("workload").empty() && !parseWorkload(A.str("workload"), O.Kind)) {
    std::fprintf(stderr, "perfbench_driver: unknown workload '%s'\n",
                 A.str("workload").c_str());
    std::exit(2);
  }
  O.Image = A.str("image");
  O.Seed = A.num("seed", 1);
  O.Count = A.num("count", 0);
  O.Reps = static_cast<unsigned>(A.num("reps", 1));
  O.Scale = A.real("scale", 1.0);
  O.Journal = A.str("journal");
  O.TraceOut = A.str("trace-out");
  return O;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s loadgen|boot|states|replay --key=value...\n",
                 argv[0]);
    return 2;
  }
  Args A{parseArgs(argc, argv)};
  std::string Cmd = argv[1];
  if (Cmd == "loadgen")
    return runLoadGen(A);
  if (Cmd == "boot")
    return runBoot(inProcessOptions(A));
  if (Cmd == "states")
    return runStates(inProcessOptions(A));
  if (Cmd == "replay")
    return runReplay(inProcessOptions(A));
  std::fprintf(stderr, "perfbench_driver: unknown command '%s'\n",
               Cmd.c_str());
  return 2;
}
