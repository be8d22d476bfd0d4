//===-- perfbench/driver/InProcess.cpp - Library-linked passes ------------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "InProcess.h"

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include "Json.h"
#include "image/MacroBenchmarks.h"
#include "image/Snapshot.h"
#include "obs/Telemetry.h"
#include "obs/TraceBuffer.h"
#include "serve/Journal.h"
#include "serve/Protocol.h"
#include "vm/Compiler.h"
#include "vm/VirtualMachine.h"

using namespace mst;
using namespace perfbench;

namespace {

double threadCpuSec() {
  timespec Ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &Ts);
  return static_cast<double>(Ts.tv_sec) + static_cast<double>(Ts.tv_nsec) / 1e9;
}

/// Blocks of --count requests a serve workload runs in each state; its
/// per-state figure is their median.
constexpr unsigned ServeBlocks = 5;

/// The Table 2 states this benchmark measures.
enum class State { Bs, Ms, Busy };
const char *stateName(State S) {
  return S == State::Bs ? "bs" : (S == State::Ms ? "ms" : "busy");
}

/// Worker interpreters for the MS states: min(host CPUs, 5), at least
/// two, as bench_table2 chooses them.
unsigned msInterpreters() {
  unsigned Hw = std::thread::hardware_concurrency();
  Hw = Hw == 0 ? 4 : Hw;
  return std::max(2u, std::min(Hw, 5u));
}

/// Boots a VM for \p S from the image, with the state's competitors.
/// \p StartWorkers runs Table 2's forked benchmark Processes; the serve
/// workloads evaluate on the driver as a shard does, so their baseline
/// VM starts none.
std::unique_ptr<VirtualMachine> bootState(State S, const std::string &Image,
                                          bool StartWorkers,
                                          std::string &Error) {
  auto VM = std::make_unique<VirtualMachine>(
      S == State::Bs ? VmConfig::baselineBS()
                     : VmConfig::multiprocessor(msInterpreters()));
  if (!loadSnapshot(*VM, Image, Error))
    return nullptr;
  if (StartWorkers || S != State::Bs)
    VM->startInterpreters();
  if (S == State::Ms)
    forkCompetitors(*VM, 1, idleProcessSource(), "PerfCompetitors");
  else if (S == State::Busy)
    forkCompetitors(*VM, 4, busyProcessSource(), "PerfCompetitors");
  return VM;
}

void stopState(State S, VirtualMachine &VM) {
  if (S != State::Bs)
    terminateCompetitors(VM, "PerfCompetitors");
  VM.shutdown();
}

/// The Smalltalk source a protocol line asks the VM to evaluate.
std::string sourceOf(const std::string &Line) {
  return serve::parseRequestLine(Line).Source;
}

std::string errorsJson(VirtualMachine &VM) {
  std::string Out = "[";
  for (const std::string &E : VM.errors()) {
    if (Out.size() > 1)
      Out += ',';
    Out += jsonString(E);
  }
  return Out + "]";
}

/// The macro_table2 request stream: the eight Table 2 benchmarks at
/// \p Scale, as doIt sources.
std::vector<std::string> macroSources(double Scale) {
  std::vector<std::string> Out;
  for (const MacroBenchmark &B : macroBenchmarks()) {
    int Iters = std::max(1, static_cast<int>(B.BaseIterations * Scale));
    std::string Body = B.Body;
    size_t At = Body.find("%SCALE%");
    if (At != std::string::npos)
      Body.replace(At, 7, std::to_string(Iters));
    Out.push_back(Body + ". 0");
  }
  return Out;
}

} // namespace

int perfbench::runBoot(const InProcessOptions &O) {
  std::string Error;
  auto VM = bootState(State::Ms, O.Image, true, Error);
  if (!VM) {
    std::fprintf(stderr, "perfbench: image load failed: %s\n", Error.c_str());
    return 1;
  }
  VirtualMachine::EvalResult R = VM->evaluate("3 + 4");
  std::printf("%s %s\n", R.Ok ? "OK" : "ERR", R.Value.c_str());
  std::fflush(stdout);
  stopState(State::Ms, *VM);
  return R.Ok && R.Value == "7" ? 0 : 1;
}

int perfbench::runStates(const InProcessOptions &O) {
  const bool Macro = O.Kind == WorkloadKind::Macro;
  bool AllOk = true;
  std::string Out = "{\"states\":{";
  for (State S : {State::Bs, State::Ms, State::Busy}) {
    std::string Error;
    auto VM = bootState(S, O.Image, Macro, Error);
    if (!VM) {
      std::fprintf(stderr, "perfbench: image load failed: %s\n",
                   Error.c_str());
      return 1;
    }
    uint64_t Bc0 = VM->totalBytecodes();
    std::string Runs = "[", Blocks = "[", Problem;
    if (Macro) {
      // Each repetition runs the eight benchmarks in a seeded order, so
      // no benchmark always follows the same one.
      SplitMix64 Rng(O.Seed * 31 + static_cast<uint64_t>(S));
      std::vector<size_t> Order(macroBenchmarks().size());
      for (size_t I = 0; I < Order.size(); ++I)
        Order[I] = I;
      for (unsigned Rep = 0; Rep < O.Reps; ++Rep) {
        for (size_t I = Order.size(); I > 1; --I)
          std::swap(Order[I - 1], Order[Rng.nextBelow(I)]);
        for (size_t B : Order) {
          TimedRun T =
              runMacroBenchmark(*VM, macroBenchmarks()[B], O.Scale, 120.0);
          if (!T.Ok && Problem.empty())
            Problem = "benchmark " + macroBenchmarks()[B].Name + " failed";
          if (Runs.size() > 1)
            Runs += ',';
          Runs += "{\"bench\":" + std::to_string(B) +
                  ",\"ok\":" + (T.Ok ? "true" : "false") +
                  ",\"cpu_s\":" + jsonNumber(T.CpuSec) +
                  ",\"wall_s\":" + jsonNumber(T.WallSec) + "}";
        }
      }
    } else {
      RequestStream Stream(O.Kind, O.Seed, 0);
      Request Setup = Stream.setup();
      VirtualMachine::EvalResult E = VM->evaluate(Setup.Line);
      if (!E.Ok || E.Value != Setup.Expect)
        Problem = "setup answered " + E.Value;
      for (unsigned Block = 0; Block < ServeBlocks && Problem.empty();
           ++Block) {
        double T0 = threadCpuSec();
        for (uint64_t I = 0; I < O.Count; ++I) {
          Request Q = Stream.next();
          E = VM->evaluate(sourceOf(Q.Line));
          if ((!E.Ok || E.Value != Q.Expect) && Problem.empty())
            Problem = "expected " + Q.Expect + ", got " + E.Value;
        }
        if (Blocks.size() > 1)
          Blocks += ',';
        Blocks += jsonNumber(threadCpuSec() - T0);
      }
    }
    uint64_t Bytecodes = VM->totalBytecodes() - Bc0;
    std::string Errors = errorsJson(*VM);
    if (Errors != "[]" && Problem.empty())
      Problem = "VM error log not empty";
    std::string Telem = Telemetry::toJson(Telemetry::snapshot());
    stopState(S, *VM);
    AllOk = AllOk && Problem.empty();
    if (S != State::Bs)
      Out += ',';
    Out += jsonString(stateName(S)) + ":{\"runs\":" + Runs +
           "],\"blocks_cpu_s\":" + Blocks +
           "],\"bytecodes\":" + std::to_string(Bytecodes) +
           ",\"problem\":" + jsonString(Problem) + ",\"errors\":" + Errors +
           ",\"telemetry\":" + Telem + "}";
  }
  Out += "},\"count\":" + std::to_string(Macro ? 0 : O.Count) +
         ",\"ok\":" + std::string(AllOk ? "true" : "false") + "}";
  std::printf("%s\n", Out.c_str());
  return AllOk ? 0 : 1;
}

int perfbench::runReplay(const InProcessOptions &O) {
  const bool Macro = O.Kind == WorkloadKind::Macro;
  std::string Error;
  // One VM configured as a serving shard is: MS, driver-evaluated.
  auto VM = std::make_unique<VirtualMachine>(VmConfig::multiprocessor(1));
  if (!loadSnapshot(*VM, O.Image, Error)) {
    std::fprintf(stderr, "perfbench: image load failed: %s\n", Error.c_str());
    return 1;
  }
  serve::Journal J;
  if (!J.open(O.Journal, Error)) {
    std::fprintf(stderr, "perfbench: journal open failed: %s\n",
                 Error.c_str());
    return 1;
  }
  std::ofstream Trace(O.TraceOut, std::ios::trunc);
  if (!Trace) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", O.TraceOut.c_str());
    return 1;
  }
  ObjectModel &Om = VM->model();
  RequestStream Stream(O.Kind, O.Seed, 0);
  std::vector<std::string> MacroLines = macroSources(O.Scale);
  std::string Problem;
  if (!Macro) {
    Request Setup = Stream.setup();
    VirtualMachine::EvalResult E = VM->evaluate(Setup.Line);
    if (!E.Ok || E.Value != Setup.Expect)
      Problem = "setup answered " + E.Value;
  }
  // Batches as small as the daemon's typical ones keep every batch's
  // spans inside one trace ring.
  const uint64_t BatchSize = Macro ? 1 : 16;
  uint64_t Next = 0;

  auto Pass = [&](bool Traced, double &Cpu, uint64_t &Bytecodes) {
    Telemetry::setTracingEnabled(Traced);
    clearTrace();
    double DumpCpu = 0;
    uint64_t Bc0 = VM->totalBytecodes();
    double C0 = threadCpuSec();
    for (uint64_t Done = 0; Done < O.Count && Problem.empty();) {
      struct Item {
        uint64_t Id = 0;
        Request Q;
        serve::Request R;
        uint64_t RecordId = 0;
      };
      std::vector<Item> Batch;
      for (; Batch.size() < BatchSize && Done < O.Count; ++Done, ++Next) {
        Item It;
        It.Id = Next;
        if (Macro)
          It.Q = {MacroLines[Next % MacroLines.size()], "0"};
        else
          It.Q = Stream.next();
        {
          TraceSpan S("pb.parse", "perfbench");
          S.setArg(It.Id);
          It.R = serve::parseRequestLine(It.Q.Line);
        }
        {
          TraceSpan S("pb.journal.append", "perfbench");
          S.setArg(It.Id);
          if (!J.appendIntent(0, It.R.Seq, It.R.HasSeq, It.R.Source,
                              It.RecordId, Error))
            Problem = "journal append failed: " + Error;
        }
        Batch.push_back(std::move(It));
      }
      {
        TraceSpan S("pb.journal.sync", "perfbench");
        if (!J.sync(Error))
          Problem = "journal sync failed: " + Error;
      }
      for (Item &It : Batch) {
        CompileResult C;
        {
          TraceSpan S("pb.compile", "perfbench");
          S.setArg(It.Id);
          C = compileDoItSource(Om, Om.known().ClassUndefinedObject,
                                It.R.Source);
        }
        if (!C.ok()) {
          Problem = "compile error: " + C.Error;
          break;
        }
        Oop Result;
        {
          TraceSpan S("pb.execute", "perfbench");
          S.setArg(It.Id);
          Oop Ctx = VM->buildBottomContext(C.Method, Om.nil());
          Result = Ctx.isNull() ? Oop() : VM->driver().runToCompletion(Ctx);
        }
        if (Result.isNull()) {
          Problem = "execution failed";
          break;
        }
        std::string Value;
        {
          TraceSpan S("pb.render", "perfbench");
          S.setArg(It.Id);
          Value = Om.describe(Result);
        }
        {
          TraceSpan S("pb.journal.append", "perfbench");
          S.setArg(It.Id);
          if (!J.appendOutcome(It.RecordId, 0, It.R.Seq, It.R.HasSeq,
                               serve::Journal::Outcome::Executed, true, Value,
                               Error))
            Problem = "journal append failed: " + Error;
        }
        std::string Line;
        {
          TraceSpan S("pb.format", "perfbench");
          S.setArg(It.Id);
          Line = serve::formatResponse(true, It.R.Tag, Value);
        }
        if (Value != It.Q.Expect && Problem.empty())
          Problem = "expected " + It.Q.Expect + ", got " + Value;
      }
      if (Traced) {
        // Exporting the batch's spans is the benchmark's own work: keep
        // it out of the pass's time so the difference is span recording.
        double D0 = threadCpuSec();
        Trace << chromeTraceJson() << '\n';
        clearTrace();
        DumpCpu += threadCpuSec() - D0;
      }
    }
    Cpu = threadCpuSec() - C0 - DumpCpu;
    Bytecodes = VM->totalBytecodes() - Bc0;
    Telemetry::setTracingEnabled(false);
  };

  double PlainCpu = 0, TracedCpu = 0;
  uint64_t PlainBc = 0, TracedBc = 0;
  Telemetry::Snapshot Before = Telemetry::snapshot();
  Pass(false, PlainCpu, PlainBc);
  Telemetry::Snapshot Mid = Telemetry::snapshot();
  Pass(true, TracedCpu, TracedBc);
  std::string Errors = errorsJson(*VM);
  if (Errors != "[]" && Problem.empty())
    Problem = "VM error log not empty";
  J.close();
  VM->shutdown();
  std::printf("{\"count\":%llu,\"plain\":{\"cpu_s\":%s,"
              "\"bytecodes\":%llu},\"traced\":{\"cpu_s\":%s,"
              "\"bytecodes\":%llu},\"telemetry_before\":%s,"
              "\"telemetry_plain\":%s,\"problem\":%s,\"errors\":%s}\n",
              static_cast<unsigned long long>(O.Count),
              jsonNumber(PlainCpu).c_str(),
              static_cast<unsigned long long>(PlainBc),
              jsonNumber(TracedCpu).c_str(),
              static_cast<unsigned long long>(TracedBc),
              Telemetry::toJson(Before).c_str(),
              Telemetry::toJson(Mid).c_str(), jsonString(Problem).c_str(),
              Errors.c_str());
  return Problem.empty() ? 0 : 1;
}
