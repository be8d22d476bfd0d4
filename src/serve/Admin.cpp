//===-- serve/Admin.cpp - Aggregate health/telemetry report ---------------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/Admin.h"

#include <map>

#include "obs/Profiler.h"
#include "obs/Telemetry.h"

using namespace mst;
using namespace mst::serve;

namespace {
/// Per-slot-name sample counts by profiler state: which shards spend
/// their samples running versus lock-waiting versus collecting. Reads
/// only the sampler's accumulated tables — no oop resolution, no heap.
std::string profilerBreakdownJson() {
  Profiler::Data D = Profiler::data();
  // name -> state name -> samples (slots merge by name across restarts)
  std::map<std::string, std::map<std::string, uint64_t>> ByName;
  for (const Profiler::VprocData &V : D.Vprocs)
    for (const auto &[Key, Count] : V.Samples) {
      const char *St =
          Key.State < NumProfStates
              ? profStateName(static_cast<ProfState>(Key.State))
              : "?";
      ByName[V.Name][St] += Count;
    }
  std::string Out = "{\"ticks\":" + std::to_string(D.Ticks) +
                    ",\"states\":{";
  bool FirstName = true;
  for (const auto &[Name, States] : ByName) {
    if (!FirstName)
      Out += ',';
    FirstName = false;
    jsonStringTo(Out, Name);
    Out += ":{";
    bool FirstSt = true;
    for (const auto &[St, Count] : States) {
      if (!FirstSt)
        Out += ',';
      FirstSt = false;
      jsonStringTo(Out, St);
      Out += ':' + std::to_string(Count);
    }
    Out += '}';
  }
  Out += "}}";
  return Out;
}
} // namespace

std::string serve::buildHealthJson(const std::vector<Shard::Health> &Shards,
                                   ServeStats &Stats,
                                   const std::vector<ShardGateView>
                                       *Gates) {
  std::string Out = "{\"shards\":[";
  bool First = true;
  uint64_t QueueDepth = 0, Requests = 0, Batches = 0;
  uint64_t Errors = Stats.Errors.value(); // the front-end's own ERRs
  for (const Shard::Health &H : Shards) {
    if (!First)
      Out += ',';
    First = false;
    QueueDepth += H.QueueDepth;
    Requests += H.Requests;
    Errors += H.Errors;
    Batches += H.Batches;
    Out += "{\"id\":" + std::to_string(H.Index) + ",\"state\":";
    jsonStringTo(Out, H.State);
    Out += ",\"generation\":" + std::to_string(H.Generation) +
           ",\"restarts\":" + std::to_string(H.Restarts) +
           ",\"requests\":" + std::to_string(H.Requests) +
           ",\"errors\":" + std::to_string(H.Errors) +
           ",\"batches\":" + std::to_string(H.Batches) +
           ",\"checkpoints\":" + std::to_string(H.Checkpoints) +
           ",\"queue_depth\":" + std::to_string(H.QueueDepth) +
           ",\"oldest_queued_ms\":" + std::to_string(H.OldestQueuedMs) +
           ",\"deadline_expired\":" +
           std::to_string(H.DeadlineExpired) +
           ",\"journal_bytes\":" + std::to_string(H.JournalBytes) +
           ",\"replayed\":" + std::to_string(H.Replayed) +
           ",\"dedup_size\":" + std::to_string(H.DedupSize) +
           ",\"dedup_hits\":" + std::to_string(H.DedupHits);
    if (Gates && H.Index < Gates->size()) {
      const ShardGateView &G = (*Gates)[H.Index];
      Out += ",\"breaker\":";
      jsonStringTo(Out, G.Breaker);
      Out += ",\"outstanding\":" + std::to_string(G.Outstanding) +
             ",\"consec_timeouts\":" +
             std::to_string(G.ConsecTimeouts);
    }
    Out += ",\"last_error\":";
    jsonStringTo(Out, H.LastError);
    Out += '}';
  }
  Out += "],\"sessions\":{\"active\":" +
         std::to_string(Stats.ActiveSessions.load()) +
         ",\"total\":" + std::to_string(Stats.TotalSessions.load()) +
         "},\"requests\":{\"completed\":" + std::to_string(Requests) +
         ",\"errors\":" + std::to_string(Errors) +
         ",\"batches\":" + std::to_string(Batches) +
         ",\"queued\":" + std::to_string(QueueDepth) +
         "},\"profiler\":" + profilerBreakdownJson() +
         ",\"telemetry\":" + Telemetry::toJson(Telemetry::snapshot()) +
         "}";
  return Out;
}
