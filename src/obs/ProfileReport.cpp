//===-- obs/ProfileReport.cpp - Resolved profile reports ------------------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/ProfileReport.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <tuple>
#include <unordered_map>

#include "obs/Telemetry.h"

using namespace mst;

namespace {

std::string placeholderFrame(uintptr_t MethodBits) {
  return MethodBits == 0 ? "(no method)" : "(reclaimed method)";
}

std::string resolveOr(const std::function<std::string(uintptr_t)> &F,
                      uintptr_t Bits, const std::string &Fallback) {
  if (F) {
    std::string S = F(Bits);
    if (!S.empty())
      return S;
  }
  return Fallback;
}

double pct(uint64_t Part, uint64_t Whole) {
  return Whole ? 100.0 * double(Part) / double(Whole) : 0.0;
}

void appendLine(std::string &Out, const char *Fmt, ...)
    __attribute__((format(printf, 2, 3)));

void appendLine(std::string &Out, const char *Fmt, ...) {
  char Buf[512];
  va_list Ap;
  va_start(Ap, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Ap);
  va_end(Ap);
  Out += Buf;
  Out += '\n';
}

/// The per-vproc table's state columns, in order, with their headers.
const std::pair<ProfState, const char *> TableStates[] = {
    {ProfState::Running, "run"},        {ProfState::LookupMiss, "miss"},
    {ProfState::LockWait, "lock"},      {ProfState::Safepoint, "safept"},
    {ProfState::Scavenge, "scav"},      {ProfState::FullGc, "fullgc"},
    {ProfState::Idle, "idle"},
};
static_assert(std::size(TableStates) == NumProfStates,
              "one per-vproc column per ProfState");

} // namespace

void ProfileReport::merge(const ProfileReport &O) {
  std::map<std::tuple<std::string, std::string, std::string>, uint64_t>
      Buckets;
  for (const SampleRow &R : Samples)
    Buckets[{R.Vproc, R.State, R.Frame}] += R.Count;
  for (const SampleRow &R : O.Samples)
    Buckets[{R.Vproc, R.State, R.Frame}] += R.Count;
  Samples.clear();
  for (const auto &[K, V] : Buckets)
    Samples.push_back({std::get<0>(K), std::get<1>(K), std::get<2>(K), V});

  auto mergeSites = [](std::vector<SiteRow> &Mine,
                       const std::vector<SiteRow> &Theirs) {
    std::map<std::pair<std::string, std::string>, uint64_t> B;
    for (const SiteRow &R : Mine)
      B[{R.A, R.B}] += R.Count;
    for (const SiteRow &R : Theirs)
      B[{R.A, R.B}] += R.Count;
    Mine.clear();
    for (const auto &[K, V] : B)
      Mine.push_back({K.first, K.second, V});
  };
  mergeSites(MissSites, O.MissSites);
  mergeSites(AllocSites, O.AllocSites);

  Ticks += O.Ticks;
  TotalSamples += O.TotalSamples;
  AttributedSamples += O.AttributedSamples;
  AllocDropped += O.AllocDropped;
  MissDropped += O.MissDropped;
  if (!SampleHz)
    SampleHz = O.SampleHz;
  if (!AllocSamplePeriod)
    AllocSamplePeriod = O.AllocSamplePeriod;
}

std::string ProfileReport::render() const {
  std::string Out;
  appendLine(Out, "=== profile: %llu samples over %llu ticks @ %u Hz ===",
             (unsigned long long)TotalSamples, (unsigned long long)Ticks,
             SampleHz);
  if (TotalSamples)
    appendLine(Out, "attributed: %llu (%.1f%%)",
               (unsigned long long)AttributedSamples,
               pct(AttributedSamples, TotalSamples));

  // --- per-vproc state breakdown: where each vproc's wall time went.
  appendLine(Out, "%s", "");
  appendLine(Out, "--- time breakdown per vproc (%% of that vproc's samples)");
  char Cell[16];
  std::string Cols;
  for (const auto &[St, Header] : TableStates) {
    std::snprintf(Cell, sizeof(Cell), " %7s", Header);
    Cols += Cell;
  }
  appendLine(Out, "%-12s %9s %s", "vproc", "samples", Cols.c_str());
  std::map<std::string, std::vector<uint64_t>> PerVp;
  for (const SampleRow &R : Samples) {
    auto &Row = PerVp[R.Vproc];
    if (Row.empty())
      Row.assign(NumProfStates + 1, 0);
    Row[NumProfStates] += R.Count;
    for (unsigned I = 0; I < NumProfStates; ++I)
      if (R.State == profStateName(TableStates[I].first))
        Row[I] += R.Count;
  }
  for (const auto &[Vp, Row] : PerVp) {
    uint64_t T = Row[NumProfStates];
    Cols.clear();
    for (unsigned I = 0; I < NumProfStates; ++I) {
      std::snprintf(Cell, sizeof(Cell), " %6.1f%%", pct(Row[I], T));
      Cols += Cell;
    }
    appendLine(Out, "%-12s %9llu %s", Vp.c_str(), (unsigned long long)T,
               Cols.c_str());
  }

  // --- method hot spots: self samples across all vprocs, split by state.
  struct Hot {
    uint64_t Total = 0;
    uint64_t Running = 0;
    uint64_t Other = 0;
  };
  std::unordered_map<std::string, Hot> ByFrame;
  for (const SampleRow &R : Samples) {
    if (R.State == "idle")
      continue; // idle has no meaningful frame
    Hot &H = ByFrame[R.Frame];
    H.Total += R.Count;
    if (R.State == "running")
      H.Running += R.Count;
    else
      H.Other += R.Count;
  }
  std::vector<std::pair<std::string, Hot>> HotRows(ByFrame.begin(),
                                                   ByFrame.end());
  std::sort(HotRows.begin(), HotRows.end(),
            [](const auto &A, const auto &B) {
              return A.second.Total > B.second.Total;
            });
  appendLine(Out, "%s", "");
  appendLine(Out, "--- hot methods (self samples; %% of all samples)");
  appendLine(Out, "%9s %7s %9s %9s  %s", "samples", "%wall", "running",
             "waiting", "method");
  size_t Shown = 0;
  for (const auto &[Frame, H] : HotRows) {
    if (++Shown > 25)
      break;
    appendLine(Out, "%9llu %6.1f%% %9llu %9llu  %s",
               (unsigned long long)H.Total, pct(H.Total, TotalSamples),
               (unsigned long long)H.Running, (unsigned long long)H.Other,
               Frame.c_str());
  }

  // --- method-cache miss profile, keyed by selector then call site.
  if (!MissSites.empty()) {
    std::map<std::string, uint64_t> BySel;
    for (const SiteRow &R : MissSites)
      BySel[R.B] += R.Count;
    std::vector<std::pair<std::string, uint64_t>> Sel(BySel.begin(),
                                                      BySel.end());
    std::sort(Sel.begin(), Sel.end(), [](const auto &A, const auto &B) {
      return A.second > B.second;
    });
    appendLine(Out, "%s", "");
    appendLine(Out, "--- method-cache misses by selector (dropped: %llu)",
               (unsigned long long)MissDropped);
    Shown = 0;
    for (const auto &[S, N] : Sel) {
      if (++Shown > 15)
        break;
      appendLine(Out, "%9llu  #%s", (unsigned long long)N, S.c_str());
    }
  }

  // --- allocation sites (sampled every Nth allocation).
  if (!AllocSites.empty()) {
    std::vector<SiteRow> Rows = AllocSites;
    std::sort(Rows.begin(), Rows.end(),
              [](const SiteRow &A, const SiteRow &B) {
                return A.Count > B.Count;
              });
    appendLine(Out, "%s", "");
    appendLine(Out,
               "--- allocation sites (1-in-%u sampled; dropped: %llu)",
               AllocSamplePeriod, (unsigned long long)AllocDropped);
    appendLine(Out, "%9s  %-28s %s", "samples", "class", "allocated in");
    Shown = 0;
    for (const SiteRow &R : Rows) {
      if (++Shown > 20)
        break;
      appendLine(Out, "%9llu  %-28s %s", (unsigned long long)R.Count,
                 R.B.c_str(), R.A.c_str());
    }
  }
  return Out;
}

std::string ProfileReport::folded() const {
  // "vp0;Bag>>add:;lock-wait 42" — vproc at the root, current method in
  // the middle, the state as the leaf, so a flamegraph shows each vproc's
  // wall time split by method and, within a method, by what it was doing.
  std::string Out;
  for (const SampleRow &R : Samples) {
    Out += R.Vproc;
    Out += ';';
    Out += R.Frame;
    Out += ';';
    Out += R.State;
    Out += ' ';
    Out += std::to_string(R.Count);
    Out += '\n';
  }
  return Out;
}

bool ProfileReport::writeFolded(const std::string &Path) const {
  std::ofstream Os(Path, std::ios::binary | std::ios::trunc);
  if (!Os)
    return false;
  Os << folded();
  return static_cast<bool>(Os);
}

std::string ProfileReport::toJson() const {
  std::string Out = "{";
  Out += "\"ticks\":" + std::to_string(Ticks);
  Out += ",\"sample_hz\":" + std::to_string(SampleHz);
  Out += ",\"total_samples\":" + std::to_string(TotalSamples);
  Out += ",\"attributed_samples\":" + std::to_string(AttributedSamples);
  Out += ",\"alloc_sample_period\":" + std::to_string(AllocSamplePeriod);
  Out += ",\"alloc_dropped\":" + std::to_string(AllocDropped);
  Out += ",\"miss_dropped\":" + std::to_string(MissDropped);

  Out += ",\"samples\":[";
  bool First = true;
  for (const SampleRow &R : Samples) {
    if (!First)
      Out += ',';
    First = false;
    Out += "{\"vproc\":";
    jsonStringTo(Out, R.Vproc);
    Out += ",\"state\":";
    jsonStringTo(Out, R.State);
    Out += ",\"frame\":";
    jsonStringTo(Out, R.Frame);
    Out += ",\"count\":" + std::to_string(R.Count) + "}";
  }
  Out += "]";

  auto sitesJson = [](const std::vector<SiteRow> &Rows, const char *AName,
                      const char *BName) {
    std::string S = "[";
    bool Fst = true;
    for (const SiteRow &R : Rows) {
      if (!Fst)
        S += ',';
      Fst = false;
      S += '{';
      jsonStringTo(S, AName);
      S += ':';
      jsonStringTo(S, R.A);
      S += ',';
      jsonStringTo(S, BName);
      S += ':';
      jsonStringTo(S, R.B);
      S += ",\"count\":" + std::to_string(R.Count) + "}";
    }
    S += "]";
    return S;
  };
  Out += ",\"cache_misses\":" + sitesJson(MissSites, "site", "selector");
  Out += ",\"alloc_sites\":" + sitesJson(AllocSites, "site", "class");
  Out += "}";
  return Out;
}

ProfileReport mst::resolveProfile(const Profiler::Data &D,
                                  const ProfileResolver &R) {
  ProfileReport Rep;
  Rep.Ticks = D.Ticks;
  Rep.SampleHz = D.SampleHz;
  Rep.AllocSamplePeriod = D.AllocSamplePeriod;

  // Memoize resolution per bits value: the same method shows up in many
  // tuples and the validation walk is not free.
  std::unordered_map<uintptr_t, std::string> MethodNames, ClassNames,
      SelectorNames;
  auto methodFor = [&](uintptr_t Bits) -> const std::string & {
    auto It = MethodNames.find(Bits);
    if (It == MethodNames.end())
      It = MethodNames
               .emplace(Bits, resolveOr(R.MethodName, Bits,
                                        placeholderFrame(Bits)))
               .first;
    return It->second;
  };
  auto classFor = [&](uintptr_t Bits) -> const std::string & {
    auto It = ClassNames.find(Bits);
    if (It == ClassNames.end())
      It = ClassNames.emplace(Bits, resolveOr(R.ClassName, Bits, "?"))
               .first;
    return It->second;
  };
  auto selectorFor = [&](uintptr_t Bits) -> const std::string & {
    auto It = SelectorNames.find(Bits);
    if (It == SelectorNames.end())
      It = SelectorNames.emplace(Bits, resolveOr(R.SelectorName, Bits, "?"))
               .first;
    return It->second;
  };

  for (const Profiler::VprocData &V : D.Vprocs) {
    std::string Vp = !V.Name.empty() ? V.Name
                     : V.Vproc >= 0  ? "vp" + std::to_string(V.Vproc)
                                     : "host";
    std::map<std::tuple<std::string, std::string>, uint64_t> Buckets;
    for (const auto &[K, N] : V.Samples) {
      auto St = static_cast<ProfState>(
          K.State < NumProfStates ? K.State
                                  : uint8_t(ProfState::Running));
      const std::string &Frame = St == ProfState::Idle
                                     ? std::string("(idle)")
                                     : methodFor(K.Method);
      Rep.TotalSamples += N;
      bool Named = Frame[0] != '(' && Frame[0] != '?';
      if (Named || St != ProfState::Running)
        Rep.AttributedSamples += N;
      Buckets[{std::string(profStateName(St)), Frame}] += N;
    }
    for (const auto &[K, N] : Buckets)
      Rep.Samples.push_back({Vp, std::get<0>(K), std::get<1>(K), N});

    for (const auto &[K, N] : V.MissSites)
      Rep.MissSites.push_back({methodFor(K.A), selectorFor(K.B), N});
    for (const auto &[K, N] : V.AllocSites)
      Rep.AllocSites.push_back({methodFor(K.A), classFor(K.B), N});
    Rep.AllocDropped += V.AllocDropped;
    Rep.MissDropped += V.MissDropped;
  }

  // Coalesce cross-vproc duplicate site rows.
  ProfileReport Empty;
  std::swap(Empty.MissSites, Rep.MissSites);
  std::swap(Empty.AllocSites, Rep.AllocSites);
  Rep.merge(Empty);
  // merge() double-counted nothing: Empty had zero counts elsewhere.
  return Rep;
}
