//===-- tests/stress/SnapshotChaosTest.cpp - Crash-consistency storms -----===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Crash-consistency storms against the snapshot subsystem: seeded
/// `snapshot.truncate` tears (the simulated kill-during-save) and
/// `io.write.fail`/`io.fsync.fail` storms must never leave the target
/// path unloadable — after every storm the image at the target (or a
/// rotated generation via the recovery ladder) loads and holds the last
/// successfully committed state.
///
//===----------------------------------------------------------------------===//

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "TestVm.h"
#include "image/Snapshot.h"
#include "stress/StressSupport.h"

using namespace mst;

namespace {

std::string tempPath(const char *Name) {
  return std::string(::testing::TempDir()) + "/" + Name;
}

void removeGenerations(const std::string &Path, unsigned Keep) {
  ::unlink(Path.c_str());
  ::unlink((Path + ".panic").c_str());
  for (unsigned G = 1; G <= Keep; ++G)
    ::unlink((Path + "." + std::to_string(G)).c_str());
  // Torn per-save temp files (unique `<name>.tmp.<pid>.<seq>` names) left
  // behind by truncate chaos in earlier rounds.
  size_t Slash = Path.rfind('/');
  std::string Dir = Slash == std::string::npos ? "." : Path.substr(0, Slash);
  std::string Prefix = Path.substr(Slash + 1) + ".tmp";
  if (DIR *D = ::opendir(Dir.c_str())) {
    while (struct dirent *E = ::readdir(D))
      if (std::strncmp(E->d_name, Prefix.c_str(), Prefix.size()) == 0)
        ::unlink((Dir + "/" + E->d_name).c_str());
    ::closedir(D);
  }
}

/// Loads \p Path (ladder allowed) in a fresh VM on its own thread and
/// \returns the #Marker global, or -1 when the load failed.
int loadedMarker(const std::string &Path) {
  int Val = -1;
  std::thread([&] {
    VirtualMachine VM(VmConfig::multiprocessor(1));
    std::string Error;
    if (!loadSnapshot(VM, Path, Error)) {
      ADD_FAILURE() << "target unloadable: " << Error;
      return;
    }
    Oop M = VM.compileAndRun("^Smalltalk at: #Marker");
    if (M.isSmallInt())
      Val = static_cast<int>(M.smallInt());
  }).join();
  return Val;
}

//===----------------------------------------------------------------------===//
// The simulated kill: snapshot.truncate tears the temp file mid-save
//===----------------------------------------------------------------------===//

TEST(SnapshotChaosTest, KillDuringSaveAlwaysLeavesLoadableTarget) {
  const int Rounds = stressScale(10, 4);
  for (uint64_t Seed : chaosSeeds()) {
    SCOPED_TRACE(seedTag(Seed));
    std::string Path = tempPath("killsave.image");
    removeGenerations(Path, 3);
    int Committed = -1;
    std::thread([&] {
      TestVm T;
      SnapshotOptions Opts;
      Opts.KeepGenerations = 2;
      std::string Error;
      T.eval("Smalltalk at: #Marker put: 100. ^1");
      ASSERT_TRUE(saveSnapshot(T.vm(), Path, Error, Opts)) << Error;
      Committed = 100;

      ScopedChaos Chaos(Seed);
      chaos::armFail("snapshot.truncate", 400, Seed);
      chaos::armFail("io.write.fail", 200, Seed ^ 0x9e37);
      for (int R = 0; R < Rounds; ++R) {
        int Marker = 101 + R;
        T.eval("Smalltalk at: #Marker put: " + std::to_string(Marker) +
               ". ^1");
        if (saveSnapshot(T.vm(), Path, Error, Opts))
          Committed = Marker;
        // A torn save must leave the last committed image loadable
        // *right now*, not merely at the end of the storm.
        else
          ASSERT_FALSE(Error.empty());
      }
    }).join();
    ASSERT_GE(Committed, 100);
    EXPECT_EQ(loadedMarker(Path), Committed);
  }
}

//===----------------------------------------------------------------------===//
// io.write.fail / io.fsync.fail storms
//===----------------------------------------------------------------------===//

TEST(SnapshotChaosTest, WriteAndFsyncFaultStormNeverTearsTheTarget) {
  const int Rounds = stressScale(14, 5);
  for (uint64_t Seed : chaosSeeds()) {
    SCOPED_TRACE(seedTag(Seed));
    std::string Path = tempPath("iostorm.image");
    removeGenerations(Path, 2);
    int Committed = -1;
    std::thread([&] {
      TestVm T;
      SnapshotOptions Opts;
      Opts.KeepGenerations = 1;
      std::string Error;
      ScopedChaos Chaos(Seed);
      chaos::armFail("io.write.fail", 350, Seed);
      chaos::armFail("io.fsync.fail", 350, Seed ^ 0xbeef);
      for (int R = 0; R < Rounds; ++R) {
        int Marker = 500 + R;
        T.eval("Smalltalk at: #Marker put: " + std::to_string(Marker) +
               ". ^1");
        if (saveSnapshot(T.vm(), Path, Error, Opts))
          Committed = Marker;
      }
      // At these rates at least one save statistically commits; if the
      // storm really refused every round, commit one clean image so the
      // loader check below still proves the target is sane.
      if (Committed < 0) {
        chaos::disarmFail();
        T.eval("Smalltalk at: #Marker put: 999. ^1");
        ASSERT_TRUE(saveSnapshot(T.vm(), Path, Error, Opts)) << Error;
        Committed = 999;
      }
    }).join();
    EXPECT_EQ(loadedMarker(Path), Committed);
  }
}

//===----------------------------------------------------------------------===//
// Whole-VM round trips: running workers, seeded schedules, then reload
//===----------------------------------------------------------------------===//

TEST(SnapshotChaosTest, RoundTripsWithRunningWorkersUnderChaos) {
  for (unsigned Workers : {1u, 2u, 4u}) {
    for (uint64_t Seed : chaosSeeds()) {
      SCOPED_TRACE("workers=" + std::to_string(Workers) + " " +
                   seedTag(Seed));
      std::string Path = tempPath("workers.image");
      removeGenerations(Path, 1);
      std::thread([&] {
        ScopedChaos Chaos(Seed);
        TestVm T{VmConfig::multiprocessor(Workers)};
        T.vm().startInterpreters();
        unsigned Sig = T.vm().createHostSignal();
        T.vm().forkDoIt(
            "| s | s := 0. 1 to: 500 do: [:i | s := s + (i * i)]. "
            "Smalltalk at: #Marker put: s \\\\ 1000. nil hostSignal: " +
                std::to_string(Sig),
            5, "churn");
        ASSERT_TRUE(T.vm().waitHostSignal(Sig, 1, 60.0));
        // The snapfuzz lane arms io faults from the environment; retry
        // until a save commits (bounded — the fault rates are partial).
        std::string Error;
        bool Saved = false;
        for (int Attempt = 0; Attempt < 40 && !Saved; ++Attempt)
          Saved = saveSnapshot(T.vm(), Path, Error);
        ASSERT_TRUE(Saved) << Error;
      }).join();

      std::thread([&] {
        VirtualMachine VM(VmConfig::multiprocessor(2));
        std::string Error;
        ASSERT_TRUE(loadSnapshot(VM, Path, Error)) << Error;
        // 1²+…+500² = 41791750; the churn Process stored it mod 1000.
        Oop M = VM.compileAndRun("^Smalltalk at: #Marker");
        ASSERT_TRUE(M.isSmallInt());
        EXPECT_EQ(M.smallInt(), 750);
      }).join();
    }
  }
}

} // namespace
