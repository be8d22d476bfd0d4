//===-- tests/image/SnapshotTest.cpp - Image save/load --------------------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>

#include "TestVm.h"

#include "image/MacroBenchmarks.h"
#include "image/Snapshot.h"
#include "obs/Telemetry.h"
#include "support/Crc32.h"
#include "support/Panic.h"
#include "vkernel/Chaos.h"

using namespace mst;

namespace {

std::string tempPath(const char *Name) {
  return std::string(::testing::TempDir()) + "/" + Name;
}

uint64_t counterValue(const char *Name) {
  for (const auto &P : Telemetry::counterTotals())
    if (P.first == Name)
      return P.second;
  return 0;
}

std::vector<uint8_t> readFile(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  EXPECT_NE(F, nullptr) << Path;
  std::vector<uint8_t> Bytes;
  if (F) {
    std::fseek(F, 0, SEEK_END);
    Bytes.resize(static_cast<size_t>(std::ftell(F)));
    std::fseek(F, 0, SEEK_SET);
    EXPECT_EQ(std::fread(Bytes.data(), 1, Bytes.size(), F), Bytes.size());
    std::fclose(F);
  }
  return Bytes;
}

void writeFile(const std::string &Path, const std::vector<uint8_t> &Bytes) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr) << Path;
  // Bytes.data() is null for the zero-byte truncation case.
  if (!Bytes.empty()) {
    ASSERT_EQ(std::fwrite(Bytes.data(), 1, Bytes.size(), F), Bytes.size());
  }
  std::fclose(F);
}

uint64_t readU64(const std::vector<uint8_t> &B, size_t Off) {
  uint64_t V;
  std::memcpy(&V, B.data() + Off, 8);
  return V;
}

/// Recomputes the whole-file CRC in the trailer so hand-corrupted inner
/// structure reaches the section-level verification.
void fixFileCrc(std::vector<uint8_t> &B) {
  uint32_t Crc = crc32(B.data(), B.size() - 16);
  std::memcpy(B.data() + B.size() - 12, &Crc, 4);
}

/// Recomputes the header CRC (over the 28 bytes before it) so a
/// hand-corrupted count reaches the header plausibility checks.
void fixHeaderCrc(std::vector<uint8_t> &B) {
  uint32_t Crc = crc32(B.data(), 28);
  std::memcpy(B.data() + 28, &Crc, 4);
}

/// Counts per-save temp files (`<name>.tmp*`) next to \p Path. Saves use
/// unique temp names, so residue is measured by prefix, not one name.
int tempFileCount(const std::string &Path) {
  size_t Slash = Path.rfind('/');
  std::string Dir = Slash == std::string::npos ? "." : Path.substr(0, Slash);
  std::string Prefix = Path.substr(Slash + 1) + ".tmp";
  int N = 0;
  if (DIR *D = ::opendir(Dir.c_str())) {
    while (struct dirent *E = ::readdir(D))
      if (std::strncmp(E->d_name, Prefix.c_str(), Prefix.size()) == 0)
        ++N;
    ::closedir(D);
  }
  return N;
}

bool fileExists(const std::string &Path) {
  struct stat St {};
  return ::stat(Path.c_str(), &St) == 0;
}

/// Saves a small image with a recognizable marker value.
void saveMarkedImage(const std::string &Path, int Marker,
                     unsigned Keep = 0) {
  TestVm T;
  T.eval("Smalltalk at: #Marker put: " + std::to_string(Marker) + ". ^1");
  std::string Error;
  SnapshotOptions Opts;
  Opts.KeepGenerations = Keep;
  ASSERT_TRUE(saveSnapshot(T.vm(), Path, Error, Opts)) << Error;
}

TEST(SnapshotTest, SaveAndReloadBasicImage) {
  std::string Path = tempPath("basic.image");
  // Build, mutate, and save in one thread; load and verify in another
  // (mutator registration is per-thread, one VM per thread).
  std::thread([&] {
    TestVm T;
    T.eval("Smalltalk at: #SnapshotProbe put: 'preserved state'. ^1");
    T.evalInt("^(Smalltalk at: #Counter2 put: 41) + 1");
    std::string Error;
    ASSERT_TRUE(saveSnapshot(T.vm(), Path, Error)) << Error;
  }).join();

  std::thread([&] {
    // A fresh VM, no bootstrap: everything comes from the file.
    VirtualMachine VM(VmConfig::multiprocessor(2));
    std::string Error;
    ASSERT_TRUE(loadSnapshot(VM, Path, Error)) << Error;

    Oop Probe = VM.compileAndRun("^Smalltalk at: #SnapshotProbe");
    ASSERT_TRUE(Probe.isPointer());
    EXPECT_EQ(ObjectModel::stringValue(Probe), "preserved state");
    // The kernel library still works: sends, collections, printing.
    Oop Sum = VM.compileAndRun(
        "^#(1 2 3) inject: 0 into: [:a :b | a + b]");
    ASSERT_TRUE(Sum.isSmallInt());
    EXPECT_EQ(Sum.smallInt(), 6);
    Oop S = VM.compileAndRun("^42 printString");
    ASSERT_TRUE(S.isPointer());
    EXPECT_EQ(ObjectModel::stringValue(S), "42");
  }).join();
}

TEST(SnapshotTest, JournalMarkSectionRoundTripsAndStaysOptional) {
  std::string Plain = tempPath("plain.image");
  std::string Marked = tempPath("marked.image");
  std::thread([&] {
    TestVm T;
    std::string Error;
    // Without the mark the image stays the classic three-section layout.
    ASSERT_TRUE(saveSnapshot(T.vm(), Plain, Error)) << Error;
    SnapshotOptions Opts;
    Opts.HasJournalMark = true;
    Opts.JournalMark = 0xDEADBEEFCAFEull;
    ASSERT_TRUE(saveSnapshot(T.vm(), Marked, Error, Opts)) << Error;
  }).join();

  std::thread([&] {
    VirtualMachine VM(VmConfig::multiprocessor(1));
    std::string Error;
    SnapshotInfo Info;
    ASSERT_TRUE(loadSnapshot(VM, Plain, Error, &Info)) << Error;
    EXPECT_FALSE(Info.HasJournalMark);
    EXPECT_EQ(Info.JournalMark, 0u);
  }).join();

  std::thread([&] {
    VirtualMachine VM(VmConfig::multiprocessor(1));
    std::string Error;
    SnapshotInfo Info;
    ASSERT_TRUE(loadSnapshot(VM, Marked, Error, &Info)) << Error;
    EXPECT_TRUE(Info.HasJournalMark);
    EXPECT_EQ(Info.JournalMark, 0xDEADBEEFCAFEull);
    // The image itself is intact either way.
    Oop Sum = VM.compileAndRun("^3 + 4");
    ASSERT_TRUE(Sum.isSmallInt());
    EXPECT_EQ(Sum.smallInt(), 7);
  }).join();

  // Callers that never ask for the info (the whole pre-journal world)
  // still load a marked image.
  std::thread([&] {
    VirtualMachine VM(VmConfig::multiprocessor(1));
    std::string Error;
    ASSERT_TRUE(loadSnapshot(VM, Marked, Error)) << Error;
  }).join();
}

TEST(SnapshotTest, RuntimeDefinedClassesSurvive) {
  std::string Path = tempPath("classes.image");
  std::thread([&] {
    TestVm T;
    Oop Cls = defineClass(T.vm(), "Persistent", "Object",
                          ClassKind::Fixed, {"payload"}, "Tests");
    addMethod(T.vm(), Cls, "accessing", "payload ^payload");
    addMethod(T.vm(), Cls, "accessing",
              "payload: anObject payload := anObject");
    T.eval("Smalltalk at: #Inst put: (Persistent new payload: 777). ^1");
    std::string Error;
    ASSERT_TRUE(saveSnapshot(T.vm(), Path, Error)) << Error;
  }).join();

  std::thread([&] {
    VirtualMachine VM(VmConfig::multiprocessor(1));
    std::string Error;
    ASSERT_TRUE(loadSnapshot(VM, Path, Error)) << Error;
    Oop V = VM.compileAndRun("^(Smalltalk at: #Inst) payload");
    ASSERT_TRUE(V.isSmallInt());
    EXPECT_EQ(V.smallInt(), 777);
    // New code compiles against the loaded class (symbol identity holds).
    Oop W = VM.compileAndRun("^Persistent new payload: 1; payload");
    ASSERT_TRUE(W.isSmallInt());
    EXPECT_EQ(W.smallInt(), 1);
  }).join();
}

TEST(SnapshotTest, ActiveProcessSlotIsEmptyAfterSaveAndLoad) {
  std::string Path = tempPath("activeproc.image");
  std::thread([&] {
    TestVm T;
    std::string Error;
    ASSERT_TRUE(saveSnapshot(T.vm(), Path, Error)) << Error;
    // §3.3: emptied after the snapshot.
    EXPECT_EQ(ObjectMemory::fetchPointer(T.om().known().Processor,
                                         SchedActiveProcess),
              T.om().nil());
  }).join();
  std::thread([&] {
    VirtualMachine VM(VmConfig::multiprocessor(1));
    std::string Error;
    ASSERT_TRUE(loadSnapshot(VM, Path, Error)) << Error;
    EXPECT_EQ(ObjectMemory::fetchPointer(VM.model().known().Processor,
                                         SchedActiveProcess),
              VM.model().nil());
  }).join();
}

TEST(SnapshotTest, LoadedImageRunsProcesses) {
  std::string Path = tempPath("procs.image");
  std::thread([&] {
    TestVm T;
    std::string Error;
    ASSERT_TRUE(saveSnapshot(T.vm(), Path, Error)) << Error;
  }).join();
  std::thread([&] {
    VirtualMachine VM(VmConfig::multiprocessor(2));
    std::string Error;
    ASSERT_TRUE(loadSnapshot(VM, Path, Error)) << Error;
    VM.startInterpreters();
    unsigned Sig = VM.createHostSignal();
    Oop P = VM.forkDoIt("| s | s := 0. 1 to: 100 do: [:i | s := s + i]. "
                        "s = 5050 ifTrue: [nil hostSignal: " +
                            std::to_string(Sig) + "]",
                        5, "post-load");
    ASSERT_FALSE(P.isNull());
    EXPECT_TRUE(VM.waitHostSignal(Sig, 1, 30.0));
  }).join();
}

TEST(SnapshotTest, SmalltalkCreatedClassesSurvive) {
  std::string Path = tempPath("stclasses.image");
  std::thread([&] {
    TestVm T;
    // Separate doIts: the Sprite global must exist before code that
    // names it compiles.
    T.eval("Object subclass: #Sprite instanceVariableNames: 'pos' "
           "category: 'Game'. ^1");
    T.eval("Compiler compile: 'pos ^pos' into: Sprite. Compiler "
           "compile: 'pos: p pos := p' into: Sprite. Smalltalk at: "
           "#Hero put: (Sprite new pos: 3 @ 4). ^1");
    std::string Error;
    ASSERT_TRUE(saveSnapshot(T.vm(), Path, Error)) << Error;
  }).join();
  std::thread([&] {
    VirtualMachine VM(VmConfig::multiprocessor(1));
    std::string Error;
    ASSERT_TRUE(loadSnapshot(VM, Path, Error)) << Error;
    Oop S = VM.compileAndRun("^(Smalltalk at: #Hero) pos printString");
    ASSERT_TRUE(S.isPointer());
    EXPECT_EQ(ObjectModel::stringValue(S), "3 @ 4");
    // And the class remains subclassable after the reload (two doIts:
    // the Boss global must exist before code naming it compiles).
    VM.compileAndRun("Sprite subclass: #Boss instanceVariableNames: "
                     "'hp' category: 'Game'. ^1");
    Oop R = VM.compileAndRun("^Boss instanceVariableNames size");
    ASSERT_TRUE(R.isSmallInt());
    EXPECT_EQ(R.smallInt(), 2);
  }).join();
}

TEST(SnapshotTest, RejectsGarbageFiles) {
  std::string Path = tempPath("garbage.image");
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  std::fputs("this is not an image", F);
  std::fclose(F);
  std::thread([&] {
    VirtualMachine VM(VmConfig::multiprocessor(1));
    std::string Error;
    EXPECT_FALSE(loadSnapshot(VM, Path, Error));
    EXPECT_FALSE(Error.empty());
  }).join();
}

TEST(SnapshotTest, MissingFileFailsCleanly) {
  std::thread([&] {
    VirtualMachine VM(VmConfig::multiprocessor(1));
    std::string Error;
    EXPECT_FALSE(loadSnapshot(VM, "/nonexistent/nowhere.image", Error));
    EXPECT_FALSE(Error.empty());
  }).join();
}

// --- Corruption sweep -----------------------------------------------------

TEST(SnapshotTest, TruncationAtEverySectionBoundaryFailsWithDiagnostics) {
  std::string Path = tempPath("truncsweep.image");
  std::thread([&] { saveMarkedImage(Path, 11); }).join();

  std::thread([&] {
    std::vector<uint8_t> Good = readFile(Path);
    ASSERT_GT(Good.size(), 64u);

    // Cut points derived from the file's own structure: inside the
    // header, at every section-header and section-payload boundary,
    // inside each payload, and through the trailer.
    std::vector<size_t> Cuts = {0, 1, 13, 31, 32};
    size_t Off = 32;
    for (int S = 0; S < 3; ++S) {
      size_t Payload = readU64(Good, Off + 8);
      Cuts.push_back(Off + 1);
      Cuts.push_back(Off + 15);
      Cuts.push_back(Off + 16);
      Cuts.push_back(Off + 16 + Payload / 2);
      Cuts.push_back(Off + 16 + Payload);
      Off += 16 + Payload;
    }
    Cuts.push_back(Good.size() - 16); // trailer gone entirely
    Cuts.push_back(Good.size() - 8);  // trailer torn mid-way
    Cuts.push_back(Good.size() - 1);  // one byte short

    // One VM takes every failed load: a rejected candidate must leave it
    // clean enough to load the pristine image afterwards.
    VirtualMachine VM(VmConfig::multiprocessor(1));
    std::string Trunc = tempPath("truncsweep.cut.image");
    for (size_t Cut : Cuts) {
      SCOPED_TRACE("truncated to " + std::to_string(Cut) + " of " +
                   std::to_string(Good.size()) + " bytes");
      ASSERT_LT(Cut, Good.size());
      writeFile(Trunc,
                std::vector<uint8_t>(Good.begin(), Good.begin() + Cut));
      std::string Error;
      EXPECT_FALSE(loadSnapshotExact(VM, Trunc, Error));
      EXPECT_FALSE(Error.empty());
    }
    std::string Error;
    ASSERT_TRUE(loadSnapshotExact(VM, Path, Error)) << Error;
    Oop M = VM.compileAndRun("^Smalltalk at: #Marker");
    ASSERT_TRUE(M.isSmallInt());
    EXPECT_EQ(M.smallInt(), 11);
  }).join();
}

TEST(SnapshotTest, BitFlipSweepIsAlwaysDetected) {
  std::string Path = tempPath("bitflip.image");
  std::thread([&] { saveMarkedImage(Path, 12); }).join();

  std::thread([&] {
    std::vector<uint8_t> Good = readFile(Path);
    VirtualMachine VM(VmConfig::multiprocessor(1));
    std::string Flipped = tempPath("bitflip.cut.image");
    uint64_t CrcBefore = counterValue("img.crc.failures");
    constexpr size_t Positions = 41;
    for (size_t I = 0; I < Positions; ++I) {
      size_t Pos = I * Good.size() / Positions;
      SCOPED_TRACE("bit flip at byte " + std::to_string(Pos));
      std::vector<uint8_t> Bad = Good;
      Bad[Pos] ^= static_cast<uint8_t>(1u << (I % 8));
      writeFile(Flipped, Bad);
      std::string Error;
      EXPECT_FALSE(loadSnapshotExact(VM, Flipped, Error));
      EXPECT_FALSE(Error.empty());
    }
    // Most flips land in section payloads and die on a CRC check.
    EXPECT_GT(counterValue("img.crc.failures"), CrcBefore);
    std::string Error;
    EXPECT_TRUE(loadSnapshotExact(VM, Path, Error)) << Error;
  }).join();
}

TEST(SnapshotTest, DiagnosticsNameSectionAndOffset) {
  std::string Path = tempPath("diag.image");
  std::thread([&] { saveMarkedImage(Path, 13); }).join();

  std::thread([&] {
    std::vector<uint8_t> Good = readFile(Path);
    VirtualMachine VM(VmConfig::multiprocessor(1));
    std::string Bad = tempPath("diag.bad.image");

    // A payload flip with the file CRC patched up reaches the per-section
    // check, which must name the damaged section.
    {
      std::vector<uint8_t> B = Good;
      size_t ObjsPayload = 32 + 16 + readU64(Good, 40) / 2;
      B[ObjsPayload] ^= 0xff;
      fixFileCrc(B);
      writeFile(Bad, B);
      std::string Error;
      EXPECT_FALSE(loadSnapshotExact(VM, Bad, Error));
      EXPECT_NE(Error.find("section 'objects' CRC mismatch"),
                std::string::npos)
          << Error;
      EXPECT_NE(Error.find("expected 0x"), std::string::npos) << Error;
    }

    // A wrong section tag (second section starts after the objects
    // payload) is reported as such, with its byte offset.
    {
      std::vector<uint8_t> B = Good;
      size_t RootHdr = 32 + 16 + readU64(Good, 40);
      B[RootHdr] ^= 0xff;
      fixFileCrc(B);
      writeFile(Bad, B);
      std::string Error;
      EXPECT_FALSE(loadSnapshotExact(VM, Bad, Error));
      EXPECT_NE(Error.find("bad tag"), std::string::npos) << Error;
      EXPECT_NE(Error.find("byte offset " + std::to_string(RootHdr)),
                std::string::npos)
          << Error;
    }
  }).join();
}

TEST(SnapshotTest, ImplausibleHeaderCountsAreRejectedBeforeAllocation) {
  std::string Path = tempPath("hugecount.image");
  std::thread([&] { saveMarkedImage(Path, 14); }).join();

  std::thread([&] {
    std::vector<uint8_t> Good = readFile(Path);
    VirtualMachine VM(VmConfig::multiprocessor(1));
    std::string Bad = tempPath("hugecount.bad.image");
    constexpr uint64_t Huge = 1ull << 60;

    // ObjectCount = 2^60 with every CRC patched valid must die on the
    // count-vs-section plausibility check, not inside a 2^60-record
    // reserve() (std::length_error would terminate the process).
    {
      std::vector<uint8_t> B = Good;
      std::memcpy(B.data() + 8, &Huge, 8);
      fixHeaderCrc(B);
      fixFileCrc(B);
      writeFile(Bad, B);
      std::string Error;
      EXPECT_FALSE(loadSnapshotExact(VM, Bad, Error));
      EXPECT_NE(Error.find("object count"), std::string::npos) << Error;
      EXPECT_NE(Error.find("impossible"), std::string::npos) << Error;
    }
    // Same for RootCount against the roots section.
    {
      std::vector<uint8_t> B = Good;
      std::memcpy(B.data() + 16, &Huge, 8);
      fixHeaderCrc(B);
      fixFileCrc(B);
      writeFile(Bad, B);
      std::string Error;
      EXPECT_FALSE(loadSnapshotExact(VM, Bad, Error));
      EXPECT_NE(Error.find("root count"), std::string::npos) << Error;
    }
    std::string Error;
    EXPECT_TRUE(loadSnapshotExact(VM, Path, Error)) << Error;
  }).join();
}

TEST(SnapshotTest, ErrorsCarryErrnoTextAndPath) {
  std::thread([&] {
    VirtualMachine VM(VmConfig::multiprocessor(1));
    std::string Error;
    EXPECT_FALSE(loadSnapshotExact(VM, "/nonexistent/nowhere.image",
                                   Error));
    EXPECT_NE(Error.find(std::strerror(ENOENT)), std::string::npos)
        << Error;
    EXPECT_NE(Error.find("/nonexistent/nowhere.image"), std::string::npos)
        << Error;
  }).join();

  std::thread([&] {
    TestVm T;
    std::string Error;
    EXPECT_FALSE(
        saveSnapshot(T.vm(), "/nonexistent/dir/out.image", Error));
    EXPECT_NE(Error.find(std::strerror(ENOENT)), std::string::npos)
        << Error;
    EXPECT_NE(Error.find("/nonexistent/dir/out.image.tmp"),
              std::string::npos)
        << Error;
  }).join();
}

// --- Recovery ladder and rotation -----------------------------------------

TEST(SnapshotTest, RecoveryLadderFallsBackThroughGenerations) {
  std::string Path = tempPath("ladder.image");
  std::thread([&] {
    TestVm T;
    std::string Error;
    SnapshotOptions Opts;
    Opts.KeepGenerations = 2;
    T.eval("Smalltalk at: #Marker put: 1. ^1");
    ASSERT_TRUE(saveSnapshot(T.vm(), Path, Error, Opts)) << Error;
    T.eval("Smalltalk at: #Marker put: 2. ^1");
    ASSERT_TRUE(saveSnapshot(T.vm(), Path, Error, Opts)) << Error;
  }).join();
  ASSERT_TRUE(fileExists(Path));
  ASSERT_TRUE(fileExists(Path + ".1"));

  // Damage the primary: the ladder must fall back to the previous
  // generation (which holds the older marker) and count the fallback.
  std::vector<uint8_t> Primary = readFile(Path);
  Primary[Primary.size() / 2] ^= 0x01;
  writeFile(Path, Primary);

  std::thread([&] {
    uint64_t Before = counterValue("img.load.fallbacks");
    VirtualMachine VM(VmConfig::multiprocessor(1));
    std::string Error;
    ASSERT_TRUE(loadSnapshot(VM, Path, Error)) << Error;
    Oop M = VM.compileAndRun("^Smalltalk at: #Marker");
    ASSERT_TRUE(M.isSmallInt());
    EXPECT_EQ(M.smallInt(), 1);
    EXPECT_GE(counterValue("img.load.fallbacks"), Before + 1);
  }).join();
}

TEST(SnapshotTest, LadderReportsEveryCandidateWhenExhausted) {
  std::string Path = tempPath("exhausted.image");
  std::thread([&] { saveMarkedImage(Path, 3, 1); }).join();
  std::thread([&] { saveMarkedImage(Path, 4, 1); }).join();
  for (const std::string &P : {Path, Path + ".1"}) {
    std::vector<uint8_t> B = readFile(P);
    B[B.size() / 3] ^= 0x10;
    writeFile(P, B);
  }
  std::thread([&] {
    VirtualMachine VM(VmConfig::multiprocessor(1));
    std::string Error;
    EXPECT_FALSE(loadSnapshot(VM, Path, Error));
    EXPECT_NE(Error.find(Path + ":"), std::string::npos) << Error;
    EXPECT_NE(Error.find(Path + ".1:"), std::string::npos) << Error;
  }).join();
}

TEST(SnapshotTest, MaterializeFailureStopsTheLadder) {
  std::string Path = tempPath("matfail.image");
  std::thread([&] { saveMarkedImage(Path, 15, 1); }).join();
  std::thread([&] { saveMarkedImage(Path, 16, 1); }).join();
  ASSERT_TRUE(fileExists(Path + ".1"));

  std::thread([&] {
    uint64_t Before = counterValue("img.load.fallbacks");
    VirtualMachine VM(VmConfig::multiprocessor(1));
    chaos::armFail("snapshot.materialize.fail", 1000, 3);
    std::string Error;
    EXPECT_FALSE(loadSnapshot(VM, Path, Error));
    chaos::disarmFail();
    // The primary failed mid-materialize, so the VM is no longer freshly
    // constructed: the (perfectly valid) .1 generation must not have been
    // attempted, and the error must say why the ladder stopped.
    EXPECT_NE(Error.find("freshly constructed VM"), std::string::npos)
        << Error;
    EXPECT_EQ(counterValue("img.load.fallbacks"), Before);
  }).join();

  // The same ladder in a fresh VM without the fault loads the primary.
  std::thread([&] {
    VirtualMachine VM(VmConfig::multiprocessor(1));
    std::string Error;
    ASSERT_TRUE(loadSnapshot(VM, Path, Error)) << Error;
    Oop M = VM.compileAndRun("^Smalltalk at: #Marker");
    ASSERT_TRUE(M.isSmallInt());
    EXPECT_EQ(M.smallInt(), 16);
  }).join();
}

// --- Chaos-injected I/O faults --------------------------------------------

TEST(SnapshotTest, WriteFailureChaosLeavesTargetIntact) {
  std::string Path = tempPath("chaoswrite.image");
  std::thread([&] {
    TestVm T;
    T.eval("Smalltalk at: #Marker put: 7. ^1");
    std::string Error;
    ASSERT_TRUE(saveSnapshot(T.vm(), Path, Error)) << Error;

    // Arm a certain write failure: the re-save must fail with a located
    // error and must not disturb the target or leave its temp file.
    T.eval("Smalltalk at: #Marker put: 8. ^1");
    int TempsBefore = tempFileCount(Path);
    chaos::enableSeed(99);
    chaos::armFail("io.write.fail", 1000, 99);
    EXPECT_FALSE(saveSnapshot(T.vm(), Path, Error));
    chaos::disarmFail();
    chaos::disable();
    EXPECT_NE(Error.find("io.write.fail"), std::string::npos) << Error;
    EXPECT_NE(Error.find("byte offset"), std::string::npos) << Error;
    EXPECT_EQ(tempFileCount(Path), TempsBefore);
  }).join();

  std::thread([&] {
    VirtualMachine VM(VmConfig::multiprocessor(1));
    std::string Error;
    ASSERT_TRUE(loadSnapshot(VM, Path, Error)) << Error;
    Oop M = VM.compileAndRun("^Smalltalk at: #Marker");
    ASSERT_TRUE(M.isSmallInt());
    EXPECT_EQ(M.smallInt(), 7);
  }).join();
}

TEST(SnapshotTest, TruncateChaosNeverTearsTheTarget) {
  std::string Path = tempPath("chaostrunc.image");
  std::thread([&] {
    TestVm T;
    T.eval("Smalltalk at: #Marker put: 9. ^1");
    std::string Error;
    ASSERT_TRUE(saveSnapshot(T.vm(), Path, Error)) << Error;
    // A simulated kill mid-save tears only the temp file.
    chaos::enableSeed(5);
    chaos::armFail("snapshot.truncate", 1000, 5);
    EXPECT_FALSE(saveSnapshot(T.vm(), Path, Error));
    chaos::disarmFail();
    chaos::disable();
    EXPECT_NE(Error.find("snapshot.truncate"), std::string::npos)
        << Error;
  }).join();
  std::thread([&] {
    VirtualMachine VM(VmConfig::multiprocessor(1));
    std::string Error;
    ASSERT_TRUE(loadSnapshot(VM, Path, Error)) << Error;
    Oop M = VM.compileAndRun("^Smalltalk at: #Marker");
    ASSERT_TRUE(M.isSmallInt());
    EXPECT_EQ(M.smallInt(), 9);
  }).join();
}

TEST(SnapshotTest, DirFsyncFailureAfterRenameStillCommits) {
  std::string Path = tempPath("dirfsync.image");
  std::thread([&] {
    TestVm T;
    T.eval("Smalltalk at: #Marker put: 17. ^1");
    uint64_t SavesBefore = counterValue("img.save.snapshots");
    // The rename lands before the directory fsync runs: the image is in
    // place and loadable, so the save must report success (with a
    // warning) and count the snapshot.
    chaos::armFail("io.dirfsync.fail", 1000, 7);
    std::string Error;
    EXPECT_TRUE(saveSnapshot(T.vm(), Path, Error)) << Error;
    chaos::disarmFail();
    EXPECT_EQ(counterValue("img.save.snapshots"), SavesBefore + 1);
    EXPECT_GE(counterValue("img.save.dirfsync.warnings"), 1u);
  }).join();

  std::thread([&] {
    VirtualMachine VM(VmConfig::multiprocessor(1));
    std::string Error;
    ASSERT_TRUE(loadSnapshotExact(VM, Path, Error)) << Error;
    Oop M = VM.compileAndRun("^Smalltalk at: #Marker");
    ASSERT_TRUE(M.isSmallInt());
    EXPECT_EQ(M.smallInt(), 17);
  }).join();
}

// --- Worker-count matrix under seeded chaos schedules ---------------------

TEST(SnapshotTest, RoundTripsAcrossWorkerConfigsUnderChaos) {
  for (unsigned SaveK : {1u, 4u}) {
    for (uint64_t Seed : {1ull, 7ull}) {
      SCOPED_TRACE("save-workers=" + std::to_string(SaveK) + " seed=" +
                   std::to_string(Seed));
      std::string Path = tempPath("matrix.image");
      std::thread([&] {
        chaos::enableSeed(Seed);
        TestVm T{VmConfig::multiprocessor(SaveK)};
        T.vm().startInterpreters();
        unsigned Sig = T.vm().createHostSignal();
        T.vm().forkDoIt("| s | s := 0. 1 to: 200 do: [:i | s := s + i]. "
                        "Smalltalk at: #Sum put: s. nil hostSignal: " +
                            std::to_string(Sig),
                        5, "warm");
        ASSERT_TRUE(T.vm().waitHostSignal(Sig, 1, 30.0));
        std::string Error;
        bool Saved = saveSnapshot(T.vm(), Path, Error);
        chaos::disable();
        ASSERT_TRUE(Saved) << Error;
      }).join();

      std::thread([&] {
        // Load into the *other* worker count: the image is
        // configuration-independent.
        chaos::enableSeed(Seed);
        VirtualMachine VM(VmConfig::multiprocessor(SaveK == 1 ? 4 : 1));
        std::string Error;
        bool LoadedOk = loadSnapshot(VM, Path, Error);
        if (LoadedOk) {
          VM.startInterpreters();
          unsigned Sig = VM.createHostSignal();
          VM.forkDoIt("(Smalltalk at: #Sum) = 20100 ifTrue: "
                      "[nil hostSignal: " +
                          std::to_string(Sig) + "]",
                      5, "verify");
          EXPECT_TRUE(VM.waitHostSignal(Sig, 1, 30.0));
          VM.shutdown();
        }
        chaos::disable();
        ASSERT_TRUE(LoadedOk) << Error;
      }).join();
    }
  }
}

// --- Concurrent saves and the emergency panic snapshot ------------------

TEST(SnapshotTest, ConcurrentCheckpointsNeverTearTheTarget) {
  std::string Path = tempPath("concurrent.image");
  std::thread([&] {
    TestVm T;
    T.eval("Smalltalk at: #Marker put: 77. ^1");
    // Two registered threads hammer the same path, with no rotated
    // generation to hide a torn target. Every save must publish a
    // complete image.
    auto SaveRepeatedly = [&] {
      std::string Error;
      for (int I = 0; I < 25; ++I)
        EXPECT_TRUE(saveSnapshot(T.vm(), Path, Error)) << Error;
    };
    std::thread Saver([&] {
      T.vm().memory().registerMutator("saver");
      SaveRepeatedly();
      T.vm().memory().unregisterMutator();
    });
    SaveRepeatedly();
    // The saver may be waiting for this thread to reach a safepoint.
    BlockedRegion B(T.vm().memory().safepoint());
    Saver.join();
  }).join();

  std::thread([&] {
    VirtualMachine VM(VmConfig::multiprocessor(1));
    std::string Error;
    ASSERT_TRUE(loadSnapshotExact(VM, Path, Error)) << Error;
    Oop M = VM.compileAndRun("^Smalltalk at: #Marker");
    ASSERT_TRUE(M.isSmallInt());
    EXPECT_EQ(M.smallInt(), 77);
  }).join();
}

TEST(SnapshotTest, EmergencyPanicSnapshotRunsTheMacroWorkload) {
  std::string Path = tempPath("panic.image");
  std::thread([&] {
    TestVm T;
    setupMacroWorkload(T.vm());
    T.eval("Smalltalk at: #Marker put: 23. ^1");
    EmergencySnapshot Emergency(T.vm(), Path);

    std::string Dump;
    setPanicHandler([&Dump](const std::string &D) { Dump = D; });
    EXPECT_TRUE(panicReport("forced panic (snapshot test)"));
    setPanicHandler(nullptr);
    EXPECT_NE(Dump.find("emergency snapshot"), std::string::npos);
    EXPECT_NE(Dump.find("written to " + Path + ".panic"),
              std::string::npos)
        << Dump;
  }).join();
  ASSERT_TRUE(fileExists(Path + ".panic"));

  // The acceptance bar: a fresh VM boots the emergency image and runs a
  // macro benchmark on it.
  std::thread([&] {
    VirtualMachine VM(VmConfig::multiprocessor(2));
    std::string Error;
    ASSERT_TRUE(loadSnapshotExact(VM, Path + ".panic", Error)) << Error;
    Oop M = VM.compileAndRun("^Smalltalk at: #Marker");
    ASSERT_TRUE(M.isSmallInt());
    EXPECT_EQ(M.smallInt(), 23);
    VM.startInterpreters();
    TimedRun R = runMacroBenchmark(VM, macroBenchmarks()[6], 0.01);
    EXPECT_TRUE(R.Ok);
    VM.shutdown();
  }).join();
}

} // namespace
