//===-- tests/serve/JournalTest.cpp - Write-ahead journal unit tests ------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the per-shard write-ahead request journal: record
/// framing and round trips, torn-tail repair on reopen, logical-position
/// preservation across truncateBelow() compaction, the tearTail() chaos
/// hook, the cut-back of a write that fails part-way, memory that stays
/// bounded on a large journal, and the bounded DedupTable.
///
//===----------------------------------------------------------------------===//

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <sys/stat.h>

#include <gtest/gtest.h>

#include "MemoryProbe.h"
#include "serve/Journal.h"
#include "serve/ServeTestUtil.h"

using namespace mst;
using namespace mst::serve;
using namespace mst::serve_test;

namespace {

std::vector<Journal::Entry> mustScan(const Journal &J, uint64_t From) {
  std::vector<Journal::Entry> Out;
  std::string Error;
  EXPECT_TRUE(J.scan(From, Out, Error)) << Error;
  return Out;
}

TEST(JournalTest, IntentOutcomeRoundTripAcrossReopen) {
  std::string Path = makeTempDir() + "/shard.journal";
  std::string Error;
  uint64_t Id1 = 0, Id2 = 0, Id3 = 0;
  {
    Journal J;
    ASSERT_TRUE(J.open(Path, Error)) << Error;
    ASSERT_TRUE(J.appendIntent(7, 1, true, "3 + 4", Id1, Error)) << Error;
    ASSERT_TRUE(J.appendIntent(7, 2, true, "#x printString", Id2, Error));
    ASSERT_TRUE(J.appendIntent(9, 0, false, "1/0", Id3, Error));
    ASSERT_TRUE(J.sync(Error)) << Error;
    ASSERT_TRUE(J.appendOutcome(Id1, 7, 1, true, Journal::Outcome::Executed,
                                true, "7", Error));
    ASSERT_TRUE(J.appendOutcome(Id3, 9, 0, false,
                                Journal::Outcome::TimedOut, false,
                                "RequestTimeout", Error));
    ASSERT_TRUE(J.sync(Error)) << Error;
  } // close; reopen must see everything

  Journal J;
  ASSERT_TRUE(J.open(Path, Error)) << Error;
  EXPECT_EQ(J.tornRepairs(), 0u);
  std::vector<Journal::Entry> E = mustScan(J, 0);
  ASSERT_EQ(E.size(), 3u);

  EXPECT_EQ(E[0].RecordId, Id1);
  EXPECT_EQ(E[0].ClientId, 7u);
  EXPECT_EQ(E[0].Seq, 1u);
  EXPECT_TRUE(E[0].HasSeq);
  EXPECT_EQ(E[0].Source, "3 + 4");
  EXPECT_EQ(E[0].Out, Journal::Outcome::Executed);
  EXPECT_TRUE(E[0].Ok);
  EXPECT_EQ(E[0].Value, "7");

  EXPECT_EQ(E[1].RecordId, Id2);
  EXPECT_EQ(E[1].Out, Journal::Outcome::None); // no outcome: torn/crash
  EXPECT_EQ(E[1].Source, "#x printString");

  EXPECT_EQ(E[2].RecordId, Id3);
  EXPECT_FALSE(E[2].HasSeq);
  EXPECT_EQ(E[2].Out, Journal::Outcome::TimedOut);
  EXPECT_FALSE(E[2].Ok);
  EXPECT_EQ(E[2].Value, "RequestTimeout");

  // New ids never collide with replayed ones.
  uint64_t Id4 = 0;
  ASSERT_TRUE(J.appendIntent(1, 0, false, "x", Id4, Error));
  EXPECT_GT(Id4, Id3);

  // Positions are monotonically increasing and scan(FromPos) honors them.
  EXPECT_LT(E[0].Pos, E[1].Pos);
  EXPECT_LT(E[1].Pos, E[2].Pos);
  std::vector<Journal::Entry> Tail = mustScan(J, E[1].Pos);
  ASSERT_EQ(Tail.size(), 3u); // Id2, Id3, Id4
  EXPECT_EQ(Tail[0].RecordId, Id2);
}

TEST(JournalTest, TornTailIsRepairedOnOpen) {
  std::string Path = makeTempDir() + "/shard.journal";
  std::string Error;
  uint64_t Id = 0;
  uint64_t GoodEnd = 0;
  {
    Journal J;
    ASSERT_TRUE(J.open(Path, Error)) << Error;
    ASSERT_TRUE(J.appendIntent(1, 0, false, "'whole record'", Id, Error));
    GoodEnd = J.bytes();
    ASSERT_TRUE(J.appendIntent(1, 0, false, "'this one tears'", Id, Error));
    ASSERT_TRUE(J.sync(Error));
  }
  // Tear the last record in half, like a power cut mid-write.
  {
    std::ifstream In(Path, std::ios::binary);
    std::string Data((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
    ASSERT_GT(Data.size(), GoodEnd + 4);
    std::ofstream OutF(Path, std::ios::binary | std::ios::trunc);
    OutF.write(Data.data(),
               static_cast<std::streamsize>(GoodEnd + 4));
  }

  Journal J;
  ASSERT_TRUE(J.open(Path, Error)) << Error;
  EXPECT_EQ(J.tornRepairs(), 1u);
  std::vector<Journal::Entry> E = mustScan(J, 0);
  ASSERT_EQ(E.size(), 1u);
  EXPECT_EQ(E[0].Source, "'whole record'");

  // The repaired journal keeps appending cleanly.
  ASSERT_TRUE(J.appendIntent(2, 0, false, "'after repair'", Id, Error));
  ASSERT_TRUE(J.sync(Error));
  EXPECT_EQ(mustScan(J, 0).size(), 2u);
}

TEST(JournalTest, GarbageFileIsRecreatedNotFatal) {
  std::string Path = makeTempDir() + "/shard.journal";
  {
    std::ofstream Out(Path, std::ios::binary);
    Out << "this is not a journal";
  }
  // A file shorter than the header is treated as torn and recreated.
  Journal J;
  std::string Error;
  ASSERT_TRUE(J.open(Path, Error)) << Error;
  EXPECT_GE(J.tornRepairs(), 1u);
  EXPECT_TRUE(mustScan(J, 0).empty());
}

TEST(JournalTest, TruncateBelowPreservesLogicalPositions) {
  std::string Path = makeTempDir() + "/shard.journal";
  std::string Error;
  Journal J;
  ASSERT_TRUE(J.open(Path, Error)) << Error;
  uint64_t Ids[4];
  for (int I = 0; I < 4; ++I)
    ASSERT_TRUE(J.appendIntent(1, static_cast<uint64_t>(I), true,
                               "src" + std::to_string(I), Ids[I], Error));
  ASSERT_TRUE(J.sync(Error));
  std::vector<Journal::Entry> All = mustScan(J, 0);
  ASSERT_EQ(All.size(), 4u);
  uint64_t SizeBefore = J.bytes();

  // Compact away the first two records (a checkpoint covered them).
  uint64_t Mark = All[2].Pos;
  ASSERT_TRUE(J.truncateBelow(Mark, Error)) << Error;
  EXPECT_LT(J.bytes(), SizeBefore);

  // The survivors keep their ids AND their logical positions.
  std::vector<Journal::Entry> Kept = mustScan(J, 0);
  ASSERT_EQ(Kept.size(), 2u);
  EXPECT_EQ(Kept[0].RecordId, Ids[2]);
  EXPECT_EQ(Kept[0].Pos, All[2].Pos);
  EXPECT_EQ(Kept[1].RecordId, Ids[3]);
  EXPECT_EQ(Kept[1].Pos, All[3].Pos);

  // endPos is unchanged by compaction and appends continue past it.
  uint64_t End = J.endPos();
  EXPECT_GT(End, All[3].Pos);
  uint64_t Id = 0;
  ASSERT_TRUE(J.appendIntent(1, 9, true, "after", Id, Error));
  std::vector<Journal::Entry> After = mustScan(J, End);
  ASSERT_EQ(After.size(), 1u);
  EXPECT_EQ(After[0].Source, "after");

  // A reopen of the compacted file agrees about positions.
  J.close();
  Journal J2;
  ASSERT_TRUE(J2.open(Path, Error)) << Error;
  std::vector<Journal::Entry> Re = mustScan(J2, All[3].Pos);
  ASSERT_EQ(Re.size(), 2u);
  EXPECT_EQ(Re[0].RecordId, Ids[3]);

  // Truncating above the end is refused; at/below base is a no-op.
  EXPECT_FALSE(J2.truncateBelow(J2.endPos() + 999, Error));
  EXPECT_TRUE(J2.truncateBelow(0, Error));
}

TEST(JournalTest, TearTailOnlyCutsUnsyncedBytesAndSelfRepairs) {
  std::string Path = makeTempDir() + "/shard.journal";
  std::string Error;
  Journal J;
  ASSERT_TRUE(J.open(Path, Error)) << Error;
  uint64_t Id = 0;
  ASSERT_TRUE(J.appendIntent(1, 0, false, "'synced'", Id, Error));
  ASSERT_TRUE(J.sync(Error));

  // Nothing unsynced: the tear can't touch durable records.
  EXPECT_EQ(J.tearTail(256, 12345u), 0u);

  ASSERT_TRUE(J.appendIntent(1, 0, false, "'unsynced tail'", Id, Error));
  uint64_t Cut = J.tearTail(1u << 20, 12345u);
  EXPECT_GT(Cut, 0u);

  // After the tear the journal is immediately consistent: whole records
  // only, and appends keep working.
  std::vector<Journal::Entry> E = mustScan(J, 0);
  ASSERT_GE(E.size(), 1u);
  EXPECT_EQ(E[0].Source, "'synced'");
  ASSERT_TRUE(J.appendIntent(1, 0, false, "'post-tear'", Id, Error));
  ASSERT_TRUE(J.sync(Error));
  E = mustScan(J, 0);
  EXPECT_EQ(E.back().Source, "'post-tear'");
}

uint64_t fileSize(const std::string &Path) {
  struct stat St {};
  return ::stat(Path.c_str(), &St) == 0 ? static_cast<uint64_t>(St.st_size)
                                        : 0;
}

/// Appends A, has B fail part-way under a file-size limit, appends C, then
/// reopens. \returns a failure message, empty when A and C both survive.
std::string appendAfterPartialWrite(const std::string &Path) {
  std::signal(SIGXFSZ, SIG_IGN); // EFBIG instead of a fatal signal
  std::string Error;
  uint64_t Id = 0;
  Journal J;
  if (!J.open(Path, Error))
    return "open: " + Error;
  if (!J.appendIntent(1, 1, true, "'A'", Id, Error) || !J.sync(Error))
    return "append A: " + Error;
  rlimit Saved{};
  if (::getrlimit(RLIMIT_FSIZE, &Saved) != 0)
    return "getrlimit failed";
  rlimit Tight = Saved;
  Tight.rlim_cur = J.bytes() + 20;
  if (::setrlimit(RLIMIT_FSIZE, &Tight) != 0)
    return "setrlimit failed";
  bool AppendedB =
      J.appendIntent(1, 2, true, std::string(200, 'B'), Id, Error);
  ::setrlimit(RLIMIT_FSIZE, &Saved);
  if (AppendedB)
    return "B was appended past the file-size limit";
  if (!J.appendIntent(1, 3, true, "'C'", Id, Error) || !J.sync(Error))
    return "append C: " + Error;
  uint64_t End = J.endPos();
  if (fileSize(Path) != J.bytes())
    return "file holds " + std::to_string(fileSize(Path)) +
           " bytes, the journal believes " + std::to_string(J.bytes());
  J.close();

  Journal R;
  if (!R.open(Path, Error))
    return "reopen: " + Error;
  std::vector<Journal::Entry> E;
  if (!R.scan(0, E, Error))
    return "scan: " + Error;
  std::string Sources;
  for (const Journal::Entry &X : E)
    Sources += X.Source + ";";
  if (R.tornRepairs() != 0 || Sources != "'A';'C';" || R.endPos() != End)
    return "after reopen: " + std::to_string(R.tornRepairs()) +
           " torn repairs, sources [" + Sources + "], endPos " +
           std::to_string(R.endPos()) + " (was " + std::to_string(End) + ")";
  return "";
}

// rlimits are per process, so the case runs in a forked child.
TEST(JournalTest, WriteFailedPartWayIsCutBackSoLaterRecordsSurvive) {
  std::string Dir = makeTempDir();
  EXPECT_PASSES_IN_CHILD(
      [&] { return appendAfterPartialWrite(Dir + "/shard.journal"); });
  std::filesystem::remove_all(Dir);
}

/// Builds a 48 MB journal, then bounds how far each of open(), scan() of
/// the last records and truncateBelow() at mid-file raises the peak RSS.
/// \returns a failure message, empty on success.
std::string largeJournalStaysBounded(const std::string &Path) {
  constexpr int Records = 12288;
  constexpr long BoundKb = 8 * 1024;
  std::string Error;
  uint64_t Mark = 0, NearEnd = 0;
  {
    Journal J;
    if (!J.open(Path, Error))
      return "open: " + Error;
    for (int I = 0; I < Records; ++I) {
      if (I == Records / 2)
        Mark = J.endPos();
      if (I == Records - 4)
        NearEnd = J.endPos();
      uint64_t Id = 0;
      if (!J.appendIntent(1, static_cast<uint64_t>(I), true,
                          std::to_string(I) + std::string(4096, 'x'), Id,
                          Error))
        return "append: " + Error;
    }
    if (!J.sync(Error))
      return "sync: " + Error;
    if (J.bytes() < (48u << 20))
      return "journal only " + std::to_string(J.bytes()) + " bytes";
  }

  Journal J;
  bool Ok = false;
  long OpenKb = test::peakGrowthKb([&] { Ok = J.open(Path, Error); });
  if (!Ok)
    return "reopen: " + Error;
  if (OpenKb < 0)
    return "cannot reset the peak RSS through /proc/self/clear_refs";
  std::vector<Journal::Entry> Tail;
  long ScanKb = test::peakGrowthKb([&] { Ok = J.scan(NearEnd, Tail, Error); });
  if (!Ok || Tail.size() != 4)
    return "scan of the last records: " + std::to_string(Tail.size()) +
           " entries " + Error;

  std::vector<Journal::Entry> Below;
  if (!J.scan(Mark, Below, Error))
    return "scan from the mark: " + Error;
  long CompactKb =
      test::peakGrowthKb([&] { Ok = J.truncateBelow(Mark, Error); });
  if (!Ok)
    return "truncateBelow: " + Error;
  std::vector<Journal::Entry> Kept;
  if (!J.scan(0, Kept, Error))
    return "scan after compaction: " + Error;
  if (Kept.size() != Below.size() || Kept.size() != Records / 2)
    return "compaction kept " + std::to_string(Kept.size()) + " of " +
           std::to_string(Below.size()) + " entries";
  for (size_t I = 0; I < Kept.size(); ++I)
    if (Kept[I].RecordId != Below[I].RecordId ||
        Kept[I].Pos != Below[I].Pos || Kept[I].Source != Below[I].Source)
      return "compaction changed entry " + std::to_string(I);

  if (OpenKb >= BoundKb || ScanKb >= BoundKb || CompactKb >= BoundKb)
    return "peak RSS grew by " + std::to_string(OpenKb) + " kB in open(), " +
           std::to_string(ScanKb) + " kB in scan(), " +
           std::to_string(CompactKb) + " kB in truncateBelow() (bound " +
           std::to_string(BoundKb) + " kB)";
  return "";
}

// The peak-RSS counter is per process, so the case runs in a forked child.
TEST(JournalTest, OpenScanAndCompactionHoldBoundedMemory) {
  std::string Dir = makeTempDir();
  EXPECT_PASSES_IN_CHILD(
      [&] { return largeJournalStaysBounded(Dir + "/shard.journal"); });
  std::filesystem::remove_all(Dir);
}

TEST(JournalTest, DedupTableCachesBoundsAndTracksInFlight) {
  DedupTable D(/*MaxClients=*/2, /*MaxPerClient=*/3);
  DedupTable::Response R;

  EXPECT_FALSE(D.lookup(1, 1, R));
  D.insert(1, 1, {true, false, "one"});
  ASSERT_TRUE(D.lookup(1, 1, R));
  EXPECT_TRUE(R.Ok);
  EXPECT_EQ(R.Value, "one");

  // Re-insert overwrites (replay after crash records the same seq).
  D.insert(1, 1, {false, true, "timeout"});
  ASSERT_TRUE(D.lookup(1, 1, R));
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.TimedOut);

  // Per-client FIFO bound: seq 1 (oldest) falls out at the 4th insert.
  D.insert(1, 2, {true, false, "two"});
  D.insert(1, 3, {true, false, "three"});
  D.insert(1, 4, {true, false, "four"});
  EXPECT_FALSE(D.lookup(1, 1, R));
  EXPECT_TRUE(D.lookup(1, 4, R));
  EXPECT_EQ(D.size(), 3u);

  // Client FIFO bound: the 3rd client evicts the oldest client wholesale.
  D.insert(2, 1, {true, false, "c2"});
  D.insert(3, 1, {true, false, "c3"});
  EXPECT_FALSE(D.lookup(1, 4, R)) << "oldest client must be evicted";
  EXPECT_TRUE(D.lookup(2, 1, R));
  EXPECT_TRUE(D.lookup(3, 1, R));

  // In-flight tracking: second mark refused until cleared.
  EXPECT_TRUE(D.markInFlight(9, 1));
  EXPECT_FALSE(D.markInFlight(9, 1));
  EXPECT_TRUE(D.markInFlight(9, 2)); // distinct seq unaffected
  D.clearInFlight(9, 1);
  EXPECT_TRUE(D.markInFlight(9, 1));
}

} // namespace
