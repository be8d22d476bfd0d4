//===-- serve/Journal.cpp - Per-shard write-ahead request journal ---------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/Journal.h"

#include "support/Crc32.h"
#include "vkernel/Chaos.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace mst {
namespace serve {

namespace {

// On-disk layout (all fields little-endian, the only byte order we target):
//
//   file header   {u32 Magic 'MSTJ', u32 Version, u64 Base, u32 Crc, u32 Pad}
//   record        {u32 Magic 'JREC', u32 Crc, u32 Len, u8 Kind, u8 Pad8,
//                  u16 Pad16} + Len payload bytes
//
//   intent payload  {u64 RecordId, u64 ClientId, u64 Seq, u8 HasSeq,
//                    u8 Pad[3], u32 SourceLen, SourceLen bytes}
//   outcome payload {u64 RecordId, u64 ClientId, u64 Seq, u8 Status, u8 Ok,
//                    u8 HasSeq, u8 Pad, u32 ValueLen, ValueLen bytes}
//
// The record Crc covers the payload only; a corrupt Len sends the scanner
// into bytes that fail the Crc, which is indistinguishable from (and
// handled as) a torn tail. Logical position of a record = Base + its
// physical offset past the file header, so truncateBelow() can drop a
// prefix without invalidating checkpoint marks.

constexpr uint32_t FileMagic = 0x4d53544a;   // "MSTJ"
constexpr uint32_t FileVersion = 1;
constexpr uint32_t RecordMagic = 0x4a524543; // "JREC"
constexpr size_t FileHeaderSize = 24;
constexpr size_t RecordHeaderSize = 16;
constexpr uint8_t KindIntent = 1;
constexpr uint8_t KindOutcome = 2;
// A payload larger than this is framing corruption, not a real record.
constexpr uint32_t MaxRecordLen = 64u << 20;

void putU32(std::vector<uint8_t> &B, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    B.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

void putU64(std::vector<uint8_t> &B, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    B.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

uint32_t getU32(const uint8_t *P) {
  uint32_t V = 0;
  for (int I = 3; I >= 0; --I)
    V = (V << 8) | P[I];
  return V;
}

uint64_t getU64(const uint8_t *P) {
  uint64_t V = 0;
  for (int I = 7; I >= 0; --I)
    V = (V << 8) | P[I];
  return V;
}

std::vector<uint8_t> buildFileHeader(uint64_t Base) {
  std::vector<uint8_t> H;
  H.reserve(FileHeaderSize);
  putU32(H, FileMagic);
  putU32(H, FileVersion);
  putU64(H, Base);
  putU32(H, crc32(H.data(), H.size()));
  putU32(H, 0);
  return H;
}

bool writeAll(int Fd, const uint8_t *Data, size_t Len, std::string &Error) {
  size_t Off = 0;
  while (Off < Len) {
    ssize_t N = ::write(Fd, Data + Off, Len - Off);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Error = std::string("journal write failed: ") + std::strerror(errno);
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

bool readWholeFile(const std::string &Path, std::vector<uint8_t> &Out,
                   std::string &Error) {
  int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0) {
    Error = std::string("journal open for read failed: ") +
            std::strerror(errno);
    return false;
  }
  Out.clear();
  uint8_t Buf[1 << 16];
  for (;;) {
    ssize_t N = ::read(Fd, Buf, sizeof(Buf));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Error = std::string("journal read failed: ") + std::strerror(errno);
      ::close(Fd);
      return false;
    }
    if (N == 0)
      break;
    Out.insert(Out.end(), Buf, Buf + N);
  }
  ::close(Fd);
  return true;
}

struct RawRecord {
  uint8_t Kind;
  uint64_t Pos; ///< logical position of the record header
  const uint8_t *Payload;
  uint32_t Len;
};

/// Walks records in \p Data (file bytes past the header). Stops at the
/// first torn/corrupt record and reports the physical offset of the good
/// prefix end in \p GoodBytes.
void scanRecords(const std::vector<uint8_t> &Data, uint64_t Base,
                 std::vector<RawRecord> &Out, size_t &GoodBytes) {
  size_t Off = FileHeaderSize;
  GoodBytes = Off;
  while (Off + RecordHeaderSize <= Data.size()) {
    const uint8_t *H = Data.data() + Off;
    if (getU32(H) != RecordMagic)
      break;
    uint32_t Crc = getU32(H + 4);
    uint32_t Len = getU32(H + 8);
    uint8_t Kind = H[12];
    if (Len > MaxRecordLen || Off + RecordHeaderSize + Len > Data.size())
      break;
    const uint8_t *Payload = H + RecordHeaderSize;
    if (crc32(Payload, Len) != Crc)
      break;
    if (Kind != KindIntent && Kind != KindOutcome)
      break;
    RawRecord R;
    R.Kind = Kind;
    R.Pos = Base + (Off - FileHeaderSize);
    R.Payload = Payload;
    R.Len = Len;
    Out.push_back(R);
    Off += RecordHeaderSize + Len;
    GoodBytes = Off;
  }
}

bool parseIntent(const RawRecord &R, Journal::Entry &E) {
  if (R.Len < 32)
    return false;
  E.RecordId = getU64(R.Payload);
  E.ClientId = getU64(R.Payload + 8);
  E.Seq = getU64(R.Payload + 16);
  E.HasSeq = R.Payload[24] != 0;
  uint32_t SrcLen = getU32(R.Payload + 28);
  if (32 + static_cast<uint64_t>(SrcLen) > R.Len)
    return false;
  E.Source.assign(reinterpret_cast<const char *>(R.Payload + 32), SrcLen);
  E.Pos = R.Pos;
  return true;
}

struct ParsedOutcome {
  uint64_t RecordId;
  Journal::Outcome Out;
  bool Ok;
  std::string Value;
};

bool parseOutcome(const RawRecord &R, ParsedOutcome &O) {
  if (R.Len < 32)
    return false;
  O.RecordId = getU64(R.Payload);
  uint8_t Status = R.Payload[24];
  if (Status < 1 || Status > 4)
    return false;
  O.Out = static_cast<Journal::Outcome>(Status);
  O.Ok = R.Payload[25] != 0;
  uint32_t ValLen = getU32(R.Payload + 28);
  if (32 + static_cast<uint64_t>(ValLen) > R.Len)
    return false;
  O.Value.assign(reinterpret_cast<const char *>(R.Payload + 32), ValLen);
  return true;
}

} // namespace

bool Journal::open(const std::string &P, std::string &Error) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
  Path = P;

  std::vector<uint8_t> Data;
  struct stat St;
  bool Exists = ::stat(P.c_str(), &St) == 0 && St.st_size > 0;
  if (Exists && !readWholeFile(P, Data, Error))
    return false;

  if (!Exists || Data.size() < FileHeaderSize) {
    // Fresh (or unusably short) journal: write a clean header, Base 0.
    // A sub-header file can only be a torn first write — nothing in it
    // was ever synced, so starting over loses nothing.
    int NewFd = ::open(P.c_str(), O_CREAT | O_RDWR | O_TRUNC, 0644);
    if (NewFd < 0) {
      Error = std::string("journal create failed: ") + std::strerror(errno);
      return false;
    }
    auto H = buildFileHeader(0);
    if (!writeAll(NewFd, H.data(), H.size(), Error)) {
      ::close(NewFd);
      return false;
    }
    if (::fsync(NewFd) != 0) {
      Error = std::string("journal header fsync failed: ") +
              std::strerror(errno);
      ::close(NewFd);
      return false;
    }
    Fd = NewFd;
    Base = 0;
    FileBytes = FileHeaderSize;
    SyncedBytes = FileBytes;
    NextRecordId = 1;
    if (Exists)
      ++Torn;
    return true;
  }

  if (getU32(Data.data()) != FileMagic ||
      getU32(Data.data() + 4) != FileVersion ||
      crc32(Data.data(), 16) != getU32(Data.data() + 16)) {
    Error = "journal header corrupt: " + P;
    return false;
  }
  Base = getU64(Data.data() + 8);

  std::vector<RawRecord> Records;
  size_t GoodBytes = 0;
  scanRecords(Data, Base, Records, GoodBytes);

  uint64_t MaxId = 0;
  for (const auto &R : Records)
    if (R.Len >= 8)
      MaxId = std::max(MaxId, getU64(R.Payload));

  int NewFd = ::open(P.c_str(), O_RDWR);
  if (NewFd < 0) {
    Error = std::string("journal reopen failed: ") + std::strerror(errno);
    return false;
  }
  if (GoodBytes < Data.size()) {
    // Torn tail: drop the partial record so appends resume on a clean
    // boundary. Everything below GoodBytes passed its CRC.
    if (::ftruncate(NewFd, static_cast<off_t>(GoodBytes)) != 0) {
      Error = std::string("journal tail repair failed: ") +
              std::strerror(errno);
      ::close(NewFd);
      return false;
    }
    ++Torn;
  }
  if (::lseek(NewFd, 0, SEEK_END) < 0) {
    Error = std::string("journal seek failed: ") + std::strerror(errno);
    ::close(NewFd);
    return false;
  }
  Fd = NewFd;
  FileBytes = GoodBytes;
  SyncedBytes = GoodBytes;
  NextRecordId = MaxId + 1;
  return true;
}

void Journal::close() {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

bool Journal::appendRecord(uint8_t Kind, const std::vector<uint8_t> &Payload,
                           std::string &Error) {
  if (Fd < 0) {
    Error = "journal not open";
    return false;
  }
  if (chaos::failPoint("journal.append.fail")) {
    Error = "journal append failed (chaos: journal.append.fail)";
    return false;
  }
  std::vector<uint8_t> Rec;
  Rec.reserve(RecordHeaderSize + Payload.size());
  putU32(Rec, RecordMagic);
  putU32(Rec, crc32(Payload.data(), Payload.size()));
  putU32(Rec, static_cast<uint32_t>(Payload.size()));
  Rec.push_back(Kind);
  Rec.push_back(0);
  Rec.push_back(0);
  Rec.push_back(0);
  Rec.insert(Rec.end(), Payload.begin(), Payload.end());
  if (!writeAll(Fd, Rec.data(), Rec.size(), Error))
    return false;
  FileBytes += Rec.size();
  return true;
}

bool Journal::appendIntent(uint64_t ClientId, uint64_t Seq, bool HasSeq,
                           const std::string &Source, uint64_t &RecordId,
                           std::string &Error) {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<uint8_t> P;
  P.reserve(32 + Source.size());
  uint64_t Id = NextRecordId;
  putU64(P, Id);
  putU64(P, ClientId);
  putU64(P, Seq);
  P.push_back(HasSeq ? 1 : 0);
  P.push_back(0);
  P.push_back(0);
  P.push_back(0);
  putU32(P, static_cast<uint32_t>(Source.size()));
  P.insert(P.end(), Source.begin(), Source.end());
  if (!appendRecord(KindIntent, P, Error))
    return false;
  NextRecordId = Id + 1;
  RecordId = Id;
  return true;
}

bool Journal::appendOutcome(uint64_t RecordId, uint64_t ClientId, uint64_t Seq,
                            bool HasSeq, Outcome Out, bool Ok,
                            const std::string &Value, std::string &Error) {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<uint8_t> P;
  P.reserve(32 + Value.size());
  putU64(P, RecordId);
  putU64(P, ClientId);
  putU64(P, Seq);
  P.push_back(static_cast<uint8_t>(Out));
  P.push_back(Ok ? 1 : 0);
  P.push_back(HasSeq ? 1 : 0);
  P.push_back(0);
  putU32(P, static_cast<uint32_t>(Value.size()));
  P.insert(P.end(), Value.begin(), Value.end());
  return appendRecord(KindOutcome, P, Error);
}

bool Journal::sync(std::string &Error) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Fd < 0) {
    Error = "journal not open";
    return false;
  }
  if (chaos::failPoint("journal.fsync.fail")) {
    Error = "journal fsync failed (chaos: journal.fsync.fail)";
    return false;
  }
  // fdatasync, not fsync: an append-only log needs the data and the file
  // size durable, not timestamps — on ext4 that skips a second metadata
  // journal commit per batch, and this call sits on the shard thread's
  // critical path between append and execute.
  if (::fdatasync(Fd) != 0) {
    Error = std::string("journal fsync failed: ") + std::strerror(errno);
    return false;
  }
  SyncedBytes = FileBytes;
  return true;
}

bool Journal::scan(uint64_t FromPos, std::vector<Entry> &Out,
                   std::string &Error) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  Out.clear();
  if (Fd < 0) {
    Error = "journal not open";
    return false;
  }
  std::vector<uint8_t> Data;
  if (!readWholeFile(Path, Data, Error))
    return false;
  if (Data.size() < FileHeaderSize) {
    Error = "journal shrank under us: " + Path;
    return false;
  }
  uint64_t FileBase = getU64(Data.data() + 8);
  std::vector<RawRecord> Records;
  size_t GoodBytes = 0;
  scanRecords(Data, FileBase, Records, GoodBytes);

  // Outcomes always land after their intent, so one ordered pass with a
  // RecordId index joins them.
  std::unordered_map<uint64_t, size_t> ByRecordId;
  for (const auto &R : Records) {
    if (R.Kind == KindIntent) {
      Entry E;
      if (!parseIntent(R, E))
        continue;
      if (E.Pos < FromPos)
        continue;
      ByRecordId[E.RecordId] = Out.size();
      Out.push_back(std::move(E));
    } else {
      ParsedOutcome O;
      if (!parseOutcome(R, O))
        continue;
      auto It = ByRecordId.find(O.RecordId);
      if (It == ByRecordId.end())
        continue; // outcome for an intent below FromPos (or compacted away)
      Entry &E = Out[It->second];
      E.Out = O.Out;
      E.Ok = O.Ok;
      E.Value = std::move(O.Value);
    }
  }
  return true;
}

bool Journal::truncateBelow(uint64_t Mark, std::string &Error) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Fd < 0) {
    Error = "journal not open";
    return false;
  }
  if (Mark <= Base)
    return true; // nothing below the mark survives in this file anyway
  uint64_t End = Base + (FileBytes - FileHeaderSize);
  if (Mark > End) {
    Error = "journal truncate mark past end";
    return false;
  }
  if (chaos::failPoint("journal.truncate.fail")) {
    Error = "journal truncate failed (chaos: journal.truncate.fail)";
    return false;
  }

  std::vector<uint8_t> Data;
  if (!readWholeFile(Path, Data, Error))
    return false;
  size_t CutOff = FileHeaderSize + static_cast<size_t>(Mark - Base);
  if (CutOff > Data.size()) {
    Error = "journal truncate cut past file end";
    return false;
  }

  // Same commit discipline as snapshots: unique tmp, fsync, rename. A
  // crash mid-compaction leaves either the old journal or the new one,
  // both of which replay correctly.
  std::string Tmp = Path + ".compact.tmp";
  int TmpFd = ::open(Tmp.c_str(), O_CREAT | O_RDWR | O_TRUNC, 0644);
  if (TmpFd < 0) {
    Error = std::string("journal compact tmp open failed: ") +
            std::strerror(errno);
    return false;
  }
  auto H = buildFileHeader(Mark);
  bool WriteOk = writeAll(TmpFd, H.data(), H.size(), Error) &&
                 (CutOff == Data.size() ||
                  writeAll(TmpFd, Data.data() + CutOff, Data.size() - CutOff,
                           Error));
  if (WriteOk && ::fsync(TmpFd) != 0) {
    Error = std::string("journal compact fsync failed: ") +
            std::strerror(errno);
    WriteOk = false;
  }
  ::close(TmpFd);
  if (!WriteOk) {
    ::unlink(Tmp.c_str());
    return false;
  }
  if (::rename(Tmp.c_str(), Path.c_str()) != 0) {
    Error = std::string("journal compact rename failed: ") +
            std::strerror(errno);
    ::unlink(Tmp.c_str());
    return false;
  }

  int NewFd = ::open(Path.c_str(), O_RDWR | O_APPEND);
  if (NewFd < 0) {
    Error = std::string("journal reopen after compact failed: ") +
            std::strerror(errno);
    return false;
  }
  if (::lseek(NewFd, 0, SEEK_END) < 0) {
    Error = std::string("journal seek after compact failed: ") +
            std::strerror(errno);
    ::close(NewFd);
    return false;
  }
  ::close(Fd);
  Fd = NewFd;
  Base = Mark;
  FileBytes = FileHeaderSize + (Data.size() - CutOff);
  SyncedBytes = FileBytes;
  return true;
}

uint64_t Journal::endPos() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Fd < 0)
    return 0;
  return Base + (FileBytes - FileHeaderSize);
}

uint64_t Journal::bytes() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Fd < 0 ? 0 : FileBytes;
}

uint64_t Journal::tearTail(uint64_t MaxCut, uint64_t Salt) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Fd < 0 || FileBytes <= SyncedBytes)
    return 0;
  // Only the unsynced tail can tear: records below SyncedBytes survived
  // an fsync, and the drill must not model a failure mode the fsync
  // discipline already rules out.
  uint64_t Window = FileBytes - SyncedBytes;
  uint64_t Cut = 1 + (Salt * 0x9e3779b97f4a7c15ull >> 33) %
                         std::min<uint64_t>(MaxCut, Window);
  uint64_t NewSize = FileBytes - Cut;
  if (::ftruncate(Fd, static_cast<off_t>(NewSize)) != 0)
    return 0;
  // A real tear is followed by open()'s boundary repair before appends
  // resume; in-process the fd stays open, so repair here — appending
  // after a half-record would bury every later record behind a CRC
  // failure.
  std::string Err;
  std::vector<uint8_t> Data;
  if (!readWholeFile(Path, Data, Err) || Data.size() < FileHeaderSize)
    return 0;
  std::vector<RawRecord> Records;
  size_t GoodBytes = 0;
  scanRecords(Data, Base, Records, GoodBytes);
  if (GoodBytes < Data.size() &&
      ::ftruncate(Fd, static_cast<off_t>(GoodBytes)) != 0)
    return 0;
  if (::lseek(Fd, 0, SEEK_END) < 0)
    return 0;
  FileBytes = GoodBytes;
  ++Torn;
  return Cut;
}

bool DedupTable::lookup(uint64_t Client, uint64_t Seq, Response &R) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Clients.find(Client);
  if (It == Clients.end())
    return false;
  auto SeqIt = It->second.BySeq.find(Seq);
  if (SeqIt == It->second.BySeq.end())
    return false;
  R = SeqIt->second;
  return true;
}

void DedupTable::insert(uint64_t Client, uint64_t Seq, Response R) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Clients.find(Client);
  if (It == Clients.end()) {
    while (Clients.size() >= MaxClients && !ClientOrder.empty()) {
      uint64_t Victim = ClientOrder.front();
      ClientOrder.pop_front();
      auto VIt = Clients.find(Victim);
      if (VIt != Clients.end()) {
        Entries -= VIt->second.BySeq.size();
        Clients.erase(VIt);
      }
    }
    It = Clients.emplace(Client, ClientEntry()).first;
    ClientOrder.push_back(Client);
  }
  ClientEntry &E = It->second;
  auto SeqIt = E.BySeq.find(Seq);
  if (SeqIt != E.BySeq.end()) {
    SeqIt->second = std::move(R);
    return;
  }
  E.BySeq.emplace(Seq, std::move(R));
  E.Order.push_back(Seq);
  ++Entries;
  while (E.BySeq.size() > MaxPerClient && !E.Order.empty()) {
    uint64_t Old = E.Order.front();
    E.Order.pop_front();
    if (E.BySeq.erase(Old))
      --Entries;
  }
}

namespace {
uint64_t flightKey(uint64_t Client, uint64_t Seq) {
  // Mixed key rather than a pair-set: a client retiring seq S while
  // another client is on the same S must not collide, and golden-ratio
  // mixing of both words keeps accidental collisions vanishingly rare
  // for the bounded window of pairs in flight at once.
  return (Client * 0x9e3779b97f4a7c15ull) ^ (Seq + 0x632be59bd9b4e019ull);
}
} // namespace

bool DedupTable::markInFlight(uint64_t Client, uint64_t Seq) {
  std::lock_guard<std::mutex> Lock(Mutex);
  return InFlight.insert(flightKey(Client, Seq)).second;
}

void DedupTable::clearInFlight(uint64_t Client, uint64_t Seq) {
  std::lock_guard<std::mutex> Lock(Mutex);
  InFlight.erase(flightKey(Client, Seq));
}

size_t DedupTable::size() {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Entries;
}

} // namespace serve
} // namespace mst
