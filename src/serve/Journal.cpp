//===-- serve/Journal.cpp - Per-shard write-ahead request journal ---------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/Journal.h"

#include "image/Snapshot.h"
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
// Bytes per read when copying or walking the file.
constexpr size_t ReadChunkBytes = 64u << 10;

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

/// Copies file bytes [From, To) of \p In to the end of \p Out through one
/// fixed-size buffer.
bool copyRange(int In, uint64_t From, uint64_t To, int Out,
               std::string &Error) {
  uint8_t Buf[ReadChunkBytes];
  while (From < To) {
    ssize_t N = ::pread(In, Buf, std::min<uint64_t>(sizeof(Buf), To - From),
                        static_cast<off_t>(From));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0) {
      Error = N < 0 ? std::string("journal read failed: ") +
                          std::strerror(errno)
                    : std::string("journal shrank under us");
      return false;
    }
    if (!writeAll(Out, Buf, static_cast<size_t>(N), Error))
      return false;
    From += static_cast<uint64_t>(N);
  }
  return true;
}

struct RawRecord {
  uint8_t Kind;
  uint64_t Pos; ///< logical position of the record header
  const uint8_t *Payload;
  uint32_t Len;
};

/// Walks the records in physical bytes [From, End) of an open journal,
/// one at a time, with pread (the fd's append offset is untouched). The
/// buffer holds one read chunk and grows only to fit the largest record,
/// which MaxRecordLen caps; nothing here grows with the file.
class RecordReader {
public:
  RecordReader(int Fd, uint64_t Base, uint64_t From, uint64_t End)
      : Fd(Fd), Base(Base), End(End), Good(From), ReadOff(From) {}

  /// Fills \p R with the next whole record; its payload stays valid until
  /// the next call. \returns false at the end of the good prefix: the end
  /// of the range, a torn or corrupt record, or a read error (error()).
  bool next(RawRecord &R) {
    if (!fill(RecordHeaderSize))
      return false;
    uint32_t Len = getU32(Buf.data() + Begin + 8);
    if (getU32(Buf.data() + Begin) != RecordMagic || Len > MaxRecordLen ||
        !fill(RecordHeaderSize + Len))
      return false;
    const uint8_t *H = Buf.data() + Begin;
    const uint8_t *Payload = H + RecordHeaderSize;
    uint8_t Kind = H[12];
    if (crc32(Payload, Len) != getU32(H + 4) ||
        (Kind != KindIntent && Kind != KindOutcome))
      return false;
    R.Kind = Kind;
    R.Pos = Base + (Good - FileHeaderSize);
    R.Payload = Payload;
    R.Len = Len;
    Begin += RecordHeaderSize + Len;
    Good += RecordHeaderSize + Len;
    return true;
  }

  /// Physical offset just past the last whole record returned.
  uint64_t goodBytes() const { return Good; }

  const std::string &error() const { return Err; }

private:
  /// Makes \p N bytes from offset Good available at Buf[Begin].
  /// \returns false when the range ends first or a read fails.
  bool fill(size_t N) {
    if (Filled - Begin >= N)
      return true;
    if (Good + N > End)
      return false;
    if (Begin > 0) {
      std::memmove(Buf.data(), Buf.data() + Begin, Filled - Begin);
      Filled -= Begin;
      Begin = 0;
    }
    if (Buf.size() < N)
      Buf.resize(std::max(N, ReadChunkBytes));
    while (Filled < N) {
      ssize_t Got = ::pread(
          Fd, Buf.data() + Filled,
          std::min<uint64_t>(Buf.size() - Filled, End - ReadOff),
          static_cast<off_t>(ReadOff));
      if (Got < 0 && errno == EINTR)
        continue;
      if (Got <= 0) {
        if (Got < 0)
          Err = std::string("journal read failed: ") + std::strerror(errno);
        return false;
      }
      Filled += static_cast<size_t>(Got);
      ReadOff += static_cast<uint64_t>(Got);
    }
    return true;
  }

  int Fd;
  uint64_t Base;
  uint64_t End;
  uint64_t Good;    ///< physical offset of Buf[Begin]
  uint64_t ReadOff; ///< physical offset of Buf[Filled]
  std::vector<uint8_t> Buf;
  size_t Begin = 0;
  size_t Filled = 0;
  std::string Err;
};

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

/// Joins outcome record \p R into \p E. \returns false, leaving \p E
/// alone, when the payload is malformed.
bool parseOutcome(const RawRecord &R, Journal::Entry &E) {
  if (R.Len < 32)
    return false;
  uint8_t Status = R.Payload[24];
  uint32_t ValLen = getU32(R.Payload + 28);
  if (Status < 1 || Status > 4 || 32 + static_cast<uint64_t>(ValLen) > R.Len)
    return false;
  E.Out = static_cast<Journal::Outcome>(Status);
  E.Ok = R.Payload[25] != 0;
  E.Value.assign(reinterpret_cast<const char *>(R.Payload + 32), ValLen);
  return true;
}

} // namespace

bool Journal::open(const std::string &P, std::string &Error) {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
  Path = P;
  Broken = false;

  // O_APPEND: every append lands at the file's end, which appendRecord
  // keeps equal to FileBytes.
  int NewFd = ::open(P.c_str(), O_CREAT | O_RDWR | O_APPEND, 0644);
  if (NewFd < 0) {
    Error = std::string("journal open failed: ") + std::strerror(errno);
    return false;
  }
  auto Fail = [&](std::string Msg) {
    Error = std::move(Msg);
    ::close(NewFd);
    return false;
  };
  struct stat St {};
  if (::fstat(NewFd, &St) != 0)
    return Fail(std::string("journal stat failed: ") + std::strerror(errno));
  uint64_t Size = static_cast<uint64_t>(St.st_size);

  if (Size < FileHeaderSize) {
    // Fresh (or unusably short) journal: write a clean header, Base 0.
    // A sub-header file can only be a torn first write — nothing in it
    // was ever synced, so starting over loses nothing.
    auto H = buildFileHeader(0);
    if (::ftruncate(NewFd, 0) != 0)
      return Fail(std::string("journal create failed: ") +
                  std::strerror(errno));
    if (!writeAll(NewFd, H.data(), H.size(), Error))
      return Fail(Error);
    if (::fsync(NewFd) != 0)
      return Fail(std::string("journal header fsync failed: ") +
                  std::strerror(errno));
    // The file's name must survive a power loss too, or every record
    // acknowledged from this file on could vanish with it.
    std::string DirError;
    if (!fsyncDirectoryOf(P, DirError))
      return Fail("journal create failed: " + DirError);
    Base = 0;
    FileBytes = FileHeaderSize;
    NextRecordId = 1;
    if (Size > 0)
      ++Torn;
  } else {
    uint8_t H[FileHeaderSize] = {};
    if (::pread(NewFd, H, FileHeaderSize, 0) !=
        static_cast<ssize_t>(FileHeaderSize))
      return Fail(std::string("journal read failed: ") +
                  std::strerror(errno));
    if (getU32(H) != FileMagic || getU32(H + 4) != FileVersion ||
        crc32(H, 16) != getU32(H + 16))
      return Fail("journal header corrupt: " + P);
    Base = getU64(H + 8);

    RecordReader Reader(NewFd, Base, FileHeaderSize, Size);
    RawRecord R{};
    uint64_t MaxId = 0;
    while (Reader.next(R))
      if (R.Len >= 8)
        MaxId = std::max(MaxId, getU64(R.Payload));
    if (!Reader.error().empty())
      return Fail(Reader.error());
    if (Reader.goodBytes() < Size) {
      // Torn tail: drop the partial record so appends resume on a clean
      // boundary. Everything below goodBytes() passed its CRC.
      if (::ftruncate(NewFd, static_cast<off_t>(Reader.goodBytes())) != 0)
        return Fail(std::string("journal tail repair failed: ") +
                    std::strerror(errno));
      ++Torn;
    }
    FileBytes = Reader.goodBytes();
    NextRecordId = MaxId + 1;
  }
  Fd = NewFd;
  SyncedBytes = FileBytes;
  return true;
}

void Journal::close() {
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
  if (Broken) {
    Error = "journal append refused: a failed write could not be cut back";
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
  if (!writeAll(Fd, Rec.data(), Rec.size(), Error)) {
    // A write that failed part-way (ENOSPC, EFBIG, EIO) left a partial
    // record behind. Cut it off so the next record lands at FileBytes; a
    // record appended past the garbage would be cut off by the next
    // open(), so if the cut fails, refuse every later append.
    if (::ftruncate(Fd, static_cast<off_t>(FileBytes)) != 0)
      Broken = true;
    return false;
  }
  FileBytes += Rec.size();
  return true;
}

bool Journal::appendIntent(uint64_t ClientId, uint64_t Seq, bool HasSeq,
                           const std::string &Source, uint64_t &RecordId,
                           std::string &Error) {
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
  Out.clear();
  if (Fd < 0) {
    Error = "journal not open";
    return false;
  }
  // Outcomes always land after their intent, so one ordered pass with a
  // RecordId index joins them. Records below FromPos are passed over
  // before anything is copied out of them.
  std::unordered_map<uint64_t, size_t> ByRecordId;
  RecordReader Reader(Fd, Base, FileHeaderSize, FileBytes);
  RawRecord R{};
  while (Reader.next(R)) {
    if (R.Kind == KindIntent) {
      Entry E;
      if (R.Pos < FromPos || !parseIntent(R, E))
        continue;
      ByRecordId[E.RecordId] = Out.size();
      Out.push_back(std::move(E));
    } else if (R.Len >= 8) {
      auto It = ByRecordId.find(getU64(R.Payload));
      if (It != ByRecordId.end()) // else its intent is below FromPos
        parseOutcome(R, Out[It->second]);
    }
  }
  if (!Reader.error().empty()) {
    Error = Reader.error();
    return false;
  }
  return true;
}

bool Journal::truncateBelow(uint64_t Mark, std::string &Error) {
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

  uint64_t CutOff = FileHeaderSize + (Mark - Base);

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
                 copyRange(Fd, CutOff, FileBytes, TmpFd, Error);
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
  ::close(Fd);
  Fd = NewFd;
  Base = Mark;
  FileBytes = FileHeaderSize + (FileBytes - CutOff);
  SyncedBytes = FileBytes;
  // Until the directory is synced, a power loss can bring back the old
  // file, without every record appended to the new one from here on. The
  // switch above stands either way: the replaced file is gone.
  std::string DirError;
  if (!fsyncDirectoryOf(Path, DirError)) {
    Error = "journal compacted, but " + DirError;
    return false;
  }
  return true;
}

uint64_t Journal::endPos() const {
  if (Fd < 0)
    return 0;
  return Base + (FileBytes - FileHeaderSize);
}

uint64_t Journal::bytes() const {
  return Fd < 0 ? 0 : FileBytes;
}

uint64_t Journal::tearTail(uint64_t MaxCut, uint64_t Salt) {
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
  // failure. Only the window past SyncedBytes tore, and SyncedBytes is a
  // record boundary, so the walk starts there.
  RecordReader Reader(Fd, Base, SyncedBytes, NewSize);
  RawRecord R{};
  while (Reader.next(R)) {
  }
  if (Reader.goodBytes() < NewSize &&
      ::ftruncate(Fd, static_cast<off_t>(Reader.goodBytes())) != 0)
    return 0;
  FileBytes = Reader.goodBytes();
  ++Torn;
  return Cut;
}

bool DedupTable::lookup(uint64_t Client, uint64_t Seq, Response &R) const {
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

} // namespace serve
} // namespace mst
