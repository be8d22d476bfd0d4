//===-- image/Snapshot.cpp - Crash-consistent image save/load -------------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Format v2 ("MST2") layout. All integers are host-endian (an image is a
/// machine-local checkpoint, not an interchange format).
///
///   FileHeader   32 B: magic, version, object count, root count,
///                      section count, header CRC-32
///   Section * 3      : 16 B header (tag, payload CRC-32, payload length)
///                      followed by the payload
///       'OBJS' object graph   — one record per reachable object
///       'ROOT' well-known table — one encoded ref per root cell
///       'SYMB' symbol table   — count + object ids of interned symbols
///   FileTrailer  16 B: magic, whole-file CRC-32 (all bytes before the
///                      trailer), total file length (trailer included)
///
/// The writer serializes with the world stopped, then assembles and
/// writes the file with the world running: serialize → a per-save unique
/// temp file (`<path>.tmp.<pid>.<seq>`) → fsync(file) → rotate
/// generations → rename over `<path>` → fsync(directory). Saves to the
/// same target path are serialized by a per-path mutex so rotation and
/// rename never interleave, and the whole file phase runs inside a
/// safepoint blocked region (it touches only host memory), so a slow disk
/// or a saver waiting on the lock never stalls another thread's pause.
/// The loader verifies trailer, header, and every section CRC, then
/// structurally validates the whole graph against the section bounds
/// *before* allocating the first object — a corrupt file reports a
/// diagnostic (section, offset, expected vs. actual) and leaves the VM
/// untouched.
///
//===----------------------------------------------------------------------===//

#include "image/Snapshot.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <unordered_map>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "objmem/Safepoint.h"
#include "obs/Histogram.h"
#include "obs/Telemetry.h"
#include "support/Assert.h"
#include "support/Crc32.h"
#include "support/Panic.h"
#include "vkernel/Chaos.h"

using namespace mst;

namespace {

constexpr uint32_t SnapshotMagic = 0x4d535432;  // "MST2"
constexpr uint32_t SnapshotVersion = 2;
constexpr uint32_t TrailerMagic = 0x4d535445;   // "MSTE"
constexpr uint32_t SecObjectsTag = 0x4f424a53;  // "OBJS"
constexpr uint32_t SecRootsTag = 0x524f4f54;    // "ROOT"
constexpr uint32_t SecSymbolsTag = 0x53594d42;  // "SYMB"
constexpr uint32_t SecJournalTag = 0x4a504f53;  // "JPOS"
constexpr uint32_t SectionCount = 3;    // mandatory sections
constexpr uint32_t MaxSectionCount = 4; // + the optional journal mark

/// Slot-count ceiling for a single record. Contexts are the only format
/// whose SlotCount may exceed the serialized live slots; no legitimate
/// context is anywhere near this, so a larger value in a CRC-valid file
/// is corruption, not data — refuse before asking the allocator for it.
constexpr uint32_t MaxContextSlots = 1u << 20;

struct FileHeader {
  uint32_t Magic;
  uint32_t Version;
  uint64_t ObjectCount;
  uint64_t RootCount;
  uint32_t Sections;
  uint32_t Crc; ///< CRC-32 of the 28 bytes above
};
static_assert(sizeof(FileHeader) == 32, "snapshot header layout");

struct SectionHeader {
  uint32_t Tag;
  uint32_t Crc; ///< CRC-32 of the payload
  uint64_t PayloadBytes;
};
static_assert(sizeof(SectionHeader) == 16, "snapshot section layout");

struct FileTrailer {
  uint32_t Magic;
  uint32_t FileCrc;    ///< CRC-32 of every byte before the trailer
  uint64_t TotalBytes; ///< whole file, trailer included
};
static_assert(sizeof(FileTrailer) == 16, "snapshot trailer layout");

/// One serialized object record (fixed part).
struct RecordHeader {
  uint64_t ClassRef;   // encoded reference (see encodeRef)
  uint32_t SlotCount;
  uint32_t ByteLength;
  uint32_t Hash;
  uint8_t Format;
  uint8_t Escaped;
  uint8_t Pad[2];
};
static_assert(sizeof(RecordHeader) == 24, "snapshot record layout");

/// --- Telemetry ----------------------------------------------------------
/// Static-lifetime registry entries, the Panic-counter pattern: the image
/// layer has no single owning object, and load/save events are rare.

Counter &crcFailures() {
  static Counter C{"img.crc.failures"};
  return C;
}
Counter &loadFallbacks() {
  static Counter C{"img.load.fallbacks"};
  return C;
}
Counter &saveBytesCtr() {
  static Counter C{"img.save.bytes"};
  return C;
}
Counter &savesCtr() {
  static Counter C{"img.save.snapshots"};
  return C;
}
Histogram &savePauseHist() {
  static Histogram H{"img.save.pause"}; // ns, the stop-the-world window
  return H;
}
Histogram &loadMillisHist() {
  static Histogram H{"img.load.millis"}; // whole-load wall milliseconds
  return H;
}
Counter &dirFsyncWarnCtr() {
  static Counter C{"img.save.dirfsync.warnings"};
  return C;
}
Counter &emergencyCtr() {
  static Counter C{"img.save.emergency"};
  return C;
}

std::string errnoText() { return std::strerror(errno); }

/// Reference encoding within a snapshot:
///   0                -> the null oop
///   (v << 1) | 1     -> SmallInteger v
///   (id + 1) << 1    -> object with the given table id
uint64_t encodeRef(Oop O,
                   const std::unordered_map<uintptr_t, uint64_t> &Ids) {
  if (O.isNull())
    return 0;
  if (O.isSmallInt())
    return (static_cast<uint64_t>(O.smallInt()) << 1) | 1u;
  auto It = Ids.find(O.bits());
  assert(It != Ids.end() && "reference to an unserialized object");
  return (It->second + 1) << 1;
}

/// An append-only byte buffer (one section payload).
class Buf {
public:
  void put(const void *P, size_t N) {
    const auto *B = static_cast<const uint8_t *>(P);
    V.insert(V.end(), B, B + N);
  }
  void putU32(uint32_t X) { put(&X, 4); }
  void putU64(uint64_t X) { put(&X, 8); }

  std::vector<uint8_t> V;
};

/// --- Writer -------------------------------------------------------------

class Writer {
public:
  explicit Writer(VirtualMachine &VM) : VM(VM) {}

  /// Serializes the image into the three section payloads. Runs with the
  /// world stopped; writes only to memory, so it cannot fail.
  void run(Buf &Objects, Buf &Roots, Buf &Symbols) {
    collect();
    writeObjects(Objects);
    writeRoots(Roots);
    writeSymbols(Symbols);
  }

  uint64_t objectCount() const { return Objects.size(); }
  uint64_t rootCount() const { return RootCells.size(); }

private:
  /// Breadth-first closure over everything reachable from the well-known
  /// objects and the symbol table.
  void collect() {
    auto Enqueue = [this](Oop O) {
      if (!O.isPointer() || Ids.count(O.bits()))
        return;
      Ids.emplace(O.bits(), Objects.size());
      Objects.push_back(O);
    };
    KnownObjects &K = VM.model().known();
    K.visitRoots([&](Oop *Cell) {
      Enqueue(*Cell);
      RootCells.push_back(Cell);
    });
    VM.model().symbols().visitRoots([&](Oop *Cell) { Enqueue(*Cell); });

    for (size_t Scan = 0; Scan < Objects.size(); ++Scan) {
      ObjectHeader *H = Objects[Scan].object();
      Enqueue(H->classOop());
      if (H->Format == ObjectFormat::Bytes)
        continue;
      for (uint32_t I = 0; I < liveSlots(H); ++I)
        Enqueue(H->slots()[I]);
    }
  }

  /// Contexts are serialized only up to their stack pointer (dead slots
  /// may hold junk the interpreter never cleared); everything else in
  /// full.
  static uint32_t liveSlots(ObjectHeader *H) {
    uint32_t Live = H->SlotCount;
    if (H->Format == ObjectFormat::Context) {
      Oop Sp = H->slots()[ContextSpSlotIndex];
      if (Sp.isSmallInt() && Sp.smallInt() >= 0)
        Live = std::min<uint32_t>(
            H->SlotCount, static_cast<uint32_t>(Sp.smallInt()) + 1);
    }
    return Live;
  }

  void writeObjects(Buf &B) {
    for (Oop O : Objects) {
      ObjectHeader *H = O.object();
      RecordHeader R{};
      R.ClassRef = encodeRef(H->classOop(), Ids);
      R.SlotCount = H->SlotCount;
      R.ByteLength = H->ByteLength;
      R.Hash = H->Hash;
      R.Format = static_cast<uint8_t>(H->Format);
      R.Escaped = H->isEscaped() ? 1 : 0;
      B.put(&R, sizeof(R));
      if (H->Format == ObjectFormat::Bytes) {
        if (H->ByteLength)
          B.put(H->bytes(), H->ByteLength);
        continue;
      }
      uint32_t Live = liveSlots(H);
      B.putU32(Live);
      for (uint32_t I = 0; I < Live; ++I)
        B.putU64(encodeRef(H->slots()[I], Ids));
    }
  }

  void writeRoots(Buf &B) {
    for (Oop *Cell : RootCells)
      B.putU64(encodeRef(*Cell, Ids));
  }

  void writeSymbols(Buf &B) {
    // Symbols are identified by their object ids; spellings come from the
    // byte bodies at load time.
    std::vector<uint64_t> SymbolIds;
    VM.model().symbols().visitRoots([&](Oop *Cell) {
      if (Cell->isPointer()) {
        auto It = Ids.find(Cell->bits());
        if (It != Ids.end())
          SymbolIds.push_back(It->second);
      }
    });
    // The last visited cell is the symbol class itself; keep it — the
    // loader just skips non-Symbol spellings being re-adopted twice.
    B.putU64(SymbolIds.size());
    for (uint64_t Id : SymbolIds)
      B.putU64(Id);
  }

  VirtualMachine &VM;
  std::unordered_map<uintptr_t, uint64_t> Ids;
  std::vector<Oop> Objects;
  std::vector<Oop *> RootCells;
};

/// --- Atomic durability protocol -----------------------------------------

/// One mutex per target path string, never reclaimed (the set of snapshot
/// paths a process writes is tiny and fixed). Held across the temp-file
/// write, rotation, and rename, it serializes concurrent saves to the
/// same path, which must not interleave two rotations or publish over
/// each other mid-protocol.
std::mutex &savePathLock(const std::string &Path) {
  static std::mutex RegistryMu;
  static auto &Locks = *new std::map<std::string, std::mutex>();
  std::lock_guard<std::mutex> G(RegistryMu);
  return Locks[Path];
}

/// A temp name no other save (thread or process) is writing: two savers
/// sharing one `<path>.tmp` would interleave writes into a torn file that
/// one of them then renames over the target.
std::string uniqueTmpName(const std::string &Path) {
  static std::atomic<uint64_t> Seq{0};
  return Path + ".tmp." + std::to_string(::getpid()) + "." +
         std::to_string(Seq.fetch_add(1, std::memory_order_relaxed) + 1);
}

/// Slides the rotated generations up one slot: `<path>.N-1` → `<path>.N`,
/// …, `<path>` → `<path>.1`. ENOENT at any rung is normal (fewer
/// generations exist than the cap); other failures are ignored too —
/// rotation is a retention nicety, never a correctness requirement.
void rotateGenerations(const std::string &Path, unsigned Keep) {
  if (Keep == 0)
    return;
  (void)::unlink((Path + "." + std::to_string(Keep)).c_str());
  for (unsigned G = Keep; G > 1; --G)
    (void)::rename((Path + "." + std::to_string(G - 1)).c_str(),
                   (Path + "." + std::to_string(G)).c_str());
  (void)::rename(Path.c_str(), (Path + ".1").c_str());
}

/// Writes \p Image to \p Path via a unique temp file + fsync + rename;
/// the caller holds the per-path save lock. The target is replaced
/// atomically or not at all; a failure (real or chaos-injected) leaves at
/// worst a torn `.tmp.*` file that no loader ever reads.
bool writeAtomically(const std::string &Path,
                     const std::vector<uint8_t> &Image,
                     const SnapshotOptions &Opts, std::string &Error) {
  std::string Tmp = uniqueTmpName(Path);
  int Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (Fd < 0) {
    Error = "cannot create " + Tmp + ": " + errnoText();
    return false;
  }
  auto FailAt = [&](const std::string &What, size_t Off) {
    Error = What + " for " + Tmp + " at byte offset " +
            std::to_string(Off) + " of " + std::to_string(Image.size());
    ::close(Fd);
    (void)::unlink(Tmp.c_str());
    return false;
  };
  constexpr size_t Chunk = 1u << 20;
  size_t Off = 0;
  while (Off < Image.size()) {
    if (chaos::failPoint("io.write.fail"))
      return FailAt("write failed (chaos io.write.fail)", Off);
    size_t N = std::min(Chunk, Image.size() - Off);
    ssize_t W = ::write(Fd, Image.data() + Off, N);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      return FailAt("write failed: " + errnoText(), Off);
    }
    Off += static_cast<size_t>(W);
  }
  if (chaos::failPoint("snapshot.truncate")) {
    // Simulated kill mid-save: tear the temp file at a seeded offset and
    // stop before the rename — exactly what a crash or power cut leaves.
    // The torn file stays behind on purpose; the target is untouched.
    uint64_t Cut =
        Image.empty() ? 0
                      : (chaos::failCount("snapshot.truncate") *
                         0x9e3779b97f4a7c15ULL) %
                            Image.size();
    (void)::ftruncate(Fd, static_cast<off_t>(Cut));
    ::close(Fd);
    Error = "simulated crash during save (chaos snapshot.truncate): " +
            Tmp + " torn at byte offset " + std::to_string(Cut) +
            "; target not replaced";
    return false;
  }
  if (chaos::failPoint("io.fsync.fail"))
    return FailAt("fsync failed (chaos io.fsync.fail)", Off);
  if (::fsync(Fd) != 0)
    return FailAt("fsync failed: " + errnoText(), Off);
  if (::close(Fd) != 0) {
    Error = "close failed for " + Tmp + ": " + errnoText();
    (void)::unlink(Tmp.c_str());
    return false;
  }
  rotateGenerations(Path, Opts.KeepGenerations);
  if (::rename(Tmp.c_str(), Path.c_str()) != 0) {
    Error = "rename " + Tmp + " -> " + Path + " failed: " + errnoText();
    (void)::unlink(Tmp.c_str());
    return false;
  }
  // The rename has landed: the target now holds the complete new image
  // and loads. A directory-fsync failure past this point only weakens
  // durability of the rename itself across power loss — count the save,
  // warn, and report success rather than telling callers a committed
  // checkpoint failed.
  saveBytesCtr().add(Image.size());
  savesCtr().add();
  std::string DirError;
  if (!fsyncDirectoryOf(Path, DirError)) {
    dirFsyncWarnCtr().add();
    std::fprintf(stderr,
                 "mst: warning: snapshot %s is committed but %s; the "
                 "rename may not survive a power loss\n",
                 Path.c_str(), DirError.c_str());
  }
  return true;
}

/// --- Loader -------------------------------------------------------------

bool readWholeFile(const std::string &Path, std::vector<uint8_t> &Out,
                   std::string &Error) {
  int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0) {
    Error = "cannot open " + Path + " for reading: " + errnoText();
    return false;
  }
  struct stat St {};
  if (::fstat(Fd, &St) != 0 || !S_ISREG(St.st_mode)) {
    Error = "cannot stat " + Path + " (not a regular file?): " +
            errnoText();
    ::close(Fd);
    return false;
  }
  Out.resize(static_cast<size_t>(St.st_size));
  size_t Off = 0;
  while (Off < Out.size()) {
    ssize_t R = ::read(Fd, Out.data() + Off, Out.size() - Off);
    if (R < 0) {
      if (errno == EINTR)
        continue;
      Error = "read failed for " + Path + " at byte offset " +
              std::to_string(Off) + ": " + errnoText();
      ::close(Fd);
      return false;
    }
    if (R == 0)
      break; // concurrent truncation; the length checks below catch it
    Off += static_cast<size_t>(R);
  }
  Out.resize(Off);
  ::close(Fd);
  return true;
}

/// Bounds-checked cursor over one section payload. Every read names the
/// section and the failing offset, so a truncated or corrupt payload that
/// somehow passed its CRC still fails with a diagnostic, never a crash.
class SectionReader {
public:
  SectionReader(const char *Section, const uint8_t *Data, size_t Len)
      : Section(Section), Data(Data), Len(Len) {}

  bool get(void *Out, size_t N, std::string &Error) {
    if (N > Len - Off) {
      Error = "section '" + std::string(Section) + "' truncated at offset " +
              std::to_string(Off) + ": need " + std::to_string(N) +
              " bytes, " + std::to_string(Len - Off) + " remain";
      return false;
    }
    std::memcpy(Out, Data + Off, N);
    Off += N;
    return true;
  }
  bool getU32(uint32_t &V, std::string &Error) {
    return get(&V, 4, Error);
  }
  bool getU64(uint64_t &V, std::string &Error) {
    return get(&V, 8, Error);
  }
  /// Skips \p N bytes, returning their start offset in \p At.
  bool skip(size_t N, size_t &At, std::string &Error) {
    At = Off;
    if (N > Len - Off) {
      Error = "section '" + std::string(Section) + "' truncated at offset " +
              std::to_string(Off) + ": need " + std::to_string(N) +
              " bytes, " + std::to_string(Len - Off) + " remain";
      return false;
    }
    Off += N;
    return true;
  }
  size_t offset() const { return Off; }
  size_t remaining() const { return Len - Off; }

private:
  const char *Section;
  const uint8_t *Data;
  size_t Len;
  size_t Off = 0;
};

uint64_t readU64At(const uint8_t *P) {
  uint64_t V;
  std::memcpy(&V, P, 8);
  return V;
}

class Loader {
public:
  Loader(VirtualMachine &VM, const std::vector<uint8_t> &File)
      : VM(VM), File(File) {}

  /// Phase 1: checksum verification and full structural validation. Reads
  /// only the file buffer (plus the VM's root-cell count); does not touch
  /// the heap, so a failure leaves the VM exactly as constructed.
  bool verifyAndParse(std::string &Error) {
    return verifyEnvelope(Error) && parseObjects(Error) &&
           parseRoots(Error) && parseSymbols(Error);
  }

  /// Phase 2: allocate shells, patch references, rebind roots and
  /// symbols. Only runs after verifyAndParse; the only failure left is
  /// allocation (heap ceiling), reported without retry.
  bool materialize(std::string &Error);

private:
  bool verifyEnvelope(std::string &Error);
  bool parseObjects(std::string &Error);
  bool parseRoots(std::string &Error);
  bool parseSymbols(std::string &Error);

  /// Validates one encoded reference against the object table size.
  bool checkRef(uint64_t R, const char *Section, size_t Offset,
                std::string &Error) const {
    if (R == 0 || (R & 1))
      return true;
    uint64_t Id = (R >> 1) - 1;
    if (Id < Header.ObjectCount)
      return true;
    Error = "section '" + std::string(Section) + "' corrupt at offset " +
            std::to_string(Offset) + ": object reference " +
            std::to_string(Id) + " out of range (have " +
            std::to_string(Header.ObjectCount) + " objects)";
    return false;
  }

  Oop decodeRef(uint64_t R) const {
    if (R == 0)
      return Oop();
    if (R & 1)
      return Oop::fromSmallInt(static_cast<intptr_t>(R) >> 1);
    return Loaded[(R >> 1) - 1];
  }

  struct Rec {
    RecordHeader H;
    uint32_t Live = 0;   // serialized slot refs (pointer formats)
    size_t SlotsOff = 0; // offset of the refs within the OBJS payload
    size_t BytesOff = 0; // offset of the raw bytes within the payload
  };

  struct Span {
    const uint8_t *Data = nullptr;
    size_t Len = 0;
  };

  VirtualMachine &VM;
  const std::vector<uint8_t> &File;
  FileHeader Header{};
  Span Sections[MaxSectionCount]; // OBJS, ROOT, SYMB [, JPOS]
  std::vector<Rec> Records;
  std::vector<uint64_t> RootRefs;
  std::vector<uint64_t> SymbolIds;
  std::vector<Oop> Loaded;

public:
  /// Journal high-water mark from the optional JPOS section.
  bool HasJournalMark = false;
  uint64_t JournalMark = 0;
};

bool Loader::verifyEnvelope(std::string &Error) {
  constexpr size_t MinLen = sizeof(FileHeader) + sizeof(FileTrailer) +
                            SectionCount * sizeof(SectionHeader);
  if (File.size() < MinLen) {
    Error = "snapshot too short: " + std::to_string(File.size()) +
            " bytes, a v2 image needs at least " + std::to_string(MinLen) +
            " (truncated or not an image)";
    return false;
  }

  // Trailer first: it proves the file's tail survived, which is where a
  // torn write lands.
  FileTrailer Trailer;
  size_t TrailerOff = File.size() - sizeof(FileTrailer);
  std::memcpy(&Trailer, File.data() + TrailerOff, sizeof(Trailer));
  if (Trailer.Magic != TrailerMagic) {
    Error = "bad trailer magic at byte offset " +
            std::to_string(TrailerOff) + ": expected 0x" +
            [](uint32_t V) {
              char B[16];
              std::snprintf(B, sizeof(B), "%08x", V);
              return std::string(B);
            }(TrailerMagic) +
            " — file truncated mid-save or not an MST2 image";
    return false;
  }
  if (Trailer.TotalBytes != File.size()) {
    Error = "trailer length mismatch: file is " +
            std::to_string(File.size()) + " bytes, trailer records " +
            std::to_string(Trailer.TotalBytes) + " (truncated save)";
    return false;
  }
  uint32_t FileCrc = crc32(File.data(), TrailerOff);
  if (FileCrc != Trailer.FileCrc) {
    crcFailures().add();
    char B[64];
    std::snprintf(B, sizeof(B), "expected 0x%08x, got 0x%08x",
                  Trailer.FileCrc, FileCrc);
    Error = std::string("whole-file CRC mismatch: ") + B +
            " — image is bit-damaged";
    return false;
  }

  std::memcpy(&Header, File.data(), sizeof(Header));
  if (Header.Magic != SnapshotMagic || Header.Version != SnapshotVersion) {
    Error = "not a compatible snapshot file (header magic/version " +
            std::to_string(Header.Magic) + "/" +
            std::to_string(Header.Version) + ")";
    return false;
  }
  uint32_t HeaderCrc =
      crc32(File.data(), sizeof(FileHeader) - sizeof(uint32_t));
  if (HeaderCrc != Header.Crc) {
    crcFailures().add();
    Error = "header CRC mismatch";
    return false;
  }
  if (Header.Sections != SectionCount &&
      Header.Sections != MaxSectionCount) {
    Error = "header corrupt: " + std::to_string(Header.Sections) +
            " sections, expected " + std::to_string(SectionCount) + " or " +
            std::to_string(MaxSectionCount);
    return false;
  }

  static const struct {
    uint32_t Tag;
    const char *Name;
  } Expected[MaxSectionCount] = {{SecObjectsTag, "objects"},
                                 {SecRootsTag, "roots"},
                                 {SecSymbolsTag, "symbols"},
                                 {SecJournalTag, "journal-mark"}};
  size_t Off = sizeof(FileHeader);
  for (unsigned I = 0; I < Header.Sections; ++I) {
    if (Off + sizeof(SectionHeader) > TrailerOff) {
      Error = "section table truncated at byte offset " +
              std::to_string(Off);
      return false;
    }
    SectionHeader SH;
    std::memcpy(&SH, File.data() + Off, sizeof(SH));
    Off += sizeof(SH);
    if (SH.Tag != Expected[I].Tag) {
      Error = "section " + std::to_string(I) + " at byte offset " +
              std::to_string(Off - sizeof(SH)) + ": bad tag, expected '" +
              Expected[I].Name + "'";
      return false;
    }
    if (SH.PayloadBytes > TrailerOff - Off) {
      Error = "section '" + std::string(Expected[I].Name) +
              "' length " + std::to_string(SH.PayloadBytes) +
              " overruns the file at byte offset " + std::to_string(Off);
      return false;
    }
    uint32_t Crc = crc32(File.data() + Off, SH.PayloadBytes);
    if (Crc != SH.Crc) {
      crcFailures().add();
      char B[64];
      std::snprintf(B, sizeof(B), "expected 0x%08x, got 0x%08x", SH.Crc,
                    Crc);
      Error = "section '" + std::string(Expected[I].Name) +
              "' CRC mismatch: " + B;
      return false;
    }
    Sections[I] = {File.data() + Off, SH.PayloadBytes};
    Off += SH.PayloadBytes;
  }
  if (Off != TrailerOff) {
    Error = "file has " + std::to_string(TrailerOff - Off) +
            " unaccounted bytes after the last section";
    return false;
  }
  if (Header.Sections == MaxSectionCount) {
    if (Sections[3].Len != 8) {
      Error = "section 'journal-mark' has " +
              std::to_string(Sections[3].Len) + " bytes, expected 8";
      return false;
    }
    std::memcpy(&JournalMark, Sections[3].Data, 8);
    HasJournalMark = true;
  }
  // Counts claimed by the (CRC-valid) header must be achievable within
  // the sections that carry them, or a crafted count like 2^60 would
  // drive the parsers' reserve()/resize() into std::length_error before
  // any per-record bounds check runs.
  if (Header.ObjectCount > Sections[0].Len / sizeof(RecordHeader)) {
    Error = "header corrupt: object count " +
            std::to_string(Header.ObjectCount) + " impossible for a " +
            std::to_string(Sections[0].Len) +
            "-byte objects section (each record needs at least " +
            std::to_string(sizeof(RecordHeader)) + " bytes)";
    return false;
  }
  if (Header.RootCount > Sections[1].Len / 8) {
    Error = "header corrupt: root count " +
            std::to_string(Header.RootCount) + " impossible for a " +
            std::to_string(Sections[1].Len) + "-byte roots section";
    return false;
  }
  return true;
}

bool Loader::parseObjects(std::string &Error) {
  SectionReader R("objects", Sections[0].Data, Sections[0].Len);
  Records.reserve(Header.ObjectCount);
  for (uint64_t I = 0; I < Header.ObjectCount; ++I) {
    Rec Rc;
    size_t RecOff = R.offset();
    if (!R.get(&Rc.H, sizeof(Rc.H), Error))
      return false;
    auto Corrupt = [&](const std::string &What) {
      Error = "section 'objects' corrupt at offset " +
              std::to_string(RecOff) + " (record " + std::to_string(I) +
              "): " + What;
      return false;
    };
    if (!checkRef(Rc.H.ClassRef, "objects", RecOff, Error))
      return false;
    switch (static_cast<ObjectFormat>(Rc.H.Format)) {
    case ObjectFormat::Bytes:
      if (!R.skip(Rc.H.ByteLength, Rc.BytesOff, Error))
        return false;
      break;
    case ObjectFormat::Pointers:
    case ObjectFormat::Context: {
      if (!R.getU32(Rc.Live, Error))
        return false;
      if (Rc.Live > Rc.H.SlotCount)
        return Corrupt("live slot count " + std::to_string(Rc.Live) +
                       " exceeds slot count " +
                       std::to_string(Rc.H.SlotCount));
      bool IsCtx =
          static_cast<ObjectFormat>(Rc.H.Format) == ObjectFormat::Context;
      if (!IsCtx && Rc.Live != Rc.H.SlotCount)
        return Corrupt("pointer object serialized " +
                       std::to_string(Rc.Live) + " of " +
                       std::to_string(Rc.H.SlotCount) + " slots");
      if (IsCtx && (Rc.H.SlotCount > MaxContextSlots ||
                    Rc.H.SlotCount <= ContextSpSlotIndex))
        return Corrupt("implausible context slot count " +
                       std::to_string(Rc.H.SlotCount));
      if (!R.skip(size_t(Rc.Live) * 8, Rc.SlotsOff, Error))
        return false;
      for (uint32_t S = 0; S < Rc.Live; ++S)
        if (!checkRef(readU64At(Sections[0].Data + Rc.SlotsOff + 8u * S),
                      "objects", Rc.SlotsOff + 8u * S, Error))
          return false;
      break;
    }
    default:
      return Corrupt("invalid object format " +
                     std::to_string(Rc.H.Format));
    }
    Records.push_back(Rc);
  }
  if (R.remaining() != 0) {
    Error = "section 'objects' has " + std::to_string(R.remaining()) +
            " trailing bytes after the last record";
    return false;
  }
  return true;
}

bool Loader::parseRoots(std::string &Error) {
  size_t CellCount = 0;
  VM.model().known().visitRoots([&CellCount](Oop *) { ++CellCount; });
  if (Header.RootCount != CellCount) {
    Error = "root table mismatch: image has " +
            std::to_string(Header.RootCount) + " well-known roots, this "
            "VM expects " + std::to_string(CellCount) +
            " (image from an incompatible build?)";
    return false;
  }
  SectionReader R("roots", Sections[1].Data, Sections[1].Len);
  RootRefs.resize(Header.RootCount);
  for (uint64_t I = 0; I < Header.RootCount; ++I) {
    size_t Off = R.offset();
    if (!R.getU64(RootRefs[I], Error))
      return false;
    if (!checkRef(RootRefs[I], "roots", Off, Error))
      return false;
  }
  if (R.remaining() != 0) {
    Error = "section 'roots' has " + std::to_string(R.remaining()) +
            " trailing bytes";
    return false;
  }
  return true;
}

bool Loader::parseSymbols(std::string &Error) {
  SectionReader R("symbols", Sections[2].Data, Sections[2].Len);
  uint64_t N = 0;
  if (!R.getU64(N, Error))
    return false;
  if (N > R.remaining() / 8) {
    Error = "section 'symbols' corrupt at offset 0: claims " +
            std::to_string(N) + " symbols, payload holds at most " +
            std::to_string(R.remaining() / 8);
    return false;
  }
  SymbolIds.resize(N);
  for (uint64_t I = 0; I < N; ++I) {
    size_t Off = R.offset();
    if (!R.getU64(SymbolIds[I], Error))
      return false;
    if (SymbolIds[I] >= Header.ObjectCount) {
      Error = "section 'symbols' corrupt at offset " +
              std::to_string(Off) + ": symbol id " +
              std::to_string(SymbolIds[I]) + " out of range";
      return false;
    }
  }
  if (R.remaining() != 0) {
    Error = "section 'symbols' has " + std::to_string(R.remaining()) +
            " trailing bytes";
    return false;
  }
  return true;
}

bool Loader::materialize(std::string &Error) {
  ObjectMemory &OM = VM.memory();
  const uint8_t *Payload = Sections[0].Data;
  uint32_t MaxHash = 0;
  Loaded.reserve(Records.size());

  // Pass 1: allocate shells (class fixed up in pass 2; a temporary null
  // class is fine while the world is single-threaded).
  for (size_t I = 0; I < Records.size(); ++I) {
    const Rec &Rc = Records[I];
    MaxHash = std::max(MaxHash, Rc.H.Hash);
    if (chaos::failPoint("snapshot.materialize.fail")) {
      // Deterministic stand-in for allocation failure mid-materialize
      // (allocateOld overshoots the heap ceiling, so real OOM here needs
      // the OS to refuse memory): proves the ladder stops once the VM is
      // no longer fresh.
      Error = "out of memory materializing snapshot object " +
              std::to_string(I) + " of " + std::to_string(Records.size()) +
              " (chaos snapshot.materialize.fail)";
      return false;
    }
    Oop Shell;
    switch (static_cast<ObjectFormat>(Rc.H.Format)) {
    case ObjectFormat::Bytes:
      Shell = OM.allocateOldBytes(Oop(), Rc.H.ByteLength);
      if (!Shell.isNull() && Rc.H.ByteLength)
        std::memcpy(Shell.object()->bytes(), Payload + Rc.BytesOff,
                    Rc.H.ByteLength);
      break;
    case ObjectFormat::Context:
      Shell = OM.allocateOldContextObject(Oop(), Rc.H.SlotCount);
      break;
    default:
      Shell = OM.allocateOldPointers(Oop(), Rc.H.SlotCount);
      break;
    }
    if (Shell.isNull()) {
      Error = "out of memory materializing snapshot object " +
              std::to_string(I) + " of " + std::to_string(Records.size());
      return false;
    }
    Shell.object()->Hash = Rc.H.Hash;
    if (Rc.H.Escaped)
      Shell.object()->setEscaped();
    Loaded.push_back(Shell);
  }
  OM.ensureHashCounterAbove(MaxHash);

  // Pass 2: patch classes and slots (all references pre-validated).
  std::vector<Oop> NeedsNilFill;
  for (size_t I = 0; I < Records.size(); ++I) {
    const Rec &Rc = Records[I];
    ObjectHeader *H = Loaded[I].object();
    H->setClassOop(decodeRef(Rc.H.ClassRef));
    for (uint32_t S = 0; S < Rc.Live; ++S)
      H->slots()[S] = decodeRef(readU64At(Payload + Rc.SlotsOff + 8u * S));
    // Unserialized context slots (beyond sp) become nil once the known
    // nil exists (after the roots rebind below).
    if (H->Format != ObjectFormat::Bytes && Rc.Live < H->SlotCount)
      NeedsNilFill.push_back(Loaded[I]);
  }

  // Rebind the well-known table, then nil-fill the dead context slots.
  {
    std::vector<Oop *> Cells;
    VM.model().known().visitRoots(
        [&Cells](Oop *Cell) { Cells.push_back(Cell); });
    assert(Cells.size() == RootRefs.size() && "validated in parseRoots");
    for (size_t I = 0; I < Cells.size(); ++I)
      *Cells[I] = decodeRef(RootRefs[I]);
  }
  OM.setNil(VM.model().known().NilObj);
  Oop Nil = VM.model().known().NilObj;
  for (Oop O : NeedsNilFill) {
    ObjectHeader *H = O.object();
    uint32_t Live = H->SlotCount;
    Oop Sp = H->slots()[ContextSpSlotIndex];
    if (Sp.isSmallInt() && Sp.smallInt() >= 0)
      Live = std::min<uint32_t>(
          H->SlotCount, static_cast<uint32_t>(Sp.smallInt()) + 1);
    for (uint32_t S = Live; S < H->SlotCount; ++S)
      H->slots()[S] = Nil;
  }

  // Rebind the symbol table from the serialized ids.
  std::vector<std::pair<std::string, Oop>> Syms;
  Oop SymbolClass = VM.model().known().ClassSymbol;
  for (uint64_t Id : SymbolIds) {
    Oop Sym = Loaded[Id];
    if (!Sym.isPointer() || Sym.object()->Format != ObjectFormat::Bytes ||
        Sym.object()->classOop() != SymbolClass)
      continue; // the trailing symbol-class cell, not a symbol
    Syms.emplace_back(ObjectModel::stringValue(Sym), Sym);
  }
  VM.model().symbols().adoptLoadedSymbols(Syms);
  VM.model().symbols().setSymbolClass(SymbolClass);
  return true;
}

} // namespace

bool mst::fsyncDirectoryOf(const std::string &Path, std::string &Error) {
  if (chaos::failPoint("io.dirfsync.fail")) {
    Error = "fsync failed for directory of " + Path +
            " (chaos io.dirfsync.fail)";
    return false;
  }
  size_t Slash = Path.rfind('/');
  std::string Dir = Slash == std::string::npos ? "." : Path.substr(0, Slash);
  if (Dir.empty())
    Dir = "/";
  int Fd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (Fd < 0) {
    Error = "cannot open directory " + Dir + " for fsync: " + errnoText();
    return false;
  }
  bool Ok = ::fsync(Fd) == 0;
  if (!Ok)
    Error = "fsync failed for directory " + Dir + ": " + errnoText();
  ::close(Fd);
  return Ok;
}

bool mst::saveSnapshot(VirtualMachine &VM, const std::string &Path,
                       std::string &Error, const SnapshotOptions &Options) {
  // Serialize with the world stopped so the object graph is frozen while
  // we walk it; everything below is memory-only, so the pause excludes
  // all file I/O.
  Buf Objects, Roots, Symbols;
  uint64_t ObjectCount, RootCount;
  while (!VM.memory().safepoint().requestStopTheWorld()) {
  }
  uint64_t PauseStart = Telemetry::nowNs();
  {
    // §3.3: fill the activeProcess slot for the snapshot, empty it
    // afterwards (the VM itself never reads it). Inside the pause: the
    // driver writes the Process it reports whenever it starts a run.
    VM.scheduler().fillActiveProcessSlot(VM.snapshotActiveProcess());
    Writer W(VM);
    W.run(Objects, Roots, Symbols);
    ObjectCount = W.objectCount();
    RootCount = W.rootCount();
    VM.scheduler().emptyActiveProcessSlot();
  }
  savePauseHist().record(Telemetry::nowNs() - PauseStart);
  VM.memory().safepoint().resume();

  // Everything below touches only host memory and the filesystem, so the
  // world may treat this thread as parked: a slow disk — or waiting on
  // the per-path save lock while another saver writes — must never stall
  // someone else's stop-the-world pause.
  BlockedRegion Parked(VM.memory().safepoint());

  // Assemble the checksummed file image.
  FileHeader Header{};
  Header.Magic = SnapshotMagic;
  Header.Version = SnapshotVersion;
  Header.ObjectCount = ObjectCount;
  Header.RootCount = RootCount;
  Header.Sections = Options.HasJournalMark ? MaxSectionCount : SectionCount;
  Header.Crc = crc32(&Header, sizeof(Header) - sizeof(uint32_t));

  Buf JournalPos;
  if (Options.HasJournalMark)
    JournalPos.put(&Options.JournalMark, sizeof(Options.JournalMark));

  Buf Image;
  Image.put(&Header, sizeof(Header));
  const struct {
    uint32_t Tag;
    const Buf *Payload;
  } Sections[MaxSectionCount] = {{SecObjectsTag, &Objects},
                                 {SecRootsTag, &Roots},
                                 {SecSymbolsTag, &Symbols},
                                 {SecJournalTag, &JournalPos}};
  for (unsigned I = 0; I < Header.Sections; ++I) {
    const auto &S = Sections[I];
    SectionHeader SH{};
    SH.Tag = S.Tag;
    SH.PayloadBytes = S.Payload->V.size();
    SH.Crc = crc32(S.Payload->V.data(), S.Payload->V.size());
    Image.put(&SH, sizeof(SH));
    Image.put(S.Payload->V.data(), S.Payload->V.size());
  }
  FileTrailer Trailer{};
  Trailer.Magic = TrailerMagic;
  Trailer.FileCrc = crc32(Image.V.data(), Image.V.size());
  Trailer.TotalBytes = Image.V.size() + sizeof(Trailer);
  Image.put(&Trailer, sizeof(Trailer));

  std::lock_guard<std::mutex> SaveLock(savePathLock(Path));
  return writeAtomically(Path, Image.V, Options, Error);
}

EmergencySnapshot::EmergencySnapshot(VirtualMachine &VM,
                                     const std::string &Path)
    : Section(panicRegisterSection(
          "emergency snapshot", [&VM, Target = Path + ".panic"] {
            // A stop-the-world request could never complete while a pause
            // is already in progress, and would corrupt the rendezvous
            // count from an unregistered thread.
            Safepoint &Sp = VM.memory().safepoint();
            if (Sp.pollNeeded())
              return std::string(
                  "skipped: a stop-the-world pause is in progress\n");
            if (!Sp.currentThreadRegistered())
              return std::string(
                  "skipped: panicking thread is not a registered mutator\n");
            std::string Error;
            if (!saveSnapshot(VM, Target, Error))
              return "failed: " + Error + "\n";
            emergencyCtr().add();
            return "written to " + Target + "\n";
          })) {}

// Unregistered before the VM dies: an emergency save would walk a dying
// heap.
EmergencySnapshot::~EmergencySnapshot() { panicUnregisterSection(Section); }

bool mst::loadSnapshotExact(VirtualMachine &VM, const std::string &Path,
                            std::string &Error,
                            SnapshotLoadFailure *Failure,
                            SnapshotInfo *Info) {
  auto FailedAs = [&](SnapshotLoadFailure F) {
    if (Failure)
      *Failure = F;
    return false;
  };
  if (Failure)
    *Failure = SnapshotLoadFailure::None;
  if (Info)
    *Info = SnapshotInfo();
  uint64_t Start = Telemetry::nowNs();
  std::vector<uint8_t> File;
  if (!readWholeFile(Path, File, Error))
    return FailedAs(SnapshotLoadFailure::CleanVm);
  Loader L(VM, File);
  if (!L.verifyAndParse(Error))
    return FailedAs(SnapshotLoadFailure::CleanVm); // VM not touched
  if (!L.materialize(Error))
    return FailedAs(SnapshotLoadFailure::VmMutated);
  if (Info) {
    Info->HasJournalMark = L.HasJournalMark;
    Info->JournalMark = L.JournalMark;
  }
  // Loaded code may differ from whatever warmed the caches.
  VM.cache().flushAll();
  VM.contextPool().flushAll();
  // §3.3 again: the slot is only meaningful inside the file.
  VM.scheduler().emptyActiveProcessSlot();
  loadMillisHist().record((Telemetry::nowNs() - Start) / 1000000u);
  return true;
}

bool mst::loadSnapshot(VirtualMachine &VM, const std::string &Path,
                       std::string &Error, SnapshotInfo *Info) {
  // The recovery ladder: the primary image, then each rotated generation
  // in order. A candidate that fails verification never mutates the VM,
  // so the next rung starts from a clean slate; a candidate that fails
  // *materializing* has already allocated into the VM, so the ladder
  // stops there — retrying the rest needs a freshly constructed VM.
  constexpr unsigned MaxGenerations = 16;
  std::string Diagnostics;
  for (unsigned G = 0; G <= MaxGenerations; ++G) {
    std::string Candidate =
        G == 0 ? Path : Path + "." + std::to_string(G);
    if (G > 0) {
      struct stat St {};
      if (::stat(Candidate.c_str(), &St) != 0)
        break; // ladder exhausted
      loadFallbacks().add();
    }
    std::string E;
    SnapshotLoadFailure F = SnapshotLoadFailure::None;
    if (loadSnapshotExact(VM, Candidate, E, &F, Info))
      return true;
    Diagnostics += "  " + Candidate + ": " + E + "\n";
    if (F == SnapshotLoadFailure::VmMutated) {
      Error = "snapshot load aborted: materializing " + Candidate +
              " failed after mutating the VM; remaining generations need "
              "a freshly constructed VM:\n" + Diagnostics;
      if (Error.back() == '\n')
        Error.pop_back();
      return false;
    }
  }
  Error = "no loadable snapshot generation for " + Path + ":\n" +
          Diagnostics;
  if (!Error.empty() && Error.back() == '\n')
    Error.pop_back();
  return false;
}

std::string mst::shardImagePath(const std::string &Dir, unsigned Shard) {
  char Buf[16];
  std::snprintf(Buf, sizeof Buf, "shard%03u", Shard);
  std::string Out = Dir;
  if (!Out.empty() && Out.back() != '/')
    Out += '/';
  return Out + Buf + ".image";
}
