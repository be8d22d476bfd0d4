//===-- serve/Journal.h - Per-shard write-ahead request journal -*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving layer's durability gap, closed: PR 8's crash ladder reboots
/// a dead shard from its last committed checkpoint, which silently drops
/// every request acknowledged after that checkpoint. The journal is a
/// per-shard append-only write-ahead log that makes acknowledged requests
/// reproducible across any crash:
///
///  - **Intent records** are appended by the shard thread for every Eval
///    in a batch and fsynced once per batch *before* any of it executes —
///    piggybacking the sync on the batch boundary keeps the steady-state
///    cost to one fsync per batch.
///  - **Outcome records** are appended by the shard thread as each request
///    resolves (Executed / TimedOut / SkippedExpired / SkippedCrash) and
///    ride the *next* batch's fsync. A process crash can tear them off;
///    replay then re-executes the surviving intent deterministically.
///  - **Replay** (Shard::bootVm): after the crash ladder restores the
///    newest loadable checkpoint, the shard re-applies every journaled
///    intent at or past that checkpoint's covered journal position —
///    Executed intents re-execute (the checkpoint predates their
///    effects), TimedOut outcomes short-circuit to their recorded ERR
///    (never re-run a runaway), Skipped* outcomes are dropped, and
///    intents with no outcome re-execute under a bounded deadline. Only
///    then does the shard report Ready.
///  - **Truncation** is tied to checkpoint commit: a checkpoint records
///    the journal high-water mark it covers (the JPOS snapshot section),
///    and only after its rename lands is the journal compacted below the
///    oldest *retained* generation's mark — so every rotated fallback
///    image still has the journal suffix it needs.
///
/// Record framing is CRC-32 per record; open() scans to the last whole
/// record and truncates a torn tail (the `journal.tear` chaos point
/// manufactures such tails). Positions are *logical*: the file header
/// carries a base offset, so compaction preserves every surviving
/// record's position and checkpoint marks stay valid across truncations.
///
/// The DedupTable is the client-visible half of exactly-once: bound
/// sessions (`!session ID`) stamp an explicit `?seq=N` on evaluations;
/// completed (ClientId, Seq) responses are cached in a bounded table so a
/// retry after a dropped connection is answered from the cache instead of
/// re-executed (`serve.dedup.hits`).
///
//===----------------------------------------------------------------------===//

#ifndef MST_SERVE_JOURNAL_H
#define MST_SERVE_JOURNAL_H

#include <cstdint>
#include <deque>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace mst {
namespace serve {

class Journal {
public:
  /// How a journaled request resolved. Replay dispatches on this.
  enum class Outcome : uint8_t {
    None = 0,           ///< no outcome record (crash before resolution)
    Executed = 1,       ///< ran to completion; replay re-executes
    SkippedExpired = 2, ///< deadline expired while queued; never ran
    SkippedCrash = 3,   ///< crashed out of its batch; never ran
    TimedOut = 4,       ///< aborted/escalated mid-run; replay answers
                        ///< the recorded ERR without re-running
  };

  /// One intent joined with its outcome (if any), as scan() returns it.
  struct Entry {
    uint64_t RecordId = 0; ///< journal-unique id tying intent to outcome
    uint64_t ClientId = 0;
    uint64_t Seq = 0;
    bool HasSeq = false; ///< explicit client seq: dedup-cache the result
    std::string Source;
    uint64_t Pos = 0; ///< logical position of the intent record
    Outcome Out = Outcome::None;
    bool Ok = false;
    std::string Value; ///< recorded response (Executed / TimedOut)
  };

  Journal() = default;
  ~Journal() { close(); }

  Journal(const Journal &) = delete;
  Journal &operator=(const Journal &) = delete;

  /// Opens (creating if absent) the journal at \p Path, scanning every
  /// record: a torn or corrupt tail is truncated back to the last whole
  /// record (counted in tornRepairs()). Records are read one at a time,
  /// so memory is bounded by the largest record, not the file.
  /// \returns false with \p Error set when the file cannot be opened or
  /// its header is unusable.
  bool open(const std::string &Path, std::string &Error);

  void close();

  /// Appends one intent record (not yet durable — call sync() at the
  /// batch boundary). \p RecordId receives the journal-unique id the
  /// outcome record must echo. The `journal.append.fail` chaos point
  /// fails this deterministically. A write that fails part-way is cut
  /// back off the file; if that cut fails too, every later append is
  /// refused. \returns false with \p Error set.
  bool appendIntent(uint64_t ClientId, uint64_t Seq, bool HasSeq,
                    const std::string &Source, uint64_t &RecordId,
                    std::string &Error);

  /// Appends the outcome record for \p RecordId. Durable at the next
  /// sync(); a torn outcome degrades to replay-by-re-execution.
  bool appendOutcome(uint64_t RecordId, uint64_t ClientId, uint64_t Seq,
                     bool HasSeq, Outcome Out, bool Ok,
                     const std::string &Value, std::string &Error);

  /// fsyncs everything appended so far — the once-per-batch durability
  /// point. The `journal.fsync.fail` chaos point fails it; callers treat
  /// that as a warning (the records are written; only power loss can
  /// lose them, and replay re-derives what it can).
  bool sync(std::string &Error);

  /// Re-reads the file and returns every intent with logical position
  /// >= \p FromPos, joined with its outcome record (outcomes always
  /// follow their intent, so the scan window sees them). Stops cleanly
  /// at a torn tail. Records are read one at a time: beyond \p Out,
  /// memory is bounded by the largest record, not the file.
  bool scan(uint64_t FromPos, std::vector<Entry> &Out,
            std::string &Error) const;

  /// Compacts away every record below logical position \p Mark via the
  /// snapshot write protocol (unique tmp + fsync + rename; a crash
  /// leaves either the old or the new file). Positions are preserved:
  /// the new file's base is \p Mark. The kept tail is copied through one
  /// fixed-size buffer, so memory does not grow with the file. Call only
  /// after the checkpoint covering \p Mark has committed (its rename
  /// landed), and only from the shard thread, the journal's one writer.
  /// The `journal.truncate.fail` chaos point fails it; the journal then
  /// just stays longer — replay remains correct.
  bool truncateBelow(uint64_t Mark, std::string &Error);

  /// Logical end position: Base + bytes appended since. The checkpoint
  /// mark is this value, captured when every appended record's effect is
  /// in the image being saved.
  uint64_t endPos() const;

  /// File size: the header plus every whole record (health reporting).
  uint64_t bytes() const;

  /// Torn-tail repairs performed by open().
  uint64_t tornRepairs() const { return Torn; }

  /// Test hook for the `journal.tear` drill: truncates up to \p MaxCut
  /// bytes off the *unsynced* tail (seeded by \p Salt), modeling what a
  /// power cut leaves — synced records can never tear. \returns the
  /// bytes removed.
  uint64_t tearTail(uint64_t MaxCut, uint64_t Salt);

private:
  bool appendRecord(uint8_t Kind, const std::vector<uint8_t> &Payload,
                    std::string &Error);

  mutable std::mutex Mutex;
  std::string Path;
  int Fd = -1;
  uint64_t Base = 0;       ///< logical position of physical offset 0 past header
  uint64_t FileBytes = 0;  ///< bytes of the header plus whole records
  uint64_t SyncedBytes = 0; ///< FileBytes at the last sync()
  uint64_t NextRecordId = 1;
  uint64_t Torn = 0;
  bool Broken = false; ///< a failed write was not cut back: refuse appends
};

/// Bounded per-client response cache keyed (ClientId, Seq): the serving
/// layer's exactly-once memory. Oldest entries per client and oldest
/// clients overall are evicted FIFO, so a runaway client cannot grow it
/// without bound. Also tracks in-flight (ClientId, Seq) pairs so a retry
/// racing its original is refused instead of double-journaled.
class DedupTable {
public:
  struct Response {
    bool Ok = false;
    bool TimedOut = false;
    std::string Value;
  };

  explicit DedupTable(size_t MaxClients = 1024, size_t MaxPerClient = 128)
      : MaxClients(MaxClients), MaxPerClient(MaxPerClient) {}

  /// \returns true and fills \p R when (Client, Seq) has a cached
  /// response.
  bool lookup(uint64_t Client, uint64_t Seq, Response &R);

  /// Caches the response for (Client, Seq), evicting per the bounds.
  void insert(uint64_t Client, uint64_t Seq, Response R);

  /// \returns false when the pair is already in flight (the caller must
  /// refuse the duplicate).
  bool markInFlight(uint64_t Client, uint64_t Seq);
  void clearInFlight(uint64_t Client, uint64_t Seq);

  /// Cached responses across all clients (health reporting).
  size_t size();

private:
  struct ClientEntry {
    std::unordered_map<uint64_t, Response> BySeq;
    std::deque<uint64_t> Order; ///< insertion order for per-client FIFO
  };

  std::mutex Mutex;
  size_t MaxClients;
  size_t MaxPerClient;
  size_t Entries = 0;
  std::unordered_map<uint64_t, ClientEntry> Clients;
  std::list<uint64_t> ClientOrder; ///< client insertion order (FIFO)
  std::unordered_set<uint64_t> InFlight; ///< flightKey(Client, Seq) — see .cpp
};

} // namespace serve
} // namespace mst

#endif // MST_SERVE_JOURNAL_H
