//===-- serve/RequestBatcher.h - Per-shard request batching -----*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-shard request queue and its batching discipline. The socket
/// front-end pushes parsed requests here from the event loop; the shard
/// thread drains *everything queued* (up to a cap) as one batch. Because
/// the shard takes the next batch only after finishing the last one,
/// batching is self-tuning: while the shard chews on batch N, new
/// requests pile up here and become batch N+1 — light load degrades to
/// batch-of-one dispatch, heavy load amortizes the per-batch journal
/// fsync and wake-up over hundreds of requests. FIFO order is preserved
/// end to end, which is what makes per-session response ordering trivial.
///
//===----------------------------------------------------------------------===//

#ifndef MST_SERVE_REQUESTBATCHER_H
#define MST_SERVE_REQUESTBATCHER_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "serve/Protocol.h"

namespace mst {
namespace serve {

/// One request in flight between the front-end and a shard. The shard
/// thread owns the containing batch while it runs, fills in the result
/// fields, and sets Done before handing the batch back to the front-end.
struct QueuedRequest {
  uint64_t SessionId = 0;
  uint64_t Seq = 0;      ///< per-session sequence (FIFO check support)
  /// Durable client identity for journaling/dedup. Defaults to the
  /// connection's SessionId; a `!session ID`-bound connection carries its
  /// declared id, which survives reconnects.
  uint64_t ClientId = 0;
  /// The client stamped an explicit `?seq=N` (bound sessions only):
  /// ClientSeq keys the dedup table so a resend is answered, not re-run.
  bool HasSeq = false;
  uint64_t ClientSeq = 0;
  std::string Tag;       ///< protocol echo tag
  Request::Kind Kind = Request::Kind::Eval;
  std::string Source;
  uint64_t EnqueueNs = 0;
  /// Absolute completion deadline (Telemetry::nowNs time); 0 = none.
  /// Stamped by the front-end (per-request `?deadline=MS` or the server
  /// default); the shard fast-fails requests already past it and arms
  /// the in-VM abort for the rest.
  uint64_t DeadlineNs = 0;
  /// Which shard the front-end pinned this request to (admission
  /// bookkeeping on the response path).
  unsigned Shard = 0;

  // Journal bookkeeping (shard thread; see serve/Journal.h).
  /// Intent record id assigned by the shard's WAL append; 0 = not
  /// journaled (journal off, admin request, or dedup hit).
  uint64_t JournalId = 0;
  /// Outcome as recorded in the journal (Journal::Outcome numeric value);
  /// 0 = none. Read after the batch executes to decide dedup inserts.
  uint8_t JournalOutcome = 0;

  // Result (written by the shard thread, read by the front-end).
  bool Done = false;
  bool Ok = false;
  /// The request was unwound (or shed) by its deadline — breaker food.
  bool TimedOut = false;
  std::string Value;
};

using Batch = std::vector<QueuedRequest>;

/// MPSC queue: any thread pushes, one shard thread drains batches.
class RequestBatcher {
public:
  /// Enqueues \p R. \returns false (dropping the request) once closed.
  bool push(QueuedRequest R);

  /// Blocks until at least one request is queued or the batcher closes,
  /// then moves up to \p Max requests into \p Out (cleared first), oldest
  /// first. \returns false only when closed *and* drained — the shard
  /// thread's exit condition; every request pushed before close() is
  /// still delivered.
  bool takeBatch(Batch &Out, size_t Max);

  /// Closes the queue: push() starts refusing, takeBatch() drains what
  /// remains and then returns false. Idempotent.
  void close();

  /// \returns the current queue depth (racy; telemetry/health use only).
  size_t depth();

  /// \returns the EnqueueNs of the oldest queued request, or 0 when the
  /// queue is empty (racy; telemetry/health use only).
  uint64_t oldestEnqueueNs();

private:
  std::mutex Mutex;
  std::condition_variable Cv;
  std::deque<QueuedRequest> Queue;
  bool Closed = false;
};

} // namespace serve
} // namespace mst

#endif // MST_SERVE_REQUESTBATCHER_H
