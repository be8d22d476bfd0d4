//===-- serve/Session.h - One client connection -----------------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One accepted connection = one session, pinned to a shard for its whole
/// life (SessionId % shards): every doIt a session evaluates sees the
/// same image, so `Smalltalk at: #X put:` in request 1 is visible to
/// request 2. Sessions are owned and touched exclusively by the event-
/// loop thread; shards hand responses over through the Server's queue,
/// never through this struct.
///
/// Flow control: a session may pipeline requests, but past MaxPipeline
/// outstanding the server parks its POLLIN (Paused) until responses
/// drain to half the cap — one slow session backs up its own socket,
/// not the shard pool.
///
//===----------------------------------------------------------------------===//

#ifndef MST_SERVE_SESSION_H
#define MST_SERVE_SESSION_H

#include <cstdint>
#include <string>

namespace mst {
namespace serve {

struct Session {
  int Fd = -1;
  uint64_t Id = 0;
  unsigned Shard = 0;     ///< pinned shard index
  /// Durable client identity for the dedup table. Defaults to the
  /// connection's Id; `!session N` overwrites it (and re-pins Shard to
  /// N % shards) so a reconnecting client lands on the same shard with
  /// the same dedup history.
  uint64_t ClientId = 0;
  bool Bound = false;     ///< `!session` seen; `?seq=` is honored
  std::string In;         ///< bytes read, not yet framed into lines
  std::string Out;        ///< response bytes not yet written
  uint64_t NextSeq = 0;   ///< next request sequence number
  uint64_t Pending = 0;   ///< requests submitted, responses not yet queued
  bool Paused = false;    ///< POLLIN parked (pipeline cap reached)
  bool CloseAfterFlush = false; ///< !quit / fatal protocol error
};

} // namespace serve
} // namespace mst

#endif // MST_SERVE_SESSION_H
