//===-- serve/Client.h - Blocking line-protocol client ----------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal blocking client for the serving protocol, used by the serve
/// tests and their storms. One Client = one session; sendLine/recvLine
/// speak raw protocol lines, eval() wraps a round trip. Not used by the
/// server itself — the server side is all non-blocking.
///
//===----------------------------------------------------------------------===//

#ifndef MST_SERVE_CLIENT_H
#define MST_SERVE_CLIENT_H

#include <cstdint>
#include <string>

namespace mst {
namespace serve {

class Client {
public:
  Client() = default;
  ~Client() { disconnect(); }

  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;
  Client(Client &&O) noexcept
      : Fd(O.Fd), In(std::move(O.In)), Port(O.Port), Bound(O.Bound),
        ClientId(O.ClientId), NextClientSeq(O.NextClientSeq) {
    O.Fd = -1;
  }

  /// Connects to 127.0.0.1:\p Port. \returns false on failure.
  bool connect(uint16_t Port);

  void disconnect();

  bool connected() const { return Fd >= 0; }

  /// Sends one raw protocol line (newline appended). Blocks until
  /// written. \returns false on a broken connection.
  bool sendLine(const std::string &Line);

  /// Blocks until one full response line arrives (or the peer closes /
  /// \p TimeoutSec expires). \returns false on close or timeout.
  bool recvLine(std::string &Line, double TimeoutSec = 30.0);

  /// One eval round trip: sends \p Source, waits for the response.
  /// \returns false on transport failure; \p Ok and \p Value carry the
  /// protocol-level result.
  bool eval(const std::string &Source, bool &Ok, std::string &Value,
            double TimeoutSec = 30.0);

  /// Binds this connection to durable client identity \p Id
  /// (`!session Id`): the server re-pins the session to shard Id % N and
  /// every subsequent eval carries a `?seq=` dedup key, making
  /// evalRetry() exactly-once across crashes and reconnects. \returns
  /// false on transport or protocol failure.
  bool bindSession(uint64_t Id, double TimeoutSec = 30.0);

  bool bound() const { return Bound; }

  /// eval() with jittered exponential backoff on `ERR overloaded`
  /// responses (admission control / circuit breaker shedding). Retries
  /// up to \p MaxAttempts times, sleeping a jittered
  /// [Base/2, Base) * 2^attempt milliseconds between attempts (capped at
  /// 2s). \returns false only on transport failure; a request shed on
  /// every attempt returns true with the final ERR in \p Ok / \p Value.
  ///
  /// On a bindSession()-bound client a dropped connection mid-request is
  /// NOT fatal and NOT blindly re-executed: the client reconnects,
  /// rebinds, and resends the same `?seq=` — if the lost request was
  /// already executed (ack lost in flight, or the shard crashed after
  /// journaling it), the shard's dedup table answers with the original
  /// response instead of running it twice.
  bool evalRetry(const std::string &Source, bool &Ok, std::string &Value,
                 double TimeoutSec = 30.0, unsigned MaxAttempts = 6,
                 uint64_t BaseBackoffMs = 5);

private:
  bool evalSeq(const std::string &Source, bool HasSeq, uint64_t Seq,
               bool &Ok, std::string &Value, double TimeoutSec);

  int Fd = -1;
  std::string In; ///< bytes received past the last returned line
  uint16_t Port = 0;        ///< last connect()ed port (for reconnects)
  bool Bound = false;       ///< bindSession() succeeded
  uint64_t ClientId = 0;    ///< durable identity sent in `!session`
  uint64_t NextClientSeq = 1; ///< next `?seq=` value
};

} // namespace serve
} // namespace mst

#endif // MST_SERVE_CLIENT_H
