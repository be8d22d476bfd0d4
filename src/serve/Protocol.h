//===-- serve/Protocol.h - Line-delimited request protocol ------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving layer's wire protocol: newline-delimited requests and
/// responses over a byte stream, chosen so `nc localhost PORT` is a
/// fully-functional client. One request per line:
///
///   3 + 4 * 2                  evaluate an expression
///   @t7 3 + 4 * 2              same, tagged: the response echoes @t7
///   @t7?deadline=50 3 + 4 * 2  same, with a 50ms deadline: past it the
///                              request answers ERR RequestTimeout (the
///                              response echoes the bare @t7)
///   @?deadline=50 3 + 4 * 2    anonymous deadline (no tag echoed)
///   @t7?seq=12 3 + 4 * 2       same, with an explicit client sequence
///                              number (requires a `!session`-bound
///                              connection): a resend of an already
///                              completed (id, seq) is answered from the
///                              dedup table instead of re-executed.
///                              Options combine: `@t7?deadline=50&seq=12`
///   !session 41                bind this connection to durable client
///                              id 41: re-pins the session to shard
///                              41 % N, and `?seq=` evaluations become
///                              exactly-once across reconnects
///   !health                    admin: one-line aggregate JSON report
///   !checkpoint                admin: checkpoint every shard (one
///                              response line per shard)
///   !kill 2                    admin: crash shard 2 (it restarts from
///                              its last committed checkpoint)
///   !drain                     admin: begin graceful server drain
///   !quit                      close this session
///
/// Responses are `OK [@tag ]value` or `ERR [@tag ]message`. Values and
/// sources travel through escapeLine/unescapeLine (`\n` `\r` `\\`), so a
/// multi-line doIt or a result containing newlines still fits one line.
/// Responses to one session's evaluations always arrive in request order:
/// a session is pinned to a shard and batches preserve FIFO. `!health`,
/// `!drain`, and `!quit` answer out of band (immediately, on the event
/// loop — health must work even when a shard is wedged), so their
/// responses may overtake evaluations still in flight; tag requests if
/// you pipeline across the two kinds. `!quit` still closes only after
/// every pipelined response has been delivered.
///
//===----------------------------------------------------------------------===//

#ifndef MST_SERVE_PROTOCOL_H
#define MST_SERVE_PROTOCOL_H

#include <cstdint>
#include <string>

namespace mst {
namespace serve {

/// The largest `?deadline=` a request may carry: its nanoseconds still
/// fit in 64 bits.
constexpr uint64_t MaxDeadlineMs = UINT64_MAX / 1000000;

/// A parsed request line.
struct Request {
  enum class Kind : uint8_t {
    Eval,       ///< evaluate Source on the session's shard
    Session,    ///< !session ID — bind a durable client identity
    Health,     ///< !health — aggregate JSON report
    Checkpoint, ///< !checkpoint — checkpoint every shard
    Kill,       ///< !kill N — crash shard KillShard (restart from snapshot)
    Drain,      ///< !drain — begin graceful server drain
    Quit,       ///< !quit — close the session
    Bad,        ///< unparseable; Error holds the diagnostic
  };
  Kind K = Kind::Eval;
  std::string Tag;    ///< "@name" echo token, or empty
  std::string Source; ///< unescaped Smalltalk source (Eval)
  unsigned KillShard = 0;
  /// Per-request deadline from `?deadline=MS` (milliseconds from
  /// receipt, at most MaxDeadlineMs); 0 = use the server default.
  uint64_t DeadlineMs = 0;
  /// Explicit client sequence from `?seq=N` (dedup key on a bound
  /// session).
  bool HasSeq = false;
  uint64_t Seq = 0;
  /// Durable client id from `!session ID`.
  uint64_t SessionBind = 0;
  std::string Error;  ///< diagnostic when K == Bad
};

/// Escapes `\\`, `\n`, `\r` so \p S fits on one protocol line.
std::string escapeLine(const std::string &S);

/// Inverse of escapeLine. Unknown escapes pass through verbatim.
std::string unescapeLine(const std::string &S);

/// Parses one request line (without its terminating newline).
Request parseRequestLine(const std::string &Line);

/// Parses \p S as a decimal whole number no greater than \p Max into
/// \p Out. \returns false when \p S is empty, holds a non-digit, or
/// exceeds \p Max. Request fields and mst_serve's flags both use it.
bool parseDecimal(const std::string &S, uint64_t Max, uint64_t &Out);

/// Renders a response line, newline included.
std::string formatResponse(bool Ok, const std::string &Tag,
                           const std::string &Value);

/// Parses a response line (client/test side). \returns false when the
/// line is not a well-formed response.
bool parseResponseLine(const std::string &Line, bool &Ok, std::string &Tag,
                       std::string &Value);

/// Splits the next `\n`-terminated line off the front of \p Buf into
/// \p Line (terminator removed, trailing `\r` stripped). \returns false
/// when \p Buf holds no complete line. When the unterminated tail already
/// exceeds \p MaxLine bytes, sets \p TooLong (the connection should be
/// dropped — an unframed client would otherwise grow the buffer without
/// bound).
bool nextLine(std::string &Buf, std::string &Line, size_t MaxLine,
              bool &TooLong);

} // namespace serve
} // namespace mst

#endif // MST_SERVE_PROTOCOL_H
