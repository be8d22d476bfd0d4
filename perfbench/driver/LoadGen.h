//===-- perfbench/driver/LoadGen.h - Pipelined loopback load ----*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serve workloads' load generator: one thread driving a fixed set of
/// pipelined loopback connections to mst_serve, either open-loop (paced at
/// a fixed rate, each request timed from the moment it was due) or
/// closed-loop (a fixed window of requests outstanding per connection).
/// Every response is checked against the answer its request must give.
///
//===----------------------------------------------------------------------===//

#ifndef MST_PERFBENCH_LOADGEN_H
#define MST_PERFBENCH_LOADGEN_H

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "Workload.h"

namespace perfbench {

/// \returns the current CLOCK_MONOTONIC time in nanoseconds.
uint64_t monoNs();

/// Connects to 127.0.0.1:\p Port. \returns the socket, or -1.
int connectLoopback(uint16_t Port);

/// What one phase sent and got back.
struct PhaseResult {
  uint64_t Sent = 0;      ///< sent, or due on a connection already dead
  uint64_t Ok = 0;        ///< OK responses carrying the expected value
  uint64_t Err = 0;       ///< ERR responses
  uint64_t Wrong = 0;     ///< OK responses with the wrong value
  uint64_t Transport = 0; ///< requests lost to a broken or stalled link
  double ElapsedSec = 0;  ///< first due/send time to last response
  /// Paced phases only, one entry per answered request: arrival time
  /// minus the time the request was due, and send time minus due time.
  std::vector<uint64_t> LatencyNs;
  std::vector<uint64_t> LatenessNs;
  std::string FirstProblem; ///< the first failed check, for the report

  uint64_t failed() const { return Err + Wrong + Transport; }

  /// Adds the counts and elapsed time of a closed-loop phase \p O.
  void absorb(const PhaseResult &O) {
    Sent += O.Sent;
    Ok += O.Ok;
    Err += O.Err;
    Wrong += O.Wrong;
    Transport += O.Transport;
    ElapsedSec += O.ElapsedSec;
    if (FirstProblem.empty())
      FirstProblem = O.FirstProblem;
  }
};

/// Produces connection \p Conn's next request.
using NextRequest = std::function<Request(unsigned Conn)>;

class LoadGen {
public:
  /// Takes ownership of the connected sockets \p Fds.
  explicit LoadGen(std::vector<int> Fds);
  ~LoadGen();

  LoadGen(const LoadGen &) = delete;
  LoadGen &operator=(const LoadGen &) = delete;

  /// Open loop: request i is due at start + i / \p Rate and goes to
  /// connection i mod (number of connections), whether or not earlier
  /// requests have been answered. A stall in the server therefore shows
  /// as latency of every request due during it, never as fewer samples.
  PhaseResult paced(uint64_t Count, double Rate, const NextRequest &Next);

  /// Closed loop: \p Window requests outstanding per connection until
  /// \p Count requests (split evenly) have been answered.
  PhaseResult closed(uint64_t Count, unsigned Window, const NextRequest &Next);

  /// Sends \p Line on connection \p Conn, which must have nothing in
  /// flight, and waits for one response line. \returns false on a broken
  /// link or after \p TimeoutSec.
  bool roundTrip(unsigned Conn, const std::string &Line,
                 std::string &Response, double TimeoutSec = 120.0);

  /// Waits for the next response line on connection \p Conn (one of
  /// several a request answers, like `!checkpoint`'s line per shard).
  bool receive(unsigned Conn, std::string &Response,
               double TimeoutSec = 120.0);

private:
  struct Pending {
    uint64_t DueNs;
    std::string Expect;
  };
  struct Conn {
    int Fd = -1;
    std::string In, Out;
    std::deque<Pending> Queue;
  };

  PhaseResult drive(uint64_t Count, double Rate, unsigned Window,
                    const NextRequest &Next);
  bool flush(Conn &C);
  /// Reads what \p C has; \returns false when the peer closed or failed.
  bool fill(Conn &C);

  std::vector<Conn> Conns;
};

} // namespace perfbench

#endif // MST_PERFBENCH_LOADGEN_H
