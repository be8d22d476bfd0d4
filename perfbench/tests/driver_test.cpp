//===-- perfbench/tests/driver_test.cpp - Load generator tests ------------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the benchmark's own load generator against a scripted
/// loopback server: paced latency is timed from each request's due time,
/// so a stalled server shows up as higher latency and never as fewer
/// samples, and a wrong answer is counted, not passed.
///
//===----------------------------------------------------------------------===//

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "LoadGen.h"

using namespace perfbench;

namespace {

/// A one-connection line server: answers every line with `OK 7`, except
/// that it sleeps \p StallMs before answering line \p StallAt, answers
/// line \p WrongAt (if any) with `OK 8`, and closes the connection instead
/// of answering line \p CloseAt (if any).
class ScriptedServer {
public:
  ScriptedServer(unsigned StallAt, unsigned StallMs, unsigned WrongAt = ~0u,
                 unsigned CloseAt = ~0u) {
    Listen = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    bind(Listen, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr);
    socklen_t Len = sizeof Addr;
    getsockname(Listen, reinterpret_cast<sockaddr *>(&Addr), &Len);
    Port = ntohs(Addr.sin_port);
    listen(Listen, 1);
    Thread = std::thread([=, this] {
      int Fd = accept(Listen, nullptr, nullptr);
      std::string In;
      char Buf[4096];
      unsigned Line = 0;
      ssize_t N;
      while (Line != CloseAt && (N = read(Fd, Buf, sizeof Buf)) > 0) {
        In.append(Buf, static_cast<size_t>(N));
        size_t Nl;
        while (Line != CloseAt && (Nl = In.find('\n')) != std::string::npos) {
          In.erase(0, Nl + 1);
          if (Line == StallAt)
            std::this_thread::sleep_for(std::chrono::milliseconds(StallMs));
          const char *Resp = Line == WrongAt ? "OK 8\n" : "OK 7\n";
          ++Line;
          if (write(Fd, Resp, 5) != 5)
            break;
        }
      }
      close(Fd);
    });
  }
  ~ScriptedServer() {
    Thread.join();
    close(Listen);
  }
  ScriptedServer(const ScriptedServer &) = delete;
  ScriptedServer &operator=(const ScriptedServer &) = delete;

  uint16_t Port = 0;

private:
  int Listen = -1;
  std::thread Thread;
};

NextRequest sevens() {
  return [](unsigned) { return Request{"3 + 4", "7"}; };
}

} // namespace

TEST(LoadGenTest, PacedStallRaisesLatencyAndKeepsEverySample) {
  const unsigned Count = 600, StallAt = 20, StallMs = 300;
  ScriptedServer S(StallAt, StallMs);
  PhaseResult R;
  {
    LoadGen G({connectLoopback(S.Port)});
    R = G.paced(Count, 1000.0, sevens()); // one request due every 1 ms
  }
  EXPECT_EQ(R.Sent, Count);
  EXPECT_EQ(R.Ok, Count);
  EXPECT_EQ(R.failed(), 0u);
  // Every request is a sample, the stalled ones included.
  ASSERT_EQ(R.LatencyNs.size(), Count);
  ASSERT_EQ(R.LatenessNs.size(), Count);
  // The stalled request waited out the stall; the ones due during it are
  // timed from their due time, so their latency falls off one due period
  // at a time instead of restarting from their late send.
  EXPECT_GE(R.LatencyNs[StallAt], StallMs * 1000000ull * 9 / 10);
  EXPECT_GE(R.LatencyNs[StallAt + 100], (StallMs - 100) * 1000000ull * 9 / 10);
  EXPECT_LT(R.LatencyNs.back(), StallMs * 1000000ull / 3);
  // The generator itself was on time while the server stalled.
  EXPECT_LT(*std::max_element(R.LatenessNs.begin(), R.LatenessNs.end()),
            50ull * 1000000);
}

TEST(LoadGenTest, ClosedLoopCountsWrongAnswers) {
  ScriptedServer S(~0u, 0, /*WrongAt=*/5);
  PhaseResult R;
  {
    LoadGen G({connectLoopback(S.Port)});
    R = G.closed(50, 8, sevens());
  }
  EXPECT_EQ(R.Sent, 50u);
  EXPECT_EQ(R.Ok, 49u);
  EXPECT_EQ(R.Wrong, 1u);
  EXPECT_EQ(R.FirstProblem, "expected 7, got 8");
  EXPECT_TRUE(R.LatencyNs.empty());
}

TEST(LoadGenTest, DeadConnectionLosesItsRequestsWithoutWaiting) {
  ScriptedServer S(~0u, 0, ~0u, /*CloseAt=*/10);
  LoadGen G({connectLoopback(S.Port)});
  PhaseResult C = G.closed(50, 8, sevens());
  EXPECT_EQ(C.Ok, 10u);
  EXPECT_EQ(C.Transport, 40u);
  EXPECT_EQ(C.Sent, 50u);
  EXPECT_EQ(C.FirstProblem, "connection 0 closed");
  // Later phases on the dead connection end at once, every request
  // counted as lost, instead of waiting out the stall limit.
  const uint64_t T0 = monoNs();
  PhaseResult P = G.paced(100, 1000.0, sevens());
  EXPECT_LT(monoNs() - T0, 1000000000ull);
  EXPECT_EQ(P.Sent, 100u);
  EXPECT_EQ(P.Transport, 100u);
  EXPECT_EQ(P.Ok, 0u);
  EXPECT_TRUE(P.LatencyNs.empty());
}
