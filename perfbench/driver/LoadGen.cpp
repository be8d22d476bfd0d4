//===-- perfbench/driver/LoadGen.cpp - Pipelined loopback load ------------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "LoadGen.h"

#include <arpa/inet.h>
#include <cerrno>
#include <ctime>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "serve/Protocol.h"

using namespace perfbench;

namespace {
/// A phase gives up when no response has arrived for this long.
constexpr uint64_t StallLimitNs = 60ull * 1000 * 1000 * 1000;
} // namespace

uint64_t perfbench::monoNs() {
  timespec Ts{};
  clock_gettime(CLOCK_MONOTONIC, &Ts);
  return static_cast<uint64_t>(Ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(Ts.tv_nsec);
}

int perfbench::connectLoopback(uint16_t Port) {
  int Fd = socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr) != 0) {
    close(Fd);
    return -1;
  }
  int One = 1;
  setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof One);
  return Fd;
}

LoadGen::LoadGen(std::vector<int> Fds) {
  for (int Fd : Fds) {
    fcntl(Fd, F_SETFL, fcntl(Fd, F_GETFL) | O_NONBLOCK);
    Conn C;
    C.Fd = Fd;
    Conns.push_back(std::move(C));
  }
}

LoadGen::~LoadGen() {
  for (Conn &C : Conns)
    if (C.Fd >= 0)
      close(C.Fd);
}

bool LoadGen::flush(Conn &C) {
  while (!C.Out.empty()) {
    // MSG_NOSIGNAL: a daemon that died is a failed check, not SIGPIPE.
    ssize_t N = send(C.Fd, C.Out.data(), C.Out.size(), MSG_NOSIGNAL);
    if (N > 0) {
      C.Out.erase(0, static_cast<size_t>(N));
      continue;
    }
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR))
      return true;
    return false;
  }
  return true;
}

bool LoadGen::fill(Conn &C) {
  char Buf[65536];
  for (;;) {
    ssize_t N = read(C.Fd, Buf, sizeof Buf);
    if (N > 0) {
      C.In.append(Buf, static_cast<size_t>(N));
      continue;
    }
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR))
      return true;
    return false;
  }
}

PhaseResult LoadGen::paced(uint64_t Count, double Rate,
                           const NextRequest &Next) {
  return drive(Count, Rate, 0, Next);
}

PhaseResult LoadGen::closed(uint64_t Count, unsigned Window,
                            const NextRequest &Next) {
  return drive(Count, 0.0, Window, Next);
}

PhaseResult LoadGen::drive(uint64_t Count, double Rate, unsigned Window,
                           const NextRequest &Next) {
  const bool Paced = Rate > 0.0;
  const size_t N = Conns.size();
  PhaseResult R;
  std::vector<uint64_t> Quota(N), SentOn(N, 0);
  for (size_t I = 0; I < N; ++I)
    Quota[I] = Count / N + (I < Count % N ? 1 : 0);
  if (Paced) {
    R.LatencyNs.reserve(Count);
    R.LatenessNs.reserve(Count);
  }
  const double PeriodNs = Paced ? 1e9 / Rate : 0.0;
  const uint64_t T0 = monoNs();
  auto DueOf = [&](uint64_t I) {
    return T0 + static_cast<uint64_t>(static_cast<double>(I) * PeriodNs);
  };
  auto Enqueue = [&](size_t C, uint64_t Due, uint64_t Now) {
    Request Q = Next(static_cast<unsigned>(C));
    Conns[C].Out += Q.Line;
    Conns[C].Out += '\n';
    Conns[C].Queue.push_back({Due, std::move(Q.Expect)});
    ++R.Sent;
    ++SentOn[C];
    if (Paced)
      R.LatenessNs.push_back(Now > Due ? Now - Due : 0);
  };
  auto Problem = [&](const std::string &What) {
    if (R.FirstProblem.empty())
      R.FirstProblem = What;
  };
  // A dead connection's unanswered and unsent requests all count as sent
  // and lost, so the phase never waits for them.
  auto Lose = [&](size_t C, const std::string &What) {
    Problem(What);
    R.Transport += Conns[C].Queue.size() + (Quota[C] - SentOn[C]);
    R.Sent += Quota[C] - SentOn[C];
    SentOn[C] = Quota[C];
    Conns[C].Queue.clear();
    if (Conns[C].Fd >= 0)
      close(Conns[C].Fd);
    Conns[C].Fd = -1;
  };
  for (size_t C = 0; C < N; ++C)
    if (Conns[C].Fd < 0)
      Lose(C, "connection " + std::to_string(C) + " closed");
  if (!Paced)
    for (size_t C = 0; C < N; ++C)
      for (unsigned W = 0; W < Window && SentOn[C] < Quota[C]; ++W)
        Enqueue(C, T0, T0);

  uint64_t Done = 0;
  uint64_t Issued = 0; // paced: requests whose due time has come
  uint64_t LastProgress = T0;
  std::vector<pollfd> Fds(N);
  while (Done + R.Transport < Count) {
    uint64_t Now = monoNs();
    if (Paced)
      for (; Issued < Count && DueOf(Issued) <= Now; ++Issued)
        if (Conns[Issued % N].Fd >= 0)
          Enqueue(Issued % N, DueOf(Issued), Now);
    for (size_t C = 0; C < N; ++C) {
      Fds[C].fd = Conns[C].Fd;
      Fds[C].events = POLLIN;
      Fds[C].revents = 0;
      if (Conns[C].Fd >= 0 && !flush(Conns[C])) {
        Lose(C, "write failed on connection " + std::to_string(C));
        Fds[C].fd = -1;
        continue;
      }
      if (!Conns[C].Out.empty())
        Fds[C].events |= POLLOUT;
    }
    uint64_t WaitNs = 50ull * 1000 * 1000;
    if (Paced && Issued < Count) {
      uint64_t Due = DueOf(Issued);
      Now = monoNs();
      WaitNs = Due > Now ? Due - Now : 0;
    }
    timespec Ts{static_cast<time_t>(WaitNs / 1000000000ull),
                static_cast<long>(WaitNs % 1000000000ull)};
    if (ppoll(Fds.data(), N, &Ts, nullptr) < 0 && errno != EINTR) {
      Problem("poll failed");
      break;
    }
    for (size_t C = 0; C < N; ++C) {
      Conn &K = Conns[C];
      if (K.Fd < 0 || !(Fds[C].revents & (POLLIN | POLLERR | POLLHUP)))
        continue;
      bool Alive = fill(K);
      uint64_t At = monoNs();
      // Split lines by offset and erase once: a read can carry thousands
      // of responses.
      size_t Pos = 0;
      for (size_t Nl; (Nl = K.In.find('\n', Pos)) != std::string::npos;
           Pos = Nl + 1) {
        std::string Line = K.In.substr(Pos, Nl - Pos);
        if (K.Queue.empty()) {
          Problem("unsolicited response: " + Line);
          continue;
        }
        Pending P = std::move(K.Queue.front());
        K.Queue.pop_front();
        ++Done;
        LastProgress = At;
        bool Ok = false;
        std::string Tag, Value;
        if (!mst::serve::parseResponseLine(Line, Ok, Tag, Value)) {
          ++R.Wrong;
          Problem("malformed response: " + Line);
        } else if (!Ok) {
          ++R.Err;
          Problem("ERR " + Value);
        } else if (Value != P.Expect) {
          ++R.Wrong;
          Problem("expected " + P.Expect + ", got " + Value);
        } else {
          ++R.Ok;
        }
        if (Paced)
          R.LatencyNs.push_back(At - P.DueNs);
        else if (SentOn[C] < Quota[C])
          Enqueue(C, At, At);
      }
      K.In.erase(0, Pos);
      if (!Alive)
        Lose(C, "connection " + std::to_string(C) + " closed");
    }
    if (monoNs() - LastProgress > StallLimitNs) {
      Problem("no response for 60 s");
      R.Sent = Count;
      R.Transport = Count - Done;
      break;
    }
  }
  R.ElapsedSec = static_cast<double>(monoNs() - T0) / 1e9;
  return R;
}

bool LoadGen::roundTrip(unsigned Conn, const std::string &Line,
                        std::string &Response, double TimeoutSec) {
  if (Conns[Conn].Fd < 0)
    return false;
  Conns[Conn].Out += Line;
  Conns[Conn].Out += '\n';
  return receive(Conn, Response, TimeoutSec);
}

bool LoadGen::receive(unsigned Conn, std::string &Response,
                      double TimeoutSec) {
  struct Conn &C = Conns[Conn];
  if (C.Fd < 0)
    return false;
  const uint64_t Deadline =
      monoNs() + static_cast<uint64_t>(TimeoutSec * 1e9);
  bool TooLong = false;
  while (!mst::serve::nextLine(C.In, Response, 64u << 20, TooLong)) {
    if (!flush(C))
      return false;
    uint64_t Now = monoNs();
    if (Now >= Deadline)
      return false;
    pollfd P{C.Fd, static_cast<short>(POLLIN | (C.Out.empty() ? 0 : POLLOUT)),
             0};
    int Ms = static_cast<int>((Deadline - Now) / 1000000) + 1;
    if (poll(&P, 1, Ms) < 0 && errno != EINTR)
      return false;
    if ((P.revents & (POLLIN | POLLERR | POLLHUP)) && !fill(C) &&
        C.In.find('\n') == std::string::npos)
      return false;
  }
  return true;
}
