//===-- serve/Server.cpp - Socket front-end for the shard pool ------------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#include <vector>

#include "obs/Telemetry.h"
#include "serve/Admin.h"
#include "serve/Protocol.h"

using namespace mst;
using namespace mst::serve;

namespace {
/// Longest request line accepted before the session is dropped.
constexpr size_t MaxLine = 64 * 1024;

// Same clock the shards stamp completions with — serve.latency is the
// difference, so the two sides must share an epoch.
uint64_t nowNs() { return Telemetry::nowNs(); }

bool setNonBlocking(int Fd) {
  int Flags = fcntl(Fd, F_GETFL, 0);
  return Flags >= 0 && fcntl(Fd, F_SETFL, Flags | O_NONBLOCK) == 0;
}
} // namespace

Server::Server(ServerConfig C) : Config(std::move(C)) {}

Server::~Server() { stop(); }

bool Server::start(std::string &Error) {
  // Shard threads publish finished batches here; the pipe write makes
  // poll() return so the loop can flush them to sockets.
  Pool = std::make_unique<ShardPool>(Config.Pool, [this](Batch &&B) {
    {
      std::lock_guard<std::mutex> Lock(RespMutex);
      Responses.push_back(std::move(B));
    }
    wake();
  });
  if (!Pool->start(Error)) {
    Pool->stop();
    return false;
  }
  Gates.assign(Pool->size(), ShardGate{});

  int Pipe[2];
  if (pipe(Pipe) != 0) {
    Error = "pipe: " + std::string(strerror(errno));
    Pool->stop();
    return false;
  }
  WakeRd = Pipe[0];
  WakeWr = Pipe[1];
  setNonBlocking(WakeRd);
  setNonBlocking(WakeWr);

  ListenFd = socket(AF_INET, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    Error = "socket: " + std::string(strerror(errno));
    Pool->stop();
    return false;
  }
  int One = 1;
  setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof One);
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Config.Port);
  if (bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr) != 0 ||
      listen(ListenFd, 1024) != 0) {
    Error = "bind/listen: " + std::string(strerror(errno));
    close(ListenFd);
    ListenFd = -1;
    Pool->stop();
    return false;
  }
  socklen_t Len = sizeof Addr;
  getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Addr), &Len);
  BoundPort = ntohs(Addr.sin_port);
  setNonBlocking(ListenFd);

  {
    std::lock_guard<std::mutex> Lock(StopMutex);
    Started = true;
    Stopped = false;
  }
  LoopThread = std::thread([this] { loopMain(); });
  return true;
}

void Server::requestDrain() {
  DrainRequested.store(true, std::memory_order_release);
  wake();
}

bool Server::waitStopped(double TimeoutSec) {
  std::unique_lock<std::mutex> Lock(StopMutex);
  return StopCv.wait_for(Lock,
                         std::chrono::duration<double>(TimeoutSec),
                         [this] { return !Started || Stopped; });
}

void Server::stop() {
  requestDrain();
  if (LoopThread.joinable())
    LoopThread.join();
  if (Pool)
    Pool->stop(); // no-op when the loop already stopped it
  if (ListenFd >= 0) {
    close(ListenFd);
    ListenFd = -1;
  }
  if (WakeRd >= 0) {
    close(WakeRd);
    close(WakeWr);
    WakeRd = WakeWr = -1;
  }
}

void Server::wake() {
  if (WakeWr < 0)
    return;
  char C = 'w';
  // A full pipe already guarantees a pending wakeup.
  (void)!write(WakeWr, &C, 1);
}

void Server::loopMain() {
  std::vector<pollfd> Fds;
  std::vector<uint64_t> FdSession; // parallel to Fds; 0 slots are special
  while (true) {
    if (!Draining && DrainRequested.load(std::memory_order_acquire)) {
      Draining = true;
      DrainDeadlineNs =
          nowNs() + static_cast<uint64_t>(Config.DrainTimeoutSec * 1e9);
      if (ListenFd >= 0) {
        close(ListenFd);
        ListenFd = -1;
      }
    }

    if (Draining) {
      // Close every session with nothing in flight and nothing to flush.
      // Past the drain deadline a straggler's queued requests will never
      // answer: give each of them a clean ERR, flush best-effort, then
      // force the close.
      bool DeadlineHit = nowNs() > DrainDeadlineNs;
      std::vector<uint64_t> Done;
      for (auto &[Id, S] : Sessions) {
        if (S.Pending == 0 && S.Out.empty()) {
          Done.push_back(Id);
          continue;
        }
        if (DeadlineHit) {
          for (uint64_t I = 0; I < S.Pending; ++I)
            S.Out += formatResponse(false, "",
                                    "server draining: deadline expired "
                                    "before the request completed");
          S.Pending = 0;
          Done.push_back(Id);
        }
      }
      for (uint64_t Id : Done) {
        auto It = Sessions.find(Id);
        if (It == Sessions.end())
          continue;
        if (!It->second.Out.empty())
          writeSession(It->second); // may close on a write error
        closeSession(Id);
      }
      if (Sessions.empty())
        break;
    }

    Fds.clear();
    FdSession.clear();
    Fds.push_back({WakeRd, POLLIN, 0});
    FdSession.push_back(0);
    if (ListenFd >= 0) {
      Fds.push_back({ListenFd, POLLIN, 0});
      FdSession.push_back(0);
    }
    for (auto &[Id, S] : Sessions) {
      short Ev = 0;
      if (!Draining && !S.Paused && !S.CloseAfterFlush)
        Ev |= POLLIN;
      if (!S.Out.empty())
        Ev |= POLLOUT;
      if (!Ev)
        continue; // response will arrive via the wake pipe
      Fds.push_back({S.Fd, Ev, 0});
      FdSession.push_back(Id);
    }

    int N = poll(Fds.data(), Fds.size(), Draining ? 50 : 500);
    if (N < 0 && errno != EINTR)
      break;

    // Wake pipe: drain it, then flush shard responses.
    if (Fds[0].revents & POLLIN) {
      char Buf[256];
      while (read(WakeRd, Buf, sizeof Buf) > 0)
        ;
    }
    deliverResponses();

    for (size_t I = 1; I < Fds.size(); ++I) {
      if (!Fds[I].revents)
        continue;
      if (Fds[I].fd == ListenFd) {
        acceptReady();
        continue;
      }
      uint64_t Id = FdSession[I];
      auto It = Sessions.find(Id);
      if (It == Sessions.end())
        continue; // closed earlier this iteration
      Session &S = It->second;
      if (Fds[I].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        closeSession(Id);
        continue;
      }
      if (Fds[I].revents & POLLOUT)
        writeSession(S);
      if (Sessions.count(Id) && (Fds[I].revents & POLLIN))
        readSession(S);
    }
  }

  // Loop exit: everything drained (or deadline hit). Stop the pool —
  // each shard takes its final checkpoint on the way out.
  for (auto It = Sessions.begin(); It != Sessions.end();) {
    close(It->second.Fd);
    Stats.ActiveSessions.fetch_sub(1, std::memory_order_relaxed);
    It = Sessions.erase(It);
  }
  Pool->stop();
  {
    std::lock_guard<std::mutex> Lock(StopMutex);
    Stopped = true;
  }
  StopCv.notify_all();
}

void Server::acceptReady() {
  while (true) {
    int Fd = accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      return; // EAGAIN / transient
    setNonBlocking(Fd);
    int One = 1;
    setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof One);
    uint64_t Id = NextSessionId++;
    Session S;
    S.Fd = Fd;
    S.Id = Id;
    S.ClientId = Id;
    S.Shard = Pool->shardFor(Id);
    Sessions.emplace(Id, std::move(S));
    Stats.ActiveSessions.fetch_add(1, std::memory_order_relaxed);
    Stats.TotalSessions.fetch_add(1, std::memory_order_relaxed);
  }
}

void Server::readSession(Session &S) {
  char Buf[16 * 1024];
  while (true) {
    ssize_t N = read(S.Fd, Buf, sizeof Buf);
    if (N > 0) {
      S.In.append(Buf, static_cast<size_t>(N));
      if (N == static_cast<ssize_t>(sizeof Buf) && S.In.size() < MaxLine)
        continue;
    } else if (N == 0) {
      closeSession(S.Id);
      return;
    } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      closeSession(S.Id);
      return;
    }
    break;
  }
  parseBuffered(S);
}

void Server::parseBuffered(Session &S) {
  std::string Line;
  bool TooLong = false;
  while (!S.CloseAfterFlush && !S.Paused &&
         nextLine(S.In, Line, MaxLine, TooLong))
    handleLine(S, Line);
  if (TooLong) {
    S.Out += formatResponse(false, "", "request line too long");
    S.CloseAfterFlush = true;
  }
}

void Server::handleLine(Session &S, const std::string &Line) {
  if (Line.empty())
    return;
  Request R = parseRequestLine(Line);
  switch (R.K) {
  case Request::Kind::Bad:
    S.Out += formatResponse(false, R.Tag, R.Error);
    Stats.Errors.add(1);
    return;
  case Request::Kind::Quit:
    S.Out += formatResponse(true, R.Tag, "bye");
    S.CloseAfterFlush = true;
    return;
  case Request::Kind::Drain:
    S.Out += formatResponse(true, R.Tag, "draining");
    requestDrain();
    return;
  case Request::Kind::Session:
    // Re-binding with requests still in flight would split one client's
    // responses across two identities; refuse until the pipeline drains.
    if (S.Pending != 0) {
      S.Out += formatResponse(false, R.Tag,
                              "!session refused: requests still in flight");
      Stats.Errors.add(1);
      return;
    }
    S.ClientId = R.SessionBind;
    S.Bound = true;
    S.Shard = Pool->shardFor(R.SessionBind);
    S.Out += formatResponse(true, R.Tag,
                            "session bound to client " +
                                std::to_string(R.SessionBind) + " shard " +
                                std::to_string(S.Shard));
    return;
  case Request::Kind::Health: {
    std::vector<ShardGateView> Views(Gates.size());
    for (size_t I = 0; I < Gates.size(); ++I) {
      const ShardGate &G = Gates[I];
      Views[I].Breaker =
          G.State == ShardGate::Breaker::Open
              ? "open"
              : (G.State == ShardGate::Breaker::HalfOpen ? "half-open"
                                                         : "closed");
      Views[I].Outstanding = G.Outstanding;
      Views[I].ConsecTimeouts = G.ConsecTimeouts;
    }
    S.Out += formatResponse(true, R.Tag,
                            buildHealthJson(*Pool, Stats, &Views));
    return;
  }
  case Request::Kind::Kill: {
    if (R.KillShard >= Pool->size()) {
      S.Out += formatResponse(false, R.Tag, "no such shard");
      return;
    }
    QueuedRequest Q;
    Q.SessionId = S.Id;
    Q.Seq = S.NextSeq++;
    Q.Tag = R.Tag;
    Q.Kind = Request::Kind::Kill;
    Q.Shard = R.KillShard;
    Q.EnqueueNs = nowNs();
    if (!Pool->submit(R.KillShard, std::move(Q))) {
      S.Out += formatResponse(false, R.Tag, "shard unavailable");
      return;
    }
    ++Gates[R.KillShard].Outstanding;
    ++S.Pending;
    break;
  }
  case Request::Kind::Checkpoint: {
    // One response line per shard, via each shard's own queue.
    for (unsigned I = 0; I < Pool->size(); ++I) {
      QueuedRequest Q;
      Q.SessionId = S.Id;
      Q.Seq = S.NextSeq++;
      Q.Tag = R.Tag;
      Q.Kind = Request::Kind::Checkpoint;
      Q.Shard = I;
      Q.EnqueueNs = nowNs();
      if (Pool->submit(I, std::move(Q))) {
        ++Gates[I].Outstanding;
        ++S.Pending;
      } else {
        S.Out += formatResponse(false, R.Tag,
                                "shard " + std::to_string(I) + " unavailable");
      }
    }
    break;
  }
  case Request::Kind::Eval: {
    ShardGate &G = Gates[S.Shard];
    // Breaker: open -> shed; open-long-enough -> half-open (one probe).
    if (G.State == ShardGate::Breaker::Open &&
        nowNs() >= G.OpenUntilNs) {
      G.State = ShardGate::Breaker::HalfOpen;
      G.ProbeInFlight = false;
    }
    if (G.State == ShardGate::Breaker::Open ||
        (G.State == ShardGate::Breaker::HalfOpen && G.ProbeInFlight)) {
      S.Out += formatResponse(false, R.Tag,
                              "overloaded: shard " +
                                  std::to_string(S.Shard) +
                                  " circuit breaker open; retry later");
      Stats.Shed.add();
      Stats.Errors.add();
      return;
    }
    // Admission control: a full per-shard budget fast-fails instead of
    // growing the queue without bound.
    if (Config.QueueBudget != 0 && G.Outstanding >= Config.QueueBudget) {
      S.Out += formatResponse(false, R.Tag,
                              "overloaded: shard " +
                                  std::to_string(S.Shard) +
                                  " queue budget exhausted; retry later");
      Stats.Shed.add();
      Stats.Errors.add();
      return;
    }
    if (R.HasSeq && !S.Bound) {
      S.Out += formatResponse(false, R.Tag,
                              "?seq= requires a !session-bound connection");
      Stats.Errors.add(1);
      return;
    }
    QueuedRequest Q;
    Q.SessionId = S.Id;
    Q.ClientId = S.ClientId;
    Q.Seq = S.NextSeq++;
    if (R.HasSeq) {
      Q.HasSeq = true;
      Q.ClientSeq = R.Seq;
    }
    Q.Tag = R.Tag;
    Q.Kind = Request::Kind::Eval;
    Q.Source = std::move(R.Source);
    Q.Shard = S.Shard;
    Q.EnqueueNs = nowNs();
    uint64_t DeadlineMs =
        R.DeadlineMs != 0 ? R.DeadlineMs : Config.RequestDeadlineMs;
    if (DeadlineMs != 0)
      Q.DeadlineNs = Q.EnqueueNs + DeadlineMs * 1000000;
    uint64_t Seq = Q.Seq;
    if (!Pool->submit(S.Shard, std::move(Q))) {
      S.Out += formatResponse(false, R.Tag, "shard unavailable");
      Stats.Errors.add(1);
      return;
    }
    ++G.Outstanding;
    if (G.State == ShardGate::Breaker::HalfOpen) {
      G.ProbeInFlight = true;
      G.ProbeSession = S.Id;
      G.ProbeSeq = Seq;
    }
    ++S.Pending;
    break;
  }
  }
  if (S.Pending >= Config.MaxPipeline)
    S.Paused = true;
}

void Server::writeSession(Session &S) {
  while (!S.Out.empty()) {
    Stats.SocketWrites.add();
    ssize_t N = write(S.Fd, S.Out.data(), S.Out.size());
    if (N > 0) {
      S.Out.erase(0, static_cast<size_t>(N));
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
      return;
    closeSession(S.Id);
    return;
  }
  // `!quit` honors pipelining: the session closes only after every
  // already-submitted request has answered and flushed.
  if (S.CloseAfterFlush && S.Pending == 0)
    closeSession(S.Id);
}

void Server::closeSession(uint64_t Id) {
  auto It = Sessions.find(Id);
  if (It == Sessions.end())
    return;
  close(It->second.Fd);
  Sessions.erase(It);
  Stats.ActiveSessions.fetch_sub(1, std::memory_order_relaxed);
}

void Server::deliverResponses() {
  std::deque<Batch> Ready;
  {
    std::lock_guard<std::mutex> Lock(RespMutex);
    Ready.swap(Responses);
  }
  for (Batch &B : Ready) {
    for (QueuedRequest &Q : B) {
      // Gate bookkeeping first — it must happen even when the session
      // already left (the shard did the work either way).
      if (Q.Shard < Gates.size()) {
        ShardGate &G = Gates[Q.Shard];
        if (G.Outstanding)
          --G.Outstanding;
        if (Q.Kind == Request::Kind::Eval) {
          bool Probe = G.ProbeInFlight && G.ProbeSession == Q.SessionId &&
                       G.ProbeSeq == Q.Seq;
          if (Probe)
            G.ProbeInFlight = false;
          if (Q.TimedOut) {
            ++G.ConsecTimeouts;
            bool Trip = G.State == ShardGate::Breaker::Closed &&
                        Config.BreakerThreshold != 0 &&
                        G.ConsecTimeouts >= Config.BreakerThreshold;
            if (Trip ||
                (Probe && G.State == ShardGate::Breaker::HalfOpen)) {
              G.State = ShardGate::Breaker::Open;
              G.OpenUntilNs =
                  nowNs() + Config.BreakerOpenMs * 1000000;
              G.ConsecTimeouts = 0;
              Stats.BreakerOpen.add();
            }
          } else {
            G.ConsecTimeouts = 0;
            if (Probe && G.State == ShardGate::Breaker::HalfOpen)
              G.State = ShardGate::Breaker::Closed;
          }
        }
      }
      auto It = Sessions.find(Q.SessionId);
      if (It == Sessions.end())
        continue; // session left before its answer arrived
      Session &S = It->second;
      // The next poll() reports the session writable, and POLLOUT
      // flushes the round's answers in one write.
      S.Out += formatResponse(Q.Ok, Q.Tag, Q.Value);
      if (S.Pending)
        --S.Pending;
      if (S.Paused && 2 * S.Pending <= Config.MaxPipeline) {
        S.Paused = false;
        // The client may have nothing more to send: lines it pipelined
        // past the cap are sitting parsed-less in S.In. Resume here.
        parseBuffered(S);
      }
    }
  }
}
