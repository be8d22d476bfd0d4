//===-- serve/RequestBatcher.cpp - Per-shard request batching -------------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/RequestBatcher.h"

#include <chrono>

#include "obs/Telemetry.h"
#include "vkernel/Chaos.h"

using namespace mst;
using namespace mst::serve;

bool RequestBatcher::push(QueuedRequest R) {
  {
    std::lock_guard<std::mutex> Guard(Mutex);
    if (Closed)
      return false;
    Queue.push_back(std::move(R));
  }
  chaos::point("serve.batcher.push");
  Cv.notify_one();
  return true;
}

bool RequestBatcher::takeBatch(Batch &Out, size_t Max, uint64_t WakeNs) {
  Out.clear();
  std::unique_lock<std::mutex> Lock(Mutex);
  auto Ready = [this] { return Closed || !Queue.empty(); };
  if (WakeNs == 0) {
    Cv.wait(Lock, Ready);
  } else {
    uint64_t Now = Telemetry::nowNs();
    uint64_t WaitNs = WakeNs > Now ? WakeNs - Now : 0;
    Cv.wait_for(Lock, std::chrono::nanoseconds(WaitNs), Ready);
  }
  if (Queue.empty())
    return !Closed; // the wake time passed, or closed and drained
  Out.reserve(Queue.size() < Max ? Queue.size() : Max);
  while (!Queue.empty() && Out.size() < Max) {
    Out.push_back(std::move(Queue.front()));
    Queue.pop_front();
    if (Out.back().Kind == Request::Kind::Checkpoint)
      break; // a checkpoint is the last request in its batch
  }
  return true;
}

void RequestBatcher::close() {
  {
    std::lock_guard<std::mutex> Guard(Mutex);
    Closed = true;
  }
  Cv.notify_all();
}

size_t RequestBatcher::depth() {
  std::lock_guard<std::mutex> Guard(Mutex);
  return Queue.size();
}

uint64_t RequestBatcher::oldestEnqueueNs() {
  std::lock_guard<std::mutex> Guard(Mutex);
  return Queue.empty() ? 0 : Queue.front().EnqueueNs;
}
