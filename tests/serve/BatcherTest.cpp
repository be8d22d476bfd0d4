//===-- tests/serve/BatcherTest.cpp - Request batching unit tests ---------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/RequestBatcher.h"

#include <thread>

#include <gtest/gtest.h>

#include "obs/Telemetry.h"

using namespace mst;
using namespace mst::serve;

namespace {
QueuedRequest req(uint64_t Session, uint64_t Seq) {
  QueuedRequest Q;
  Q.SessionId = Session;
  Q.Seq = Seq;
  Q.Source = std::to_string(Seq);
  return Q;
}
} // namespace

TEST(RequestBatcher, DrainsEverythingQueuedAsOneBatchInFifoOrder) {
  RequestBatcher B;
  for (uint64_t I = 0; I < 5; ++I)
    ASSERT_TRUE(B.push(req(1, I)));
  EXPECT_EQ(B.depth(), 5u);

  Batch Out;
  ASSERT_TRUE(B.takeBatch(Out, 256));
  ASSERT_EQ(Out.size(), 5u);
  for (uint64_t I = 0; I < 5; ++I)
    EXPECT_EQ(Out[I].Seq, I);
  EXPECT_EQ(B.depth(), 0u);
}

TEST(RequestBatcher, MaxBatchSplits) {
  RequestBatcher B;
  for (uint64_t I = 0; I < 7; ++I)
    ASSERT_TRUE(B.push(req(1, I)));
  Batch Out;
  ASSERT_TRUE(B.takeBatch(Out, 4));
  ASSERT_EQ(Out.size(), 4u);
  EXPECT_EQ(Out[0].Seq, 0u);
  ASSERT_TRUE(B.takeBatch(Out, 4));
  ASSERT_EQ(Out.size(), 3u); // remainder, still FIFO
  EXPECT_EQ(Out[0].Seq, 4u);
}

TEST(RequestBatcher, TakeBatchBlocksUntilPush) {
  RequestBatcher B;
  Batch Out;
  std::thread Producer([&] { B.push(req(9, 1)); });
  ASSERT_TRUE(B.takeBatch(Out, 256)); // blocks until the producer pushes
  Producer.join();
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].SessionId, 9u);
}

TEST(RequestBatcher, CloseDrainsThenRefuses) {
  RequestBatcher B;
  ASSERT_TRUE(B.push(req(1, 0)));
  B.close();
  EXPECT_FALSE(B.push(req(1, 1))); // refused after close

  Batch Out;
  ASSERT_TRUE(B.takeBatch(Out, 256)); // pre-close request still delivered
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_FALSE(B.takeBatch(Out, 256)); // closed and drained
  B.close();                           // idempotent
}

TEST(RequestBatcher, CloseWakesBlockedConsumer) {
  RequestBatcher B;
  Batch Out;
  std::thread Closer([&] { B.close(); });
  EXPECT_FALSE(B.takeBatch(Out, 256));
  Closer.join();
}

TEST(RequestBatcher, OldestEnqueueNsTracksTheQueueFront) {
  RequestBatcher B;
  EXPECT_EQ(B.oldestEnqueueNs(), 0u); // empty queue: no waiting request

  QueuedRequest A = req(1, 0);
  A.EnqueueNs = 1000;
  QueuedRequest C = req(1, 1);
  C.EnqueueNs = 2000;
  ASSERT_TRUE(B.push(A));
  ASSERT_TRUE(B.push(C));
  EXPECT_EQ(B.oldestEnqueueNs(), 1000u); // FIFO front is the oldest

  Batch Out;
  ASSERT_TRUE(B.takeBatch(Out, 256));
  EXPECT_EQ(B.oldestEnqueueNs(), 0u); // drained
}

namespace {
QueuedRequest adminReq(Request::Kind K, uint64_t Seq) {
  QueuedRequest Q = req(1, Seq);
  Q.Kind = K;
  return Q;
}
} // namespace

TEST(RequestBatcher, CheckpointEndsItsBatch) {
  RequestBatcher B;
  ASSERT_TRUE(B.push(req(1, 0)));
  ASSERT_TRUE(B.push(adminReq(Request::Kind::Checkpoint, 1)));
  ASSERT_TRUE(B.push(req(1, 2)));
  ASSERT_TRUE(B.push(req(1, 3)));

  Batch Out;
  ASSERT_TRUE(B.takeBatch(Out, 256));
  ASSERT_EQ(Out.size(), 2u);
  EXPECT_EQ(Out[0].Kind, Request::Kind::Eval);
  EXPECT_EQ(Out[1].Kind, Request::Kind::Checkpoint);
  ASSERT_TRUE(B.takeBatch(Out, 256));
  ASSERT_EQ(Out.size(), 2u);
  EXPECT_EQ(Out[0].Seq, 2u);
  EXPECT_EQ(Out[1].Seq, 3u);
}

TEST(RequestBatcher, KillDoesNotEndItsBatch) {
  // The shard answers what queued behind a kill ERR, in the same batch.
  RequestBatcher B;
  ASSERT_TRUE(B.push(req(1, 0)));
  ASSERT_TRUE(B.push(adminReq(Request::Kind::Kill, 1)));
  ASSERT_TRUE(B.push(req(1, 2)));

  Batch Out;
  ASSERT_TRUE(B.takeBatch(Out, 256));
  ASSERT_EQ(Out.size(), 3u);
  EXPECT_EQ(Out[1].Kind, Request::Kind::Kill);
}

TEST(RequestBatcher, WakeTimeReturnsAnEmptyBatchOnceItPasses) {
  RequestBatcher B;
  Batch Out;
  Out.push_back(req(1, 99)); // cleared by every call
  uint64_t Start = Telemetry::nowNs();
  ASSERT_TRUE(B.takeBatch(Out, 256, Start + 20000000));
  EXPECT_TRUE(Out.empty());
  EXPECT_GE(Telemetry::nowNs(), Start + 20000000);

  // A wake time already past returns at once; a queued request still
  // comes first.
  ASSERT_TRUE(B.takeBatch(Out, 256, 1));
  EXPECT_TRUE(Out.empty());
  ASSERT_TRUE(B.push(req(1, 0)));
  ASSERT_TRUE(B.takeBatch(Out, 256, 1));
  ASSERT_EQ(Out.size(), 1u);

  // close() still ends the loop, wake time or not.
  std::thread Closer([&] { B.close(); });
  uint64_t Far = Telemetry::nowNs() + 60ull * 1000000000;
  EXPECT_FALSE(B.takeBatch(Out, 256, Far));
  Closer.join();
  EXPECT_FALSE(B.takeBatch(Out, 256, 1));
}
