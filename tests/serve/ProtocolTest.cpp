//===-- tests/serve/ProtocolTest.cpp - Wire protocol unit tests -----------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"

#include <gtest/gtest.h>

using namespace mst;
using namespace mst::serve;

TEST(ServeProtocol, EscapeRoundTrip) {
  std::string S = "a\nb\\c\rd";
  std::string E = escapeLine(S);
  EXPECT_EQ(E.find('\n'), std::string::npos);
  EXPECT_EQ(E.find('\r'), std::string::npos);
  EXPECT_EQ(unescapeLine(E), S);
  EXPECT_EQ(escapeLine(""), "");
  EXPECT_EQ(unescapeLine("plain"), "plain");
}

TEST(ServeProtocol, ParseEval) {
  Request R = parseRequestLine("3 + 4 * 2");
  EXPECT_EQ(R.K, Request::Kind::Eval);
  EXPECT_EQ(R.Source, "3 + 4 * 2");
  EXPECT_TRUE(R.Tag.empty());
}

TEST(ServeProtocol, ParseTaggedEval) {
  Request R = parseRequestLine("@t42 1 + 1");
  EXPECT_EQ(R.K, Request::Kind::Eval);
  EXPECT_EQ(R.Tag, "@t42"); // tags keep their sigil for the echo
  EXPECT_EQ(R.Source, "1 + 1");
}

TEST(ServeProtocol, ParseDeadlineOption) {
  Request R = parseRequestLine("@t7?deadline=50 3 + 4");
  EXPECT_EQ(R.K, Request::Kind::Eval);
  EXPECT_EQ(R.Tag, "@t7"); // the option is stripped from the echo tag
  EXPECT_EQ(R.DeadlineMs, 50u);
  EXPECT_EQ(R.Source, "3 + 4");

  // Anonymous deadline: `@?deadline=MS` carries no echo tag.
  Request A = parseRequestLine("@?deadline=120 1 + 1");
  EXPECT_EQ(A.K, Request::Kind::Eval);
  EXPECT_TRUE(A.Tag.empty());
  EXPECT_EQ(A.DeadlineMs, 120u);

  // No option: DeadlineMs stays 0 (server default applies).
  Request N = parseRequestLine("@t1 2 + 2");
  EXPECT_EQ(N.DeadlineMs, 0u);
}

TEST(ServeProtocol, ParseSeqOptionAndCombinations) {
  Request R = parseRequestLine("@t7?seq=12 3 + 4");
  EXPECT_EQ(R.K, Request::Kind::Eval);
  EXPECT_EQ(R.Tag, "@t7");
  EXPECT_TRUE(R.HasSeq);
  EXPECT_EQ(R.Seq, 12u);
  EXPECT_EQ(R.DeadlineMs, 0u);

  Request Both = parseRequestLine("@t7?deadline=50&seq=12 3 + 4");
  EXPECT_EQ(Both.K, Request::Kind::Eval);
  EXPECT_EQ(Both.Tag, "@t7");
  EXPECT_EQ(Both.DeadlineMs, 50u);
  EXPECT_TRUE(Both.HasSeq);
  EXPECT_EQ(Both.Seq, 12u);

  // Anonymous seq (the Client's evalRetry wire form).
  Request Anon = parseRequestLine("@?seq=3 1 + 1");
  EXPECT_EQ(Anon.K, Request::Kind::Eval);
  EXPECT_TRUE(Anon.Tag.empty());
  EXPECT_TRUE(Anon.HasSeq);
  EXPECT_EQ(Anon.Seq, 3u);

  // seq=0 is a legal explicit sequence number.
  Request Zero = parseRequestLine("@?seq=0 1 + 1");
  EXPECT_TRUE(Zero.HasSeq);
  EXPECT_EQ(Zero.Seq, 0u);

  // No option: HasSeq stays off.
  EXPECT_FALSE(parseRequestLine("@t1 2 + 2").HasSeq);

  EXPECT_EQ(parseRequestLine("@t7?seq= 1 + 1").K, Request::Kind::Bad);
  EXPECT_EQ(parseRequestLine("@t7?seq=abc 1 + 1").K, Request::Kind::Bad);
  // Past 2^64 - 1: clamping would answer a different request from the
  // dedup table.
  EXPECT_EQ(parseRequestLine("@t7?seq=18446744073709551616 1 + 1").K,
            Request::Kind::Bad);
  EXPECT_EQ(parseRequestLine("@t7?deadline=50&nope=1 1 + 1").K,
            Request::Kind::Bad);
}

TEST(ServeProtocol, ParseSessionBind) {
  Request R = parseRequestLine("!session 41");
  EXPECT_EQ(R.K, Request::Kind::Session);
  EXPECT_EQ(R.SessionBind, 41u);
  Request T = parseRequestLine("@s !session 7");
  EXPECT_EQ(T.K, Request::Kind::Session);
  EXPECT_EQ(T.Tag, "@s");
  EXPECT_EQ(T.SessionBind, 7u);
  EXPECT_EQ(parseRequestLine("!session").K, Request::Kind::Bad);
  EXPECT_EQ(parseRequestLine("!session x7").K, Request::Kind::Bad);
  EXPECT_EQ(parseRequestLine("!session 18446744073709551616").K,
            Request::Kind::Bad);
}

TEST(ServeProtocol, ParseDeadlineOptionMalformed) {
  EXPECT_EQ(parseRequestLine("@t7?deadline= 1 + 1").K, Request::Kind::Bad);
  EXPECT_EQ(parseRequestLine("@t7?deadline=abc 1 + 1").K,
            Request::Kind::Bad);
  EXPECT_EQ(parseRequestLine("@t7?foo=1 1 + 1").K, Request::Kind::Bad);
  EXPECT_FALSE(parseRequestLine("@t7?foo=1 1 + 1").Error.empty());
  // The largest deadline whose nanoseconds fit in 64 bits, and one past it.
  Request Max = parseRequestLine("@t7?deadline=18446744073709 1 + 1");
  EXPECT_EQ(Max.K, Request::Kind::Eval);
  EXPECT_EQ(Max.DeadlineMs, 18446744073709u);
  EXPECT_EQ(parseRequestLine("@t7?deadline=18446744073710 1 + 1").K,
            Request::Kind::Bad);
}

TEST(ServeProtocol, ParseEscapedEvalSource) {
  // A multi-line doIt travels escaped and parses back to real newlines.
  Request R = parseRequestLine("| x |\\n x := 3.\\n ^x");
  EXPECT_EQ(R.K, Request::Kind::Eval);
  EXPECT_NE(R.Source.find('\n'), std::string::npos);
}

TEST(ServeProtocol, ParseAdmin) {
  EXPECT_EQ(parseRequestLine("!health").K, Request::Kind::Health);
  EXPECT_EQ(parseRequestLine("!checkpoint").K, Request::Kind::Checkpoint);
  EXPECT_EQ(parseRequestLine("!drain").K, Request::Kind::Drain);
  EXPECT_EQ(parseRequestLine("!quit").K, Request::Kind::Quit);
  Request K = parseRequestLine("!kill 3");
  EXPECT_EQ(K.K, Request::Kind::Kill);
  EXPECT_EQ(K.KillShard, 3u);
  Request T = parseRequestLine("@k !kill 0");
  EXPECT_EQ(T.K, Request::Kind::Kill);
  EXPECT_EQ(T.Tag, "@k");
}

TEST(ServeProtocol, ParseBad) {
  EXPECT_EQ(parseRequestLine("!kill").K, Request::Kind::Bad);
  EXPECT_EQ(parseRequestLine("!kill x").K, Request::Kind::Bad);
  EXPECT_EQ(parseRequestLine("!kill 4294967296").K, Request::Kind::Bad);
  EXPECT_EQ(parseRequestLine("!nosuch").K, Request::Kind::Bad);
  EXPECT_EQ(parseRequestLine("@tagonly").K, Request::Kind::Bad);
  EXPECT_FALSE(parseRequestLine("!nosuch").Error.empty());
}

TEST(ServeProtocol, ResponseRoundTrip) {
  bool Ok = false;
  std::string Tag, Value;
  ASSERT_TRUE(parseResponseLine("OK @t7 14", Ok, Tag, Value));
  EXPECT_TRUE(Ok);
  EXPECT_EQ(Tag, "@t7");
  EXPECT_EQ(Value, "14");

  std::string Line = formatResponse(false, "@x", "boom\nbang");
  EXPECT_EQ(Line.back(), '\n');
  Line.pop_back();
  ASSERT_TRUE(parseResponseLine(Line, Ok, Tag, Value));
  EXPECT_FALSE(Ok);
  EXPECT_EQ(Tag, "@x");
  EXPECT_EQ(Value, "boom\nbang");

  EXPECT_FALSE(parseResponseLine("NOPE", Ok, Tag, Value));
  EXPECT_FALSE(parseResponseLine("", Ok, Tag, Value));
}

TEST(ServeProtocol, NextLineFraming) {
  std::string Buf = "one\r\ntwo\nthr";
  std::string Line;
  bool TooLong = false;
  ASSERT_TRUE(nextLine(Buf, Line, 1024, TooLong));
  EXPECT_EQ(Line, "one"); // \r stripped
  ASSERT_TRUE(nextLine(Buf, Line, 1024, TooLong));
  EXPECT_EQ(Line, "two");
  EXPECT_FALSE(nextLine(Buf, Line, 1024, TooLong));
  EXPECT_FALSE(TooLong);
  EXPECT_EQ(Buf, "thr"); // partial tail kept

  Buf += "ee\n";
  ASSERT_TRUE(nextLine(Buf, Line, 1024, TooLong));
  EXPECT_EQ(Line, "three");
}

TEST(ServeProtocol, NextLineTooLong) {
  std::string Buf(100, 'x'); // unterminated, past the cap
  std::string Line;
  bool TooLong = false;
  EXPECT_FALSE(nextLine(Buf, Line, 10, TooLong));
  EXPECT_TRUE(TooLong);
}
