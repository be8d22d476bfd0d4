//===-- serve/Protocol.cpp - Line-delimited request protocol --------------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"

#include <climits>

using namespace mst;
using namespace mst::serve;

std::string serve::escapeLine(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      Out += C;
    }
  }
  return Out;
}

std::string serve::unescapeLine(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (size_t I = 0; I < S.size(); ++I) {
    if (S[I] != '\\' || I + 1 == S.size()) {
      Out += S[I];
      continue;
    }
    switch (S[++I]) {
    case 'n':
      Out += '\n';
      break;
    case 'r':
      Out += '\r';
      break;
    case '\\':
      Out += '\\';
      break;
    default: // unknown escape: keep both characters
      Out += '\\';
      Out += S[I];
    }
  }
  return Out;
}

bool serve::parseDecimal(const std::string &S, uint64_t Max,
                         uint64_t &Out) {
  if (S.empty())
    return false;
  uint64_t V = 0;
  for (char C : S) {
    if (C < '0' || C > '9')
      return false;
    unsigned D = static_cast<unsigned>(C - '0');
    if (V > (Max - D) / 10)
      return false;
    V = V * 10 + D;
  }
  Out = V;
  return true;
}

Request serve::parseRequestLine(const std::string &Line) {
  Request R;
  if (Line.empty()) {
    R.K = Request::Kind::Bad;
    R.Error = "empty request";
    return R;
  }
  std::string Rest = Line;
  if (Rest[0] == '@') {
    size_t Sp = Rest.find(' ');
    if (Sp == std::string::npos || Sp == 1) {
      R.K = Request::Kind::Bad;
      R.Error = "malformed tag: expected '@tag source'";
      return R;
    }
    R.Tag = Rest.substr(0, Sp);
    Rest = Rest.substr(Sp + 1);
    // `@tag?deadline=MS&seq=N` — options ride the tag token, separated
    // by '&'; the echoed tag is the bare prefix (empty for the anonymous
    // `@?deadline=MS`).
    size_t Qm = R.Tag.find('?');
    if (Qm != std::string::npos) {
      std::string Opts = R.Tag.substr(Qm + 1);
      R.Tag = R.Tag.substr(0, Qm);
      size_t Start = 0;
      while (Start <= Opts.size()) {
        size_t Amp = Opts.find('&', Start);
        std::string Opt = Amp == std::string::npos
                              ? Opts.substr(Start)
                              : Opts.substr(Start, Amp - Start);
        size_t Eq = Opt.find('=');
        std::string Key =
            Eq == std::string::npos ? Opt : Opt.substr(0, Eq);
        std::string Val =
            Eq == std::string::npos ? "" : Opt.substr(Eq + 1);
        bool Parsed = false;
        if (Key == "deadline") {
          Parsed = parseDecimal(Val, MaxDeadlineMs, R.DeadlineMs);
        } else if (Key == "seq") {
          R.HasSeq = true;
          Parsed = parseDecimal(Val, UINT64_MAX, R.Seq);
        }
        if (!Parsed) {
          R.K = Request::Kind::Bad;
          R.Error = "malformed tag option: expected "
                    "'@tag?deadline=MS' and/or '&seq=N'";
          return R;
        }
        if (Amp == std::string::npos)
          break;
        Start = Amp + 1;
      }
      if (R.Tag == "@")
        R.Tag.clear();
    }
    if (Rest.empty()) {
      R.K = Request::Kind::Bad;
      R.Error = "empty source after tag";
      return R;
    }
  }
  if (Rest[0] != '!') {
    R.K = Request::Kind::Eval;
    R.Source = unescapeLine(Rest);
    return R;
  }
  // Admin commands. A tag is legal on any of them.
  size_t Sp = Rest.find(' ');
  std::string Cmd = Sp == std::string::npos ? Rest : Rest.substr(0, Sp);
  std::string Arg = Sp == std::string::npos ? "" : Rest.substr(Sp + 1);
  if (Cmd == "!health") {
    R.K = Request::Kind::Health;
  } else if (Cmd == "!session") {
    if (!parseDecimal(Arg, UINT64_MAX, R.SessionBind)) {
      R.K = Request::Kind::Bad;
      R.Error = "!session needs a numeric client id";
      return R;
    }
    R.K = Request::Kind::Session;
  } else if (Cmd == "!checkpoint") {
    R.K = Request::Kind::Checkpoint;
  } else if (Cmd == "!kill") {
    uint64_t Shard = 0;
    if (!parseDecimal(Arg, UINT_MAX, Shard)) {
      R.K = Request::Kind::Bad;
      R.Error = "!kill needs a shard number";
      return R;
    }
    R.K = Request::Kind::Kill;
    R.KillShard = static_cast<unsigned>(Shard);
  } else if (Cmd == "!drain") {
    R.K = Request::Kind::Drain;
  } else if (Cmd == "!quit") {
    R.K = Request::Kind::Quit;
  } else {
    R.K = Request::Kind::Bad;
    R.Error = "unknown admin command: " + Cmd;
  }
  return R;
}

std::string serve::formatResponse(bool Ok, const std::string &Tag,
                                  const std::string &Value) {
  std::string Out = Ok ? "OK " : "ERR ";
  if (!Tag.empty())
    Out += Tag + ' ';
  Out += escapeLine(Value);
  Out += '\n';
  return Out;
}

bool serve::parseResponseLine(const std::string &Line, bool &Ok,
                              std::string &Tag, std::string &Value) {
  std::string Rest;
  if (Line.rfind("OK ", 0) == 0) {
    Ok = true;
    Rest = Line.substr(3);
  } else if (Line.rfind("ERR ", 0) == 0) {
    Ok = false;
    Rest = Line.substr(4);
  } else {
    return false;
  }
  Tag.clear();
  if (!Rest.empty() && Rest[0] == '@') {
    size_t Sp = Rest.find(' ');
    if (Sp == std::string::npos)
      return false;
    Tag = Rest.substr(0, Sp);
    Rest = Rest.substr(Sp + 1);
  }
  Value = unescapeLine(Rest);
  return true;
}

bool serve::nextLine(std::string &Buf, std::string &Line, size_t MaxLine,
                     bool &TooLong) {
  TooLong = false;
  size_t Nl = Buf.find('\n');
  if (Nl == std::string::npos) {
    if (Buf.size() > MaxLine)
      TooLong = true;
    return false;
  }
  if (Nl > MaxLine) {
    TooLong = true;
    return false;
  }
  Line = Buf.substr(0, Nl);
  if (!Line.empty() && Line.back() == '\r')
    Line.pop_back();
  Buf.erase(0, Nl + 1);
  return true;
}
