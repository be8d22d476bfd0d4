//===-- perfbench/driver/Json.h - Minimal JSON output helpers ---*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef MST_PERFBENCH_JSON_H
#define MST_PERFBENCH_JSON_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// \returns \p S as a quoted JSON string.
inline std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    unsigned char U = static_cast<unsigned char>(C);
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (U < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof Buf, "\\u%04x", U);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

/// \returns \p V with every significant digit.
inline std::string jsonNumber(double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof Buf, "%.17g", V);
  return Buf;
}

/// \returns \p Vs as a JSON array of integers.
inline std::string jsonArray(const std::vector<uint64_t> &Vs) {
  std::string Out = "[";
  for (uint64_t V : Vs) {
    if (Out.size() > 1)
      Out += ',';
    Out += std::to_string(V);
  }
  return Out + "]";
}

} // namespace perfbench

#endif // MST_PERFBENCH_JSON_H
