//===-- tests/MemoryProbe.h - Resident-memory probes for tests --*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers for tests that bound how much memory an operation holds. They
/// read VmRSS/VmHWM from /proc/self/status (Linux), and run their bodies
/// in a forked child so rlimits and the peak-RSS counter belong to the
/// test alone.
///
//===----------------------------------------------------------------------===//

#ifndef MST_TESTS_MEMORYPROBE_H
#define MST_TESTS_MEMORYPROBE_H

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

namespace mst {
namespace test {

/// \returns the value of \p Field ("VmRSS", "VmHWM") in
/// /proc/self/status, in kB, or -1 when it cannot be read.
inline long procStatusKb(const char *Field) {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return -1;
  long Kb = -1;
  char Line[256] = {};
  size_t Len = std::strlen(Field);
  while (std::fgets(Line, sizeof(Line), F))
    if (std::strncmp(Line, Field, Len) == 0 && Line[Len] == ':') {
      Kb = std::strtol(Line + Len + 1, nullptr, 10);
      break;
    }
  std::fclose(F);
  return Kb;
}

/// Runs \p Op and \returns by how many kB it raised the peak RSS, or -1
/// when the peak cannot be reset to the current RSS first.
template <typename Fn> long peakGrowthKb(Fn &&Op) {
  std::FILE *F = std::fopen("/proc/self/clear_refs", "w");
  if (!F)
    return -1;
  bool Reset = std::fputs("5", F) >= 0;
  if (std::fclose(F) != 0 || !Reset)
    return -1;
  long Before = procStatusKb("VmHWM");
  Op();
  return procStatusKb("VmHWM") - Before;
}

/// Ends a forked child: exit 0 when \p Failure is empty, else print it
/// and exit 1.
[[noreturn]] inline void exitWithFailure(const std::string &Failure) {
  if (!Failure.empty())
    std::fprintf(stderr, "%s\n", Failure.c_str());
  std::_Exit(Failure.empty() ? 0 : 1);
}

} // namespace test
} // namespace mst

/// Runs its argument, a callable returning a failure message (empty on
/// success), in a forked child; the child's message fails the test.
#define EXPECT_PASSES_IN_CHILD(...)                                            \
  EXPECT_EXIT(::mst::test::exitWithFailure((__VA_ARGS__)()),                   \
              ::testing::ExitedWithCode(0), "")

#endif // MST_TESTS_MEMORYPROBE_H
