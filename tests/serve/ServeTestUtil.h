//===-- tests/serve/ServeTestUtil.h - Serving test helpers ------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared serving-test plumbing: a bootstrapped base image built once per
/// test binary (bootstrap is the expensive step; every shard then boots
/// from this snapshot in milliseconds) and a ready-to-start ServerConfig.
///
//===----------------------------------------------------------------------===//

#ifndef MST_TESTS_SERVE_SERVETESTUTIL_H
#define MST_TESTS_SERVE_SERVETESTUTIL_H

#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "image/Bootstrap.h"
#include "image/Snapshot.h"
#include "serve/Server.h"
#include "vm/VirtualMachine.h"

namespace mst {
namespace serve_test {

inline std::string makeTempDir() {
  char Buf[] = "/tmp/mst-serve-test-XXXXXX";
  const char *D = mkdtemp(Buf);
  EXPECT_NE(D, nullptr);
  return D ? D : "/tmp";
}

/// The prewarmed base image, bootstrapped once per test binary.
inline const std::string &baseImage() {
  static const std::string Path = [] {
    std::string P = makeTempDir() + "/base.image";
    VirtualMachine VM(VmConfig::multiprocessor(1));
    bootstrapImage(VM);
    std::string Error;
    if (!saveSnapshot(VM, P, Error)) {
      ADD_FAILURE() << "cannot build base image: " << Error;
      P.clear();
    }
    return P;
  }();
  return Path;
}

/// A server config sized for the test host: \p Shards shards booting
/// from the shared base image, checkpointing into \p DataDir.
inline serve::ServerConfig testServerConfig(unsigned Shards,
                                            const std::string &DataDir) {
  serve::ServerConfig C;
  C.Pool.Shards = Shards;
  C.Pool.BaseImage = baseImage();
  C.Pool.DataDir = DataDir;
  C.DrainTimeoutSec = 60.0;
  return C;
}

} // namespace serve_test
} // namespace mst

#endif // MST_TESTS_SERVE_SERVETESTUTIL_H
