//===-- bench/bench_prewarm.cpp - Build a prewarmed benchmark image -------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bootstraps the kernel image, compiles the Table 2 macro-workload
/// definitions, and saves the result as a crash-consistent snapshot.
/// The bench binaries then boot every system state from this image via
/// `--image=PATH`, so a multi-state suite pays the bootstrap + workload
/// compilation cost once instead of per state, and the per-state
/// `img.load.millis` histogram in the --json-out telemetry records how
/// long image startup actually takes.
///
///   ./bench/bench_prewarm prewarmed.image
///   ./bench/bench_table2 --image=prewarmed.image ...
///
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

using namespace mst;

int main(int argc, char **argv) {
  std::string Out = "prewarmed.image";
  if (argc > 2 || (argc == 2 && argv[1][0] == '-')) {
    std::fprintf(stderr, "usage: %s [OUT_PATH]\n", argv[0]);
    return 2;
  }
  if (argc == 2)
    Out = argv[1];

  // The image content is configuration-independent (objects, roots,
  // symbols) — one prewarmed snapshot serves baseline-BS and every MS
  // worker count alike.
  VirtualMachine VM(VmConfig::multiprocessor(1));
  double T0 = Telemetry::nowNs() / 1e9;
  bootstrapImage(VM);
  setupMacroWorkload(VM);
  double T1 = Telemetry::nowNs() / 1e9;

  std::string Error;
  if (!saveSnapshot(VM, Out, Error)) {
    std::fprintf(stderr, "cannot save prewarmed image: %s\n", Error.c_str());
    VM.shutdown();
    return 1;
  }
  double T2 = Telemetry::nowNs() / 1e9;
  std::printf("prewarmed image saved to %s (bootstrap+workload %.2fs, "
              "snapshot %.2fs)\n",
              Out.c_str(), T1 - T0, T2 - T1);
  VM.shutdown();
  return 0;
}
