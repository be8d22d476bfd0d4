//===-- tests/integration/ConfigMatrixTest.cpp - Table 3 policy matrix ----===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Table 3 as an executable matrix: every combination of the strategy
/// policies — method cache (serialized/replicated), free contexts
/// (serialized/replicated), allocation (serialized/replicated TLABs),
/// and MP support on/off — must run the same workload to the same answer.
///
//===----------------------------------------------------------------------===//

#include <tuple>

#include "TestVm.h"

using namespace mst;

namespace {

using Combo = std::tuple<MethodCacheKind, FreeContextKind, AllocatorKind,
                         bool /*MpSupport*/>;

class ConfigMatrixTest : public ::testing::TestWithParam<Combo> {};

TEST_P(ConfigMatrixTest, WorkloadIsPolicyInvariant) {
  auto [Cache, FreeCtx, Alloc, Mp] = GetParam();
  VmConfig C = Mp ? VmConfig::multiprocessor(2) : VmConfig::baselineBS();
  C.CacheKind = Cache;
  C.FreeCtxKind = FreeCtx;
  C.Memory.Allocator = Alloc;
  C.Memory.EdenBytes = 512 * 1024; // force scavenges through every policy
  TestVm T(C);

  // A mixed workload touching sends, contexts, allocation, and GC.
  // printOn: runs the Smalltalk digit loop; SmallInteger>>printString is
  // a primitive.
  EXPECT_EQ(T.evalInt(
                "| c w | c := OrderedCollection new. 1 to: 500 do: [:i | w "
                ":= WriteStream on: (String new: 16). i printOn: w. c add: "
                "w contents]. ^c inject: 0 into: [:a :s | a + s size]"),
            9 * 1 + 90 * 2 + 401 * 3); // digit counts of 1..500
  EXPECT_EQ(T.evalInt("^12 factorial // 11 factorial"), 12);
  EXPECT_TRUE(T.vm().errors().empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, ConfigMatrixTest,
    ::testing::Combine(
        ::testing::Values(MethodCacheKind::GlobalLocked,
                          MethodCacheKind::Replicated),
        ::testing::Values(FreeContextKind::Shared,
                          FreeContextKind::Replicated),
        ::testing::Values(AllocatorKind::Serialized, AllocatorKind::Tlab),
        ::testing::Bool()),
    [](const auto &Info) {
      // NOTE: no structured bindings here — the preprocessor would split
      // the macro argument on the commas inside the brackets.
      std::string N;
      N += std::get<0>(Info.param) == MethodCacheKind::GlobalLocked
               ? "LockedCache"
               : "ReplCache";
      N += std::get<1>(Info.param) == FreeContextKind::Shared
               ? "SharedCtx"
               : "ReplCtx";
      N += std::get<2>(Info.param) == AllocatorKind::Serialized
               ? "SerialAlloc"
               : "TlabAlloc";
      N += std::get<3>(Info.param) ? "Mp" : "NoMp";
      return N;
    });

/// Table 1 in executable form: the structural relations between the
/// Smalltalk level and the interpreter level.
TEST(LayersTest, ProcessAndInterpreterRelationships) {
  VmConfig C = VmConfig::multiprocessor(3);
  TestVm T(C);
  T.vm().startInterpreters();

  // "Execution process is ... lightweight process": one V process per
  // interpreter, statically assigned to the kernel's processors.
  EXPECT_EQ(T.vm().kernel().numProcesses(), 3u);
  EXPECT_EQ(T.vm().kernel().numProcessors(), VirtualMachine::Processors);

  // "Compiled code consists of byte code ... resides in object memory":
  // a CompiledMethod's bytecodes are an image-level ByteArray.
  EXPECT_TRUE(T.evalBool(
      "^(Point compiledMethodAt: #x) literals class == Array"));
  EXPECT_TRUE(T.evalBool("^(Point compiledMethodAt: #x) class == "
                         "CompiledMethod"));

  // "Execution scheduler is ... ProcessorScheduler": Smalltalk Processes
  // queue on the image-visible Processor object.
  unsigned Sig = T.vm().createHostSignal();
  T.vm().forkDoIt("nil hostSignal: " + std::to_string(Sig), 5, "probe");
  EXPECT_TRUE(T.vm().waitHostSignal(Sig, 1, 20.0));
}

} // namespace
