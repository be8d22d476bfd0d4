//===-- tests/vm/DecompilerTest.cpp - Decompilation ------------------------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "TestVm.h"

#include "vm/Compiler.h"

#include "vm/Bytecode.h"
#include "vm/Compiler.h"
#include "vm/Decompiler.h"

using namespace mst;

namespace {

class DecompilerTest : public ::testing::Test {
protected:
  TestVm T;

  std::string decompile(const std::string &MethodSrc) {
    CompileResult R = compileMethodSource(
        T.om(), T.om().globalAt("Point"), MethodSrc);
    EXPECT_TRUE(R.ok()) << R.Error;
    return R.ok() ? decompileMethod(T.om(), R.Method) : "";
  }

  /// Compiles \p Src, decompiles it, recompiles the result, and expects
  /// identical bytecodes — the strong round-trip property for
  /// straight-line methods.
  void roundTrip(const std::string &Src) {
    CompileResult A = compileMethodSource(
        T.om(), T.om().globalAt("Point"), Src);
    ASSERT_TRUE(A.ok()) << A.Error;
    std::string Decompiled = decompileMethod(T.om(), A.Method);
    CompileResult B = compileMethodSource(
        T.om(), T.om().globalAt("Point"), Decompiled);
    ASSERT_TRUE(B.ok()) << B.Error << "\ndecompiled source:\n"
                        << Decompiled;
    Oop BytesA = ObjectMemory::fetchPointer(A.Method, MthBytecodes);
    Oop BytesB = ObjectMemory::fetchPointer(B.Method, MthBytecodes);
    ASSERT_EQ(BytesA.object()->ByteLength, BytesB.object()->ByteLength)
        << "round trip changed code size for:\n"
        << Src << "\ndecompiled:\n"
        << Decompiled;
    EXPECT_EQ(0, memcmp(BytesA.object()->bytes(), BytesB.object()->bytes(),
                        BytesA.object()->ByteLength))
        << "round trip changed bytecode for:\n"
        << Src;
  }
};

TEST_F(DecompilerTest, SimpleAccessorsRoundTrip) {
  roundTrip("x ^x");
  roundTrip("setX: ax x := ax");
  roundTrip("double ^x + x");
  roundTrip("sum ^x + y");
}

TEST_F(DecompilerTest, SendsRoundTrip) {
  roundTrip("report ^x printString , y printString");
  roundTrip("norm2 ^(x * x) + (y * y)");
  roundTrip("asPointString ^Point x: y y: x");
}

TEST_F(DecompilerTest, TempsAndStatementsRoundTrip) {
  roundTrip("swap | t | t := x. x := y. y := t. ^self");
}

TEST_F(DecompilerTest, GlobalAssignmentRoundTrips) {
  T.eval("Smalltalk at: #Tally put: 0. ^nil");
  EXPECT_NE(decompile("record Tally := x. ^self").find("Tally := x"),
            std::string::npos);
  roundTrip("record Tally := x + y. ^self");
}

TEST_F(DecompilerTest, PatternReconstruction) {
  std::string Out = decompile("at: i put: v ^v");
  EXPECT_NE(Out.find("at: arg1 put: arg2"), std::string::npos) << Out;
}

TEST_F(DecompilerTest, ControlFlowFallsBackToListing) {
  std::string Out = decompile("probe ^x > 0 ifTrue: ['pos'] ifFalse: "
                              "['neg']");
  EXPECT_NE(Out.find("decompiled listing"), std::string::npos) << Out;
  EXPECT_NE(Out.find("JumpIfFalse"), std::string::npos) << Out;
  // Literals are resolved in the listing.
  EXPECT_NE(Out.find("'pos'"), std::string::npos) << Out;
}

TEST_F(DecompilerTest, BlockRoundTrips) {
  roundTrip("adder ^[:n | n + x]");
  roundTrip("twoArg ^[:a :b | a + b]");
  roundTrip("thunk ^[x]");
  roundTrip("emptyThunk ^[]");
}

TEST_F(DecompilerTest, BlocksReconstruct) {
  std::string Out = decompile("adder ^[:n | n + x]");
  EXPECT_NE(Out.find("[:"), std::string::npos) << Out;
  EXPECT_NE(Out.find("+"), std::string::npos) << Out;
}

TEST_F(DecompilerTest, WorksThroughThePrimitive) {
  // The Decompiler global drives primitive 51.
  std::string Out = T.evalString(
      "^Decompiler decompile: (Point compiledMethodAt: #x)");
  EXPECT_NE(Out.find("^x"), std::string::npos) << Out;
}

TEST(BytecodeTest, InstructionLengths) {
  uint8_t Code[8] = {};
  Code[0] = static_cast<uint8_t>(Op::PushSelf);
  EXPECT_EQ(instructionLength(Code, 0), 1u);
  Code[0] = static_cast<uint8_t>(Op::PushTemp);
  EXPECT_EQ(instructionLength(Code, 0), 2u);
  Code[0] = static_cast<uint8_t>(Op::Send);
  EXPECT_EQ(instructionLength(Code, 0), 3u);
  Code[0] = static_cast<uint8_t>(Op::BlockCopy);
  EXPECT_EQ(instructionLength(Code, 0), 5u);
}

TEST(BytecodeTest, DisassembleFormats) {
  uint8_t Code[8] = {};
  Code[0] = static_cast<uint8_t>(Op::Send);
  Code[1] = 3;
  Code[2] = 2;
  EXPECT_NE(disassembleOne(Code, 0).find("Send lit3 argc2"),
            std::string::npos);
  Code[0] = static_cast<uint8_t>(Op::PushSmallInt);
  Code[1] = static_cast<uint8_t>(-5);
  EXPECT_NE(disassembleOne(Code, 0).find("-5"), std::string::npos);
  Code[0] = static_cast<uint8_t>(Op::SendSpecial);
  Code[1] = static_cast<uint8_t>(SpecialSelector::Add);
  EXPECT_NE(disassembleOne(Code, 0).find("+"), std::string::npos);
}

TEST(BytecodeTest, SpecialSelectorNamesAreDistinct) {
  for (size_t I = 0;
       I < static_cast<size_t>(SpecialSelector::NumSpecialSelectors); ++I)
    for (size_t J = I + 1;
         J < static_cast<size_t>(SpecialSelector::NumSpecialSelectors);
         ++J)
      EXPECT_STRNE(
          specialSelectorName(static_cast<SpecialSelector>(I)),
          specialSelectorName(static_cast<SpecialSelector>(J)));
}

} // namespace
