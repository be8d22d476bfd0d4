//===-- tests/vm/CompilerTest.cpp - Bytecode generation --------------------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiler tests, including the paper's §4 claim about the idle Process:
/// `[true] whileTrue` must compile to bytecode "which neither looks up
/// messages nor allocates memory".
///
//===----------------------------------------------------------------------===//

#include "TestVm.h"

#include "vm/Bytecode.h"
#include "vm/Compiler.h"

using namespace mst;

namespace {

class CompilerTest : public ::testing::Test {
protected:
  TestVm T;

  /// Compiles a doIt and returns its bytecodes.
  std::vector<uint8_t> bytecodesFor(const std::string &Src) {
    CompileResult R = compileDoItSource(
        T.om(), T.om().known().ClassUndefinedObject, Src);
    EXPECT_TRUE(R.ok()) << R.Error << " for: " << Src;
    if (!R.ok())
      return {};
    Oop Bytes = ObjectMemory::fetchPointer(R.Method, MthBytecodes);
    const uint8_t *P = Bytes.object()->bytes();
    return std::vector<uint8_t>(P, P + Bytes.object()->ByteLength);
  }

  /// Counts occurrences of opcode \p O in \p Code (operand-aware walk).
  static unsigned countOp(const std::vector<uint8_t> &Code, Op O) {
    unsigned N = 0;
    for (uint32_t Ip = 0; Ip < Code.size();
         Ip += instructionLength(Code.data(), Ip))
      if (static_cast<Op>(Code[Ip]) == O)
        ++N;
    return N;
  }
};

TEST_F(CompilerTest, IdleProcessHasNoSendsNoAllocations) {
  // Paper §4: the idle Process `[true] whileTrue` is "translated by the
  // compiler into bytecode which neither looks up messages nor allocates
  // memory" — no sends of any kind, and no block creation.
  auto Code = bytecodesFor("[true] whileTrue");
  ASSERT_FALSE(Code.empty());
  EXPECT_EQ(countOp(Code, Op::Send), 0u);
  EXPECT_EQ(countOp(Code, Op::SendSuper), 0u);
  EXPECT_EQ(countOp(Code, Op::SendSpecial), 0u);
  EXPECT_EQ(countOp(Code, Op::BlockCopy), 0u);
  EXPECT_GE(countOp(Code, Op::Jump) + countOp(Code, Op::JumpIfFalse) +
                countOp(Code, Op::JumpIfTrue),
            1u);
}

TEST_F(CompilerTest, ConditionalsAreInlined) {
  auto Code = bytecodesFor("^1 < 2 ifTrue: [3] ifFalse: [4]");
  EXPECT_EQ(countOp(Code, Op::Send), 0u);
  EXPECT_EQ(countOp(Code, Op::BlockCopy), 0u);
  EXPECT_EQ(countOp(Code, Op::JumpIfFalse), 1u);
}

TEST_F(CompilerTest, ToDoIsInlined) {
  auto Code = bytecodesFor("| s | s := 0. 1 to: 10 do: [:i | s := s + "
                           "i]. ^s");
  EXPECT_EQ(countOp(Code, Op::Send), 0u);
  EXPECT_EQ(countOp(Code, Op::BlockCopy), 0u);
}

TEST_F(CompilerTest, NonLiteralBlockFallsBackToRealSend) {
  // A block held in a temporary cannot be inlined.
  auto Code = bytecodesFor("| b | b := [1]. ^b value");
  EXPECT_EQ(countOp(Code, Op::BlockCopy), 1u);
  EXPECT_GE(countOp(Code, Op::Send), 1u);
}

TEST_F(CompilerTest, BlocksWithTempsFallBackForWhile) {
  // Block-local temps defeat the whileTrue: inliner (home-frame layout);
  // the send form must be emitted instead.
  auto Code = bytecodesFor(
      "| n | n := 0. [n < 3] whileTrue: [ | x | x := 1. n := n + x]. ^n");
  EXPECT_GE(countOp(Code, Op::BlockCopy), 2u);
  EXPECT_GE(countOp(Code, Op::Send), 1u);
}

TEST_F(CompilerTest, SpecialSelectorsUseSpecialSends) {
  auto Code = bytecodesFor("^3 + 4 * 5 - (1 bitAnd: 3)");
  EXPECT_EQ(countOp(Code, Op::Send), 0u);
  EXPECT_EQ(countOp(Code, Op::SendSpecial), 4u);
}

TEST_F(CompilerTest, SmallIntegerImmediates) {
  auto Code = bytecodesFor("^100 + 200");
  EXPECT_EQ(countOp(Code, Op::PushSmallInt), 1u);  // 100 fits in s8
  EXPECT_EQ(countOp(Code, Op::PushLiteral), 1u);   // 200 does not
}

TEST_F(CompilerTest, MethodMetadata) {
  CompileResult R = compileMethodSource(
      T.om(), T.om().known().ClassObject,
      "foo: a bar: b | t1 t2 t3 | t1 := a. ^t1");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(ObjectMemory::fetchPointer(R.Method, MthNumArgs).smallInt(), 2);
  EXPECT_EQ(ObjectMemory::fetchPointer(R.Method, MthNumTemps).smallInt(),
            5);
  EXPECT_EQ(ObjectMemory::fetchPointer(R.Method, MthPrimitive).smallInt(),
            0);
  EXPECT_GE(ObjectMemory::fetchPointer(R.Method, MthFrameSize).smallInt(),
            5);
  Oop Sel = ObjectMemory::fetchPointer(R.Method, MthSelector);
  EXPECT_EQ(ObjectModel::stringValue(Sel), "foo:bar:");
  EXPECT_TRUE(R.Method.object()->isOld());
}

TEST_F(CompilerTest, LiteralsAreDeduplicated) {
  CompileResult R = compileDoItSource(
      T.om(), T.om().known().ClassUndefinedObject,
      "^#foo == #foo"); // same symbol twice
  ASSERT_TRUE(R.ok());
  Oop Lits = ObjectMemory::fetchPointer(R.Method, MthLiterals);
  EXPECT_EQ(Lits.object()->SlotCount, 1u);
}

TEST_F(CompilerTest, UndeclaredVariableIsAnError) {
  CompileResult R = compileDoItSource(
      T.om(), T.om().known().ClassUndefinedObject, "^frobnicate");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("undeclared"), std::string::npos);
  R = compileDoItSource(T.om(), T.om().known().ClassUndefinedObject,
                        "Frobnicate := 3");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("cannot assign to undeclared variable "
                         "'Frobnicate'"),
            std::string::npos)
      << R.Error;
}

TEST_F(CompilerTest, StatementsAfterReturnAreAnError) {
  CompileResult R = compileDoItSource(
      T.om(), T.om().known().ClassUndefinedObject, "^1. ^2");
  EXPECT_FALSE(R.ok());
}

TEST_F(CompilerTest, InstanceVariableResolution) {
  // Point has ivars x and y; a method on Point resolves them to
  // PushInstVar, not globals.
  Oop Point = T.om().globalAt("Point");
  CompileResult R = compileMethodSource(T.om(), Point, "sum ^x + y");
  ASSERT_TRUE(R.ok()) << R.Error;
  Oop Bytes = ObjectMemory::fetchPointer(R.Method, MthBytecodes);
  const uint8_t *P = Bytes.object()->bytes();
  std::vector<uint8_t> Code(P, P + Bytes.object()->ByteLength);
  unsigned IvarPushes = 0;
  for (uint32_t Ip = 0; Ip < Code.size();
       Ip += instructionLength(Code.data(), Ip))
    if (static_cast<Op>(Code[Ip]) == Op::PushInstVar)
      ++IvarPushes;
  EXPECT_EQ(IvarPushes, 2u);
}

TEST_F(CompilerTest, SuperSendsEmitSendSuper) {
  Oop Sym = T.om().globalAt("Symbol");
  CompileResult R =
      compileMethodSource(T.om(), Sym, "probe ^super printString");
  ASSERT_TRUE(R.ok()) << R.Error;
  Oop Bytes = ObjectMemory::fetchPointer(R.Method, MthBytecodes);
  const uint8_t *P = Bytes.object()->bytes();
  bool FoundSuper = false;
  for (uint32_t Ip = 0; Ip < Bytes.object()->ByteLength;
       Ip += instructionLength(P, Ip))
    if (static_cast<Op>(P[Ip]) == Op::SendSuper)
      FoundSuper = true;
  EXPECT_TRUE(FoundSuper);
}

TEST_F(CompilerTest, CascadeUsesDup) {
  auto Code = bytecodesFor(
      "| c | c := OrderedCollection new. c add: 1; add: 2. ^c");
  EXPECT_GE(countOp(Code, Op::Dup), 1u);
}

} // namespace
