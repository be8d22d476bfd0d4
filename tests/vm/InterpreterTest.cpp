//===-- tests/vm/InterpreterTest.cpp - Interpreter behaviour --------------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "TestVm.h"

using namespace mst;

namespace {

class InterpreterTest : public ::testing::Test {
protected:
  TestVm T;
};

TEST_F(InterpreterTest, SmallIntegerArithmetic) {
  EXPECT_EQ(T.evalInt("^3 + 4"), 7);
  EXPECT_EQ(T.evalInt("^10 - 15"), -5);
  EXPECT_EQ(T.evalInt("^6 * 7"), 42);
  EXPECT_EQ(T.evalInt("^17 // 5"), 3);
  EXPECT_EQ(T.evalInt("^17 \\\\ 5"), 2);
  EXPECT_EQ(T.evalInt("^-17 // 5"), -4);  // floored division
  EXPECT_EQ(T.evalInt("^-17 \\\\ 5"), 3); // floored modulo
  EXPECT_EQ(T.evalInt("^3 + 4 * 2"), 14); // left-to-right binaries
}

TEST_F(InterpreterTest, BitAndBitOrTakeTheSmallIntegerFastPath) {
  EXPECT_EQ(T.evalInt("^12 bitAnd: 10"), 8);
  EXPECT_EQ(T.evalInt("^12 bitOr: 10"), 14);
  EXPECT_EQ(T.evalInt("^-1 bitAnd: 255"), 255);
  // An argument that is not a SmallInteger misses the fast path and
  // becomes a real send of the selector.
  T.eval("^Compiler compile: 'bitAnd: n ^#sentAnd' into: SmallInteger");
  T.eval("^Compiler compile: 'bitOr: n ^#sentOr' into: SmallInteger");
  EXPECT_EQ(T.evalString("^(3 bitAnd: nil) asString"), "sentAnd");
  EXPECT_EQ(T.evalString("^(3 bitOr: 'x') asString"), "sentOr");
  EXPECT_EQ(T.evalInt("^12 bitOr: 10"), 14); // still never sent
}

TEST_F(InterpreterTest, AssignmentsStoreIntoTheGlobalsAssociation) {
  T.eval("Smalltalk at: #Tally put: 1. ^nil");
  // Runtime associations are young: look the association up afresh.
  auto Tally = [this] {
    Oop Assoc = T.om().globalAssociation("Tally", /*CreateIfAbsent=*/false);
    return Assoc.isNull() ? Oop()
                          : ObjectMemory::fetchPointer(Assoc, AssocValue);
  };
  EXPECT_EQ(T.evalInt("Tally := Tally + 41. ^Tally"), 42);
  EXPECT_EQ(Tally(), Oop::fromSmallInt(42));
  T.eval("^Compiler compile: 'doubleTally Tally := Tally * 2' into: Object");
  T.eval("nil doubleTally. ^nil");
  EXPECT_EQ(Tally(), Oop::fromSmallInt(84));
}

TEST_F(InterpreterTest, Comparisons) {
  EXPECT_TRUE(T.evalBool("^3 < 4"));
  EXPECT_FALSE(T.evalBool("^4 < 3"));
  EXPECT_TRUE(T.evalBool("^4 >= 4"));
  EXPECT_TRUE(T.evalBool("^3 ~= 4"));
  EXPECT_TRUE(T.evalBool("^nil isNil"));
  EXPECT_TRUE(T.evalBool("^nil == nil"));
  EXPECT_FALSE(T.evalBool("^3 == 4"));
}

TEST_F(InterpreterTest, ControlFlowInlining) {
  EXPECT_EQ(T.evalInt("^true ifTrue: [1] ifFalse: [2]"), 1);
  EXPECT_EQ(T.evalInt("^false ifTrue: [1] ifFalse: [2]"), 2);
  EXPECT_EQ(T.evalInt("^3 < 4 ifTrue: [10]"), 10);
  EXPECT_EQ(T.eval("^4 < 3 ifTrue: [10]"), T.om().nil());
  EXPECT_TRUE(T.evalBool("^true and: [true]"));
  EXPECT_FALSE(T.evalBool("^false and: [true]"));
  EXPECT_TRUE(T.evalBool("^false or: [true]"));
  EXPECT_EQ(T.evalInt("| n | n := 0. [n < 10] whileTrue: [n := n + 1]. ^n"),
            10);
  EXPECT_EQ(T.evalInt("| s | s := 0. 1 to: 5 do: [:i | s := s + i]. ^s"),
            15);
}

TEST_F(InterpreterTest, Blocks) {
  EXPECT_EQ(T.evalInt("^[42] value"), 42);
  EXPECT_EQ(T.evalInt("^[:x | x * 2] value: 21"), 42);
  EXPECT_EQ(T.evalInt("^[:a :b | a + b] value: 40 value: 2"), 42);
  EXPECT_EQ(T.evalInt("| b | b := [:x | x + 1]. ^(b value: 1) + "
                      "(b value: 2)"),
            5);
}

TEST_F(InterpreterTest, NonLocalReturn) {
  EXPECT_EQ(T.evalInt("^5 factorial"), 120);
  // detect:ifNone: relies on ^ inside a block unwinding to the method's
  // sender.
  EXPECT_EQ(
      T.evalInt("| c | c := OrderedCollection new. c add: 1; add: 7; add: "
                "3. ^c detect: [:e | e > 5] ifNone: [0]"),
      7);
}

TEST_F(InterpreterTest, Strings) {
  EXPECT_EQ(T.evalInt("^'hello' size"), 5);
  EXPECT_EQ(T.evalString("^'foo', 'bar'"), "foobar");
  EXPECT_TRUE(T.evalBool("^'abc' = 'abc'"));
  EXPECT_FALSE(T.evalBool("^'abc' = 'abd'"));
  EXPECT_EQ(T.evalString("^'hello' copyFrom: 2 to: 4"), "ell");
  EXPECT_EQ(T.evalString("^42 printString"), "42");
  EXPECT_EQ(T.evalString("^-7 printString"), "-7");
  EXPECT_EQ(T.evalString("^#foo printString"), "#foo");
  EXPECT_EQ(T.evalString("^'hi' printString"), "'hi'");
  EXPECT_EQ(T.evalString("^nil printString"), "nil");
  EXPECT_EQ(T.evalString("^(3 @ 4) printString"), "3 @ 4");
}

TEST_F(InterpreterTest, Collections) {
  EXPECT_EQ(T.evalInt("| c | c := OrderedCollection new. 1 to: 100 do: "
                      "[:i | c add: i]. ^c size"),
            100);
  EXPECT_EQ(T.evalInt("| c | c := OrderedCollection new. 1 to: 10 do: [:i "
                      "| c add: i * i]. ^c inject: 0 into: [:a :b | a + "
                      "b]"),
            385);
  EXPECT_EQ(T.evalInt("| d | d := Dictionary new. d at: #a put: 1. d at: "
                      "#b put: 2. d at: #a put: 10. ^(d at: #a) + (d at: "
                      "#b)"),
            12);
  EXPECT_EQ(T.evalInt("| d | d := Dictionary new. 1 to: 50 do: [:i | d "
                      "at: i put: i * 2]. ^d size"),
            50);
  EXPECT_TRUE(T.evalBool("^#(1 2 3) = #(1 2 3)"));
  EXPECT_EQ(T.evalInt("^#(3 1 4 1 5) size"), 5);
}

TEST_F(InterpreterTest, ClassesAndMessages) {
  EXPECT_EQ(T.evalString("^3 class name asString"), "SmallInteger");
  EXPECT_EQ(T.evalString("^'x' class name asString"), "String");
  EXPECT_TRUE(T.evalBool("^3 isKindOf: Integer"));
  EXPECT_TRUE(T.evalBool("^3 isKindOf: Magnitude"));
  EXPECT_FALSE(T.evalBool("^3 isKindOf: String"));
  EXPECT_EQ(T.evalInt("^(Array new: 5) size"), 5);
  EXPECT_EQ(T.evalInt("| a | a := Array new: 1. a at: 1 put: 4. ^3 "
                      "perform: #+ withArguments: a"),
            7);
}

TEST_F(InterpreterTest, SuperSends) {
  // Symbol inherits printString machinery but overrides printOn:.
  EXPECT_EQ(T.evalString("^#abc asString"), "abc");
  EXPECT_EQ(T.evalString("^#abc printString"), "#abc");
}

TEST_F(InterpreterTest, Cascades) {
  EXPECT_EQ(T.evalInt("| c | c := OrderedCollection new. c add: 1; add: "
                      "2; add: 3. ^c size"),
            3);
  EXPECT_EQ(T.evalString("| s | s := WriteStream on: (String new: 4). s "
                         "nextPutAll: 'ab'; nextPutAll: 'cd'. ^s "
                         "contents"),
            "abcd");
}

} // namespace
