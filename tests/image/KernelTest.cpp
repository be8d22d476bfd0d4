//===-- tests/image/KernelTest.cpp - Kernel class behaviour ---------------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Behavioural tests of the kernel library the image is made of —
/// booleans, magnitudes, characters, strings, collections, streams —
/// including property-style sweeps against C++ reference models.
///
//===----------------------------------------------------------------------===//

#include <map>

#include "TestVm.h"

#include "support/SplitMix64.h"

using namespace mst;

namespace {

class KernelTest : public ::testing::Test {
protected:
  TestVm T;
};

TEST_F(KernelTest, BooleanProtocol) {
  EXPECT_FALSE(T.evalBool("^true not"));
  EXPECT_TRUE(T.evalBool("^false not"));
  EXPECT_TRUE(T.evalBool("^true & true"));
  EXPECT_FALSE(T.evalBool("^true & false"));
  EXPECT_TRUE(T.evalBool("^false | true"));
  EXPECT_TRUE(T.evalBool("^true xor: false"));
  EXPECT_FALSE(T.evalBool("^true xor: true"));
  EXPECT_EQ(T.evalString("^true printString"), "true");
}

TEST_F(KernelTest, MagnitudeProtocol) {
  EXPECT_EQ(T.evalInt("^3 max: 7"), 7);
  EXPECT_EQ(T.evalInt("^3 min: 7"), 3);
  EXPECT_TRUE(T.evalBool("^5 between: 1 and: 10"));
  EXPECT_FALSE(T.evalBool("^15 between: 1 and: 10"));
  EXPECT_TRUE(T.evalBool("^$a < $b"));
  EXPECT_TRUE(T.evalBool("^'apple' < 'banana'"));
  EXPECT_TRUE(T.evalBool("^'app' < 'apple'"));
}

TEST_F(KernelTest, IntegerProtocol) {
  EXPECT_EQ(T.evalInt("^-7 abs"), 7);
  EXPECT_EQ(T.evalInt("^7 negated"), -7);
  EXPECT_EQ(T.evalInt("^0 sign + 5 sign + -3 sign"), 0);
  EXPECT_TRUE(T.evalBool("^4 even"));
  EXPECT_TRUE(T.evalBool("^7 odd"));
  EXPECT_EQ(T.evalInt("^6 gcd: 15"), 3);
  EXPECT_EQ(T.evalInt("^6 factorial"), 720);
  EXPECT_EQ(T.evalInt("^2 bitShift: 10"), 2048);
  EXPECT_EQ(T.evalInt("^2048 bitShift: -10"), 2);
  EXPECT_EQ(T.evalInt("| n | n := 0. 5 timesRepeat: [n := n + 2]. ^n"),
            10);
  EXPECT_EQ(T.evalInt("| s | s := 0. 10 to: 2 by: -2 do: [:i | s := s + "
                      "i]. ^s"),
            30);
}

TEST_F(KernelTest, CharacterProtocol) {
  EXPECT_TRUE(T.evalBool("^$5 isDigit"));
  EXPECT_FALSE(T.evalBool("^$a isDigit"));
  EXPECT_TRUE(T.evalBool("^$a isLetter"));
  EXPECT_TRUE(T.evalBool("^$e isVowel"));
  EXPECT_FALSE(T.evalBool("^$z isVowel"));
  EXPECT_EQ(T.evalInt("^$a asInteger"), 97);
  EXPECT_EQ(T.evalString("^$q printString"), "$q");
  EXPECT_TRUE(T.evalBool("^65 asCharacter == $A"));
}

TEST_F(KernelTest, StringProtocol) {
  EXPECT_EQ(T.evalInt("^'hello' indexOf: $l"), 3);
  EXPECT_EQ(T.evalInt("^'hello' indexOf: $z"), 0);
  EXPECT_EQ(T.evalString("^'abc' , '' , 'def'"), "abcdef");
  EXPECT_TRUE(T.evalBool("^'' isEmpty"));
  EXPECT_TRUE(T.evalBool("^'abc' = ('abcdef' copyFrom: 1 to: 3)"));
  EXPECT_TRUE(T.evalBool("^'abc' hash = 'abc' hash"));
  EXPECT_EQ(T.evalString("| s | s := WriteStream on: (String new: 3). "
                         "'abc' reverseDo: [:c | s nextPut: c]. "
                         "^s contents"),
            "cba");
}

TEST_F(KernelTest, CollectionEnumeration) {
  EXPECT_EQ(T.evalInt("^#(1 2 3 4) inject: 0 into: [:a :b | a + b]"), 10);
  EXPECT_EQ(T.evalInt("^(#(5 2 9 1) select: [:x | x > 2]) size"), 2);
  EXPECT_EQ(T.evalInt("^(#(5 2 9 1) reject: [:x | x > 2]) size"), 2);
  EXPECT_EQ(T.evalInt("^(#(1 2 3) collect: [:x | x * x]) last"), 9);
  EXPECT_EQ(T.evalInt("^#(4 5 6) detect: [:x | x even] ifNone: [0]"), 4);
  EXPECT_EQ(T.evalInt("^#(1 3 5) detect: [:x | x even] ifNone: [-1]"),
            -1);
  EXPECT_TRUE(T.evalBool("^#(1 2 3) includes: 2"));
  EXPECT_FALSE(T.evalBool("^#(1 2 3) includes: 9"));
  EXPECT_EQ(T.evalInt("| n | n := 0. #(1 2 3) withIndexDo: [:e :i | n := "
                      "n + (e * i)]. ^n"),
            14);
}

TEST_F(KernelTest, OrderedCollectionBehaviour) {
  EXPECT_EQ(T.evalInt("| c | c := OrderedCollection new. 1 to: 100 do: "
                      "[:i | c add: i]. c removeFirst. c removeFirst. "
                      "^c first"),
            3);
  EXPECT_EQ(T.evalInt("| c | c := OrderedCollection new. c addAll: #(7 8 "
                      "9). ^c last"),
            9);
  EXPECT_EQ(T.evalInt("| c | c := OrderedCollection new. c add: 1. c at: "
                      "1 put: 42. ^c at: 1"),
            42);
  EXPECT_EQ(T.evalInt("^(OrderedCollection new addAll: #(1 2 3); "
                      "yourself) asArray size"),
            3);
  // Bounds are checked.
  Oop R = T.vm().compileAndRun(
      "| c | c := OrderedCollection new. ^c at: 1");
  EXPECT_TRUE(R.isNull()) << "out-of-range at: must fail";
}

TEST_F(KernelTest, StreamBehaviour) {
  EXPECT_EQ(T.evalString("| s | s := WriteStream on: (String new: 2). s "
                         "nextPutAll: 'hello'; space; print: 42. "
                         "^s contents"),
            "hello 42");
  EXPECT_EQ(T.evalString("| r | r := ReadStream on: 'ab cd'. r upTo: "
                         "(Character value: 32). ^r upTo: (Character "
                         "value: 32)"),
            "cd");
  EXPECT_TRUE(T.evalBool("| r | r := ReadStream on: ''. ^r atEnd"));
  EXPECT_EQ(T.evalInt("| r n | r := ReadStream on: #(1 2 3). n := 0. "
                      "[r atEnd] whileFalse: [n := n + r next]. ^n"),
            6);
}

TEST_F(KernelTest, AssociationAndPoint) {
  EXPECT_EQ(T.evalString("^(3 -> 'x') printString"), "3 -> 'x'");
  EXPECT_EQ(T.evalInt("^(3 -> 4) key + (3 -> 4) value"), 7);
  EXPECT_TRUE(T.evalBool("^(Point x: 1 y: 2) = (Point x: 1 y: 2)"));
  EXPECT_FALSE(T.evalBool("^(Point x: 1 y: 2) = (Point x: 2 y: 1)"));
  EXPECT_EQ(T.evalString("^((3 @ 4) - (1 @ 1)) printString"), "2 @ 3");
}

TEST_F(KernelTest, ErrorsTerminateCleanly) {
  Oop R = T.vm().compileAndRun("^nil zork");
  EXPECT_TRUE(R.isNull());
  auto Errors = T.vm().errors();
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors.front().find("zork"), std::string::npos);
  // The VM stays healthy after an error.
  EXPECT_EQ(T.evalInt("^1 + 1"), 2);
}

TEST_F(KernelTest, DoesNotUnderstandIsDispatched) {
  // A user-defined doesNotUnderstand: intercepts unknown sends.
  Oop Cls = defineClass(T.vm(), "Echo", "Object", ClassKind::Fixed, {},
                        "Tests");
  addMethod(T.vm(), Cls, "error handling",
            "doesNotUnderstand: aMessage ^aMessage selector");
  Oop R = T.eval("^Echo new fooBar");
  EXPECT_EQ(R, T.om().intern("fooBar"));
}

/// Property: Smalltalk Dictionary matches a C++ reference map across
/// random operation sequences.
class DictionaryPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(DictionaryPropertyTest, MatchesReferenceModel) {
  TestVm T;
  T.eval("Smalltalk at: #D put: Dictionary new. ^1");
  std::map<int, int> Ref;
  SplitMix64 Rng(GetParam());
  for (int Step = 0; Step < 120; ++Step) {
    int K = static_cast<int>(Rng.nextBelow(30));
    if (Rng.nextBelow(3) != 0) {
      int V = static_cast<int>(Rng.nextBelow(1000));
      Ref[K] = V;
      T.evalInt("^(Smalltalk at: #D) at: " + std::to_string(K) +
                " put: " + std::to_string(V));
    } else {
      intptr_t Got = T.evalInt("^(Smalltalk at: #D) at: " +
                               std::to_string(K) + " ifAbsent: [-1]");
      auto It = Ref.find(K);
      EXPECT_EQ(Got, It == Ref.end() ? -1 : It->second)
          << "seed " << GetParam() << " step " << Step << " key " << K;
    }
    if (Step % 20 == 19) {
      EXPECT_EQ(T.evalInt("^(Smalltalk at: #D) size"),
                static_cast<intptr_t>(Ref.size()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DictionaryPropertyTest,
                         ::testing::Values(11u, 22u, 33u));

/// Property: SmallInteger arithmetic agrees with C++ (floored division).
class ArithmeticPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(ArithmeticPropertyTest, MatchesHostSemantics) {
  TestVm T;
  SplitMix64 Rng(GetParam());
  for (int I = 0; I < 60; ++I) {
    intptr_t A = static_cast<intptr_t>(Rng.nextBelow(20001)) - 10000;
    intptr_t B = static_cast<intptr_t>(Rng.nextBelow(20001)) - 10000;
    if (B == 0)
      B = 7;
    auto S = [](intptr_t V) { return std::to_string(V); };
    EXPECT_EQ(T.evalInt("^" + S(A) + " + " + S(B)), A + B);
    EXPECT_EQ(T.evalInt("^" + S(A) + " * " + S(B)), A * B);
    // Floored division and modulo.
    intptr_t Q = A / B;
    if (A % B != 0 && ((A < 0) != (B < 0)))
      --Q;
    intptr_t M = A % B;
    if (M != 0 && ((M < 0) != (B < 0)))
      M += B;
    EXPECT_EQ(T.evalInt("^" + S(A) + " // " + S(B)), Q);
    EXPECT_EQ(T.evalInt("^" + S(A) + " \\\\ " + S(B)), M);
    EXPECT_EQ(T.evalBool("^" + S(A) + " < " + S(B)), A < B);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArithmeticPropertyTest,
                         ::testing::Values(5u, 6u));

TEST_F(KernelTest, IntervalProtocol) {
  EXPECT_EQ(T.evalInt("^(1 to: 5) size"), 5);
  EXPECT_EQ(T.evalInt("^(5 to: 1) size"), 0);
  EXPECT_EQ(T.evalInt("^(1 to: 10 by: 3) size"), 4);
  EXPECT_EQ(T.evalInt("^(10 to: 1 by: -2) size"), 5);
  EXPECT_EQ(T.evalInt("^(3 to: 9 by: 2) at: 2"), 5);
  EXPECT_EQ(T.evalInt("^(2 to: 20) first + (2 to: 20) last"), 22);
  EXPECT_EQ(T.evalInt("^(1 to: 100) inject: 0 into: [:a :b | a + b]"),
            5050);
  EXPECT_TRUE(T.evalBool("^(2 to: 10 by: 2) includes: 6"));
  EXPECT_FALSE(T.evalBool("^(2 to: 10 by: 2) includes: 5"));
  EXPECT_EQ(T.evalString("^(1 to: 5) printString"), "1 to: 5");
  EXPECT_EQ(T.evalString("^(1 to: 9 by: 2) printString"), "1 to: 9 by: 2");
  EXPECT_EQ(T.evalInt("^(1 to: 4) asArray size"), 4);
  EXPECT_EQ(T.evalInt("^((1 to: 5) collect: [:x | x * x]) last"), 25);
}

TEST_F(KernelTest, SetProtocol) {
  EXPECT_EQ(T.evalInt("| s | s := Set new. s add: 1; add: 2; add: 1. "
                      "^s size"),
            2);
  EXPECT_TRUE(T.evalBool("| s | s := Set new. s add: 'abc'. ^s "
                         "includes: ('abcdef' copyFrom: 1 to: 3)"));
  EXPECT_FALSE(T.evalBool("| s | s := Set new. s add: 3. ^s includes: 4"));
  // Growth keeps everything findable.
  EXPECT_TRUE(T.evalBool(
      "| s ok | s := Set new. 1 to: 100 do: [:i | s add: i]. ok := s "
      "size = 100. 1 to: 100 do: [:i | (s includes: i) ifFalse: [ok := "
      "false]]. ^ok"));
  EXPECT_EQ(T.evalInt("| s t | s := Set new. s add: 5; add: 7. t := 0. "
                      "s do: [:e | t := t + e]. ^t"),
            12);
}

TEST_F(KernelTest, ErrorBacktracesNameTheCallChain) {
  Oop Cls = defineClass(T.vm(), "Cratered", "Object", ClassKind::Fixed,
                        {}, "Tests");
  addMethod(T.vm(), Cls, "t", "inner ^self error: 'boom'");
  addMethod(T.vm(), Cls, "t", "outer ^self inner");
  Oop R = T.vm().compileAndRun("^Cratered new outer");
  EXPECT_TRUE(R.isNull());
  ASSERT_FALSE(T.vm().errors().empty());
  const std::string E = T.vm().errors().back();
  EXPECT_NE(E.find("boom"), std::string::npos) << E;
  EXPECT_NE(E.find("Cratered>>inner"), std::string::npos) << E;
  EXPECT_NE(E.find("Cratered>>outer"), std::string::npos) << E;
  EXPECT_NE(E.find("UndefinedObject>>doIt"), std::string::npos) << E;
}

TEST_F(KernelTest, ExtendedProtocol) {
  EXPECT_TRUE(T.evalBool("^'x' isString"));
  EXPECT_TRUE(T.evalBool("^#x isSymbol"));
  EXPECT_TRUE(T.evalBool("^#x isString")); // symbols are strings
  EXPECT_TRUE(T.evalBool("^3 isNumber"));
  EXPECT_TRUE(T.evalBool("^$a isCharacter"));
  EXPECT_TRUE(T.evalBool("^Array isClass"));
  EXPECT_FALSE(T.evalBool("^3 isString"));
  EXPECT_TRUE(T.evalBool("^#(1 2 3) anySatisfy: [:x | x even]"));
  EXPECT_FALSE(T.evalBool("^#(1 3 5) anySatisfy: [:x | x even]"));
  EXPECT_TRUE(T.evalBool("^#(2 4 6) allSatisfy: [:x | x even]"));
  EXPECT_EQ(T.evalInt("^#(1 2 3 4 5 6) count: [:x | x odd]"), 3);
  EXPECT_EQ(T.evalInt("^#(1 2 2 3 3 3) asSet size"), 3);
  EXPECT_EQ(T.evalString("^('ab' copyWith: $c)"), "abc");
  EXPECT_EQ(T.evalInt("| c | c := OrderedCollection new. c addAll: #(1 "
                      "2 3). c removeLast. ^c last"),
            2);
  EXPECT_EQ(T.evalString("^'MiXeD 42!' asUppercase"), "MIXED 42!");
  EXPECT_EQ(T.evalString("^'MiXeD 42!' asLowercase"), "mixed 42!");
  EXPECT_TRUE(T.evalBool("^'hello world' startsWith: 'hello'"));
  EXPECT_FALSE(T.evalBool("^'hello' startsWith: 'hello world'"));
}

TEST_F(KernelTest, DictionaryRemoveKey) {
  EXPECT_EQ(T.evalInt("| d | d := Dictionary new. d at: #a put: 1. d "
                      "at: #b put: 2. d removeKey: #a. ^d size"),
            1);
  EXPECT_EQ(T.evalInt("| d | d := Dictionary new. d at: #a put: 7. "
                      "^d removeKey: #a"),
            7);
  EXPECT_EQ(T.evalInt("| d | d := Dictionary new. ^d removeKey: #zork "
                      "ifAbsent: [-1]"),
            -1);
  // Removal does not disturb other probe chains.
  EXPECT_TRUE(T.evalBool(
      "| d ok | d := Dictionary new. 1 to: 40 do: [:i | d at: i put: i "
      "* 2]. 1 to: 40 do: [:i | i even ifTrue: [d removeKey: i]]. ok := "
      "d size = 20. 1 to: 40 do: [:i | i odd ifTrue: [(d at: i ifAbsent: "
      "[-1]) = (i * 2) ifFalse: [ok := false]] ifFalse: [(d includesKey: "
      "i) ifTrue: [ok := false]]]. ^ok"));
}

TEST_F(KernelTest, SystemDictionaryGrowsPastBootstrapTable) {
  // The bootstrap table holds 128 slots with ~50 kernel globals already
  // installed. Before SystemDictionary>>at:put: learned to grow, the
  // 78th eval-side global filled the table completely and the probe
  // loop spun forever (no empty slot, no wrap guard) — a single
  // `Smalltalk at: #X put: 0` wedged a serving shard permanently.
  EXPECT_TRUE(T.evalBool(
      "| ok | 1 to: 300 do: [:i | Smalltalk at: i printString asSymbol "
      "put: i * 3]. ok := true. 1 to: 300 do: [:i | (Smalltalk at: i "
      "printString asSymbol) = (i * 3) ifFalse: [ok := false]]. ^ok"));
  // Growth keeps the probe chains coherent: a lookup that hashed into
  // the old table still lands in the rebuilt one.
  EXPECT_EQ(T.evalInt("^Smalltalk at: 250 printString asSymbol"), 750);
}

TEST_F(KernelTest, ConstructorsAndCollectionMath) {
  EXPECT_EQ(T.evalInt("^(Array with: 7) first"), 7);
  EXPECT_EQ(T.evalInt("^(Array with: 1 with: 2 with: 3) sum"), 6);
  EXPECT_EQ(T.evalInt("^#(4 9 2 7) maxValue"), 9);
  EXPECT_EQ(T.evalInt("^#(4 9 2 7) minValue"), 2);
  EXPECT_EQ(T.evalInt("^(1 to: 10) sum"), 55);
  EXPECT_EQ(T.evalInt("^(OrderedCollection withAll: #(5 6)) sum"), 11);
  EXPECT_EQ(T.evalInt("| c | c := OrderedCollection withAll: #(2 3). c "
                      "addFirst: 1. ^c first * 100 + c last"),
            103);
  // addFirst: keeps working past the front of the buffer.
  EXPECT_TRUE(T.evalBool(
      "| c ok | c := OrderedCollection new. 50 to: 1 by: -1 do: [:i | c "
      "addFirst: i]. ok := c size = 50. 1 to: 50 do: [:i | (c at: i) = i "
      "ifFalse: [ok := false]]. ^ok"));
}

/// Smalltalk source for \p N. The most negative SmallInteger has no
/// literal: its magnitude does not fit a SmallInteger.
std::string smallIntExpr(intptr_t N) {
  if (N == SmallIntMin)
    return "(0 - " + std::to_string(SmallIntMax) + " - 1)";
  return "(" + std::to_string(N) + ")";
}

TEST_F(KernelTest, SmallIntegerPrintStringAgreesWithPrintOn) {
  // printString is primitive 12; printOn: is the Smalltalk code the
  // primitive falls back to. Both print every SmallInteger, the most
  // negative one included.
  for (intptr_t N : {intptr_t(0), intptr_t(1), intptr_t(-1), intptr_t(9),
                     intptr_t(-9), intptr_t(10), intptr_t(-10),
                     intptr_t(1000000), SmallIntMax, SmallIntMin}) {
    SCOPED_TRACE(N);
    std::string E = smallIntExpr(N);
    EXPECT_EQ(T.evalString("^" + E + " printString"), std::to_string(N));
    EXPECT_EQ(T.evalString("| s | s := WriteStream on: (String new: 4). " +
                           E + " printOn: s. ^s contents"),
              std::to_string(N));
  }
  EXPECT_EQ(T.evalString("| s | s := WriteStream on: (String new: 4). " +
                         smallIntExpr(SmallIntMin) +
                         " printOn: s base: 2. ^s contents"),
            "-1" + std::string(62, '0'));
}

TEST_F(KernelTest, PrintStringPrimitiveFailsOverToItsSmalltalkCode) {
  // Paper §3.3: a receiver the primitive does not serve runs the method's
  // Smalltalk code.
  addMethod(T.vm(), T.om().known().ClassObject, "testing",
            "probe <primitive: 12> ^#fallback");
  EXPECT_EQ(T.evalString("^'abc' probe"), "fallback");
  EXPECT_EQ(T.evalString("^nil probe"), "fallback");
  EXPECT_EQ(T.evalString("^42 probe"), "42");
}

TEST_F(KernelTest, SmallIntegerPrintStringOverrideWins) {
  // An Integer>>printOn: override no longer reaches a SmallInteger's
  // printString, as in Squeak; a SmallInteger>>printString override does.
  addMethod(T.vm(), T.om().known().ClassInteger, "printing",
            "printOn: aStream aStream nextPutAll: 'int'");
  EXPECT_EQ(T.evalString("^3 printString"), "3");
  addMethod(T.vm(), T.om().known().ClassSmallInteger, "printing",
            "printString ^'mine'");
  EXPECT_EQ(T.evalString("^3 printString"), "mine");
  VirtualMachine::EvalResult R = T.vm().evaluate("3 + 4");
  ASSERT_TRUE(R.Ok) << R.Value;
  EXPECT_EQ(R.Value, "mine");
}

TEST_F(KernelTest, IntegerOverflowIsAnError) {
  // No LargeIntegers in this kernel: overflow falls back to the Integer
  // method, which raises a clean error rather than wrapping.
  Oop R = T.vm().compileAndRun("^4611686018427387903 + 1");
  EXPECT_TRUE(R.isNull());
  ASSERT_FALSE(T.vm().errors().empty());
  EXPECT_NE(T.vm().errors().front().find("overflow"), std::string::npos);
}

} // namespace
