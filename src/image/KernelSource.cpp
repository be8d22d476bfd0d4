//===-- image/KernelSource.cpp - Embedded kernel Smalltalk code -----------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The kernel class library in Smalltalk source, compiled into the image
/// at bootstrap. It supplies what the macro benchmarks traverse and what
/// user programs need: printing, collections, streams, class browsing
/// (definitions, hierarchies, senders, implementors, organizations),
/// processes and semaphores — the user-visible environment MS left
/// unchanged (paper §1.2).
///
//===----------------------------------------------------------------------===//

#include "image/Bootstrap.h"

using namespace mst;

const std::vector<MethodDef> &mst::kernelMethods() {
  static const std::vector<MethodDef> Table = {

      /// --- Object ---------------------------------------------------------
      {"Object", false, "comparing", "= other ^self == other"},
      {"Object", false, "comparing", "~= other ^(self = other) not"},
      {"Object", false, "comparing",
       "identityHash <primitive: 7> ^0"},
      {"Object", false, "comparing", "hash ^self identityHash"},
      {"Object", false, "testing", "isNil ^false"},
      {"Object", false, "testing", "notNil ^true"},
      {"Object", false, "testing",
       "isKindOf: aClass | c | c := self class. [c notNil] whileTrue: [c "
       "== aClass ifTrue: [^true]. c := c superclass]. ^false"},
      {"Object", false, "testing",
       "isMemberOf: aClass ^self class == aClass"},
      {"Object", false, "accessing",
       "class <primitive: 6> ^self error: 'class primitive failed'"},
      {"Object", false, "accessing",
       "at: index <primitive: 1> ^self error: 'at: index out of range'"},
      {"Object", false, "accessing",
       "at: index put: value <primitive: 2> ^self error: 'at:put: index "
       "out of range'"},
      {"Object", false, "accessing",
       "size <primitive: 3> ^self error: 'size primitive failed'"},
      {"Object", false, "accessing",
       "basicSize <primitive: 3> ^0"},
      {"Object", false, "accessing",
       "instVarAt: index <primitive: 16> ^self error: 'instVarAt: out of "
       "range'"},
      {"Object", false, "accessing",
       "instVarAt: index put: value <primitive: 17> ^self error: "
       "'instVarAt:put: out of range'"},
      {"Object", false, "accessing", "yourself ^self"},
      {"Object", false, "accessing", "species ^self class"},
      {"Object", false, "converting",
       "-> anObject ^Association basicNew setKey: self value: anObject"},
      {"Object", false, "copying",
       "shallowCopy <primitive: 8> ^self error: 'cannot copy this "
       "object'"},
      {"Object", false, "copying", "copy ^self shallowCopy"},
      {"Object", false, "printing",
       "printString | stream | stream := WriteStream on: (String new: "
       "16). self printOn: stream. ^stream contents"},
      {"Object", false, "printing",
       "printOn: aStream | n | n := self class name asString. aStream "
       "nextPutAll: ((n isEmpty not and: [(n at: 1) isVowel]) ifTrue: "
       "['an '] ifFalse: ['a ']). aStream nextPutAll: n"},
      {"Object", false, "error handling",
       "error: aString <primitive: 63> ^nil"},
      {"Object", false, "error handling",
       "doesNotUnderstand: aMessage ^self error: 'does not understand ', "
       "aMessage selector asString"},
      {"Object", false, "error handling",
       "subclassResponsibility ^self error: 'subclass responsibility'"},
      {"Object", false, "error handling",
       "shouldNotImplement ^self error: 'should not implement'"},
      {"Object", false, "message handling",
       "perform: aSelector withArguments: anArray <primitive: 70> ^self "
       "error: 'perform failed'"},
      {"Object", false, "message handling",
       "perform: aSelector ^self perform: aSelector withArguments: (Array "
       "new: 0)"},
      {"Object", false, "user interface",
       "inspect ^Inspector on: self"},
      {"Object", false, "system",
       "hostSignal: anInteger <primitive: 60> ^self error: 'host signal "
       "failed'"},
      {"Object", false, "system",
       "forceScavenge <primitive: 62> ^self error: 'scavenge failed'"},
      {"Object", false, "system",
       "fullCollect <primitive: 64> ^self error: 'full collection failed'"},
      {"Object", false, "system",
       "lowSpaceSemaphore: aSemaphore <primitive: 65> ^self error: "
       "'low-space registration failed'"},
      {"Object", false, "system",
       "millisecondClock <primitive: 42> ^self error: 'clock failed'"},

      /// --- UndefinedObject --------------------------------------------
      {"UndefinedObject", false, "testing", "isNil ^true"},
      {"UndefinedObject", false, "testing", "notNil ^false"},
      {"UndefinedObject", false, "printing",
       "printOn: aStream aStream nextPutAll: 'nil'"},

      /// --- Boolean / True / False ------------------------------------------
      {"Boolean", false, "logic", "xor: aBoolean ^self == aBoolean not"},
      {"True", false, "logic", "not ^false"},
      {"True", false, "logic", "& aBoolean ^aBoolean"},
      {"True", false, "logic", "| aBoolean ^true"},
      {"True", false, "controlling", "ifTrue: aBlock ^aBlock value"},
      {"True", false, "controlling", "ifFalse: aBlock ^nil"},
      {"True", false, "controlling",
       "ifTrue: tBlock ifFalse: fBlock ^tBlock value"},
      {"True", false, "controlling", "and: aBlock ^aBlock value"},
      {"True", false, "controlling", "or: aBlock ^true"},
      {"True", false, "printing",
       "printOn: aStream aStream nextPutAll: 'true'"},
      {"False", false, "logic", "not ^true"},
      {"False", false, "logic", "& aBoolean ^false"},
      {"False", false, "logic", "| aBoolean ^aBoolean"},
      {"False", false, "controlling", "ifTrue: aBlock ^nil"},
      {"False", false, "controlling", "ifFalse: aBlock ^aBlock value"},
      {"False", false, "controlling",
       "ifTrue: tBlock ifFalse: fBlock ^fBlock value"},
      {"False", false, "controlling", "and: aBlock ^false"},
      {"False", false, "controlling", "or: aBlock ^aBlock value"},
      {"False", false, "printing",
       "printOn: aStream aStream nextPutAll: 'false'"},

      /// --- Magnitude -----------------------------------------------------
      {"Magnitude", false, "comparing",
       "< other ^self subclassResponsibility"},
      {"Magnitude", false, "comparing", "> other ^other < self"},
      {"Magnitude", false, "comparing", "<= other ^(other < self) not"},
      {"Magnitude", false, "comparing", ">= other ^(self < other) not"},
      {"Magnitude", false, "comparing",
       "max: other ^self > other ifTrue: [self] ifFalse: [other]"},
      {"Magnitude", false, "comparing",
       "min: other ^self < other ifTrue: [self] ifFalse: [other]"},
      {"Magnitude", false, "comparing",
       "between: lo and: hi ^lo <= self and: [self <= hi]"},

      /// --- Integer / SmallInteger ------------------------------------------
      {"Integer", false, "arithmetic",
       "+ other ^self error: 'SmallInteger overflow or bad + argument'"},
      {"Integer", false, "arithmetic",
       "- other ^self error: 'SmallInteger overflow or bad - argument'"},
      {"Integer", false, "arithmetic",
       "* other ^self error: 'SmallInteger overflow or bad * argument'"},
      {"Integer", false, "arithmetic",
       "// other ^self error: 'division by zero or bad // argument'"},
      {"Integer", false, "arithmetic",
       "\\\\ other ^self error: 'division by zero or bad \\\\ argument'"},
      {"Integer", false, "arithmetic", "abs ^self < 0 ifTrue: [0 - self] "
                                       "ifFalse: [self]"},
      {"Integer", false, "arithmetic", "negated ^0 - self"},
      {"Integer", false, "arithmetic",
       "sign self > 0 ifTrue: [^1]. self < 0 ifTrue: [^-1]. ^0"},
      {"Integer", false, "testing", "isZero ^self = 0"},
      {"Integer", false, "testing", "even ^(self \\\\ 2) = 0"},
      {"Integer", false, "testing", "odd ^(self \\\\ 2) = 1"},
      {"Integer", false, "mathematics",
       "factorial self < 2 ifTrue: [^1]. ^self * (self - 1) factorial"},
      {"Integer", false, "mathematics",
       "gcd: other | a b t | a := self abs. b := other abs. [b > 0] "
       "whileTrue: [t := a \\\\ b. a := b. b := t]. ^a"},
      {"Integer", false, "iterating",
       "to: limit do: aBlock | i | i := self. [i <= limit] whileTrue: "
       "[aBlock value: i. i := i + 1]. ^self"},
      {"Integer", false, "iterating",
       "to: limit by: step do: aBlock | i | i := self. step > 0 ifTrue: "
       "[[i <= limit] whileTrue: [aBlock value: i. i := i + step]] "
       "ifFalse: [[i >= limit] whileTrue: [aBlock value: i. i := i + "
       "step]]. ^self"},
      {"Integer", false, "iterating",
       "timesRepeat: aBlock | n | n := self. [n > 0] whileTrue: [aBlock "
       "value. n := n - 1]. ^self"},
      {"Integer", false, "converting",
       "asCharacter ^Character value: self"},
      {"Integer", false, "printing",
       "printOn: aStream ^self printOn: aStream base: 10"},
      // A negative receiver gives up its last digit before it is negated,
      // so the most negative SmallInteger prints without overflowing; 64
      // digits hold any SmallInteger in base 2.
      {"Integer", false, "printing",
       "printOn: aStream base: b | n digits i d | n := self. n = 0 "
       "ifTrue: [aStream nextPut: $0. ^self]. digits := String new: 64. i "
       ":= 0. n < 0 ifTrue: [aStream nextPut: $-. d := 0 - (n \\\\ b) "
       "\\\\ b. i := 1. digits at: 1 put: (Character value: 48 + d). n := "
       "0 - (n + d // b)]. [n > 0] whileTrue: [i := i + 1. digits at: i "
       "put: (Character value: 48 + (n \\\\ b)). n := n // b]. [i > 0] "
       "whileTrue: [aStream nextPut: (digits at: i). i := i - 1]"},
      // Paper §3.3's compatibility rule: an interpreter without
      // primitive 12 runs the Smalltalk code above.
      {"SmallInteger", false, "printing",
       "printString <primitive: 12> ^super printString"},

      /// --- Character -----------------------------------------------------
      {"Character", false, "accessing", "value ^value"},
      {"Character", false, "converting", "asInteger ^value"},
      {"Character", false, "converting", "asCharacter ^self"},
      {"Character", false, "comparing", "< other ^value < other value"},
      {"Character", false, "comparing", "= other ^self == other"},
      {"Character", false, "testing",
       "isDigit ^value >= 48 and: [value <= 57]"},
      {"Character", false, "testing",
       "isLetter ^(value >= 65 and: [value <= 90]) or: [value >= 97 and: "
       "[value <= 122]]"},
      {"Character", false, "testing",
       "isVowel ^self == $A or: [self == $E or: [self == $I or: [self == "
       "$O or: [self == $U or: [self == $a or: [self == $e or: [self == "
       "$i or: [self == $o or: [self == $u]]]]]]]]]"},
      {"Character", false, "printing",
       "printOn: aStream aStream nextPut: $$. aStream nextPut: self"},
      {"Character", true, "instance creation",
       "value: anInteger <primitive: 13> ^self error: 'bad character "
       "value'"},
      {"Character", true, "constants", "cr ^Character value: 10"},
      {"Character", true, "constants", "space ^Character value: 32"},
      {"Character", true, "constants", "tab ^Character value: 9"},

      /// --- Behavior (classes) ----------------------------------------------
      {"Behavior", false, "instance creation",
       "basicNew <primitive: 4> ^self error: 'cannot instantiate'"},
      {"Behavior", false, "instance creation",
       "basicNew: size <primitive: 5> ^self error: 'cannot instantiate "
       "with size'"},
      {"Behavior", false, "instance creation", "new ^self basicNew"},
      {"Behavior", false, "instance creation",
       "new: size ^self basicNew: size"},
      {"Behavior", false, "accessing", "name ^name"},
      {"Behavior", false, "accessing", "superclass ^superclass"},
      {"Behavior", false, "accessing", "methodDict ^methodDict"},
      {"Behavior", false, "accessing",
       "instanceVariableNames ^instVarNames"},
      {"Behavior", false, "accessing", "category ^category"},
      {"Behavior", false, "accessing", "comment ^comment"},
      {"Behavior", false, "accessing", "organization ^organization"},
      {"Behavior", false, "accessing",
       "organization: anOrganization organization := anOrganization"},
      {"Behavior", false, "testing",
       "includesSelector: aSelector self selectorsDo: [:s | s == "
       "aSelector ifTrue: [^true]]. ^false"},
      {"Behavior", false, "enumerating",
       "selectorsDo: aBlock methodDict isNil ifTrue: [^self]. methodDict "
       "keysAndValuesDo: [:k :v | aBlock value: k]"},
      {"Behavior", false, "enumerating",
       "selectors | c | c := OrderedCollection new. self selectorsDo: [:s "
       "| c add: s]. ^c"},
      {"Behavior", false, "accessing",
       "compiledMethodAt: aSelector methodDict isNil ifTrue: [^nil]. "
       "methodDict keysAndValuesDo: [:k :v | k == aSelector ifTrue: "
       "[^v]]. ^nil"},
      {"Behavior", false, "enumerating",
       "subclassesDo: aBlock Smalltalk allClassesDo: [:c | c superclass "
       "== self ifTrue: [aBlock value: c]]"},
      {"Behavior", false, "printing",
       "printOn: aStream aStream nextPutAll: name asString"},
      {"Behavior", false, "browsing",
       "definition | s | s := WriteStream on: (String new: 64). "
       "superclass isNil ifTrue: [s nextPutAll: 'nil'] ifFalse: [s "
       "nextPutAll: superclass name asString]. s nextPutAll: ' subclass: "
       "#'; nextPutAll: name asString. s nextPutAll: ' "
       "instanceVariableNames: '''. instVarNames isNil ifFalse: [1 to: "
       "instVarNames size do: [:i | s nextPutAll: (instVarNames at: i) "
       "asString. i < instVarNames size ifTrue: [s nextPut: $ ]]]. s "
       "nextPutAll: ''' category: '''. category isNil ifFalse: [s "
       "nextPutAll: category]. s nextPutAll: ''''. ^s contents"},
      {"Behavior", false, "browsing",
       "printHierarchy | s | s := WriteStream on: (String new: 128). self "
       "printHierarchyOn: s indent: 0. ^s contents"},
      {"Behavior", false, "browsing",
       "printHierarchyOn: aStream indent: n 1 to: n do: [:i | aStream "
       "nextPutAll: '  ']. aStream nextPutAll: name asString. aStream "
       "nextPut: Character cr. self subclassesDo: [:c | c "
       "printHierarchyOn: aStream indent: n + 1]"},

      {"Class", false, "subclass creation",
       "subclass: aSymbol instanceVariableNames: ivarString category: "
       "catString | cls | cls := self basicSubclass: aSymbol "
       "instanceVariableNames: ivarString category: catString. cls "
       "organization: ClassOrganization new. ^cls"},
      {"Class", false, "subclass creation",
       "basicSubclass: aSymbol instanceVariableNames: ivarString "
       "category: catString <primitive: 55> ^self error: 'subclass "
       "creation failed'"},

      /// --- MethodDictionary ---------------------------------------------
      {"MethodDictionary", false, "accessing", "size ^tally"},
      {"MethodDictionary", false, "enumerating",
       "keysAndValuesDo: aBlock | i k | i := 1. [i < table size] "
       "whileTrue: [k := table at: i. k isNil ifFalse: [aBlock value: k "
       "value: (table at: i + 1)]. i := i + 2]"},

      /// --- CompiledMethod ------------------------------------------------
      {"CompiledMethod", false, "accessing", "selector ^selector"},
      {"CompiledMethod", false, "accessing", "numArgs ^numArgs"},
      {"CompiledMethod", false, "accessing", "literals ^literals"},
      {"CompiledMethod", false, "accessing", "methodClass ^methodClass"},
      {"CompiledMethod", false, "accessing", "sourceText ^sourceText"},
      {"CompiledMethod", false, "testing",
       "hasLiteral: anObject literals isNil ifTrue: [^false]. 1 to: "
       "literals size do: [:i | | lit | lit := literals at: i. lit == "
       "anObject ifTrue: [^true]. (lit isKindOf: Array) ifTrue: [(lit "
       "includes: anObject) ifTrue: [^true]]]. ^false"},
      {"CompiledMethod", false, "decompiling",
       "decompile ^Decompiler decompile: self"},
      {"CompiledMethod", false, "printing",
       "printOn: aStream aStream nextPutAll: methodClass name asString. "
       "aStream nextPutAll: '>>'. aStream nextPutAll: selector asString"},

      /// --- Collection ------------------------------------------------------
      {"Collection", false, "enumerating",
       "do: aBlock ^self subclassResponsibility"},
      {"Collection", false, "accessing",
       "size | n | n := 0. self do: [:e | n := n + 1]. ^n"},
      {"Collection", false, "testing", "isEmpty ^self size = 0"},
      {"Collection", false, "testing", "notEmpty ^self isEmpty not"},
      {"Collection", false, "testing",
       "includes: anObject self do: [:e | e = anObject ifTrue: [^true]]. "
       "^false"},
      {"Collection", false, "enumerating",
       "detect: aBlock ifNone: noneBlock self do: [:e | (aBlock value: e) "
       "ifTrue: [^e]]. ^noneBlock value"},
      {"Collection", false, "enumerating",
       "select: aBlock | c | c := OrderedCollection new. self do: [:e | "
       "(aBlock value: e) ifTrue: [c add: e]]. ^c"},
      {"Collection", false, "enumerating",
       "reject: aBlock | c | c := OrderedCollection new. self do: [:e | "
       "(aBlock value: e) ifFalse: [c add: e]]. ^c"},
      {"Collection", false, "enumerating",
       "collect: aBlock | c | c := OrderedCollection new. self do: [:e | "
       "c add: (aBlock value: e)]. ^c"},
      {"Collection", false, "enumerating",
       "inject: initial into: aBlock | acc | acc := initial. self do: [:e "
       "| acc := aBlock value: acc value: e]. ^acc"},
      {"Collection", false, "converting",
       "asOrderedCollection | c | c := OrderedCollection new. self do: "
       "[:e | c add: e]. ^c"},
      {"Collection", false, "printing",
       "printOn: aStream aStream nextPutAll: self class name asString. "
       "aStream nextPutAll: ' ('. self do: [:e | aStream print: e. "
       "aStream nextPut: $ ]. aStream nextPut: $)"},

      /// --- SequenceableCollection ----------------------------------------
      {"SequenceableCollection", false, "enumerating",
       "do: aBlock 1 to: self size do: [:i | aBlock value: (self at: i)]"},
      {"SequenceableCollection", false, "enumerating",
       "withIndexDo: aBlock 1 to: self size do: [:i | aBlock value: (self "
       "at: i) value: i]"},
      {"SequenceableCollection", false, "enumerating",
       "reverseDo: aBlock | i | i := self size. [i >= 1] whileTrue: "
       "[aBlock value: (self at: i). i := i - 1]"},
      {"SequenceableCollection", false, "accessing", "first ^self at: 1"},
      {"SequenceableCollection", false, "accessing",
       "last ^self at: self size"},
      {"SequenceableCollection", false, "accessing",
       "indexOf: anObject 1 to: self size do: [:i | (self at: i) = "
       "anObject ifTrue: [^i]]. ^0"},
      {"SequenceableCollection", false, "comparing",
       "= other (other isKindOf: SequenceableCollection) ifFalse: "
       "[^false]. self size = other size ifFalse: [^false]. 1 to: self "
       "size do: [:i | (self at: i) = (other at: i) ifFalse: [^false]]. "
       "^true"},
      {"SequenceableCollection", false, "copying",
       "copyFrom: start to: stop | n c | n := stop - start + 1. n < 0 "
       "ifTrue: [n := 0]. c := self species new: n. c replaceFrom: 1 to: "
       "n with: self startingAt: start. ^c"},
      {"SequenceableCollection", false, "copying",
       ", other | c | c := self species new: self size + other size. c "
       "replaceFrom: 1 to: self size with: self startingAt: 1. c "
       "replaceFrom: self size + 1 to: c size with: other startingAt: 1. "
       "^c"},

      /// --- ArrayedCollection ----------------------------------------------
      {"ArrayedCollection", false, "accessing",
       "size <primitive: 3> ^0"},
      {"ArrayedCollection", false, "copying",
       "replaceFrom: start to: stop with: src startingAt: srcStart "
       "<primitive: 9> start to: stop do: [:i | self at: i put: (src at: "
       "srcStart + i - start)]. ^self"},

      /// --- String / Symbol ----------------------------------------------
      {"String", false, "comparing",
       "= other <primitive: 18> ^self == other"},
      {"String", false, "comparing",
       "< other | n i | n := self size min: other size. i := 1. [i <= n] "
       "whileTrue: [(self at: i) value < (other at: i) value ifTrue: "
       "[^true]. (self at: i) value > (other at: i) value ifTrue: "
       "[^false]. i := i + 1]. ^self size < other size"},
      {"String", false, "comparing",
       "hash | h | h := self size. 1 to: self size do: [:i | h := h * 31 "
       "+ (self at: i) value \\\\ 1073741823]. ^h"},
      {"String", false, "converting",
       "asSymbol <primitive: 10> ^self error: 'asSymbol failed'"},
      {"String", false, "converting", "asString ^self"},
      {"String", false, "printing",
       "printOn: aStream aStream nextPut: $'. aStream nextPutAll: self. "
       "aStream nextPut: $'"},
      {"Symbol", false, "converting",
       "asString <primitive: 11> ^self error: 'asString failed'"},
      {"Symbol", false, "converting", "asSymbol ^self"},
      {"Symbol", false, "comparing", "= other ^self == other"},
      {"Symbol", false, "comparing", "hash ^self identityHash"},
      {"Symbol", false, "printing",
       "printOn: aStream aStream nextPut: $#. aStream nextPutAll: self"},

      /// --- Association ---------------------------------------------------
      {"Association", false, "accessing", "key ^key"},
      {"Association", false, "accessing", "value ^value"},
      {"Association", false, "accessing", "value: anObject value := "
                                          "anObject"},
      {"Association", false, "private",
       "setKey: aKey value: aValue key := aKey. value := aValue"},
      {"Association", false, "printing",
       "printOn: aStream aStream print: key. aStream nextPutAll: ' -> '. "
       "aStream print: value"},

      /// --- OrderedCollection ----------------------------------------------
      {"OrderedCollection", true, "instance creation",
       "new ^self basicNew initCollection"},
      {"OrderedCollection", false, "private",
       "initCollection array := Array new: 8. firstIndex := 1. lastIndex "
       ":= 0"},
      {"OrderedCollection", false, "private",
       "grow | n | n := Array new: array size * 2. n replaceFrom: 1 to: "
       "array size with: array startingAt: 1. array := n"},
      {"OrderedCollection", false, "adding",
       "add: anObject lastIndex = array size ifTrue: [self grow]. "
       "lastIndex := lastIndex + 1. array at: lastIndex put: anObject. "
       "^anObject"},
      {"OrderedCollection", false, "adding",
       "addLast: anObject ^self add: anObject"},
      {"OrderedCollection", false, "adding",
       "addAll: aCollection aCollection do: [:e | self add: e]. "
       "^aCollection"},
      {"OrderedCollection", false, "removing",
       "removeFirst | v | self isEmpty ifTrue: [^self error: 'collection "
       "is empty']. v := array at: firstIndex. array at: firstIndex put: "
       "nil. firstIndex := firstIndex + 1. ^v"},
      {"OrderedCollection", false, "accessing",
       "size ^lastIndex - firstIndex + 1"},
      {"OrderedCollection", false, "accessing",
       "at: index (index < 1 or: [index > self size]) ifTrue: [^self "
       "error: 'index out of range']. ^array at: firstIndex + index - 1"},
      {"OrderedCollection", false, "accessing",
       "at: index put: anObject (index < 1 or: [index > self size]) "
       "ifTrue: [^self error: 'index out of range']. ^array at: "
       "firstIndex + index - 1 put: anObject"},
      {"OrderedCollection", false, "enumerating",
       "do: aBlock firstIndex to: lastIndex do: [:i | aBlock value: "
       "(array at: i)]"},
      {"OrderedCollection", false, "converting",
       "asArray | a | a := Array new: self size. 1 to: self size do: [:i "
       "| a at: i put: (self at: i)]. ^a"},

      /// --- Dictionary ------------------------------------------------------
      {"Dictionary", true, "instance creation",
       "new ^self basicNew initSize: 8"},
      {"Dictionary", false, "private",
       "initSize: n table := Array new: n. tally := 0"},
      {"Dictionary", false, "private",
       "grow | old | old := table. table := Array new: old size * 2. "
       "tally := 0. 1 to: old size do: [:j | | a | a := old at: j. a "
       "isNil ifFalse: [self at: a key put: a value]]"},
      {"Dictionary", false, "accessing", "size ^tally"},
      {"Dictionary", false, "private",
       "associationAt: key | i start a | i := key identityHash \\\\ table "
       "size + 1. start := i. [true] whileTrue: [a := table at: i. a "
       "isNil ifTrue: [^nil]. a key == key ifTrue: [^a]. i := i = table "
       "size ifTrue: [1] ifFalse: [i + 1]. i = start ifTrue: [^nil]]"},
      {"Dictionary", false, "accessing",
       "at: key ifAbsent: aBlock | a | a := self associationAt: key. a "
       "isNil ifTrue: [^aBlock value]. ^a value"},
      {"Dictionary", false, "accessing",
       "at: key ^self at: key ifAbsent: [self error: 'key not found']"},
      {"Dictionary", false, "accessing",
       "at: key put: value | i a | tally * 2 >= table size ifTrue: [self "
       "grow]. i := key identityHash \\\\ table size + 1. [true] "
       "whileTrue: [a := table at: i. a isNil ifTrue: [table at: i put: "
       "(Association basicNew setKey: key value: value). tally := tally + "
       "1. ^value]. a key == key ifTrue: [a value: value. ^value]. i := i "
       "= table size ifTrue: [1] ifFalse: [i + 1]]"},
      {"Dictionary", false, "testing",
       "includesKey: key ^(self associationAt: key) notNil"},
      {"Dictionary", false, "enumerating",
       "associationsDo: aBlock 1 to: table size do: [:i | (table at: i) "
       "isNil ifFalse: [aBlock value: (table at: i)]]"},
      {"Dictionary", false, "enumerating",
       "keysDo: aBlock self associationsDo: [:a | aBlock value: a key]"},
      {"Dictionary", false, "enumerating",
       "do: aBlock self associationsDo: [:a | aBlock value: a value]"},
      {"Dictionary", false, "accessing",
       "keys | c | c := OrderedCollection new. self keysDo: [:k | c add: "
       "k]. ^c"},
      {"Dictionary", false, "printing",
       "printOn: aStream aStream nextPutAll: self class name asString. "
       "aStream nextPutAll: ' ('. self associationsDo: [:a | aStream "
       "print: a. aStream nextPut: $ ]. aStream nextPut: $)"},

      /// --- Streams --------------------------------------------------------
      {"WriteStream", true, "instance creation",
       "on: aCollection ^self basicNew setCollection: aCollection"},
      {"WriteStream", false, "private",
       "setCollection: aCollection collection := aCollection. position := "
       "0"},
      {"WriteStream", false, "private",
       "growTo: n | c | c := collection species new: n. c replaceFrom: 1 "
       "to: collection size with: collection startingAt: 1. collection := "
       "c"},
      {"WriteStream", false, "writing",
       "nextPut: anObject position = collection size ifTrue: [self "
       "growTo: collection size * 2 + 8]. position := position + 1. "
       "collection at: position put: anObject. ^anObject"},
      {"WriteStream", false, "writing",
       "nextPutAll: aCollection 1 to: aCollection size do: [:i | self "
       "nextPut: (aCollection at: i)]. ^aCollection"},
      {"WriteStream", false, "writing",
       "print: anObject self nextPutAll: anObject printString"},
      {"WriteStream", false, "writing", "cr self nextPut: Character cr"},
      {"WriteStream", false, "writing",
       "space self nextPut: Character space"},
      {"WriteStream", false, "writing", "tab self nextPut: Character tab"},
      {"WriteStream", false, "accessing",
       "contents ^collection copyFrom: 1 to: position"},
      {"ReadStream", true, "instance creation",
       "on: aCollection ^self basicNew setCollection: aCollection"},
      {"ReadStream", false, "private",
       "setCollection: aCollection collection := aCollection. position := "
       "0"},
      {"ReadStream", false, "testing",
       "atEnd ^position >= collection size"},
      {"ReadStream", false, "reading",
       "next self atEnd ifTrue: [^nil]. position := position + 1. "
       "^collection at: position"},
      {"ReadStream", false, "reading",
       "peek self atEnd ifTrue: [^nil]. ^collection at: position + 1"},
      {"ReadStream", false, "reading",
       "upTo: anObject | start c | start := position + 1. [self atEnd] "
       "whileFalse: [c := self next. c = anObject ifTrue: [^collection "
       "copyFrom: start to: position - 1]]. ^collection copyFrom: start "
       "to: position"},

      /// --- ClassOrganization ----------------------------------------------
      {"ClassOrganization", true, "instance creation",
       "new ^self basicNew initOrganization"},
      {"ClassOrganization", false, "private",
       "initOrganization categories := Dictionary new"},
      {"ClassOrganization", false, "accessing",
       "categories ^categories"},
      {"ClassOrganization", false, "accessing",
       "classify: aSelector under: aCategory | list | list := categories "
       "at: aCategory ifAbsent: [nil]. list isNil ifTrue: [list := "
       "OrderedCollection new. categories at: aCategory put: list]. (list "
       "includes: aSelector) ifFalse: [list add: aSelector]"},
      {"ClassOrganization", false, "accessing",
       "selectorsInCategory: aCategory ^categories at: aCategory "
       "ifAbsent: [OrderedCollection new]"},
      {"ClassOrganization", false, "printing",
       "printOn: aStream categories associationsDo: [:a | aStream "
       "nextPutAll: a key asString. aStream nextPut: Character cr. a "
       "value do: [:sel | aStream nextPutAll: '    '. aStream nextPutAll: "
       "sel asString. aStream nextPut: Character cr]]"},
      {"ClassOrganization", true, "instance creation",
       "fromString: aString | org stream line current | org := self new. "
       "stream := ReadStream on: aString. [stream atEnd] whileFalse: "
       "[line := stream upTo: Character cr. line isEmpty ifFalse: [(line "
       "at: 1) == Character space ifTrue: [current isNil ifFalse: [org "
       "classify: (line copyFrom: 5 to: line size) asSymbol under: "
       "current]] ifFalse: [current := line asSymbol]]]. ^org"},

      /// --- LinkedList / Link ------------------------------------------
      {"Link", false, "accessing", "nextLink ^nextLink"},
      {"LinkedList", false, "accessing", "first ^firstLink"},
      {"LinkedList", false, "testing", "isEmpty ^firstLink isNil"},
      {"LinkedList", false, "enumerating",
       "do: aBlock | cur | cur := firstLink. [cur notNil] whileTrue: "
       "[aBlock value: cur. cur := cur nextLink]"},

      /// --- Process ---------------------------------------------------------
      {"Process", false, "accessing", "priority ^priority"},
      {"Process", false, "accessing", "name ^name"},
      {"Process", false, "accessing",
       "suspendedContext ^suspendedContext"},
      {"Process", false, "accessing",
       "accumulatedMicroseconds ^accumulatedMicroseconds"},
      {"Process", false, "changing",
       "resume <primitive: 26> ^self error: 'resume failed'"},
      {"Process", false, "changing",
       "suspend <primitive: 27> ^self error: 'suspend failed'"},
      {"Process", false, "changing",
       "terminate <primitive: 28> ^self error: 'terminate failed'"},
      {"Process", false, "printing",
       "printOn: aStream aStream nextPutAll: 'a Process('. name isNil "
       "ifFalse: [aStream nextPutAll: name]. aStream nextPutAll: ' pri '. "
       "aStream print: priority. aStream nextPut: $)"},

      /// --- Semaphore -----------------------------------------------------
      {"Semaphore", true, "instance creation",
       "new ^self basicNew initSignals"},
      {"Semaphore", false, "private", "initSignals excessSignals := 0"},
      {"Semaphore", false, "accessing",
       "excessSignals ^excessSignals"},
      {"Semaphore", false, "communication",
       "signal <primitive: 30> ^self error: 'signal failed'"},
      {"Semaphore", false, "communication",
       "wait <primitive: 31> ^self error: 'wait failed'"},

      /// --- ProcessorScheduler (the §3.3 reorganization) ---------------------
      {"ProcessorScheduler", false, "processes",
       "yield <primitive: 29> ^self"},
      {"ProcessorScheduler", false, "processes",
       "thisProcess <primitive: 36> ^self error: 'thisProcess failed'"},
      {"ProcessorScheduler", false, "processes",
       "canRun: aProcess <primitive: 35> ^self error: 'canRun: failed'"},
      // The compatibility fall-through the paper describes: under MS the
      // new primitive answers; on an old interpreter the primitive is
      // unimplemented and control falls through to the old slot read.
      {"ProcessorScheduler", false, "processes",
       "activeProcess <primitive: 36> ^activeProcess"},
      {"ProcessorScheduler", false, "processes",
       "activePriority | p | p := self thisProcess. ^p isNil ifTrue: [5] "
       "ifFalse: [p priority]"},
      {"ProcessorScheduler", false, "accessing",
       "quiescentProcessLists ^quiescentProcessLists"},

      /// --- BlockContext ---------------------------------------------------
      {"BlockContext", false, "evaluating",
       "value <primitive: 20> ^self error: 'block argument count "
       "mismatch'"},
      {"BlockContext", false, "evaluating",
       "value: a <primitive: 20> ^self error: 'block argument count "
       "mismatch'"},
      {"BlockContext", false, "evaluating",
       "value: a value: b <primitive: 20> ^self error: 'block argument "
       "count mismatch'"},
      {"BlockContext", false, "evaluating",
       "value: a value: b value: c <primitive: 20> ^self error: 'block "
       "argument count mismatch'"},
      {"BlockContext", false, "accessing", "numArgs ^numArgs"},
      {"BlockContext", false, "accessing", "home ^home"},
      {"BlockContext", false, "controlling",
       "whileTrue: aBlock [self value] whileTrue: [aBlock value]. ^nil"},
      {"BlockContext", false, "controlling",
       "whileFalse: aBlock [self value] whileFalse: [aBlock value]. "
       "^nil"},
      {"BlockContext", false, "controlling",
       "whileTrue ^self whileTrue: []"},
      {"BlockContext", false, "controlling",
       "whileFalse ^self whileFalse: []"},
      {"BlockContext", false, "controlling",
       "repeat [true] whileTrue: [self value]"},
      {"BlockContext", false, "scheduling",
       "newProcessAt: priority <primitive: 25> ^self error: 'newProcess "
       "failed (blocks forked as processes take no arguments)'"},
      {"BlockContext", false, "scheduling",
       "newProcess ^self newProcessAt: 5"},
      {"BlockContext", false, "scheduling",
       "forkAt: priority ^(self newProcessAt: priority) resume"},
      {"BlockContext", false, "scheduling", "fork ^self forkAt: 5"},

      /// --- MethodContext (debugger-style introspection) -----------------
      {"MethodContext", false, "accessing", "sender ^sender"},
      {"MethodContext", false, "accessing", "method ^method"},
      {"MethodContext", false, "accessing", "receiver ^receiver"},
      {"MethodContext", false, "printing",
       "printOn: aStream method isNil ifTrue: [aStream nextPutAll: 'a "
       "MethodContext'. ^self]. aStream print: method"},

      /// --- Message ---------------------------------------------------------
      {"Message", false, "accessing", "selector ^selector"},
      {"Message", false, "accessing", "arguments ^arguments"},
      {"Message", false, "printing",
       "printOn: aStream aStream nextPutAll: selector asString"},

      /// --- SystemDictionary -------------------------------------------
      {"SystemDictionary", false, "accessing", "size ^tally"},
      {"SystemDictionary", false, "private",
       "associationAt: key | i start a | i := key identityHash \\\\ table "
       "size + 1. start := i. [true] whileTrue: [a := table at: i. a "
       "isNil ifTrue: [^nil]. a key == key ifTrue: [^a]. i := i = table "
       "size ifTrue: [1] ifFalse: [i + 1]. i = start ifTrue: [^nil]]"},
      {"SystemDictionary", false, "accessing",
       "at: key ifAbsent: aBlock | a | a := self associationAt: key. a "
       "isNil ifTrue: [^aBlock value]. ^a value"},
      {"SystemDictionary", false, "accessing",
       "at: key ^self at: key ifAbsent: [self error: 'global not "
       "found']"},
      {"SystemDictionary", false, "private",
       "grow | old | old := table. table := Array new: old size * 2. "
       "tally := 0. 1 to: old size do: [:j | | a | a := old at: j. a "
       "isNil ifFalse: [self at: a key put: a value]]"},
      // The grow check keeps the table at most half full; without it the
      // probe loop below has no empty slot to stop on once the 78th
      // eval-side global fills the 128-slot bootstrap table, and a plain
      // `Smalltalk at: #X put: 0` spins the VM forever.
      {"SystemDictionary", false, "accessing",
       "at: key put: value | i a | tally * 2 >= table size ifTrue: "
       "[self grow]. i := key identityHash \\\\ table size + 1. [true] "
       "whileTrue: [a := table at: i. a isNil ifTrue: [table at: i put: "
       "(Association basicNew setKey: key value: value). tally := tally "
       "+ 1. ^value]. a key == key ifTrue: [a value: value. ^value]. i "
       ":= i = table size ifTrue: [1] ifFalse: [i + 1]]"},
      {"SystemDictionary", false, "testing",
       "includesKey: key ^(self associationAt: key) notNil"},
      {"SystemDictionary", false, "enumerating",
       "associationsDo: aBlock 1 to: table size do: [:i | (table at: i) "
       "isNil ifFalse: [aBlock value: (table at: i)]]"},
      {"SystemDictionary", false, "enumerating",
       "allClassesDo: aBlock self associationsDo: [:a | (a value isKindOf: "
       "Behavior) ifTrue: [aBlock value: a value]]"},
      {"SystemDictionary", false, "enumerating",
       "allBehaviorsDo: aBlock self allClassesDo: [:c | aBlock value: c. "
       "aBlock value: c class]"},
      {"SystemDictionary", false, "browsing",
       "sendersOf: aSelector | results | results := OrderedCollection "
       "new. self allBehaviorsDo: [:cls | cls methodDict isNil ifFalse: "
       "[cls methodDict keysAndValuesDo: [:sel :m | (m hasLiteral: "
       "aSelector) ifTrue: [results add: m]]]]. ^results"},
      {"SystemDictionary", false, "browsing",
       "implementorsOf: aSelector | results | results := "
       "OrderedCollection new. self allBehaviorsDo: [:cls | (cls "
       "includesSelector: aSelector) ifTrue: [results add: cls]]. "
       "^results"},
      {"SystemDictionary", false, "printing",
       "printOn: aStream aStream nextPutAll: 'Smalltalk'"},

      /// --- Tools: Display / Sensor / Compiler / Decompiler --------------
      {"DisplayScreen", false, "displaying",
       "show: aString <primitive: 40> ^self error: 'display show: needs "
       "a string'"},
      {"InputSensor", false, "accessing",
       "nextEvent <primitive: 41> ^nil"},
      {"CompilerTool", false, "compiling",
       "compile: sourceString into: aClass <primitive: 50> ^self error: "
       "'compilation primitive failed'"},
      {"DecompilerTool", false, "decompiling",
       "decompile: aMethod <primitive: 51> ^self error: 'decompilation "
       "primitive failed'"},

      /// --- Inspector -----------------------------------------------------
      {"Inspector", true, "instance creation",
       "on: anObject ^self basicNew setObject: anObject"},
      {"Inspector", false, "private",
       "setObject: anObject | names | object := anObject. fields := "
       "OrderedCollection new. fields add: 'self' -> object printString. "
       "names := object class instanceVariableNames. names isNil ifFalse: "
       "[1 to: names size do: [:i | fields add: (names at: i) asString -> "
       "(object instVarAt: i) printString]]"},
      {"Inspector", false, "accessing", "object ^object"},
      {"Inspector", false, "accessing", "fields ^fields"},
      {"Inspector", false, "displaying",
       "show | s | s := WriteStream on: (String new: 32). s nextPutAll: "
       "'inspect: '. fields do: [:a | s nextPutAll: a key. s nextPutAll: "
       "'='. s nextPutAll: a value. s space]. Display show: s contents. "
       "^self"},

      /// --- class-side constructors and collection math ---------------------
      {"Array", true, "instance creation",
       "with: a | r | r := self new: 1. r at: 1 put: a. ^r"},
      {"Array", true, "instance creation",
       "with: a with: b | r | r := self new: 2. r at: 1 put: a. r at: 2 "
       "put: b. ^r"},
      {"Array", true, "instance creation",
       "with: a with: b with: c | r | r := self new: 3. r at: 1 put: a. "
       "r at: 2 put: b. r at: 3 put: c. ^r"},
      {"OrderedCollection", true, "instance creation",
       "withAll: aCollection | c | c := self new. c addAll: aCollection. "
       "^c"},
      {"Collection", false, "statistics",
       "sum ^self inject: 0 into: [:a :b | a + b]"},
      {"Collection", false, "statistics",
       "maxValue | m | m := nil. self do: [:e | (m isNil or: [e > m]) "
       "ifTrue: [m := e]]. ^m"},
      {"Collection", false, "statistics",
       "minValue | m | m := nil. self do: [:e | (m isNil or: [e < m]) "
       "ifTrue: [m := e]]. ^m"},
      {"OrderedCollection", false, "adding",
       "addFirst: anObject firstIndex = 1 ifTrue: [self makeRoomFirst]. "
       "firstIndex := firstIndex - 1. array at: firstIndex put: "
       "anObject. ^anObject"},
      {"OrderedCollection", false, "private",
       "makeRoomFirst | n shift | shift := array size max: 4. n := Array "
       "new: array size + shift. n replaceFrom: firstIndex + shift to: "
       "lastIndex + shift with: array startingAt: firstIndex. firstIndex "
       ":= firstIndex + shift. lastIndex := lastIndex + shift. array := "
       "n"},

      /// --- additional Object / testing protocol ---------------------------
      {"Object", false, "testing", "isString ^false"},
      {"Object", false, "testing", "isSymbol ^false"},
      {"Object", false, "testing", "isNumber ^false"},
      {"Object", false, "testing", "isCharacter ^false"},
      {"Object", false, "testing", "isClass ^false"},
      {"String", false, "testing", "isString ^true"},
      {"Symbol", false, "testing", "isSymbol ^true"},
      {"Number", false, "testing", "isNumber ^true"},
      {"Character", false, "testing", "isCharacter ^true"},
      {"Behavior", false, "testing", "isClass ^true"},
      {"Collection", false, "testing",
       "anySatisfy: aBlock self do: [:e | (aBlock value: e) ifTrue: "
       "[^true]]. ^false"},
      {"Collection", false, "testing",
       "allSatisfy: aBlock self do: [:e | (aBlock value: e) ifFalse: "
       "[^false]]. ^true"},
      {"Collection", false, "enumerating",
       "count: aBlock | n | n := 0. self do: [:e | (aBlock value: e) "
       "ifTrue: [n := n + 1]]. ^n"},
      {"Collection", false, "converting",
       "asSet | s | s := Set new. self do: [:e | s add: e]. ^s"},
      {"SequenceableCollection", false, "copying",
       "copyWith: anObject | c | c := self species new: self size + 1. c "
       "replaceFrom: 1 to: self size with: self startingAt: 1. c at: c "
       "size put: anObject. ^c"},
      {"OrderedCollection", false, "removing",
       "removeLast | v | self isEmpty ifTrue: [^self error: 'collection "
       "is empty']. v := array at: lastIndex. array at: lastIndex put: "
       "nil. lastIndex := lastIndex - 1. ^v"},
      {"Dictionary", false, "removing",
       "removeKey: key ifAbsent: aBlock | a | a := self associationAt: "
       "key. a isNil ifTrue: [^aBlock value]. ^self rebuildWithout: key"},
      {"Dictionary", false, "private",
       "rebuildWithout: key | old removed | old := table. table := Array "
       "new: old size. tally := 0. removed := nil. 1 to: old size do: "
       "[:j | | a | a := old at: j. a isNil ifFalse: [a key == key "
       "ifTrue: [removed := a value] ifFalse: [self at: a key put: a "
       "value]]]. ^removed"},
      {"Dictionary", false, "removing",
       "removeKey: key ^self removeKey: key ifAbsent: [self error: 'key "
       "not found']"},
      {"String", false, "converting",
       "asUppercase | c | c := self copy. 1 to: c size do: [:i | | v | v "
       ":= (c at: i) value. (v between: 97 and: 122) ifTrue: [c at: i "
       "put: (Character value: v - 32)]]. ^c"},
      {"String", false, "converting",
       "asLowercase | c | c := self copy. 1 to: c size do: [:i | | v | v "
       ":= (c at: i) value. (v between: 65 and: 90) ifTrue: [c at: i "
       "put: (Character value: v + 32)]]. ^c"},
      {"String", false, "testing",
       "startsWith: aString aString size > self size ifTrue: [^false]. 1 "
       "to: aString size do: [:i | (self at: i) == (aString at: i) "
       "ifFalse: [^false]]. ^true"},

      /// --- Interval --------------------------------------------------------
      {"Interval", true, "instance creation",
       "from: start to: stop by: step ^self basicNew setFrom: start to: "
       "stop by: step"},
      {"Interval", false, "private",
       "setFrom: a to: b by: c start := a. stop := b. step := c"},
      {"Interval", false, "accessing",
       "size step > 0 ifTrue: [stop < start ifTrue: [^0]. ^stop - start "
       "// step + 1]. start < stop ifTrue: [^0]. ^start - stop // (0 - "
       "step) + 1"},
      {"Interval", false, "accessing",
       "at: index (index < 1 or: [index > self size]) ifTrue: [^self "
       "error: 'index out of range']. ^start + (step * (index - 1))"},
      {"Interval", false, "accessing", "first ^start"},
      {"Interval", false, "accessing", "last ^start + (step * (self size "
                                       "- 1))"},
      {"Interval", false, "enumerating",
       "do: aBlock | i | i := start. step > 0 ifTrue: [[i <= stop] "
       "whileTrue: [aBlock value: i. i := i + step]] ifFalse: [[i >= "
       "stop] whileTrue: [aBlock value: i. i := i + step]]"},
      {"Interval", false, "testing",
       "includes: aNumber (aNumber isKindOf: Integer) ifFalse: [^false]. "
       "step > 0 ifTrue: [(aNumber < start or: [aNumber > stop]) ifTrue: "
       "[^false]] ifFalse: [(aNumber > start or: [aNumber < stop]) "
       "ifTrue: [^false]]. ^(aNumber - start) \\\\ step = 0"},
      {"Interval", false, "converting",
       "asArray | a n | n := self size. a := Array new: n. 1 to: n do: "
       "[:i | a at: i put: (self at: i)]. ^a"},
      {"Interval", false, "printing",
       "printOn: aStream aStream print: start. aStream nextPutAll: ' to: "
       "'. aStream print: stop. step = 1 ifFalse: [aStream nextPutAll: ' "
       "by: '. aStream print: step]"},
      {"Number", false, "intervals",
       "to: stop ^Interval from: self to: stop by: 1"},
      {"Number", false, "intervals",
       "to: stop by: step ^Interval from: self to: stop by: step"},

      /// --- Set ------------------------------------------------------------
      {"Set", true, "instance creation", "new ^self basicNew initSet: 8"},
      {"Set", false, "private",
       "initSet: n table := Array new: n. tally := 0"},
      {"Set", false, "private",
       "growSet | old | old := table. table := Array new: old size * 2. "
       "tally := 0. 1 to: old size do: [:j | | e | e := old at: j. e "
       "isNil ifFalse: [self add: e]]"},
      {"Set", false, "private",
       "scanFor: anObject | i start e | i := anObject hash \\\\ table "
       "size + 1. start := i. [true] whileTrue: [e := table at: i. (e "
       "isNil or: [e = anObject]) ifTrue: [^i]. i := i = table size "
       "ifTrue: [1] ifFalse: [i + 1]. i = start ifTrue: [^0]]"},
      {"Set", false, "adding",
       "add: anObject | i | anObject isNil ifTrue: [^self error: 'sets "
       "cannot hold nil']. tally * 2 >= table size ifTrue: [self "
       "growSet]. i := self scanFor: anObject. (table at: i) isNil "
       "ifTrue: [table at: i put: anObject. tally := tally + 1]. "
       "^anObject"},
      {"Set", false, "testing",
       "includes: anObject | i | anObject isNil ifTrue: [^false]. i := "
       "self scanFor: anObject. i = 0 ifTrue: [^false]. ^(table at: i) "
       "notNil"},
      {"Set", false, "accessing", "size ^tally"},
      {"Set", false, "enumerating",
       "do: aBlock 1 to: table size do: [:i | (table at: i) isNil "
       "ifFalse: [aBlock value: (table at: i)]]"},

      /// --- Point (a small user-level class for examples) ----------------
      {"Point", true, "instance creation",
       "x: ax y: ay ^self basicNew setX: ax y: ay"},
      {"Point", false, "private", "setX: ax y: ay x := ax. y := ay"},
      {"Point", false, "accessing", "x ^x"},
      {"Point", false, "accessing", "y ^y"},
      {"Point", false, "arithmetic",
       "+ aPoint ^Point x: x + aPoint x y: y + aPoint y"},
      {"Point", false, "arithmetic",
       "- aPoint ^Point x: x - aPoint x y: y - aPoint y"},
      {"Point", false, "comparing",
       "= aPoint (aPoint isKindOf: Point) ifFalse: [^false]. ^x = aPoint "
       "x and: [y = aPoint y]"},
      {"Point", false, "comparing", "hash ^x * 31 + y"},
      {"Point", false, "printing",
       "printOn: aStream aStream print: x. aStream nextPutAll: ' @ '. "
       "aStream print: y"},
      {"Object", false, "converting",
       "@ aNumber ^Point x: self y: aNumber"},
  };
  return Table;
}
