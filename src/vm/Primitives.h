//===-- vm/Primitives.h - Primitive operation indices -----------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Numbered primitive operations, referenced from method source with the
/// <primitive: N> pragma. Failure of a primitive falls through to the
/// method's Smalltalk body, exactly as in Smalltalk-80 — the mechanism MS
/// uses for image compatibility (paper §3.3: a new primitive that fails on
/// an old interpreter falls back to the old code).
///
//===----------------------------------------------------------------------===//

#ifndef MST_VM_PRIMITIVES_H
#define MST_VM_PRIMITIVES_H

namespace mst {

enum Primitive : int {
  PrimNone = 0,

  // Object access.
  PrimAt = 1,
  PrimAtPut = 2,
  PrimSize = 3,
  PrimBasicNew = 4,
  PrimBasicNewSize = 5,
  PrimClass = 6,
  PrimIdentityHash = 7,
  PrimShallowCopy = 8,
  PrimReplaceFromTo = 9, ///< replaceFrom:to:with:startingAt:
  PrimAsSymbol = 10,
  PrimSymbolAsString = 11,
  PrimSmallIntPrintString = 12, ///< SmallInteger>>printString: the base-10
                                ///< digits as a new String; fails for any
                                ///< other receiver
  PrimCharFromValue = 13,
  PrimIdentical = 14,
  PrimInstVarAt = 16,
  PrimInstVarAtPut = 17,
  PrimStringEqual = 18,

  // Blocks.
  PrimBlockValue = 20, ///< value, value:, value:value:, ...

  // Processes.
  PrimNewProcess = 25, ///< aBlock newProcessAt: priority
  PrimResumeProcess = 26,
  PrimSuspendProcess = 27,
  PrimTerminateProcess = 28,
  PrimYield = 29,

  // Semaphores.
  PrimSemaphoreSignal = 30,
  PrimSemaphoreWait = 31,

  // Reorganized scheduler queries (paper §3.3).
  PrimCanRun = 35,     ///< Processor canRun: aProcess
  PrimThisProcess = 36,///< Processor thisProcess

  // I/O and clock.
  PrimDisplayShow = 40,
  PrimNextEvent = 41,
  PrimMillisecondClock = 42,

  // Tools.
  PrimCompileInto = 50, ///< Compiler compile: source into: class
  PrimDecompile = 51,   ///< Decompiler decompile: method
  PrimSubclass = 55,    ///< super subclass: #Name instanceVariableNames:
                        ///< 'a b' category: 'Cat' — creates and installs
                        ///< a class, the browser's accept action

  // Host coupling and VM services.
  PrimHostSignal = 60,
  PrimForceScavenge = 62,
  PrimErrorReport = 63,
  PrimFullGC = 64, ///< fullCollect — scavenge + mark-sweep of old space
  PrimLowSpaceSemaphore = 65, ///< registers the low-space Semaphore
                              ///< (Smalltalk-80's lowSpaceSemaphore:)
  PrimPerformWith = 70, ///< perform: selector withArguments: array
};

} // namespace mst

#endif // MST_VM_PRIMITIVES_H
