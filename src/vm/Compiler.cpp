//===-- vm/Compiler.cpp - Compilation driver --------------------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "vm/Compiler.h"

#include <cstdio>

#include "support/Assert.h"
#include "vm/CodeGen.h"
#include "vm/MethodCache.h"
#include "vm/Parser.h"

using namespace mst;

CompileResult mst::compileMethodSource(ObjectModel &Om, Oop Cls,
                                       const std::string &Source) {
  Parser P(Source);
  MethodNode M;
  if (!P.parseMethod(M))
    return {Oop(), P.errorMessage()};
  CodeGen Gen(Om, Cls);
  std::string Error;
  Oop Method = Gen.generate(M, /*Old=*/true, Error);
  if (Method.isNull())
    return {Oop(), Error};
  return {Method, ""};
}

CompileResult mst::compileDoItSource(ObjectModel &Om, Oop Cls,
                                     const std::string &Source) {
  Parser P(Source);
  MethodNode M;
  if (!P.parseDoIt(M))
    return {Oop(), P.errorMessage()};
  CodeGen Gen(Om, Cls);
  std::string Error;
  Oop Method = Gen.generate(M, /*Old=*/false, Error);
  if (Method.isNull())
    return {Oop(), Error};
  return {Method, ""};
}

void mst::installMethod(ObjectModel &Om, MethodCache *Cache, Oop Cls,
                        Oop Method) {
  // A young method in a dictionary would go stale: doSend holds a looked-up
  // method across primitives that can scavenge.
  assert(Method.object()->isOld() && "installed methods must be old");
  Oop Selector = ObjectMemory::fetchPointer(Method, MthSelector);
  Om.mdAddMethod(Cls, Selector, Method);
  if (Cache)
    Cache->flushSelector(Selector);
}

Oop mst::mustCompile(ObjectModel &Om, MethodCache *Cache, Oop Cls,
                     const std::string &Source) {
  CompileResult R = compileMethodSource(Om, Cls, Source);
  if (!R.ok())
    panic("bootstrap compile error in " + Om.className(Cls) + ": " +
          R.Error + "\nsource:\n" + Source);
  installMethod(Om, Cache, Cls, R.Method);
  return R.Method;
}
