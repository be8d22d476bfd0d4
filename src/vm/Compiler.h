//===-- vm/Compiler.h - Compilation driver ----------------------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compilation front door: source text -> CompiledMethod. The "compile
/// dummy method" macro benchmark (Table 2) drives this path repeatedly.
///
//===----------------------------------------------------------------------===//

#ifndef MST_VM_COMPILER_H
#define MST_VM_COMPILER_H

#include <string>

#include "objmem/Oop.h"
#include "vm/ObjectModel.h"

namespace mst {

class MethodCache;

/// Result of a compilation: a method oop, or an error message.
struct CompileResult {
  Oop Method;        ///< null on failure
  std::string Error; ///< empty on success

  bool ok() const { return !Method.isNull(); }
};

/// Compiles a full method definition (pattern, pragma, temps, body) for
/// class \p Cls into old space. Does not install it.
CompileResult compileMethodSource(ObjectModel &Om, Oop Cls,
                                  const std::string &Source);

/// Compiles an expression sequence into a 'doIt' method on \p Cls. The
/// method answers the value of the final expression. It is young: the
/// call is a GC point, and the caller must hold the method in a Handle
/// across any allocation.
CompileResult compileDoItSource(ObjectModel &Om, Oop Cls,
                                const std::string &Source);

/// Installs \p Method, which must be old, in \p Cls's method dictionary
/// under the method's own selector, flushing \p Cache entries for that
/// selector (pass nullptr during bootstrap, before caches exist). Once
/// interpreters run, a replicated cache's flush stops the world: the
/// caller must be a mutator and treat the call as a GC point.
void installMethod(ObjectModel &Om, MethodCache *Cache, Oop Cls, Oop Method);

/// Convenience: compile + install; aborts the process on a compile error
/// (bootstrap code must be correct). \returns the method.
Oop mustCompile(ObjectModel &Om, MethodCache *Cache, Oop Cls,
                const std::string &Source);

} // namespace mst

#endif // MST_VM_COMPILER_H
