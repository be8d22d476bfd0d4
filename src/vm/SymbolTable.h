//===-- vm/SymbolTable.h - Interned symbols ---------------------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The global table of interned Symbols. Symbols are unique per spelling,
/// allocated in old space (they are permanent and must not move: selector
/// comparisons are identity comparisons throughout the VM), and the table
/// itself is serialized with a spin lock — interning is brief and
/// infrequent (only compilation and literal creation intern).
///
//===----------------------------------------------------------------------===//

#ifndef MST_VM_SYMBOLTABLE_H
#define MST_VM_SYMBOLTABLE_H

#include <deque>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "objmem/Oop.h"
#include "vkernel/SpinLock.h"

namespace mst {

class ObjectMemory;

/// Table of interned Symbol oops, keyed by spelling.
class SymbolTable {
public:
  /// \param LocksEnabled false for the baseline-BS (no-MP) build.
  explicit SymbolTable(bool LocksEnabled) : Lock(LocksEnabled, "symtab") {}

  /// Sets the class used for new symbols. Called once during bootstrap.
  void setSymbolClass(Oop Cls) { SymbolClass = Cls; }

  /// \returns the unique Symbol oop for \p Name, creating it on first use.
  Oop intern(ObjectMemory &OM, const std::string &Name);

  /// Replaces the table contents with symbols loaded from a snapshot:
  /// clears everything, then adopts each (spelling, oop) pair. The oops
  /// must be old-space Symbol objects.
  void adoptLoadedSymbols(
      const std::vector<std::pair<std::string, Oop>> &Loaded);

  /// \returns the number of interned symbols.
  size_t size();

  /// Visits every symbol oop cell (root walking; symbols live in old space
  /// so cells never change today, but the walker keeps the design uniform).
  template <typename Visitor> void visitRoots(const Visitor &V) {
    for (Oop &Sym : Symbols)
      V(&Sym);
    V(&SymbolClass);
  }

private:
  SpinLock Lock;
  Oop SymbolClass;
  std::unordered_map<std::string, size_t> Index;
  std::deque<Oop> Symbols;
};

} // namespace mst

#endif // MST_VM_SYMBOLTABLE_H
