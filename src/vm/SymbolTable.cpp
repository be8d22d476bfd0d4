//===-- vm/SymbolTable.cpp - Interned symbols -------------------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "vm/SymbolTable.h"

#include <cstring>

#include "objmem/ObjectMemory.h"

using namespace mst;

Oop SymbolTable::intern(ObjectMemory &OM, const std::string &Name) {
  {
    SpinLockGuard Guard(Lock);
    auto It = Index.find(Name);
    if (It != Index.end())
      return Symbols[It->second];
  }
  // Allocate outside the lock (old-space allocation takes its own lock and
  // never scavenges). Two racers may both build a symbol; the second
  // insert under the lock wins consistency by re-checking.
  Oop Sym = OM.allocateOldBytes(SymbolClass,
                                static_cast<uint32_t>(Name.size()));
  std::memcpy(Sym.object()->bytes(), Name.data(), Name.size());

  SpinLockGuard Guard(Lock);
  auto It = Index.find(Name);
  if (It != Index.end())
    return Symbols[It->second]; // Lost the race; the duplicate is garbage.
  Index.emplace(Name, Symbols.size());
  Symbols.push_back(Sym);
  return Sym;
}

size_t SymbolTable::size() {
  SpinLockGuard Guard(Lock);
  return Symbols.size();
}

void SymbolTable::adoptLoadedSymbols(
    const std::vector<std::pair<std::string, Oop>> &Loaded) {
  SpinLockGuard Guard(Lock);
  Index.clear();
  Symbols.clear();
  for (const auto &[Name, Sym] : Loaded) {
    assert(Sym.isPointer() && Sym.object()->isOld() &&
           "loaded symbols must be old-space objects");
    Index.emplace(Name, Symbols.size());
    Symbols.push_back(Sym);
  }
}
