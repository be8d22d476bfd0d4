//===-- vm/CodeGen.h - Bytecode generation ----------------------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generates bytecode from a parsed method. Control-flow selectors with
/// literal block operands (ifTrue:, and:, whileTrue:, to:do:, ...) are
/// inlined into jumps — this is what makes `[true] whileTrue` the paper's
/// minimal-interference idle Process: no lookups, no allocation (§4).
///
//===----------------------------------------------------------------------===//

#ifndef MST_VM_CODEGEN_H
#define MST_VM_CODEGEN_H

#include <string>
#include <vector>

#include "objmem/Oop.h"
#include "vm/Ast.h"
#include "vm/ObjectModel.h"

namespace mst {

/// One method's code generation.
class CodeGen {
public:
  /// \param Cls the class the method is compiled for (instance-variable
  /// resolution and super sends).
  CodeGen(ObjectModel &Om, Oop Cls);

  /// Generates a CompiledMethod: the method, its literal frame, bytecodes
  /// and source go in old space when \p Old (method definitions, which
  /// live in method dictionaries) and in eden otherwise (doIts, which the
  /// scavenger reclaims once nothing refers to them). Literal objects
  /// (strings, arrays, symbols) are always old. A young generation is a
  /// GC point. \returns the null oop on error, or when a young allocation
  /// fails, with \p Error set.
  Oop generate(const MethodNode &M, bool Old, std::string &Error);

private:
  // --- emission helpers
  void emitOp(Op O) { Code.push_back(static_cast<uint8_t>(O)); }
  void emitU8(uint8_t B) { Code.push_back(B); }
  void emitS16(int16_t V) {
    Code.push_back(static_cast<uint8_t>(V & 0xff));
    Code.push_back(static_cast<uint8_t>((V >> 8) & 0xff));
  }
  /// Emits a jump with a placeholder offset. \returns the patch position.
  size_t emitJump(Op O) {
    emitOp(O);
    size_t Pos = Code.size();
    emitS16(0);
    return Pos;
  }
  /// Patches the s16 at \p Pos to land on the current position.
  void patchJumpToHere(size_t Pos);
  /// Emits a backward jump to \p Target.
  void emitJumpTo(Op O, size_t Target);

  unsigned addLiteral(Oop Lit);

  // --- operand-stack depth tracking (per context: method or block)
  struct Depth {
    int Cur = 0;
    int Max = 0;
  };
  void push(int N = 1) {
    Depth &D = Depths.back();
    D.Cur += N;
    if (D.Cur > D.Max)
      D.Max = D.Cur;
  }
  void pop(int N = 1) { Depths.back().Cur -= N; }

  // --- name resolution
  /// Allocates a new temp slot (block params/temps share the method frame;
  /// blocks are blue-book non-reentrant, so slots never conflict).
  uint8_t addTemp(const std::string &Name);
  int findTemp(const std::string &Name) const;
  int findIvar(const std::string &Name) const;

  // --- recursive generation; all return false on error
  bool genStatements(const std::vector<ExprPtr> &Body, bool ValueOfLast);
  bool genExpr(const ExprNode &E);
  bool genSend(const ExprNode &E);
  bool genMessage(const MessagePart &M, bool SuperSend);
  bool genCascade(const ExprNode &E);
  bool genBlock(const ExprNode &E);
  bool genIdent(const std::string &Name);
  bool genAssign(const ExprNode &E);
  bool genLiteralPush(const ExprNode &E);
  Oop literalFor(const ExprNode &E); ///< builds literal oops (old space)

  /// Attempts control-flow inlining. \returns true if handled; sets
  /// HadError on failure inside an attempted inline.
  bool tryInline(const ExprNode &E, bool &Handled);
  bool genInlineBlockValue(const ExprNode &Block);

  bool failGen(const std::string &Msg);

  ObjectModel &Om;
  Oop Cls;
  std::vector<uint8_t> Code;
  std::vector<Oop> Literals;
  std::vector<std::string> TempNames;
  std::vector<Depth> Depths;
  std::string Error;
  bool HadError = false;
};

} // namespace mst

#endif // MST_VM_CODEGEN_H
