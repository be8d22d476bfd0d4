//===-- vm/CodeGen.cpp - Bytecode generation --------------------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "vm/CodeGen.h"

#include "support/Assert.h"

using namespace mst;

CodeGen::CodeGen(ObjectModel &Om, Oop Cls) : Om(Om), Cls(Cls) {}

bool CodeGen::failGen(const std::string &Msg) {
  if (!HadError) {
    HadError = true;
    Error = Msg;
  }
  return false;
}

void CodeGen::patchJumpToHere(size_t Pos) {
  intptr_t Off = static_cast<intptr_t>(Code.size()) -
                 static_cast<intptr_t>(Pos) - 2;
  assert(Off >= INT16_MIN && Off <= INT16_MAX && "jump out of range");
  Code[Pos] = static_cast<uint8_t>(Off & 0xff);
  Code[Pos + 1] = static_cast<uint8_t>((Off >> 8) & 0xff);
}

void CodeGen::emitJumpTo(Op O, size_t Target) {
  emitOp(O);
  intptr_t Off = static_cast<intptr_t>(Target) -
                 (static_cast<intptr_t>(Code.size()) + 2);
  assert(Off >= INT16_MIN && Off <= INT16_MAX && "jump out of range");
  emitS16(static_cast<int16_t>(Off));
}

unsigned CodeGen::addLiteral(Oop Lit) {
  for (size_t I = 0; I < Literals.size(); ++I)
    if (Literals[I] == Lit)
      return static_cast<unsigned>(I);
  Literals.push_back(Lit);
  return static_cast<unsigned>(Literals.size() - 1);
}

uint8_t CodeGen::addTemp(const std::string &Name) {
  TempNames.push_back(Name);
  return static_cast<uint8_t>(TempNames.size() - 1);
}

int CodeGen::findTemp(const std::string &Name) const {
  // Innermost (most recently added) binding wins.
  for (int I = static_cast<int>(TempNames.size()) - 1; I >= 0; --I)
    if (TempNames[static_cast<size_t>(I)] == Name)
      return I;
  return -1;
}

int CodeGen::findIvar(const std::string &Name) const {
  Oop Names = ObjectMemory::fetchPointer(Cls, ClsInstVarNames);
  if (Names == Om.nil() || Names.isNull())
    return -1;
  ObjectHeader *H = Names.object();
  for (uint32_t I = 0; I < H->SlotCount; ++I)
    if (ObjectModel::stringValue(H->slots()[I]) == Name)
      return static_cast<int>(I);
  return -1;
}

/// --- literals ------------------------------------------------------------

Oop CodeGen::literalFor(const ExprNode &E) {
  switch (E.K) {
  case ExprNode::Kind::IntLit:
    return Oop::fromSmallInt(E.IntValue);
  case ExprNode::Kind::CharLit:
    return Om.characterFor(static_cast<uint8_t>(E.CharValue));
  case ExprNode::Kind::StrLit:
    return Om.makeString(E.Text, /*Old=*/true);
  case ExprNode::Kind::SymLit:
    return Om.intern(E.Text);
  case ExprNode::Kind::Ident:
    if (E.Text == "nil")
      return Om.nil();
    if (E.Text == "true")
      return Om.known().TrueObj;
    if (E.Text == "false")
      return Om.known().FalseObj;
    return Oop();
  case ExprNode::Kind::ArrayLit: {
    std::vector<Oop> Elems;
    for (const ExprPtr &El : E.Elements) {
      Oop V = literalFor(*El);
      if (V.isNull() && El->K != ExprNode::Kind::Ident)
        return Oop();
      if (V.isNull())
        return Oop();
      Elems.push_back(V);
    }
    return Om.makeArray(Elems, /*Old=*/true);
  }
  default:
    return Oop();
  }
}

bool CodeGen::genLiteralPush(const ExprNode &E) {
  if (E.K == ExprNode::Kind::IntLit && E.IntValue >= -128 &&
      E.IntValue <= 127) {
    emitOp(Op::PushSmallInt);
    emitU8(static_cast<uint8_t>(static_cast<int8_t>(E.IntValue)));
    push();
    return true;
  }
  Oop Lit = literalFor(E);
  if (Lit.isNull())
    return failGen("unsupported literal");
  emitOp(Op::PushLiteral);
  unsigned Idx = addLiteral(Lit);
  if (Idx > 255)
    return failGen("too many literals");
  emitU8(static_cast<uint8_t>(Idx));
  push();
  return true;
}

/// --- identifiers ---------------------------------------------------------

bool CodeGen::genIdent(const std::string &Name) {
  if (Name == "self") {
    emitOp(Op::PushSelf);
    push();
    return true;
  }
  if (Name == "nil") {
    emitOp(Op::PushNil);
    push();
    return true;
  }
  if (Name == "true") {
    emitOp(Op::PushTrue);
    push();
    return true;
  }
  if (Name == "false") {
    emitOp(Op::PushFalse);
    push();
    return true;
  }
  if (Name == "thisContext") {
    emitOp(Op::PushThisContext);
    push();
    return true;
  }
  if (Name == "super")
    return failGen("'super' is only valid as a message receiver");

  if (int T = findTemp(Name); T >= 0) {
    emitOp(Op::PushTemp);
    emitU8(static_cast<uint8_t>(T));
    push();
    return true;
  }
  if (int V = findIvar(Name); V >= 0) {
    emitOp(Op::PushInstVar);
    emitU8(static_cast<uint8_t>(V));
    push();
    return true;
  }
  // Globals: capitalized names resolve through the system dictionary. An
  // unknown global is an error (silent creation hides typos).
  Oop Assoc = Om.globalAssociation(Name, /*CreateIfAbsent=*/false);
  if (Assoc.isNull())
    return failGen("undeclared variable '" + Name + "'");
  emitOp(Op::PushGlobal);
  unsigned Idx = addLiteral(Assoc);
  if (Idx > 255)
    return failGen("too many literals");
  emitU8(static_cast<uint8_t>(Idx));
  push();
  return true;
}

bool CodeGen::genAssign(const ExprNode &E) {
  if (!genExpr(*E.Args[0]))
    return false;
  const std::string &Name = E.Text;
  if (int T = findTemp(Name); T >= 0) {
    emitOp(Op::StoreTemp);
    emitU8(static_cast<uint8_t>(T));
    return true;
  }
  if (int V = findIvar(Name); V >= 0) {
    emitOp(Op::StoreInstVar);
    emitU8(static_cast<uint8_t>(V));
    return true;
  }
  Oop Assoc = Om.globalAssociation(Name, /*CreateIfAbsent=*/false);
  if (Assoc.isNull())
    return failGen("cannot assign to undeclared variable '" + Name + "'");
  emitOp(Op::StoreGlobal);
  unsigned Idx = addLiteral(Assoc);
  if (Idx > 255)
    return failGen("too many literals");
  emitU8(static_cast<uint8_t>(Idx));
  return true;
}

/// --- sends, cascades, blocks ------------------------------------------

/// \returns the SpecialSelector for \p Sel, or NumSpecialSelectors.
static SpecialSelector specialFor(const std::string &Sel) {
  for (size_t I = 0;
       I < static_cast<size_t>(SpecialSelector::NumSpecialSelectors); ++I) {
    auto S = static_cast<SpecialSelector>(I);
    if (Sel == specialSelectorName(S))
      return S;
  }
  return SpecialSelector::NumSpecialSelectors;
}

bool CodeGen::genMessage(const MessagePart &M, bool SuperSend) {
  for (const ExprPtr &A : M.Args)
    if (!genExpr(*A))
      return false;
  unsigned Argc = static_cast<unsigned>(M.Args.size());
  if (!SuperSend) {
    SpecialSelector S = specialFor(M.Selector);
    if (S != SpecialSelector::NumSpecialSelectors &&
        Argc == specialSelectorArgc(S)) {
      emitOp(Op::SendSpecial);
      emitU8(static_cast<uint8_t>(S));
      pop(static_cast<int>(Argc)); // receiver replaced by result
      return true;
    }
  }
  unsigned SelIdx = addLiteral(Om.intern(M.Selector));
  if (SelIdx > 255 || Argc > 255)
    return failGen("too many literals or arguments");
  emitOp(SuperSend ? Op::SendSuper : Op::Send);
  emitU8(static_cast<uint8_t>(SelIdx));
  emitU8(static_cast<uint8_t>(Argc));
  pop(static_cast<int>(Argc));
  return true;
}

bool CodeGen::genSend(const ExprNode &E) {
  bool Handled = false;
  if (!tryInline(E, Handled))
    return false;
  if (Handled)
    return true;

  bool SuperSend = E.Receiver->K == ExprNode::Kind::Ident &&
                   E.Receiver->Text == "super";
  if (SuperSend) {
    emitOp(Op::PushSelf);
    push();
  } else if (!genExpr(*E.Receiver)) {
    return false;
  }
  return genMessage(E.Message, SuperSend);
}

bool CodeGen::genCascade(const ExprNode &E) {
  if (!genExpr(*E.Receiver))
    return false;
  for (size_t I = 0; I < E.Cascades.size(); ++I) {
    bool Last = I + 1 == E.Cascades.size();
    if (!Last) {
      emitOp(Op::Dup);
      push();
    }
    if (!genMessage(E.Cascades[I], /*SuperSend=*/false))
      return false;
    if (!Last) {
      emitOp(Op::Pop);
      pop();
    }
  }
  return true;
}

bool CodeGen::genBlock(const ExprNode &E) {
  // Allocate frame slots for parameters and block temporaries in the home
  // method's frame (blue-book blocks share the home context's temps).
  std::vector<uint8_t> ParamSlots;
  for (const std::string &P : E.BlockParams)
    ParamSlots.push_back(addTemp(P));
  for (const std::string &T : E.BlockTemps)
    addTemp(T);

  emitOp(Op::BlockCopy);
  emitU8(static_cast<uint8_t>(E.BlockParams.size()));
  size_t FramePos = Code.size();
  emitU8(0); // frame size, patched below
  size_t SkipPos = Code.size();
  emitS16(0); // skip offset, patched below
  push();     // the BlockContext the send leaves on the home stack

  // The block body runs on the *block* context's stack: fresh tracker.
  Depths.push_back(Depth());
  // Arguments were pushed onto the block's stack by value:...; store them
  // into the home frame slots, last argument first.
  Depths.back().Cur = static_cast<int>(ParamSlots.size());
  if (Depths.back().Cur > Depths.back().Max)
    Depths.back().Max = Depths.back().Cur;
  for (size_t I = ParamSlots.size(); I > 0; --I) {
    emitOp(Op::StoreTemp);
    emitU8(ParamSlots[I - 1]);
    emitOp(Op::Pop);
    pop();
  }

  if (E.Body.empty()) {
    emitOp(Op::PushNil);
    push();
    emitOp(Op::BlockReturn);
    pop();
  } else {
    if (!genStatements(E.Body, /*ValueOfLast=*/true))
      return false;
    if (E.Body.back()->K != ExprNode::Kind::Return) {
      emitOp(Op::BlockReturn);
      pop();
    }
  }

  int Frame = Depths.back().Max;
  Depths.pop_back();
  if (Frame > 255)
    return failGen("block frame too large");
  Code[FramePos] = static_cast<uint8_t>(Frame);
  patchJumpToHere(SkipPos);
  return true;
}

/// --- control-flow inlining ----------------------------------------------

/// \returns true when \p E is a literal block with \p NumParams params.
static bool isLiteralBlock(const ExprPtr &E, unsigned NumParams) {
  return E && E->K == ExprNode::Kind::Block &&
         E->BlockParams.size() == NumParams && E->BlockTemps.empty();
}

/// Generates the body of an inlined block: statements in the *current*
/// context, leaving the value of the last statement on the stack.
bool CodeGen::genInlineBlockValue(const ExprNode &Block) {
  assert(Block.K == ExprNode::Kind::Block && "inlining a non-block");
  if (Block.Body.empty()) {
    emitOp(Op::PushNil);
    push();
    return true;
  }
  return genStatements(Block.Body, /*ValueOfLast=*/true);
}

bool CodeGen::tryInline(const ExprNode &E, bool &Handled) {
  Handled = false;
  const std::string &Sel = E.Message.Selector;
  const std::vector<ExprPtr> &Args = E.Message.Args;

  // --- conditionals: receiver is the condition expression.
  auto GenCond = [&]() { return genExpr(*E.Receiver); };

  if ((Sel == "ifTrue:" || Sel == "ifFalse:") && Args.size() == 1 &&
      isLiteralBlock(Args[0], 0)) {
    Handled = true;
    if (!GenCond())
      return false;
    size_t Skip =
        emitJump(Sel == "ifTrue:" ? Op::JumpIfFalse : Op::JumpIfTrue);
    pop(); // condition consumed
    if (!genInlineBlockValue(*Args[0]))
      return false;
    size_t End = emitJump(Op::Jump);
    patchJumpToHere(Skip);
    pop(); // merge: one value on either path
    emitOp(Op::PushNil);
    push();
    patchJumpToHere(End);
    return true;
  }

  if ((Sel == "ifTrue:ifFalse:" || Sel == "ifFalse:ifTrue:") &&
      Args.size() == 2 && isLiteralBlock(Args[0], 0) &&
      isLiteralBlock(Args[1], 0)) {
    Handled = true;
    if (!GenCond())
      return false;
    bool TrueFirst = Sel == "ifTrue:ifFalse:";
    size_t Skip = emitJump(TrueFirst ? Op::JumpIfFalse : Op::JumpIfTrue);
    pop();
    if (!genInlineBlockValue(*Args[0]))
      return false;
    size_t End = emitJump(Op::Jump);
    patchJumpToHere(Skip);
    pop(); // merge
    if (!genInlineBlockValue(*Args[1]))
      return false;
    patchJumpToHere(End);
    return true;
  }

  if ((Sel == "and:" || Sel == "or:") && Args.size() == 1 &&
      isLiteralBlock(Args[0], 0)) {
    Handled = true;
    if (!GenCond())
      return false;
    size_t Short = emitJump(Sel == "and:" ? Op::JumpIfFalse : Op::JumpIfTrue);
    pop();
    if (!genInlineBlockValue(*Args[0]))
      return false;
    size_t End = emitJump(Op::Jump);
    patchJumpToHere(Short);
    pop(); // merge
    emitOp(Sel == "and:" ? Op::PushFalse : Op::PushTrue);
    push();
    patchJumpToHere(End);
    return true;
  }

  // --- loops: receiver is a literal condition block.
  bool WhileWithBody = (Sel == "whileTrue:" || Sel == "whileFalse:") &&
                       Args.size() == 1 && isLiteralBlock(Args[0], 0);
  bool WhileNoBody =
      (Sel == "whileTrue" || Sel == "whileFalse") && Args.empty();
  if ((WhileWithBody || WhileNoBody) && isLiteralBlock(E.Receiver, 0)) {
    Handled = true;
    bool UntilFalse = Sel == "whileTrue:" || Sel == "whileTrue";
    size_t LoopTop = Code.size();
    if (!genInlineBlockValue(*E.Receiver))
      return false;
    size_t Exit = emitJump(UntilFalse ? Op::JumpIfFalse : Op::JumpIfTrue);
    pop();
    if (WhileWithBody) {
      if (!genInlineBlockValue(*Args[0]))
        return false;
      emitOp(Op::Pop);
      pop();
    }
    emitJumpTo(Op::Jump, LoopTop);
    patchJumpToHere(Exit);
    emitOp(Op::PushNil); // whileTrue: answers nil
    push();
    return true;
  }

  // --- counting loop: start to: limit do: [:i | ...]
  if (Sel == "to:do:" && Args.size() == 2 && isLiteralBlock(Args[1], 1)) {
    Handled = true;
    // Result of to:do: is the receiver (the start value): keep a copy.
    if (!genExpr(*E.Receiver))
      return false;
    uint8_t IVar = addTemp("(to:do: index '" + Args[1]->BlockParams[0] +
                           "')");
    // Bind the loop variable name to the slot for the body's scope.
    TempNames.back() = Args[1]->BlockParams[0];
    emitOp(Op::Dup);
    push();
    emitOp(Op::StoreTemp);
    emitU8(IVar);
    emitOp(Op::Pop);
    pop();
    uint8_t LimitVar = addTemp("(to:do: limit)");
    if (!genExpr(*Args[0]))
      return false;
    emitOp(Op::StoreTemp);
    emitU8(LimitVar);
    emitOp(Op::Pop);
    pop();
    size_t LoopTop = Code.size();
    emitOp(Op::PushTemp);
    emitU8(IVar);
    push();
    emitOp(Op::PushTemp);
    emitU8(LimitVar);
    push();
    emitOp(Op::SendSpecial);
    emitU8(static_cast<uint8_t>(SpecialSelector::LessEq));
    pop();
    size_t Exit = emitJump(Op::JumpIfFalse);
    pop();
    if (!genInlineBlockValue(*Args[1]))
      return false;
    emitOp(Op::Pop);
    pop();
    emitOp(Op::PushTemp);
    emitU8(IVar);
    push();
    emitOp(Op::PushSmallInt);
    emitU8(1);
    push();
    emitOp(Op::SendSpecial);
    emitU8(static_cast<uint8_t>(SpecialSelector::Add));
    pop();
    emitOp(Op::StoreTemp);
    emitU8(IVar);
    emitOp(Op::Pop);
    pop();
    emitJumpTo(Op::Jump, LoopTop);
    patchJumpToHere(Exit);
    // Unbind the loop variable (leave the slot allocated).
    TempNames[IVar] = "(dead to:do: index)";
    return true; // receiver copy is the expression value
  }

  return true; // not an inlinable pattern; caller emits a real send
}

/// --- statements and expressions -----------------------------------------

bool CodeGen::genStatements(const std::vector<ExprPtr> &Body,
                            bool ValueOfLast) {
  for (size_t I = 0; I < Body.size(); ++I) {
    const ExprNode &S = *Body[I];
    bool Last = I + 1 == Body.size();
    if (S.K == ExprNode::Kind::Return) {
      if (!genExpr(*S.Args[0]))
        return false;
      emitOp(Op::ReturnTop);
      pop();
      if (!Last)
        return failGen("statements after a return");
      return true;
    }
    if (!genExpr(S))
      return false;
    if (!Last || !ValueOfLast) {
      emitOp(Op::Pop);
      pop();
    }
  }
  if (Body.empty() && ValueOfLast)
    MST_UNREACHABLE("caller must handle empty bodies");
  return true;
}

bool CodeGen::genExpr(const ExprNode &E) {
  if (HadError)
    return false;
  switch (E.K) {
  case ExprNode::Kind::IntLit:
  case ExprNode::Kind::CharLit:
  case ExprNode::Kind::StrLit:
  case ExprNode::Kind::SymLit:
  case ExprNode::Kind::ArrayLit:
    return genLiteralPush(E);
  case ExprNode::Kind::Ident:
    return genIdent(E.Text);
  case ExprNode::Kind::Assign:
    return genAssign(E);
  case ExprNode::Kind::Send:
    return genSend(E);
  case ExprNode::Kind::Cascade:
    return genCascade(E);
  case ExprNode::Kind::Block:
    return genBlock(E);
  case ExprNode::Kind::Return:
    MST_UNREACHABLE("returns are handled by genStatements");
  }
  MST_UNREACHABLE("bad AST node kind");
}

/// --- driver ---------------------------------------------------------------

Oop CodeGen::generate(const MethodNode &M, bool Old, std::string &OutError) {
  Depths.push_back(Depth());
  for (const std::string &P : M.Params)
    addTemp(P);
  for (const std::string &T : M.Temps)
    addTemp(T);

  bool Ok = true;
  if (!M.Body.empty())
    Ok = genStatements(M.Body, /*ValueOfLast=*/false);
  if (Ok && (M.Body.empty() ||
             M.Body.back()->K != ExprNode::Kind::Return))
    emitOp(Op::ReturnSelf);

  if (!Ok || HadError) {
    OutError = Error.empty() ? "code generation failed" : Error;
    return Oop();
  }
  if (TempNames.size() > 255) {
    OutError = "too many temporaries";
    return Oop();
  }

  ObjectMemory &OM = Om.memory();
  KnownObjects &K = Om.known();
  HandleStack &HS = OM.handles();
  auto OutOfMemory = [&OutError] {
    OutError = "OutOfMemoryError: cannot allocate the compiled method "
               "(heap ceiling reached)";
    return Oop();
  };

  // Each young allocation below is a GC point, so every object made
  // earlier is held in a handle. Literals can name young objects (the
  // Association of a global bound at run time): root them across the
  // literal frame's allocation.
  for (Oop &L : Literals)
    HS.push(&L);
  Oop LitsRaw = Om.instantiate(K.ClassArray,
                               static_cast<uint32_t>(Literals.size()), Old);
  for (size_t I = Literals.size(); I > 0; --I)
    HS.pop(&Literals[I - 1]);
  if (LitsRaw.isNull())
    return OutOfMemory();
  Handle Lits(HS, LitsRaw);
  for (size_t I = 0; I < Literals.size(); ++I)
    OM.storePointer(Lits, static_cast<uint32_t>(I), Literals[I]);
  Handle Bytes(HS, Om.makeByteArray(Code, Old));
  if (Bytes.get().isNull())
    return OutOfMemory();
  Handle Source(HS, Om.makeString(M.Source, Old));
  if (Source.get().isNull())
    return OutOfMemory();
  Oop Method = Om.instantiate(K.ClassCompiledMethod, 0, Old);
  if (Method.isNull())
    return OutOfMemory();

  OM.storePointer(Method, MthNumArgs,
                  Oop::fromSmallInt(static_cast<intptr_t>(M.Params.size())));
  OM.storePointer(Method, MthNumTemps,
                  Oop::fromSmallInt(static_cast<intptr_t>(TempNames.size())));
  OM.storePointer(Method, MthPrimitive,
                  Oop::fromSmallInt(M.PrimitiveIndex));
  int Frame = static_cast<int>(TempNames.size()) + Depths[0].Max;
  OM.storePointer(Method, MthFrameSize, Oop::fromSmallInt(Frame));
  OM.storePointer(Method, MthSelector, Om.intern(M.Selector));
  OM.storePointer(Method, MthLiterals, Lits);
  OM.storePointer(Method, MthBytecodes, Bytes);
  OM.storePointer(Method, MthSource, Source);
  OM.storePointer(Method, MthClass, Cls);
  return Method;
}
