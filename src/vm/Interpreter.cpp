//===-- vm/Interpreter.cpp - The replicated interpreter ---------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "vm/Interpreter.h"

#include <atomic>
#include <cstdlib>

#include "obs/Profiler.h"
#include "obs/Telemetry.h"
#include "obs/TraceBuffer.h"
#include "support/Assert.h"
#include "support/Timer.h"
#include "vkernel/Chaos.h"
#include "vm/Primitives.h"
#include "vm/VirtualMachine.h"

using namespace mst;

Interpreter::Interpreter(VirtualMachine &VM, unsigned Id)
    : VM(VM), Om(VM.model()), OM(VM.memory()), Id(Id) {}

/// --- frame cache ----------------------------------------------------------

void Interpreter::reloadFrame() {
  Oop C = Roots.ActiveContext;
  assert(C.isPointer() && "no active context");
  CtxH = C.object();
  IsBlock = CtxH->classOop() == Om.known().ClassBlockContext;
  HomeH = IsBlock ? CtxH->slots()[BlkHome].object() : CtxH;
  CurMethod = HomeH->slots()[CtxMethod];
  Oop Bytes = ObjectMemory::fetchPointer(CurMethod, MthBytecodes);
  // A doIt's bytecodes are young and move in a scavenge. Every GC point
  // re-runs this function (the context pointer CtxH moves too), so the
  // raw byte pointer never outlives one.
  Code = Bytes.object()->bytes();
  Ip = static_cast<uint32_t>(CtxH->slots()[CtxIp].smallInt());
  SpVal = CtxH->slots()[CtxSp].smallInt();

  // Profile-slot publication. Every activation, return, and GC point
  // passes through here, so the slot always names the method now on top.
  // Disabled cost: one relaxed store. The richer tuple (receiver class,
  // pc, state) is published only while sampling; the tear chaos point
  // sits between the stores so the stress lanes shake out mixed tuples.
  if (ProfileSlot *PS = Profiler::slot()) {
    PS->Method.store(CurMethod.bits(), std::memory_order_relaxed);
    if (Profiler::enabled()) {
      chaos::point("profiler.slot.tear");
      PS->RecvClass.store(Om.classOf(HomeH->slots()[CtxReceiver]).bits(),
                          std::memory_order_relaxed);
      PS->Pc.store(Ip, std::memory_order_relaxed);
      PS->State.store(static_cast<uint8_t>(ProfState::Running),
                      std::memory_order_relaxed);
    }
  }
}

void Interpreter::writeBackIp() {
  CtxH->slots()[CtxIp] = Oop::fromSmallInt(static_cast<intptr_t>(Ip));
}

void Interpreter::pushValue(Oop V) {
  ++SpVal;
  assert(SpVal >= 0 &&
         static_cast<uint32_t>(SpVal) < CtxH->SlotCount &&
         "operand stack overflow");
  CtxH->slots()[SpVal] = V;
  CtxH->slots()[CtxSp] = Oop::fromSmallInt(SpVal);
  OM.writeBarrier(CtxH, V);
}

Oop Interpreter::popValue() {
  Oop V = CtxH->slots()[SpVal];
  --SpVal;
  CtxH->slots()[CtxSp] = Oop::fromSmallInt(SpVal);
  return V;
}

Oop Interpreter::topValue(unsigned Down) {
  return CtxH->slots()[SpVal - static_cast<intptr_t>(Down)];
}

void Interpreter::dropValues(unsigned N) {
  SpVal -= static_cast<intptr_t>(N);
  CtxH->slots()[CtxSp] = Oop::fromSmallInt(SpVal);
}

/// --- variable access --------------------------------------------------

/// Home-context temps and receiver ivars are shared between interpreters
/// (a forked block and its enclosing method run concurrently against the
/// same home context) with no lock, by the paper's design. Acquire/release
/// cell access keeps the words untorn and orders a freshly allocated
/// object's header initialization before use by whoever observes its oop
/// through a shared slot; on x86 both compile to plain moves.
static Oop loadSlotAcquire(const ObjectHeader *H, uint32_t Idx) {
  const uintptr_t &Cell =
      reinterpret_cast<const uintptr_t *>(H->slots())[Idx];
  return Oop::fromBits(std::atomic_ref<const uintptr_t>(Cell).load(
      std::memory_order_acquire));
}

static void storeSlotRelease(ObjectHeader *H, uint32_t Idx, Oop V) {
  uintptr_t &Cell = reinterpret_cast<uintptr_t *>(H->slots())[Idx];
  std::atomic_ref<uintptr_t>(Cell).store(V.bits(), std::memory_order_release);
}

Oop Interpreter::fetchTemp(unsigned Idx) {
  return loadSlotAcquire(HomeH, CtxFixedSlots + Idx);
}

void Interpreter::storeTempValue(unsigned Idx, Oop V) {
  storeSlotRelease(HomeH, CtxFixedSlots + Idx, V);
  OM.writeBarrier(HomeH, V);
}

Oop Interpreter::receiver() {
  return loadSlotAcquire(HomeH, CtxReceiver);
}

Oop Interpreter::fetchIvar(unsigned Idx) {
  Oop R = receiver();
  assert(R.isPointer() && Idx < R.object()->SlotCount &&
         "instance variable access out of range");
  return loadSlotAcquire(R.object(), Idx);
}

void Interpreter::storeIvar(unsigned Idx, Oop V) {
  Oop R = receiver();
  assert(R.isPointer() && Idx < R.object()->SlotCount &&
         "instance variable store out of range");
  OM.storePointer(R, Idx, V);
}

/// --- context allocation ----------------------------------------------

Oop Interpreter::allocateContext(uint32_t SlotsNeeded, Oop Cls) {
  uint32_t SlotAlloc = SlotsNeeded <= SmallContextSlots ? SmallContextSlots
                       : SlotsNeeded <= LargeContextSlots
                           ? LargeContextSlots
                           : SlotsNeeded;
  if (SlotAlloc <= LargeContextSlots) {
    Oop Recycled = VM.contextPool().take(Id, SlotAlloc);
    if (!Recycled.isNull()) {
      Recycled.object()->setClassOop(Cls);
      return Recycled;
    }
  }
  writeBackIp();
  TraceSpan RefillSpan("ctx.refill", "vm");
  Oop Fresh = OM.allocateContextObject(Cls, SlotAlloc);
  reloadFrame();
  return Fresh;
}

/// --- deadlines -------------------------------------------------------

bool Interpreter::expireDeadline() {
  if (DeadlineNs == 0 || Telemetry::coarseNowNs() < DeadlineNs)
    return false;
  Aborted = true;
  writeBackIp();
  vmError("RequestTimeout: request exceeded its deadline");
  return true;
}

/// --- sends -----------------------------------------------------------

void Interpreter::doSend(Oop Selector, unsigned Argc, bool Super) {
  ++SendCount;
  Oop Recv = topValue(Argc);
  Oop StartCls;
  if (Super) {
    Oop MethodClass = ObjectMemory::fetchPointer(CurMethod, MthClass);
    StartCls = ObjectMemory::fetchPointer(MethodClass, ClsSuperclass);
  } else {
    StartCls = Om.classOf(Recv);
  }

  Oop Method, DefCls;
  if (!VM.cache().lookup(Id, StartCls, Selector, Method, DefCls)) {
    ProfStateScope ProfMiss(ProfState::LookupMiss);
    if (Profiler::enabled())
      profNoteCacheMiss(CurMethod.bits(), Selector.bits());
    TraceSpan MissSpan("lookup.miss", "vm");
    ObjectModel::LookupResult R = Om.lookupMethod(StartCls, Selector);
    if (R.Method.isNull()) {
      doesNotUnderstand(Selector, Argc);
      return;
    }
    Method = R.Method;
    DefCls = R.DefiningClass;
    VM.cache().insert(Id, StartCls, Selector, Method, DefCls);
  }

  intptr_t Prim = ObjectMemory::fetchPointer(Method, MthPrimitive).smallInt();
  if (Prim != PrimNone &&
      dispatchPrimitive(static_cast<int>(Prim), Argc) == PrimResult::Success) {
    // One primitive can run for milliseconds (a full collection, a large
    // allocation or copy), so the 512 bytecodes between the slice loop's
    // deadline checks could overshoot the deadline by far. The unwind
    // ends the slice through the loop's Finished check; a primitive that
    // already ended the execution (an error, a nested perform:) keeps
    // its own outcome.
    if (!Finished)
      expireDeadline();
    return;
  }
  activateMethod(Method, Argc);
}

void Interpreter::doSpecialSend(SpecialSelector S) {
  Oop B = topValue(0);
  Oop A = topValue(1);

  // Identity never involves a real send.
  if (S == SpecialSelector::IdentityEq) {
    dropValues(2);
    pushValue(Om.boolFor(A == B));
    return;
  }

  if (A.isSmallInt() && B.isSmallInt()) {
    intptr_t X = A.smallInt(), Y = B.smallInt();
    bool Ok = true;
    Oop Result;
    switch (S) {
    case SpecialSelector::Add: {
      intptr_t R = X + Y;
      Ok = fitsSmallInt(R);
      Result = Oop::fromSmallInt(R);
      break;
    }
    case SpecialSelector::Subtract: {
      intptr_t R = X - Y;
      Ok = fitsSmallInt(R);
      Result = Oop::fromSmallInt(R);
      break;
    }
    case SpecialSelector::Multiply: {
      // Conservative overflow guard for the immediate multiply.
      if (X != 0 && (std::abs(X) > (SmallIntMax / std::abs(Y ? Y : 1))))
        Ok = false;
      else
        Result = Oop::fromSmallInt(X * Y);
      break;
    }
    case SpecialSelector::IntDivide: {
      if (Y == 0) {
        Ok = false;
        break;
      }
      // Floored division.
      intptr_t Q = X / Y;
      if ((X % Y != 0) && ((X < 0) != (Y < 0)))
        --Q;
      Result = Oop::fromSmallInt(Q);
      break;
    }
    case SpecialSelector::Modulo: {
      if (Y == 0) {
        Ok = false;
        break;
      }
      intptr_t R = X % Y;
      if (R != 0 && ((R < 0) != (Y < 0)))
        R += Y;
      Result = Oop::fromSmallInt(R);
      break;
    }
    case SpecialSelector::Less:
      Result = Om.boolFor(X < Y);
      break;
    case SpecialSelector::Greater:
      Result = Om.boolFor(X > Y);
      break;
    case SpecialSelector::LessEq:
      Result = Om.boolFor(X <= Y);
      break;
    case SpecialSelector::GreaterEq:
      Result = Om.boolFor(X >= Y);
      break;
    case SpecialSelector::Equal:
      Result = Om.boolFor(X == Y);
      break;
    case SpecialSelector::NotEqual:
      Result = Om.boolFor(X != Y);
      break;
    case SpecialSelector::BitAnd:
      Result = Oop::fromSmallInt(X & Y);
      break;
    case SpecialSelector::BitOr:
      Result = Oop::fromSmallInt(X | Y);
      break;
    case SpecialSelector::BitShift:
      if (Y >= 0 && Y < 48) {
        intptr_t R = X << Y;
        Ok = fitsSmallInt(R) && (R >> Y) == X;
        Result = Oop::fromSmallInt(R);
      } else if (Y < 0 && Y > -64) {
        Result = Oop::fromSmallInt(X >> -Y);
      } else {
        Ok = false;
      }
      break;
    case SpecialSelector::IdentityEq:
    case SpecialSelector::NumSpecialSelectors:
      MST_UNREACHABLE("handled above");
    }
    if (Ok) {
      dropValues(2);
      pushValue(Result);
      return;
    }
  }
  // Fall back to a real send of the mapped selector.
  doSend(Om.known().SpecialSelectors[static_cast<size_t>(S)],
         specialSelectorArgc(S), /*Super=*/false);
}

void Interpreter::activateMethod(Oop Method, unsigned Argc) {
  intptr_t NumTemps =
      ObjectMemory::fetchPointer(Method, MthNumTemps).smallInt();
  intptr_t Frame =
      ObjectMemory::fetchPointer(Method, MthFrameSize).smallInt();
  assert(ObjectMemory::fetchPointer(Method, MthNumArgs).smallInt() ==
             static_cast<intptr_t>(Argc) &&
         "send argument count disagrees with the method");

  uint32_t SlotsNeeded =
      CtxFixedSlots + static_cast<uint32_t>(Frame);
  // Method came from a method dictionary, whose methods are old (see
  // installMethod): safe to hold across the GC point below.
  Oop NewCtx = allocateContext(SlotsNeeded, Om.known().ClassMethodContext);
  if (NewCtx.isNull()) {
    vmError("OutOfMemoryError: cannot allocate a method context (heap "
            "ceiling reached)");
    return;
  }

  ObjectHeader *N = NewCtx.object();
  N->setClassOop(Om.known().ClassMethodContext);
  Oop *NS = N->slots();
  Oop *CS = CtxH->slots();

  NS[CtxSender] = Roots.ActiveContext;
  OM.writeBarrier(N, Roots.ActiveContext);
  NS[CtxIp] = Oop::fromSmallInt(0);
  NS[CtxMethod] = Method;
  Oop Recv = CS[SpVal - static_cast<intptr_t>(Argc)];
  NS[CtxReceiver] = Recv;
  OM.writeBarrier(N, Recv);
  for (unsigned I = 0; I < Argc; ++I) {
    Oop Arg = CS[SpVal - static_cast<intptr_t>(Argc) + 1 + I];
    NS[CtxFixedSlots + I] = Arg;
    OM.writeBarrier(N, Arg);
  }
  for (intptr_t I = Argc; I < NumTemps; ++I)
    NS[CtxFixedSlots + I] = Om.nil();
  intptr_t NewSp = CtxFixedSlots + NumTemps - 1;
  NS[CtxSp] = Oop::fromSmallInt(NewSp);

  // Pop receiver and arguments from the caller.
  dropValues(Argc + 1);
  writeBackIp();

  Roots.ActiveContext = NewCtx;
  reloadFrame();
}

void Interpreter::doesNotUnderstand(Oop Selector, unsigned Argc) {
  if (Selector == Om.known().SelDoesNotUnderstand) {
    vmError("message not understood (and no doesNotUnderstand: handler)");
    return;
  }
  KnownObjects &K = Om.known();
  writeBackIp();
  HandleStack &HS = OM.handles();
  {
    Oop ArrRaw = OM.allocatePointers(K.ClassArray, Argc);
    reloadFrame();
    if (ArrRaw.isNull()) {
      vmError("OutOfMemoryError: cannot build the doesNotUnderstand: "
              "message (heap ceiling reached)");
      return;
    }
    Handle Arr(HS, ArrRaw);
    for (unsigned I = 0; I < Argc; ++I)
      OM.storePointer(Arr.get(), I,
                      CtxH->slots()[SpVal - static_cast<intptr_t>(Argc) +
                                    1 + I]);
    Oop MsgRaw = OM.allocatePointers(K.ClassMessage, MessageSlotCount);
    reloadFrame();
    if (MsgRaw.isNull()) {
      vmError("OutOfMemoryError: cannot build the doesNotUnderstand: "
              "message (heap ceiling reached)");
      return;
    }
    Handle Msg(HS, MsgRaw);
    OM.storePointer(Msg.get(), MsgSelector, Selector);
    OM.storePointer(Msg.get(), MsgArguments, Arr.get());
    dropValues(Argc);
    pushValue(Msg.get());
  }
  doSend(K.SelDoesNotUnderstand, 1, /*Super=*/false);
}

void Interpreter::doReturn(Oop Value, bool BlockReturn) {
  Oop Nil = Om.nil();
  Oop Target;
  if (BlockReturn) {
    Target = CtxH->slots()[BlkCaller];
  } else if (IsBlock) {
    // ^ inside a block: non-local return to the home method's sender.
    Oop Home = CtxH->slots()[BlkHome];
    Target = Home.object()->slots()[CtxSender];
    if (Target == Nil) {
      vmError("block cannot return: home context already returned");
      return;
    }
  } else {
    Target = CtxH->slots()[CtxSender];
  }

  if (Target == Nil || Target.isNull()) {
    Roots.PendingResult = Value;
    Finished = true;
    return;
  }

  bool Recycle = !IsBlock && !BlockReturn && !CtxH->isEscaped();
  Oop Dead = Roots.ActiveContext;
  // Sever the dead frame's sender link so stale non-local returns through
  // it are detectable.
  if (!IsBlock)
    CtxH->slots()[CtxSender] = Nil;

  Roots.ActiveContext = Target;
  reloadFrame();
  pushValue(Value);
  if (Recycle)
    VM.contextPool().give(Id, Dead);
}

void Interpreter::doBlockCopy(unsigned NumArgs, unsigned Frame) {
  uint32_t SlotsNeeded = BlkFixedSlots + Frame;
  Oop B = allocateContext(SlotsNeeded, Om.known().ClassBlockContext);
  if (B.isNull()) {
    vmError("OutOfMemoryError: cannot allocate a block context (heap "
            "ceiling reached)");
    return;
  }
  ObjectHeader *N = B.object();
  N->setClassOop(Om.known().ClassBlockContext);

  // Recompute home after the GC point and mark it escaped: the block will
  // reference its temps for as long as the block lives.
  Oop HomeOop = IsBlock ? CtxH->slots()[BlkHome] : Roots.ActiveContext;
  HomeH->setEscaped();

  Oop *NS = N->slots();
  NS[BlkCaller] = Om.nil();
  NS[BlkIp] = Oop::fromSmallInt(0);
  NS[BlkSp] = Oop::fromSmallInt(BlkFixedSlots - 1);
  NS[BlkNumArgs] = Oop::fromSmallInt(NumArgs);
  NS[BlkInitialIp] = Oop::fromSmallInt(static_cast<intptr_t>(Ip));
  NS[BlkHome] = HomeOop;
  OM.writeBarrier(N, HomeOop);

  pushValue(B);
}

/// --- errors -----------------------------------------------------------

void Interpreter::vmError(const std::string &Msg) {
  // Build a Smalltalk backtrace by walking the sender/caller chain, the
  // way a debugger would show it.
  std::string Trace;
  Oop Nil = Om.nil();
  Oop Ctx = Roots.ActiveContext;
  for (int Depth = 0; Depth < 12 && Ctx.isPointer() && Ctx != Nil;
       ++Depth) {
    ObjectHeader *H = Ctx.object();
    bool Block = H->classOop() == Om.known().ClassBlockContext;
    Oop Home = Block ? H->slots()[BlkHome] : Ctx;
    Oop Method = Home.isPointer() && Home != Nil
                     ? Home.object()->slots()[CtxMethod]
                     : Oop();
    Trace += "\n    ";
    if (Block)
      Trace += "[] in ";
    if (Method.isPointer()) {
      Oop Sel = ObjectMemory::fetchPointer(Method, MthSelector);
      Oop MthCls = ObjectMemory::fetchPointer(Method, MthClass);
      Trace += Om.className(MthCls) + ">>" +
               ObjectModel::stringValue(Sel);
    } else {
      Trace += "(no method)";
    }
    Ctx = Block ? H->slots()[BlkCaller] : H->slots()[CtxSender];
  }
  VM.logError(Msg + Trace);
  Errored = true;
  Finished = true;
  Roots.PendingResult = Oop();
}

/// --- the bytecode loop ------------------------------------------------

namespace {
/// Bytecodes per scheduling slice.
constexpr uint64_t SliceBytecodes = 10000;
/// Processor-time cap per slice (microseconds): preempts Processes that
/// spend their slice inside long-running primitives (compiler,
/// decompiler), the way the timer interrupt did on real hardware.
constexpr uint64_t SliceMicros = 2000;
} // namespace

RunResult Interpreter::interpretSlice(uint64_t MaxBytecodes) {
  reloadFrame();
  Safepoint &Sp = OM.safepoint();
  // This slice has run BytecodeCount - SliceStart bytecodes. The untimed
  // slice's limit, UINT64_MAX, is never reached.
  const uint64_t SliceStart = BytecodeCount;
  // Time-based preemption: a Process that buries its slice inside long
  // primitives still yields within SliceMicros of processor time
  // (the timer interrupt of real hardware). Only armed for real slices.
  const bool TimedSlice = MaxBytecodes != UINT64_MAX;
  const uint64_t SliceStartUs = TimedSlice ? threadCpuMicros() : 0;

  for (;;) {
    if (Sp.pollNeeded()) {
      writeBackIp();
      Sp.pollSlow();
      reloadFrame();
    }
    if (VM.stopping()) {
      writeBackIp();
      return RunResult::Stopping;
    }
    uint64_t Executed = BytecodeCount - SliceStart;
    if (Executed >= MaxBytecodes) {
      writeBackIp();
      return RunResult::Yielded;
    }
    if ((Executed & 511) == 511) {
      // The deadline is armed even for untimed (driver) slices: a serve
      // request runs as one runToCompletion call, and this is where a
      // runaway `[true] whileTrue.` that sends nothing is caught.
      if (expireDeadline())
        return RunResult::Terminated;
      if (TimedSlice &&
          threadCpuMicros() - SliceStartUs > SliceMicros) {
        writeBackIp();
        return RunResult::Yielded;
      }
    }
    ++BytecodeCount;

    Op O = static_cast<Op>(Code[Ip++]);
    switch (O) {
    case Op::PushSelf:
      pushValue(receiver());
      break;
    case Op::PushNil:
      pushValue(Om.nil());
      break;
    case Op::PushTrue:
      pushValue(Om.known().TrueObj);
      break;
    case Op::PushFalse:
      pushValue(Om.known().FalseObj);
      break;
    case Op::PushThisContext:
      CtxH->setEscaped();
      pushValue(Roots.ActiveContext);
      break;
    case Op::PushTemp:
      pushValue(fetchTemp(Code[Ip++]));
      break;
    case Op::PushInstVar:
      pushValue(fetchIvar(Code[Ip++]));
      break;
    case Op::PushLiteral: {
      Oop Lits = ObjectMemory::fetchPointer(CurMethod, MthLiterals);
      pushValue(Lits.object()->slots()[Code[Ip++]]);
      break;
    }
    case Op::PushGlobal: {
      Oop Lits = ObjectMemory::fetchPointer(CurMethod, MthLiterals);
      Oop Assoc = Lits.object()->slots()[Code[Ip++]];
      pushValue(ObjectMemory::fetchPointer(Assoc, AssocValue));
      break;
    }
    case Op::PushSmallInt:
      pushValue(Oop::fromSmallInt(static_cast<int8_t>(Code[Ip++])));
      break;
    case Op::StoreTemp:
      storeTempValue(Code[Ip++], topValue());
      break;
    case Op::StoreInstVar:
      storeIvar(Code[Ip++], topValue());
      break;
    case Op::StoreGlobal: {
      Oop Lits = ObjectMemory::fetchPointer(CurMethod, MthLiterals);
      Oop Assoc = Lits.object()->slots()[Code[Ip++]];
      OM.storePointer(Assoc, AssocValue, topValue());
      break;
    }
    case Op::Pop:
      dropValues(1);
      break;
    case Op::Dup:
      pushValue(topValue());
      break;
    case Op::Jump: {
      int16_t Off = static_cast<int16_t>(Code[Ip] | (Code[Ip + 1] << 8));
      Ip = static_cast<uint32_t>(static_cast<intptr_t>(Ip) + 2 + Off);
      break;
    }
    case Op::JumpIfTrue:
    case Op::JumpIfFalse: {
      int16_t Off = static_cast<int16_t>(Code[Ip] | (Code[Ip + 1] << 8));
      Ip += 2;
      Oop Cond = popValue();
      bool Taken;
      if (Cond == Om.known().TrueObj)
        Taken = O == Op::JumpIfTrue;
      else if (Cond == Om.known().FalseObj)
        Taken = O == Op::JumpIfFalse;
      else {
        vmError("mustBeBoolean: conditional jump on " + Om.describe(Cond));
        break;
      }
      if (Taken)
        Ip = static_cast<uint32_t>(static_cast<intptr_t>(Ip) + Off);
      break;
    }
    case Op::Send: {
      uint8_t LitIdx = Code[Ip++];
      uint8_t Argc = Code[Ip++];
      Oop Lits = ObjectMemory::fetchPointer(CurMethod, MthLiterals);
      Oop Selector = Lits.object()->slots()[LitIdx];
      doSend(Selector, Argc, /*Super=*/false);
      break;
    }
    case Op::SendSuper: {
      uint8_t LitIdx = Code[Ip++];
      uint8_t Argc = Code[Ip++];
      Oop Lits = ObjectMemory::fetchPointer(CurMethod, MthLiterals);
      Oop Selector = Lits.object()->slots()[LitIdx];
      doSend(Selector, Argc, /*Super=*/true);
      break;
    }
    case Op::SendSpecial:
      doSpecialSend(static_cast<SpecialSelector>(Code[Ip++]));
      break;
    case Op::BlockCopy: {
      uint8_t NumArgs = Code[Ip];
      uint8_t Frame = Code[Ip + 1];
      uint16_t Skip =
          static_cast<uint16_t>(Code[Ip + 2] | (Code[Ip + 3] << 8));
      Ip += 4;
      uint32_t BodyStart = Ip;
      doBlockCopy(NumArgs, Frame);
      Ip = BodyStart + Skip;
      break;
    }
    case Op::ReturnTop:
      doReturn(popValue(), /*BlockReturn=*/false);
      break;
    case Op::ReturnSelf:
      doReturn(receiver(), /*BlockReturn=*/false);
      break;
    case Op::BlockReturn:
      doReturn(popValue(), /*BlockReturn=*/true);
      break;
    }

    if (Finished)
      return RunResult::Terminated;
    if (FlagBlocked) {
      FlagBlocked = false;
      return RunResult::Blocked;
    }
    if (FlagYield) {
      FlagYield = false;
      writeBackIp();
      return RunResult::Yielded;
    }
  }
}

/// --- process plumbing -------------------------------------------------

bool Interpreter::activateProcess(Oop Proc) {
  Roots.ActiveProcess = Proc;
  Oop Ctx = ObjectMemory::fetchPointer(Proc, ProcSuspendedContext);
  if (Ctx == Om.nil() || Ctx.isNull())
    return false;
  Roots.ActiveContext = Ctx;
  return true;
}

void Interpreter::saveProcessState() {
  writeBackIp();
  OM.storePointer(Roots.ActiveProcess, ProcSuspendedContext,
                  Roots.ActiveContext);
}

void Interpreter::runLoop() {
  OM.registerMutator("interpreter-" + std::to_string(Id));
  Profiler::registerThread("vp" + std::to_string(Id),
                           static_cast<int>(Id));
  Safepoint &Sp = OM.safepoint();

  while (!VM.stopping()) {
    if (Sp.pollNeeded())
      Sp.pollSlow();

    // Read before the pick: a Process readied after the pick found none
    // advances the epoch, and the wait returns at once.
    uint64_t Epoch = VM.scheduler().workEpoch();
    Oop P = VM.scheduler().pickProcessToRun();
    if (P.isNull()) {
      BlockedRegion Region(Sp);
      VM.scheduler().waitForWork(Epoch);
      continue;
    }
    if (!activateProcess(P)) {
      VM.scheduler().terminateProcess(P);
      Roots.ActiveProcess = Oop();
      continue;
    }

    Finished = Errored = FlagBlocked = FlagYield = false;
    uint64_t CpuBefore = threadCpuMicros();
    RunResult R = interpretSlice(SliceBytecodes);

    // The process oop may have moved during the slice; use the root.
    Oop Proc = Roots.ActiveProcess;

    // Attribute the slice's processor time to the Smalltalk Process (see
    // ProcAccumUs). Thread-CPU time excludes descheduled periods, so the
    // attribution stays meaningful when interpreters outnumber host CPUs.
    {
      uint64_t CpuDelta = threadCpuMicros() - CpuBefore;
      intptr_t Prev =
          ObjectMemory::fetchPointer(Proc, ProcAccumUs).isSmallInt()
              ? ObjectMemory::fetchPointer(Proc, ProcAccumUs).smallInt()
              : 0;
      OM.storePointer(Proc, ProcAccumUs,
                      Oop::fromSmallInt(Prev +
                                        static_cast<intptr_t>(CpuDelta)));
    }
    switch (R) {
    case RunResult::Yielded:
      saveProcessState();
      VM.scheduler().yieldProcess(Proc);
      break;
    case RunResult::Blocked:
      // State already saved by the blocking primitive.
      break;
    case RunResult::Terminated:
      VM.scheduler().terminateProcess(Proc);
      break;
    case RunResult::Stopping:
      saveProcessState();
      VM.scheduler().yieldProcess(Proc);
      break;
    }
    Roots.ActiveProcess = Oop();
    Roots.ActiveContext = Oop();
    if (R == RunResult::Stopping)
      break;
  }
  Profiler::retireThread();
  OM.unregisterMutator();
}

Oop Interpreter::runToCompletion(Oop Ctx) {
  Roots.ActiveProcess = Oop();
  Roots.ActiveContext = Ctx;
  Roots.PendingResult = Oop();
  Finished = Errored = FlagBlocked = FlagYield = false;
  Aborted = false;

  for (;;) {
    RunResult R = interpretSlice(UINT64_MAX);
    if (R == RunResult::Terminated)
      break;
    if (R == RunResult::Stopping) {
      Roots.ActiveContext = Oop();
      return Oop();
    }
    // Yielded (explicit Processor yield in a doIt): just keep going.
    if (R == RunResult::Blocked) {
      // Cannot happen: blocking primitives error out without a process.
      MST_UNREACHABLE("driver execution blocked");
    }
  }
  Roots.ActiveContext = Oop();
  Oop Result = Roots.PendingResult;
  Roots.PendingResult = Oop();
  return Errored ? Oop() : Result;
}
