//===-- vm/Primitives.cpp - Primitive operations ----------------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implementation of Interpreter::dispatchPrimitive. Conventions:
///  - On entry the operand stack holds [receiver, arg1 .. argN].
///  - Success replaces them with the result.
///  - Fail leaves the stack untouched; the send falls through to the
///    method's Smalltalk body.
///  - Any primitive that allocates in new space is a GC point: it writes
///    the ip back, allocates, and reloads the frame cache.
///
//===----------------------------------------------------------------------===//

#include <atomic>
#include <cstring>

#include "support/Assert.h"
#include "vm/Compiler.h"
#include "vm/Decompiler.h"
#include "vm/Interpreter.h"
#include "vm/Primitives.h"
#include "vm/VirtualMachine.h"

using namespace mst;

namespace {

/// Byte objects (Strings, the shared display buffer) are accessed from
/// several Smalltalk processes with no lock, by the paper's design. Relaxed
/// per-byte atomics keep concurrent access untorn without imposing
/// ordering; memcpy/memmove would be plain accesses racing a concurrent
/// at:put: store.
uint8_t loadByteRelaxed(const uint8_t *P) {
  return std::atomic_ref<const uint8_t>(*P).load(std::memory_order_relaxed);
}

void storeByteRelaxed(uint8_t *P, uint8_t V) {
  std::atomic_ref<uint8_t>(*P).store(V, std::memory_order_relaxed);
}

/// memmove semantics: handles overlap by picking the copy direction.
void copyBytesRelaxed(uint8_t *Dst, const uint8_t *Src, size_t N) {
  if (Dst <= Src)
    for (size_t I = 0; I < N; ++I)
      storeByteRelaxed(Dst + I, loadByteRelaxed(Src + I));
  else
    for (size_t I = N; I > 0; --I)
      storeByteRelaxed(Dst + I - 1, loadByteRelaxed(Src + I - 1));
}

} // namespace

Interpreter::PrimResult Interpreter::dispatchPrimitive(int Index,
                                                       unsigned Argc) {
  KnownObjects &K = Om.known();
  Oop Nil = Om.nil();
  Oop Recv = topValue(Argc);

  auto Replace = [this, Argc](Oop Result) {
    dropValues(Argc + 1);
    pushValue(Result);
    return PrimResult::Success;
  };

  switch (Index) {
  /// --- object access ----------------------------------------------------
  case PrimAt: {
    Oop IdxO = topValue(0);
    if (!IdxO.isSmallInt() || !Recv.isPointer())
      return PrimResult::Fail;
    intptr_t Idx = IdxO.smallInt();
    ObjectHeader *H = Recv.object();
    if (H->Format == ObjectFormat::Bytes) {
      if (Idx < 1 || Idx > static_cast<intptr_t>(H->ByteLength))
        return PrimResult::Fail;
      uint8_t Byte = loadByteRelaxed(&H->bytes()[Idx - 1]);
      bool IsStr = Om.isKindOf(Recv, K.ClassString);
      return Replace(IsStr ? Om.characterFor(Byte)
                           : Oop::fromSmallInt(Byte));
    }
    if (H->Format == ObjectFormat::Pointers) {
      Oop Cls = H->classOop();
      if (Om.kindOf(Cls) != ClassKind::IdxPointers)
        return PrimResult::Fail;
      uint32_t Fixed = Om.fixedFieldsOf(Cls);
      if (Idx < 1 ||
          Idx > static_cast<intptr_t>(H->SlotCount - Fixed))
        return PrimResult::Fail;
      return Replace(ObjectMemory::fetchPointer(
          Recv, Fixed + static_cast<uint32_t>(Idx) - 1));
    }
    return PrimResult::Fail;
  }

  case PrimAtPut: {
    Oop IdxO = topValue(1);
    Oop Val = topValue(0);
    if (!IdxO.isSmallInt() || !Recv.isPointer())
      return PrimResult::Fail;
    intptr_t Idx = IdxO.smallInt();
    ObjectHeader *H = Recv.object();
    if (H->Format == ObjectFormat::Bytes) {
      if (Idx < 1 || Idx > static_cast<intptr_t>(H->ByteLength))
        return PrimResult::Fail;
      intptr_t Byte;
      if (Val.isSmallInt())
        Byte = Val.smallInt();
      else if (Val.isPointer() && Om.classOf(Val) == K.ClassCharacter)
        Byte = ObjectMemory::fetchPointer(Val, CharValue).smallInt();
      else
        return PrimResult::Fail;
      if (Byte < 0 || Byte > 255)
        return PrimResult::Fail;
      storeByteRelaxed(&H->bytes()[Idx - 1], static_cast<uint8_t>(Byte));
      return Replace(Val);
    }
    if (H->Format == ObjectFormat::Pointers) {
      Oop Cls = H->classOop();
      if (Om.kindOf(Cls) != ClassKind::IdxPointers)
        return PrimResult::Fail;
      uint32_t Fixed = Om.fixedFieldsOf(Cls);
      if (Idx < 1 ||
          Idx > static_cast<intptr_t>(H->SlotCount - Fixed))
        return PrimResult::Fail;
      OM.storePointer(Recv, Fixed + static_cast<uint32_t>(Idx) - 1, Val);
      return Replace(Val);
    }
    return PrimResult::Fail;
  }

  case PrimSize: {
    if (!Recv.isPointer())
      return Replace(Oop::fromSmallInt(0));
    ObjectHeader *H = Recv.object();
    if (H->Format == ObjectFormat::Bytes)
      return Replace(Oop::fromSmallInt(H->ByteLength));
    if (H->Format == ObjectFormat::Pointers) {
      Oop Cls = H->classOop();
      if (Om.kindOf(Cls) == ClassKind::IdxPointers)
        return Replace(
            Oop::fromSmallInt(H->SlotCount - Om.fixedFieldsOf(Cls)));
    }
    return Replace(Oop::fromSmallInt(0));
  }

  case PrimBasicNew:
  case PrimBasicNewSize: {
    if (!Recv.isPointer() || !Om.isKindOf(Recv, K.ClassBehavior))
      return PrimResult::Fail;
    uint32_t N = 0;
    if (Index == PrimBasicNewSize) {
      Oop NO = topValue(0);
      if (!NO.isSmallInt() || NO.smallInt() < 0)
        return PrimResult::Fail;
      N = static_cast<uint32_t>(NO.smallInt());
    }
    if (Om.kindOf(Recv) == ClassKind::Fixed && Index == PrimBasicNewSize)
      return PrimResult::Fail;
    writeBackIp();
    Oop Inst = Om.instantiate(Recv, N);
    reloadFrame();
    if (Inst.isNull()) {
      vmError("OutOfMemoryError: basicNew failed (heap ceiling reached)");
      return PrimResult::Success;
    }
    return Replace(Inst);
  }

  case PrimClass:
    return Replace(Om.classOf(Recv));

  case PrimIdentityHash:
    return Replace(Oop::fromSmallInt(ObjectModel::identityHash(Recv)));

  case PrimIdentical:
    return Replace(Om.boolFor(Recv == topValue(0)));

  case PrimShallowCopy: {
    if (!Recv.isPointer())
      return Replace(Recv); // immediates copy as themselves
    ObjectHeader *H = Recv.object();
    if (H->Format == ObjectFormat::Context)
      return PrimResult::Fail; // contexts are not copyable objects
    writeBackIp();
    Oop Copy;
    if (H->Format == ObjectFormat::Bytes) {
      Copy = OM.allocateBytes(Om.classOf(Recv), H->ByteLength);
      reloadFrame();
      if (Copy.isNull()) {
        vmError("OutOfMemoryError: shallowCopy failed (heap ceiling "
                "reached)");
        return PrimResult::Success;
      }
      // Refetch the receiver: the allocation may have moved it.
      Oop Src = topValue(Argc);
      copyBytesRelaxed(Copy.object()->bytes(), Src.object()->bytes(),
                       Src.object()->ByteLength);
    } else {
      Copy = OM.allocatePointers(Om.classOf(Recv), H->SlotCount);
      reloadFrame();
      if (Copy.isNull()) {
        vmError("OutOfMemoryError: shallowCopy failed (heap ceiling "
                "reached)");
        return PrimResult::Success;
      }
      Oop Src = topValue(Argc);
      for (uint32_t I = 0; I < Src.object()->SlotCount; ++I)
        OM.storePointer(Copy, I, ObjectMemory::fetchPointer(Src, I));
    }
    return Replace(Copy);
  }

  case PrimReplaceFromTo: {
    // receiver replaceFrom: start to: stop with: src startingAt: srcStart
    Oop StartO = topValue(3), StopO = topValue(2), Src = topValue(1),
        SrcStartO = topValue(0);
    if (!StartO.isSmallInt() || !StopO.isSmallInt() ||
        !SrcStartO.isSmallInt() || !Recv.isPointer() || !Src.isPointer())
      return PrimResult::Fail;
    intptr_t Start = StartO.smallInt(), Stop = StopO.smallInt(),
             SrcStart = SrcStartO.smallInt();
    if (Start < 1 || Stop < Start - 1 || SrcStart < 1)
      return PrimResult::Fail;
    intptr_t Count = Stop - Start + 1;
    ObjectHeader *D = Recv.object();
    ObjectHeader *S = Src.object();
    if (D->Format == ObjectFormat::Bytes &&
        S->Format == ObjectFormat::Bytes) {
      if (Stop > static_cast<intptr_t>(D->ByteLength) ||
          SrcStart + Count - 1 > static_cast<intptr_t>(S->ByteLength))
        return PrimResult::Fail;
      copyBytesRelaxed(D->bytes() + Start - 1, S->bytes() + SrcStart - 1,
                       static_cast<size_t>(Count));
      return Replace(Recv);
    }
    if (D->Format == ObjectFormat::Pointers &&
        S->Format == ObjectFormat::Pointers) {
      Oop DCls = D->classOop(), SCls = S->classOop();
      if (Om.kindOf(DCls) != ClassKind::IdxPointers ||
          Om.kindOf(SCls) != ClassKind::IdxPointers)
        return PrimResult::Fail;
      uint32_t DF = Om.fixedFieldsOf(DCls), SF = Om.fixedFieldsOf(SCls);
      if (Stop > static_cast<intptr_t>(D->SlotCount - DF) ||
          SrcStart + Count - 1 > static_cast<intptr_t>(S->SlotCount - SF))
        return PrimResult::Fail;
      for (intptr_t I = 0; I < Count; ++I)
        OM.storePointer(
            Recv, DF + static_cast<uint32_t>(Start - 1 + I),
            ObjectMemory::fetchPointer(
                Src, static_cast<uint32_t>(SF + SrcStart - 1 + I)));
      return Replace(Recv);
    }
    return PrimResult::Fail;
  }

  case PrimAsSymbol: {
    if (!Recv.isPointer() || Recv.object()->Format != ObjectFormat::Bytes)
      return PrimResult::Fail;
    // Interning allocates in (non-moving) old space only.
    return Replace(Om.intern(ObjectModel::stringValue(Recv)));
  }

  case PrimSymbolAsString: {
    if (!Recv.isPointer() || Recv.object()->Format != ObjectFormat::Bytes)
      return PrimResult::Fail;
    std::string Text = ObjectModel::stringValue(Recv);
    writeBackIp();
    Oop Str = Om.makeString(Text);
    reloadFrame();
    if (Str.isNull()) {
      vmError("OutOfMemoryError: asString failed (heap ceiling reached)");
      return PrimResult::Success;
    }
    return Replace(Str);
  }

  case PrimSmallIntPrintString: {
    if (!Recv.isSmallInt())
      return PrimResult::Fail;
    std::string Text = std::to_string(Recv.smallInt());
    writeBackIp();
    Oop Str = Om.makeString(Text);
    reloadFrame();
    if (Str.isNull()) {
      vmError("OutOfMemoryError: printString failed (heap ceiling reached)");
      return PrimResult::Success;
    }
    return Replace(Str);
  }

  case PrimCharFromValue: {
    Oop VO = topValue(0);
    if (!VO.isSmallInt() || VO.smallInt() < 0 || VO.smallInt() > 255)
      return PrimResult::Fail;
    return Replace(Om.characterFor(static_cast<uint8_t>(VO.smallInt())));
  }

  case PrimInstVarAt: {
    Oop IdxO = topValue(0);
    if (!IdxO.isSmallInt() || !Recv.isPointer())
      return PrimResult::Fail;
    intptr_t Idx = IdxO.smallInt();
    ObjectHeader *H = Recv.object();
    if (H->Format == ObjectFormat::Bytes || Idx < 1 ||
        Idx > static_cast<intptr_t>(H->SlotCount))
      return PrimResult::Fail;
    return Replace(H->slots()[Idx - 1]);
  }

  case PrimInstVarAtPut: {
    Oop IdxO = topValue(1);
    Oop Val = topValue(0);
    if (!IdxO.isSmallInt() || !Recv.isPointer())
      return PrimResult::Fail;
    intptr_t Idx = IdxO.smallInt();
    ObjectHeader *H = Recv.object();
    if (H->Format == ObjectFormat::Bytes || Idx < 1 ||
        Idx > static_cast<intptr_t>(H->SlotCount))
      return PrimResult::Fail;
    OM.storePointer(Recv, static_cast<uint32_t>(Idx) - 1, Val);
    return Replace(Val);
  }

  case PrimStringEqual: {
    Oop Other = topValue(0);
    if (!Recv.isPointer() || !Other.isPointer())
      return PrimResult::Fail;
    ObjectHeader *A = Recv.object(), *B = Other.object();
    if (A->Format != ObjectFormat::Bytes ||
        B->Format != ObjectFormat::Bytes)
      return PrimResult::Fail;
    bool Eq = A->ByteLength == B->ByteLength &&
              std::memcmp(A->bytes(), B->bytes(), A->ByteLength) == 0;
    return Replace(Om.boolFor(Eq));
  }

  /// --- blocks --------------------------------------------------------
  case PrimBlockValue: {
    if (!Recv.isPointer() || Om.classOf(Recv) != K.ClassBlockContext)
      return PrimResult::Fail;
    ObjectHeader *B = Recv.object();
    if (B->slots()[BlkNumArgs].smallInt() != static_cast<intptr_t>(Argc))
      return PrimResult::Fail;
    // Transfer the arguments onto the block's own (fresh) stack.
    for (unsigned I = 0; I < Argc; ++I) {
      Oop Arg = topValue(Argc - 1 - I);
      B->slots()[BlkFixedSlots + I] = Arg;
      OM.writeBarrier(B, Arg);
    }
    B->slots()[BlkSp] =
        Oop::fromSmallInt(BlkFixedSlots + static_cast<intptr_t>(Argc) - 1);
    B->slots()[BlkIp] = B->slots()[BlkInitialIp];
    B->slots()[BlkCaller] = Roots.ActiveContext;
    OM.writeBarrier(B, Roots.ActiveContext);
    dropValues(Argc + 1);
    writeBackIp();
    Roots.ActiveContext = Recv;
    reloadFrame();
    return PrimResult::Success;
  }

  /// --- processes --------------------------------------------------------
  case PrimNewProcess: {
    // aBlock newProcessAt: priority — the block must take no arguments.
    Oop PrioO = topValue(0);
    if (!Recv.isPointer() || Om.classOf(Recv) != K.ClassBlockContext ||
        !PrioO.isSmallInt())
      return PrimResult::Fail;
    intptr_t Prio = PrioO.smallInt();
    if (Prio < 1 || Prio > static_cast<intptr_t>(NumPriorities))
      return PrimResult::Fail;
    if (Recv.object()->slots()[BlkNumArgs].smallInt() != 0)
      return PrimResult::Fail;

    writeBackIp();
    uint32_t Slots = Recv.object()->SlotCount;
    Oop NewBlk = OM.allocateContextObject(K.ClassBlockContext, Slots);
    reloadFrame();
    if (NewBlk.isNull()) {
      vmError("OutOfMemoryError: newProcess failed (heap ceiling reached)");
      return PrimResult::Success;
    }
    // Refetch the (possibly moved) receiver block.
    Oop Blk = topValue(Argc);
    ObjectHeader *B = Blk.object();
    ObjectHeader *N = NewBlk.object();
    N->slots()[BlkCaller] = Nil;
    N->slots()[BlkIp] = B->slots()[BlkInitialIp];
    N->slots()[BlkSp] = Oop::fromSmallInt(BlkFixedSlots - 1);
    N->slots()[BlkNumArgs] = Oop::fromSmallInt(0);
    N->slots()[BlkInitialIp] = B->slots()[BlkInitialIp];
    Oop Home = B->slots()[BlkHome];
    N->slots()[BlkHome] = Home;
    OM.writeBarrier(N, Home);
    N->setEscaped();

    Oop Proc = VM.scheduler().createProcess(NewBlk, static_cast<int>(Prio),
                                            "forked");
    reloadFrame();
    if (Proc.isNull()) {
      vmError("OutOfMemoryError: newProcess failed (heap ceiling reached)");
      return PrimResult::Success;
    }
    return Replace(Proc);
  }

  case PrimResumeProcess: {
    if (!Recv.isPointer() || Om.classOf(Recv) != K.ClassProcess)
      return PrimResult::Fail;
    VM.scheduler().resumeProcess(Recv);
    return Replace(Recv);
  }

  case PrimSuspendProcess: {
    if (!Recv.isPointer() || Om.classOf(Recv) != K.ClassProcess)
      return PrimResult::Fail;
    if (Recv == Roots.ActiveProcess) {
      writeBackIp();
      // The receiver (== result) is already on the stack for resumption.
      dropValues(Argc + 1);
      pushValue(Recv);
      saveProcessState();
      VM.scheduler().suspendProcess(Recv);
      VM.scheduler().yieldProcess(Recv); // clears the running flag
      FlagBlocked = true;
      return PrimResult::Success;
    }
    VM.scheduler().suspendProcess(Recv);
    return Replace(Recv);
  }

  case PrimTerminateProcess: {
    if (!Recv.isPointer() || Om.classOf(Recv) != K.ClassProcess)
      return PrimResult::Fail;
    if (Recv == Roots.ActiveProcess) {
      Finished = true;
      return PrimResult::Success;
    }
    VM.scheduler().terminateProcess(Recv);
    return Replace(Recv);
  }

  case PrimYield: {
    if (Roots.ActiveProcess.isNull())
      return Replace(Recv); // Driver doIt: yield is a no-op.
    FlagYield = true;
    return Replace(Recv);
  }

  /// --- semaphores -------------------------------------------------------
  case PrimSemaphoreSignal: {
    if (!Recv.isPointer() || !Om.isKindOf(Recv, K.ClassSemaphore))
      return PrimResult::Fail;
    VM.scheduler().semaphoreSignal(Recv);
    return Replace(Recv);
  }

  case PrimSemaphoreWait: {
    if (!Recv.isPointer() || !Om.isKindOf(Recv, K.ClassSemaphore))
      return PrimResult::Fail;
    if (Roots.ActiveProcess.isNull()) {
      vmError("semaphore wait outside a Smalltalk Process");
      return PrimResult::Success;
    }
    // Result (the receiver) must be on the stack before the context is
    // saved, so the process resumes with the right value.
    dropValues(Argc + 1);
    pushValue(Recv);
    writeBackIp();
    saveProcessState();
    if (VM.scheduler().semaphoreWait(Recv, Roots.ActiveProcess))
      FlagBlocked = true;
    return PrimResult::Success;
  }

  /// --- reorganized scheduler queries (paper §3.3) -------------------------
  case PrimCanRun: {
    Oop Proc = topValue(0);
    if (!Proc.isPointer() || Om.classOf(Proc) != K.ClassProcess)
      return PrimResult::Fail;
    return Replace(Om.boolFor(VM.scheduler().canRun(Proc)));
  }

  case PrimThisProcess:
    return Replace(Roots.ActiveProcess.isNull() ? Nil
                                                : Roots.ActiveProcess);

  /// --- I/O and clock ------------------------------------------------------
  case PrimDisplayShow: {
    Oop Text = topValue(0);
    if (!Text.isPointer() ||
        Text.object()->Format != ObjectFormat::Bytes)
      return PrimResult::Fail;
    VM.display().submit(ObjectModel::stringValue(Text));
    return Replace(Recv);
  }

  case PrimNextEvent: {
    InputEvent E;
    if (!VM.events().next(E))
      return Replace(Nil);
    writeBackIp();
    Oop Arr = OM.allocatePointers(K.ClassArray, 4);
    reloadFrame();
    if (Arr.isNull()) {
      vmError("OutOfMemoryError: nextEvent failed (heap ceiling reached)");
      return PrimResult::Success;
    }
    OM.storePointer(Arr, 0,
                    Oop::fromSmallInt(static_cast<intptr_t>(E.Type)));
    OM.storePointer(Arr, 1, Oop::fromSmallInt(E.A));
    OM.storePointer(Arr, 2, Oop::fromSmallInt(E.B));
    OM.storePointer(Arr, 3,
                    Oop::fromSmallInt(static_cast<intptr_t>(
                        E.TimeMicros / 1000)));
    return Replace(Arr);
  }

  case PrimMillisecondClock:
    return Replace(Oop::fromSmallInt(VM.millisecondClock()));

  /// --- tools ---------------------------------------------------------
  case PrimCompileInto: {
    // Compiler compile: sourceString into: aClass.
    Oop Src = topValue(1);
    Oop Target = topValue(0);
    if (!Src.isPointer() || Src.object()->Format != ObjectFormat::Bytes ||
        !Target.isPointer() || !Om.isKindOf(Target, K.ClassBehavior))
      return PrimResult::Fail;
    std::string Source = ObjectModel::stringValue(Src);
    writeBackIp();
    CompileResult R = compileMethodSource(Om, Target, Source);
    if (!R.ok()) {
      reloadFrame();
      VM.logError("compile error: " + R.Error);
      return Replace(Nil);
    }
    // The install flushes the method caches, which may stop the world.
    installMethod(Om, &VM.cache(), Target, R.Method);
    reloadFrame();
    return Replace(ObjectMemory::fetchPointer(R.Method, MthSelector));
  }

  case PrimDecompile: {
    Oop Method = topValue(0);
    if (!Method.isPointer() ||
        Om.classOf(Method) != K.ClassCompiledMethod)
      return PrimResult::Fail;
    // The method (old, or a young doIt) is read here, before the GC point
    // below, and not touched after it.
    std::string Text = decompileMethod(Om, Method);
    writeBackIp();
    Oop Str = Om.makeString(Text);
    reloadFrame();
    if (Str.isNull()) {
      vmError("OutOfMemoryError: decompile failed (heap ceiling reached)");
      return PrimResult::Success;
    }
    return Replace(Str);
  }

  case PrimSubclass: {
    // receiver subclass: nameSymbol instanceVariableNames: namesString
    //          category: categoryString
    Oop NameO = topValue(2);
    Oop IvarsO = topValue(1);
    Oop CatO = topValue(0);
    if (!Recv.isPointer() || !Om.isKindOf(Recv, K.ClassBehavior) ||
        !NameO.isPointer() ||
        NameO.object()->Format != ObjectFormat::Bytes ||
        !IvarsO.isPointer() ||
        IvarsO.object()->Format != ObjectFormat::Bytes ||
        !CatO.isPointer() || CatO.object()->Format != ObjectFormat::Bytes)
      return PrimResult::Fail;
    std::string Name = ObjectModel::stringValue(NameO);
    if (Name.empty())
      return PrimResult::Fail;
    // Space-separated instance variable names.
    std::vector<std::string> Ivars;
    std::string Cur;
    for (char C : ObjectModel::stringValue(IvarsO)) {
      if (C == ' ') {
        if (!Cur.empty())
          Ivars.push_back(Cur);
        Cur.clear();
      } else {
        Cur += C;
      }
    }
    if (!Cur.empty())
      Ivars.push_back(Cur);
    std::string Category = ObjectModel::stringValue(CatO);
    // Byte-indexable superclasses cannot gain named fields.
    if (Om.kindOf(Recv) == ClassKind::IdxBytes && !Ivars.empty())
      return PrimResult::Fail;
    // Redefinition replaces the binding (methods of the old class keep
    // working for existing instances — Smalltalk-80's becomeless story).
    writeBackIp();
    Oop Cls = Om.makeClass(Recv, Name, Om.kindOf(Recv), Ivars, Category);
    Om.globalPut(Name, Cls);
    // Fresh classes get an empty organization so the browser works.
    reloadFrame();
    return Replace(Cls);
  }

  /// --- host coupling and VM services ------------------------------------
  case PrimHostSignal: {
    Oop IdO = topValue(0);
    if (!IdO.isSmallInt())
      return PrimResult::Fail;
    VM.hostSignal(static_cast<unsigned>(IdO.smallInt()));
    return Replace(Recv);
  }

  case PrimForceScavenge: {
    writeBackIp();
    OM.scavengeNow();
    reloadFrame();
    return Replace(Om.nil());
  }

  case PrimFullGC: {
    writeBackIp();
    OM.fullCollect();
    reloadFrame();
    return Replace(Om.nil());
  }

  case PrimLowSpaceSemaphore: {
    // receiver lowSpaceSemaphore: aSemaphoreOrNil.
    Oop Sem = topValue(0);
    if (Sem == Nil) {
      VM.setLowSpaceSemaphore(Oop());
      return Replace(Recv);
    }
    if (!Sem.isPointer() || !Om.isKindOf(Sem, K.ClassSemaphore))
      return PrimResult::Fail;
    VM.setLowSpaceSemaphore(Sem);
    return Replace(Recv);
  }

  case PrimErrorReport: {
    Oop Text = topValue(0);
    std::string Msg = Text.isPointer() &&
                              Text.object()->Format == ObjectFormat::Bytes
                          ? ObjectModel::stringValue(Text)
                          : Om.describe(Text);
    vmError(Om.describe(Recv) + " error: " + Msg);
    return PrimResult::Success;
  }

  case PrimPerformWith: {
    // receiver perform: selector withArguments: argArray.
    Oop Sel = topValue(1);
    Oop Arr = topValue(0);
    if (!Sel.isPointer() || Om.classOf(Sel) != K.ClassSymbol ||
        !Arr.isPointer() || Om.classOf(Arr) != K.ClassArray)
      return PrimResult::Fail;
    uint32_t N = Arr.object()->SlotCount;
    // The selector and argument array leave the stack (-2) and the
    // arguments join it (+N); the frame must fit the final depth.
    if (SpVal - 2 + static_cast<intptr_t>(N) >=
        static_cast<intptr_t>(CtxH->SlotCount))
      return PrimResult::Fail; // not enough frame room
    dropValues(2); // receiver stays; push args from the array
    for (uint32_t I = 0; I < N; ++I)
      pushValue(Arr.object()->slots()[I]);
    // Special selectors have no ordinary method behind them (the inline
    // path *is* the implementation); route them the same way a compiled
    // special send would go.
    if (N == 1) {
      for (size_t S = 0;
           S < static_cast<size_t>(SpecialSelector::NumSpecialSelectors);
           ++S) {
        if (K.SpecialSelectors[S] == Sel) {
          doSpecialSend(static_cast<SpecialSelector>(S));
          return PrimResult::Success;
        }
      }
    }
    doSend(Sel, N, /*Super=*/false);
    return PrimResult::Success;
  }

  default:
    return PrimResult::Fail;
  }
}
