//===-- vm/ObjectModel.cpp - Classes, layouts, well-known objects ---------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "vm/ObjectModel.h"

#include <cstring>

#include "support/Assert.h"

using namespace mst;

ObjectModel::ObjectModel(ObjectMemory &OM)
    : OM(OM), Symbols(OM.config().MpSupport),
      DictWriteLock(OM.config().MpSupport, "dictwrite") {}

bool ObjectModel::isKindOf(Oop O, Oop Cls) const {
  for (Oop C = classOf(O); C != K.NilObj && !C.isNull();
       C = ObjectMemory::fetchPointer(C, ClsSuperclass))
    if (C == Cls)
      return true;
  return false;
}

/// --- Bootstrap -------------------------------------------------------------

void ObjectModel::fillClass(Oop Cls, Oop Superclass, Oop NameSym,
                            intptr_t InstSpec, Oop InstVarNames,
                            const std::string &Category) {
  OM.storePointer(Cls, ClsSuperclass, Superclass);
  // Method dictionaries need the kernel classes themselves; they are
  // attached by the caller (bootstrap step 6, or makeClass).
  OM.storePointer(Cls, ClsMethodDict, K.NilObj);
  OM.storePointer(Cls, ClsInstSpec, Oop::fromSmallInt(InstSpec));
  OM.storePointer(Cls, ClsName, NameSym);
  OM.storePointer(Cls, ClsInstVarNames, InstVarNames);
  OM.storePointer(Cls, ClsOrganization, K.NilObj);
  OM.storePointer(Cls, ClsCategory,
                  Category.empty() ? K.NilObj : makeString(Category, true));
  OM.storePointer(Cls, ClsComment, K.NilObj);
}

namespace {
/// A class created before symbols exist; finished later.
struct PendingClass {
  Oop Cls;
  const char *Name;
  std::vector<const char *> OwnIvars;
  const char *Category;
};
} // namespace

void ObjectModel::initCore() {
  // 1. nil first: everything else is filled with it.
  K.NilObj = OM.allocateOldPointers(Oop(), 0);
  OM.setNil(K.NilObj);

  // 2. The metaclass kernel, created by hand because makeClass needs it.
  //    Each entry: class shell + metaclass shell; classes are instances of
  //    their metaclasses; metaclasses are instances of Metaclass.
  auto NewShellPair = [this](Oop &ClsOut) {
    Oop Meta = OM.allocateOldPointers(Oop(), ClassSlotCount);
    ClsOut = OM.allocateOldPointers(Meta, ClassSlotCount);
    return Meta;
  };

  Oop MetaObject = NewShellPair(K.ClassObject);
  Oop MetaBehavior = NewShellPair(K.ClassBehavior);
  Oop MetaClassCls = NewShellPair(K.ClassClass);
  Oop MetaMetaclass = NewShellPair(K.ClassMetaclass);

  // Metaclasses are instances of Metaclass.
  for (Oop Meta : {MetaObject, MetaBehavior, MetaClassCls, MetaMetaclass})
    Meta.object()->setClassOop(K.ClassMetaclass);

  std::vector<PendingClass> Pending;
  auto Defer = [&Pending](Oop Cls, const char *Name,
                          std::vector<const char *> OwnIvars,
                          const char *Category) {
    Pending.push_back({Cls, Name, std::move(OwnIvars), Category});
  };

  const intptr_t ClassSpec = encodeInstSpec(ClassKind::Fixed, ClassSlotCount);
  const char *BehaviorIvars[] = {"superclass", "methodDict", "instSpec",
                                 "name",       "instVarNames", "organization",
                                 "category",   "comment"};

  // Fill the kernel-four (names and ivar arrays come in step 5).
  fillClass(K.ClassObject, K.NilObj, K.NilObj,
            encodeInstSpec(ClassKind::Fixed, 0), K.NilObj, "");
  fillClass(K.ClassBehavior, K.ClassObject, K.NilObj, ClassSpec, K.NilObj,
            "");
  fillClass(K.ClassClass, K.ClassBehavior, K.NilObj, ClassSpec, K.NilObj,
            "");
  fillClass(K.ClassMetaclass, K.ClassBehavior, K.NilObj, ClassSpec, K.NilObj,
            "");
  Defer(K.ClassObject, "Object", {}, "Kernel-Objects");
  Defer(K.ClassBehavior, "Behavior",
        std::vector<const char *>(BehaviorIvars, BehaviorIvars + 8),
        "Kernel-Classes");
  Defer(K.ClassClass, "Class", {}, "Kernel-Classes");
  Defer(K.ClassMetaclass, "Metaclass", {}, "Kernel-Classes");

  // Metaclass chains: "Object class" inherits from Class; the others chain
  // along their class's superclass chain, as in Smalltalk-80.
  fillClass(MetaObject, K.ClassClass, K.NilObj, ClassSpec, K.NilObj, "");
  fillClass(MetaBehavior, MetaObject, K.NilObj, ClassSpec, K.NilObj, "");
  fillClass(MetaClassCls, MetaBehavior, K.NilObj, ClassSpec, K.NilObj, "");
  fillClass(MetaMetaclass, MetaBehavior, K.NilObj, ClassSpec, K.NilObj, "");

  // 3. Classes needed before symbols work: the String/Symbol chain and
  //    Array (instance-variable-name arrays).
  auto NewKernelClass = [&](Oop Super, ClassKind Kind, uint32_t Fixed,
                            const char *Name,
                            std::vector<const char *> OwnIvars,
                            const char *Category) {
    Oop Meta = OM.allocateOldPointers(K.ClassMetaclass, ClassSlotCount);
    Oop SuperMeta =
        Super == K.NilObj ? K.ClassClass : Super.object()->classOop();
    fillClass(Meta, SuperMeta, K.NilObj, ClassSpec, K.NilObj, "");
    Oop Cls = OM.allocateOldPointers(Meta, ClassSlotCount);
    fillClass(Cls, Super, K.NilObj, encodeInstSpec(Kind, Fixed), K.NilObj,
              "");
    Defer(Cls, Name, std::move(OwnIvars), Category);
    return Cls;
  };

  K.ClassCollection = NewKernelClass(K.ClassObject, ClassKind::Fixed, 0,
                                     "Collection", {}, "Collections");
  K.ClassSequenceableCollection =
      NewKernelClass(K.ClassCollection, ClassKind::Fixed, 0,
                     "SequenceableCollection", {}, "Collections");
  K.ClassArrayedCollection =
      NewKernelClass(K.ClassSequenceableCollection, ClassKind::Fixed, 0,
                     "ArrayedCollection", {}, "Collections");
  K.ClassString = NewKernelClass(K.ClassArrayedCollection,
                                 ClassKind::IdxBytes, 0, "String", {},
                                 "Collections-Text");
  K.ClassSymbol = NewKernelClass(K.ClassString, ClassKind::IdxBytes, 0,
                                 "Symbol", {}, "Collections-Text");
  K.ClassArray = NewKernelClass(K.ClassArrayedCollection,
                                ClassKind::IdxPointers, 0, "Array", {},
                                "Collections");

  // 4. Symbols now work.
  Symbols.setSymbolClass(K.ClassSymbol);

  // 5. The rest of the kernel classes, with symbols available.
  K.ClassUndefinedObject = NewKernelClass(
      K.ClassObject, ClassKind::Fixed, 0, "UndefinedObject", {}, "Kernel");
  K.ClassBoolean =
      NewKernelClass(K.ClassObject, ClassKind::Fixed, 0, "Boolean", {},
                     "Kernel");
  K.ClassTrue = NewKernelClass(K.ClassBoolean, ClassKind::Fixed, 0, "True",
                               {}, "Kernel");
  K.ClassFalse = NewKernelClass(K.ClassBoolean, ClassKind::Fixed, 0,
                                "False", {}, "Kernel");
  K.ClassMagnitude = NewKernelClass(K.ClassObject, ClassKind::Fixed, 0,
                                    "Magnitude", {}, "Kernel-Numbers");
  K.ClassNumber = NewKernelClass(K.ClassMagnitude, ClassKind::Fixed, 0,
                                 "Number", {}, "Kernel-Numbers");
  K.ClassInteger = NewKernelClass(K.ClassNumber, ClassKind::Fixed, 0,
                                  "Integer", {}, "Kernel-Numbers");
  K.ClassSmallInteger =
      NewKernelClass(K.ClassInteger, ClassKind::Fixed, 0, "SmallInteger",
                     {}, "Kernel-Numbers");
  K.ClassCharacter =
      NewKernelClass(K.ClassMagnitude, ClassKind::Fixed, CharacterSlotCount,
                     "Character", {"value"}, "Kernel-Text");
  K.ClassByteArray =
      NewKernelClass(K.ClassArrayedCollection, ClassKind::IdxBytes, 0,
                     "ByteArray", {}, "Collections");
  K.ClassMethodDictionary = NewKernelClass(
      K.ClassObject, ClassKind::Fixed, MethodDictSlotCount,
      "MethodDictionary", {"tally", "table"}, "Kernel-Methods");
  K.ClassCompiledMethod = NewKernelClass(
      K.ClassObject, ClassKind::Fixed, MethodSlotCount, "CompiledMethod",
      {"numArgs", "numTemps", "primitive", "frameSize", "selector",
       "literals", "bytecodes", "sourceText", "methodClass"},
      "Kernel-Methods");
  K.ClassMethodContext = NewKernelClass(
      K.ClassObject, ClassKind::IdxPointers, CtxFixedSlots, "MethodContext",
      {"sender", "ip", "sp", "method", "receiver"}, "Kernel-Contexts");
  K.ClassBlockContext = NewKernelClass(
      K.ClassObject, ClassKind::IdxPointers, BlkFixedSlots, "BlockContext",
      {"caller", "ip", "sp", "numArgs", "initialIP", "home"},
      "Kernel-Contexts");
  K.ClassLink = NewKernelClass(K.ClassObject, ClassKind::Fixed, 1, "Link",
                               {"nextLink"}, "Kernel-Processes");
  K.ClassProcess = NewKernelClass(
      K.ClassLink, ClassKind::Fixed, ProcessSlotCount, "Process",
      {"suspendedContext", "priority", "myList", "name", "running",
       "accumulatedMicroseconds"},
      "Kernel-Processes");
  K.ClassLinkedList = NewKernelClass(
      K.ClassObject, ClassKind::Fixed, LinkedListSlotCount, "LinkedList",
      {"firstLink", "lastLink"}, "Kernel-Processes");
  K.ClassSemaphore = NewKernelClass(
      K.ClassLinkedList, ClassKind::Fixed, SemaphoreSlotCount, "Semaphore",
      {"excessSignals"}, "Kernel-Processes");
  K.ClassProcessorScheduler = NewKernelClass(
      K.ClassObject, ClassKind::Fixed, SchedulerSlotCount,
      "ProcessorScheduler", {"quiescentProcessLists", "activeProcess"},
      "Kernel-Processes");
  K.ClassAssociation = NewKernelClass(
      K.ClassObject, ClassKind::Fixed, AssociationSlotCount, "Association",
      {"key", "value"}, "Kernel-Objects");
  K.ClassSystemDictionary = NewKernelClass(
      K.ClassObject, ClassKind::Fixed, SystemDictSlotCount,
      "SystemDictionary", {"tally", "table"}, "Kernel-Objects");
  K.ClassMessage = NewKernelClass(K.ClassObject, ClassKind::Fixed,
                                  MessageSlotCount, "Message",
                                  {"selector", "arguments"}, "Kernel");

  // 6. Finish every deferred class: intern its name, build the full
  //    instance-variable-name array (inherited names first).
  for (const PendingClass &P : Pending) {
    OM.storePointer(P.Cls, ClsName, intern(P.Name));
    OM.storePointer(P.Cls, ClsMethodDict, mdNew());
    OM.storePointer(P.Cls, ClsCategory, makeString(P.Category, true));
    // Inherited ivars.
    std::vector<Oop> Names;
    Oop Super = ObjectMemory::fetchPointer(P.Cls, ClsSuperclass);
    if (Super != K.NilObj) {
      Oop SuperNames = ObjectMemory::fetchPointer(Super, ClsInstVarNames);
      if (SuperNames != K.NilObj) {
        ObjectHeader *H = SuperNames.object();
        for (uint32_t I = 0; I < H->SlotCount; ++I)
          Names.push_back(H->slots()[I]);
      }
    }
    for (const char *N : P.OwnIvars)
      Names.push_back(intern(N));
    assert(Names.size() == fixedFieldsOf(P.Cls) &&
           "instance variable names disagree with the fixed field count");
    OM.storePointer(P.Cls, ClsInstVarNames, makeArray(Names, /*Old=*/true));
    // Metaclass name: "<Name> class".
    Oop Meta = P.Cls.object()->classOop();
    OM.storePointer(Meta, ClsName,
                    intern(std::string(P.Name) + " class"));
    OM.storePointer(Meta, ClsInstVarNames, K.NilObj);
    OM.storePointer(Meta, ClsMethodDict, mdNew());
  }

  // Fix nil's class now that UndefinedObject exists.
  K.NilObj.object()->setClassOop(K.ClassUndefinedObject);

  // 7. true and false.
  K.TrueObj = OM.allocateOldPointers(K.ClassTrue, 0);
  K.FalseObj = OM.allocateOldPointers(K.ClassFalse, 0);

  // 8. The character table.
  K.CharacterTable = OM.allocateOldPointers(K.ClassArray, 256);
  for (uint32_t C = 0; C < 256; ++C) {
    Oop Ch = OM.allocateOldPointers(K.ClassCharacter, CharacterSlotCount);
    OM.storePointer(Ch, CharValue, Oop::fromSmallInt(C));
    OM.storePointer(K.CharacterTable, C, Ch);
  }

  // 9. The system dictionary and the scheduler singleton.
  K.SmalltalkDict =
      OM.allocateOldPointers(K.ClassSystemDictionary, SystemDictSlotCount);
  OM.storePointer(K.SmalltalkDict, SysTally, Oop::fromSmallInt(0));
  OM.storePointer(K.SmalltalkDict, SysTable,
                  OM.allocateOldPointers(K.ClassArray, 128));

  K.Processor = OM.allocateOldPointers(K.ClassProcessorScheduler,
                                       SchedulerSlotCount);
  Oop Lists = OM.allocateOldPointers(K.ClassArray, NumPriorities);
  for (uint32_t P = 0; P < NumPriorities; ++P) {
    Oop L = OM.allocateOldPointers(K.ClassLinkedList, LinkedListSlotCount);
    OM.storePointer(Lists, P, L);
  }
  OM.storePointer(K.Processor, SchedQuiescentProcessLists, Lists);
  OM.storePointer(K.Processor, SchedActiveProcess, K.NilObj);

  // 10. Globals: every kernel class by name, plus Smalltalk and Processor.
  for (const PendingClass &P : Pending)
    globalPut(P.Name, P.Cls);
  globalPut("Smalltalk", K.SmalltalkDict);
  globalPut("Processor", K.Processor);

  // 11. Special selectors and VM-known selectors.
  for (size_t I = 0;
       I < static_cast<size_t>(SpecialSelector::NumSpecialSelectors); ++I)
    K.SpecialSelectors[I] =
        intern(specialSelectorName(static_cast<SpecialSelector>(I)));
  K.SelDoesNotUnderstand = intern("doesNotUnderstand:");

  // 12. Root registration.
  OM.addRootWalker([this](const ObjectMemory::OopVisitor &V) {
    K.visitRoots(V);
    Symbols.visitRoots(V);
  });
}

/// --- Classes -----------------------------------------------------------

Oop ObjectModel::makeClass(Oop Superclass, const std::string &Name,
                           ClassKind Kind,
                           const std::vector<std::string> &InstVarNames,
                           const std::string &Category) {
  // Inherit layout.
  uint32_t Fixed = 0;
  std::vector<Oop> Names;
  if (Superclass != K.NilObj) {
    Fixed = fixedFieldsOf(Superclass);
    Oop SuperNames =
        ObjectMemory::fetchPointer(Superclass, ClsInstVarNames);
    if (SuperNames != K.NilObj) {
      ObjectHeader *H = SuperNames.object();
      for (uint32_t I = 0; I < H->SlotCount; ++I)
        Names.push_back(H->slots()[I]);
    }
    assert((kindOf(Superclass) == ClassKind::Fixed ||
            kindOf(Superclass) == Kind) &&
           "cannot change an indexable layout in a subclass");
  }
  for (const std::string &N : InstVarNames)
    Names.push_back(intern(N));
  Fixed += static_cast<uint32_t>(InstVarNames.size());

  const intptr_t ClassSpec = encodeInstSpec(ClassKind::Fixed, ClassSlotCount);
  Oop Meta = OM.allocateOldPointers(K.ClassMetaclass, ClassSlotCount);
  Oop SuperMeta = Superclass == K.NilObj ? K.ClassClass
                                         : Superclass.object()->classOop();
  fillClass(Meta, SuperMeta, intern(Name + " class"), ClassSpec, K.NilObj,
            Category);
  Oop Cls = OM.allocateOldPointers(Meta, ClassSlotCount);
  fillClass(Cls, Superclass, intern(Name), encodeInstSpec(Kind, Fixed),
            makeArray(Names, /*Old=*/true), Category);
  OM.storePointer(Cls, ClsMethodDict, mdNew());
  OM.storePointer(Meta, ClsMethodDict, mdNew());
  return Cls;
}

std::string ObjectModel::className(Oop Cls) const {
  Oop Name = ObjectMemory::fetchPointer(Cls, ClsName);
  if (Name == K.NilObj)
    return "<anonymous class>";
  return stringValue(Name);
}

Oop ObjectModel::instantiate(Oop Cls, uint32_t IndexableSize, bool Old) {
  intptr_t Spec = ObjectMemory::fetchPointer(Cls, ClsInstSpec).smallInt();
  uint32_t Fixed = instSpecFixed(Spec);
  switch (instSpecKind(Spec)) {
  case ClassKind::Fixed:
    assert(IndexableSize == 0 && "fixed class with indexable size");
    return Old ? OM.allocateOldPointers(Cls, Fixed)
               : OM.allocatePointers(Cls, Fixed);
  case ClassKind::IdxPointers:
    return Old ? OM.allocateOldPointers(Cls, Fixed + IndexableSize)
               : OM.allocatePointers(Cls, Fixed + IndexableSize);
  case ClassKind::IdxBytes:
    assert(Fixed == 0 && "byte classes cannot have named fields");
    return Old ? OM.allocateOldBytes(Cls, IndexableSize)
               : OM.allocateBytes(Cls, IndexableSize);
  }
  MST_UNREACHABLE("bad class kind");
}

/// --- Strings ------------------------------------------------------------

Oop ObjectModel::makeString(const std::string &S, bool Old) {
  Oop Str = Old
                ? OM.allocateOldBytes(K.ClassString,
                                      static_cast<uint32_t>(S.size()))
                : OM.allocateBytes(K.ClassString,
                                   static_cast<uint32_t>(S.size()));
  if (!Str.isNull())
    std::memcpy(Str.object()->bytes(), S.data(), S.size());
  return Str;
}

Oop ObjectModel::makeByteArray(const std::vector<uint8_t> &Bytes, bool Old) {
  Oop Arr = Old ? OM.allocateOldBytes(K.ClassByteArray,
                                      static_cast<uint32_t>(Bytes.size()))
                : OM.allocateBytes(K.ClassByteArray,
                                   static_cast<uint32_t>(Bytes.size()));
  if (!Arr.isNull())
    std::memcpy(Arr.object()->bytes(), Bytes.data(), Bytes.size());
  return Arr;
}

std::string ObjectModel::stringValue(Oop S) {
  ObjectHeader *H = S.object();
  assert(H->Format == ObjectFormat::Bytes && "not a byte object");
  return std::string(reinterpret_cast<const char *>(H->bytes()),
                     H->ByteLength);
}

/// --- Arrays ---------------------------------------------------------------

Oop ObjectModel::makeArray(const std::vector<Oop> &Elements, bool Old) {
  assert(Old && "new-space arrays must be built element-wise with handles");
  Oop Arr = OM.allocateOldPointers(K.ClassArray,
                                   static_cast<uint32_t>(Elements.size()));
  for (size_t I = 0; I < Elements.size(); ++I)
    OM.storePointer(Arr, static_cast<uint32_t>(I), Elements[I]);
  return Arr;
}

Oop ObjectModel::makeAssociation(Oop Key, Oop Value, bool Old) {
  assert(Old && "runtime associations are made by Smalltalk code");
  Oop A = OM.allocateOldPointers(K.ClassAssociation, AssociationSlotCount);
  OM.storePointer(A, AssocKey, Key);
  OM.storePointer(A, AssocValue, Value);
  return A;
}

/// --- Method dictionaries ----------------------------------------------

Oop ObjectModel::mdNew(uint32_t Capacity) {
  assert((Capacity & (Capacity - 1)) == 0 && "capacity must be power of 2");
  Oop Md = OM.allocateOldPointers(K.ClassMethodDictionary,
                                  MethodDictSlotCount);
  OM.storePointer(Md, MdTally, Oop::fromSmallInt(0));
  OM.storePointer(Md, MdTable,
                  OM.allocateOldPointers(K.ClassArray, Capacity * 2));
  return Md;
}

Oop ObjectModel::mdLookup(Oop Md, Oop Selector) const {
  Oop Table = ObjectMemory::fetchPointer(Md, MdTable);
  uint32_t Cap = Table.object()->SlotCount / 2;
  uint32_t Mask = Cap - 1;
  uint32_t I = static_cast<uint32_t>(Selector.object()->Hash) & Mask;
  // Acquire loads: mdAddMethod may store into this table while we probe.
  for (uint32_t Probes = 0; Probes < Cap; ++Probes) {
    Oop Key = ObjectMemory::fetchPointer(Table, 2 * I);
    if (Key == Selector)
      return ObjectMemory::fetchPointer(Table, 2 * I + 1);
    if (Key == K.NilObj)
      return Oop();
    I = (I + 1) & Mask;
  }
  return Oop();
}

void ObjectModel::mdAddMethod(Oop Cls, Oop Selector, Oop Method) {
  SpinLockGuard Guard(DictWriteLock);
  Oop Md = ObjectMemory::fetchPointer(Cls, ClsMethodDict);
  Oop Table = ObjectMemory::fetchPointer(Md, MdTable);
  uint32_t Cap = Table.object()->SlotCount / 2;
  intptr_t Tally = ObjectMemory::fetchPointer(Md, MdTally).smallInt();

  // Grow at 75% load: build a fresh table and publish it with one store so
  // lock-free readers always see a consistent table.
  if ((Tally + 1) * 4 > static_cast<intptr_t>(Cap) * 3) {
    uint32_t NewCap = Cap * 2;
    Oop NewTable = OM.allocateOldPointers(K.ClassArray, NewCap * 2);
    ObjectHeader *OldT = Table.object();
    for (uint32_t I = 0; I < Cap; ++I) {
      Oop Key = OldT->slots()[2 * I];
      if (Key == K.NilObj)
        continue;
      uint32_t Mask = NewCap - 1;
      uint32_t J = static_cast<uint32_t>(Key.object()->Hash) & Mask;
      while (ObjectMemory::fetchPointer(NewTable, 2 * J) != K.NilObj)
        J = (J + 1) & Mask;
      OM.storePointer(NewTable, 2 * J, Key);
      OM.storePointer(NewTable, 2 * J + 1, OldT->slots()[2 * I + 1]);
    }
    OM.storePointer(Md, MdTable, NewTable);
    Table = NewTable;
    Cap = NewCap;
  }

  ObjectHeader *T = Table.object();
  uint32_t Mask = Cap - 1;
  uint32_t I = static_cast<uint32_t>(Selector.object()->Hash) & Mask;
  for (;;) {
    Oop Key = T->slots()[2 * I];
    if (Key == Selector) {
      OM.storePointer(Table, 2 * I + 1, Method); // Redefinition.
      return;
    }
    if (Key == K.NilObj) {
      // Publish the method before the selector so a concurrent reader
      // never sees the selector with a missing method.
      OM.storePointer(Table, 2 * I + 1, Method);
      std::atomic_thread_fence(std::memory_order_release);
      OM.storePointer(Table, 2 * I, Selector);
      OM.storePointer(Md, MdTally, Oop::fromSmallInt(Tally + 1));
      return;
    }
    I = (I + 1) & Mask;
  }
}

ObjectModel::LookupResult ObjectModel::lookupMethod(Oop Cls,
                                                    Oop Selector) const {
  for (Oop C = Cls; C != K.NilObj && !C.isNull();
       C = ObjectMemory::fetchPointer(C, ClsSuperclass)) {
    Oop Md = ObjectMemory::fetchPointer(C, ClsMethodDict);
    if (Md == K.NilObj)
      continue;
    Oop M = mdLookup(Md, Selector);
    if (!M.isNull())
      return {M, C};
  }
  return {Oop(), Oop()};
}

/// --- Globals ------------------------------------------------------------

Oop ObjectModel::globalAssociation(const std::string &Name,
                                   bool CreateIfAbsent) {
  Oop Key = intern(Name);
  // Lock-free read path.
  {
    Oop Table = ObjectMemory::fetchPointer(K.SmalltalkDict, SysTable);
    ObjectHeader *T = Table.object();
    uint32_t Cap = T->SlotCount;
    uint32_t I = static_cast<uint32_t>(Key.object()->Hash) % Cap;
    for (uint32_t Probes = 0; Probes < Cap; ++Probes) {
      Oop Assoc = ObjectMemory::fetchPointer(Table, I);
      if (Assoc == K.NilObj)
        break;
      if (ObjectMemory::fetchPointer(Assoc, AssocKey) == Key)
        return Assoc;
      I = (I + 1) % Cap;
    }
  }
  if (!CreateIfAbsent)
    return Oop();

  SpinLockGuard Guard(DictWriteLock);
  Oop Table = ObjectMemory::fetchPointer(K.SmalltalkDict, SysTable);
  uint32_t Cap = Table.object()->SlotCount;
  intptr_t Tally =
      ObjectMemory::fetchPointer(K.SmalltalkDict, SysTally).smallInt();
  if ((Tally + 1) * 4 > static_cast<intptr_t>(Cap) * 3) {
    uint32_t NewCap = Cap * 2;
    Oop NewTable = OM.allocateOldPointers(K.ClassArray, NewCap);
    ObjectHeader *OldT = Table.object();
    for (uint32_t I = 0; I < Cap; ++I) {
      Oop Assoc = OldT->slots()[I];
      if (Assoc == K.NilObj)
        continue;
      Oop AKey = ObjectMemory::fetchPointer(Assoc, AssocKey);
      uint32_t J = static_cast<uint32_t>(AKey.object()->Hash) % NewCap;
      while (ObjectMemory::fetchPointer(NewTable, J) != K.NilObj)
        J = (J + 1) % NewCap;
      OM.storePointer(NewTable, J, Assoc);
    }
    OM.storePointer(K.SmalltalkDict, SysTable, NewTable);
    Table = NewTable;
    Cap = NewCap;
  }
  ObjectHeader *T = Table.object();
  uint32_t I = static_cast<uint32_t>(Key.object()->Hash) % Cap;
  for (;;) {
    Oop Assoc = T->slots()[I];
    if (Assoc == K.NilObj) {
      Oop NewAssoc = makeAssociation(Key, K.NilObj, /*Old=*/true);
      OM.storePointer(Table, I, NewAssoc);
      OM.storePointer(K.SmalltalkDict, SysTally,
                      Oop::fromSmallInt(Tally + 1));
      return NewAssoc;
    }
    if (ObjectMemory::fetchPointer(Assoc, AssocKey) == Key)
      return Assoc; // Raced with another writer.
    I = (I + 1) % Cap;
  }
}

Oop ObjectModel::globalAt(const std::string &Name) {
  Oop Assoc = globalAssociation(Name, /*CreateIfAbsent=*/false);
  return Assoc.isNull() ? Oop()
                        : ObjectMemory::fetchPointer(Assoc, AssocValue);
}

void ObjectModel::globalPut(const std::string &Name, Oop Value) {
  Oop Assoc = globalAssociation(Name, /*CreateIfAbsent=*/true);
  OM.storePointer(Assoc, AssocValue, Value);
}

/// --- Debug ----------------------------------------------------------------

std::string ObjectModel::describe(Oop O) const {
  if (O.isNull())
    return "<null oop>";
  if (O.isSmallInt())
    return std::to_string(O.smallInt());
  Oop Cls = classOf(O);
  if (Cls == K.ClassSymbol)
    return "#" + stringValue(O);
  if (Cls == K.ClassString)
    return "'" + stringValue(O) + "'";
  if (Cls == K.ClassCharacter) {
    intptr_t V = ObjectMemory::fetchPointer(O, CharValue).smallInt();
    return std::string("$") + static_cast<char>(V);
  }
  if (O == K.NilObj)
    return "nil";
  if (O == K.TrueObj)
    return "true";
  if (O == K.FalseObj)
    return "false";
  if (Cls == K.ClassClass || Cls == K.ClassMetaclass ||
      isKindOf(O, K.ClassBehavior))
    return className(O);
  std::string Name = className(Cls);
  const char *Article =
      Name.find_first_of("AEIOU") == 0 ? "an " : "a ";
  return Article + Name;
}
