//===-- vm/ObjectModel.h - Classes, layouts, well-known objects -*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Smalltalk object model: slot layouts for the kernel classes the VM
/// must understand (classes, method dictionaries, compiled methods,
/// contexts, processes, semaphores), the table of well-known objects, and
/// helpers for constructing and inspecting them from C++.
///
/// Only layouts the *interpreter* depends on are fixed here; collection
/// classes (OrderedCollection, Dictionary, streams) are defined purely in
/// Smalltalk by the bootstrap image — with the single exception of the
/// SystemDictionary probe sequence, which C++ and Smalltalk both implement
/// and must agree on.
///
//===----------------------------------------------------------------------===//

#ifndef MST_VM_OBJECTMODEL_H
#define MST_VM_OBJECTMODEL_H

#include <string>
#include <vector>

#include "objmem/ObjectMemory.h"
#include "vm/Bytecode.h"
#include "vm/SymbolTable.h"

namespace mst {

/// --- Slot layouts ----------------------------------------------------------

/// Behavior/Class/Metaclass instances (8 slots).
enum ClassSlot : uint32_t {
  ClsSuperclass = 0,
  ClsMethodDict = 1,
  ClsInstSpec = 2,   // SmallInt; see ClassKind / instSpec helpers
  ClsName = 3,       // Symbol
  ClsInstVarNames = 4, // Array of Symbols (inherited names included)
  ClsOrganization = 5, // category string -> selectors; built by the image
  ClsCategory = 6,   // String: the class's own system category
  ClsComment = 7,    // String or nil
  ClassSlotCount = 8,
};

/// How instances of a class are laid out.
enum class ClassKind : uint8_t {
  Fixed = 0,       ///< named fields only
  IdxPointers = 1, ///< named fields then indexable oop fields (Array)
  IdxBytes = 2,    ///< indexable bytes (String, Symbol, ByteArray)
};

/// \returns the InstSpec SmallInteger payload for \p Kind / \p Fixed.
inline intptr_t encodeInstSpec(ClassKind Kind, uint32_t Fixed) {
  return static_cast<intptr_t>(Fixed) << 2 | static_cast<intptr_t>(Kind);
}
inline ClassKind instSpecKind(intptr_t Spec) {
  return static_cast<ClassKind>(Spec & 3);
}
inline uint32_t instSpecFixed(intptr_t Spec) {
  return static_cast<uint32_t>(Spec >> 2);
}

/// MethodDictionary instances.
enum MethodDictSlot : uint32_t {
  MdTally = 0,
  MdTable = 1, // Array of interleaved [selector, method] pairs; capacity is
               // a power of two; a null-oop... (nil) selector marks empty.
  MethodDictSlotCount = 2,
};

/// CompiledMethod instances.
enum MethodSlot : uint32_t {
  MthNumArgs = 0,
  MthNumTemps = 1, // arguments included
  MthPrimitive = 2, // SmallInt primitive index; 0 = none
  MthFrameSize = 3, // stack slots needed beyond the fixed context fields
  MthSelector = 4,
  MthLiterals = 5,  // Array
  MthBytecodes = 6, // ByteArray
  MthSource = 7,    // String or nil
  MthClass = 8,     // class the method was compiled for (super sends)
  MethodSlotCount = 9,
};

/// MethodContext instances (Format::Context). Slot 2 must be the stack
/// pointer (ContextSpSlotIndex) — the scavenger depends on it.
enum MethodContextSlot : uint32_t {
  CtxSender = 0,
  CtxIp = 1,
  CtxSp = 2,
  CtxMethod = 3,
  CtxReceiver = 4,
  CtxFixedSlots = 5, // temps then stack follow
};

/// BlockContext instances (Format::Context).
enum BlockContextSlot : uint32_t {
  BlkCaller = 0,
  BlkIp = 1,
  BlkSp = 2,
  BlkNumArgs = 3,
  BlkInitialIp = 4,
  BlkHome = 5,
  BlkFixedSlots = 6, // stack follows
};

/// Context allocation size classes; BS kept a free list of stack frames
/// because reuse beats allocate-and-initialize (paper §3.2).
enum : uint32_t {
  SmallContextSlots = 32,
  LargeContextSlots = 96,
};

/// Process instances.
enum ProcessSlot : uint32_t {
  ProcNextLink = 0,
  ProcSuspendedContext = 1,
  ProcPriority = 2, // SmallInt 1..8
  ProcMyList = 3,   // the LinkedList/Semaphore it waits or runs on, or nil
  ProcName = 4,     // String or nil
  ProcRunning = 5,  // SmallInt: 0 idle, 1 running on some interpreter
  ProcAccumUs = 6,  // SmallInt: attributed processor time (microseconds).
                    // On a uniprocessor host the Firefly's parallelism
                    // degenerates to time-sharing; this per-Process
                    // thread-CPU attribution recovers the "processor
                    // time per benchmark" quantity Table 2 reports.
  ProcessSlotCount = 7,
};

/// LinkedList instances (also the first two slots of Semaphore).
enum LinkedListSlot : uint32_t {
  LlFirstLink = 0,
  LlLastLink = 1,
  LinkedListSlotCount = 2,
};

/// Semaphore instances: a LinkedList plus excess signals.
enum SemaphoreSlot : uint32_t {
  SemFirstLink = 0,
  SemLastLink = 1,
  SemExcessSignals = 2,
  SemaphoreSlotCount = 3,
};

/// ProcessorScheduler: the Smalltalk-visible face of scheduling. There is
/// exactly one; MS keeps a single ready queue of Processes rather than one
/// per interpreter (paper §3.2), and *ignores* the activeProcess slot — it
/// is only filled in around snapshots (paper §3.3, reorganization).
enum SchedulerSlot : uint32_t {
  SchedQuiescentProcessLists = 0, // Array of NumPriorities LinkedLists
  SchedActiveProcess = 1,
  SchedulerSlotCount = 2,
};

constexpr unsigned NumPriorities = 8;

/// Association instances (globals are Associations in the system dict).
enum AssociationSlot : uint32_t {
  AssocKey = 0,
  AssocValue = 1,
  AssociationSlotCount = 2,
};

/// SystemDictionary instances. The probe sequence is mirrored by the
/// Smalltalk implementation in the bootstrap image.
enum SystemDictSlot : uint32_t {
  SysTally = 0,
  SysTable = 1, // Array of Associations; nil = empty slot; linear probe
  SystemDictSlotCount = 2,
};

/// Character instances.
enum CharacterSlot : uint32_t {
  CharValue = 0,
  CharacterSlotCount = 1,
};

/// Message instances (doesNotUnderstand: argument).
enum MessageSlot : uint32_t {
  MsgSelector = 0,
  MsgArguments = 1,
  MessageSlotCount = 2,
};

/// --- Well-known objects ------------------------------------------------

/// Every object the VM needs a direct handle on.
struct KnownObjects {
  Oop NilObj, TrueObj, FalseObj;

  // The metaclass kernel.
  Oop ClassObject;     // Object
  Oop ClassBehavior;   // Behavior
  Oop ClassClass;      // Class
  Oop ClassMetaclass;  // Metaclass
  Oop ClassUndefinedObject;
  Oop ClassBoolean, ClassTrue, ClassFalse;
  Oop ClassMagnitude, ClassNumber, ClassInteger, ClassSmallInteger;
  Oop ClassCharacter;
  Oop ClassCollection, ClassSequenceableCollection, ClassArrayedCollection;
  Oop ClassString, ClassSymbol, ClassArray, ClassByteArray;
  Oop ClassMethodDictionary, ClassCompiledMethod;
  Oop ClassMethodContext, ClassBlockContext;
  Oop ClassLink, ClassProcess, ClassLinkedList, ClassSemaphore;
  Oop ClassProcessorScheduler;
  Oop ClassAssociation, ClassSystemDictionary;
  Oop ClassMessage;

  // Singletons.
  Oop SmalltalkDict; // the system dictionary of globals
  Oop Processor;     // the ProcessorScheduler instance

  // The character table: 256 interned Character instances.
  Oop CharacterTable;

  // Selector oops the VM sends itself.
  Oop SelDoesNotUnderstand; // #doesNotUnderstand:

  // Special-send fallback selectors, indexed by SpecialSelector.
  Oop SpecialSelectors[static_cast<size_t>(
      SpecialSelector::NumSpecialSelectors)];

  /// Visits every oop cell for root walking.
  template <typename Visitor> void visitRoots(const Visitor &V) {
    for (Oop *P : {&NilObj, &TrueObj, &FalseObj, &ClassObject,
                   &ClassBehavior, &ClassClass, &ClassMetaclass,
                   &ClassUndefinedObject, &ClassBoolean, &ClassTrue,
                   &ClassFalse, &ClassMagnitude, &ClassNumber,
                   &ClassInteger, &ClassSmallInteger, &ClassCharacter,
                   &ClassCollection, &ClassSequenceableCollection,
                   &ClassArrayedCollection, &ClassString, &ClassSymbol,
                   &ClassArray, &ClassByteArray, &ClassMethodDictionary,
                   &ClassCompiledMethod, &ClassMethodContext,
                   &ClassBlockContext, &ClassLink, &ClassProcess,
                   &ClassLinkedList, &ClassSemaphore,
                   &ClassProcessorScheduler, &ClassAssociation,
                   &ClassSystemDictionary, &ClassMessage, &SmalltalkDict,
                   &Processor, &CharacterTable, &SelDoesNotUnderstand})
      V(P);
    for (Oop &S : SpecialSelectors)
      V(&S);
  }
};

/// --- The object model facade ---------------------------------------------

/// Construction and inspection helpers over ObjectMemory, plus the known
/// objects and the symbol table. One per VirtualMachine.
class ObjectModel {
public:
  explicit ObjectModel(ObjectMemory &OM);

  ObjectModel(const ObjectModel &) = delete;
  ObjectModel &operator=(const ObjectModel &) = delete;

  /// Builds nil/true/false, the metaclass kernel, the core class skeletons,
  /// the character table, the system dictionary, the scheduler instance,
  /// and the special-selector table. Registers the root walker. Must be
  /// called once, from a registered mutator, before anything else.
  void initCore();

  ObjectMemory &memory() { return OM; }
  KnownObjects &known() { return K; }
  SymbolTable &symbols() { return Symbols; }

  Oop nil() const { return K.NilObj; }

  /// \returns the class of any oop (SmallIntegers included).
  Oop classOf(Oop O) const {
    return O.isSmallInt() ? K.ClassSmallInteger : O.object()->classOop();
  }

  /// \returns true when \p O is \p Cls or a subclass instance.
  bool isKindOf(Oop O, Oop Cls) const;

  /// \returns the identity hash the image sees (value for SmallIntegers,
  /// header hash otherwise).
  static intptr_t identityHash(Oop O) {
    return O.isSmallInt() ? O.smallInt()
                          : static_cast<intptr_t>(O.object()->Hash);
  }

  /// --- Classes ---------------------------------------------------------

  /// Creates a class (and its metaclass) in old space. \p InstVarNames are
  /// this class's *own* instance variables; inherited ones are prepended
  /// automatically. Does not install the class in the system dictionary.
  Oop makeClass(Oop Superclass, const std::string &Name, ClassKind Kind,
                const std::vector<std::string> &InstVarNames,
                const std::string &Category);

  /// \returns the class's name as a C++ string.
  std::string className(Oop Cls) const;

  /// \returns total named fields of instances of \p Cls.
  uint32_t fixedFieldsOf(Oop Cls) const {
    return instSpecFixed(ObjectMemory::fetchPointer(Cls, ClsInstSpec)
                             .smallInt());
  }

  ClassKind kindOf(Oop Cls) const {
    return instSpecKind(ObjectMemory::fetchPointer(Cls, ClsInstSpec)
                            .smallInt());
  }

  /// Creates an instance of \p Cls with \p IndexableSize indexable fields
  /// (0 for Fixed classes). New-space unless \p Old.
  Oop instantiate(Oop Cls, uint32_t IndexableSize, bool Old = false);

  /// --- Strings, symbols, characters -------------------------------------

  /// New-space unless \p Old. \returns the object, or the null oop when
  /// a young allocation is refused (heap ceiling).
  Oop makeString(const std::string &S, bool Old = false);
  Oop makeByteArray(const std::vector<uint8_t> &Bytes, bool Old = false);

  /// \returns the contents of a String/Symbol/ByteArray as a C++ string.
  static std::string stringValue(Oop S);

  /// \returns the unique Symbol for \p Name.
  Oop intern(const std::string &Name) { return Symbols.intern(OM, Name); }

  /// \returns the Character for byte \p C (from the character table).
  Oop characterFor(uint8_t C) const {
    return ObjectMemory::fetchPointer(K.CharacterTable, C);
  }

  /// --- Arrays and associations ------------------------------------------

  /// Creates an Array holding \p Elements. With Old=false this is a GC
  /// point; the caller's oops in \p Elements are raw copies that would go
  /// stale, so new-space arrays must be built element-wise by the caller
  /// with handles instead — this overload asserts Old for safety.
  Oop makeArray(const std::vector<Oop> &Elements, bool Old);

  Oop makeAssociation(Oop Key, Oop Value, bool Old);

  /// --- Method dictionaries ----------------------------------------------

  Oop mdNew(uint32_t Capacity = 8);

  /// \returns the method for \p Selector in \p Md, or null oop.
  Oop mdLookup(Oop Md, Oop Selector) const;

  /// Installs \p Method under \p Selector in \p Cls's dictionary,
  /// rebuilding the table when load demands. Thread-safe against readers:
  /// a new table array is published with a single pointer store.
  void mdAddMethod(Oop Cls, Oop Selector, Oop Method);

  /// Calls \p Fn for every (selector, method) pair in \p Md.
  void mdForEach(Oop Md,
                 const std::function<void(Oop Sel, Oop Mth)> &Fn) const;

  /// --- Method lookup -----------------------------------------------------

  struct LookupResult {
    Oop Method;         // null when not understood
    Oop DefiningClass;  // class whose dictionary supplied the method
  };

  /// Looks \p Selector up in \p Cls and its superclass chain.
  LookupResult lookupMethod(Oop Cls, Oop Selector) const;

  /// --- Globals -----------------------------------------------------------

  /// \returns the Association for \p Name in the system dictionary,
  /// creating it (with nil value) when \p CreateIfAbsent.
  Oop globalAssociation(const std::string &Name, bool CreateIfAbsent);

  /// \returns the value of global \p Name, or null oop when absent.
  Oop globalAt(const std::string &Name);

  /// Binds global \p Name to \p Value (creating the Association).
  void globalPut(const std::string &Name, Oop Value);

  /// Calls \p Fn for every Association in the system dictionary.
  void globalsForEach(const std::function<void(Oop Assoc)> &Fn);

  /// --- Booleans ----------------------------------------------------------

  Oop boolFor(bool B) const { return B ? K.TrueObj : K.FalseObj; }

  /// --- Debug -------------------------------------------------------------

  /// \returns a short description like "a Point", "42", "#foo", "'abc'".
  std::string describe(Oop O) const;

private:
  /// Allocates a raw 8-slot class object in old space.
  Oop allocClassShell(Oop Metaclass);
  void fillClass(Oop Cls, Oop Superclass, Oop NameSym, intptr_t InstSpec,
                 Oop InstVarNames, const std::string &Category);

  ObjectMemory &OM;
  KnownObjects K;
  SymbolTable Symbols;
  /// Serializes method-dictionary and system-dictionary *writes*; reads are
  /// lock-free (tables are published by pointer store).
  SpinLock DictWriteLock;
};

} // namespace mst

#endif // MST_VM_OBJECTMODEL_H
