//===----------------------------------------------------------------------===//
///
/// \file
/// The mini pointer IR: classes, fields, methods, variables, statements.
///
/// This IR is the frontend substitute for Soot/Spark in the DynSum
/// reproduction.  It models exactly the language abstraction of the
/// paper's Figure 1: allocations, assignments, field loads/stores,
/// parameter passing and returns, plus globals, casts (for the SafeCast
/// client) and null constants (for the NullDeref client).  The analyses
/// never consume the IR directly; they consume the PAG built from it.
///
//===----------------------------------------------------------------------===//

#ifndef DYNSUM_IR_PROGRAM_H
#define DYNSUM_IR_PROGRAM_H

#include "support/StringInterner.h"

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

namespace dynsum {
namespace ir {

using TypeId = uint32_t;
using FieldId = uint32_t;
using MethodId = uint32_t;
using VarId = uint32_t;
using AllocId = uint32_t;
using CallSiteId = uint32_t;
using CastSiteId = uint32_t;

inline constexpr uint32_t kNone = 0xffffffffu;

/// The implicit root class; every class without an "extends" clause
/// derives from it.
inline constexpr TypeId kObjectType = 0;

/// A class in the single-inheritance hierarchy.
struct ClassType {
  Symbol Name;
  TypeId Id = kNone;
  TypeId Super = kNone; // kNone only for Object itself
  /// Methods declared directly in this class (not inherited).
  std::vector<MethodId> Methods;
  /// Direct subclasses, maintained by Program::createClass.
  std::vector<TypeId> Subclasses;
};

/// An instance field label.  Field identity is by name program-wide, the
/// same way CFL load/store parentheses are keyed by label in the paper.
struct Field {
  Symbol Name;
  FieldId Id = kNone;
};

/// A local or global variable.
struct Variable {
  Symbol Name;
  VarId Id = kNone;
  /// Owning method; kNone for globals.
  MethodId Owner = kNone;
  /// Declared (static) type, used by CHA dispatch and the SafeCast
  /// client; kObjectType when unannotated.
  TypeId DeclaredType = kObjectType;
  bool IsGlobal = false;
};

/// An allocation site ("new" expression).  The analyses' heap
/// abstraction is (AllocId, calling context).
struct AllocSite {
  AllocId Id = kNone;
  TypeId Type = kObjectType;
  MethodId Owner = kNone;
  /// Optional user label (e.g. the paper's "o25"); zero-symbol when
  /// auto-assigned.
  Symbol Label;
  /// True for the singleton null pseudo-object.
  bool IsNull = false;
};

/// A call site.  Sites are the "i" subscripts of entry_i/exit_i edges.
struct CallSite {
  CallSiteId Id = kNone;
  MethodId Caller = kNone;
  /// Optional user-chosen numeric label (the paper's line numbers);
  /// kNone when auto-assigned.  Labels are only for printing.
  uint32_t Label = kNone;
};

/// A downcast site checked by the SafeCast client.
struct CastSite {
  CastSiteId Id = kNone;
  MethodId Owner = kNone;
  VarId Source = kNone;
  TypeId Target = kObjectType;
};

/// Statement kinds; the IR is flow-insensitive so statements are an
/// unordered bag per method.
enum class StmtKind : uint8_t {
  Alloc,  ///< Dst = new Type            (alloc site Alloc)
  Null,   ///< Dst = null
  Assign, ///< Dst = Src
  Cast,   ///< Dst = (Type) Src          (cast site Cast)
  Load,   ///< Dst = Base.Field
  Store,  ///< Base.Field = Src
  Call,   ///< [Dst =] call/vcall (...)  (call site Call)
  Return, ///< return Src
};

/// One IR statement.  Unused members are kNone.
struct Statement {
  StmtKind Kind = StmtKind::Assign;
  VarId Dst = kNone;
  VarId Src = kNone;
  VarId Base = kNone; // load/store base, vcall receiver
  FieldId FieldLabel = kNone;
  TypeId Type = kNone;       // alloc type, cast target
  AllocId Alloc = kNone;     // alloc/null site
  CallSiteId Call = kNone;   // call site
  CastSiteId Cast = kNone;   // cast site
  MethodId Callee = kNone;   // direct call target
  Symbol VirtualName;        // virtual call method name
  bool IsVirtual = false;
  std::vector<VarId> Args; // call arguments, receiver first for vcalls
};

/// A method.  Parameters are ordinary locals listed in Params; instance
/// methods take the receiver as their first parameter by convention.
struct Method {
  Symbol Name;
  MethodId Id = kNone;
  /// Declaring class; kNone for static/free methods.
  TypeId Owner = kNone;
  std::vector<VarId> Params;
  std::vector<Statement> Stmts;

  bool isInstance() const { return Owner != kNone; }
};

/// A whole program: the closed world the PAG is built from.
class Program {
public:
  Program();

  //===------------------------------------------------------------------===//
  // Construction
  //===------------------------------------------------------------------===//

  /// Interns \p Text in the program's name table.
  Symbol name(std::string_view Text) { return Names.intern(Text); }

  /// Creates class \p ClassName deriving from \p Super (use kObjectType
  /// for plain classes).  The name must be fresh.
  TypeId createClass(Symbol ClassName, TypeId Super);

  /// Returns the field with \p FieldName, creating it on first use.
  FieldId getOrCreateField(Symbol FieldName);

  /// Moves class \p Class under \p Super.  \p Super must not be \p Class
  /// or one of its subclasses.
  void setSuper(TypeId Class, TypeId Super);

  /// Creates a method named \p MethodName in class \p Owner (kNone for a
  /// free/static method).
  MethodId createMethod(Symbol MethodName, TypeId Owner);

  /// Creates a fresh local named \p VarName in \p Owner.
  VarId createLocal(Symbol VarName, MethodId Owner, TypeId DeclaredType);

  /// Creates a global variable.  The name must be fresh among globals.
  VarId createGlobal(Symbol VarName, TypeId DeclaredType);

  /// Registers an allocation site in \p Owner for objects of \p Type.
  AllocId createAllocSite(TypeId Type, MethodId Owner, Symbol Label);

  /// Registers a call site in \p Caller with optional numeric \p Label.
  CallSiteId createCallSite(MethodId Caller, uint32_t Label);

  /// Registers a downcast site.
  CastSiteId createCastSite(MethodId Owner, VarId Source, TypeId Target);

  /// Registers a null pseudo-allocation site in \p Owner.  Each
  /// "x = null" statement gets its own site so that every allocation
  /// site keeps exactly one new edge (a PAG invariant the analyses rely
  /// on); sites are marked IsNull for the NullDeref client.
  AllocId createNullAlloc(MethodId Owner);

  /// Appends \p S to \p M's statement bag.  Touches \p M (see
  /// touchMethod), so the common edit path is tracked automatically.
  void addStatement(MethodId M, Statement S);

  /// Removes every statement of \p M matching \p Pred; returns how
  /// many.  Touches \p M when anything was removed, so remove-only
  /// edits stamp the edit clock exactly like addStatement does — the
  /// edit layer (AnalysisService) forwards here instead of erasing by
  /// hand precisely so the stamp cannot be forgotten.
  size_t removeStatements(MethodId M,
                          const std::function<bool(const Statement &)> &Pred);

  //===------------------------------------------------------------------===//
  // Edit tracking
  //
  // The incremental layers (AnalysisService, the delta PAG builder)
  // need to name exactly which methods changed between two builds.  The
  // program keeps a monotonic edit clock: every mutation of a method
  // stamps that method with the next tick.  A consumer records
  // the clock at build time and later asks which methods moved past it —
  // an O(#methods) integer scan, no statement hashing.
  //
  // Content fingerprints complement the clock: a stamp says "possibly
  // changed" (markDirty with no real edit also stamps), the fingerprint
  // says whether the method's analysis-visible content actually
  // differs.  The delta builder uses stamps to find candidates and
  // fingerprints to skip spurious re-lowers.
  //===------------------------------------------------------------------===//

  /// Stamps \p M as edited at the next clock tick.  addStatement calls
  /// this; direct mutation through method(M) must call it explicitly
  /// (AnalysisService::markDirty and editProgram forward here).
  void touchMethod(MethodId M);

  /// The current edit clock (starts at 0; bumped by every touch).
  uint64_t modClock() const { return ModClock; }

  /// The clock value of \p M's most recent touch.  Methods are stamped
  /// at creation, so this is never 0.
  uint64_t methodModCount(MethodId M) const { return MethodModCounts.at(M); }

  /// Every method touched strictly after \p Clock, in id order.
  std::vector<MethodId> methodsTouchedSince(uint64_t Clock) const;

  /// Bumped whenever the class hierarchy or method set grows
  /// (createClass/createMethod): CHA dispatch of *unedited* methods can
  /// only change when this does.
  uint64_t structureVersion() const { return StructureVersion; }

  /// Content hash of everything PAG construction reads from \p M's
  /// body: its statements, in order, with every analysis-visible field.
  uint64_t methodFingerprint(MethodId M) const;

  /// Hash of \p M's call-boundary interface: parameter variable ids and
  /// returned variable ids.  Callers' entry/exit edges depend on
  /// exactly this, so a caller must be re-lowered iff some callee's
  /// interface fingerprint changed (or its own body did).
  uint64_t methodInterfaceFingerprint(MethodId M) const;

  //===------------------------------------------------------------------===//
  // Lookup
  //===------------------------------------------------------------------===//

  /// Finds a class by name; kNone when absent.
  TypeId findClass(Symbol ClassName) const;

  /// Finds a method by owner + name; kNone when absent.  Does not search
  /// superclasses (see dispatch()).
  MethodId findMethod(TypeId Owner, Symbol MethodName) const;

  /// Finds a free (ownerless) method by name; kNone when absent.
  MethodId findFreeMethod(Symbol MethodName) const;

  /// Finds a global variable by name; kNone when absent.
  VarId findGlobal(Symbol VarName) const;

  /// Virtual-dispatch lookup: the method \p MethodName visible on
  /// \p Receiver, walking up the superclass chain; kNone when absent.
  MethodId dispatch(TypeId Receiver, Symbol MethodName) const;

  /// True when \p Sub is \p Super or a (transitive) subclass of it.
  bool isSubtypeOf(TypeId Sub, TypeId Super) const;

  /// Class-hierarchy-analysis call targets for a virtual call on a
  /// receiver statically typed \p ReceiverType: the dispatch results of
  /// every class in the subtree rooted at \p ReceiverType, deduplicated.
  std::vector<MethodId> chaTargets(TypeId ReceiverType,
                                   Symbol MethodName) const;

  //===------------------------------------------------------------------===//
  // Accessors
  //===------------------------------------------------------------------===//

  StringInterner &names() { return Names; }
  const StringInterner &names() const { return Names; }

  const std::vector<ClassType> &classes() const { return Classes; }
  const std::vector<Field> &fields() const { return Fields; }
  const std::vector<Method> &methods() const { return Methods; }
  const std::vector<Variable> &variables() const { return Variables; }
  const std::vector<AllocSite> &allocs() const { return Allocs; }
  const std::vector<CallSite> &callSites() const { return CallSites; }
  const std::vector<CastSite> &castSites() const { return CastSites; }

  const ClassType &classOf(TypeId Id) const { return Classes.at(Id); }
  const Method &method(MethodId Id) const { return Methods.at(Id); }
  Method &method(MethodId Id) { return Methods.at(Id); }
  const Variable &variable(VarId Id) const { return Variables.at(Id); }
  Variable &variable(VarId Id) { return Variables.at(Id); }
  const AllocSite &alloc(AllocId Id) const { return Allocs.at(Id); }
  const CallSite &callSite(CallSiteId Id) const { return CallSites.at(Id); }
  const CastSite &castSite(CastSiteId Id) const { return CastSites.at(Id); }

  /// Human-readable description of a variable ("v1@Main.main" or
  /// "G.cache").
  std::string describeVar(VarId Id) const;

  /// Human-readable description of an allocation site ("o25:Vector").
  std::string describeAlloc(AllocId Id) const;

  /// Human-readable description of a method ("Vector.add").
  std::string describeMethod(MethodId Id) const;

private:
  StringInterner Names;
  std::vector<ClassType> Classes;
  std::vector<Field> Fields;
  std::vector<Method> Methods;
  std::vector<Variable> Variables;
  std::vector<AllocSite> Allocs;
  std::vector<CallSite> CallSites;
  std::vector<CastSite> CastSites;

  /// Edit tracking (see "Edit tracking" above).
  uint64_t ModClock = 0;
  uint64_t StructureVersion = 0;
  std::vector<uint64_t> MethodModCounts; // by MethodId

  /// Name indexes so find*/dispatch stay O(1) as programs grow to 100k+
  /// methods (the workload generator and the frontend resolve every
  /// reference by name).  First declaration wins, matching the linear
  /// scans these replaced.
  std::unordered_map<uint32_t, TypeId> ClassByName;     // Symbol.Id
  std::unordered_map<uint32_t, FieldId> FieldByName;    // Symbol.Id
  std::unordered_map<uint32_t, VarId> GlobalByName;     // Symbol.Id
  std::unordered_map<uint32_t, MethodId> FreeMethodByName; // Symbol.Id
  std::unordered_map<uint64_t, MethodId> MethodByOwnerName; // Owner<<32|Name
};

} // namespace ir
} // namespace dynsum

#endif // DYNSUM_IR_PROGRAM_H
