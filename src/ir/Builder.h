//===----------------------------------------------------------------------===//
///
/// \file
/// A name-based convenience layer for constructing IR programs.
///
/// Tests, examples and the workload generator build programs through
/// this API; the parser is a thin layer over it as well.  Local
/// variables are created on first use within their method, mirroring how
/// the textual format treats identifiers.
///
//===----------------------------------------------------------------------===//

#ifndef DYNSUM_IR_BUILDER_H
#define DYNSUM_IR_BUILDER_H

#include "ir/Program.h"

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dynsum {
namespace ir {

/// Builds a Program incrementally.  The builder owns the program until
/// takeProgram() is called.
class ProgramBuilder {
public:
  ProgramBuilder();

  /// Read access to the program under construction.
  Program &program() { return *Prog; }
  const Program &program() const { return *Prog; }

  /// Transfers ownership of the finished program.
  std::unique_ptr<Program> takeProgram();

  //===------------------------------------------------------------------===//
  // Declarations
  //===------------------------------------------------------------------===//

  /// Declares class \p Name extending \p Super ("" or "Object" for the
  /// root).  A class so far only referenced (as a superclass, a method's
  /// owner or an allocated or cast-to type) takes the declared
  /// superclass.  A redeclaration must name the same superclass, and no
  /// class may extend itself or a subclass; a declaration breaking either
  /// rule returns kNone with the reason in \p Error, or aborts when
  /// \p Error is null.
  TypeId cls(std::string_view Name, std::string_view Super = "",
             std::string *Error = nullptr);

  /// Declares (or finds) the field \p Name.
  FieldId field(std::string_view Name);

  /// (name, declared-type) pairs; use "" for an untyped parameter.
  using ParamList = std::vector<std::pair<std::string_view, std::string_view>>;

  /// Declares method "Class.name" or a free method "name".  For instance
  /// methods include the receiver (conventionally "this") as the first
  /// parameter.
  MethodId method(std::string_view QualifiedName, const ParamList &Params = {});

  /// Declares a global with optional declared type.
  VarId global(std::string_view Name, std::string_view Type = "");

  /// Declares or retrieves local \p Name of method \p M.  A global
  /// declared through global() under the same name takes precedence (as
  /// in the textual format).
  VarId var(MethodId M, std::string_view Name);

  /// Sets the declared type of a local ("var x : T" in the text format).
  void declareLocal(MethodId M, std::string_view Name, std::string_view Type);

  //===------------------------------------------------------------------===//
  // Statements
  //===------------------------------------------------------------------===//

  /// Dst = new Type.  \p Label optionally names the site (e.g. "o25").
  AllocId alloc(MethodId M, std::string_view Dst, std::string_view Type,
                std::string_view Label = "");

  /// Dst = null.
  void nullAssign(MethodId M, std::string_view Dst);

  /// Dst = Src.
  void assign(MethodId M, std::string_view Dst, std::string_view Src);

  /// Dst = (Type) Src; records a cast site for the SafeCast client.
  CastSiteId cast(MethodId M, std::string_view Dst, std::string_view Type,
                  std::string_view Src);

  /// Dst = Base.Field.
  void load(MethodId M, std::string_view Dst, std::string_view Base,
            std::string_view FieldName);

  /// Base.Field = Src.
  void store(MethodId M, std::string_view Base, std::string_view FieldName,
             std::string_view Src);

  /// [Dst =] call Callee(Args).  \p Dst may be "" for a void call.
  /// \p Label is the optional user-visible site number.
  CallSiteId call(MethodId M, std::string_view Dst, MethodId Callee,
                  const std::vector<std::string_view> &Args,
                  uint32_t Label = kNone);

  /// [Dst =] vcall Recv.Name(Args).  The receiver is implicitly passed
  /// as the first argument.
  CallSiteId vcall(MethodId M, std::string_view Dst, std::string_view Recv,
                   std::string_view MethodName,
                   const std::vector<std::string_view> &Args,
                   uint32_t Label = kNone);

  /// return Src.
  void ret(MethodId M, std::string_view Src);

private:
  TypeId typeOrObject(std::string_view Name) const;
  /// Finds class \p Name, creating it under Object when absent.
  TypeId classNamed(std::string_view Name);
  /// Stamps the slots of \p M's locals (see Slots).
  void enterScope(MethodId M);

  std::unique_ptr<Program> Prog;
  /// By TypeId: declared through cls(), not only referenced.
  std::vector<bool> Declared;

  /// Local names resolve in the scope of one method at a time: Slots[Sym]
  /// is the variable Sym names inside method Slots[Sym].Scope, or
  /// everywhere for kGlobalScope.  Entering another method's scope
  /// restamps its locals, chained through LastLocal and PrevLocal.
  static constexpr MethodId kGlobalScope = kNone - 1;
  struct NameSlot {
    MethodId Scope = kNone;
    VarId Var = kNone;
  };
  std::vector<NameSlot> Slots; // by Symbol id
  MethodId Scope = kNone;
  std::vector<VarId> LastLocal; // by MethodId: newest local or kNone
  std::vector<VarId> PrevLocal; // by VarId: the owner's next older local
};

} // namespace ir
} // namespace dynsum

#endif // DYNSUM_IR_BUILDER_H
