//===----------------------------------------------------------------------===//
///
/// \file
/// ProgramBuilder implementation.
///
//===----------------------------------------------------------------------===//

#include "ir/Builder.h"

#include "support/Debug.h"

using namespace dynsum;
using namespace dynsum::ir;

ProgramBuilder::ProgramBuilder() : Prog(std::make_unique<Program>()) {}

std::unique_ptr<Program> ProgramBuilder::takeProgram() {
  return std::move(Prog);
}

TypeId ProgramBuilder::cls(std::string_view Name, std::string_view Super,
                           std::string *Error) {
  Symbol NameSym = Prog->name(Name);
  TypeId SuperId = Super.empty() || Super == "Object" ? kObjectType
                                                      : classNamed(Super);
  TypeId T = Prog->findClass(NameSym);
  if (T == kNone)
    T = Prog->createClass(NameSym, SuperId);
  else if (SuperId != (T == kObjectType ? kObjectType
                                        : Prog->classOf(T).Super)) {
    std::string Problem;
    if (T < Declared.size() && Declared[T])
      Problem = "' redeclared with another superclass";
    else if (Prog->isSubtypeOf(SuperId, T))
      Problem = "' cannot extend '" + std::string(Super) +
                "': inheritance cycle";
    if (!Problem.empty()) {
      Problem = "class '" + std::string(Name) + Problem;
      if (!Error)
        fatalError(Problem.c_str());
      *Error = std::move(Problem);
      return kNone;
    }
    Prog->setSuper(T, SuperId);
  }
  if (T >= Declared.size())
    Declared.resize(T + 1);
  Declared[T] = true;
  return T;
}

TypeId ProgramBuilder::classNamed(std::string_view Name) {
  Symbol NameSym = Prog->name(Name);
  TypeId T = Prog->findClass(NameSym);
  return T != kNone ? T : Prog->createClass(NameSym, kObjectType);
}

TypeId ProgramBuilder::typeOrObject(std::string_view Name) const {
  if (Name.empty())
    return kObjectType;
  TypeId T = Prog->findClass(Prog->names().lookup(Name));
  return T == kNone ? kObjectType : T;
}

FieldId ProgramBuilder::field(std::string_view Name) {
  return Prog->getOrCreateField(Prog->name(Name));
}

MethodId ProgramBuilder::method(std::string_view QualifiedName,
                                const ParamList &Params) {
  size_t Dot = QualifiedName.find('.');
  TypeId Owner = kNone;
  std::string_view MethodName = QualifiedName;
  if (Dot != std::string_view::npos) {
    Owner = classNamed(QualifiedName.substr(0, Dot));
    MethodName = QualifiedName.substr(Dot + 1);
  }
  MethodId M = Prog->createMethod(Prog->name(MethodName), Owner);
  for (const auto &[ParamName, ParamType] : Params) {
    VarId V = var(M, ParamName);
    if (!ParamType.empty())
      declareLocal(M, ParamName, ParamType);
    Prog->method(M).Params.push_back(V);
  }
  return M;
}

VarId ProgramBuilder::global(std::string_view Name, std::string_view Type) {
  Symbol NameSym = Prog->name(Name);
  VarId V = Prog->findGlobal(NameSym);
  if (V == kNone)
    V = Prog->createGlobal(NameSym, typeOrObject(Type));
  if (NameSym.Id >= Slots.size())
    Slots.resize(NameSym.Id + 1);
  Slots[NameSym.Id] = {kGlobalScope, V};
  return V;
}

void ProgramBuilder::enterScope(MethodId M) {
  Scope = M;
  if (M >= LastLocal.size())
    return; // no locals yet
  for (VarId V = LastLocal[M]; V != kNone; V = PrevLocal[V]) {
    NameSlot &S = Slots[Prog->variable(V).Name.Id];
    if (S.Scope != kGlobalScope)
      S = {M, V};
  }
}

VarId ProgramBuilder::var(MethodId M, std::string_view Name) {
  Symbol NameSym = Prog->name(Name);
  if (M != Scope)
    enterScope(M);
  if (NameSym.Id >= Slots.size())
    Slots.resize(NameSym.Id + 1);
  NameSlot &S = Slots[NameSym.Id];
  if (S.Scope == M || S.Scope == kGlobalScope)
    return S.Var;
  VarId V = Prog->createLocal(NameSym, M, kObjectType);
  if (M >= LastLocal.size())
    LastLocal.resize(M + 1, kNone);
  if (V >= PrevLocal.size())
    PrevLocal.resize(V + 1, kNone);
  PrevLocal[V] = LastLocal[M];
  LastLocal[M] = V;
  S = {M, V};
  return V;
}

void ProgramBuilder::declareLocal(MethodId M, std::string_view Name,
                                  std::string_view Type) {
  VarId V = var(M, Name);
  Prog->variable(V).DeclaredType = typeOrObject(Type);
}

AllocId ProgramBuilder::alloc(MethodId M, std::string_view Dst,
                              std::string_view Type, std::string_view Label) {
  TypeId T = classNamed(Type);
  Symbol LabelSym = Label.empty() ? Symbol{} : Prog->name(Label);
  AllocId A = Prog->createAllocSite(T, M, LabelSym);
  Statement S;
  S.Kind = StmtKind::Alloc;
  S.Dst = var(M, Dst);
  S.Type = T;
  S.Alloc = A;
  Prog->addStatement(M, std::move(S));
  return A;
}

void ProgramBuilder::nullAssign(MethodId M, std::string_view Dst) {
  Statement S;
  S.Kind = StmtKind::Null;
  S.Dst = var(M, Dst);
  S.Alloc = Prog->createNullAlloc(M);
  Prog->addStatement(M, std::move(S));
}

void ProgramBuilder::assign(MethodId M, std::string_view Dst,
                            std::string_view Src) {
  Statement S;
  S.Kind = StmtKind::Assign;
  S.Dst = var(M, Dst);
  S.Src = var(M, Src);
  Prog->addStatement(M, std::move(S));
}

CastSiteId ProgramBuilder::cast(MethodId M, std::string_view Dst,
                                std::string_view Type, std::string_view Src) {
  TypeId T = classNamed(Type);
  Statement S;
  S.Kind = StmtKind::Cast;
  S.Dst = var(M, Dst);
  S.Src = var(M, Src);
  S.Type = T;
  S.Cast = Prog->createCastSite(M, S.Src, T);
  CastSiteId Id = S.Cast;
  Prog->addStatement(M, std::move(S));
  return Id;
}

void ProgramBuilder::load(MethodId M, std::string_view Dst,
                          std::string_view Base, std::string_view FieldName) {
  Statement S;
  S.Kind = StmtKind::Load;
  S.Dst = var(M, Dst);
  S.Base = var(M, Base);
  S.FieldLabel = field(FieldName);
  Prog->addStatement(M, std::move(S));
}

void ProgramBuilder::store(MethodId M, std::string_view Base,
                           std::string_view FieldName, std::string_view Src) {
  Statement S;
  S.Kind = StmtKind::Store;
  S.Base = var(M, Base);
  S.FieldLabel = field(FieldName);
  S.Src = var(M, Src);
  Prog->addStatement(M, std::move(S));
}

CallSiteId ProgramBuilder::call(MethodId M, std::string_view Dst,
                                MethodId Callee,
                                const std::vector<std::string_view> &Args,
                                uint32_t Label) {
  Statement S;
  S.Kind = StmtKind::Call;
  S.Dst = Dst.empty() ? kNone : var(M, Dst);
  S.Callee = Callee;
  S.Call = Prog->createCallSite(M, Label);
  S.Args.reserve(Args.size());
  for (std::string_view Arg : Args)
    S.Args.push_back(var(M, Arg));
  CallSiteId Id = S.Call;
  Prog->addStatement(M, std::move(S));
  return Id;
}

CallSiteId ProgramBuilder::vcall(MethodId M, std::string_view Dst,
                                 std::string_view Recv,
                                 std::string_view MethodName,
                                 const std::vector<std::string_view> &Args,
                                 uint32_t Label) {
  Statement S;
  S.Kind = StmtKind::Call;
  S.IsVirtual = true;
  S.Dst = Dst.empty() ? kNone : var(M, Dst);
  S.Base = var(M, Recv);
  S.VirtualName = Prog->name(MethodName);
  S.Call = Prog->createCallSite(M, Label);
  S.Args.reserve(Args.size() + 1);
  S.Args.push_back(S.Base); // receiver is the first argument
  for (std::string_view Arg : Args)
    S.Args.push_back(var(M, Arg));
  CallSiteId Id = S.Call;
  Prog->addStatement(M, std::move(S));
  return Id;
}

void ProgramBuilder::ret(MethodId M, std::string_view Src) {
  Statement S;
  S.Kind = StmtKind::Return;
  S.Src = var(M, Src);
  Prog->addStatement(M, std::move(S));
}
