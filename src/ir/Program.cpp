//===----------------------------------------------------------------------===//
///
/// \file
/// Program model implementation: hierarchy maintenance, dispatch, CHA.
///
//===----------------------------------------------------------------------===//

#include "ir/Program.h"

#include "support/Debug.h"
#include "support/Hashing.h"

#include <algorithm>
#include <cassert>

using namespace dynsum;
using namespace dynsum::ir;

Program::Program() {
  // The implicit root class.
  ClassType Root;
  Root.Name = Names.intern("Object");
  Root.Id = kObjectType;
  Root.Super = kNone;
  Classes.push_back(Root);
  ClassByName.emplace(Root.Name.Id, kObjectType);
}

TypeId Program::createClass(Symbol ClassName, TypeId Super) {
  assert(findClass(ClassName) == kNone && "duplicate class name");
  assert(Super < Classes.size() && "unknown superclass");
  TypeId Id = TypeId(Classes.size());
  ClassType C;
  C.Name = ClassName;
  C.Id = Id;
  C.Super = Super;
  Classes.push_back(C);
  Classes[Super].Subclasses.push_back(Id);
  ClassByName.emplace(ClassName.Id, Id);
  ++StructureVersion;
  return Id;
}

FieldId Program::getOrCreateField(Symbol FieldName) {
  auto [It, IsNew] =
      FieldByName.emplace(FieldName.Id, FieldId(Fields.size()));
  if (IsNew)
    Fields.push_back(Field{FieldName, It->second});
  return It->second;
}

void Program::setSuper(TypeId Class, TypeId Super) {
  assert(!isSubtypeOf(Super, Class) && "inheritance cycle");
  std::vector<TypeId> &OldSubs = Classes[Classes[Class].Super].Subclasses;
  OldSubs.erase(std::find(OldSubs.begin(), OldSubs.end(), Class));
  Classes[Super].Subclasses.push_back(Class);
  Classes[Class].Super = Super;
  ++StructureVersion;
}

MethodId Program::createMethod(Symbol MethodName, TypeId Owner) {
  assert((Owner == kNone || Owner < Classes.size()) && "unknown owner class");
  Method M;
  M.Name = MethodName;
  M.Id = MethodId(Methods.size());
  M.Owner = Owner;
  Methods.push_back(std::move(M));
  MethodId Id = Methods.back().Id;
  if (Owner != kNone) {
    Classes[Owner].Methods.push_back(Id);
    MethodByOwnerName.emplace(packPair(Owner, MethodName.Id), Id);
  } else {
    FreeMethodByName.emplace(MethodName.Id, Id);
  }
  MethodModCounts.push_back(++ModClock); // a fresh method starts dirty
  ++StructureVersion;
  return Id;
}

VarId Program::createLocal(Symbol VarName, MethodId Owner,
                           TypeId DeclaredType) {
  assert(Owner < Methods.size() && "local without owning method");
  Variable V;
  V.Name = VarName;
  V.Id = VarId(Variables.size());
  V.Owner = Owner;
  V.DeclaredType = DeclaredType;
  V.IsGlobal = false;
  Variables.push_back(V);
  return V.Id;
}

VarId Program::createGlobal(Symbol VarName, TypeId DeclaredType) {
  assert(findGlobal(VarName) == kNone && "duplicate global name");
  Variable V;
  V.Name = VarName;
  V.Id = VarId(Variables.size());
  V.Owner = kNone;
  V.DeclaredType = DeclaredType;
  V.IsGlobal = true;
  Variables.push_back(V);
  GlobalByName.emplace(VarName.Id, V.Id);
  return V.Id;
}

AllocId Program::createAllocSite(TypeId Type, MethodId Owner, Symbol Label) {
  AllocSite A;
  A.Id = AllocId(Allocs.size());
  A.Type = Type;
  A.Owner = Owner;
  A.Label = Label;
  Allocs.push_back(A);
  return A.Id;
}

CallSiteId Program::createCallSite(MethodId Caller, uint32_t Label) {
  CallSite S;
  S.Id = CallSiteId(CallSites.size());
  S.Caller = Caller;
  S.Label = Label;
  CallSites.push_back(S);
  return S.Id;
}

CastSiteId Program::createCastSite(MethodId Owner, VarId Source,
                                   TypeId Target) {
  CastSite C;
  C.Id = CastSiteId(CastSites.size());
  C.Owner = Owner;
  C.Source = Source;
  C.Target = Target;
  CastSites.push_back(C);
  return C.Id;
}

AllocId Program::createNullAlloc(MethodId Owner) {
  AllocSite A;
  A.Id = AllocId(Allocs.size());
  A.Type = kObjectType;
  A.Owner = Owner;
  A.Label = Names.intern("null");
  A.IsNull = true;
  Allocs.push_back(A);
  return A.Id;
}

void Program::addStatement(MethodId M, Statement S) {
  assert(M < Methods.size() && "statement outside any method");
  Methods[M].Stmts.push_back(std::move(S));
  touchMethod(M);
}

size_t Program::removeStatements(
    MethodId M, const std::function<bool(const Statement &)> &Pred) {
  assert(M < Methods.size() && "removal outside any method");
  std::vector<Statement> &Stmts = Methods[M].Stmts;
  size_t Before = Stmts.size();
  Stmts.erase(std::remove_if(Stmts.begin(), Stmts.end(), Pred), Stmts.end());
  size_t Removed = Before - Stmts.size();
  if (Removed > 0)
    touchMethod(M);
  return Removed;
}

void Program::touchMethod(MethodId M) {
  assert(M < Methods.size() && "touch of unknown method");
  MethodModCounts[M] = ++ModClock;
}

std::vector<MethodId> Program::methodsTouchedSince(uint64_t Clock) const {
  std::vector<MethodId> Out;
  for (MethodId M = 0; M < MethodModCounts.size(); ++M)
    if (MethodModCounts[M] > Clock)
      Out.push_back(M);
  return Out;
}

uint64_t Program::methodFingerprint(MethodId Id) const {
  const Method &M = method(Id);
  uint64_t H = 0xa3c59ac2f1e0d4b7ull;
  H = hashCombine(H, packPair(uint32_t(M.Params.size()),
                              uint32_t(M.Stmts.size())));
  for (VarId V : M.Params)
    H = hashCombine(H, V);
  for (const Statement &S : M.Stmts) {
    H = hashCombine(H, packPair(uint32_t(S.Kind), S.Dst));
    H = hashCombine(H, packPair(S.Src, S.Base));
    H = hashCombine(H, packPair(S.FieldLabel, S.Type));
    H = hashCombine(H, packPair(S.Alloc, S.Call));
    H = hashCombine(H, packPair(S.Callee, S.VirtualName.Id));
    H = hashCombine(H, uint64_t(S.IsVirtual));
    for (VarId V : S.Args)
      H = hashCombine(H, V);
  }
  return H;
}

uint64_t Program::methodInterfaceFingerprint(MethodId Id) const {
  const Method &M = method(Id);
  uint64_t H = 0x51f8b0d9ce72a681ull;
  for (VarId V : M.Params)
    H = hashCombine(H, V);
  H = hashCombine(H, 0xffffffffull); // params/returns separator
  for (const Statement &S : M.Stmts)
    if (S.Kind == StmtKind::Return)
      H = hashCombine(H, S.Src);
  return H;
}

TypeId Program::findClass(Symbol ClassName) const {
  auto It = ClassByName.find(ClassName.Id);
  return It == ClassByName.end() ? kNone : It->second;
}

MethodId Program::findMethod(TypeId Owner, Symbol MethodName) const {
  if (Owner == kNone || Owner >= Classes.size())
    return kNone;
  auto It = MethodByOwnerName.find(packPair(Owner, MethodName.Id));
  return It == MethodByOwnerName.end() ? kNone : It->second;
}

MethodId Program::findFreeMethod(Symbol MethodName) const {
  auto It = FreeMethodByName.find(MethodName.Id);
  return It == FreeMethodByName.end() ? kNone : It->second;
}

VarId Program::findGlobal(Symbol VarName) const {
  auto It = GlobalByName.find(VarName.Id);
  return It == GlobalByName.end() ? kNone : It->second;
}

MethodId Program::dispatch(TypeId Receiver, Symbol MethodName) const {
  for (TypeId T = Receiver; T != kNone; T = Classes[T].Super) {
    MethodId M = findMethod(T, MethodName);
    if (M != kNone)
      return M;
  }
  return kNone;
}

bool Program::isSubtypeOf(TypeId Sub, TypeId Super) const {
  for (TypeId T = Sub; T != kNone; T = Classes[T].Super)
    if (T == Super)
      return true;
  return false;
}

std::vector<MethodId> Program::chaTargets(TypeId ReceiverType,
                                          Symbol MethodName) const {
  std::vector<MethodId> Targets;
  // Walk the subtree rooted at the receiver's declared type; each class
  // in it is a possible dynamic type, so collect its dispatch result.
  std::vector<TypeId> Work{ReceiverType};
  while (!Work.empty()) {
    TypeId T = Work.back();
    Work.pop_back();
    MethodId M = dispatch(T, MethodName);
    if (M != kNone &&
        std::find(Targets.begin(), Targets.end(), M) == Targets.end())
      Targets.push_back(M);
    for (TypeId Sub : Classes[T].Subclasses)
      Work.push_back(Sub);
  }
  std::sort(Targets.begin(), Targets.end());
  return Targets;
}

std::string Program::describeVar(VarId Id) const {
  const Variable &V = variable(Id);
  std::string Out;
  if (V.IsGlobal) {
    Out = "G.";
    Out += Names.text(V.Name);
    return Out;
  }
  Out = std::string(Names.text(V.Name));
  Out += '@';
  Out += describeMethod(V.Owner);
  return Out;
}

std::string Program::describeAlloc(AllocId Id) const {
  const AllocSite &A = alloc(Id);
  if (A.IsNull)
    return "null";
  std::string Out;
  if (!A.Label.empty())
    Out = std::string(Names.text(A.Label));
  else
    Out = "o" + std::to_string(Id);
  Out += ':';
  Out += Names.text(classOf(A.Type).Name);
  return Out;
}

std::string Program::describeMethod(MethodId Id) const {
  const Method &M = method(Id);
  std::string Out;
  if (M.Owner != kNone) {
    Out = std::string(Names.text(classOf(M.Owner).Name));
    Out += '.';
  }
  Out += Names.text(M.Name);
  return Out;
}
