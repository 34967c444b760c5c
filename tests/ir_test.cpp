//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the IR: program model, builder, parser, printer,
/// validator.
///
//===----------------------------------------------------------------------===//

#include "analysis/SummaryIO.h"
#include "ir/Builder.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Program.h"
#include "ir/Validator.h"
#include "support/Random.h"
#include "workload/Generator.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace dynsum;
using namespace dynsum::ir;

//===----------------------------------------------------------------------===//
// Program model
//===----------------------------------------------------------------------===//

TEST(ProgramTest, ObjectIsTheImplicitRoot) {
  Program P;
  ASSERT_EQ(P.classes().size(), 1u);
  EXPECT_EQ(P.names().text(P.classOf(kObjectType).Name), "Object");
}

TEST(ProgramTest, SubtypingIsReflexiveAndTransitive) {
  Program P;
  TypeId A = P.createClass(P.name("A"), kObjectType);
  TypeId B = P.createClass(P.name("B"), A);
  TypeId C = P.createClass(P.name("C"), B);
  EXPECT_TRUE(P.isSubtypeOf(C, C));
  EXPECT_TRUE(P.isSubtypeOf(C, A));
  EXPECT_TRUE(P.isSubtypeOf(C, kObjectType));
  EXPECT_FALSE(P.isSubtypeOf(A, C));
}

TEST(ProgramTest, DispatchWalksUpTheHierarchy) {
  Program P;
  TypeId A = P.createClass(P.name("A"), kObjectType);
  TypeId B = P.createClass(P.name("B"), A);
  Symbol Run = P.name("run");
  MethodId OnA = P.createMethod(Run, A);
  EXPECT_EQ(P.dispatch(B, Run), OnA);
  EXPECT_EQ(P.dispatch(A, Run), OnA);
  EXPECT_EQ(P.dispatch(kObjectType, Run), kNone);
  // An override in B shadows A's method for B receivers only.
  MethodId OnB = P.createMethod(Run, B);
  EXPECT_EQ(P.dispatch(B, Run), OnB);
  EXPECT_EQ(P.dispatch(A, Run), OnA);
}

TEST(ProgramTest, ChaTargetsCoverTheSubtree) {
  Program P;
  TypeId A = P.createClass(P.name("A"), kObjectType);
  TypeId B1 = P.createClass(P.name("B1"), A);
  TypeId B2 = P.createClass(P.name("B2"), A);
  (void)B2;
  Symbol Run = P.name("run");
  MethodId OnA = P.createMethod(Run, A);
  MethodId OnB1 = P.createMethod(Run, B1);
  std::vector<MethodId> Targets = P.chaTargets(A, Run);
  // B2 inherits A's run; B1 overrides: both methods are possible.
  EXPECT_EQ(Targets, (std::vector<MethodId>{OnA, OnB1}));
}

TEST(ProgramTest, FieldsAreUniquedByName) {
  Program P;
  EXPECT_EQ(P.getOrCreateField(P.name("f")), P.getOrCreateField(P.name("f")));
  EXPECT_NE(P.getOrCreateField(P.name("f")), P.getOrCreateField(P.name("g")));
}

TEST(ProgramTest, NullAllocSitesAreDistinctAndFlagged) {
  Program P;
  MethodId M = P.createMethod(P.name("m"), kNone);
  AllocId N1 = P.createNullAlloc(M);
  AllocId N2 = P.createNullAlloc(M);
  EXPECT_NE(N1, N2);
  EXPECT_TRUE(P.alloc(N1).IsNull);
}

TEST(ProgramTest, Describers) {
  Program P;
  TypeId A = P.createClass(P.name("A"), kObjectType);
  MethodId M = P.createMethod(P.name("go"), A);
  VarId V = P.createLocal(P.name("x"), M, kObjectType);
  VarId G = P.createGlobal(P.name("cfg"), kObjectType);
  AllocId O = P.createAllocSite(A, M, P.name("o1"));
  EXPECT_EQ(P.describeMethod(M), "A.go");
  EXPECT_EQ(P.describeVar(V), "x@A.go");
  EXPECT_EQ(P.describeVar(G), "G.cfg");
  EXPECT_EQ(P.describeAlloc(O), "o1:A");
}

//===----------------------------------------------------------------------===//
// Builder
//===----------------------------------------------------------------------===//

TEST(BuilderTest, LocalsAreScopedPerMethod) {
  ProgramBuilder B;
  MethodId M1 = B.method("m1");
  MethodId M2 = B.method("m2");
  VarId X1 = B.var(M1, "x");
  VarId X2 = B.var(M2, "x");
  EXPECT_NE(X1, X2);
  EXPECT_EQ(B.var(M1, "x"), X1); // stable on re-lookup
}

TEST(BuilderTest, GlobalShadowsLocalName) {
  ProgramBuilder B;
  VarId G = B.global("shared");
  MethodId M = B.method("m");
  EXPECT_EQ(B.var(M, "shared"), G);
}

TEST(BuilderTest, StatementsRecordSites) {
  ProgramBuilder B;
  MethodId M = B.method("m");
  B.cls("T");
  AllocId A = B.alloc(M, "x", "T", "site1");
  CastSiteId C = B.cast(M, "y", "T", "x");
  const Program &P = B.program();
  EXPECT_EQ(P.alloc(A).Owner, M);
  EXPECT_EQ(P.castSite(C).Owner, M);
  EXPECT_EQ(P.castSite(C).Target, P.findClass(P.names().lookup("T")));
  ASSERT_EQ(P.method(M).Stmts.size(), 2u);
  EXPECT_EQ(P.method(M).Stmts[0].Kind, StmtKind::Alloc);
  EXPECT_EQ(P.method(M).Stmts[1].Kind, StmtKind::Cast);
}

TEST(BuilderTest, VcallPassesReceiverFirst) {
  ProgramBuilder B;
  B.cls("T");
  B.method("T.run", {{"this", "T"}, {"p", ""}});
  MethodId M = B.method("m");
  B.vcall(M, "r", "recv", "run", {"arg"});
  const Statement &S = B.program().method(M).Stmts.back();
  ASSERT_EQ(S.Args.size(), 2u);
  EXPECT_EQ(S.Args[0], S.Base);
  EXPECT_TRUE(S.IsVirtual);
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

TEST(ParserTest, ParsesFigure2) {
  ParseResult R = parseProgram(dynsum::testing::kFigure2Source);
  ASSERT_TRUE(R.ok()) << R.Error;
  const Program &P = *R.Prog;
  EXPECT_NE(P.findClass(P.names().lookup("Vector")), kNone);
  EXPECT_NE(P.findClass(P.names().lookup("Client")), kNone);
  EXPECT_EQ(P.methods().size(), 8u);
  EXPECT_TRUE(validate(P).empty());
}

TEST(ParserTest, ForwardReferencesAcrossDeclarations) {
  // main calls a method declared later; the callee's class appears last.
  ParseResult R = parseProgram(R"(
method main() {
  x = call later(y)
}
method later(p : Late) {
  return p
}
class Late {}
)");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_TRUE(validate(*R.Prog).empty());
}

TEST(ParserTest, ClassInheritanceAfterMethodUse) {
  ParseResult R = parseProgram(R"(
method Sub.run(this : Sub) { return this }
class Sub extends Base {}
class Base {}
)");
  ASSERT_TRUE(R.ok()) << R.Error;
  const Program &P = *R.Prog;
  TypeId Sub = P.findClass(P.names().lookup("Sub"));
  TypeId Base = P.findClass(P.names().lookup("Base"));
  EXPECT_TRUE(P.isSubtypeOf(Sub, Base));
}

TEST(ParserTest, RejectsUnknownCharacters) {
  ParseResult R = parseProgram("class A {} method m() { x = y ? z }");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("unexpected character"), std::string::npos);
}

TEST(ParserTest, RejectsUnterminatedBody) {
  ParseResult R = parseProgram("method m() { x = y ");
  EXPECT_FALSE(R.ok());
}

TEST(ParserTest, RejectsVcallWithoutReceiver) {
  ParseResult R = parseProgram("method m() { x = vcall run() }");
  EXPECT_FALSE(R.ok());
}

TEST(ParserTest, ReportsLineNumbers) {
  ParseResult R = parseProgram("class A {}\nmethod m() {\n  !\n}");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("line 3"), std::string::npos);
}

TEST(ParserTest, CommentsAreSkipped) {
  ParseResult R = parseProgram(R"(
# hash comment
class A {}       // trailing comment
method m() {
  // a full-line comment
  x = new A @o1
}
)");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Prog->allocs().size(), 1u);
}

TEST(ParserTest, CallSiteLabelsPreserved) {
  ParseResult R = parseProgram(R"(
method callee(p) { return p }
method m() {
  x = call @77 callee(x)
}
)");
  ASSERT_TRUE(R.ok()) << R.Error;
  ASSERT_EQ(R.Prog->callSites().size(), 1u);
  EXPECT_EQ(R.Prog->callSites()[0].Label, 77u);
}

// Each input below used to parse and validate clean into a wrong program
// (or abort inside the builder); each is now a diagnostic or a correct
// parse.

TEST(ParserTest, ForwardReferencedSuperclassKeepsItsOwnExtends) {
  ParseResult R = parseProgram(R"(
class B extends A {}
class A extends C {}
class C {}
method C.run(this : C) { return this }
)");
  ASSERT_TRUE(R.ok()) << R.Error;
  const Program &P = *R.Prog;
  TypeId A = P.findClass(P.names().lookup("A"));
  TypeId B = P.findClass(P.names().lookup("B"));
  TypeId C = P.findClass(P.names().lookup("C"));
  EXPECT_EQ(P.classOf(A).Super, C);
  EXPECT_TRUE(P.isSubtypeOf(B, C));
  EXPECT_EQ(P.classOf(C).Subclasses, std::vector<TypeId>{A});
  const std::vector<TypeId> &RootSubs = P.classOf(kObjectType).Subclasses;
  EXPECT_EQ(std::count(RootSubs.begin(), RootSubs.end(), A), 0);
  Symbol Run = P.names().lookup("run");
  EXPECT_EQ(P.dispatch(B, Run), P.findMethod(C, Run));
  EXPECT_TRUE(validate(P).empty());
}

TEST(ParserTest, RejectsInheritanceCycles) {
  ParseResult R = parseProgram("class A extends B {}\nclass B extends A {}");
  EXPECT_EQ(R.Error, "line 2: class 'B' cannot extend 'A': inheritance cycle");
  ParseResult Self = parseProgram("class A extends A {}");
  EXPECT_EQ(Self.Error,
            "line 1: class 'A' cannot extend 'A': inheritance cycle");
  ParseResult Root = parseProgram("class A {}\nclass Object extends A {}");
  EXPECT_EQ(Root.Error,
            "line 2: class 'Object' cannot extend 'A': inheritance cycle");
}

TEST(ParserTest, RejectsClassRedeclaredWithAnotherSuper) {
  ParseResult R = parseProgram("class A {}\nclass B {}\nclass A extends B {}");
  EXPECT_EQ(R.Error, "line 3: class 'A' redeclared with another superclass");
  // Repeating the same superclass is a plain redeclaration.
  ParseResult Same = parseProgram(
      "class B {}\nclass A extends B { fields f }\nclass A extends B {}");
  ASSERT_TRUE(Same.ok()) << Same.Error;
  EXPECT_EQ(Same.Prog->classes().size(), 3u);
}

TEST(ParserTest, RejectsDuplicateMethods) {
  ParseResult R = parseProgram(R"(class A {}
method A.m(this) { x = new A }
method A.m(this) { y = new A }
)");
  EXPECT_EQ(R.Error, "line 3: duplicate method 'A.m'");
  ParseResult Free = parseProgram("method f() {}\nmethod f() {}");
  EXPECT_EQ(Free.Error, "line 2: duplicate method 'f'");
}

TEST(ParserTest, RejectsCallLabelsOutOfRange) {
  std::string Prefix = "method callee(p) { return p }\nmethod m() {\n"
                       "  x = call @";
  // kNone - 1 is the largest label; kNone itself means "no label".
  for (std::string Label : {"4294967295", "99999999999"}) {
    ParseResult R = parseProgram(Prefix + Label + " callee(x)\n}");
    EXPECT_EQ(R.Error, "line 3: call label '" + Label + "' out of range");
  }
  ParseResult Max = parseProgram(Prefix + "4294967294 callee(x)\n}");
  ASSERT_TRUE(Max.ok()) << Max.Error;
  EXPECT_EQ(Max.Prog->callSites()[0].Label, 4294967294u);
}

TEST(ParserTest, RejectsCallsToUndeclaredMethods) {
  ParseResult R = parseProgram("method m() {\n  x = call nothere(x)\n}");
  EXPECT_EQ(R.Error, "line 2: call to undeclared method 'nothere'");
  ParseResult Owned =
      parseProgram("class A {}\nmethod m() {\n  x = call A.nothere()\n}");
  EXPECT_EQ(Owned.Error, "line 3: call to undeclared method 'A.nothere'");
}

TEST(ParserTest, UnknownCharacterInALaterBodyIsReported) {
  // Bodies are parsed after every signature; a lex error there still
  // carries its own line.
  ParseResult R = parseProgram("method a() {}\nmethod b() {\n\n  x = y ? z\n}");
  EXPECT_EQ(R.Error, "line 4: unexpected character '?'");
}

//===----------------------------------------------------------------------===//
// Printer round-trip
//===----------------------------------------------------------------------===//

namespace {

/// Structural fingerprint used to compare programs across a round-trip.
struct Fingerprint {
  size_t Classes, Methods, Vars, Allocs, Calls, Casts, Stmts;

  static Fingerprint of(const Program &P) {
    Fingerprint F{};
    F.Classes = P.classes().size();
    F.Methods = P.methods().size();
    F.Vars = P.variables().size();
    F.Allocs = P.allocs().size();
    F.Calls = P.callSites().size();
    F.Casts = P.castSites().size();
    for (const Method &M : P.methods())
      F.Stmts += M.Stmts.size();
    return F;
  }

  bool operator==(const Fingerprint &O) const {
    return Classes == O.Classes && Methods == O.Methods && Vars == O.Vars &&
           Allocs == O.Allocs && Calls == O.Calls && Casts == O.Casts &&
           Stmts == O.Stmts;
  }
};

} // namespace

TEST(PrinterTest, Figure2RoundTripsStructurally) {
  ParseResult First = parseProgram(dynsum::testing::kFigure2Source);
  ASSERT_TRUE(First.ok()) << First.Error;
  std::string Printed = programToString(*First.Prog);
  ParseResult Second = parseProgram(Printed);
  ASSERT_TRUE(Second.ok()) << Second.Error << "\n" << Printed;
  EXPECT_TRUE(Fingerprint::of(*First.Prog) == Fingerprint::of(*Second.Prog))
      << Printed;
  EXPECT_TRUE(validate(*Second.Prog).empty());
}

TEST(PrinterTest, PreservesDeclaredTypes) {
  ParseResult First = parseProgram(R"(
class T {}
method m() {
  var x : T
  x = new T
}
)");
  ASSERT_TRUE(First.ok());
  ParseResult Second = parseProgram(programToString(*First.Prog));
  ASSERT_TRUE(Second.ok()) << Second.Error;
  const Program &P = *Second.Prog;
  TypeId T = P.findClass(P.names().lookup("T"));
  bool Found = false;
  for (const Variable &V : P.variables())
    if (P.names().text(V.Name) == "x") {
      EXPECT_EQ(V.DeclaredType, T);
      Found = true;
    }
  EXPECT_TRUE(Found);
}

//===----------------------------------------------------------------------===//
// Parser oracles: structure by name, pinned ids, mutated inputs
//===----------------------------------------------------------------------===//

namespace {

std::string typeName(const Program &P, TypeId T) {
  return T == kNone ? "-" : std::string(P.names().text(P.classOf(T).Name));
}

std::string varName(const Program &P, VarId V) {
  if (V == kNone)
    return "-";
  const Variable &Var = P.variable(V);
  return (Var.IsGlobal ? "G." : "") + std::string(P.names().text(Var.Name));
}

/// One statement with every operand by name.
std::string describeStatement(const Program &P, const Statement &S) {
  std::string Out = std::to_string(int(S.Kind)) + (S.IsVirtual ? "v" : "");
  auto Add = [&](std::string_view Part) {
    Out += ' ';
    Out += Part;
  };
  Add(varName(P, S.Dst));
  Add(varName(P, S.Src));
  Add(varName(P, S.Base));
  Add(S.FieldLabel == kNone ? "-"
                            : P.names().text(P.fields()[S.FieldLabel].Name));
  Add(typeName(P, S.Type));
  if (S.Alloc != kNone) {
    const AllocSite &A = P.alloc(S.Alloc);
    Add("alloc " + typeName(P, A.Type) + " @" +
        std::string(P.names().text(A.Label)) + (A.IsNull ? " null" : ""));
  }
  if (S.Call != kNone)
    Add("site @" + std::to_string(P.callSite(S.Call).Label));
  if (S.Cast != kNone)
    Add("cast " + typeName(P, P.castSite(S.Cast).Target) + " " +
        varName(P, P.castSite(S.Cast).Source));
  if (S.Callee != kNone)
    Add("callee " + P.describeMethod(S.Callee));
  Add(P.names().text(S.VirtualName));
  for (VarId Arg : S.Args)
    Add(varName(P, Arg));
  return Out;
}

/// The program by name, independent of every id: classes with supers,
/// fields, globals, methods with typed params and statements in order,
/// and the typed locals of each method (as a set: their ids differ).
std::vector<std::string> describeByName(const Program &P) {
  std::vector<std::string> Out;
  for (const ClassType &C : P.classes())
    Out.push_back("class " + typeName(P, C.Id) + " : " +
                  typeName(P, C.Super));
  for (const Field &F : P.fields())
    Out.push_back("field " + std::string(P.names().text(F.Name)));
  std::vector<std::string> Locals;
  for (const Variable &V : P.variables()) {
    std::string Entry = varName(P, V.Id) + " : " + typeName(P, V.DeclaredType);
    if (V.IsGlobal)
      Out.push_back("global " + Entry);
    else
      Locals.push_back(P.describeMethod(V.Owner) + " " + Entry);
  }
  for (const Method &M : P.methods()) {
    std::string Sig = "method " + P.describeMethod(M.Id) + "(";
    for (VarId V : M.Params)
      Sig += varName(P, V) + " : " +
             typeName(P, P.variable(V).DeclaredType) + ", ";
    Out.push_back(Sig + ")");
    for (const Statement &S : M.Stmts)
      Out.push_back("  " + describeStatement(P, S));
  }
  std::sort(Locals.begin(), Locals.end());
  Out.insert(Out.end(), Locals.begin(), Locals.end());
  return Out;
}

std::unique_ptr<Program> generate(const char *Spec, double Scale,
                                  uint64_t Seed) {
  workload::GenOptions Opts;
  Opts.Scale = Scale;
  Opts.Seed = Seed;
  return workload::generateProgram(workload::specByName(Spec), Opts);
}

std::unique_ptr<Program> parseOrDie(std::string_view Text) {
  ParseResult R = parseProgram(Text);
  EXPECT_TRUE(R.ok()) << R.Error;
  return std::move(R.Prog);
}

// The fingerprints pin every id the parser assigns, Symbol ids included.
// Saved summary snapshots are rejected when the fingerprint of the
// program they were made for changes, so a change to intern or id order
// must fail here rather than strand snapshots on disk.

/// Every TestPrograms.h source, with the programFingerprint of its parse.
std::vector<std::pair<const char *, uint64_t>> testSources() {
  using namespace dynsum::testing;
  return {
      {kFigure2Source, 0xfc589ebeb3fa98d4ull},
      {kStraightLineSource, 0x48f2b35480f8ccb6ull},
      {kLocalFieldSource, 0xb694437e917863feull},
      {kIdentitySource, 0x3871105e794c317full},
      {kGlobalSource, 0x0327266e2bf9b8d1ull},
      {kRecursionSource, 0x2840c3ddf3927a39ull},
      {kListSource, 0x86ffc2a065dfb9ecull},
      {kVirtualSource, 0xdd7926be0c28df08ull},
  };
}

/// The generated programs the oracles cover.
struct GeneratedCase {
  const char *Spec;
  double Scale;
  uint64_t Seed;
  uint64_t Fingerprint; // programFingerprint of parsing its printed text
};

const GeneratedCase kGenerated[] = {
    {"soot-c", 0.02, 0, 0xcec89e28fcf96fadull},
    {"soot-c", 0.02, 1, 0x7e7e50c92e2dbe05ull},
    {"soot-c", 0.1, 0, 0x25555084636adf78ull},
    {"soot-c", 0.1, 1, 0xb7b8283eb32c96dcull},
    {"jython", 0.02, 0, 0xa66a7e6616503140ull},
    {"jython", 0.02, 1, 0x742c867e1f1005c5ull},
    {"jython", 0.1, 0, 0x5be3501067d51622ull},
    {"jython", 0.1, 1, 0x4ec3be70681b389bull},
};

} // namespace

TEST(ParserOracleTest, GeneratedProgramsRoundTripByName) {
  for (const GeneratedCase &C : kGenerated) {
    SCOPED_TRACE(std::string(C.Spec) + " scale " + std::to_string(C.Scale) +
                 " seed " + std::to_string(C.Seed));
    std::unique_ptr<Program> Generated = generate(C.Spec, C.Scale, C.Seed);
    std::unique_ptr<Program> Parsed = parseOrDie(programToString(*Generated));
    ASSERT_TRUE(Parsed);
    EXPECT_EQ(describeByName(*Parsed), describeByName(*Generated));
  }
}

TEST(ParserOracleTest, TestProgramsRoundTripByName) {
  for (const auto &Case : testSources()) {
    const char *Src = Case.first;
    std::unique_ptr<Program> First = parseOrDie(Src);
    ASSERT_TRUE(First);
    std::unique_ptr<Program> Second = parseOrDie(programToString(*First));
    ASSERT_TRUE(Second);
    EXPECT_EQ(describeByName(*Second), describeByName(*First)) << Src;
  }
}

TEST(ParserOracleTest, FingerprintsArePinned) {
  for (const GeneratedCase &C : kGenerated) {
    std::unique_ptr<Program> Parsed =
        parseOrDie(programToString(*generate(C.Spec, C.Scale, C.Seed)));
    ASSERT_TRUE(Parsed);
    EXPECT_EQ(analysis::programFingerprint(*Parsed), C.Fingerprint)
        << C.Spec << " scale " << C.Scale << " seed " << C.Seed;
  }
  for (const auto &[Src, Pinned] : testSources())
    EXPECT_EQ(analysis::programFingerprint(*parseOrDie(Src)), Pinned) << Src;

  // The program the golden DSUM corpus was saved against.
  std::ifstream In(std::string(DYNSUM_TESTS_DIR) +
                   "/golden/dsum_corpus/figure2.ir");
  ASSERT_TRUE(In.good());
  std::stringstream Text;
  Text << In.rdbuf();
  EXPECT_EQ(analysis::programFingerprint(*parseOrDie(Text.str())),
            0xfc589ebeb3fa98d4ull);
}

TEST(ParserOracleTest, MutatedProgramsFailWithALineOrValidate) {
  std::vector<std::string> Texts;
  for (const auto &Case : testSources())
    Texts.push_back(programToString(*parseOrDie(Case.first)));
  Texts.push_back(programToString(*generate("soot-c", 0.02, 0)));

  Rng R(0x5eed);
  const std::string_view Punct = "{}()=.,:@#";
  size_t Parsed = 0, Rejected = 0;
  for (const std::string &Text : Texts) {
    for (int K = 0; K < 150; ++K) {
      std::string Mutant = Text;
      for (int Edits = 1 + R.nextBelow(3); Edits > 0 && !Mutant.empty();
           --Edits) {
        size_t At = R.nextBelow(Mutant.size());
        switch (R.nextBelow(4)) {
        case 0:
          Mutant.erase(At, 1 + R.nextBelow(8));
          break;
        case 1:
          Mutant.insert(At, Mutant.substr(At, 1 + R.nextBelow(16)));
          break;
        case 2:
          Mutant[At] = Punct[R.nextBelow(Punct.size())];
          break;
        default:
          Mutant.resize(At);
          break;
        }
      }
      size_t Lines = std::count(Mutant.begin(), Mutant.end(), '\n') + 1;
      ParseResult Result;
      {
        // Parse from a copy that dies first: no view into the text may
        // outlive the parse (the sanitizer job checks the reads below).
        std::string Copy = Mutant;
        Result = parseProgram(Copy);
      }
      if (Result.ok()) {
        ++Parsed;
        validate(*Result.Prog);
        programToString(*Result.Prog);
        continue;
      }
      ++Rejected;
      unsigned Line = 0;
      ASSERT_EQ(std::sscanf(Result.Error.c_str(), "line %u:", &Line), 1)
          << Result.Error;
      EXPECT_GE(Line, 1u);
      EXPECT_LE(Line, Lines) << Result.Error;
    }
  }
  // Both outcomes must occur, or the mutations test nothing.
  EXPECT_GT(Parsed, 0u);
  EXPECT_GT(Rejected, 0u);
}

//===----------------------------------------------------------------------===//
// Validator
//===----------------------------------------------------------------------===//

TEST(ValidatorTest, AcceptsAllTestPrograms) {
  for (const char *Src :
       {dynsum::testing::kFigure2Source, dynsum::testing::kStraightLineSource,
        dynsum::testing::kLocalFieldSource, dynsum::testing::kIdentitySource,
        dynsum::testing::kGlobalSource, dynsum::testing::kRecursionSource,
        dynsum::testing::kListSource, dynsum::testing::kVirtualSource}) {
    ParseResult R = parseProgram(Src);
    ASSERT_TRUE(R.ok()) << R.Error;
    EXPECT_TRUE(validate(*R.Prog).empty()) << Src;
  }
}

TEST(ValidatorTest, FlagsArgCountMismatch) {
  ProgramBuilder B;
  B.method("callee", {{"a", ""}, {"b", ""}});
  MethodId M = B.method("m");
  // Bypass the builder's niceties and write a bad call directly.
  Statement S;
  S.Kind = StmtKind::Call;
  S.Callee = 0;
  S.Call = B.program().createCallSite(M, kNone);
  S.Args.push_back(B.var(M, "x"));
  B.program().addStatement(M, std::move(S));
  std::vector<std::string> Problems = validate(B.program());
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(Problems[0].find("passes 1 args, expects 2"), std::string::npos);
}

TEST(ValidatorTest, FlagsCrossMethodLocalUse) {
  ProgramBuilder B;
  MethodId M1 = B.method("m1");
  MethodId M2 = B.method("m2");
  VarId Foreign = B.var(M1, "x");
  Statement S;
  S.Kind = StmtKind::Assign;
  S.Dst = B.var(M2, "y");
  S.Src = Foreign;
  B.program().addStatement(M2, std::move(S));
  std::vector<std::string> Problems = validate(B.program());
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(Problems[0].find("belongs to another method"), std::string::npos);
}

TEST(ValidatorTest, FlagsVirtualCallWithoutTargets) {
  ProgramBuilder B;
  B.cls("Lonely");
  MethodId M = B.method("m");
  B.declareLocal(M, "recv", "Lonely");
  B.vcall(M, "r", "recv", "nothingHere", {});
  std::vector<std::string> Problems = validate(B.program());
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(Problems[0].find("no CHA target"), std::string::npos);
}
