//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the incremental EditSession: edits take effect, untouched
/// summaries survive, and warm (incremental) answers always equal cold
/// (from-scratch) answers — including the boundary-flag-flip case that
/// naive per-method invalidation would get wrong.
///
//===----------------------------------------------------------------------===//

#include "incremental/EditSession.h"

#include "ir/Parser.h"
#include "ir/Validator.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

using namespace dynsum;
using namespace dynsum::incremental;
using analysis::AnalysisOptions;
using analysis::QueryResult;

namespace {

std::unique_ptr<ir::Program> parse(const char *Source) {
  ir::ParseResult R = ir::parseProgram(Source);
  EXPECT_TRUE(R.ok()) << R.Error;
  return std::move(R.Prog);
}

ir::VarId varOf(const ir::Program &P, std::string_view Method,
                std::string_view Name) {
  ir::MethodId M = P.findFreeMethod(P.names().lookup(Method));
  EXPECT_NE(M, ir::kNone) << "no free method " << Method;
  Symbol N = P.names().lookup(Name);
  for (const ir::Variable &V : P.variables())
    if (!V.IsGlobal && V.Owner == M && V.Name == N)
      return V.Id;
  ADD_FAILURE() << "no variable " << Name << " in " << Method;
  return ir::kNone;
}

ir::AllocId allocOf(const ir::Program &P, std::string_view Label) {
  Symbol L = P.names().lookup(Label);
  for (const ir::AllocSite &A : P.allocs())
    if (A.Label == L)
      return A.Id;
  ADD_FAILURE() << "no alloc " << Label;
  return ir::kNone;
}

const char *kTwoMethodSource = R"(
class A {}
class Box { fields f }
method helper(b) {
  t = b.f
  return t
}
method main() {
  box = new Box @obox
  a = new A @oa
  box.f = a
  r = call helper(box)
  other = new A @oother
}
)";

TEST(EditSessionTest, AddedAllocationVisibleAfterCommit) {
  auto P = parse(kTwoMethodSource);
  ir::Program &Prog = *P;
  ir::MethodId Main = Prog.findFreeMethod(Prog.names().lookup("main"));
  ir::VarId Other = varOf(Prog, "main", "other");

  EditSession S(std::move(P), AnalysisOptions());
  QueryResult R0 = S.queryVar(Other);
  EXPECT_EQ(R0.Targets.size(), 1u);

  // other = new A @onew
  ir::Statement New;
  New.Kind = ir::StmtKind::Alloc;
  New.Dst = Other;
  New.Type = S.program().findClass(S.program().names().lookup("A"));
  New.Alloc = S.program().createAllocSite(New.Type, Main,
                                          S.program().name("onew"));
  S.addStatement(Main, std::move(New));

  QueryResult R1 = S.queryVar(Other);
  EXPECT_EQ(R1.Targets.size(), 2u);
  EXPECT_TRUE(R1.contains(allocOf(S.program(), "onew")));
}

TEST(EditSessionTest, RemovedStoreShrinksPointsTo) {
  auto P = parse(kTwoMethodSource);
  ir::Program &Prog = *P;
  ir::MethodId Main = Prog.findFreeMethod(Prog.names().lookup("main"));
  ir::VarId R = varOf(Prog, "main", "r");

  EditSession S(std::move(P), AnalysisOptions());
  EXPECT_EQ(S.queryVar(R).Targets.size(), 1u);

  size_t Removed = S.removeStatements(Main, [](const ir::Statement &St) {
    return St.Kind == ir::StmtKind::Store;
  });
  EXPECT_EQ(Removed, 1u);
  EXPECT_TRUE(S.queryVar(R).Targets.empty())
      << "without the store, helper finds nothing in box.f";
}

TEST(EditSessionTest, UntouchedMethodSummariesSurvive) {
  auto P = parse(kTwoMethodSource);
  ir::Program &Prog = *P;
  ir::MethodId Main = Prog.findFreeMethod(Prog.names().lookup("main"));
  ir::VarId R = varOf(Prog, "main", "r");

  EditSession S(std::move(P), AnalysisOptions());
  S.queryVar(R); // warm the cache through helper()
  size_t Warm = S.analysis().cacheSize();
  ASSERT_GT(Warm, 0u);

  // Edit main only; helper's summaries must survive.
  ir::Statement New;
  New.Kind = ir::StmtKind::Alloc;
  New.Dst = varOf(S.program(), "main", "other");
  New.Type = S.program().findClass(S.program().names().lookup("A"));
  New.Alloc =
      S.program().createAllocSite(New.Type, Main, S.program().name("onew"));
  S.addStatement(Main, std::move(New));
  CommitStats Stats = S.commit();

  EXPECT_LT(Stats.SummariesDropped, Warm)
      << "per-method invalidation must not clear everything";
  // Only the edited method's segment is re-lowered.
  EXPECT_EQ(Stats.MethodsRelowered, 1u);
}

TEST(EditSessionTest, AddingAVariableKeepsNodeIdsStable) {
  auto P = parse(kTwoMethodSource);
  ir::MethodId Main = P->findFreeMethod(P->names().lookup("main"));
  ir::VarId R = varOf(*P, "main", "r");

  EditSession S(std::move(P), AnalysisOptions());
  QueryResult Before = S.queryVar(R);
  ASSERT_GT(S.analysis().cacheSize(), 0u);

  // Record every pre-edit node id; the delta build must not move any.
  std::vector<pag::NodeId> VarNodes, AllocNodes;
  for (const ir::Variable &V : S.program().variables())
    VarNodes.push_back(S.graph().nodeOfVar(V.Id));
  for (const ir::AllocSite &A : S.program().allocs())
    AllocNodes.push_back(S.graph().nodeOfAlloc(A.Id));

  // A new local + alloc: both append fresh node ids at the end.
  ir::Program &Q = S.program();
  ir::VarId Fresh = Q.createLocal(Q.name("fresh"), Main, ir::kObjectType);
  ir::Statement New;
  New.Kind = ir::StmtKind::Alloc;
  New.Dst = Fresh;
  New.Type = Q.findClass(Q.names().lookup("A"));
  New.Alloc = Q.createAllocSite(New.Type, Main, Q.name("ofresh"));
  S.addStatement(Main, std::move(New));
  CommitStats Stats = S.commit();
  EXPECT_EQ(Stats.MethodsRelowered, 1u);

  for (size_t I = 0; I < VarNodes.size(); ++I)
    EXPECT_EQ(S.graph().nodeOfVar(ir::VarId(I)), VarNodes[I])
        << "variable node id moved";
  for (size_t I = 0; I < AllocNodes.size(); ++I)
    EXPECT_EQ(S.graph().nodeOfAlloc(ir::AllocId(I)), AllocNodes[I])
        << "object node id moved";
  EXPECT_GE(S.graph().nodeOfVar(Fresh), VarNodes.size() + AllocNodes.size())
      << "new nodes append after every existing id";

  // Warm summaries keep answering correctly over the patched graph.
  QueryResult After = S.queryVar(R);
  EXPECT_EQ(Before.allocSites(), After.allocSites());
  QueryResult FreshR = S.queryVar(Fresh);
  ASSERT_EQ(FreshR.Targets.size(), 1u);
  EXPECT_TRUE(FreshR.contains(allocOf(S.program(), "ofresh")));
}

/// The boundary-flag regression: helper() starts out *uncalled*; its
/// formal has no incoming entry edge, so the summary for t records no
/// boundary tuple.  Adding the first call must invalidate helper's
/// summaries even though helper itself was never edited.
TEST(EditSessionTest, FirstCallToAMethodInvalidatesItsSummaries) {
  auto P = parse(R"(
    class A {}
    class Box { fields f }
    method helper(b) {
      t = b.f
      return t
    }
    method main() {
      box = new Box @obox
      a = new A @oa
      box.f = a
    }
  )");
  ir::Program &Prog = *P;
  ir::MethodId Main = Prog.findFreeMethod(Prog.names().lookup("main"));
  ir::MethodId Helper = Prog.findFreeMethod(Prog.names().lookup("helper"));
  ir::VarId T = varOf(Prog, "helper", "t");
  ir::VarId Box = varOf(Prog, "main", "box");

  EditSession S(std::move(P), AnalysisOptions());
  // Query t while helper has no callers: nothing can flow into b.
  EXPECT_TRUE(S.queryVar(T).Targets.empty());

  // Add "r = call helper(box)" to main.
  ir::Program &Q = S.program();
  ir::VarId R = Q.createLocal(Q.name("r"), Main, ir::kObjectType);
  ir::Statement Call;
  Call.Kind = ir::StmtKind::Call;
  Call.Dst = R;
  Call.Callee = Helper;
  Call.Call = Q.createCallSite(Main, 99);
  Call.Args.push_back(Box);
  S.addStatement(Main, std::move(Call));

  // The warm query must now see oa flowing through the new call; a
  // stale summary (no boundary tuple at b) would keep it empty.
  QueryResult RT = S.queryVar(T);
  EXPECT_EQ(RT.Targets.size(), 1u);
  EXPECT_TRUE(RT.contains(allocOf(S.program(), "oa")));
  QueryResult RR = S.queryVar(R);
  EXPECT_TRUE(RR.contains(allocOf(S.program(), "oa")));
}

/// Removing the only call is the mirror image: flows must disappear and
/// the callee's summaries must be refreshed.
TEST(EditSessionTest, RemovingTheOnlyCallSeversFlows) {
  auto P = parse(kTwoMethodSource);
  ir::Program &Prog = *P;
  ir::MethodId Main = Prog.findFreeMethod(Prog.names().lookup("main"));
  ir::VarId T = varOf(Prog, "helper", "t");

  EditSession S(std::move(P), AnalysisOptions());
  EXPECT_EQ(S.queryVar(T).Targets.size(), 1u);

  size_t Removed = S.removeStatements(Main, [](const ir::Statement &St) {
    return St.Kind == ir::StmtKind::Call;
  });
  ASSERT_EQ(Removed, 1u);
  EXPECT_TRUE(S.queryVar(T).Targets.empty());
}

TEST(EditSessionTest, CommitIsIdempotentWhenClean) {
  auto P = parse(kTwoMethodSource);
  EditSession S(std::move(P), AnalysisOptions());
  CommitStats Stats = S.commit();
  EXPECT_EQ(Stats.SummariesBefore, 0u);
  EXPECT_EQ(Stats.SummariesDropped, 0u);
  EXPECT_FALSE(S.dirty());
}

TEST(EditSessionTest, ValidatorStaysGreenAcrossEdits) {
  auto P = parse(kTwoMethodSource);
  ir::MethodId Main = P->findFreeMethod(P->names().lookup("main"));
  EditSession S(std::move(P), AnalysisOptions());

  ir::Statement New;
  New.Kind = ir::StmtKind::Null;
  New.Dst = varOf(S.program(), "main", "other");
  New.Alloc = S.program().createNullAlloc(Main);
  S.addStatement(Main, std::move(New));
  S.commit();

  EXPECT_TRUE(ir::validate(S.program()).empty());
}

//===----------------------------------------------------------------------===//
// Warm == cold property over generated programs
//===----------------------------------------------------------------------===//

/// Runs a random edit/query script through an EditSession and checks
/// every warm answer against a cold DYNSUM built from scratch on an
/// identical program.
class WarmColdTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WarmColdTest, WarmAnswersEqualColdAnswers) {
  workload::GenOptions Gen;
  Gen.Scale = 1.0 / 256;
  Gen.Seed = GetParam();
  const workload::BenchmarkSpec &Spec = workload::paperSuite()[0]; // jack
  auto P = generateProgram(Spec, Gen);
  ASSERT_TRUE(ir::validate(*P).empty());

  AnalysisOptions Opts;
  EditSession S(std::move(P), AnalysisOptions());

  // Deterministic query set: every variable with at least one new edge
  // plus some load destinations, strided down to keep the test fast.
  std::vector<ir::VarId> Queries;
  for (const ir::Variable &V : S.program().variables())
    if (!V.IsGlobal && V.Id % 97 == 0)
      Queries.push_back(V.Id);
  ASSERT_GT(Queries.size(), 4u);

  // Warm the cache.
  for (ir::VarId V : Queries)
    S.queryVar(V);

  // Scripted edits: add an allocation and an assignment chain to a few
  // methods spread over the program.
  ir::Program &Q = S.program();
  ir::TypeId SomeClass = Q.classes().back().Id;
  for (size_t I = 1; I < Q.methods().size(); I += 31) {
    ir::MethodId M = Q.methods()[I].Id;
    ir::VarId Fresh =
        Q.createLocal(Q.name("edit" + std::to_string(I)), M, SomeClass);
    ir::Statement New;
    New.Kind = ir::StmtKind::Alloc;
    New.Dst = Fresh;
    New.Type = SomeClass;
    New.Alloc = Q.createAllocSite(SomeClass, M, Symbol{});
    S.addStatement(M, std::move(New));
    if (!Q.method(M).Stmts.empty()) {
      const ir::Statement &First = Q.method(M).Stmts.front();
      if (First.Kind == ir::StmtKind::Alloc) {
        ir::Statement Copy;
        Copy.Kind = ir::StmtKind::Assign;
        Copy.Src = Fresh;
        Copy.Dst = First.Dst;
        S.addStatement(M, std::move(Copy));
      }
    }
  }

  // Cold reference: fresh PAG + fresh DYNSUM over the same program.
  pag::BuiltPAG Cold = pag::buildPAG(S.program());
  analysis::DynSumAnalysis ColdDynSum(*Cold.Graph, Opts);

  for (ir::VarId V : Queries) {
    QueryResult Warm = S.queryVar(V);
    QueryResult ColdR = ColdDynSum.query(Cold.Graph->nodeOfVar(V));
    EXPECT_EQ(Warm.allocSites(), ColdR.allocSites())
        << "stale summary for variable " << S.program().describeVar(V);
    EXPECT_EQ(Warm.BudgetExceeded, ColdR.BudgetExceeded);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WarmColdTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

} // namespace
