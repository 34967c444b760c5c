//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the edit → commit → re-query loop through AnalysisService,
/// the one commit pipeline: edits take effect at the commit, untouched
/// summaries survive in the store, and warm (incremental) answers always
/// equal cold (from-scratch) answers — including the boundary-flag-flip
/// case that naive per-method invalidation would get wrong.  Every batch
/// is a fresh DYNSUM that trusts only the store, so a stale summary
/// left behind by a commit shows up as a wrong answer.
///
//===----------------------------------------------------------------------===//

#include "service/AnalysisService.h"

#include "ir/Parser.h"
#include "ir/Validator.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace dynsum;
using analysis::AnalysisOptions;
using analysis::QueryResult;
using engine::QueryOutcome;
using incremental::CommitOutcome;
using incremental::CommitStats;
using service::AnalysisService;
using service::ServiceBatchResult;

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

bool contains(const QueryOutcome &O, ir::AllocId A) {
  return std::find(O.AllocSites.begin(), O.AllocSites.end(), A) !=
         O.AllocSites.end();
}

/// Appends "\p Dst = new A @\p Label" to \p M.
void addAlloc(ir::Program &P, ir::MethodId M, ir::VarId Dst,
              std::string_view Label) {
  ir::Statement New;
  New.Kind = ir::StmtKind::Alloc;
  New.Dst = Dst;
  New.Type = P.findClass(P.names().lookup("A"));
  New.Alloc = P.createAllocSite(New.Type, M, P.name(std::string(Label)));
  P.addStatement(M, std::move(New));
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

TEST(IncrementalCommitTest, AddedAllocationVisibleAfterCommit) {
  auto P = parse(kTwoMethodSource);
  ir::MethodId Main = P->findFreeMethod(P->names().lookup("main"));
  ir::VarId Other = varOf(*P, "main", "other");

  AnalysisService S(std::move(P));
  EXPECT_EQ(S.queryVar(Other).AllocSites.size(), 1u);

  S.editProgram([&](ir::Program &Q) {
    addAlloc(Q, Main, Other, "onew"); // other = new A @onew
    return std::vector<ir::MethodId>{};
  });
  S.submitCommit().wait();

  QueryOutcome R1 = S.queryVar(Other);
  EXPECT_EQ(R1.AllocSites.size(), 2u);
  EXPECT_TRUE(contains(R1, allocOf(S.program(), "onew")));
}

TEST(IncrementalCommitTest, RemovedStoreShrinksPointsTo) {
  auto P = parse(kTwoMethodSource);
  ir::MethodId Main = P->findFreeMethod(P->names().lookup("main"));
  ir::VarId R = varOf(*P, "main", "r");

  AnalysisService S(std::move(P));
  EXPECT_EQ(S.queryVar(R).AllocSites.size(), 1u);

  size_t Removed = S.removeStatements(Main, [](const ir::Statement &St) {
    return St.Kind == ir::StmtKind::Store;
  });
  EXPECT_EQ(Removed, 1u);
  S.submitCommit().wait();
  EXPECT_TRUE(S.queryVar(R).AllocSites.empty())
      << "without the store, helper finds nothing in box.f";
}

TEST(IncrementalCommitTest, UntouchedMethodSummariesSurvive) {
  auto P = parse(kTwoMethodSource);
  ir::MethodId Main = P->findFreeMethod(P->names().lookup("main"));
  ir::VarId R = varOf(*P, "main", "r");
  ir::VarId Other = varOf(*P, "main", "other");

  AnalysisService S(std::move(P));
  S.queryVar(R); // warm the store through helper()
  size_t Warm = S.stats().StoreSize;
  ASSERT_GT(Warm, 0u);

  // Edit main only; helper's summaries must survive.
  S.editProgram([&](ir::Program &Q) {
    addAlloc(Q, Main, Other, "onew");
    return std::vector<ir::MethodId>{};
  });
  CommitStats Stats = S.submitCommit().wait();

  EXPECT_LT(Stats.SummariesDropped, Warm)
      << "per-method invalidation must not clear everything";
  // Only the edited method's segment is re-lowered.
  EXPECT_EQ(Stats.MethodsRelowered, 1u);
}

/// The node ids themselves are pinned at the buildPAGDelta level
/// (pag_test RebuildTest.AddingAVariableKeepsNodeIdsStable); here the
/// warm store keeps answering over the patched graph, and the new
/// variable answers too.
TEST(IncrementalCommitTest, AddingAVariableKeepsAnswersStable) {
  auto P = parse(kTwoMethodSource);
  ir::MethodId Main = P->findFreeMethod(P->names().lookup("main"));
  ir::VarId R = varOf(*P, "main", "r");

  AnalysisService S(std::move(P));
  QueryOutcome Before = S.queryVar(R);
  ASSERT_GT(S.stats().StoreSize, 0u);

  // A new local + alloc: both append fresh node ids at the end.
  ir::VarId Fresh = ir::kNone;
  S.editProgram([&](ir::Program &Q) {
    Fresh = Q.createLocal(Q.name("fresh"), Main, ir::kObjectType);
    addAlloc(Q, Main, Fresh, "ofresh");
    return std::vector<ir::MethodId>{};
  });
  CommitStats Stats = S.submitCommit().wait();
  EXPECT_EQ(Stats.MethodsRelowered, 1u);

  QueryOutcome After = S.queryVar(R);
  EXPECT_EQ(Before.AllocSites, After.AllocSites);
  QueryOutcome FreshR = S.queryVar(Fresh);
  ASSERT_EQ(FreshR.AllocSites.size(), 1u);
  EXPECT_TRUE(contains(FreshR, allocOf(S.program(), "ofresh")));
}

/// The boundary-flag regression: helper() starts out *uncalled*; its
/// formal has no incoming entry edge, so the summary for t records no
/// boundary tuple.  Adding the first call must invalidate helper's
/// summaries in the store even though helper itself was never edited.
TEST(IncrementalCommitTest, FirstCallToAMethodInvalidatesItsSummaries) {
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
  ir::MethodId Main = P->findFreeMethod(P->names().lookup("main"));
  ir::MethodId Helper = P->findFreeMethod(P->names().lookup("helper"));
  ir::VarId T = varOf(*P, "helper", "t");
  ir::VarId Box = varOf(*P, "main", "box");

  AnalysisService S(std::move(P));
  // Query t while helper has no callers: nothing can flow into b.
  EXPECT_TRUE(S.queryVar(T).AllocSites.empty());
  ASSERT_GT(S.stats().StoreSize, 0u);
  uint64_t GenBefore = S.generation();

  // Add "r = call helper(box)" to main.
  ir::VarId R = ir::kNone;
  S.editProgram([&](ir::Program &Q) {
    R = Q.createLocal(Q.name("r"), Main, ir::kObjectType);
    ir::Statement Call;
    Call.Kind = ir::StmtKind::Call;
    Call.Dst = R;
    Call.Callee = Helper;
    Call.Call = Q.createCallSite(Main, 99);
    Call.Args.push_back(Box);
    Q.addStatement(Main, std::move(Call));
    return std::vector<ir::MethodId>{};
  });
  CommitStats Stats = S.submitCommit().wait();
  EXPECT_EQ(Stats.Outcome, CommitOutcome::Committed);
  EXPECT_GT(Stats.SummariesDropped, 0u);
  EXPECT_GT(S.generation(), GenBefore);

  // The next batch must see oa flowing through the new call; a stale
  // summary (no boundary tuple at b) fetched from the store would keep
  // it empty.
  QueryOutcome RT = S.queryVar(T);
  EXPECT_EQ(RT.AllocSites.size(), 1u);
  EXPECT_TRUE(contains(RT, allocOf(S.program(), "oa")));
  EXPECT_TRUE(contains(S.queryVar(R), allocOf(S.program(), "oa")));
}

/// Removing the only call is the mirror image: flows must disappear and
/// the callee's summaries must be refreshed.
TEST(IncrementalCommitTest, RemovingTheOnlyCallSeversFlows) {
  auto P = parse(kTwoMethodSource);
  ir::MethodId Main = P->findFreeMethod(P->names().lookup("main"));
  ir::VarId T = varOf(*P, "helper", "t");

  AnalysisService S(std::move(P));
  EXPECT_EQ(S.queryVar(T).AllocSites.size(), 1u);

  size_t Removed = S.removeStatements(Main, [](const ir::Statement &St) {
    return St.Kind == ir::StmtKind::Call;
  });
  ASSERT_EQ(Removed, 1u);
  S.submitCommit().wait();
  EXPECT_TRUE(S.queryVar(T).AllocSites.empty());
}

TEST(IncrementalCommitTest, CommitIsIdempotentWhenClean) {
  AnalysisService S(parse(kTwoMethodSource));
  CommitStats Stats = S.submitCommit().wait();
  EXPECT_EQ(Stats.Outcome, CommitOutcome::NoOp);
  EXPECT_EQ(Stats.SummariesBefore, 0u);
  EXPECT_EQ(Stats.SummariesDropped, 0u);
  EXPECT_FALSE(S.dirty());
  EXPECT_EQ(S.generation(), 0u);
}

TEST(IncrementalCommitTest, ValidatorStaysGreenAcrossEdits) {
  auto P = parse(kTwoMethodSource);
  ir::MethodId Main = P->findFreeMethod(P->names().lookup("main"));
  ir::VarId Other = varOf(*P, "main", "other");
  AnalysisService S(std::move(P));

  S.editProgram([&](ir::Program &Q) {
    ir::Statement New;
    New.Kind = ir::StmtKind::Null;
    New.Dst = Other;
    New.Alloc = Q.createNullAlloc(Main);
    Q.addStatement(Main, std::move(New));
    return std::vector<ir::MethodId>{};
  });
  EXPECT_EQ(S.submitCommit().wait().Outcome, CommitOutcome::Committed);

  EXPECT_TRUE(ir::validate(S.program()).empty());
}

//===----------------------------------------------------------------------===//
// Warm == cold property over generated programs
//===----------------------------------------------------------------------===//

/// Runs a random edit/query script through an AnalysisService and checks
/// every warm answer against a cold DYNSUM built from scratch on an
/// identical program.  The service keeps the default engine setting, so
/// its batches shard over worker threads.
class WarmColdTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WarmColdTest, WarmAnswersEqualColdAnswers) {
  workload::GenOptions Gen;
  Gen.Scale = 1.0 / 256;
  Gen.Seed = GetParam();
  const workload::BenchmarkSpec &Spec = workload::paperSuite()[0]; // jack
  auto P = generateProgram(Spec, Gen);
  ASSERT_TRUE(ir::validate(*P).empty());

  AnalysisService S(std::move(P));

  // Deterministic query set: a stride over the local variables, kept
  // sparse so the test stays fast.
  std::vector<ir::VarId> Queries;
  for (const ir::Variable &V : S.program().variables())
    if (!V.IsGlobal && V.Id % 97 == 0)
      Queries.push_back(V.Id);
  ASSERT_GT(Queries.size(), 4u);

  // Warm the store.
  S.queryVars(Queries);

  // Scripted edits: add an allocation and an assignment chain to a few
  // methods spread over the program.
  S.editProgram([](ir::Program &Q) {
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
      Q.addStatement(M, std::move(New));
      if (!Q.method(M).Stmts.empty()) {
        const ir::Statement &First = Q.method(M).Stmts.front();
        if (First.Kind == ir::StmtKind::Alloc) {
          ir::Statement Copy;
          Copy.Kind = ir::StmtKind::Assign;
          Copy.Src = Fresh;
          Copy.Dst = First.Dst;
          Q.addStatement(M, std::move(Copy));
        }
      }
    }
    return std::vector<ir::MethodId>{};
  });
  ASSERT_EQ(S.submitCommit().wait().Outcome, CommitOutcome::Committed);

  // Cold reference: fresh PAG + fresh DYNSUM over the same program.
  pag::BuiltPAG Cold = pag::buildPAG(S.program());
  analysis::DynSumAnalysis ColdDynSum(*Cold.Graph, AnalysisOptions());

  ServiceBatchResult Warm = S.queryVars(Queries);
  ASSERT_EQ(Warm.Outcomes.size(), Queries.size());
  for (size_t I = 0; I < Queries.size(); ++I) {
    QueryResult ColdR = ColdDynSum.query(Cold.Graph->nodeOfVar(Queries[I]));
    EXPECT_EQ(Warm.Outcomes[I].AllocSites, ColdR.allocSites())
        << "stale summary for variable "
        << S.program().describeVar(Queries[I]);
    EXPECT_EQ(Warm.Outcomes[I].BudgetExceeded, ColdR.BudgetExceeded);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WarmColdTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

} // namespace
