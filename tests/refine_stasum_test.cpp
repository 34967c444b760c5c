//===----------------------------------------------------------------------===//
///
/// \file
/// Focused tests for REFINEPTS's refinement machinery and the STASUM
/// static summary closure, plus parameterized budget sweeps.
///
//===----------------------------------------------------------------------===//

#include "analysis/DynSum.h"
#include "analysis/RefinePts.h"
#include "analysis/StaSum.h"
#include "ir/Parser.h"
#include "pag/PAGBuilder.h"
#include "workload/PaperExample.h"

#include <gtest/gtest.h>

using namespace dynsum;
using namespace dynsum::analysis;

namespace {

struct Built {
  explicit Built(const char *Src) {
    ir::ParseResult R = ir::parseProgram(Src);
    EXPECT_TRUE(R.ok()) << R.Error;
    Prog = std::move(R.Prog);
    Graph = pag::buildPAG(*Prog);
  }

  pag::NodeId node(const char *Var, const char *Method = nullptr) const {
    for (const ir::Variable &V : Prog->variables()) {
      if (V.IsGlobal ||
          Prog->names().text(V.Name) != std::string_view(Var))
        continue;
      if (Method && Prog->describeMethod(V.Owner) != Method)
        continue;
      return Graph.Graph->nodeOfVar(V.Id);
    }
    ADD_FAILURE() << "no variable " << Var;
    return 0;
  }

  std::unique_ptr<ir::Program> Prog;
  pag::BuiltPAG Graph;
};

/// Two containers over the same field: field-based analysis conflates
/// them, full refinement separates them.
const char *kTwoBoxes = R"(
class A {}
class B {}
class Box { fields f }
method put(b : Box, v) { b.f = v }
method get(b : Box) {
  r = b.f
  return r
}
method m() {
  x = new A @ox
  y = new B @oy
  b1 = new Box @ob1
  b2 = new Box @ob2
  call @1 put(b1, x)
  call @2 put(b2, y)
  g1 = call @3 get(b1)
  g2 = call @4 get(b2)
}
)";

} // namespace

//===----------------------------------------------------------------------===//
// REFINEPTS refinement machinery
//===----------------------------------------------------------------------===//

TEST(RefinePtsTest, FieldBasedPassConflatesRefinementSeparates) {
  Built B(kTwoBoxes);
  AnalysisOptions Opts;
  RefinePtsAnalysis A(*B.Graph.Graph, Opts, /*Refinement=*/true);

  // Field-based only (client satisfied immediately): both objects.
  QueryResult FieldBased =
      A.query(B.node("g1"), [](const QueryResult &) { return true; });
  EXPECT_EQ(A.lastIterations(), 1u);
  EXPECT_EQ(FieldBased.allocSites().size(), 2u);

  // Full refinement: precise.
  QueryResult Refined = A.query(B.node("g1"));
  EXPECT_GT(A.lastIterations(), 1u);
  EXPECT_EQ(Refined.allocSites().size(), 1u);
}

TEST(RefinePtsTest, NoRefineIsPreciseInOnePass) {
  Built B(kTwoBoxes);
  AnalysisOptions Opts;
  RefinePtsAnalysis A(*B.Graph.Graph, Opts, /*Refinement=*/false);
  QueryResult R = A.query(B.node("g1"));
  EXPECT_EQ(A.lastIterations(), 1u);
  EXPECT_EQ(R.allocSites().size(), 1u);
}

TEST(RefinePtsTest, IterationCapIsRespected) {
  Built B(kTwoBoxes);
  AnalysisOptions Opts;
  Opts.MaxRefineIterations = 1;
  RefinePtsAnalysis A(*B.Graph.Graph, Opts, /*Refinement=*/true);
  QueryResult R = A.query(B.node("g1")); // would need 2+ passes
  EXPECT_EQ(A.lastIterations(), 1u);
  // One field-based pass: conservative (conflated) but non-empty.
  EXPECT_GE(R.allocSites().size(), 1u);
}

TEST(RefinePtsTest, CacheHitsAreCounted) {
  Built B(kTwoBoxes);
  AnalysisOptions Opts;
  RefinePtsAnalysis A(*B.Graph.Graph, Opts, /*Refinement=*/true);
  (void)A.query(B.node("g1"));
  EXPECT_GT(A.lastIterations(), 1u);
}

TEST(RefinePtsTest, QueriesAreIndependent) {
  // fldsToRefine must reset between queries: the second query's first
  // pass is field-based again.
  Built B(kTwoBoxes);
  AnalysisOptions Opts;
  RefinePtsAnalysis A(*B.Graph.Graph, Opts, /*Refinement=*/true);
  (void)A.query(B.node("g1"));
  QueryResult FieldBased =
      A.query(B.node("g2"), [](const QueryResult &) { return true; });
  EXPECT_EQ(A.lastIterations(), 1u);
  EXPECT_EQ(FieldBased.allocSites().size(), 2u);
}

//===----------------------------------------------------------------------===//
// STASUM closure
//===----------------------------------------------------------------------===//

TEST(StaSumTest, CountsSummariesOnlyForLocalEdgeNodes) {
  Built B(kTwoBoxes);
  StaSumResult R = computeStaSum(*B.Graph.Graph);
  EXPECT_FALSE(R.Capped);
  EXPECT_GT(R.NumSummaries, 0u);
  EXPECT_GT(R.Steps, 0u);
}

TEST(StaSumTest, DeterministicAcrossRuns) {
  Built B(kTwoBoxes);
  StaSumResult A = computeStaSum(*B.Graph.Graph);
  StaSumResult C = computeStaSum(*B.Graph.Graph);
  EXPECT_EQ(A.NumSummaries, C.NumSummaries);
  EXPECT_EQ(A.Steps, C.Steps);
}

TEST(StaSumTest, SummaryCapTriggers) {
  Built B(dynsum::workload::figure2Source());
  StaSumOptions Opts;
  Opts.MaxSummaries = 1;
  StaSumResult R = computeStaSum(*B.Graph.Graph, Opts);
  EXPECT_TRUE(R.Capped);
  EXPECT_LE(R.NumSummaries, 2u);
}

TEST(StaSumTest, StepBudgetTriggers) {
  Built B(dynsum::workload::figure2Source());
  StaSumOptions Opts;
  Opts.StepBudget = 1;
  StaSumResult R = computeStaSum(*B.Graph.Graph, Opts);
  EXPECT_TRUE(R.Capped);
}

TEST(StaSumTest, DominatesDynSumOnFigure2) {
  Built B(dynsum::workload::figure2Source());
  StaSumResult Static = computeStaSum(*B.Graph.Graph);
  AnalysisOptions Opts;
  DynSumAnalysis Dyn(*B.Graph.Graph, Opts);
  (void)Dyn.query(B.node("s1", "Main.main"));
  (void)Dyn.query(B.node("s2", "Main.main"));
  EXPECT_LE(Dyn.cacheSize(), Static.NumSummaries);
}

//===----------------------------------------------------------------------===//
// Parameterized budget sweep (Figure 2)
//===----------------------------------------------------------------------===//

class BudgetSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BudgetSweepTest, AnswersAreExactOrFlaggedAtEveryBudget) {
  Built B(dynsum::workload::figure2Source());
  AnalysisOptions Opts;
  Opts.BudgetPerQuery = GetParam();
  DynSumAnalysis Dyn(*B.Graph.Graph, Opts);
  RefinePtsAnalysis Ref(*B.Graph.Graph, Opts, /*Refinement=*/true);
  RefinePtsAnalysis NoRef(*B.Graph.Graph, Opts, /*Refinement=*/false);
  for (DemandAnalysis *A : std::initializer_list<DemandAnalysis *>{
           &Dyn, &Ref, &NoRef}) {
    QueryResult R = A->query(B.node("s1", "Main.main"));
    if (R.BudgetExceeded)
      continue; // conservative abort is a legal outcome
    ASSERT_EQ(R.allocSites().size(), 1u) << A->name() << "@" << GetParam();
    EXPECT_EQ(B.Prog->names().text(
                  B.Prog->alloc(R.allocSites()[0]).Label),
              "o26")
        << A->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Budgets, BudgetSweepTest,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64, 128,
                                           256, 1024, 75000),
                         [](const ::testing::TestParamInfo<uint64_t> &I) {
                           return "b" + std::to_string(I.param);
                         });

//===----------------------------------------------------------------------===//
// Parameterized field-depth sweep
//===----------------------------------------------------------------------===//

class DepthSweepTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(DepthSweepTest, DeepChainsNeedDeepStacks) {
  // z = a.f.f.f.f (4 pending fields): resolvable iff the k-limit
  // admits stacks of depth >= 4.
  Built B(R"(
class A {}
class N { fields f }
method m() {
  v = new A @ov
  n1 = new N @o1
  n2 = new N @o2
  n3 = new N @o3
  n4 = new N @o4
  n4.f = v
  n3.f = n4
  n2.f = n3
  n1.f = n2
  t1 = n1.f
  t2 = t1.f
  t3 = t2.f
  z = t3.f
}
)");
  AnalysisOptions Opts;
  Opts.MaxFieldDepth = GetParam();
  DynSumAnalysis Dyn(*B.Graph.Graph, Opts);
  QueryResult R = Dyn.query(B.node("z"));
  if (GetParam() >= 4)
    EXPECT_EQ(R.allocSites().size(), 1u);
  else
    EXPECT_TRUE(R.allocSites().empty()); // pruned, no wrong answers
}

INSTANTIATE_TEST_SUITE_P(Depths, DepthSweepTest,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 64),
                         [](const ::testing::TestParamInfo<uint32_t> &I) {
                           return "d" + std::to_string(I.param);
                         });
