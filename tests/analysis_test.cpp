//===----------------------------------------------------------------------===//
///
/// \file
/// Integration tests of the four analyses on hand-written programs,
/// centered on the paper's Figure 2 motivating example.
///
//===----------------------------------------------------------------------===//

#include "analysis/Andersen.h"
#include "analysis/DynSum.h"
#include "analysis/RefinePts.h"
#include "analysis/StaSum.h"
#include "ir/Parser.h"
#include "pag/PAGBuilder.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

using namespace dynsum;
using namespace dynsum::analysis;

namespace {

/// Parses, validates, builds the PAG, and exposes lookup helpers.
class Fixture {
public:
  explicit Fixture(const char *Source) {
    ir::ParseResult R = ir::parseProgram(Source);
    EXPECT_TRUE(R.ok()) << R.Error;
    Prog = std::move(R.Prog);
    Built = pag::buildPAG(*Prog);
  }

  ir::Program &program() { return *Prog; }
  const pag::PAG &graph() const { return *Built.Graph; }

  /// PAG node of local \p VarName in method \p QualifiedMethod.
  pag::NodeId varNode(const std::string &QualifiedMethod,
                      const std::string &VarName) const {
    ir::MethodId M = findMethod(QualifiedMethod);
    EXPECT_NE(M, ir::kNone) << "no method " << QualifiedMethod;
    Symbol Name = Prog->names().lookup(VarName);
    for (const ir::Variable &V : Prog->variables())
      if (!V.IsGlobal && V.Owner == M && V.Name == Name)
        return Built.Graph->nodeOfVar(V.Id);
    ADD_FAILURE() << "no variable " << VarName << " in " << QualifiedMethod;
    return 0;
  }

  /// Allocation site labelled \p Label (e.g. "o26").
  ir::AllocId allocByLabel(const std::string &Label) const {
    Symbol L = Prog->names().lookup(Label);
    for (const ir::AllocSite &A : Prog->allocs())
      if (A.Label == L)
        return A.Id;
    ADD_FAILURE() << "no allocation labelled " << Label;
    return ir::kNone;
  }

  ir::MethodId findMethod(const std::string &Qualified) const {
    size_t Dot = Qualified.find('.');
    if (Dot == std::string::npos)
      return Prog->findFreeMethod(Prog->names().lookup(Qualified));
    ir::TypeId Owner =
        Prog->findClass(Prog->names().lookup(Qualified.substr(0, Dot)));
    if (Owner == ir::kNone)
      return ir::kNone;
    return Prog->findMethod(Owner,
                            Prog->names().lookup(Qualified.substr(Dot + 1)));
  }

private:
  std::unique_ptr<ir::Program> Prog;
  pag::BuiltPAG Built;
};

std::vector<ir::AllocId> sites(const QueryResult &R) {
  return R.allocSites();
}

//===----------------------------------------------------------------------===//
// Figure 2: the motivating example
//===----------------------------------------------------------------------===//

class Figure2Test : public ::testing::Test {
protected:
  Figure2Test() : F(dynsum::testing::kFigure2Source) {}
  Fixture F;
  AnalysisOptions Opts;
};

TEST_F(Figure2Test, DynSumResolvesS1AndS2Precisely) {
  DynSumAnalysis A(F.graph(), Opts);
  QueryResult S1 = A.query(F.varNode("Main.main", "s1"));
  QueryResult S2 = A.query(F.varNode("Main.main", "s2"));
  EXPECT_FALSE(S1.BudgetExceeded);
  EXPECT_FALSE(S2.BudgetExceeded);
  EXPECT_EQ(sites(S1), std::vector<ir::AllocId>{F.allocByLabel("o26")});
  EXPECT_EQ(sites(S2), std::vector<ir::AllocId>{F.allocByLabel("o29")});
}

TEST_F(Figure2Test, NoRefineMatchesDynSum) {
  RefinePtsAnalysis A(F.graph(), Opts, /*Refinement=*/false);
  QueryResult S1 = A.query(F.varNode("Main.main", "s1"));
  QueryResult S2 = A.query(F.varNode("Main.main", "s2"));
  EXPECT_EQ(sites(S1), std::vector<ir::AllocId>{F.allocByLabel("o26")});
  EXPECT_EQ(sites(S2), std::vector<ir::AllocId>{F.allocByLabel("o29")});
}

TEST_F(Figure2Test, RefinePtsConvergesToSameAnswer) {
  RefinePtsAnalysis A(F.graph(), Opts, /*Refinement=*/true);
  QueryResult S1 = A.query(F.varNode("Main.main", "s1"));
  EXPECT_EQ(sites(S1), std::vector<ir::AllocId>{F.allocByLabel("o26")});
  // The paper's walkthrough needs four refinement iterations for s1.
  EXPECT_GE(A.lastIterations(), 2u);
  QueryResult S2 = A.query(F.varNode("Main.main", "s2"));
  EXPECT_EQ(sites(S2), std::vector<ir::AllocId>{F.allocByLabel("o29")});
}

TEST_F(Figure2Test, RefinementFirstPassIsFieldBasedAndImprecise) {
  // With a client that is satisfied by anything, REFINEPTS answers from
  // its first, field-based pass, which conflates o26 and o29 through
  // the shared Vector.arr match edge (Section 3.4's first iteration).
  RefinePtsAnalysis A(F.graph(), Opts, /*Refinement=*/true);
  QueryResult S1 = A.query(F.varNode("Main.main", "s1"),
                           [](const QueryResult &) { return true; });
  EXPECT_EQ(A.lastIterations(), 1u);
  EXPECT_TRUE(S1.contains(F.allocByLabel("o26")));
  EXPECT_TRUE(S1.contains(F.allocByLabel("o29")));
}

TEST_F(Figure2Test, AndersenOverApproximatesBothQueries) {
  AndersenAnalysis A(F.graph());
  A.solve();
  // Context-insensitive analysis conflates the two vectors' contents.
  auto S1 = A.allocSites(F.varNode("Main.main", "s1"));
  EXPECT_TRUE(std::find(S1.begin(), S1.end(), F.allocByLabel("o26")) !=
              S1.end());
  EXPECT_TRUE(std::find(S1.begin(), S1.end(), F.allocByLabel("o29")) !=
              S1.end());
}

TEST_F(Figure2Test, PptaSummaryOfRetGetMatchesPaper) {
  // Section 4.1: ppta(ret_get, [], S1) = {(this_get, [arr, elems], S1)}
  // — i.e. ret_get's points-to set must include this_get.elems.arr.
  DynSumAnalysis A(F.graph(), Opts);
  PptaEngine Engine(F.graph(), A.fieldStacks(), Opts.MaxFieldDepth);
  Budget B(Opts.BudgetPerQuery);
  PptaSummary Summary;
  ASSERT_TRUE(Engine.compute(F.varNode("Vector.get", "ret"),
                             StackPool::empty(), RsmState::S1, B, Summary));
  EXPECT_TRUE(Summary.Objects.empty());
  ASSERT_EQ(Summary.Tuples.size(), 1u);
  const PptaTuple &T = Summary.Tuples[0];
  EXPECT_EQ(T.Node, F.varNode("Vector.get", "this"));
  EXPECT_EQ(T.State, RsmState::S1);
  // Field stack bottom-to-top: [arr, elems]... the traversal pushes arr
  // first, then elems, so elems is on top.  Both entries are load-bar
  // pushes (pending reads awaiting their matching stores).
  std::vector<uint32_t> Fields = A.fieldStacks().elements(T.Fields);
  ASSERT_EQ(Fields.size(), 2u);
  ir::FieldId Arr = F.program().getOrCreateField(F.program().name("arr"));
  ir::FieldId Elems =
      F.program().getOrCreateField(F.program().name("elems"));
  EXPECT_EQ(Fields[0], encodeLoadBarField(Arr));
  EXPECT_EQ(Fields[1], encodeLoadBarField(Elems));
  EXPECT_EQ(decodeField(Fields[0]), Arr);
}

TEST_F(Figure2Test, DynSumReusesSummariesAcrossQueries) {
  // Querying s1 warms the cache; s2 must then need fewer traversal
  // steps than it would on a cold analysis (Table 1: 23 vs 15 steps).
  DynSumAnalysis Warm(F.graph(), Opts);
  QueryResult WarmS1 = Warm.query(F.varNode("Main.main", "s1"));
  size_t CacheAfterS1 = Warm.cacheSize();
  QueryResult WarmS2 = Warm.query(F.varNode("Main.main", "s2"));
  EXPECT_GT(CacheAfterS1, 0u);

  DynSumAnalysis Cold(F.graph(), Opts);
  QueryResult ColdS2 = Cold.query(F.varNode("Main.main", "s2"));

  EXPECT_EQ(sites(WarmS2), sites(ColdS2));
  EXPECT_LT(WarmS2.Steps, ColdS2.Steps);
  EXPECT_GT(Warm.cacheHits(), 0u);
  (void)WarmS1;
}

TEST_F(Figure2Test, CacheDisabledStillPrecise) {
  AnalysisOptions NoCache = Opts;
  NoCache.EnableCache = false;
  DynSumAnalysis A(F.graph(), NoCache);
  QueryResult S1 = A.query(F.varNode("Main.main", "s1"));
  EXPECT_EQ(sites(S1), std::vector<ir::AllocId>{F.allocByLabel("o26")});
  EXPECT_EQ(A.cacheSize(), 0u);
}

TEST_F(Figure2Test, InvalidateMethodDropsOnlyThatMethod) {
  DynSumAnalysis A(F.graph(), Opts);
  (void)A.query(F.varNode("Main.main", "s1"));
  size_t Before = A.cacheSize();
  ASSERT_GT(Before, 0u);
  A.invalidateMethod(F.findMethod("Vector.get"));
  size_t After = A.cacheSize();
  EXPECT_LT(After, Before);
  EXPECT_GT(After, 0u);
  // Re-querying still gives the precise answer.
  QueryResult S1 = A.query(F.varNode("Main.main", "s1"));
  EXPECT_EQ(sites(S1), std::vector<ir::AllocId>{F.allocByLabel("o26")});
}

TEST_F(Figure2Test, StaSumComputesMoreSummariesThanDynSumNeeds) {
  StaSumResult Static = computeStaSum(F.graph());
  EXPECT_FALSE(Static.Capped);
  DynSumAnalysis A(F.graph(), Opts);
  (void)A.query(F.varNode("Main.main", "s1"));
  (void)A.query(F.varNode("Main.main", "s2"));
  EXPECT_GT(Static.NumSummaries, 0u);
  EXPECT_LE(A.cacheSize(), Static.NumSummaries);
}

//===----------------------------------------------------------------------===//
// Small focused programs
//===----------------------------------------------------------------------===//

TEST(StraightLineTest, AllAnalysesAgree) {
  Fixture F(dynsum::testing::kStraightLineSource);
  AnalysisOptions Opts;
  ir::AllocId O1 = F.allocByLabel("o1");
  ir::AllocId O2 = F.allocByLabel("o2");

  DynSumAnalysis Dyn(F.graph(), Opts);
  RefinePtsAnalysis Ref(F.graph(), Opts, true);
  RefinePtsAnalysis NoRef(F.graph(), Opts, false);

  for (DemandAnalysis *A :
       std::initializer_list<DemandAnalysis *>{&Dyn, &Ref, &NoRef}) {
    EXPECT_EQ(sites(A->query(F.varNode("main", "x"))),
              std::vector<ir::AllocId>{O1})
        << A->name();
    EXPECT_EQ(sites(A->query(F.varNode("main", "y"))),
              std::vector<ir::AllocId>{O1})
        << A->name();
    EXPECT_EQ(sites(A->query(F.varNode("main", "z"))),
              std::vector<ir::AllocId>{O2})
        << A->name();
  }
}

TEST(LocalFieldTest, FieldSensitiveLoadResolves) {
  Fixture F(dynsum::testing::kLocalFieldSource);
  AnalysisOptions Opts;
  DynSumAnalysis Dyn(F.graph(), Opts);
  QueryResult P = Dyn.query(F.varNode("main", "p"));
  EXPECT_EQ(sites(P), std::vector<ir::AllocId>{F.allocByLabel("oa")});

  RefinePtsAnalysis NoRef(F.graph(), Opts, false);
  EXPECT_EQ(sites(NoRef.query(F.varNode("main", "p"))),
            std::vector<ir::AllocId>{F.allocByLabel("oa")});
}

TEST(IdentityTest, ContextSensitivityKeepsCallersApart) {
  Fixture F(dynsum::testing::kIdentitySource);
  AnalysisOptions Opts;
  ir::AllocId OA = F.allocByLabel("oa");
  ir::AllocId OB = F.allocByLabel("ob");

  DynSumAnalysis Dyn(F.graph(), Opts);
  EXPECT_EQ(sites(Dyn.query(F.varNode("main", "x"))),
            std::vector<ir::AllocId>{OA});
  EXPECT_EQ(sites(Dyn.query(F.varNode("main", "y"))),
            std::vector<ir::AllocId>{OB});

  RefinePtsAnalysis Ref(F.graph(), Opts, true);
  EXPECT_EQ(sites(Ref.query(F.varNode("main", "x"))),
            std::vector<ir::AllocId>{OA});
  EXPECT_EQ(sites(Ref.query(F.varNode("main", "y"))),
            std::vector<ir::AllocId>{OB});

  // Andersen, context-insensitive, conflates them.
  AndersenAnalysis And(F.graph());
  And.solve();
  EXPECT_EQ(And.allocSites(F.varNode("main", "x")).size(), 2u);
}

TEST(GlobalTest, GlobalsAreContextInsensitive) {
  Fixture F(dynsum::testing::kGlobalSource);
  AnalysisOptions Opts;
  DynSumAnalysis Dyn(F.graph(), Opts);
  QueryResult X = Dyn.query(F.varNode("main", "x"));
  // Both objects flow through the static 'cache'; a sound analysis must
  // report both regardless of context sensitivity.
  EXPECT_TRUE(X.contains(F.allocByLabel("oa")));
  EXPECT_TRUE(X.contains(F.allocByLabel("ob")));

  RefinePtsAnalysis NoRef(F.graph(), Opts, false);
  QueryResult X2 = NoRef.query(F.varNode("main", "x"));
  EXPECT_TRUE(X2.contains(F.allocByLabel("oa")));
  EXPECT_TRUE(X2.contains(F.allocByLabel("ob")));
}

TEST(RecursionTest, CollapsedCyclesTerminateAndAnswer) {
  Fixture F(dynsum::testing::kRecursionSource);
  AnalysisOptions Opts;
  DynSumAnalysis Dyn(F.graph(), Opts);
  QueryResult X = Dyn.query(F.varNode("main", "x"));
  EXPECT_FALSE(X.BudgetExceeded);
  EXPECT_TRUE(X.contains(F.allocByLabel("oa")));

  RefinePtsAnalysis NoRef(F.graph(), Opts, false);
  QueryResult X2 = NoRef.query(F.varNode("main", "x"));
  EXPECT_TRUE(X2.contains(F.allocByLabel("oa")));
}

TEST(ListTest, CyclicFieldsStayWithinBudget) {
  Fixture F(dynsum::testing::kListSource);
  AnalysisOptions Opts;
  DynSumAnalysis Dyn(F.graph(), Opts);
  QueryResult X = Dyn.query(F.varNode("main", "x"));
  EXPECT_TRUE(X.contains(F.allocByLabel("ov")));
}

TEST(BudgetTest, TinyBudgetAbortsConservatively) {
  Fixture F(dynsum::testing::kFigure2Source);
  AnalysisOptions Opts;
  Opts.BudgetPerQuery = 3;
  DynSumAnalysis Dyn(F.graph(), Opts);
  QueryResult S1 = Dyn.query(F.varNode("Main.main", "s1"));
  EXPECT_TRUE(S1.BudgetExceeded);

  RefinePtsAnalysis Ref(F.graph(), Opts, true);
  QueryResult R1 = Ref.query(F.varNode("Main.main", "s1"));
  EXPECT_TRUE(R1.BudgetExceeded);
}

TEST(VirtualTest, AndersenRefinedCallGraphIsSmallerThanCHA) {
  ir::ParseResult R = ir::parseProgram(dynsum::testing::kVirtualSource);
  ASSERT_TRUE(R.ok()) << R.Error;
  std::unique_ptr<ir::Program> Prog = std::move(R.Prog);

  pag::BuiltPAG Cha = pag::buildPAG(*Prog);
  pag::BuiltPAG Refined = buildPAGWithAndersenCallGraph(*Prog);

  // The vcall site is site index of the statement labelled @1.
  ir::CallSiteId Site = ir::kNone;
  for (const ir::CallSite &CS : Prog->callSites())
    if (CS.Label == 1)
      Site = CS.Id;
  ASSERT_NE(Site, ir::kNone);
  EXPECT_EQ(Cha.Calls.targets(Site).size(), 2u);
  EXPECT_EQ(Refined.Calls.targets(Site).size(), 1u);
}

} // namespace

//===----------------------------------------------------------------------===//
// Demand alias queries
//===----------------------------------------------------------------------===//

TEST(AliasTest, AliasAndNonAliasOnFigure2) {
  Fixture F(dynsum::testing::kFigure2Source);
  AnalysisOptions Opts;
  DynSumAnalysis A(F.graph(), Opts);
  pag::NodeId S1 = F.varNode("Main.main", "s1");
  pag::NodeId S2 = F.varNode("Main.main", "s2");
  pag::NodeId Tmp1 = F.varNode("Main.main", "tmp1");
  // s1 holds o26 (as does tmp1); s2 holds o29 only.
  EXPECT_TRUE(A.mayAlias(S1, Tmp1));
  EXPECT_FALSE(A.mayAlias(S1, S2));
  EXPECT_TRUE(A.mayAlias(S1, S1));
}

TEST(AliasTest, BudgetExhaustionIsConservative) {
  Fixture F(dynsum::testing::kFigure2Source);
  AnalysisOptions Opts;
  Opts.BudgetPerQuery = 1;
  DynSumAnalysis A(F.graph(), Opts);
  EXPECT_TRUE(A.mayAlias(F.varNode("Main.main", "s1"),
                         F.varNode("Main.main", "s2")));
}
