//===----------------------------------------------------------------------===//
///
/// \file
/// Property-based tests over generated programs, parameterized across
/// the nine benchmark shapes and several seeds:
///
///   * soundness     — every demand-driven answer (that stayed within
///                     budget) is a subset of Andersen's, on the CHA
///                     graph and on the Andersen call graph;
///   * precision     — DYNSUM, NOREFINE and fully-refined REFINEPTS
///                     agree on allocation sites ("without any precision
///                     loss", the paper's central correctness claim);
///   * cache safety  — cached and uncached DYNSUM agree; invalidation
///                     and re-query agree; repeated queries agree;
///   * reuse         — a warmed DYNSUM never takes more steps than a
///                     cold one on the same query stream.
///
//===----------------------------------------------------------------------===//

#include "analysis/Andersen.h"
#include "analysis/DynSum.h"
#include "analysis/RefinePts.h"
#include "analysis/StaSum.h"
#include "ir/Validator.h"
#include "pag/PAGBuilder.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace dynsum;
using namespace dynsum::analysis;
using namespace dynsum::workload;

namespace {

struct Params {
  const char *Benchmark;
  uint64_t Seed;
};

void PrintTo(const Params &P, std::ostream *OS) {
  *OS << P.Benchmark << "/seed" << P.Seed;
}

class GeneratedProgramTest : public ::testing::TestWithParam<Params> {
protected:
  void SetUp() override {
    GenOptions GO;
    GO.Scale = 1.0 / 256;
    GO.Seed = GetParam().Seed;
    Prog = generateProgram(specByName(GetParam().Benchmark), GO);
    ASSERT_TRUE(ir::validate(*Prog).empty());
    Built = pag::buildPAG(*Prog);
    Opts.BudgetPerQuery = 200000; // generous: most queries complete
  }

  /// A deterministic spread of local-variable query nodes.
  std::vector<pag::NodeId> sampleNodes(size_t Stride) const {
    std::vector<pag::NodeId> Out;
    for (size_t I = 0; I < Prog->variables().size(); I += Stride)
      if (!Prog->variables()[I].IsGlobal)
        Out.push_back(Built.Graph->nodeOfVar(ir::VarId(I)));
    return Out;
  }

  /// Every within-budget DYNSUM and NOREFINE answer on \p G is a subset
  /// of Andersen's on \p G.
  void expectSubsetsOfAndersen(const pag::PAG &G) const {
    AndersenAnalysis Exhaustive(G);
    Exhaustive.solve();
    DynSumAnalysis Dyn(G, Opts);
    RefinePtsAnalysis NoRef(G, Opts, /*Refinement=*/false);

    for (pag::NodeId N : sampleNodes(41)) {
      std::vector<ir::AllocId> Truth = Exhaustive.allocSites(N);
      for (DemandAnalysis *A :
           std::initializer_list<DemandAnalysis *>{&Dyn, &NoRef}) {
        QueryResult R = A->query(N);
        if (R.BudgetExceeded)
          continue; // no claim on aborted queries
        for (ir::AllocId Site : R.allocSites())
          EXPECT_TRUE(std::binary_search(Truth.begin(), Truth.end(), Site))
              << A->name() << " found " << Prog->describeAlloc(Site)
              << " at " << G.describe(N) << " that Andersen does not";
      }
    }
  }

  std::unique_ptr<ir::Program> Prog;
  pag::BuiltPAG Built;
  AnalysisOptions Opts;
};

} // namespace

TEST_P(GeneratedProgramTest, DemandAnswersAreSubsetsOfAndersen) {
  expectSubsetsOfAndersen(*Built.Graph);
}

TEST_P(GeneratedProgramTest, SubsetsOfAndersenOnTheAndersenCallGraph) {
  // Node ids depend only on the program, so sampleNodes fits this graph.
  expectSubsetsOfAndersen(*buildPAGWithAndersenCallGraph(*Prog).Graph);
}

TEST_P(GeneratedProgramTest, DynSumMatchesNoRefinePrecision) {
  DynSumAnalysis Dyn(*Built.Graph, Opts);
  RefinePtsAnalysis NoRef(*Built.Graph, Opts, /*Refinement=*/false);
  for (pag::NodeId N : sampleNodes(67)) {
    QueryResult RD = Dyn.query(N);
    QueryResult RN = NoRef.query(N);
    if (RD.BudgetExceeded || RN.BudgetExceeded)
      continue;
    EXPECT_EQ(RD.allocSites(), RN.allocSites())
        << "at " << Built.Graph->describe(N);
  }
}

TEST_P(GeneratedProgramTest, RefinePtsConvergesToDynSumPrecision) {
  DynSumAnalysis Dyn(*Built.Graph, Opts);
  RefinePtsAnalysis Refine(*Built.Graph, Opts, /*Refinement=*/true);
  for (pag::NodeId N : sampleNodes(97)) {
    QueryResult RD = Dyn.query(N);
    QueryResult RR = Refine.query(N); // no client: refine to the end
    if (RD.BudgetExceeded || RR.BudgetExceeded)
      continue;
    EXPECT_EQ(RD.allocSites(), RR.allocSites())
        << "at " << Built.Graph->describe(N);
  }
}

TEST_P(GeneratedProgramTest, CachedAndUncachedDynSumAgree) {
  AnalysisOptions NoCache = Opts;
  NoCache.EnableCache = false;
  DynSumAnalysis Cached(*Built.Graph, Opts);
  DynSumAnalysis Uncached(*Built.Graph, NoCache);
  for (pag::NodeId N : sampleNodes(83)) {
    QueryResult RC = Cached.query(N);
    QueryResult RU = Uncached.query(N);
    if (RC.BudgetExceeded || RU.BudgetExceeded)
      continue;
    EXPECT_EQ(RC.allocSites(), RU.allocSites())
        << "at " << Built.Graph->describe(N);
  }
}

TEST_P(GeneratedProgramTest, RepeatedQueriesAreStable) {
  DynSumAnalysis Dyn(*Built.Graph, Opts);
  for (pag::NodeId N : sampleNodes(131)) {
    QueryResult First = Dyn.query(N);
    QueryResult Second = Dyn.query(N);
    EXPECT_EQ(First.allocSites(), Second.allocSites());
    // The repeat must not be more expensive: everything is cached.
    EXPECT_LE(Second.Steps, First.Steps + 1);
  }
}

TEST_P(GeneratedProgramTest, InvalidationPreservesAnswers) {
  DynSumAnalysis Dyn(*Built.Graph, Opts);
  std::vector<pag::NodeId> Nodes = sampleNodes(113);
  std::vector<std::vector<ir::AllocId>> Before;
  for (pag::NodeId N : Nodes)
    Before.push_back(Dyn.query(N).allocSites());
  // Invalidate every method's summaries (an edit touching everything).
  for (ir::MethodId M = 0; M < Prog->methods().size(); ++M)
    Dyn.invalidateMethod(M);
  EXPECT_EQ(Dyn.cacheSize(), 0u);
  for (size_t I = 0; I < Nodes.size(); ++I)
    EXPECT_EQ(Dyn.query(Nodes[I]).allocSites(), Before[I]);
}

TEST_P(GeneratedProgramTest, WarmCacheNeverCostsMoreSteps) {
  std::vector<pag::NodeId> Nodes = sampleNodes(73);
  DynSumAnalysis Cold(*Built.Graph, Opts);
  uint64_t ColdSteps = 0;
  for (pag::NodeId N : Nodes)
    ColdSteps += Cold.query(N).Steps;
  // Same stream again on the warmed instance.
  uint64_t WarmSteps = 0;
  for (pag::NodeId N : Nodes)
    WarmSteps += Cold.query(N).Steps;
  EXPECT_LE(WarmSteps, ColdSteps);
}

TEST_P(GeneratedProgramTest, StaSumDominatesDynSumCache) {
  StaSumOptions SO;
  SO.MaxSummaries = 500000;
  // The largest closure that finishes here takes ~754k steps (bloat).
  // javac and luindex run out of steps even at the 200M default, after
  // ~2 minutes each; 5M keeps every case's Capped flag and stops them
  // in under 2 s.
  SO.StepBudget = 5'000'000;
  StaSumResult Static = computeStaSum(*Built.Graph, SO);
  DynSumAnalysis Dyn(*Built.Graph, Opts);
  for (pag::NodeId N : sampleNodes(59))
    (void)Dyn.query(N);
  if (!Static.Capped) {
    EXPECT_LE(Dyn.cacheSize(), Static.NumSummaries);
  }
  EXPECT_GT(Static.NumSummaries, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    PaperBenchmarks, GeneratedProgramTest,
    ::testing::Values(Params{"jack", 0}, Params{"javac", 0},
                      Params{"soot-c", 0}, Params{"bloat", 0},
                      Params{"jython", 0}, Params{"avrora", 0},
                      Params{"batik", 0}, Params{"luindex", 0},
                      Params{"xalan", 0}, Params{"soot-c", 7},
                      Params{"soot-c", 21}, Params{"xalan", 7}),
    [](const ::testing::TestParamInfo<Params> &Info) {
      std::string Name = Info.param.Benchmark;
      std::replace(Name.begin(), Name.end(), '-', '_');
      return Name + "_seed" + std::to_string(Info.param.Seed);
    });
