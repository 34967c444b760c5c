//===----------------------------------------------------------------------===//
///
/// \file
/// Pipeline-wide property tests over fuzzed MiniJava programs.
///
/// For every seed, a random well-typed program must:
///   1. compile without diagnostics,
///   2. lower to IR the validator accepts,
///   3. satisfy the analysis lattice: DYNSUM == NOREFINE == REFINEPTS
///      (projected to allocation sites) and every demand answer is a
///      subset of Andersen's exhaustive one, which with either points-to
///      set representation reaches exactly the fixpoint of the naive
///      ReferenceAndersen on every node and (object, field) pair,
///   4. keep summary persistence exact (save + load on a twin program
///      reproduces the answers).
///
//===----------------------------------------------------------------------===//

#include "MiniJavaFuzzer.h"
#include "ReferenceAndersen.h"

#include "analysis/Andersen.h"
#include "analysis/DynSum.h"
#include "analysis/RefinePts.h"
#include "analysis/SummaryIO.h"
#include "engine/TieredStore.h"
#include "frontend/Frontend.h"
#include "ir/Validator.h"
#include "pag/PAGBuilder.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace dynsum;
using namespace dynsum::analysis;

namespace {

class FuzzPipelineTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzPipelineTest, CompilesAnalyzesConsistently) {
  dynsum::testing::MiniJavaFuzzer Fuzzer(GetParam());
  std::string Source = Fuzzer.generate();

  frontend::CompileResult Compiled = frontend::compileMiniJava(Source);
  ASSERT_TRUE(Compiled.ok()) << "seed " << GetParam() << ":\n"
                             << Compiled.Diags.str() << "\n--- source ---\n"
                             << Source;
  std::vector<std::string> Problems = ir::validate(*Compiled.Prog);
  ASSERT_TRUE(Problems.empty())
      << "seed " << GetParam() << ": " << Problems.front();

  pag::BuiltPAG Built = pag::buildPAG(*Compiled.Prog);
  AnalysisOptions Opts;
  DynSumAnalysis DynSum(*Built.Graph, Opts);
  RefinePtsAnalysis Refine(*Built.Graph, Opts);
  RefinePtsAnalysis NoRefine(*Built.Graph, Opts, /*Refinement=*/false);
  AndersenAnalysis Andersen(*Built.Graph);
  Andersen.solve();

  // Both set representations must reach the reference's exact fixpoint.
  EXPECT_TRUE(dynsum::testing::solvesToReference(
      *Built.Graph, dynsum::testing::ReferenceAndersen(*Built.Graph)))
      << "seed " << GetParam();

  unsigned Checked = 0;
  for (const ir::Variable &V : Compiled.Prog->variables()) {
    if (V.IsGlobal || V.Id % 7 != 0)
      continue;
    pag::NodeId N = Built.Graph->nodeOfVar(V.Id);
    QueryResult RDyn = DynSum.query(N);
    if (RDyn.BudgetExceeded)
      continue; // conservative answers need not agree exactly
    auto Dyn = RDyn.allocSites();
    auto Ref = Refine.query(N).allocSites();
    auto NoR = NoRefine.query(N).allocSites();
    auto And = Andersen.allocSites(N);

    EXPECT_EQ(Dyn, Ref) << "seed " << GetParam() << " var "
                        << Compiled.Prog->describeVar(V.Id);
    EXPECT_EQ(Dyn, NoR) << "seed " << GetParam() << " var "
                        << Compiled.Prog->describeVar(V.Id);
    EXPECT_TRUE(std::includes(And.begin(), And.end(), Dyn.begin(), Dyn.end()))
        << "seed " << GetParam() << " var "
        << Compiled.Prog->describeVar(V.Id)
        << ": demand answer must refine Andersen";
    ++Checked;
  }
  EXPECT_GT(Checked, 0u) << "fuzzer produced no queryable variables";
}

TEST_P(FuzzPipelineTest, PersistenceRoundTripsOnFuzzedPrograms) {
  dynsum::testing::MiniJavaFuzzer Fuzzer(GetParam());
  std::string Source = Fuzzer.generate();

  frontend::CompileResult C1 = frontend::compileMiniJava(Source);
  frontend::CompileResult C2 = frontend::compileMiniJava(Source);
  ASSERT_TRUE(C1.ok() && C2.ok());
  ASSERT_EQ(programFingerprint(*C1.Prog), programFingerprint(*C2.Prog))
      << "compilation must be deterministic";

  pag::BuiltPAG G1 = pag::buildPAG(*C1.Prog);
  pag::BuiltPAG G2 = pag::buildPAG(*C2.Prog);
  AnalysisOptions Opts;
  engine::TieredSummaryStore S1, S2;
  DynSumAnalysis A1(*G1.Graph, Opts);
  DynSumAnalysis A2(*G2.Graph, Opts);
  A1.setSummaryExchange(&S1);
  A2.setSummaryExchange(&S2);

  std::vector<ir::VarId> Queries;
  for (const ir::Variable &V : C1.Prog->variables())
    if (!V.IsGlobal && V.Id % 11 == 0)
      Queries.push_back(V.Id);

  for (ir::VarId V : Queries)
    A1.query(G1.Graph->nodeOfVar(V));
  std::string Path = ::testing::TempDir() + "/fuzz_persist_" +
                     std::to_string(GetParam()) + ".dsum";
  ASSERT_TRUE(S1.save(Path, *G1.Graph));
  ASSERT_TRUE(S2.attachDiskTier(Path, *G2.Graph).Attached);
  std::remove(Path.c_str());

  for (ir::VarId V : Queries) {
    auto R1 = A1.query(G1.Graph->nodeOfVar(V)).allocSites();
    auto R2 = A2.query(G2.Graph->nodeOfVar(V)).allocSites();
    EXPECT_EQ(R1, R2) << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPipelineTest,
                         ::testing::Range(uint64_t(0), uint64_t(40)));

} // namespace
