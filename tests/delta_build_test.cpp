//===----------------------------------------------------------------------===//
///
/// \file
/// Randomized delta-vs-scratch equivalence for the PAG layer.
///
/// MiniJavaFuzzer generates a well-typed program; the shared
/// IrEditFuzzer then drives N edit/commit rounds of IR-level mutations
/// (new allocations, assigns, loads/stores, direct calls, statement
/// removals, fresh locals and whole new methods).  After every round
/// the delta-patched graph must be isomorphic to a cold buildPAG of the
/// same program: identical node flags and call buckets, identical live
/// edge multiset (modulo slot numbering), clean CSR invariants despite
/// holes and slot reuse, and identical DYNSUM answers.  A warm AnalysisService absorbs
/// fuzzed rounds through editProgram and foreground commits, and must
/// stay warm-equal to cold throughout.
///
/// The sharded (multi-worker) delta builds and the async service
/// commits run the same oracle in tests/parallel_commit_test.cpp.
///
//===----------------------------------------------------------------------===//

#include "analysis/DynSum.h"
#include "frontend/Frontend.h"
#include "ir/Validator.h"
#include "pag/PAGBuilder.h"
#include "service/AnalysisService.h"

#include "IrEditFuzzer.h"
#include "MiniJavaFuzzer.h"

#include <gtest/gtest.h>

using namespace dynsum;
using analysis::AnalysisOptions;
using analysis::QueryResult;
using dynsum::testing::checkCsrInvariants;
using dynsum::testing::checkIsomorphic;
using dynsum::testing::IrEditFuzzer;
using dynsum::testing::sampleVars;

//===----------------------------------------------------------------------===//
// The fuzz equivalence drive
//===----------------------------------------------------------------------===//

class DeltaFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeltaFuzzTest, DeltaBuildsStayIsomorphicToScratchAcrossEditRounds) {
  constexpr unsigned kRounds = 6;
  constexpr unsigned kEditsPerRound = 12;

  dynsum::testing::MiniJavaFuzzer Fuzz(GetParam());
  frontend::CompileResult R = frontend::compileMiniJava(Fuzz.generate());
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  ir::Program &P = *R.Prog;
  ASSERT_TRUE(ir::validate(P).empty());

  pag::PAG Delta(P);
  pag::CallGraph Calls;
  pag::buildPAGDelta(Delta, Calls);

  IrEditFuzzer Edits(GetParam() ^ 0xfeedbeef);
  for (unsigned Round = 0; Round < kRounds; ++Round) {
    Edits.apply(P, kEditsPerRound);
    ASSERT_TRUE(ir::validate(P).empty()) << "edit fuzzer broke the program";

    pag::DeltaStats DS = pag::buildPAGDelta(Delta, Calls);
    EXPECT_LE(DS.Relowered.size(), P.methods().size());

    pag::BuiltPAG Cold = pag::buildPAG(P);
    checkCsrInvariants(Delta);
    checkIsomorphic(Delta, *Cold.Graph);

    // Same answers: cold DYNSUM over the delta graph vs the scratch
    // graph, for a sample of variables including the newest ones.
    // Budget-exhausted queries are skipped: their partial answers
    // depend on traversal order, and the delta CSR legitimately orders
    // buckets differently (survivors first, re-lowered edges appended)
    // than a scratch build's edge-id order — every bucket except the
    // Entry in-buckets and Exit out-buckets, which both keep in
    // call-site order (checkIsomorphic compares them).  Completed
    // queries are closures and must match exactly.
    analysis::DynSumAnalysis DeltaA(Delta, AnalysisOptions());
    analysis::DynSumAnalysis ColdA(*Cold.Graph, AnalysisOptions());
    std::vector<ir::VarId> Sample = sampleVars(P, 7);
    size_t Compared = 0;
    for (ir::VarId V : Sample) {
      QueryResult DR = DeltaA.query(Delta.nodeOfVar(V));
      QueryResult CR = ColdA.query(Cold.Graph->nodeOfVar(V));
      if (DR.BudgetExceeded || CR.BudgetExceeded)
        continue;
      ++Compared;
      EXPECT_EQ(DR.allocSites(), CR.allocSites())
          << "round " << Round << ", " << P.describeVar(V);
    }
    EXPECT_GT(Compared, Sample.size() / 2)
        << "too many queries blew the budget for the round to mean much";
  }
}

TEST_P(DeltaFuzzTest, WarmSessionMatchesColdAcrossFuzzedEditRounds) {
  constexpr unsigned kRounds = 4;
  constexpr unsigned kEditsPerRound = 10;

  dynsum::testing::MiniJavaFuzzer Fuzz(GetParam() + 101);
  frontend::CompileResult R = frontend::compileMiniJava(Fuzz.generate());
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  ASSERT_TRUE(ir::validate(*R.Prog).empty());

  service::AnalysisService S(std::move(R.Prog));
  const ir::Program &P = S.program();

  // Warm the service before any edits.
  S.queryVars(sampleVars(P, 5));

  IrEditFuzzer Edits(GetParam() * 31 + 7);
  for (unsigned Round = 0; Round < kRounds; ++Round) {
    // The fuzzer edits through Program's own mutators, so the edit
    // clock carries the dirty set into the commit.
    S.editProgram([&](ir::Program &Q) {
      Edits.apply(Q, kEditsPerRound);
      return std::vector<ir::MethodId>{};
    });
    ASSERT_TRUE(ir::validate(P).empty());
    ASSERT_EQ(S.submitCommit().wait().Outcome,
              incremental::CommitOutcome::Committed);

    pag::BuiltPAG Cold = pag::buildPAG(P);
    analysis::DynSumAnalysis ColdA(*Cold.Graph, AnalysisOptions());
    std::vector<ir::VarId> Sample = sampleVars(P, 5);
    service::ServiceBatchResult Warm = S.queryVars(Sample);
    for (size_t I = 0; I < Sample.size(); ++I) {
      const engine::QueryOutcome &W = Warm.Outcomes[I];
      QueryResult ColdR = ColdA.query(Cold.Graph->nodeOfVar(Sample[I]));
      // Completed queries must match; a budget blowout on either side
      // makes the partial answer order-dependent (and warm summaries
      // legitimately stretch the budget further than cold runs).
      if (W.BudgetExceeded || ColdR.BudgetExceeded)
        continue;
      EXPECT_EQ(W.AllocSites, ColdR.allocSites())
          << "round " << Round << ", " << P.describeVar(Sample[I]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaFuzzTest,
                         ::testing::Values(2, 3, 17, 29, 71, 113));
