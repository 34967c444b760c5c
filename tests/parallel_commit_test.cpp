//===----------------------------------------------------------------------===//
///
/// \file
/// Differential fuzz oracle for the parallel commit pipeline.
///
/// Two layers, both driven by MiniJavaFuzzer programs and the shared
/// IrEditFuzzer across >= 6 edit/commit rounds, at 1/2/8 commit
/// threads:
///
///   * Graph level: a delta graph evolved with sharded buildPAGDelta
///     must stay ISOMORPHIC to a serial scratch build after every round
///     (node flags, canonical live edge multiset, CSR invariants,
///     DYNSUM answers) — and beyond isomorphism, BIT-IDENTICAL to a
///     serially evolved twin (same edge slot ids, same per-segment slot
///     lists, same CSR span order), because every id-assigning phase of
///     the pipeline is single-writer by design.
///
///   * Service level: a service committing through background
///     submitCommit() tickets (the background committer) must converge
///     to the same answers as a foreground-commit twin and as a cold
///     scratch build after every round, at every commit thread count.
///
/// The TSan CI job runs this test alongside the service/engine suites;
/// the ASan job runs it with the full ctest batch.
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
using service::AnalysisService;
using service::CommitMode;
using service::ServiceOptions;

namespace {

constexpr unsigned kRounds = 6;
constexpr unsigned kEditsPerRound = 12;
constexpr unsigned kThreadCounts[] = {1, 2, 8};

/// Compiles the fuzz program of \p Seed (deterministic).
std::unique_ptr<ir::Program> fuzzProgram(uint64_t Seed) {
  dynsum::testing::MiniJavaFuzzer Fuzz(Seed);
  frontend::CompileResult R = frontend::compileMiniJava(Fuzz.generate());
  EXPECT_TRUE(R.ok()) << R.Diags.str();
  return std::move(R.Prog);
}

/// Asserts \p A and \p B are the same graph bit for bit: same slots,
/// same payloads, same per-method segments, same CSR span ORDER (not
/// just multiset) in both directions, same ContextFree flags — the
/// single-writer phases make the sharded build reproduce the serial
/// layout exactly.
void checkBitIdentical(const pag::PAG &A, const pag::PAG &B) {
  ASSERT_EQ(A.numNodes(), B.numNodes());
  ASSERT_EQ(A.numEdgeSlots(), B.numEdgeSlots());
  ASSERT_EQ(A.numEdges(), B.numEdges());
  for (pag::EdgeId E = 0; E < A.numEdgeSlots(); ++E) {
    ASSERT_EQ(A.edgeAlive(E), B.edgeAlive(E)) << "slot " << E;
    if (!A.edgeAlive(E))
      continue;
    const pag::Edge &EA = A.edge(E);
    const pag::Edge &EB = B.edge(E);
    ASSERT_EQ(EA.Src, EB.Src) << "slot " << E;
    ASSERT_EQ(EA.Dst, EB.Dst) << "slot " << E;
    ASSERT_EQ(EA.Kind, EB.Kind) << "slot " << E;
    ASSERT_EQ(EA.Aux, EB.Aux) << "slot " << E;
    ASSERT_EQ(EA.ContextFree, EB.ContextFree) << "slot " << E;
  }
  for (const ir::Method &M : A.program().methods())
    ASSERT_EQ(A.segmentEdges(M.Id), B.segmentEdges(M.Id))
        << "segment of " << A.program().describeMethod(M.Id);
  for (pag::NodeId N = 0; N < A.numNodes(); ++N) {
    for (unsigned K = 0; K < pag::kNumEdgeKinds; ++K) {
      for (bool In : {true, false}) {
        pag::EdgeKind Kind = pag::EdgeKind(K);
        pag::EdgeSpan SA =
            In ? A.inEdgesOfKind(N, Kind) : A.outEdgesOfKind(N, Kind);
        pag::EdgeSpan SB =
            In ? B.inEdgesOfKind(N, Kind) : B.outEdgesOfKind(N, Kind);
        ASSERT_EQ(SA.size(), SB.size()) << "node " << N << " kind " << K;
        for (size_t I = 0; I < SA.size(); ++I)
          ASSERT_EQ(SA[I], SB[I]) << "node " << N << " kind " << K;
      }
    }
    ASSERT_EQ(A.node(N).ContextFreeEntryIn, B.node(N).ContextFreeEntryIn)
        << "node " << N;
    ASSERT_EQ(A.node(N).ContextFreeExitOut, B.node(N).ContextFreeExitOut)
        << "node " << N;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Graph level: sharded delta builds vs serial scratch + serial twin
//===----------------------------------------------------------------------===//

class ParallelCommitFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelCommitFuzzTest, ShardedDeltaIsIsomorphicToSerialScratch) {
  for (unsigned Threads : kThreadCounts) {
    auto Prog = fuzzProgram(GetParam());
    ASSERT_TRUE(Prog);
    ir::Program &P = *Prog;
    ASSERT_TRUE(ir::validate(P).empty());

    // The sharded graph under test and its serially evolved twin.
    pag::PAG Sharded(P), Serial(P);
    pag::CallGraph ShardedCalls, SerialCalls;
    pag::buildPAGDelta(Sharded, ShardedCalls, nullptr, false, Threads);
    pag::buildPAGDelta(Serial, SerialCalls, nullptr, false, 1);

    // Same seed at every thread count: each count replays the identical
    // edit stream, so any divergence is the pipeline's fault.
    IrEditFuzzer Edits(GetParam() * 131 + 5);
    for (unsigned Round = 0; Round < kRounds; ++Round) {
      Edits.apply(P, kEditsPerRound);
      ASSERT_TRUE(ir::validate(P).empty());

      pag::DeltaStats DS =
          pag::buildPAGDelta(Sharded, ShardedCalls, nullptr, false, Threads);
      EXPECT_EQ(DS.ThreadsUsed, Threads);
      pag::buildPAGDelta(Serial, SerialCalls, nullptr, false, 1);

      // Isomorphic to a cold scratch build...
      pag::BuiltPAG Cold = pag::buildPAG(P);
      checkCsrInvariants(Sharded);
      checkIsomorphic(Sharded, *Cold.Graph);
      // ...and bit-identical to the serial twin.
      checkBitIdentical(Sharded, Serial);

      // Identical DYNSUM answers for every in-budget query.
      analysis::DynSumAnalysis ShardedA(Sharded, AnalysisOptions());
      analysis::DynSumAnalysis ColdA(*Cold.Graph, AnalysisOptions());
      size_t Compared = 0;
      std::vector<ir::VarId> Sample = sampleVars(P, 7);
      for (ir::VarId V : Sample) {
        QueryResult SR = ShardedA.query(Sharded.nodeOfVar(V));
        QueryResult CR = ColdA.query(Cold.Graph->nodeOfVar(V));
        if (SR.BudgetExceeded || CR.BudgetExceeded)
          continue;
        ++Compared;
        EXPECT_EQ(SR.allocSites(), CR.allocSites())
            << "threads " << Threads << ", round " << Round << ", "
            << P.describeVar(V);
      }
      EXPECT_GT(Compared, Sample.size() / 2);
    }
  }
}

//===----------------------------------------------------------------------===//
// Service level: commitAsync converges to blocking commit
//===----------------------------------------------------------------------===//

TEST_P(ParallelCommitFuzzTest, AsyncCommitsConvergeToBlockingCommits) {
  for (unsigned Threads : kThreadCounts) {
    // Three identical programs: the async service, the blocking twin,
    // and the cold-reference copy.  The same-seeded fuzzer applies the
    // identical edit stream to each (its decisions depend only on its
    // seed and the program state, which stay in lockstep).
    auto AsyncProg = fuzzProgram(GetParam());
    auto BlockProg = fuzzProgram(GetParam());
    auto RefProg = fuzzProgram(GetParam());
    ASSERT_TRUE(AsyncProg && BlockProg && RefProg);

    ServiceOptions SO;
    SO.Engine.NumThreads = 2;
    SO.Commit = Threads;
    AnalysisService Async(std::move(AsyncProg), SO);
    AnalysisService Block(std::move(BlockProg), SO);

    IrEditFuzzer AsyncEdits(GetParam() * 977 + 13);
    IrEditFuzzer BlockEdits(GetParam() * 977 + 13);
    IrEditFuzzer RefEdits(GetParam() * 977 + 13);

    for (unsigned Round = 0; Round < kRounds; ++Round) {
      Async.editProgram([&](ir::Program &Q) {
        AsyncEdits.apply(Q, kEditsPerRound);
        return std::vector<ir::MethodId>{}; // program auto-stamps
      });
      Block.editProgram([&](ir::Program &Q) {
        BlockEdits.apply(Q, kEditsPerRound);
        return std::vector<ir::MethodId>{};
      });
      RefEdits.apply(*RefProg, kEditsPerRound);

      CommitMode Mode =
          Round % 3 == 2 ? CommitMode::Scratch : CommitMode::Delta;
      service::CommitTicket Ticket =
          Async.submitCommit({Mode, /*Background=*/true});
      Ticket.wait();
      ASSERT_TRUE(Ticket.done());
      Block.submitCommit({Mode, /*Background=*/false}).wait();
      ASSERT_FALSE(Async.dirty()) << "async commit lost edits";
      EXPECT_EQ(Ticket.generation(), Async.generation())
          << "the ticket must report the generation its commit published";
      EXPECT_EQ(Async.generation(), Block.generation())
          << "one waited-for async commit per round must track blocking "
           "generations";

      pag::BuiltPAG Cold = pag::buildPAG(*RefProg);
      analysis::DynSumAnalysis ColdA(*Cold.Graph, AnalysisOptions());
      std::vector<ir::VarId> Probe = sampleVars(*RefProg, 9);
      service::ServiceBatchResult AR = Async.queryVars(Probe);
      service::ServiceBatchResult BR = Block.queryVars(Probe);
      for (size_t I = 0; I < Probe.size(); ++I) {
        QueryResult CR = ColdA.query(Cold.Graph->nodeOfVar(Probe[I]));
        if (AR.Outcomes[I].BudgetExceeded ||
            BR.Outcomes[I].BudgetExceeded || CR.BudgetExceeded)
          continue;
        EXPECT_EQ(AR.Outcomes[I].AllocSites, BR.Outcomes[I].AllocSites)
            << "threads " << Threads << ", round " << Round << ", probe "
            << I;
        EXPECT_EQ(AR.Outcomes[I].AllocSites, CR.allocSites())
            << "threads " << Threads << ", round " << Round << ", probe "
            << I;
      }
    }
    EXPECT_EQ(Async.stats().AsyncCommitsRequested, uint64_t(kRounds));
  }
}

//===----------------------------------------------------------------------===//
// Coalescing: many queued requests, no lost edits
//===----------------------------------------------------------------------===//

TEST(ParallelCommitQueueTest, CoalescedAsyncCommitsLoseNothing) {
  auto Prog = fuzzProgram(73);
  auto RefProg = fuzzProgram(73);
  ASSERT_TRUE(Prog && RefProg);

  ServiceOptions SO;
  SO.Commit = 2;
  AnalysisService S(std::move(Prog), SO);

  IrEditFuzzer Edits(4242);
  IrEditFuzzer RefEdits(4242);
  constexpr unsigned kBursts = 24;
  for (unsigned I = 0; I < kBursts; ++I) {
    S.editProgram([&](ir::Program &Q) {
      Edits.apply(Q, 3);
      return std::vector<ir::MethodId>{};
    });
    RefEdits.apply(*RefProg, 3);
    // Fire-and-forget: requests racing the in-flight commit coalesce
    // (their dropped tickets share the covering commit's state).
    S.submitCommit({CommitMode::Delta, /*Background=*/true});
  }
  S.waitForCommits();
  ASSERT_FALSE(S.dirty()) << "queued edits must all be committed";

  service::ServiceStats SS = S.stats();
  EXPECT_EQ(SS.AsyncCommitsRequested, uint64_t(kBursts));
  EXPECT_GE(SS.Commits, 1u);
  EXPECT_LE(SS.Commits, uint64_t(kBursts))
      << "coalescing must never run more commits than were requested";
  // Every request either ran its own commit or was folded into one in
  // flight (a request can be counted coalesced AND still trigger the
  // follow-up commit, so this is a lower bound, exact when nothing
  // overlapped).
  EXPECT_GE(SS.Commits + SS.AsyncCommitsCoalesced, uint64_t(kBursts));

  // The final generation answers exactly like a cold build of the
  // identically edited reference program: nothing was lost.
  pag::BuiltPAG Cold = pag::buildPAG(*RefProg);
  analysis::DynSumAnalysis ColdA(*Cold.Graph, AnalysisOptions());
  std::vector<ir::VarId> Probe = sampleVars(*RefProg, 9);
  service::ServiceBatchResult R = S.queryVars(Probe);
  for (size_t I = 0; I < Probe.size(); ++I) {
    QueryResult CR = ColdA.query(Cold.Graph->nodeOfVar(Probe[I]));
    if (R.Outcomes[I].BudgetExceeded || CR.BudgetExceeded)
      continue;
    EXPECT_EQ(R.Outcomes[I].AllocSites, CR.allocSites()) << "probe " << I;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelCommitFuzzTest,
                         ::testing::Values(7, 41, 97));
