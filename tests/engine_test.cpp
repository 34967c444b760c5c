//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the parallel batched query engine: multi-threaded batches
/// must project onto exactly the allocation sites the sequential
/// DYNSUM path produces, budget exhaustion must stay confined to the
/// query that hit it, and the shared summary store must round-trip
/// through its own save and attach.
///
//===----------------------------------------------------------------------===//

#include "analysis/DynSum.h"
#include "clients/Client.h"
#include "engine/QueryScheduler.h"
#include "pag/PAGBuilder.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

using namespace dynsum;
using namespace dynsum::analysis;
using namespace dynsum::engine;

namespace {

/// A generated workload program with a deterministic spread of demand
/// query nodes (every k-th local variable).
struct GenFixture {
  explicit GenFixture(const char *SpecName, double Scale = 1.0 / 64,
                      size_t Stride = 37) {
    workload::GenOptions GO;
    GO.Scale = Scale;
    Prog = workload::generateProgram(workload::specByName(SpecName), GO);
    Built = pag::buildPAG(*Prog);
    for (const ir::Variable &V : Prog->variables())
      if (!V.IsGlobal && V.Id % Stride == 0)
        Nodes.push_back(Built.Graph->nodeOfVar(V.Id));
  }

  std::unique_ptr<ir::Program> Prog;
  pag::BuiltPAG Built;
  std::vector<pag::NodeId> Nodes;
};

/// Sequential ground truth: one warming DynSumAnalysis, queries in batch
/// order (exactly what the engine replaces).
std::vector<QueryOutcome> runSequential(const pag::PAG &G,
                                        const std::vector<pag::NodeId> &Nodes,
                                        const AnalysisOptions &Opts) {
  DynSumAnalysis A(G, Opts);
  std::vector<QueryOutcome> Out;
  Out.reserve(Nodes.size());
  for (pag::NodeId N : Nodes) {
    QueryResult R = A.query(N);
    Out.push_back(QueryOutcome{R.allocSites(), R.BudgetExceeded, R.Status, R.Steps});
  }
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// (a) Batched multi-thread results equal sequential results
//===----------------------------------------------------------------------===//

TEST(EngineTest, BatchedEqualsSequentialAcrossThreadCounts) {
  for (const char *Spec : {"soot-c", "jython"}) {
    GenFixture F(Spec);
    ASSERT_GT(F.Nodes.size(), 10u) << Spec;

    AnalysisOptions AO;
    std::vector<QueryOutcome> Sequential =
        runSequential(*F.Built.Graph, F.Nodes, AO);

    for (unsigned Threads : {1u, 2u, 4u, 8u}) {
      EngineOptions EO;
      EO.NumThreads = Threads;
      QueryScheduler S(*F.Built.Graph, EO);
      BatchResult R = S.run(F.Nodes);

      ASSERT_EQ(R.Outcomes.size(), Sequential.size());
      for (size_t I = 0; I < Sequential.size(); ++I) {
        EXPECT_EQ(R.Outcomes[I].AllocSites, Sequential[I].AllocSites)
            << Spec << " query " << I << " at " << Threads << " threads";
        EXPECT_EQ(R.Outcomes[I].BudgetExceeded, Sequential[I].BudgetExceeded)
            << Spec << " query " << I << " at " << Threads << " threads";
      }
    }
  }
}

TEST(EngineTest, SharedStoreIsReusedWithinAndAcrossBatches) {
  GenFixture F("soot-c");
  EngineOptions EO;
  EO.NumThreads = 4;
  QueryScheduler S(*F.Built.Graph, EO);

  BatchResult Cold = S.run(F.Nodes);
  EXPECT_GT(Cold.Stats.SummariesComputed, 0u);
  EXPECT_GT(Cold.Stats.StoreSize, 0u);

  // A second identical batch finds every summary already published.
  BatchResult Warm = S.run(F.Nodes);
  EXPECT_EQ(Warm.Stats.SummariesComputed, 0u);
  EXPECT_GT(Warm.Stats.SharedHits, 0u);
  EXPECT_LT(Warm.Stats.TotalSteps, Cold.Stats.TotalSteps);
  ASSERT_EQ(Warm.Outcomes.size(), Cold.Outcomes.size());
  for (size_t I = 0; I < Cold.Outcomes.size(); ++I)
    EXPECT_EQ(Warm.Outcomes[I].AllocSites, Cold.Outcomes[I].AllocSites) << I;
}

TEST(EngineTest, ClientVerdictsMatchSequentialPath) {
  GenFixture F("jython");
  AnalysisOptions AO;
  EngineOptions EO;
  EO.NumThreads = 4;
  EO.Analysis = AO;

  for (const auto &C : clients::makeAllClients()) {
    std::vector<clients::ClientQuery> Qs =
        C->makeQueries(*F.Built.Graph, /*MaxQueries=*/64);
    DynSumAnalysis Seq(*F.Built.Graph, AO);
    clients::ClientReport RSeq = clients::runClient(*C, Seq, Qs);

    QueryScheduler S(*F.Built.Graph, EO);
    clients::ClientReport RBat = clients::runClientBatched(*C, S, Qs);

    EXPECT_EQ(RBat.NumQueries, RSeq.NumQueries) << C->name();
    EXPECT_EQ(RBat.Proven, RSeq.Proven) << C->name();
    EXPECT_EQ(RBat.Refuted, RSeq.Refuted) << C->name();
    EXPECT_EQ(RBat.Unknown, RSeq.Unknown) << C->name();
  }
}

//===----------------------------------------------------------------------===//
// (b) Budget exhaustion stays confined to its query
//===----------------------------------------------------------------------===//

TEST(EngineTest, BudgetExhaustionDoesNotPoisonOtherShards) {
  GenFixture F("soot-c");

  // A budget small enough that some queries blow it and some complete.
  AnalysisOptions Tiny;
  Tiny.BudgetPerQuery = 120;

  // Cold per-query ground truth: each query on a fresh analysis, so no
  // cache effects — the worst case any shard can hit.
  std::vector<QueryOutcome> Cold;
  for (pag::NodeId N : F.Nodes) {
    DynSumAnalysis A(*F.Built.Graph, Tiny);
    QueryResult R = A.query(N);
    Cold.push_back(QueryOutcome{R.allocSites(), R.BudgetExceeded, R.Status, R.Steps});
  }
  size_t NumExceeded = 0;
  for (const QueryOutcome &O : Cold)
    NumExceeded += O.BudgetExceeded;
  ASSERT_GT(NumExceeded, 0u) << "budget too large to exercise exhaustion";
  ASSERT_LT(NumExceeded, Cold.size()) << "budget too small: nothing completes";

  EngineOptions EO;
  EO.NumThreads = 4;
  EO.Analysis = Tiny;
  QueryScheduler S(*F.Built.Graph, EO);
  BatchResult R = S.run(F.Nodes);

  ASSERT_EQ(R.Outcomes.size(), Cold.size());
  size_t BatchExceeded = 0;
  for (size_t I = 0; I < Cold.size(); ++I) {
    BatchExceeded += R.Outcomes[I].BudgetExceeded;
    if (!Cold[I].BudgetExceeded) {
      // Summary reuse only removes traversal work, so a query that
      // completes cold must still complete — and a complete query's
      // answer is the full CFL answer, identical however it was reached.
      EXPECT_FALSE(R.Outcomes[I].BudgetExceeded) << "query " << I;
      EXPECT_EQ(R.Outcomes[I].AllocSites, Cold[I].AllocSites) << I;
    }
  }
  // And exhaustion never spreads: at most the cold-exceeded queries may
  // exceed in the batch.
  EXPECT_LE(BatchExceeded, NumExceeded);
}

//===----------------------------------------------------------------------===//
// (c) Warm start round-trips through the store's save and attach
//===----------------------------------------------------------------------===//

TEST(EngineTest, WarmStartRoundTripsThroughTheStore) {
  GenFixture F("jython");
  EngineOptions EO;
  EO.NumThreads = 4;
  std::string Path = ::testing::TempDir() + "/engine_warm.dsum";

  QueryScheduler First(*F.Built.Graph, EO);
  BatchResult Cold = First.run(F.Nodes);
  ASSERT_GT(First.store().size(), 0u);
  uint64_t Saved = 0;
  ASSERT_TRUE(First.store().save(Path, *F.Built.Graph, &Saved));
  EXPECT_EQ(Saved, First.store().size());

  QueryScheduler Second(*F.Built.Graph, EO);
  TieredSummaryStore::DiskTierStatus St =
      Second.store().attachDiskTier(Path, *F.Built.Graph);
  ASSERT_TRUE(St.Attached) << St.Error;
  EXPECT_EQ(St.Records, Saved);

  BatchResult Warm = Second.run(F.Nodes);
  EXPECT_EQ(Warm.Stats.SummariesComputed, 0u);
  ASSERT_EQ(Warm.Outcomes.size(), Cold.Outcomes.size());
  for (size_t I = 0; I < Cold.Outcomes.size(); ++I)
    EXPECT_EQ(Warm.Outcomes[I].AllocSites, Cold.Outcomes[I].AllocSites) << I;
  std::remove(Path.c_str());
}

/// A snapshot is a snapshot whoever wrote it: the engine's store and a
/// sequential DYNSUM instance's exchange store read each other's files.
TEST(EngineTest, WarmStartInteroperatesWithSequentialDynSum) {
  GenFixture F("jython");
  std::string Path = ::testing::TempDir() + "/engine_seq.dsum";
  EngineOptions EO;
  EO.NumThreads = 2;
  std::vector<QueryOutcome> Expected =
      runSequential(*F.Built.Graph, F.Nodes, AnalysisOptions());

  // Engine store -> sequential analysis.
  QueryScheduler S(*F.Built.Graph, EO);
  (void)S.run(F.Nodes);
  ASSERT_TRUE(S.store().save(Path, *F.Built.Graph));
  TieredSummaryStore SeqStore;
  ASSERT_TRUE(SeqStore.attachDiskTier(Path, *F.Built.Graph).Attached);
  DynSumAnalysis Seq(*F.Built.Graph, AnalysisOptions());
  Seq.setSummaryExchange(&SeqStore);
  for (size_t I = 0; I < F.Nodes.size(); ++I)
    EXPECT_EQ(Seq.query(F.Nodes[I]).allocSites(), Expected[I].AllocSites);
  EXPECT_EQ(Seq.summariesComputed(), 0u);

  // Sequential analysis -> engine store.
  TieredSummaryStore ProducerStore;
  DynSumAnalysis Producer(*F.Built.Graph, AnalysisOptions());
  Producer.setSummaryExchange(&ProducerStore);
  for (pag::NodeId N : F.Nodes)
    (void)Producer.query(N);
  ASSERT_GT(Producer.cacheSize(), 0u);
  uint64_t Saved = 0;
  ASSERT_TRUE(ProducerStore.save(Path, *F.Built.Graph, &Saved));
  EXPECT_EQ(Saved, Producer.cacheSize());
  QueryScheduler Fresh(*F.Built.Graph, EO);
  ASSERT_EQ(Fresh.store().attachDiskTier(Path, *F.Built.Graph).Records, Saved);
  BatchResult Warm = Fresh.run(F.Nodes);
  EXPECT_EQ(Warm.Stats.SummariesComputed, 0u);
  for (size_t I = 0; I < F.Nodes.size(); ++I)
    EXPECT_EQ(Warm.Outcomes[I].AllocSites, Expected[I].AllocSites) << I;
  std::remove(Path.c_str());
}

TEST(EngineTest, WarmStartRejectsDifferentProgram) {
  GenFixture A("jython");
  GenFixture B("soot-c");
  std::string Path = ::testing::TempDir() + "/engine_other.dsum";

  QueryScheduler SA(*A.Built.Graph, EngineOptions());
  (void)SA.run(A.Nodes);
  ASSERT_TRUE(SA.store().save(Path, *A.Built.Graph));

  QueryScheduler SB(*B.Built.Graph, EngineOptions());
  EXPECT_FALSE(SB.store().attachDiskTier(Path, *B.Built.Graph).Attached);
  EXPECT_FALSE(SB.store().hasDiskTier());
  EXPECT_EQ(SB.store().size(), 0u);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Engine plumbing
//===----------------------------------------------------------------------===//

TEST(EngineTest, EmptyBatchAndThreadClamping) {
  GenFixture F("soot-c");
  EngineOptions EO;
  EO.NumThreads = 8;
  QueryScheduler S(*F.Built.Graph, EO);

  BatchResult R = S.run(QueryBatch());
  EXPECT_TRUE(R.Outcomes.empty());

  // Never more workers than queries.
  EXPECT_EQ(S.effectiveThreads(3), 3u);
  EXPECT_EQ(S.effectiveThreads(100), 8u);

  QueryBatch One;
  One.add(F.Nodes.front());
  BatchResult R1 = S.run(One);
  ASSERT_EQ(R1.Outcomes.size(), 1u);
  EXPECT_EQ(R1.Stats.ThreadsUsed, 1u);
}
