//===----------------------------------------------------------------------===//
///
/// \file
/// Representation-equivalence tests for the kind-partitioned CSR PAG
/// and the iterative PPTA engine.
///
/// tests/golden/csr_corpus.txt holds the answer of every query in the
/// engine-test corpus (soot-c and jython at 1/64 scale, every 37th
/// local), captured from the seed implementation (per-node
/// vector-of-vectors adjacency, recursive PptaEngine::visit) before the
/// CSR/worklist rewrite.  The tests assert that the rewritten stack
/// reproduces those answers bit-for-bit — sequentially and through the
/// batched engine at 1 and N threads — plus structural CSR invariants
/// and a >100k-deep assign chain that would have overflowed the
/// recursive engine's call stack.
///
//===----------------------------------------------------------------------===//

#include "analysis/DynSum.h"
#include "engine/QueryScheduler.h"
#include "ir/Builder.h"
#include "pag/PAGBuilder.h"
#include "workload/Generator.h"

#include "IrEditFuzzer.h"
#include "RepackCorpus.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace dynsum;
using namespace dynsum::analysis;

namespace {

/// One golden record: the canonical alloc-site answer of a query.
struct GoldenEntry {
  bool BudgetExceeded = false;
  std::vector<ir::AllocId> AllocSites;
};

/// Parses tests/golden/csr_corpus.txt ("<spec> <idx> <exceeded> : a...").
std::map<std::string, std::vector<GoldenEntry>> loadGolden() {
  std::map<std::string, std::vector<GoldenEntry>> Out;
  std::ifstream In(std::string(DYNSUM_TESTS_DIR) + "/golden/csr_corpus.txt");
  EXPECT_TRUE(In.good()) << "missing golden corpus file";
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    std::istringstream LS(Line);
    std::string Spec, Colon;
    size_t Idx = 0;
    int Exceeded = 0;
    LS >> Spec >> Idx >> Exceeded >> Colon;
    EXPECT_EQ(Colon, ":") << "malformed golden line: " << Line;
    GoldenEntry E;
    E.BudgetExceeded = Exceeded != 0;
    ir::AllocId A = 0;
    while (LS >> A)
      E.AllocSites.push_back(A);
    EXPECT_EQ(Out[Spec].size(), Idx) << "golden lines out of order";
    Out[Spec].push_back(std::move(E));
  }
  return Out;
}

/// The exact corpus the golden file was generated from.
struct Corpus {
  explicit Corpus(const char *SpecName) {
    workload::GenOptions GO;
    GO.Scale = 1.0 / 64;
    Prog = workload::generateProgram(workload::specByName(SpecName), GO);
    Built = pag::buildPAG(*Prog);
    for (const ir::Variable &V : Prog->variables())
      if (!V.IsGlobal && V.Id % 37 == 0)
        Nodes.push_back(Built.Graph->nodeOfVar(V.Id));
  }

  std::unique_ptr<ir::Program> Prog;
  pag::BuiltPAG Built;
  std::vector<pag::NodeId> Nodes;
};

} // namespace

//===----------------------------------------------------------------------===//
// Query results are identical across the representation change
//===----------------------------------------------------------------------===//

TEST(CsrEquivalenceTest, SequentialMatchesSeedGolden) {
  auto Golden = loadGolden();
  for (const char *Spec : {"soot-c", "jython"}) {
    Corpus C(Spec);
    const std::vector<GoldenEntry> &G = Golden[Spec];
    ASSERT_EQ(C.Nodes.size(), G.size()) << Spec;

    DynSumAnalysis A(*C.Built.Graph, AnalysisOptions());
    for (size_t I = 0; I < C.Nodes.size(); ++I) {
      QueryResult R = A.query(C.Nodes[I]);
      EXPECT_EQ(R.BudgetExceeded, G[I].BudgetExceeded)
          << Spec << " query " << I;
      EXPECT_EQ(R.allocSites(), G[I].AllocSites) << Spec << " query " << I;
    }
  }
}

TEST(CsrEquivalenceTest, BatchedEngineMatchesSeedGoldenAt1AndNThreads) {
  auto Golden = loadGolden();
  for (const char *Spec : {"soot-c", "jython"}) {
    Corpus C(Spec);
    const std::vector<GoldenEntry> &G = Golden[Spec];
    ASSERT_EQ(C.Nodes.size(), G.size()) << Spec;

    for (unsigned Threads : {1u, 4u}) {
      engine::EngineOptions EO;
      EO.NumThreads = Threads;
      engine::QueryScheduler S(*C.Built.Graph, EO);
      engine::BatchResult R = S.run(C.Nodes);
      ASSERT_EQ(R.Outcomes.size(), G.size());
      for (size_t I = 0; I < G.size(); ++I) {
        EXPECT_EQ(R.Outcomes[I].BudgetExceeded, G[I].BudgetExceeded)
            << Spec << " query " << I << " at " << Threads << " threads";
        EXPECT_EQ(R.Outcomes[I].AllocSites, G[I].AllocSites)
            << Spec << " query " << I << " at " << Threads << " threads";
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// CSR structural invariants
//===----------------------------------------------------------------------===//

TEST(CsrStructureTest, KindSpansPartitionTheNodeSpan) {
  Corpus C("soot-c");
  const pag::PAG &G = *C.Built.Graph;
  for (pag::NodeId N = 0; N < G.numNodes(); ++N) {
    size_t InTotal = 0, OutTotal = 0;
    for (unsigned K = 0; K < pag::kNumEdgeKinds; ++K) {
      pag::EdgeKind Kind = pag::EdgeKind(K);
      for (pag::EdgeId E : G.inEdgesOfKind(N, Kind)) {
        EXPECT_EQ(G.edge(E).Kind, Kind);
        EXPECT_EQ(G.edge(E).Dst, N);
        ++InTotal;
      }
      for (pag::EdgeId E : G.outEdgesOfKind(N, Kind)) {
        EXPECT_EQ(G.edge(E).Kind, Kind);
        EXPECT_EQ(G.edge(E).Src, N);
        ++OutTotal;
      }
    }
    EXPECT_EQ(InTotal, G.inEdges(N).size()) << "node " << N;
    EXPECT_EQ(OutTotal, G.outEdges(N).size()) << "node " << N;
  }
}

TEST(CsrStructureTest, EveryEdgeAppearsOncePerDirection) {
  Corpus C("jython");
  const pag::PAG &G = *C.Built.Graph;
  std::vector<unsigned> InSeen(G.numEdges(), 0), OutSeen(G.numEdges(), 0);
  size_t InTotal = 0, OutTotal = 0;
  for (pag::NodeId N = 0; N < G.numNodes(); ++N) {
    for (pag::EdgeId E : G.inEdges(N)) {
      ++InSeen[E];
      ++InTotal;
    }
    for (pag::EdgeId E : G.outEdges(N)) {
      ++OutSeen[E];
      ++OutTotal;
    }
  }
  EXPECT_EQ(InTotal, G.numEdges());
  EXPECT_EQ(OutTotal, G.numEdges());
  for (pag::EdgeId E = 0; E < G.numEdges(); ++E) {
    EXPECT_EQ(InSeen[E], 1u) << "edge " << E;
    EXPECT_EQ(OutSeen[E], 1u) << "edge " << E;
  }
}

TEST(CsrStructureTest, FieldSpansHoldExactlyTheLabelledAccesses) {
  Corpus C("soot-c");
  const pag::PAG &G = *C.Built.Graph;
  std::vector<size_t> Stores(C.Prog->fields().size(), 0);
  std::vector<size_t> Loads(C.Prog->fields().size(), 0);
  for (pag::EdgeId E = 0; E < G.numEdges(); ++E) {
    if (G.edge(E).Kind == pag::EdgeKind::Store)
      ++Stores[G.edge(E).Aux];
    else if (G.edge(E).Kind == pag::EdgeKind::Load)
      ++Loads[G.edge(E).Aux];
  }
  for (ir::FieldId F = 0; F < C.Prog->fields().size(); ++F) {
    EXPECT_EQ(G.storesOfField(F).size(), Stores[F]) << "field " << F;
    EXPECT_EQ(G.loadsOfField(F).size(), Loads[F]) << "field " << F;
    for (pag::EdgeId E : G.storesOfField(F)) {
      EXPECT_EQ(G.edge(E).Kind, pag::EdgeKind::Store);
      EXPECT_EQ(G.edge(E).Aux, F);
    }
    for (pag::EdgeId E : G.loadsOfField(F)) {
      EXPECT_EQ(G.edge(E).Kind, pag::EdgeKind::Load);
      EXPECT_EQ(G.edge(E).Aux, F);
    }
  }
}

//===----------------------------------------------------------------------===//
// Dirty-partition repacks: the incremental CSR keeps its invariants
// through growth (region relocation), shrink (holes) and slot reuse
//===----------------------------------------------------------------------===//

namespace {

/// Re-checks every CSR invariant on \p G, tolerating the relocation
/// holes and dead slots a delta repack leaves behind.
void expectCsrInvariants(const pag::PAG &G) {
  std::vector<unsigned> InSeen(G.numEdgeSlots(), 0),
      OutSeen(G.numEdgeSlots(), 0);
  for (pag::NodeId N = 0; N < G.numNodes(); ++N) {
    size_t InTotal = 0, OutTotal = 0;
    for (unsigned K = 0; K < pag::kNumEdgeKinds; ++K) {
      pag::EdgeKind Kind = pag::EdgeKind(K);
      for (pag::EdgeId E : G.inEdgesOfKind(N, Kind)) {
        ASSERT_TRUE(G.edgeAlive(E));
        EXPECT_EQ(G.edge(E).Kind, Kind);
        EXPECT_EQ(G.edge(E).Dst, N);
        ++InSeen[E];
        ++InTotal;
      }
      for (pag::EdgeId E : G.outEdgesOfKind(N, Kind)) {
        ASSERT_TRUE(G.edgeAlive(E));
        EXPECT_EQ(G.edge(E).Kind, Kind);
        EXPECT_EQ(G.edge(E).Src, N);
        ++OutSeen[E];
        ++OutTotal;
      }
    }
    EXPECT_EQ(InTotal, G.inEdges(N).size()) << "node " << N;
    EXPECT_EQ(OutTotal, G.outEdges(N).size()) << "node " << N;
  }
  for (pag::EdgeId E = 0; E < G.numEdgeSlots(); ++E) {
    unsigned Want = G.edgeAlive(E) ? 1 : 0;
    EXPECT_EQ(InSeen[E], Want) << "edge " << E;
    EXPECT_EQ(OutSeen[E], Want) << "edge " << E;
  }
  dynsum::testing::checkCallBuckets(G);
}

/// Appends \p Count alloc+assign pairs to \p M, each assigning into
/// \p M's first local: that node's in-bucket grows every round, so its
/// CSR region must relocate (leaving a hole) on every delta repack.
void growMethod(ir::Program &P, ir::MethodId M, unsigned Count) {
  ir::VarId Base = ir::kNone;
  for (const ir::Variable &V : P.variables())
    if (!V.IsGlobal && V.Owner == M) {
      Base = V.Id;
      break;
    }
  for (unsigned I = 0; I < Count; ++I) {
    ir::VarId V = P.createLocal(
        P.name("grow" + std::to_string(P.variables().size())), M,
        ir::kObjectType);
    ir::Statement S;
    S.Kind = ir::StmtKind::Alloc;
    S.Dst = V;
    S.Type = ir::kObjectType;
    S.Alloc = P.createAllocSite(ir::kObjectType, M, Symbol{});
    P.addStatement(M, std::move(S));
    if (Base != ir::kNone) {
      ir::Statement A;
      A.Kind = ir::StmtKind::Assign;
      A.Src = V;
      A.Dst = Base;
      P.addStatement(M, std::move(A));
    }
  }
}

} // namespace

TEST(CsrDeltaRepackTest, GrowShrinkAndReuseKeepInvariants) {
  workload::GenOptions GO;
  GO.Scale = 1.0 / 128;
  auto Prog = workload::generateProgram(workload::specByName("soot-c"), GO);
  pag::BuiltPAG Built = pag::buildPAG(*Prog);
  pag::PAG &G = *Built.Graph;

  // Grow one method hard: its nodes' regions outgrow their slots and
  // must relocate to the array tail.
  ir::MethodId M0 = Prog->methods()[3].Id;
  growMethod(*Prog, M0, 40);
  pag::DeltaStats DS = pag::buildPAGDelta(G, Built.Calls);
  EXPECT_FALSE(DS.Compacted);
  EXPECT_EQ(DS.Relowered.size(), 1u);
  expectCsrInvariants(G);

  // Shrink another method to nothing: dead slots + in-place holes.
  ir::MethodId M1 = Prog->methods()[5].Id;
  size_t Before = G.numEdges();
  size_t SegmentSize = G.segmentEdges(M1).size();
  ASSERT_GT(SegmentSize, 0u);
  Prog->method(M1).Stmts.clear();
  Prog->touchMethod(M1);
  pag::buildPAGDelta(G, Built.Calls);
  EXPECT_LT(G.numEdges(), Before);
  EXPECT_TRUE(G.segmentEdges(M1).empty());
  EXPECT_GT(G.deadEdgeSlots(), 0u);
  expectCsrInvariants(G);

  // Refill it: freed slots are reused, buckets rebuilt once more.
  growMethod(*Prog, M1, unsigned(SegmentSize));
  pag::buildPAGDelta(G, Built.Calls);
  expectCsrInvariants(G);
}

TEST(CsrDeltaRepackTest, AccumulatedSlackTriggersCompaction) {
  workload::GenOptions GO;
  GO.Scale = 1.0 / 256;
  auto Prog = workload::generateProgram(workload::specByName("soot-c"), GO);
  pag::BuiltPAG Built = pag::buildPAG(*Prog);
  pag::PAG &G = *Built.Graph;

  // Hammer one method: its first local's in-bucket grows every round,
  // so the region relocates each repack and the abandoned copies pile
  // up quadratically until the slack policy forces a compacting full
  // pack; invariants must hold before and after.
  ir::MethodId M = Prog->methods()[1].Id;
  bool SawCompaction = false;
  for (unsigned Round = 0; Round < 80 && !SawCompaction; ++Round) {
    growMethod(*Prog, M, 16);
    pag::DeltaStats DS = pag::buildPAGDelta(G, Built.Calls);
    SawCompaction |= DS.Compacted;
    if (Round % 10 == 0)
      expectCsrInvariants(G);
  }
  EXPECT_TRUE(SawCompaction) << "slack never crossed the compaction bar";
  EXPECT_EQ(G.deadEdgeSlots(), 0u) << "compaction must reclaim dead slots";
  expectCsrInvariants(G);

  // After compaction the full pack is dense again: every slot is live
  // and the classic seed invariant (edge ids 0..numEdges) holds.
  EXPECT_EQ(G.numEdges(), G.numEdgeSlots());
}

//===----------------------------------------------------------------------===//
// Partitioned repack boundaries: the repack corpus drives dirty buckets
// adjacent across worker ranges, tail relocations, slot reuse and a
// slack-triggered compaction mid-sequence; answers must match the
// golden "repack-r<N>" sections captured from the serial seed build, at
// every repack worker count.
//===----------------------------------------------------------------------===//

TEST(CsrRepackGoldenTest, PartitionedRepackMatchesSeedGoldenAtAllThreads) {
  auto Golden = loadGolden();
  for (unsigned Threads : {1u, 2u, 8u}) {
    auto Prog = dynsum::testing::buildRepackCorpusProgram();
    ir::Program &P = *Prog;
    pag::PAG G(P);
    pag::CallGraph Calls;
    pag::buildPAGDelta(G, Calls, nullptr, false, Threads);

    bool SawCompaction = false, SawIncremental = false;
    for (unsigned Round = 0; Round < dynsum::testing::kRepackRounds;
         ++Round) {
      dynsum::testing::applyRepackRound(P, Round);
      pag::DeltaStats DS =
          pag::buildPAGDelta(G, Calls, nullptr, false, Threads);
      SawCompaction |= DS.Compacted;
      SawIncremental |= !DS.Compacted;
      expectCsrInvariants(G);

      const std::vector<GoldenEntry> &Gold =
          Golden["repack-r" + std::to_string(Round)];
      std::vector<ir::VarId> Probe =
          dynsum::testing::repackProbeVariables(P);
      ASSERT_EQ(Probe.size(), Gold.size())
          << "round " << Round << ": corpus drifted from its golden";

      DynSumAnalysis A(G, AnalysisOptions());
      for (size_t I = 0; I < Probe.size(); ++I) {
        QueryResult R = A.query(G.nodeOfVar(Probe[I]));
        EXPECT_EQ(R.BudgetExceeded, Gold[I].BudgetExceeded)
            << "threads " << Threads << ", round " << Round << ", probe "
            << I;
        EXPECT_EQ(R.allocSites(), Gold[I].AllocSites)
            << "threads " << Threads << ", round " << Round << ", probe "
            << I;
      }
    }
    EXPECT_TRUE(SawCompaction)
        << "the hammer rounds must cross the compaction bar";
    EXPECT_TRUE(SawIncremental)
        << "the structured rounds must exercise the partitioned repack";
  }
}

//===----------------------------------------------------------------------===//
// Deep chains: the worklist engine cannot overflow the call stack
//===----------------------------------------------------------------------===//

TEST(CsrEquivalenceTest, DeepAssignChainIsAnsweredWithoutRecursion) {
  // v0 = new A; v1 = v0; ...; v120000 = v119999.  The seed's recursive
  // visit() would push one native stack frame per assign and overflow;
  // the explicit worklist answers it in bounded stack space.
  constexpr uint32_t ChainLen = 120000;
  ir::ProgramBuilder B;
  B.cls("A");
  ir::MethodId M = B.method("main");
  B.alloc(M, "v0", "A", "origin");
  std::string Prev = "v0";
  for (uint32_t I = 1; I <= ChainLen; ++I) {
    std::string Cur = "v" + std::to_string(I);
    B.assign(M, Cur, Prev);
    Prev = Cur;
  }
  std::unique_ptr<ir::Program> Prog = B.takeProgram();
  pag::BuiltPAG Built = pag::buildPAG(*Prog);

  AnalysisOptions Opts;
  Opts.BudgetPerQuery = uint64_t(ChainLen) * 4; // chain must fit in budget
  DynSumAnalysis A(*Built.Graph, Opts);

  ir::VarId Tail = ir::kNone;
  Symbol TailName = Prog->names().lookup(Prev);
  for (const ir::Variable &V : Prog->variables())
    if (V.Name == TailName)
      Tail = V.Id;
  ASSERT_NE(Tail, ir::kNone);

  QueryResult R = A.query(Built.Graph->nodeOfVar(Tail));
  EXPECT_FALSE(R.BudgetExceeded);
  ASSERT_EQ(R.allocSites().size(), 1u);
  EXPECT_EQ(R.allocSites()[0], 0u); // the single allocation site
}
