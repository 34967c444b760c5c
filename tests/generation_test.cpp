//===----------------------------------------------------------------------===//
///
/// \file
/// Generation-lifetime tests for the copy-on-write snapshot machinery:
/// retained generations must answer DynSum queries bit-identically to
/// their capture time while later commits rewrite the current graph in
/// place; PAG snapshots destroyed in arbitrary order must free their
/// chunks exactly once (ASan/TSan verify); retained memory must be
/// proportional to the committed deltas, not to program size; and the
/// shared-store warm path (service.shared_over_clear_all in the bench)
/// is pinned here via the per-store counters so the cliff ROADMAP.md
/// records cannot regress silently again.
///
//===----------------------------------------------------------------------===//

#include "service/AnalysisService.h"

#include "analysis/DynSum.h"
#include "incremental/Invalidation.h"
#include "pag/PAGBuilder.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <random>
#include <unordered_set>
#include <thread>
#include <vector>

using namespace dynsum;
using namespace dynsum::service;
using analysis::AnalysisOptions;
using workload::applyScriptEdit;
using workload::probeVariables;

namespace {

std::unique_ptr<ir::Program> makeWorkload(uint64_t Seed = 7) {
  workload::GenOptions GO;
  GO.Scale = 1.0 / 256;
  GO.Seed = Seed;
  return workload::generateProgram(workload::specByName("soot-c"), GO);
}

std::vector<std::vector<ir::AllocId>>
answersOf(const ServiceBatchResult &R) {
  std::vector<std::vector<ir::AllocId>> Out;
  Out.reserve(R.Outcomes.size());
  for (const engine::QueryOutcome &O : R.Outcomes)
    Out.push_back(O.AllocSites);
  return Out;
}

} // namespace

/// Each retained generation keeps answering exactly as it did when it
/// was the current one, no matter how many commits rewrite the current
/// graph afterwards — the chunk tables it shares with its successors
/// must never observe their writes.
TEST(GenerationTest, RetainedGenerationsAnswerAtCaptureTime) {
  constexpr unsigned kCommits = 5;

  ServiceOptions SO;
  SO.KeepGenerations = kCommits; // retain the full history
  AnalysisService S(makeWorkload(), SO);
  std::vector<ir::VarId> Probe = probeVariables(S.program(), 61);
  ASSERT_GT(Probe.size(), 8u);

  // Capture (generation number, answers) after every commit.
  std::vector<std::pair<uint64_t, std::vector<std::vector<ir::AllocId>>>>
      Captured;
  Captured.emplace_back(S.generation(), answersOf(S.queryVars(Probe)));
  for (unsigned I = 0; I < kCommits; ++I) {
    S.editProgram([I](ir::Program &Q) { return applyScriptEdit(Q, I); });
    S.submitCommit().wait();
    Captured.emplace_back(S.generation(), answersOf(S.queryVars(Probe)));
  }

  // The history holds every superseded generation plus the current one.
  std::vector<GenerationInfo> Gens = S.generations();
  ASSERT_EQ(Gens.size(), kCommits + 1);
  EXPECT_TRUE(Gens.back().IsCurrent);
  for (size_t I = 0; I + 1 < Gens.size(); ++I) {
    EXPECT_FALSE(Gens[I].IsCurrent);
    EXPECT_LT(Gens[I].Number, Gens[I + 1].Number);
  }

  // Replay every capture against its retained snapshot.
  for (const auto &[Gen, Expected] : Captured) {
    std::optional<ServiceBatchResult> R = S.queryVarsAt(Gen, Probe);
    ASSERT_TRUE(R.has_value()) << "generation " << Gen << " not retained";
    EXPECT_EQ(R->Generation, Gen);
    EXPECT_EQ(answersOf(*R), Expected)
        << "generation " << Gen << " drifted from its capture";
  }

  // The edits were not no-ops: at least one capture pair differs.
  bool AnyDiff = false;
  for (size_t I = 0; I + 1 < Captured.size(); ++I)
    AnyDiff |= Captured[I].second != Captured[I + 1].second;
  EXPECT_TRUE(AnyDiff) << "edit script never changed a probe answer";
}

/// The history ring trims to KeepGenerations; evicted snapshots stop
/// being queryable and release their exclusively held chunks.
TEST(GenerationTest, HistoryTrimsToKeepGenerations) {
  ServiceOptions SO;
  SO.KeepGenerations = 2;
  AnalysisService S(makeWorkload(), SO);
  std::vector<ir::VarId> Probe = probeVariables(S.program(), 61);

  uint64_t FirstGen = S.generation();
  for (unsigned I = 0; I < 4; ++I) {
    S.editProgram([I](ir::Program &Q) { return applyScriptEdit(Q, I); });
    S.submitCommit().wait();
  }

  std::vector<GenerationInfo> Gens = S.generations();
  ASSERT_EQ(Gens.size(), 3u) << "2 retained + current";
  EXPECT_FALSE(S.queryVarsAt(FirstGen, Probe).has_value())
      << "evicted generation must not answer";
  EXPECT_TRUE(S.queryVarsAt(Gens.front().Number, Probe).has_value());
  EXPECT_EQ(S.stats().RetainedGenerations, 2u);
}

/// Retaining a generation behind a single-method delta commit costs
/// memory proportional to the delta: the retained snapshot's exclusive
/// bytes are a small fraction of the full graph footprint, and far
/// below what a Scratch commit (which rewrites every chunk) retains.
TEST(GenerationTest, RetainedMemoryProportionalToDelta) {
  // ~850 methods so the chunk tables span a couple hundred chunks; at
  // the default test scale every table is a single chunk and one write
  // splits it all, which is granularity, not leakage.
  auto MakeProgram = [] {
    workload::GenOptions GO;
    GO.Scale = 1.0 / 4;
    GO.Seed = 7;
    return workload::generateProgram(workload::specByName("soot-c"), GO);
  };

  auto RetainedAfter = [&](CommitMode Mode) {
    ServiceOptions SO;
    SO.KeepGenerations = 1;
    AnalysisService S(MakeProgram(), SO);
    S.editProgram([](ir::Program &Q) { return applyScriptEdit(Q, 0); });
    S.submitCommit({Mode, /*Background=*/false}).wait();
    std::vector<GenerationInfo> Gens = S.generations();
    EXPECT_EQ(Gens.size(), 2u);
    EXPECT_FALSE(Gens.front().IsCurrent);
    return Gens.front();
  };

  GenerationInfo Delta = RetainedAfter(CommitMode::Delta);
  ASSERT_GT(Delta.TotalBytes, 0u);
  EXPECT_GT(Delta.RetainedBytes, 0u)
      << "a delta commit must split at least one chunk";
  // The one-method delta touches a bounded set of chunks; the bench
  // gates the 100k-method build at 5%, this scale lands around 12%.
  EXPECT_LT(Delta.RetainedBytes, Delta.TotalBytes / 4)
      << "retained generation duplicates too much of the graph";

  // Scale-independent version of the same claim: a Scratch commit
  // rewrites every method, so it must strand several times more bytes
  // in the retained snapshot than the single-method delta does.
  GenerationInfo Scratch = RetainedAfter(CommitMode::Scratch);
  EXPECT_GT(Scratch.RetainedBytes, 2 * Delta.RetainedBytes)
      << "delta commits no longer share most chunks with the snapshot";
}

/// PAG snapshots form a copy chain patched between captures; destroying
/// them in shuffled orders (including mid-chain first) must leave every
/// survivor answering exactly its capture-time results.  Under ASan
/// this also proves each chunk is freed exactly once.
TEST(GenerationTest, SnapshotChainSurvivesShuffledDestruction) {
  constexpr unsigned kSnapshots = 6;

  for (uint64_t Seed : {1u, 2u, 3u}) {
    auto P = makeWorkload();
    std::vector<ir::VarId> Probe = probeVariables(*P, 61);
    pag::BuiltPAG Built = pag::buildPAG(*P);

    struct Snapshot {
      std::unique_ptr<pag::PAG> Graph;
      pag::CallGraph Calls;
      std::vector<std::vector<ir::AllocId>> Answers;
    };
    auto answersOn = [&](const pag::PAG &G) {
      analysis::DynSumAnalysis A(G, AnalysisOptions());
      std::vector<std::vector<ir::AllocId>> Out;
      for (ir::VarId V : Probe)
        Out.push_back(A.query(G.nodeOfVar(V)).allocSites());
      return Out;
    };

    std::vector<std::unique_ptr<Snapshot>> Snaps;
    for (unsigned I = 0; I < kSnapshots; ++I) {
      auto Snap = std::make_unique<Snapshot>();
      Snap->Graph = std::make_unique<pag::PAG>(*Built.Graph); // CoW copy
      Snap->Calls = Built.Calls;
      Snap->Answers = answersOn(*Snap->Graph);
      Snaps.push_back(std::move(Snap));
      applyScriptEdit(*P, I);
      pag::buildPAGDelta(*Built.Graph, Built.Calls);
    }

    std::vector<size_t> Order(Snaps.size());
    std::iota(Order.begin(), Order.end(), 0u);
    std::mt19937 Rng(Seed * 7919);
    std::shuffle(Order.begin(), Order.end(), Rng);

    for (size_t Victim : Order) {
      Snaps[Victim].reset();
      for (size_t I = 0; I < Snaps.size(); ++I) {
        if (!Snaps[I])
          continue;
        EXPECT_EQ(answersOn(*Snaps[I]->Graph), Snaps[I]->Answers)
            << "snapshot " << I << " drifted after destroying " << Victim
            << " (seed " << Seed << ")";
      }
    }
  }
}

/// Readers streaming batches against retained generations while commits
/// rewrite the current graph: every answer must match its generation's
/// capture (TSan additionally proves the chunk refcounts and the
/// history ring are race-free).
TEST(GenerationTest, ConcurrentReadersOnRetainedGenerations) {
  constexpr unsigned kCommits = 4;
  constexpr unsigned kReaders = 3;

  ServiceOptions SO;
  SO.KeepGenerations = kCommits;
  AnalysisService S(makeWorkload(), SO);
  std::vector<ir::VarId> Probe = probeVariables(S.program(), 61);

  // Capture the baseline generation, then race readers against commits.
  std::vector<std::pair<uint64_t, std::vector<std::vector<ir::AllocId>>>>
      Captured;
  std::mutex CapturedMutex;
  Captured.emplace_back(S.generation(), answersOf(S.queryVars(Probe)));

  std::atomic<bool> Done{false};
  std::atomic<uint64_t> Replays{0};
  std::vector<std::thread> Readers;
  for (unsigned W = 0; W < kReaders; ++W)
    Readers.emplace_back([&, W] {
      std::mt19937 Rng(W * 31 + 5);
      do {
        std::pair<uint64_t, std::vector<std::vector<ir::AllocId>>> Pick;
        {
          std::lock_guard<std::mutex> Lock(CapturedMutex);
          Pick = Captured[Rng() % Captured.size()];
        }
        std::optional<ServiceBatchResult> R = S.queryVarsAt(Pick.first, Probe);
        if (!R.has_value())
          continue; // evicted between pick and query (keep == kCommits
                    // so this only happens for a racing rollback)
        ASSERT_EQ(answersOf(*R), Pick.second)
            << "generation " << Pick.first << " drifted under readers";
        Replays.fetch_add(1, std::memory_order_relaxed);
      } while (!Done.load(std::memory_order_relaxed));
    });

  for (unsigned I = 0; I < kCommits; ++I) {
    S.editProgram([I](ir::Program &Q) { return applyScriptEdit(Q, I); });
    S.submitCommit().wait();
    auto Capture =
        std::make_pair(S.generation(), answersOf(S.queryVars(Probe)));
    std::lock_guard<std::mutex> Lock(CapturedMutex);
    Captured.push_back(std::move(Capture));
  }
  Done.store(true, std::memory_order_relaxed);
  for (std::thread &T : Readers)
    T.join();
  EXPECT_GT(Replays.load(), 0u);
}

/// rollback() republishes a retained snapshot in O(1): subsequent
/// queries answer exactly as that generation did at capture, under a
/// fresh generation number (the lineage branched, so summaries reset).
TEST(GenerationTest, RollbackRestoresCaptureAnswers) {
  ServiceOptions SO;
  SO.KeepGenerations = 3;
  AnalysisService S(makeWorkload(), SO);
  std::vector<ir::VarId> Probe = probeVariables(S.program(), 61);

  S.editProgram([](ir::Program &Q) { return applyScriptEdit(Q, 0); });
  S.submitCommit().wait();
  uint64_t TargetGen = S.generation();
  auto TargetAnswers = answersOf(S.queryVars(Probe));

  S.editProgram([](ir::Program &Q) { return applyScriptEdit(Q, 1); });
  S.submitCommit().wait();
  uint64_t HeadGen = S.generation();
  EXPECT_GT(HeadGen, TargetGen);

  EXPECT_FALSE(S.rollback(HeadGen + 1000)) << "unknown generation";
  ASSERT_TRUE(S.rollback(TargetGen));
  EXPECT_GT(S.generation(), HeadGen)
      << "rollback republishes under a fresh, monotonic number";
  EXPECT_EQ(answersOf(S.queryVars(Probe)), TargetAnswers);
  EXPECT_EQ(S.stats().Rollbacks, 1u);

  // The service keeps committing normally after a rollback: the next
  // delta builds on the republished snapshot, not the abandoned head.
  S.editProgram([](ir::Program &Q) { return applyScriptEdit(Q, 2); });
  incremental::CommitStats CS = S.submitCommit().wait();
  EXPECT_GT(CS.MethodsRelowered, 0u);
  EXPECT_EQ(S.queryVars(Probe).Outcomes.size(), Probe.size());
}

/// After a single-method commit the shared store stays warm: the
/// commit drops only the summaries its invalidation plan names, and the
/// re-query hits the survivors.  The per-store counters make this
/// measurable: if an engine change stops fetching from the shared store
/// or invalidation turns indiscriminate, this fails.
TEST(GenerationTest, SharedStoreStaysWarmAcrossCommit) {
  AnalysisService S(makeWorkload());
  std::vector<ir::VarId> Probe = probeVariables(S.program(), 61);
  (void)S.queryVars(Probe); // warm the store
  size_t WarmSize = S.stats().StoreSize;

  S.editProgram([](ir::Program &Q) { return applyScriptEdit(Q, 0); });
  S.submitCommit().wait();

  ServiceStats Committed = S.stats();
  EXPECT_GT(Committed.StoreSize, 0u);
  EXPECT_LT(Committed.Store.Invalidated, WarmSize)
      << "per-method invalidation turned indiscriminate";

  (void)S.queryVars(Probe); // the gated re-query
  EXPECT_GT(S.stats().Store.Hits, Committed.Store.Hits)
      << "re-query after a per-method commit never hit the shared store";
}

/// The O(delta) invalidation patch (carried snapshot + the repack's
/// dirty-node list) must produce exactly the plan a full
/// position-for-position diff would, and must leave the carried
/// snapshot bit-identical to a fresh sweep of the new graph — for a
/// chain of edits, so a patched snapshot is a valid carry for the next
/// patch.
TEST(GenerationTest, PatchedInvalidationMatchesFullDiff) {
  auto P = makeWorkload(11);
  pag::BuiltPAG Built = pag::buildPAG(*P);
  pag::PAG &G = *Built.Graph;

  incremental::BoundarySnapshot Carried = incremental::snapshotBoundary(G);
  for (int I = 0; I < 6; ++I) {
    applyScriptEdit(*P, I);
    // Full-diff reference needs the pre-edit flags; the patch path
    // reuses Carried from the previous round.
    incremental::BoundarySnapshot Old = Carried;
    pag::DeltaStats DS = pag::buildPAGDelta(G, Built.Calls);
    std::unordered_set<ir::MethodId> Dirty(DS.Touched.begin(),
                                           DS.Touched.end());
    incremental::InvalidationPlan Full =
        incremental::planInvalidation(Old, G, Dirty);
    ASSERT_FALSE(G.lastRepackCompacted())
        << "edit " << I << " compacted; pick a smaller edit script";
    incremental::InvalidationPlan Patched = incremental::patchInvalidation(
        Carried, G, G.lastRepackAffectedNodes(), Dirty);
    EXPECT_EQ(Patched.Methods, Full.Methods) << "plan diverged at edit " << I;

    incremental::BoundarySnapshot Fresh = incremental::snapshotBoundary(G);
    ASSERT_EQ(Carried.Flags.size(), Fresh.Flags.size());
    for (size_t N = 0; N < Fresh.Flags.size(); ++N) {
      const incremental::BoundaryFlags &A = Carried.Flags[N];
      const incremental::BoundaryFlags &B = Fresh.Flags[N];
      ASSERT_TRUE(A.Method == B.Method && A.HasLocalEdge == B.HasLocalEdge &&
                  A.HasGlobalIn == B.HasGlobalIn &&
                  A.HasGlobalOut == B.HasGlobalOut)
          << "patched snapshot diverged at node " << N << " after edit " << I;
    }
  }
}
