//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the concurrent incremental layer: SharedSummaryStore
/// generations (stale-epoch fetches must miss, stale publishes must
/// drop) and the AnalysisService — including a commit-while-querying
/// run at 4 reader threads whose every batch must match a cold serial
/// rerun of the generation it reports, and snapshot save/load across
/// restarts.
///
//===----------------------------------------------------------------------===//

#include "service/AnalysisService.h"

#include "analysis/SummaryIO.h"
#include "ir/Parser.h"
#include "support/FaultInjection.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_set>

using namespace dynsum;
using namespace dynsum::engine;
using namespace dynsum::service;
using analysis::AnalysisOptions;
using analysis::PortableSummary;
using analysis::RsmState;
using incremental::CommitStats;
using incremental::InvalidationPlan;

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

} // namespace

//===----------------------------------------------------------------------===//
// SharedSummaryStore generations
//===----------------------------------------------------------------------===//

namespace {

/// A parsed two-method program with its PAG, for direct store tests.
struct StoreFixture {
  StoreFixture() : Prog(parse(kTwoMethodSource)), Built(pag::buildPAG(*Prog)) {}

  pag::NodeId nodeOf(std::string_view Method, std::string_view Var) const {
    return Built.Graph->nodeOfVar(varOf(*Prog, Method, Var));
  }

  /// A plan invalidating exactly \p Methods (node ids are stable, so
  /// plans carry nothing else).
  InvalidationPlan planFor(
      std::unordered_set<ir::MethodId> Methods = {}) const {
    InvalidationPlan Plan;
    Plan.Methods = std::move(Methods);
    return Plan;
  }

  std::unique_ptr<ir::Program> Prog;
  pag::BuiltPAG Built;
};

PortableSummary summaryWithObject(ir::AllocId A) {
  PortableSummary S;
  S.Objects.push_back(A);
  return S;
}

} // namespace

TEST(SummaryStoreGenerationTest, StaleFetchMissesAndStalePublishDrops) {
  StoreFixture F;
  SharedSummaryStore Store;
  EXPECT_EQ(Store.generation(), 0u);

  pag::NodeId N = F.nodeOf("main", "a");
  Store.publishAt(0, N, {}, RsmState::S1, summaryWithObject(1));
  ASSERT_EQ(Store.size(), 1u);

  PortableSummary Out;
  EXPECT_TRUE(Store.fetchAt(0, N, {}, RsmState::S1, Out));

  // Bump to generation 1 without dropping anything.
  EXPECT_EQ(Store.beginGeneration(*F.Built.Graph, F.planFor()), 0u);
  EXPECT_EQ(Store.generation(), 1u);
  EXPECT_EQ(Store.size(), 1u);

  // The pinned-epoch probe from a draining batch must miss...
  EXPECT_FALSE(Store.fetchAt(0, N, {}, RsmState::S1, Out));
  // ...while the new epoch still sees the surviving entry.
  EXPECT_TRUE(Store.fetchAt(1, N, {}, RsmState::S1, Out));

  // A stale publish is dropped, not installed.
  pag::NodeId M = F.nodeOf("main", "other");
  Store.publishAt(0, M, {}, RsmState::S1, summaryWithObject(2));
  EXPECT_EQ(Store.size(), 1u);
  EXPECT_FALSE(Store.fetchAt(1, M, {}, RsmState::S1, Out));

  // clear() also bumps: epoch 1 is stale afterwards.
  Store.clear();
  EXPECT_EQ(Store.generation(), 2u);
  EXPECT_EQ(Store.size(), 0u);
  Store.publishAt(1, N, {}, RsmState::S1, summaryWithObject(1));
  EXPECT_EQ(Store.size(), 0u);
}

TEST(SummaryStoreGenerationTest, BeginGenerationDropsInvalidatedMethods) {
  StoreFixture F;
  ir::MethodId Helper =
      F.Prog->findFreeMethod(F.Prog->names().lookup("helper"));
  ir::MethodId Main = F.Prog->findFreeMethod(F.Prog->names().lookup("main"));
  ASSERT_NE(Helper, Main);

  SharedSummaryStore Store;
  pag::NodeId InHelper = F.nodeOf("helper", "t");
  pag::NodeId InMain = F.nodeOf("main", "box");
  Store.publish(InHelper, {}, RsmState::S1, summaryWithObject(1));
  Store.publish(InMain, {}, RsmState::S2, summaryWithObject(2));
  ASSERT_EQ(Store.size(), 2u);

  EXPECT_EQ(Store.beginGeneration(*F.Built.Graph, F.planFor({Helper})),
            1u);
  EXPECT_EQ(Store.size(), 1u);

  PortableSummary Out;
  uint64_t Gen = Store.generation();
  EXPECT_FALSE(Store.fetchAt(Gen, InHelper, {}, RsmState::S1, Out));
  EXPECT_TRUE(Store.fetchAt(Gen, InMain, {}, RsmState::S2, Out));
}

TEST(SummaryStoreGenerationTest, StableIdsKeepObjectKeysAcrossVarAddition) {
  StoreFixture F;
  SharedSummaryStore Store;

  // Key a summary at an object node with a tuple at the same object.
  // Under the pre-delta design, adding a variable shifted every object
  // node and beginGeneration had to rewrite keys; with stable ids the
  // entry must survive a variable-adding commit verbatim.
  pag::NodeId Obj = F.Built.Graph->nodeOfAlloc(allocOf(*F.Prog, "oa"));
  PortableSummary S = summaryWithObject(3);
  S.Tuples.push_back(PortableSummary::Tuple{Obj, RsmState::S2, 0});
  Store.publish(Obj, {}, RsmState::S1, std::move(S));

  // Add one variable to an untouched helper-free method and delta-patch
  // the same graph: node ids must not move.
  ir::MethodId Main = F.Prog->findFreeMethod(F.Prog->names().lookup("main"));
  F.Prog->createLocal(F.Prog->name("fresh"), Main, ir::kObjectType);
  pag::DeltaStats DS = pag::buildPAGDelta(*F.Built.Graph, F.Built.Calls);
  EXPECT_EQ(DS.NodesAdded, 1u);
  EXPECT_EQ(F.Built.Graph->nodeOfAlloc(allocOf(*F.Prog, "oa")), Obj);

  EXPECT_EQ(Store.beginGeneration(*F.Built.Graph, F.planFor()), 0u);

  PortableSummary Out;
  uint64_t Gen = Store.generation();
  ASSERT_TRUE(Store.fetchAt(Gen, Obj, {}, RsmState::S1, Out));
  ASSERT_EQ(Out.Tuples.size(), 1u);
  EXPECT_EQ(Out.Tuples[0].Node, Obj);
  EXPECT_EQ(Out.Objects, std::vector<ir::AllocId>{3});
}

//===----------------------------------------------------------------------===//
// AnalysisService basics
//===----------------------------------------------------------------------===//

TEST(AnalysisServiceTest, EditsInvisibleUntilCommit) {
  auto P = parse(kTwoMethodSource);
  ir::MethodId Main = P->findFreeMethod(P->names().lookup("main"));
  ir::VarId Other = varOf(*P, "main", "other");

  AnalysisService S(std::move(P));
  EXPECT_EQ(S.generation(), 0u);
  EXPECT_EQ(S.queryVar(Other).AllocSites.size(), 1u);

  S.editProgram([Main](ir::Program &Q) {
    ir::Statement New;
    New.Kind = ir::StmtKind::Alloc;
    New.Dst = ir::kNone;
    Symbol Other = Q.names().lookup("other");
    for (const ir::Variable &V : Q.variables())
      if (!V.IsGlobal && V.Name == Other)
        New.Dst = V.Id;
    New.Type = Q.findClass(Q.names().lookup("A"));
    New.Alloc = Q.createAllocSite(New.Type, Main, Q.name("onew"));
    Q.addStatement(Main, std::move(New));
    return std::vector<ir::MethodId>{Main};
  });
  ASSERT_TRUE(S.dirty());

  // Buffered edits are invisible: still generation 0, still one target.
  EXPECT_EQ(S.queryVar(Other).AllocSites.size(), 1u);
  EXPECT_EQ(S.generation(), 0u);

  CommitStats Stats = S.submitCommit().wait();
  EXPECT_EQ(S.generation(), 1u);
  (void)Stats;
  EXPECT_EQ(S.queryVar(Other).AllocSites.size(), 2u);
}

TEST(AnalysisServiceTest, UnknownVariableGetsEmptyOutcome) {
  auto P = parse(kTwoMethodSource);
  ir::MethodId Main = P->findFreeMethod(P->names().lookup("main"));

  AnalysisService S(std::move(P));
  ir::VarId Fresh = ir::kNone;
  S.editProgram([&Fresh, Main](ir::Program &Q) {
    Fresh = Q.createLocal(Q.name("fresh"), Main, ir::kObjectType);
    ir::Statement New;
    New.Kind = ir::StmtKind::Alloc;
    New.Dst = Fresh;
    New.Type = Q.findClass(Q.names().lookup("A"));
    New.Alloc = Q.createAllocSite(New.Type, Main, Q.name("ofresh"));
    Q.addStatement(Main, std::move(New));
    return std::vector<ir::MethodId>{Main};
  });

  // Generation 0 does not know the variable yet: empty, not a crash.
  engine::QueryOutcome Unknown = S.queryVar(Fresh);
  EXPECT_TRUE(Unknown.AllocSites.empty());

  CommitStats Stats = S.submitCommit().wait();
  EXPECT_EQ(Stats.MethodsRelowered, 1u);
  engine::QueryOutcome Known = S.queryVar(Fresh);
  ASSERT_EQ(Known.AllocSites.size(), 1u);
  EXPECT_EQ(Known.AllocSites[0], allocOf(S.program(), "ofresh"));
}

//===----------------------------------------------------------------------===//
// Warm reuse and persistence over a generated workload
//===----------------------------------------------------------------------===//

namespace {

std::unique_ptr<ir::Program> makeWorkload(uint64_t Seed = 7) {
  workload::GenOptions GO;
  GO.Scale = 1.0 / 256;
  GO.Seed = Seed;
  return workload::generateProgram(workload::specByName("soot-c"), GO);
}

// The probe picker and the deterministic edit script are
// workload::probeVariables / workload::applyScriptEdit — shared with
// bench/commit_latency, whose commits follow the same script.
using workload::applyScriptEdit;
using workload::probeVariables;

/// Cold ground truth for \p Probe on \p P: fresh PAG, fresh DYNSUM.
std::vector<std::vector<ir::AllocId>>
coldAnswers(const ir::Program &P, const std::vector<ir::VarId> &Probe) {
  pag::BuiltPAG Built = pag::buildPAG(P);
  analysis::DynSumAnalysis A(*Built.Graph, AnalysisOptions());
  std::vector<std::vector<ir::AllocId>> Out;
  Out.reserve(Probe.size());
  for (ir::VarId V : Probe)
    Out.push_back(A.query(Built.Graph->nodeOfVar(V)).allocSites());
  return Out;
}

} // namespace

TEST(AnalysisServiceTest, PerMethodCommitKeepsStoreWarm) {
  auto P = makeWorkload();
  std::vector<ir::VarId> Probe = probeVariables(*P, 61);
  ASSERT_GT(Probe.size(), 8u);

  ServiceOptions SO;
  SO.Engine.NumThreads = 2;
  AnalysisService S(makeWorkload(), SO);

  ServiceBatchResult Cold = S.queryVars(Probe);
  ASSERT_GT(Cold.Stats.SummariesComputed, 0u);
  ASSERT_GT(S.stats().StoreSize, 0u);

  S.editProgram([](ir::Program &Q) { return applyScriptEdit(Q, 0); });
  CommitStats Stats = S.submitCommit().wait();
  EXPECT_LT(Stats.SummariesDropped, Stats.SummariesBefore)
      << "per-method invalidation must not clear the whole store";

  applyScriptEdit(*P, 0); // mirror the edit on the reference program
  std::vector<std::vector<ir::AllocId>> Expected = coldAnswers(*P, Probe);

  ServiceBatchResult Warm = S.queryVars(Probe);
  EXPECT_EQ(Warm.Generation, 1u);
  EXPECT_LT(Warm.Stats.SummariesComputed, Cold.Stats.SummariesComputed)
      << "surviving store entries must be reused after the commit";
  ASSERT_EQ(Warm.Outcomes.size(), Probe.size());
  for (size_t I = 0; I < Probe.size(); ++I)
    EXPECT_EQ(Warm.Outcomes[I].AllocSites, Expected[I]) << "probe " << I;
}

TEST(AnalysisServiceTest, SummariesPersistAcrossRestart) {
  std::vector<ir::VarId> Probe;
  std::string Path = ::testing::TempDir() + "/dynsum_service_warm.bin";

  {
    AnalysisService S(makeWorkload());
    Probe = probeVariables(S.program(), 61);
    ASSERT_GT(Probe.size(), 8u);
    ServiceBatchResult Cold = S.queryVars(Probe);
    ASSERT_GT(Cold.Stats.SummariesComputed, 0u);
    ASSERT_TRUE(S.saveSummaries(Path));
  }

  // A "restarted" service over an identical program starts warm: the
  // load attaches the file as the disk tier and reads nothing eagerly.
  AnalysisService S(makeWorkload());
  uint64_t Records = 0;
  ASSERT_TRUE(S.loadSummaries(Path, &Records));
  EXPECT_GT(Records, 0u);
  EXPECT_TRUE(S.stats().DiskTierAttached);
  EXPECT_EQ(S.stats().StoreSize, 0u);
  ServiceBatchResult Warm = S.queryVars(Probe);
  EXPECT_EQ(Warm.Stats.SummariesComputed, 0u)
      << "every summary must come from the warm-start file";

  // A different program refuses the file.
  AnalysisService Other(makeWorkload(/*Seed=*/8));
  EXPECT_FALSE(Other.loadSummaries(Path));
  EXPECT_FALSE(Other.stats().DiskTierAttached);
  EXPECT_EQ(Other.stats().StoreSize, 0u);
  std::remove(Path.c_str());
}

/// The DSUM v2 canonical-node regression: a service that lived through
/// delta commits numbers late-created variables *after* object nodes,
/// while a fresh service over the byte-identical program numbers all
/// variables first.  Saving from the evolved lineage and loading into
/// the fresh one must still resolve every summary to the right node.
TEST(AnalysisServiceTest, SummariesPersistAcrossDivergentGraphLineages) {
  std::string Path = ::testing::TempDir() + "/dynsum_service_lineage.bin";

  // Evolve a service through commits (applyScriptEdit creates new
  // locals, so the lineage's node numbering interleaves), then save.
  std::vector<ir::VarId> Probe;
  {
    AnalysisService S(makeWorkload());
    for (unsigned I = 0; I < 3; ++I) {
      S.editProgram([I](ir::Program &Q) { return applyScriptEdit(Q, I); });
      S.submitCommit().wait();
    }
    Probe = probeVariables(S.program(), 61);
    ServiceBatchResult Warm = S.queryVars(Probe);
    ASSERT_GT(Warm.Stats.SummariesComputed, 0u);
    ASSERT_TRUE(S.saveSummaries(Path));
  }

  // A fresh service over the identical program (same edits replayed
  // before construction → same fingerprint, different node numbering)
  // must load the file and start fully warm.
  auto Replayed = makeWorkload();
  for (unsigned I = 0; I < 3; ++I)
    applyScriptEdit(*Replayed, I);
  AnalysisService Fresh(std::move(Replayed));
  ASSERT_TRUE(Fresh.loadSummaries(Path));
  EXPECT_TRUE(Fresh.stats().DiskTierAttached);
  ServiceBatchResult Warm = Fresh.queryVars(Probe);
  EXPECT_EQ(Warm.Stats.SummariesComputed, 0u)
      << "canonical node ids must resolve across lineages";
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Commit-while-querying: every batch matches a serial rerun of the
// generation it reports
//===----------------------------------------------------------------------===//

/// The async-commit stress: 4 reader threads stream batches while every
/// commit runs on the background committer.  Phase 1 waits for each
/// async commit, so published generations map 1:1 onto edit prefixes
/// and every racing batch can be validated exactly against its
/// generation's serial rerun (stale-epoch fetch/publish semantics must
/// hold while the committer is mid-pipeline).  Phase 2 fires a burst of
/// background submitCommit requests without waiting — they coalesce with the
/// in-flight commit — and the final steady state must equal the serial
/// reference of ALL edits: queue coalescing may skip generations but
/// must never lose edits.  Runs under the CI TSan job with the rest of
/// this suite.
TEST(AnalysisServiceTest, AsyncCommitsRaceConcurrentReaders) {
  constexpr unsigned kWaitedEdits = 4;
  constexpr unsigned kBurstEdits = 3;
  constexpr unsigned kReaders = 4;

  auto Reference = makeWorkload();
  std::vector<ir::VarId> Probe = probeVariables(*Reference, 149);
  ASSERT_GT(Probe.size(), 4u);

  // Serial pass: cold answers for every edit prefix 0..kWaitedEdits,
  // plus the final state after the burst.
  std::vector<std::vector<std::vector<ir::AllocId>>> Expected;
  Expected.push_back(coldAnswers(*Reference, Probe));
  for (unsigned I = 0; I < kWaitedEdits + kBurstEdits; ++I) {
    applyScriptEdit(*Reference, I);
    Expected.push_back(coldAnswers(*Reference, Probe));
  }

  ServiceOptions SO;
  SO.Engine.NumThreads = 2;
  SO.Commit = 2;
  AnalysisService S(makeWorkload(), SO);

  std::atomic<bool> Done{false};
  std::atomic<uint64_t> BatchesChecked{0};
  std::vector<std::thread> Readers;
  Readers.reserve(kReaders);
  for (unsigned T = 0; T < kReaders; ++T)
    Readers.emplace_back([&] {
      do {
        ServiceBatchResult R = S.queryVars(Probe);
        // Waited-phase generations correspond to edit prefixes; burst
        // generations may coalesce several edits and are only checked
        // at the end, in steady state.
        if (R.Generation <= kWaitedEdits) {
          const std::vector<std::vector<ir::AllocId>> &Want =
              Expected[R.Generation];
          for (size_t I = 0; I < Probe.size(); ++I)
            EXPECT_EQ(R.Outcomes[I].AllocSites, Want[I])
                << "probe " << I << " at generation " << R.Generation;
        }
        BatchesChecked.fetch_add(1, std::memory_order_relaxed);
      } while (!Done.load(std::memory_order_relaxed));
    });

  // Phase 1: one waited async commit per edit.
  for (unsigned I = 0; I < kWaitedEdits; ++I) {
    S.editProgram([I](ir::Program &Q) { return applyScriptEdit(Q, I); });
    S.submitCommit({CommitMode::Delta, /*Background=*/true});
    S.waitForCommits();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(S.generation(), kWaitedEdits);

  // Phase 2: fire-and-forget burst; racing requests coalesce.
  for (unsigned I = 0; I < kBurstEdits; ++I) {
    S.editProgram([I](ir::Program &Q) {
      return applyScriptEdit(Q, kWaitedEdits + I);
    });
    S.submitCommit({CommitMode::Delta, /*Background=*/true});
  }
  S.waitForCommits();
  Done.store(true, std::memory_order_relaxed);
  for (std::thread &T : Readers)
    T.join();

  EXPECT_FALSE(S.dirty()) << "coalescing lost edits";
  EXPECT_GE(BatchesChecked.load(), uint64_t(kReaders));
  ServiceStats SS = S.stats();
  EXPECT_EQ(SS.AsyncCommitsRequested, uint64_t(kWaitedEdits + kBurstEdits));
  EXPECT_LE(SS.Commits, uint64_t(kWaitedEdits + kBurstEdits));

  // Steady state: the final generation answers the full edit script.
  ServiceBatchResult Final = S.queryVars(Probe);
  const std::vector<std::vector<ir::AllocId>> &Want = Expected.back();
  for (size_t I = 0; I < Probe.size(); ++I)
    EXPECT_EQ(Final.Outcomes[I].AllocSites, Want[I]) << "probe " << I;
}

//===----------------------------------------------------------------------===//
// Edit-clock stamping: remove-only edits invalidate like additions
//===----------------------------------------------------------------------===//

/// The PR-4 regression this locks down: addStatement auto-stamps the
/// edit clock, but a remove-only edit must stamp too — dropping the
/// store that fed helper's summary has to invalidate it, with no
/// markDirty call anywhere.
TEST(EditClockTest, RemoveOnlyEditInvalidatesSummariesInService) {
  auto P = parse(kTwoMethodSource);
  ir::MethodId Main = P->findFreeMethod(P->names().lookup("main"));
  ir::VarId T = varOf(*P, "helper", "t");
  ir::AllocId Oa = allocOf(*P, "oa");

  AnalysisService S(std::move(P));
  engine::QueryOutcome Before = S.queryVar(T);
  ASSERT_EQ(Before.AllocSites, std::vector<ir::AllocId>{Oa});

  // Remove main's "box.f = a" store.  No markDirty, no addStatement:
  // the stamp must come from removeStatements itself.
  ASSERT_FALSE(S.dirty());
  size_t Removed = S.removeStatements(Main, [](const ir::Statement &St) {
    return St.Kind == ir::StmtKind::Store;
  });
  ASSERT_EQ(Removed, 1u);
  EXPECT_TRUE(S.dirty()) << "remove-only edit must stamp the edit clock";

  CommitStats Stats = S.submitCommit().wait();
  EXPECT_GE(Stats.MethodsRelowered, 1u);
  EXPECT_TRUE(S.queryVar(T).AllocSites.empty())
      << "stale summary survived a remove-only edit";

  // A no-match removal stays clean: nothing to invalidate.
  size_t None = S.removeStatements(Main, [](const ir::Statement &) {
    return false;
  });
  EXPECT_EQ(None, 0u);
  EXPECT_FALSE(S.dirty());
}

TEST(AnalysisServiceTest, ConcurrentCommitsMatchSerialRerun) {
  constexpr unsigned kEdits = 5;
  constexpr unsigned kReaders = 4;

  auto Reference = makeWorkload();
  std::vector<ir::VarId> Probe = probeVariables(*Reference, 149);
  ASSERT_GT(Probe.size(), 4u);

  // Serial pass: cold answers for every generation 0..kEdits.
  std::vector<std::vector<std::vector<ir::AllocId>>> Expected;
  Expected.push_back(coldAnswers(*Reference, Probe));
  for (unsigned I = 0; I < kEdits; ++I) {
    applyScriptEdit(*Reference, I);
    Expected.push_back(coldAnswers(*Reference, Probe));
  }

  // Concurrent pass: kReaders query threads interleave with commits.
  ServiceOptions SO;
  SO.Engine.NumThreads = 2;
  AnalysisService S(makeWorkload(), SO);

  std::atomic<bool> Done{false};
  std::atomic<uint64_t> BatchesChecked{0};
  std::vector<std::thread> Readers;
  Readers.reserve(kReaders);
  for (unsigned T = 0; T < kReaders; ++T)
    Readers.emplace_back([&] {
      do {
        ServiceBatchResult R = S.queryVars(Probe);
        ASSERT_LT(R.Generation, Expected.size());
        const std::vector<std::vector<ir::AllocId>> &Want =
            Expected[R.Generation];
        for (size_t I = 0; I < Probe.size(); ++I)
          EXPECT_EQ(R.Outcomes[I].AllocSites, Want[I])
              << "probe " << I << " at generation " << R.Generation;
        BatchesChecked.fetch_add(1, std::memory_order_relaxed);
      } while (!Done.load(std::memory_order_relaxed));
    });

  for (unsigned I = 0; I < kEdits; ++I) {
    S.editProgram([I](ir::Program &Q) { return applyScriptEdit(Q, I); });
    S.submitCommit().wait();
    // Give the readers a chance to drain batches on this generation.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  Done.store(true, std::memory_order_relaxed);
  for (std::thread &T : Readers)
    T.join();

  EXPECT_EQ(S.generation(), kEdits);
  EXPECT_GE(BatchesChecked.load(), uint64_t(kReaders));

  // Steady state after the dust settles: warm answers == final serial.
  ServiceBatchResult Final = S.queryVars(Probe);
  EXPECT_EQ(Final.Generation, kEdits);
  for (size_t I = 0; I < Probe.size(); ++I)
    EXPECT_EQ(Final.Outcomes[I].AllocSites, Expected[kEdits][I]);
}

//===----------------------------------------------------------------------===//
// Warm-from-disk restarts: the tiered store's mmap tier at service level
//===----------------------------------------------------------------------===//

/// The full restart loop the disk tier exists for: run, snapshot on
/// shutdown, reconstruct with WarmFromDiskPath — the restarted server
/// answers the first batch from disk-tier hits, byte-identical,
/// recomputing nothing.
TEST(AnalysisServiceTest, WarmFromDiskRoundTrip) {
  std::string Path = ::testing::TempDir() + "/dynsum_disk_tier.dsum";
  std::vector<ir::VarId> Probe;
  std::vector<std::vector<ir::AllocId>> Expected;

  {
    ServiceOptions SO;
    SO.SnapshotOnShutdownPath = Path;
    AnalysisService S(makeWorkload(), SO);
    Probe = probeVariables(S.program(), 61);
    ASSERT_GT(Probe.size(), 8u);
    ServiceBatchResult Cold = S.queryVars(Probe);
    ASSERT_GT(Cold.Stats.SummariesComputed, 0u);
    for (const engine::QueryOutcome &O : Cold.Outcomes)
      Expected.push_back(O.AllocSites);
    // The destructor snapshots the store to Path.
  }

  // One engine thread: the warm batch must then never contend a stripe
  // lock, which the contention counter below pins.
  ServiceOptions SO;
  SO.Engine.NumThreads = 1;
  SO.WarmFromDiskPath = Path;
  AnalysisService S(makeWorkload(), SO);
  ServiceStats Boot = S.stats();
  EXPECT_TRUE(Boot.DiskTierAttached);
  EXPECT_EQ(Boot.StoreSize, 0u)
      << "the disk tier is lazy; nothing loads until a query probes";

  ServiceBatchResult Warm = S.queryVars(Probe);
  EXPECT_EQ(Warm.Stats.SummariesComputed, 0u)
      << "every summary must come off the mmap'd disk tier";
  ASSERT_EQ(Warm.Outcomes.size(), Probe.size());
  for (size_t I = 0; I < Probe.size(); ++I)
    EXPECT_EQ(Warm.Outcomes[I].AllocSites, Expected[I]) << "probe " << I;

  ServiceStats After = S.stats();
  EXPECT_GT(After.Store.DiskHits, 0u);
  EXPECT_GT(After.Store.Promoted, 0u);
  EXPECT_EQ(After.Store.DiskCorrupt, 0u);
  EXPECT_EQ(After.Store.LockContended, 0u)
      << "a single-threaded warm batch must never contend a stripe lock";
  EXPECT_GT(After.StoreSize, 0u) << "probed records promote into the hot tier";

  // Hot-tier hit-rate parity: a second identical batch is served from
  // promoted entries without touching the disk again.
  uint64_t ProbesBefore = After.Store.DiskProbes;
  ServiceBatchResult Hot = S.queryVars(Probe);
  EXPECT_EQ(Hot.Stats.SummariesComputed, 0u);
  ServiceStats Final = S.stats();
  EXPECT_EQ(Final.Store.DiskProbes, ProbesBefore)
      << "promoted summaries must be answered by the hot tier";
  EXPECT_GT(Final.Store.Hits, After.Store.Hits);
  std::remove(Path.c_str());
}

/// A snapshot from a different program must refuse to attach — and the
/// refusal is soft: the service still comes up cold and correct.
TEST(AnalysisServiceTest, WarmFromDiskRejectsDifferentProgram) {
  std::string Path = ::testing::TempDir() + "/dynsum_disk_mismatch.dsum";
  {
    ServiceOptions SO;
    SO.SnapshotOnShutdownPath = Path;
    AnalysisService S(makeWorkload());
    std::vector<ir::VarId> Probe = probeVariables(S.program(), 61);
    S.queryVars(Probe);
    ASSERT_TRUE(S.saveSummaries(Path));
  }

  auto Other = makeWorkload(/*Seed=*/8);
  std::vector<ir::VarId> Probe = probeVariables(*Other, 61);
  std::vector<std::vector<ir::AllocId>> Expected = coldAnswers(*Other, Probe);

  ServiceOptions SO;
  SO.WarmFromDiskPath = Path;
  AnalysisService S(std::move(Other), SO);
  EXPECT_FALSE(S.stats().DiskTierAttached)
      << "a mismatched fingerprint must not attach";

  ServiceBatchResult R = S.queryVars(Probe);
  EXPECT_GT(R.Stats.SummariesComputed, 0u) << "cold start, by design";
  EXPECT_EQ(S.stats().Store.DiskProbes, 0u);
  ASSERT_EQ(R.Outcomes.size(), Probe.size());
  for (size_t I = 0; I < Probe.size(); ++I)
    EXPECT_EQ(R.Outcomes[I].AllocSites, Expected[I]) << "probe " << I;
  std::remove(Path.c_str());
}

/// Committing an edit after a warm attach must invalidate the edited
/// methods' DISK records too: answers track the new program, never a
/// stale snapshot.
TEST(AnalysisServiceTest, EditAfterWarmAttachInvalidatesDiskRecords) {
  std::string Path = ::testing::TempDir() + "/dynsum_disk_edit.dsum";
  std::vector<ir::VarId> Probe;
  {
    ServiceOptions SO;
    SO.SnapshotOnShutdownPath = Path;
    AnalysisService S(makeWorkload(), SO);
    Probe = probeVariables(S.program(), 61);
    S.queryVars(Probe);
  }

  ServiceOptions SO;
  SO.WarmFromDiskPath = Path;
  AnalysisService S(makeWorkload(), SO);
  ASSERT_TRUE(S.stats().DiskTierAttached);

  // Edit + per-method commit BEFORE any query touches the disk tier:
  // the invalidation must blind the tier to the edited methods even
  // though their records were never promoted.
  S.editProgram([](ir::Program &Q) { return applyScriptEdit(Q, 0); });
  S.submitCommit().wait();

  auto Reference = makeWorkload();
  applyScriptEdit(*Reference, 0);
  std::vector<std::vector<ir::AllocId>> Expected =
      coldAnswers(*Reference, Probe);

  ServiceBatchResult R = S.queryVars(Probe);
  ASSERT_EQ(R.Outcomes.size(), Probe.size());
  for (size_t I = 0; I < Probe.size(); ++I)
    EXPECT_EQ(R.Outcomes[I].AllocSites, Expected[I]) << "probe " << I;

  // Untouched methods still ride the disk tier; the file predates the
  // edit, so at least something must have required recomputation or
  // refused a stale disk record.
  ServiceStats After = S.stats();
  EXPECT_GT(After.Store.DiskProbes, 0u);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Restart chains: a snapshot keeps what its process attached
//===----------------------------------------------------------------------===//

namespace {

/// The snapshot loop of dynsum_serverd and `dynsum_tool --snapshot`:
/// attach \p Path on start, save back to it on shutdown.
ServiceOptions snapshotLoop(const std::string &Path) {
  ServiceOptions SO;
  SO.SnapshotOnShutdownPath = Path;
  SO.WarmFromDiskPath = Path;
  return SO;
}

/// The golden corpus's Figure 2 program, as text.
std::string figure2Source() {
  std::ifstream In(std::string(DYNSUM_TESTS_DIR) +
                   "/golden/dsum_corpus/figure2.ir");
  EXPECT_TRUE(In.good());
  std::stringstream Src;
  Src << In.rdbuf();
  return Src.str();
}

/// Variable \p Name of Figure 2's Main.main.
ir::VarId figure2Var(const ir::Program &P, std::string_view Name) {
  ir::MethodId M = P.findMethod(P.findClass(P.names().lookup("Main")),
                                P.names().lookup("main"));
  for (const ir::Variable &V : P.variables())
    if (V.Owner == M && V.Name == P.names().lookup(Name))
      return V.Id;
  ADD_FAILURE() << "no Main.main." << Name;
  return ir::VarId(ir::kNone);
}

} // namespace

/// Three starts over one snapshot with no edit.  The second start asks
/// a single probe, so its shutdown snapshot keeps the rest only if a
/// save writes the attached records nothing promoted; the third start
/// then computes nothing and answers exactly as cold.
TEST(AnalysisServiceTest, WarmEqualsColdAcrossThreeStarts) {
  std::string Path = ::testing::TempDir() + "/dynsum_three_starts.dsum";
  std::remove(Path.c_str());
  std::vector<ir::VarId> Probe;
  std::vector<std::vector<ir::AllocId>> Cold;
  {
    AnalysisService S(makeWorkload(), snapshotLoop(Path));
    Probe = probeVariables(S.program(), 61);
    ASSERT_GT(Probe.size(), 8u);
    ServiceBatchResult R = S.queryVars(Probe);
    ASSERT_GT(R.Stats.SummariesComputed, 0u);
    for (const engine::QueryOutcome &O : R.Outcomes)
      Cold.push_back(O.AllocSites);
  }
  {
    AnalysisService S(makeWorkload(), snapshotLoop(Path));
    ASSERT_TRUE(S.stats().DiskTierAttached);
    ServiceBatchResult R = S.queryVars({Probe.front()});
    EXPECT_EQ(R.Stats.SummariesComputed, 0u);
    EXPECT_EQ(R.Outcomes[0].AllocSites, Cold[0]);
  }
  {
    AnalysisService S(makeWorkload(), snapshotLoop(Path));
    ASSERT_TRUE(S.stats().DiskTierAttached);
    ServiceBatchResult R = S.queryVars(Probe);
    EXPECT_EQ(R.Stats.SummariesComputed, 0u)
        << "the second start's snapshot must keep what it never promoted";
    ASSERT_EQ(R.Outcomes.size(), Probe.size());
    for (size_t I = 0; I < Probe.size(); ++I)
      EXPECT_EQ(R.Outcomes[I].AllocSites, Cold[I]) << "probe " << I;
  }
  std::remove(Path.c_str());
}

/// The serverd smoke's three starts in process, over the golden
/// corpus's Figure 2: the first start answers s1 and s2, the second
/// only s1, and the third answers s2 from the second one's snapshot
/// without computing a summary.
TEST(AnalysisServiceTest, Figure2ThirdStartComputesNothing) {
  std::string Source = figure2Source();
  std::string Path = ::testing::TempDir() + "/dynsum_figure2_starts.dsum";
  std::remove(Path.c_str());
  std::vector<ir::AllocId> S2Cold;
  {
    AnalysisService S(parse(Source.c_str()), snapshotLoop(Path));
    S.queryVar(figure2Var(S.program(), "s1"));
    engine::QueryOutcome O = S.queryVar(figure2Var(S.program(), "s2"));
    ASSERT_FALSE(O.AllocSites.empty());
    S2Cold = O.AllocSites;
  }
  {
    AnalysisService S(parse(Source.c_str()), snapshotLoop(Path));
    ASSERT_TRUE(S.stats().DiskTierAttached);
    S.queryVar(figure2Var(S.program(), "s1"));
  }
  {
    AnalysisService S(parse(Source.c_str()), snapshotLoop(Path));
    ServiceBatchResult R = S.queryVars({figure2Var(S.program(), "s2")});
    EXPECT_EQ(R.Stats.SummariesComputed, 0u);
    EXPECT_GT(R.Stats.SharedHits, 0u);
    EXPECT_EQ(R.Outcomes[0].AllocSites, S2Cold);
  }
  std::remove(Path.c_str());
}

/// A load replaces the attached snapshot; it never merges.  Over Figure
/// 2, snapshot a comes from a session that asked s1 and b from one that
/// asked s2.  Loading a, then b, then saving c writes exactly b's
/// records (a merge would also keep a's records that b lacks).  A
/// refused load leaves the tier attached before it serving.
TEST(AnalysisServiceTest, SecondLoadReplacesTheAttachedSnapshot) {
  std::string Source = figure2Source();
  std::string A = ::testing::TempDir() + "/dynsum_load_a.dsum";
  std::string B = ::testing::TempDir() + "/dynsum_load_b.dsum";
  std::string C = ::testing::TempDir() + "/dynsum_load_c.dsum";
  std::string Other = ::testing::TempDir() + "/dynsum_load_other.dsum";
  uint64_t RecA = 0, RecB = 0;
  {
    AnalysisService S(parse(Source.c_str()));
    S.queryVar(figure2Var(S.program(), "s1"));
    ASSERT_TRUE(S.saveSummaries(A, &RecA));
  }
  {
    AnalysisService S(parse(Source.c_str()));
    S.queryVar(figure2Var(S.program(), "s2"));
    ASSERT_TRUE(S.saveSummaries(B, &RecB));
  }
  {
    AnalysisService S(parse(kTwoMethodSource));
    S.queryVar(varOf(S.program(), "helper", "t"));
    ASSERT_TRUE(S.saveSummaries(Other));
  }
  ASSERT_GT(RecA, 0u);
  ASSERT_GT(RecB, 0u);

  {
    AnalysisService S(parse(Source.c_str()));
    ASSERT_TRUE(S.loadSummaries(A));
    uint64_t Attached = 0;
    ASSERT_TRUE(S.loadSummaries(B, &Attached));
    EXPECT_EQ(Attached, RecB);
    uint64_t RecC = 0;
    ASSERT_TRUE(S.saveSummaries(C, &RecC));
    EXPECT_EQ(RecC, RecB) << "the second load must replace the first";
    // b alone answers s2 and misses what only a held for s1.
    ServiceBatchResult S2 = S.queryVars({figure2Var(S.program(), "s2")});
    EXPECT_EQ(S2.Stats.SummariesComputed, 0u);
    ServiceBatchResult S1 = S.queryVars({figure2Var(S.program(), "s1")});
    EXPECT_GT(S1.Stats.SummariesComputed, 0u);
  }
  {
    AnalysisService S(parse(Source.c_str()));
    ASSERT_TRUE(S.loadSummaries(A));
    uint64_t Refused = 7;
    EXPECT_FALSE(S.loadSummaries(Other, &Refused))
        << "a snapshot of another program must be refused";
    EXPECT_EQ(Refused, 0u);
    EXPECT_TRUE(S.stats().DiskTierAttached);
    ServiceBatchResult R = S.queryVars({figure2Var(S.program(), "s1")});
    EXPECT_EQ(R.Stats.SummariesComputed, 0u)
        << "the tier attached before the refused load keeps serving";
    EXPECT_GT(S.stats().Store.DiskHits, 0u);
  }
  for (const std::string &Path : {A, B, C, Other})
    std::remove(Path.c_str());
}

/// Three starts with an edit committed in the second: its snapshot is
/// fingerprinted against the edited program, and the disk records it
/// carries over are re-canonicalized for the edited graph (the edit
/// adds variables, shifting every object's canonical id).  A third
/// start over the edited program answers exactly as a cold recompute of
/// it, and computes less than a cold start.
TEST(AnalysisServiceTest, RestartChainWithCommitStaysExact) {
  std::string Path = ::testing::TempDir() + "/dynsum_chain_commit.dsum";
  std::remove(Path.c_str());
  std::vector<ir::VarId> Probe;
  uint64_t ColdComputed = 0;
  {
    AnalysisService S(makeWorkload(), snapshotLoop(Path));
    Probe = probeVariables(S.program(), 61);
    ColdComputed = S.queryVars(Probe).Stats.SummariesComputed;
    ASSERT_GT(ColdComputed, 0u);
  }
  {
    AnalysisService S(makeWorkload(), snapshotLoop(Path));
    ASSERT_TRUE(S.stats().DiskTierAttached);
    S.queryVars({Probe.front()});
    S.editProgram([](ir::Program &Q) { return applyScriptEdit(Q, 0); });
    S.submitCommit().wait();
    S.queryVars({Probe.back()});
  }
  auto Edited = makeWorkload();
  applyScriptEdit(*Edited, 0);
  std::vector<std::vector<ir::AllocId>> Expected = coldAnswers(*Edited, Probe);
  {
    AnalysisService S(std::move(Edited), snapshotLoop(Path));
    ASSERT_TRUE(S.stats().DiskTierAttached)
        << "the snapshot describes the committed program";
    ServiceBatchResult R = S.queryVars(Probe);
    ASSERT_EQ(R.Outcomes.size(), Probe.size());
    for (size_t I = 0; I < Probe.size(); ++I)
      EXPECT_EQ(R.Outcomes[I].AllocSites, Expected[I]) << "probe " << I;
    EXPECT_LT(R.Stats.SummariesComputed, ColdComputed);
    EXPECT_GT(S.stats().Store.DiskHits, 0u);
  }
  std::remove(Path.c_str());
}

/// A save reads the store without moving it: the hot tier's size and
/// every counter stay put, and the snapshot holds the hot entries plus
/// every attached record no hot entry shadows and no checksum killed.
TEST(AnalysisServiceTest, SaveWithDiskTierDoesNotPromote) {
  std::string First = ::testing::TempDir() + "/dynsum_save_first.dsum";
  std::string Second = ::testing::TempDir() + "/dynsum_save_second.dsum";
  std::vector<ir::VarId> Probe;
  {
    AnalysisService S(makeWorkload());
    Probe = probeVariables(S.program(), 61);
    S.queryVars(Probe);
    ASSERT_TRUE(S.saveSummaries(First));
  }
  // Kill one record: byte 44 sits inside the first record's payload.
  {
    std::fstream F(First, std::ios::in | std::ios::out | std::ios::binary);
    F.seekg(44);
    char C = 0;
    F.get(C);
    F.seekp(44);
    F.put(char(C ^ 0x5a));
  }

  AnalysisService S(makeWorkload());
  uint64_t Attached = 0;
  ASSERT_TRUE(S.loadSummaries(First, &Attached));
  S.queryVars({Probe[0], Probe[1], Probe[2]});
  ServiceStats Before = S.stats();
  ASSERT_GT(Before.StoreSize, 0u);
  ASSERT_GT(Before.Store.Promoted, 0u);

  uint64_t Saved = 0;
  ASSERT_TRUE(S.saveSummaries(Second, &Saved));
  ServiceStats After = S.stats();
  EXPECT_EQ(After.StoreSize, Before.StoreSize);
  const StoreCounters &B = Before.Store, &A = After.Store;
  EXPECT_EQ(A.Fetches, B.Fetches);
  EXPECT_EQ(A.Hits, B.Hits);
  EXPECT_EQ(A.StaleFetches, B.StaleFetches);
  EXPECT_EQ(A.Publishes, B.Publishes);
  EXPECT_EQ(A.StalePublishes, B.StalePublishes);
  EXPECT_EQ(A.Invalidated, B.Invalidated);
  EXPECT_EQ(A.LockContended, B.LockContended);
  EXPECT_EQ(A.DiskProbes, B.DiskProbes);
  EXPECT_EQ(A.DiskHits, B.DiskHits);
  EXPECT_EQ(A.DiskCorrupt, B.DiskCorrupt);
  EXPECT_EQ(A.DiskStale, B.DiskStale);
  EXPECT_EQ(A.Promoted, B.Promoted);

  // Every hot entry was promoted from a live record (nothing new was
  // computed), so each shadows exactly one attached record.
  EXPECT_EQ(B.Publishes, 0u);
  EXPECT_EQ(Saved, Before.StoreSize + (Attached - B.Promoted));
  AnalysisService Next(makeWorkload());
  uint64_t Reattached = 0;
  ASSERT_TRUE(Next.loadSummaries(Second, &Reattached));
  EXPECT_EQ(Reattached, Saved);
  EXPECT_EQ(Next.stats().Store.DiskCorrupt, 0u);
  std::remove(First.c_str());
  std::remove(Second.c_str());
}

/// The snapshot loop saves over the very file its disk tier maps: the
/// write goes to a temp file renamed over the path, so the tier keeps
/// serving its old mapping and the new file attaches.  A torn save
/// leaves the previous file attachable.
TEST(AnalysisServiceTest, SaveOverAttachedFileKeepsBothUsable) {
  std::string Path = ::testing::TempDir() + "/dynsum_save_over.dsum";
  std::vector<ir::VarId> Probe;
  uint64_t Full = 0;
  {
    AnalysisService S(makeWorkload());
    Probe = probeVariables(S.program(), 61);
    S.queryVars(Probe);
    ASSERT_TRUE(S.saveSummaries(Path, &Full));
  }
  AnalysisService S(makeWorkload());
  ASSERT_TRUE(S.loadSummaries(Path));
  uint64_t Saved = 0;
  ASSERT_TRUE(S.saveSummaries(Path, &Saved));
  EXPECT_EQ(Saved, Full) << "an untouched tier is saved whole";
  EXPECT_EQ(S.queryVars(Probe).Stats.SummariesComputed, 0u)
      << "the tier still serves its old mapping";

  support::FaultSpec Torn;
  Torn.Kind = support::FaultKind::TornWrite;
  Torn.Param = 100;
  support::armFault("save.write", Torn);
  EXPECT_FALSE(S.saveSummaries(Path));
  support::clearFaults();

  AnalysisService Next(makeWorkload());
  uint64_t Records = 0;
  ASSERT_TRUE(Next.loadSummaries(Path, &Records));
  EXPECT_EQ(Records, Full);
  EXPECT_EQ(Next.queryVars(Probe).Stats.SummariesComputed, 0u);
  std::remove(Path.c_str());
}
