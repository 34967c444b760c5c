//===----------------------------------------------------------------------===//
///
/// \file
/// Torture tests of the tiered summary store.
///
/// The hot tier's contract is that striping is INVISIBLE except in the
/// counters: any interleaving of fetch/publish/invalidate/
/// beginGeneration must answer exactly like the single-threaded
/// reference store fed the same operation log.  The suite locks that
/// down three ways:
///
///   * an oracle-equivalence replay: a fuzzed op log (pinned and
///     unpinned fetches and publishes, generation bumps with real
///     invalidation plans, clears) runs against the striped store at
///     stripe counts 1/4/16 and against a plain map oracle; every
///     probe must agree hit-for-miss and byte-for-byte, every counter
///     must land on the oracle's exact count — including
///     LockContended == 0, the exact-contention-accounting fix;
///
///   * a reader/writer/committer hammer whose every successful fetch
///     must be bit-identical to the deterministic per-key summary the
///     writers publish (runs under the CI TSan job);
///
///   * disk-tier semantics: promotion, per-method invalidation since
///     attach, detach on clear, fingerprint rejection, and corrupt
///     records degrading to misses — never to crashes or damaged
///     summaries.
///
//===----------------------------------------------------------------------===//

#include "engine/TieredStore.h"

#include "analysis/DynSum.h"
#include "analysis/SummaryIO.h"
#include "ir/Parser.h"
#include "pag/PAGBuilder.h"

#include "RecordingStore.h"
#include "TestPrograms.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <gtest/gtest.h>
#include <map>
#include <random>
#include <thread>

using namespace dynsum;
using namespace dynsum::engine;
using analysis::AnalysisOptions;
using analysis::PortableSummary;
using analysis::RsmState;
using incremental::InvalidationPlan;

namespace {

//===----------------------------------------------------------------------===//
// Fixture and deterministic key/summary universe
//===----------------------------------------------------------------------===//

struct Fixture {
  explicit Fixture(const char *Source = dynsum::testing::kFigure2Source) {
    ir::ParseResult R = ir::parseProgram(Source);
    EXPECT_TRUE(R.ok()) << R.Error;
    Prog = std::move(R.Prog);
    Built = pag::buildPAG(*Prog);
  }

  const pag::PAG &graph() const { return *Built.Graph; }

  std::unique_ptr<ir::Program> Prog;
  pag::BuiltPAG Built;
};

/// One summary key.  The universe is every graph node crossed with a
/// few field stacks and both states — enough keys to populate every
/// stripe at 16 stripes.
struct Key {
  pag::NodeId Node;
  std::vector<uint32_t> Fields;
  RsmState State;
};

std::vector<Key> keyUniverse(const pag::PAG &G) {
  const std::vector<std::vector<uint32_t>> Stacks = {{}, {1}, {2, 7}};
  std::vector<Key> Keys;
  for (uint32_t N = 0; N < G.numNodes(); ++N)
    for (const std::vector<uint32_t> &F : Stacks)
      for (RsmState S : {RsmState::S1, RsmState::S2})
        Keys.push_back(Key{pag::NodeId(N), F, S});
  return Keys;
}

/// The deterministic summary every publisher computes for a key: the
/// store's append-only contract assumes all writers agree, and the
/// readers below verify fetched bytes against exactly this function.
PortableSummary summaryFor(const pag::PAG &G, const Key &K) {
  uint64_t H = summaryKeyDigest(K.Node, K.Fields, K.State);
  PortableSummary S;
  size_t NumAllocs = G.program().allocs().size();
  S.Objects.push_back(ir::AllocId(H % NumAllocs));
  if (H & 4)
    S.Objects.push_back(ir::AllocId((H >> 7) % NumAllocs));
  for (unsigned I = 0; I < (H & 3); ++I) {
    PortableSummary::Tuple T;
    T.Node = pag::NodeId((H >> (8 * I + 3)) % G.numNodes());
    T.State = (H >> I) & 1 ? RsmState::S2 : RsmState::S1;
    T.FieldsLen = 0;
    S.Tuples.push_back(T);
  }
  return S;
}

bool sameSummary(const PortableSummary &A, const PortableSummary &B) {
  if (A.Objects != B.Objects || A.FieldData != B.FieldData ||
      A.Tuples.size() != B.Tuples.size())
    return false;
  for (size_t I = 0; I < A.Tuples.size(); ++I)
    if (A.Tuples[I].Node != B.Tuples[I].Node ||
        A.Tuples[I].State != B.Tuples[I].State ||
        A.Tuples[I].FieldsLen != B.Tuples[I].FieldsLen)
      return false;
  return true;
}

//===----------------------------------------------------------------------===//
// The single-threaded reference store
//===----------------------------------------------------------------------===//

/// The oracle: the store's documented semantics in their plainest
/// possible form.  One flat map, one generation counter, no locks, no
/// stripes, no tiers.
struct OracleStore {
  using MapKey = std::tuple<uint32_t, int, std::vector<uint32_t>>;

  static MapKey keyOf(const Key &K) {
    return {K.Node, int(K.State), K.Fields};
  }

  bool fetchAt(uint64_t AtGen, const Key &K, PortableSummary &Out) {
    if (AtGen != Gen)
      return false;
    auto It = Map.find(keyOf(K));
    if (It == Map.end())
      return false;
    Out = It->second;
    return true;
  }

  /// Returns whether the summary was actually inserted (first writer
  /// wins).
  bool publishAt(uint64_t AtGen, const Key &K, PortableSummary Summary) {
    if (AtGen != Gen)
      return false;
    return Map.emplace(keyOf(K), std::move(Summary)).second;
  }

  size_t beginGeneration(const pag::PAG &G, const InvalidationPlan &Plan) {
    size_t Dropped = 0;
    for (auto It = Map.begin(); It != Map.end();) {
      pag::NodeId N = std::get<0>(It->first);
      if (N >= G.numNodes() ||
          Plan.Methods.count(G.node(N).Method) != 0) {
        It = Map.erase(It);
        ++Dropped;
      } else {
        ++It;
      }
    }
    ++Gen;
    return Dropped;
  }

  size_t clear() {
    size_t Dropped = Map.size();
    Map.clear();
    ++Gen;
    return Dropped;
  }

  uint64_t Gen = 0;
  std::map<MapKey, PortableSummary> Map;
};

} // namespace

//===----------------------------------------------------------------------===//
// Oracle equivalence with exact counters, at 1 / 4 / 16 stripes
//===----------------------------------------------------------------------===//

namespace {

/// How a replay shapes its commits.  Every knob is a percentage; at 0
/// the knob draws nothing from the generator, so an all-zero mix
/// replays the plain op log.
struct CommitMix {
  /// Plans that also name ir::kNone, as every real commit's does.
  unsigned UnownedPct = 0;
  /// Plans that repeat a method the previous plan invalidated.
  unsigned RepeatPct = 0;
  /// Clears followed directly by a commit.
  unsigned CommitAfterClearPct = 0;
};

/// What a replay's commits covered (summed over the stripe counts).
struct CommitCoverage {
  unsigned Commits = 0;
  unsigned UnownedPlans = 0;
  unsigned RepeatPlans = 0;
  unsigned CommitsAfterClear = 0;
  /// Oracle entries keyed at unowned nodes that a commit dropped.
  size_t UnownedDropped = 0;
};

/// Replays one fuzzed op log (seeded by \p Seed, shaped by \p Mix)
/// against the striped store at 1/4/16 stripes and against the oracle:
/// every probe must agree hit-for-miss and byte-for-byte, every commit
/// must drop what the oracle's sweep drops, and every counter must land
/// on the oracle's exact count.
CommitCoverage replayAgainstOracle(const Fixture &F, uint64_t Seed,
                                   const CommitMix &Mix) {
  CommitCoverage Cov;
  std::vector<Key> Keys = keyUniverse(F.graph());
  std::vector<ir::MethodId> Methods;
  for (const ir::Method &M : F.Prog->methods())
    Methods.push_back(M.Id);

  for (unsigned Stripes : {1u, 4u, 16u}) {
    SCOPED_TRACE(std::to_string(Stripes) + " stripes");
    TieredSummaryStore Store(Stripes);
    EXPECT_EQ(Store.numStripes(), Stripes);
    OracleStore Oracle;
    StoreCounters Exp; // the oracle's exact expected counter values
    std::vector<ir::MethodId> LastPlan;

    // Same seed for every stripe count: striping must be invisible.
    std::mt19937_64 Rng(Seed);
    auto Pct = [&](unsigned P) { return P != 0 && Rng() % 100 < P; };

    // A commit invalidating 0-2 methods, plus what the mix adds.
    auto Commit = [&](unsigned Op) {
      InvalidationPlan Plan;
      for (unsigned I = Rng() % 3; I > 0; --I)
        Plan.Methods.insert(Methods[Rng() % Methods.size()]);
      if (Pct(Mix.UnownedPct)) {
        Plan.Methods.insert(ir::kNone);
        ++Cov.UnownedPlans;
      }
      if (!LastPlan.empty() && Pct(Mix.RepeatPct)) {
        Plan.Methods.insert(LastPlan[Rng() % LastPlan.size()]);
        ++Cov.RepeatPlans;
      }
      if (Plan.Methods.count(ir::kNone) != 0)
        for (const auto &KV : Oracle.Map)
          Cov.UnownedDropped +=
              F.graph().node(std::get<0>(KV.first)).Method == ir::kNone;
      LastPlan.assign(Plan.Methods.begin(), Plan.Methods.end());
      size_t Got = Store.beginGeneration(F.graph(), Plan);
      size_t Want = Oracle.beginGeneration(F.graph(), Plan);
      EXPECT_EQ(Got, Want) << "op " << Op;
      EXPECT_EQ(Store.size(), Oracle.Map.size()) << "op " << Op;
      Exp.Invalidated += Want;
      ++Cov.Commits;
    };

    for (unsigned Op = 0; Op < 6000; ++Op) {
      unsigned Roll = Rng() % 100;
      const Key &K = Keys[Rng() % Keys.size()];
      // Mostly the current generation; sometimes a stale epoch, which
      // must miss / drop and count as exactly one Stale*.
      uint64_t AtGen = Oracle.Gen;
      bool Stale = Oracle.Gen > 0 && Rng() % 8 == 0;
      if (Stale)
        AtGen = Oracle.Gen - 1 - Rng() % Oracle.Gen;

      if (Roll < 45) { // pinned fetch
        PortableSummary Got, Want;
        bool GotHit = Store.fetchAt(AtGen, K.Node, K.Fields, K.State, Got);
        bool WantHit = Oracle.fetchAt(AtGen, K, Want);
        EXPECT_EQ(GotHit, WantHit) << "op " << Op;
        if (GotHit && WantHit) {
          EXPECT_TRUE(sameSummary(Got, Want)) << "op " << Op;
          EXPECT_TRUE(sameSummary(Got, summaryFor(F.graph(), K)));
        }
        ++Exp.Fetches;
        if (AtGen != Oracle.Gen)
          ++Exp.StaleFetches;
        else if (WantHit)
          ++Exp.Hits;
      } else if (Roll < 55) { // unpinned fetch
        PortableSummary Got, Want;
        bool GotHit = Store.fetch(K.Node, K.Fields, K.State, Got);
        bool WantHit = Oracle.fetchAt(Oracle.Gen, K, Want);
        EXPECT_EQ(GotHit, WantHit) << "op " << Op;
        if (GotHit && WantHit) {
          EXPECT_TRUE(sameSummary(Got, Want)) << "op " << Op;
        }
        ++Exp.Fetches;
        if (WantHit)
          ++Exp.Hits;
      } else if (Roll < 85) { // pinned publish
        Store.publishAt(AtGen, K.Node, K.Fields, K.State,
                        summaryFor(F.graph(), K));
        bool Inserted =
            Oracle.publishAt(AtGen, K, summaryFor(F.graph(), K));
        if (AtGen != Oracle.Gen)
          ++Exp.StalePublishes;
        else if (Inserted)
          ++Exp.Publishes;
      } else if (Roll < 93) { // unpinned publish
        Store.publish(K.Node, K.Fields, K.State, summaryFor(F.graph(), K));
        if (Oracle.publishAt(Oracle.Gen, K, summaryFor(F.graph(), K)))
          ++Exp.Publishes;
      } else if (Roll < 98) { // commit
        Commit(Op);
      } else { // clear
        Exp.Invalidated += Oracle.clear();
        Store.clear();
        if (Pct(Mix.CommitAfterClearPct)) {
          Commit(Op);
          ++Cov.CommitsAfterClear;
        }
      }
      EXPECT_EQ(Store.generation(), Oracle.Gen) << "op " << Op;
      if (Op % 512 == 0) {
        EXPECT_EQ(Store.size(), Oracle.Map.size()) << "op " << Op;
      }
      if (::testing::Test::HasFailure())
        return Cov; // one divergence; the rest would only repeat it
    }

    EXPECT_EQ(Store.size(), Oracle.Map.size());

    // Counters are EXACT, not approximate: every probe, publish, drop
    // and stale refusal lands on the oracle's count — and nothing in a
    // single-threaded run may ever report lock contention (the old
    // store's direct-lock paths silently undercounted; the striped
    // map's counting helpers are the only way in).
    StoreCounters C = Store.counters();
    EXPECT_EQ(C.Fetches, Exp.Fetches);
    EXPECT_EQ(C.Hits, Exp.Hits);
    EXPECT_EQ(C.StaleFetches, Exp.StaleFetches);
    EXPECT_EQ(C.Publishes, Exp.Publishes);
    EXPECT_EQ(C.StalePublishes, Exp.StalePublishes);
    EXPECT_EQ(C.Invalidated, Exp.Invalidated);
    EXPECT_EQ(C.LockContended, 0u)
        << "single-threaded runs must never report contention";
    EXPECT_EQ(C.DiskProbes, 0u) << "no disk tier was attached";

    // Per-stripe counters must sum to the aggregate view.
    StoreCounters Sum;
    for (unsigned I = 0; I < Store.numStripes(); ++I) {
      StoreCounters SC = Store.stripeCounters(I);
      Sum.Fetches += SC.Fetches;
      Sum.Hits += SC.Hits;
      Sum.Publishes += SC.Publishes;
      Sum.Invalidated += SC.Invalidated;
    }
    EXPECT_EQ(Sum.Fetches, C.Fetches);
    EXPECT_EQ(Sum.Hits, C.Hits);
    EXPECT_EQ(Sum.Publishes, C.Publishes);
    EXPECT_EQ(Sum.Invalidated, C.Invalidated);
  }
  return Cov;
}

} // namespace

TEST(TieredStoreOracleTest, FuzzedOpLogMatchesOracleExactly) {
  Fixture F;
  ASSERT_GT(keyUniverse(F.graph()).size(), 100u);
  replayAgainstOracle(F, 0xd15c0, CommitMix{});
}

TEST(TieredStoreOracleTest, UnownedRepeatedAndPostClearDropsMatchOracle) {
  // What real commits drop: every plan a service builds names
  // ir::kNone (the summaries of globals and the null object), hot
  // methods are invalidated commit after commit, and a rollback's clear
  // is followed by ordinary commits.  The fixture has a global, so some
  // keys are unowned.
  Fixture F(dynsum::testing::kGlobalSource);
  size_t Unowned = 0;
  for (uint32_t N = 0; N < F.graph().numNodes(); ++N)
    Unowned += F.graph().node(pag::NodeId(N)).Method == ir::kNone;
  ASSERT_GT(Unowned, 0u);

  CommitMix Mix;
  Mix.UnownedPct = 60;
  Mix.RepeatPct = 50;
  Mix.CommitAfterClearPct = 50;
  CommitCoverage Cov = replayAgainstOracle(F, 0x6109a1, Mix);
  // The mix must actually have produced each kind of commit.
  EXPECT_GT(Cov.UnownedPlans, 0u);
  EXPECT_GT(Cov.UnownedDropped, 0u);
  EXPECT_GT(Cov.RepeatPlans, 0u);
  EXPECT_GT(Cov.CommitsAfterClear, 0u);
  EXPECT_LT(Cov.UnownedPlans, Cov.Commits) << "some plans must leave kNone out";
}

//===----------------------------------------------------------------------===//
// Stripe isolation
//===----------------------------------------------------------------------===//

TEST(TieredStoreStripeTest, OperationsLandOnExactlyTheirKeysStripe) {
  Fixture F;
  TieredSummaryStore Store(16);
  std::vector<Key> Keys = keyUniverse(F.graph());

  // Publish one key, fetch it twice: its stripe sees exactly those
  // three operations, every other stripe stays at zero.
  const Key &K = Keys[7];
  unsigned SI = Store.stripeOf(K.Node, K.Fields, K.State);
  Store.publish(K.Node, K.Fields, K.State, summaryFor(F.graph(), K));
  PortableSummary Out;
  EXPECT_TRUE(Store.fetch(K.Node, K.Fields, K.State, Out));
  EXPECT_TRUE(Store.fetch(K.Node, K.Fields, K.State, Out));

  for (unsigned I = 0; I < Store.numStripes(); ++I) {
    StoreCounters C = Store.stripeCounters(I);
    if (I == SI) {
      EXPECT_EQ(C.Publishes, 1u);
      EXPECT_EQ(C.Fetches, 2u);
      EXPECT_EQ(C.Hits, 2u);
    } else {
      EXPECT_EQ(C.Publishes, 0u) << "stripe " << I;
      EXPECT_EQ(C.Fetches, 0u) << "stripe " << I;
    }
  }

  // The universe spreads: with 16 stripes and a few hundred keys, far
  // more than one stripe must be populated (top-bit selection).
  std::vector<bool> Touched(Store.numStripes(), false);
  for (const Key &U : Keys)
    Touched[Store.stripeOf(U.Node, U.Fields, U.State)] = true;
  unsigned Populated = 0;
  for (bool T : Touched)
    Populated += T;
  EXPECT_GT(Populated, Store.numStripes() / 2)
      << "digest top bits must spread keys across stripes";
}

//===----------------------------------------------------------------------===//
// Concurrency hammer: readers verify bit-identical summaries while
// writers publish and a committer bumps generations (TSan-checked)
//===----------------------------------------------------------------------===//

TEST(TieredStoreTortureTest, ConcurrentFetchPublishCommitStaysExact) {
  Fixture F;
  std::vector<Key> Keys = keyUniverse(F.graph());
  std::vector<ir::MethodId> Methods;
  for (const ir::Method &M : F.Prog->methods())
    Methods.push_back(M.Id);

  constexpr unsigned kWriters = 3;
  constexpr unsigned kReaders = 3;
  constexpr unsigned kOpsPerThread = 4000;
  constexpr unsigned kCommits = 40;

  TieredSummaryStore Store(4); // fewer stripes than threads: contention
  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> BadSummaries{0};

  std::vector<std::thread> Threads;
  for (unsigned W = 0; W < kWriters; ++W) {
    Threads.emplace_back([&, W] {
      std::mt19937_64 Rng(1000 + W);
      for (unsigned I = 0; I < kOpsPerThread; ++I) {
        const Key &K = Keys[Rng() % Keys.size()];
        if (Rng() & 1) {
          Store.publish(K.Node, K.Fields, K.State,
                        summaryFor(F.graph(), K));
        } else {
          // Epoch-pinned writer: snapshot the generation like a batch
          // would; the publish must either land in that generation or
          // be dropped as stale — never migrate into a newer one.
          uint64_t Gen = Store.generation();
          Store.publishAt(Gen, K.Node, K.Fields, K.State,
                          summaryFor(F.graph(), K));
        }
      }
    });
  }
  for (unsigned R = 0; R < kReaders; ++R) {
    Threads.emplace_back([&, R] {
      std::mt19937_64 Rng(2000 + R);
      PortableSummary Out;
      for (unsigned I = 0; I < kOpsPerThread; ++I) {
        const Key &K = Keys[Rng() % Keys.size()];
        bool Hit = (Rng() & 1)
                       ? Store.fetch(K.Node, K.Fields, K.State, Out)
                       : Store.fetchAt(Store.generation(), K.Node, K.Fields,
                                       K.State, Out);
        // Whatever interleaving happened, a hit is only ever the
        // deterministic value for the key — never a torn or foreign
        // summary.
        if (Hit && !sameSummary(Out, summaryFor(F.graph(), K)))
          BadSummaries.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread Committer([&] {
    std::mt19937_64 Rng(3000);
    for (unsigned I = 0; I < kCommits && !Stop.load(); ++I) {
      InvalidationPlan Plan;
      if (Rng() % 3 == 0)
        Plan.Methods.insert(Methods[Rng() % Methods.size()]);
      Store.beginGeneration(F.graph(), Plan);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  for (std::thread &T : Threads)
    T.join();
  Stop.store(true);
  Committer.join();

  EXPECT_EQ(BadSummaries.load(), 0u)
      << "a fetched summary differed from the single-threaded value";

  // Quiescent counter consistency: every probe either hit, was refused
  // stale, or missed; sizes add up across stripes.
  StoreCounters C = Store.counters();
  EXPECT_EQ(C.Fetches, uint64_t(kReaders) * kOpsPerThread);
  EXPECT_GE(C.Fetches, C.Hits + C.StaleFetches);
  EXPECT_GT(C.Publishes, 0u);
  EXPECT_LE(Store.size(), Keys.size());

  // Post-quiescence the store still answers exactly: drain every key.
  PortableSummary Out;
  uint64_t Gen = Store.generation();
  for (const Key &K : Keys) {
    if (Store.fetchAt(Gen, K.Node, K.Fields, K.State, Out)) {
      EXPECT_TRUE(sameSummary(Out, summaryFor(F.graph(), K)));
    }
  }
}

//===----------------------------------------------------------------------===//
// Disk tier: promotion, invalidation-since-attach, detach-on-clear
//===----------------------------------------------------------------------===//

namespace {

/// Warm a DYNSUM instance over Figure 2 with every variable through a
/// recording store, save the store, and keep the published (key ->
/// summary) list for probing.
struct DiskFixture {
  explicit DiskFixture(const std::string &Path) {
    ir::ParseResult R = ir::parseProgram(dynsum::testing::kFigure2Source);
    EXPECT_TRUE(R.ok()) << R.Error;
    Prog = std::move(R.Prog);
    Built = pag::buildPAG(*Prog);
    dynsum::testing::RecordingStore Rec;
    analysis::DynSumAnalysis A(*Built.Graph, AnalysisOptions());
    A.setSummaryExchange(&Rec);
    for (const ir::Variable &V : Prog->variables())
      if (!V.IsGlobal)
        A.query(Built.Graph->nodeOfVar(V.Id));
    EXPECT_GT(Rec.Published.size(), 10u);
    EXPECT_TRUE(Rec.Store.save(Path, *Built.Graph));
    for (dynsum::testing::RecordingStore::Entry &E : Rec.Published)
      Saved.emplace_back(Key{E.Node, std::move(E.Fields), E.State},
                         std::move(E.Summary));
  }

  std::unique_ptr<ir::Program> Prog;
  pag::BuiltPAG Built;
  std::vector<std::pair<Key, PortableSummary>> Saved;
};

} // namespace

TEST(TieredStoreDiskTest, ProbesPromoteAndSecondFetchHitsHot) {
  std::string Path = ::testing::TempDir() + "/tiered_disk_basic.dsum";
  DiskFixture F(Path);

  TieredSummaryStore Store;
  TieredSummaryStore::DiskTierStatus St =
      Store.attachDiskTier(Path, *F.Built.Graph);
  ASSERT_TRUE(St.Attached) << St.Error;
  EXPECT_EQ(St.Records, F.Saved.size());
  EXPECT_TRUE(St.Indexed) << "the writer appends a digest index";
  EXPECT_TRUE(Store.hasDiskTier());
  EXPECT_EQ(Store.size(), 0u) << "attach must not eagerly load anything";

  // Every saved record is served from disk, byte-identical, and
  // promoted; the second pass hits the hot tier without re-probing.
  PortableSummary Out;
  for (const auto &[K, Want] : F.Saved) {
    ASSERT_TRUE(Store.fetch(K.Node, K.Fields, K.State, Out));
    EXPECT_TRUE(sameSummary(Out, Want));
  }
  StoreCounters AfterCold = Store.counters();
  EXPECT_EQ(AfterCold.DiskProbes, F.Saved.size());
  EXPECT_EQ(AfterCold.DiskHits, F.Saved.size());
  EXPECT_EQ(AfterCold.Promoted, F.Saved.size());
  EXPECT_EQ(AfterCold.Hits, 0u);
  EXPECT_EQ(Store.size(), F.Saved.size());

  for (const auto &[K, Want] : F.Saved) {
    ASSERT_TRUE(Store.fetch(K.Node, K.Fields, K.State, Out));
    EXPECT_TRUE(sameSummary(Out, Want));
  }
  StoreCounters AfterWarm = Store.counters();
  EXPECT_EQ(AfterWarm.DiskProbes, AfterCold.DiskProbes)
      << "promoted entries must not re-probe the disk";
  EXPECT_EQ(AfterWarm.Hits, F.Saved.size());

  // A key that was never saved misses both tiers.
  EXPECT_FALSE(
      Store.fetch(F.Saved[0].first.Node, {9, 9, 9}, RsmState::S1, Out));
  EXPECT_EQ(Store.counters().DiskCorrupt, 0u);
}

TEST(TieredStoreDiskTest, InvalidatedMethodsAreRefusedFromDiskForever) {
  std::string Path = ::testing::TempDir() + "/tiered_disk_inval.dsum";
  DiskFixture F(Path);

  TieredSummaryStore Store;
  ASSERT_TRUE(Store.attachDiskTier(Path, *F.Built.Graph).Attached);

  // Pick a method with at least one saved record.
  ir::MethodId Victim = ir::kNone;
  for (const auto &[K, S] : F.Saved) {
    (void)S;
    ir::MethodId M = F.Built.Graph->node(K.Node).Method;
    if (M != ir::kNone) {
      Victim = M;
      break;
    }
  }
  ASSERT_NE(Victim, ir::kNone);

  InvalidationPlan Plan;
  Plan.Methods.insert(Victim);
  Store.beginGeneration(*F.Built.Graph, Plan);
  EXPECT_TRUE(Store.hasDiskTier())
      << "per-method invalidation keeps the tier, unlike clear()";

  PortableSummary Out;
  size_t Refused = 0, Served = 0;
  for (const auto &[K, Want] : F.Saved) {
    bool Hit = Store.fetch(K.Node, K.Fields, K.State, Out);
    bool VictimKey = F.Built.Graph->node(K.Node).Method == Victim;
    if (VictimKey) {
      EXPECT_FALSE(Hit) << "invalidated method served from disk";
      ++Refused;
    } else if (Hit) {
      EXPECT_TRUE(sameSummary(Out, Want));
      ++Served;
    }
  }
  EXPECT_GT(Refused, 0u);
  EXPECT_GT(Served, 0u);

  // The refusal is cumulative: a later no-op commit must not
  // resurrect the invalidated method's records.
  Store.beginGeneration(*F.Built.Graph, InvalidationPlan());
  for (const auto &[K, Want] : F.Saved) {
    (void)Want;
    if (F.Built.Graph->node(K.Node).Method == Victim) {
      EXPECT_FALSE(Store.fetch(K.Node, K.Fields, K.State, Out));
    }
  }
}

TEST(TieredStoreDiskTest, ClearDetachesAndMismatchedProgramRefuses) {
  std::string Path = ::testing::TempDir() + "/tiered_disk_detach.dsum";
  DiskFixture F(Path);

  TieredSummaryStore Store;
  ASSERT_TRUE(Store.attachDiskTier(Path, *F.Built.Graph).Attached);
  Store.clear();
  EXPECT_FALSE(Store.hasDiskTier())
      << "clear() branches the lineage; the tier must go";
  PortableSummary Out;
  const Key &K = F.Saved[0].first;
  EXPECT_FALSE(Store.fetch(K.Node, K.Fields, K.State, Out));
  EXPECT_EQ(Store.counters().DiskProbes, 0u);

  // A different program's graph must refuse the attach outright.
  ir::ParseResult R =
      ir::parseProgram(dynsum::testing::kStraightLineSource);
  ASSERT_TRUE(R.ok());
  pag::BuiltPAG Other = pag::buildPAG(*R.Prog);
  TieredSummaryStore Fresh;
  TieredSummaryStore::DiskTierStatus St =
      Fresh.attachDiskTier(Path, *Other.Graph);
  EXPECT_FALSE(St.Attached);
  EXPECT_NE(St.Error.find("fingerprint"), std::string::npos) << St.Error;
  EXPECT_FALSE(Fresh.hasDiskTier());
}

TEST(TieredStoreDiskTest, CorruptRecordsAreMissesNeverCrashes) {
  std::string Path = ::testing::TempDir() + "/tiered_disk_corrupt.dsum";
  DiskFixture F(Path);

  // Flip one byte inside EVERY record's payload, walking the v3
  // frames; the footer index stays intact, so lookups resolve and the
  // per-record CRC is the only line of defense.
  std::ifstream In(Path, std::ios::binary);
  std::string Buf((std::istreambuf_iterator<char>(In)),
                  std::istreambuf_iterator<char>());
  In.close();
  ASSERT_GT(Buf.size(), 44u);
  auto Get32 = [&](size_t Pos) {
    return uint32_t(uint8_t(Buf[Pos])) | uint32_t(uint8_t(Buf[Pos + 1])) << 8 |
           uint32_t(uint8_t(Buf[Pos + 2])) << 16 |
           uint32_t(uint8_t(Buf[Pos + 3])) << 24;
  };
  size_t Pos = 32;
  size_t Records = 0;
  while (Records < F.Saved.size()) {
    uint32_t Len = Get32(Pos);
    Buf[Pos + 12] = char(Buf[Pos + 12] ^ 0x5a);
    Pos += 12 + Len;
    ++Records;
  }
  std::ofstream OutF(Path, std::ios::binary | std::ios::trunc);
  OutF.write(Buf.data(), std::streamsize(Buf.size()));
  OutF.close();

  TieredSummaryStore Store;
  TieredSummaryStore::DiskTierStatus St =
      Store.attachDiskTier(Path, *F.Built.Graph);
  ASSERT_TRUE(St.Attached) << St.Error
                           << " (payload damage must not refuse the attach)";

  // Every probe must degrade to a miss — no crash, no damaged bytes
  // handed out — and the corruption must be visible in the counters.
  PortableSummary Out;
  for (const auto &[K, Want] : F.Saved) {
    (void)Want;
    EXPECT_FALSE(Store.fetch(K.Node, K.Fields, K.State, Out));
  }
  StoreCounters C = Store.counters();
  EXPECT_EQ(C.DiskProbes, F.Saved.size());
  EXPECT_EQ(C.DiskHits, 0u);
  EXPECT_EQ(C.DiskCorrupt, F.Saved.size());
  EXPECT_EQ(Store.size(), 0u);

  // Corruption is counted once per record, not once per probe.
  for (const auto &[K, Want] : F.Saved) {
    (void)Want;
    EXPECT_FALSE(Store.fetch(K.Node, K.Fields, K.State, Out));
  }
  EXPECT_EQ(Store.counters().DiskCorrupt, F.Saved.size());
  std::remove(Path.c_str());
}

TEST(TieredStoreDiskTest, ConcurrentColdProbesPromoteOnceAndStayExact) {
  std::string Path = ::testing::TempDir() + "/tiered_disk_conc.dsum";
  DiskFixture F(Path);

  TieredSummaryStore Store;
  ASSERT_TRUE(Store.attachDiskTier(Path, *F.Built.Graph).Attached);

  constexpr unsigned kThreads = 6;
  std::atomic<uint64_t> Bad{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < kThreads; ++T) {
    Threads.emplace_back([&, T] {
      std::mt19937_64 Rng(500 + T);
      PortableSummary Out;
      // Every thread sweeps all keys in a different order: the first
      // toucher of a key races others through probe + promote, and
      // every one of them must still see the exact bytes.
      std::vector<size_t> Order(F.Saved.size());
      for (size_t I = 0; I < Order.size(); ++I)
        Order[I] = I;
      std::shuffle(Order.begin(), Order.end(), Rng);
      for (size_t I : Order) {
        const auto &[K, Want] = F.Saved[I];
        if (!Store.fetch(K.Node, K.Fields, K.State, Out) ||
            !sameSummary(Out, Want))
          Bad.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Bad.load(), 0u);
  StoreCounters C = Store.counters();
  // Each of the kThreads * records fetches either hit hot or came off
  // disk; exactly one promotion per record made it into the hot tier.
  EXPECT_EQ(C.Hits + C.DiskHits, uint64_t(kThreads) * F.Saved.size());
  EXPECT_EQ(C.Promoted, F.Saved.size());
  EXPECT_EQ(C.DiskCorrupt, 0u);
  EXPECT_EQ(Store.size(), F.Saved.size());
  std::remove(Path.c_str());
}

/// save() writes exactly what probes would serve: hot entries, plus the
/// disk records no hot entry shadows and no commit since the attach
/// invalidated — each once — and it moves no counter.
TEST(TieredStoreDiskTest, SaveWritesWhatProbesWouldServe) {
  std::string Path = ::testing::TempDir() + "/tiered_disk_save_in.dsum";
  std::string Out = ::testing::TempDir() + "/tiered_disk_save_out.dsum";
  DiskFixture F(Path);
  const pag::PAG &G = *F.Built.Graph;

  TieredSummaryStore Store;
  ASSERT_TRUE(Store.attachDiskTier(Path, G).Attached);
  ir::MethodId Victim = ir::kNone;
  for (const auto &[K, S] : F.Saved) {
    (void)S;
    if (G.node(K.Node).Method != ir::kNone) {
      Victim = G.node(K.Node).Method;
      break;
    }
  }
  ASSERT_NE(Victim, ir::kNone);
  // Promote every other record, then invalidate the victim's method.
  PortableSummary Scratch;
  for (size_t I = 0; I < F.Saved.size(); I += 2) {
    const Key &K = F.Saved[I].first;
    ASSERT_TRUE(Store.fetch(K.Node, K.Fields, K.State, Scratch));
  }
  InvalidationPlan Plan;
  Plan.Methods.insert(Victim);
  Store.beginGeneration(G, Plan);

  StoreCounters Before = Store.counters();
  size_t SizeBefore = Store.size();
  uint64_t Written = 0;
  ASSERT_TRUE(Store.save(Out, G, &Written));
  StoreCounters After = Store.counters();
  EXPECT_EQ(Store.size(), SizeBefore);
  EXPECT_EQ(After.Fetches, Before.Fetches);
  EXPECT_EQ(After.DiskProbes, Before.DiskProbes);
  EXPECT_EQ(After.Promoted, Before.Promoted);
  EXPECT_EQ(After.Publishes, Before.Publishes);

  size_t Live = 0;
  for (const auto &[K, S] : F.Saved) {
    (void)S;
    Live += G.node(K.Node).Method != Victim;
  }
  ASSERT_LT(Live, F.Saved.size());
  EXPECT_EQ(Written, Live);

  TieredSummaryStore Next;
  TieredSummaryStore::DiskTierStatus St = Next.attachDiskTier(Out, G);
  ASSERT_TRUE(St.Attached) << St.Error;
  EXPECT_EQ(St.Records, Live);
  PortableSummary Got;
  for (const auto &[K, Want] : F.Saved) {
    bool Hit = Next.fetch(K.Node, K.Fields, K.State, Got);
    EXPECT_EQ(Hit, G.node(K.Node).Method != Victim);
    if (Hit) {
      EXPECT_TRUE(sameSummary(Got, Want));
    }
  }
  std::remove(Path.c_str());
  std::remove(Out.c_str());
}
