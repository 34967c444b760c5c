//===----------------------------------------------------------------------===//
///
/// \file
/// The striped concurrent hot tier of the summary store: N independent
/// lock stripes over a digest-keyed summary table, with per-stripe
/// operation counters.
///
/// Striping replaces the store's historical single shared_mutex.  A key
/// hashes to exactly one stripe (top digest bits — std::unordered_map
/// buckets on the LOW bits, so the selectors must not overlap or every
/// stripe would see correlated bucket pressure), and every fetch or
/// publish takes only that stripe's lock: readers and writers on
/// different stripes never touch the same cache line, let alone the
/// same mutex.  Cross-stripe operations (generation bumps, clears)
/// take every stripe lock in index order — deadlock-free because
/// single-key operations hold exactly one stripe and the all-stripe
/// path is itself ordered.
///
/// Lock-contention accounting is EXACT: every acquisition in the store
/// goes through lockShared()/lockUnique(), which probe with
/// try_to_lock and count precisely the acquisitions that then had to
/// block.  (The pre-striping store had paths taking the mutex
/// directly, silently bypassing the counter.)  Counters are per
/// stripe, so a hammered stripe's contention is visible next to an
/// idle neighbor's zero — the signature striping exists to produce.
///
//===----------------------------------------------------------------------===//

#ifndef DYNSUM_ENGINE_STRIPEDMAP_H
#define DYNSUM_ENGINE_STRIPEDMAP_H

#include "analysis/DynSum.h"
#include "pag/PAG.h"
#include "support/Hashing.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace dynsum {
namespace engine {

/// Monotonic operation counters of one summary store (readable from any
/// thread; each counter is updated with relaxed atomics, so a snapshot
/// is approximate while writers race but exact once quiescent).  These
/// are the store-side observability the invalidation-policy benchmarks
/// key off: a policy that over-invalidates shows up as Invalidated
/// spikes and a collapsing Hits/Fetches ratio, cross-thread
/// serialization shows up in LockContended, and the Disk* family
/// measures what the mmap'd tier contributed after a warm restart.
struct StoreCounters {
  uint64_t Fetches = 0;        ///< fetch/fetchAt probes issued
  uint64_t Hits = 0;           ///< probes served from the hot tier
  uint64_t StaleFetches = 0;   ///< fetchAt probes refused (stale epoch)
  uint64_t Publishes = 0;      ///< summaries accepted into the table
  uint64_t StalePublishes = 0; ///< publishes dropped (stale epoch)
  uint64_t Invalidated = 0;    ///< entries dropped by commits/clears
  uint64_t LockContended = 0;  ///< lock acquisitions that had to block
  uint64_t DiskProbes = 0;     ///< hot-tier misses probed against disk
  uint64_t DiskHits = 0;       ///< disk probes that produced a summary
  uint64_t DiskCorrupt = 0;    ///< disk records rejected (CRC / parse)
  uint64_t DiskStale = 0;      ///< disk hits dropped: commit raced promotion
  uint64_t Promoted = 0;       ///< disk hits installed into the hot tier
};

/// Digest of one (node, field-stack, state) summary key, streamed over
/// the components without materializing a key object.  The fetch-miss
/// path probes once per summary computation, so this stays
/// allocation-free.
inline uint64_t summaryKeyDigest(pag::NodeId Node,
                                 const std::vector<uint32_t> &Fields,
                                 analysis::RsmState S) {
  uint64_t H = hashMix(packPair(Node, uint32_t(S)));
  for (uint32_t F : Fields)
    H = hashCombine(H, F);
  return H;
}

/// One stored summary with the exact key for collision resolution.
struct SummaryEntry {
  pag::NodeId Node = 0;
  analysis::RsmState State = analysis::RsmState::S1;
  std::vector<uint32_t> Fields;
  analysis::PortableSummary Summary;

  bool matches(pag::NodeId N, const std::vector<uint32_t> &F,
               analysis::RsmState S) const {
    return Node == N && State == S && Fields == F;
  }
};

/// The atomic mirror of StoreCounters, one per stripe.
struct StripeCounters {
  std::atomic<uint64_t> Fetches{0};
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> StaleFetches{0};
  std::atomic<uint64_t> Publishes{0};
  std::atomic<uint64_t> StalePublishes{0};
  std::atomic<uint64_t> Invalidated{0};
  std::atomic<uint64_t> LockContended{0};
  std::atomic<uint64_t> DiskProbes{0};
  std::atomic<uint64_t> DiskHits{0};
  std::atomic<uint64_t> DiskStale{0};
  std::atomic<uint64_t> Promoted{0};

  /// Adds this stripe's counts into \p Out (relaxed snapshot).
  void addTo(StoreCounters &Out) const {
    Out.Fetches += Fetches.load(std::memory_order_relaxed);
    Out.Hits += Hits.load(std::memory_order_relaxed);
    Out.StaleFetches += StaleFetches.load(std::memory_order_relaxed);
    Out.Publishes += Publishes.load(std::memory_order_relaxed);
    Out.StalePublishes += StalePublishes.load(std::memory_order_relaxed);
    Out.Invalidated += Invalidated.load(std::memory_order_relaxed);
    Out.LockContended += LockContended.load(std::memory_order_relaxed);
    Out.DiskProbes += DiskProbes.load(std::memory_order_relaxed);
    Out.DiskHits += DiskHits.load(std::memory_order_relaxed);
    Out.DiskStale += DiskStale.load(std::memory_order_relaxed);
    Out.Promoted += Promoted.load(std::memory_order_relaxed);
  }
};

/// One lock stripe: its mutex, its slice of the table, its counters.
/// Cache-line aligned so neighboring stripes never false-share.
struct alignas(64) SummaryStripe {
  mutable std::shared_mutex M;
  /// Digest -> its (almost always unique) entry.  The rare digest
  /// collision spills into Overflow, scanned only after a digest hit
  /// with a key mismatch.
  std::unordered_map<uint64_t, SummaryEntry> Map;
  std::vector<SummaryEntry> Overflow;
  /// Map's digests listed by the owning method of their key node, so a
  /// commit erases exactly the invalidated methods' entries instead of
  /// sweeping the table.  The stripe cannot see the graph when it
  /// inserts, so new digests wait in Pending until dropMethods, which
  /// is handed the graph, files them.
  std::unordered_map<ir::MethodId, std::vector<uint64_t>> ByMethod;
  std::vector<uint64_t> Pending;
  mutable StripeCounters C;

  /// Entries held, under the caller's lock.
  size_t size() const { return Map.size() + Overflow.size(); }

  /// Lookup under the caller's lock; null on miss.
  const SummaryEntry *find(uint64_t Digest, pag::NodeId Node,
                           const std::vector<uint32_t> &Fields,
                           analysis::RsmState S) const {
    auto It = Map.find(Digest);
    if (It == Map.end())
      return nullptr;
    if (It->second.matches(Node, Fields, S))
      return &It->second;
    for (const SummaryEntry &E : Overflow)
      if (E.matches(Node, Fields, S))
        return &E;
    return nullptr;
  }

  /// Insert-if-absent under the caller's unique lock; true when the
  /// entry went in (first writer wins; duplicates are dropped).
  bool insert(uint64_t Digest, pag::NodeId Node,
              std::vector<uint32_t> Fields, analysis::RsmState S,
              analysis::PortableSummary Summary) {
    // Skip the early rehash cascade of a cold batch — but never shrink:
    // reserve() may rehash DOWN an empty pre-reserved table (the disk
    // tier pre-sizes stripes at attach for the promotion flood).
    if (Map.empty() && Map.bucket_count() < 256)
      Map.reserve(256);
    auto It = Map.find(Digest);
    if (It == Map.end()) {
      Map.emplace(Digest,
                  SummaryEntry{Node, S, std::move(Fields), std::move(Summary)});
      Pending.push_back(Digest);
      return true;
    }
    if (It->second.matches(Node, Fields, S))
      return false;
    for (const SummaryEntry &E : Overflow)
      if (E.matches(Node, Fields, S))
        return false;
    Overflow.push_back(
        SummaryEntry{Node, S, std::move(Fields), std::move(Summary)});
    return true;
  }

  /// Commit-time drop under the caller's unique lock.  Files Pending
  /// into ByMethod by the owning method in \p G, dropping entries whose
  /// node \p G does not have, then erases every entry of \p Methods.
  /// Overflow, which holds only digest collisions, is swept.  Costs
  /// O(pending + dropped + overflow), not O(stripe).  Returns how many
  /// entries went.
  size_t dropMethods(const pag::PAG &G,
                     const std::unordered_set<ir::MethodId> &Methods) {
    size_t Before = size();
    // Every pending digest is in Map: only this function and clear()
    // erase from it, and both empty Pending.
    for (uint64_t D : Pending) {
      auto It = Map.find(D);
      if (It->second.Node >= G.numNodes())
        Map.erase(It);
      else
        ByMethod[G.node(It->second.Node).Method].push_back(D);
    }
    Pending.clear();
    for (ir::MethodId M : Methods) {
      auto It = ByMethod.find(M);
      if (It == ByMethod.end())
        continue;
      for (uint64_t D : It->second)
        Map.erase(D);
      ByMethod.erase(It);
    }
    auto Drops = [&](const SummaryEntry &E) {
      return E.Node >= G.numNodes() ||
             Methods.count(G.node(E.Node).Method) != 0;
    };
    Overflow.erase(std::remove_if(Overflow.begin(), Overflow.end(), Drops),
                   Overflow.end());
    return Before - size();
  }

  /// Empties the table and both method indexes.
  void clear() {
    Map.clear();
    Overflow.clear();
    ByMethod.clear();
    Pending.clear();
  }
};

/// The stripe array plus the selection and (exactly counted) locking
/// discipline.  Pure mechanism: generation semantics live in
/// TieredSummaryStore, which drives these locks.
class StripedSummaryMap {
public:
  /// Rounds \p StripeCount up to a power of two (0 picks the default,
  /// 16 — enough that a CI-sized thread count rarely collides, small
  /// enough that all-stripe passes stay cheap).
  explicit StripedSummaryMap(unsigned StripeCount = 0) {
    unsigned Want = StripeCount == 0 ? 16 : StripeCount;
    Count = 1;
    Bits = 0;
    while (Count < Want && Count < 256) {
      Count <<= 1;
      ++Bits;
    }
    Stripes = std::make_unique<SummaryStripe[]>(Count);
  }

  unsigned numStripes() const { return Count; }

  /// Stripe selector: the TOP digest bits (see the file comment).
  unsigned stripeFor(uint64_t Digest) const {
    return Bits == 0 ? 0 : unsigned(Digest >> (64 - Bits));
  }

  SummaryStripe &stripe(unsigned I) const { return Stripes[I]; }

  /// Takes stripe \p I's shared (reader) lock, counting the acquire on
  /// that stripe iff it had to block.  The try_to_lock probe failing
  /// means someone held the lock incompatibly at that instant — exactly
  /// the serialization LockContended exposes.
  std::shared_lock<std::shared_mutex> lockShared(unsigned I) const {
    SummaryStripe &S = Stripes[I];
    std::shared_lock<std::shared_mutex> Lock(S.M, std::try_to_lock);
    if (!Lock.owns_lock()) {
      S.C.LockContended.fetch_add(1, std::memory_order_relaxed);
      Lock.lock();
    }
    return Lock;
  }

  /// Exclusive (writer) counterpart of lockShared.
  std::unique_lock<std::shared_mutex> lockUnique(unsigned I) const {
    SummaryStripe &S = Stripes[I];
    std::unique_lock<std::shared_mutex> Lock(S.M, std::try_to_lock);
    if (!Lock.owns_lock()) {
      S.C.LockContended.fetch_add(1, std::memory_order_relaxed);
      Lock.lock();
    }
    return Lock;
  }

  /// Every stripe's exclusive lock, acquired in index order (the only
  /// multi-stripe discipline, so the order alone rules out deadlock).
  /// Used by generation bumps and clears, whose writes must be visible
  /// to every later single-stripe critical section.
  std::vector<std::unique_lock<std::shared_mutex>> lockAllUnique() const {
    std::vector<std::unique_lock<std::shared_mutex>> Locks;
    Locks.reserve(Count);
    for (unsigned I = 0; I < Count; ++I)
      Locks.push_back(lockUnique(I));
    return Locks;
  }

private:
  unsigned Count = 1;
  unsigned Bits = 0;
  std::unique_ptr<SummaryStripe[]> Stripes;
};

} // namespace engine
} // namespace dynsum

#endif // DYNSUM_ENGINE_STRIPEDMAP_H
