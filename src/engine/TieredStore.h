//===----------------------------------------------------------------------===//
///
/// \file
/// TieredSummaryStore: the cross-thread, cross-generation — and now
/// cross-process — store of complete PPTA summaries.
///
/// A PPTA summary depends only on the PAG and the (node, field-stack,
/// state) key — never on the querying context or the computing thread —
/// so every worker of a batch may reuse every other worker's summaries,
/// and a restarted server may reuse its predecessor's.  The store
/// layers two tiers around that fact:
///
///   * Tier 1 (hot): the striped concurrent map of StripedMap.h.  Keys
///     hash to one of N lock stripes; readers on different stripes
///     share nothing.  Entries hold pool-independent PortableSummary
///     values re-interned by the fetching DynSumAnalysis.  Within one
///     generation the tier is append-only: publish never overwrites
///     (all writers compute identical summaries for a key).
///
///   * Tier 2 (disk, optional): a read-only mmap of a DSUM v3 snapshot
///     (analysis::MappedSummaryFile), attached against a graph whose
///     program fingerprint matches the file.  A hot-tier miss probes
///     the file through its digest index; a hit is validated (lazy
///     per-record CRC — corruption is a miss, never a crash), resolved
///     from canonical to in-memory node ids, PROMOTED into the hot
///     tier, and returned.  The first query batch after a warm restart
///     drains from this tier instead of recomputing.
///
/// Persistence is the store's own, and it has one path each way.
/// save() writes a snapshot of everything a probe would serve — the hot
/// tier plus every disk record no hot entry shadows and no commit
/// invalidated — and every load is attachDiskTier().  A snapshot
/// therefore keeps what a process attached but never touched, and a
/// chain of restarts stays as warm as its first run.
///
/// Generations: every hot entry belongs to the store's current
/// generation.  A program commit calls beginGeneration() — dropping
/// the summaries an incremental::InvalidationPlan names and bumping
/// the counter — or clear(), which drops everything and also bumps.
/// Node ids are stable across delta builds, so surviving entries carry
/// over verbatim; per-stripe counters also carry across generations
/// (they are lifetime counters, never reset by a bump).  Readers pin a
/// generation through SummaryStoreEpoch: a fetch or publish from a
/// stale epoch misses / is dropped, so summaries computed against
/// different graph versions can never mix.  Both cross-stripe
/// operations hold EVERY stripe lock while dropping and bumping, so a
/// single-stripe publishAt can never land in an already-dropped stripe
/// of the old generation — the classic striped-invalidation leak.
///
/// The disk tier under generations: the attach captures the node <->
/// canonical translation of the attach-time graph (sound: fingerprint
/// equality pins the program's variable/alloc counts) and every
/// beginGeneration accumulates the plan's methods into an invalidated
/// set.  A disk record whose key node's method was EVER invalidated
/// since attach is refused — exactly the summaries a resident hot
/// entry would have been dropped for — and clear() (rollback) detaches
/// the tier entirely, since its lineage assumption is gone.  Nodes
/// created after attach skip the disk probe.
///
//===----------------------------------------------------------------------===//

#ifndef DYNSUM_ENGINE_TIEREDSTORE_H
#define DYNSUM_ENGINE_TIEREDSTORE_H

#include "analysis/SummaryIO.h"
#include "engine/StripedMap.h"
#include "incremental/Invalidation.h"

#include <memory>
#include <unordered_set>

namespace dynsum {
namespace engine {

/// Thread-safe SummaryExchange over the two tiers.  The SummaryExchange
/// overrides operate on the current generation; epoch-pinned access
/// goes through fetchAt / publishAt (see SummaryStoreEpoch).
class TieredSummaryStore : public analysis::SummaryExchange {
public:
  /// \p Stripes is rounded up to a power of two; 0 picks the default
  /// (see StripedSummaryMap).
  explicit TieredSummaryStore(unsigned Stripes = 0) : Hot(Stripes) {}

  bool fetch(pag::NodeId Node, const std::vector<uint32_t> &Fields,
             analysis::RsmState S, analysis::PortableSummary &Out) override;

  void publish(pag::NodeId Node, std::vector<uint32_t> Fields,
               analysis::RsmState S,
               analysis::PortableSummary Summary) override;

  /// Epoch-pinned variants: a \p Gen older than generation() always
  /// misses (fetch) or is silently dropped (publish) — the calling
  /// batch is draining against a PAG that a commit has superseded, and
  /// its summaries are only valid there.
  bool fetchAt(uint64_t Gen, pag::NodeId Node,
               const std::vector<uint32_t> &Fields, analysis::RsmState S,
               analysis::PortableSummary &Out);
  void publishAt(uint64_t Gen, pag::NodeId Node,
                 std::vector<uint32_t> Fields, analysis::RsmState S,
                 analysis::PortableSummary Summary);

  /// The current generation.  Starts at 0; bumped by beginGeneration()
  /// and clear().
  uint64_t generation() const { return Gen.load(std::memory_order_acquire); }

  /// Commit handoff: drops the hot summaries keyed at nodes owned by
  /// any method the plan names (ir::kNone names the unowned nodes:
  /// globals and the null object), extends the disk tier's
  /// invalidated-method set the same way, and bumps the generation —
  /// all under every stripe lock, so no concurrent publish can slip a
  /// stale entry past the drop.  Node ids are stable, so every
  /// surviving key stays valid verbatim.  The drop goes through each
  /// stripe's per-method lists, not a sweep: summaries published since
  /// the last commit are first filed by their owning method in the
  /// post-rebuild \p NewGraph (one whose node \p NewGraph lacks is
  /// dropped), then the plan's lists are erased.  A commit costs
  /// O(summaries published since the last commit + summaries dropped),
  /// not O(store).  Returns how many hot summaries were dropped.
  size_t beginGeneration(const pag::PAG &NewGraph,
                         const incremental::InvalidationPlan &Plan);

  /// Number of summaries resident in the hot tier.
  size_t size() const;

  /// Drops every hot summary, detaches the disk tier (its lineage
  /// assumption no longer holds after a rollback), and bumps the
  /// generation.
  void clear();

  /// Snapshot of the lifetime operation counters, summed over stripes.
  StoreCounters counters() const;

  //===------------------------------------------------------------------===//
  // Disk tier
  //===------------------------------------------------------------------===//

  /// Result of an attach attempt.  A refused attach (missing file,
  /// header damage, fingerprint mismatch) leaves the store running
  /// hot-only; Error says why.
  struct DiskTierStatus {
    bool Attached = false;
    uint64_t Records = 0;
    /// The on-disk digest index was present; false = frame-scan
    /// fallback.
    bool Indexed = false;
    std::string Error;
  };

  /// Attaches \p Path as the read-only disk tier, translating against
  /// \p G (the current generation's graph; its program fingerprint must
  /// match the file's).  Replaces any previously attached tier.  This is
  /// every load of a snapshot: nothing is read eagerly, and Records
  /// counts what probes may serve (records whose checksum failed are
  /// excluded).
  DiskTierStatus attachDiskTier(const std::string &Path, const pag::PAG &G);

  /// Saves everything a probe would serve as a DSUM v3 snapshot at
  /// \p Path: every hot entry, plus every disk record no hot entry
  /// shadows, whose key method no commit since the attach invalidated,
  /// and which is not dead.  Both kinds stream through the one
  /// analysis::SummaryFileWriter, canonicalized against \p G — the
  /// current generation's graph, whose program fingerprints the file.
  /// A disk record is decoded into \p G's node ids exactly as a probe
  /// would serve it, so the tier survives any number of save/attach
  /// rounds.  Nothing is promoted, and no fetch, publish or disk-hit
  /// counter moves.  The write is
  /// crash-safe (temp file + rename), so \p Path may be the attached
  /// file itself: the tier keeps reading its old mapping.  Returns
  /// false on I/O failure; \p Records, when given, receives the number
  /// of records written.
  bool save(const std::string &Path, const pag::PAG &G,
            uint64_t *Records = nullptr) const;

  bool hasDiskTier() const { return std::atomic_load(&Disk) != nullptr; }

  //===------------------------------------------------------------------===//
  // Per-stripe observability (tests, bench contention columns)
  //===------------------------------------------------------------------===//

  unsigned numStripes() const { return Hot.numStripes(); }

  /// Lifetime counters of one stripe.
  StoreCounters stripeCounters(unsigned I) const;

  /// Which stripe a key lives on (stable for the store's lifetime).
  unsigned stripeOf(pag::NodeId Node, const std::vector<uint32_t> &Fields,
                    analysis::RsmState S) const {
    return Hot.stripeFor(summaryKeyDigest(Node, Fields, S));
  }

private:
  /// Everything the disk tier needs, snapshot at attach time.  The
  /// node/canonical tables are immutable; Invalidated is written only
  /// under ALL stripe locks (beginGeneration) and read only under a
  /// stripe lock (the probe path), which orders every access.
  struct DiskTier {
    std::unique_ptr<analysis::MappedSummaryFile> File;
    /// NodeId -> canonical reference, for nodes existing at attach.
    /// Later-created nodes are absent and skip the disk probe.
    std::vector<uint32_t> CanonOf;
    /// Canonical reference -> NodeId (size numVars + numAllocs at
    /// attach).
    std::vector<pag::NodeId> NodeOfCanon;
    /// NodeId -> owning method, for the invalidation filter.
    std::vector<ir::MethodId> MethodOf;
    /// Union of every InvalidationPlan's methods since attach.
    std::unordered_set<ir::MethodId> Invalidated;

    /// Whether a record keyed at \p Node may still be served: the node
    /// existed at attach and no commit since invalidated its method.
    /// Caller holds a stripe lock (Invalidated's read discipline).
    bool serves(pag::NodeId Node) const {
      return Node < CanonOf.size() &&
             (Invalidated.empty() || Invalidated.count(MethodOf[Node]) == 0);
    }
  };

  /// Computes the on-disk record digest for \p Node's key under tier
  /// \p T and starts prefetching its digest-table line; 0 when the node
  /// postdates the attach (it cannot be on disk).  Fetch paths call
  /// this before their hot-tier lookup so the probe's first dependent
  /// memory load overlaps with that lookup.
  static uint64_t prepareDiskProbe(const DiskTier &T, pag::NodeId Node,
                                   const std::vector<uint32_t> &Fields,
                                   analysis::RsmState S);

  /// Probes the disk tier for \p Node's key; \p RecDigest is
  /// prepareDiskProbe's result for the same key.  Caller holds the
  /// key's stripe lock (shared is enough — the tier is read-only and
  /// Invalidated is stable outside all-stripe sections).  On a hit the
  /// decoded record is resolved into \p Out's in-memory node ids.
  bool probeDisk(const DiskTier &T, uint64_t RecDigest, pag::NodeId Node,
                 const std::vector<uint32_t> &Fields, analysis::RsmState S,
                 analysis::PortableSummary &Out) const;

  /// Promotes a disk hit into the hot tier unless the generation moved
  /// past \p AtGen while the stripe lock was dropped (in which case the
  /// hit is discarded — conservative, counted as DiskStale).  Returns
  /// whether the summary is still valid to hand out.
  bool promote(unsigned Stripe, uint64_t Digest, uint64_t AtGen,
               pag::NodeId Node, const std::vector<uint32_t> &Fields,
               analysis::RsmState S, const analysis::PortableSummary &Summary);

  StripedSummaryMap Hot;
  std::atomic<uint64_t> Gen{0};
  /// Attached via std::atomic_load/atomic_store on shared_ptr: probes
  /// snapshot the pointer, attach/clear swap it.
  std::shared_ptr<DiskTier> Disk;
  /// Mirrors Disk != nullptr so fetch paths can skip the shared_ptr
  /// atomic load (a lock-pool round trip) when no tier is attached.
  /// Racing a concurrent attach/clear is benign: a stale false skips
  /// the tier for one fetch, a stale true re-checks the real pointer.
  std::atomic<bool> HasDisk{false};
};

/// Compatibility name: the rest of the codebase predates the tiering.
using SharedSummaryStore = TieredSummaryStore;

/// A SummaryExchange view of a TieredSummaryStore pinned to one
/// generation.  Batches hold one of these for their whole run: if a
/// commit publishes a new generation mid-batch, the remaining fetches
/// miss and publishes are dropped, so the draining batch keeps
/// computing correct answers against its (still alive) old PAG without
/// ever reading summaries that only hold for the new one.  Stateless
/// beyond the pin — one instance may serve every worker of a batch.
class SummaryStoreEpoch : public analysis::SummaryExchange {
public:
  SummaryStoreEpoch(SharedSummaryStore &Store, uint64_t Gen)
      : Store(Store), Gen(Gen) {}

  uint64_t generation() const { return Gen; }

  bool fetch(pag::NodeId Node, const std::vector<uint32_t> &Fields,
             analysis::RsmState S, analysis::PortableSummary &Out) override {
    return Store.fetchAt(Gen, Node, Fields, S, Out);
  }

  void publish(pag::NodeId Node, std::vector<uint32_t> Fields,
               analysis::RsmState S,
               analysis::PortableSummary Summary) override {
    Store.publishAt(Gen, Node, std::move(Fields), S, std::move(Summary));
  }

private:
  SharedSummaryStore &Store;
  uint64_t Gen;
};

} // namespace engine
} // namespace dynsum

#endif // DYNSUM_ENGINE_TIEREDSTORE_H
