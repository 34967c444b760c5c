//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel batched query engine.
///
/// A QueryScheduler owns a shared summary store for one PAG and answers
/// QueryBatches by sharding them round-robin over worker threads.  Each
/// worker owns a private DynSumAnalysis — its own StackPools, summary
/// cache and budget accounting — so the sequential algorithms run
/// unmodified; the only cross-thread structure is the read-mostly
/// SharedSummaryStore that lets workers reuse each other's
/// context-independent PPTA summaries.
///
/// Because summaries are deterministic in (node, fields, state) and
/// sharing only ever substitutes an identical summary for a
/// recomputation, batched answers project onto exactly the same
/// allocation sites as the sequential path for every query that
/// completes within budget.
///
/// The store persists across batches (later batches warm-start on
/// earlier ones); cross-process warm starts go through the store
/// itself — store().save() writes a snapshot and
/// store().attachDiskTier() loads one.  The scheduler has no
/// persistence API of its own.
///
/// Epoch handoff: a scheduler normally owns its store, but an
/// AnalysisService hands every generation's scheduler one long-lived
/// external store plus the generation number its PAG was built for.
/// Each batch then runs behind a SummaryStoreEpoch pinned to that
/// generation, so a commit that bumps the store mid-batch makes the
/// draining batch's remaining probes miss (and its publishes drop)
/// instead of mixing summaries across program versions.
///
//===----------------------------------------------------------------------===//

#ifndef DYNSUM_ENGINE_QUERYSCHEDULER_H
#define DYNSUM_ENGINE_QUERYSCHEDULER_H

#include "engine/QueryBatch.h"
#include "engine/TieredStore.h"

namespace dynsum {
namespace engine {

class QueryScheduler {
public:
  explicit QueryScheduler(const pag::PAG &G, EngineOptions Opts = {})
      : Graph(G), Opts(Opts), StorePtr(&OwnStore) {}

  /// Epoch handoff (AnalysisService): answer batches out of the
  /// external \p Shared store, pinned to \p Generation — the store
  /// generation \p G corresponds to.  \p Shared must outlive the
  /// scheduler.  Once the store moves past \p Generation every batch
  /// through this scheduler still answers correctly (against \p G) but
  /// without shared reuse.
  QueryScheduler(const pag::PAG &G, EngineOptions Opts,
                 SharedSummaryStore &Shared, uint64_t Generation)
      : Graph(G), Opts(Opts), StorePtr(&Shared), PinnedGen(Generation),
        HasPinnedGen(true) {}

  /// Answers every query of \p B; outcome i answers query i.
  BatchResult run(const QueryBatch &B);

  /// Same, but every query of the batch shares \p DL: a query that
  /// trips the deadline (or its CancelToken) unwinds with a partial
  /// sound-fallback outcome whose Status is Timeout / Cancelled.  The
  /// deadline overrides any Deadline already in the engine's
  /// AnalysisOptions for this batch only.
  BatchResult run(const QueryBatch &B, const support::Deadline &DL);

  /// Convenience: batch up \p Nodes and run.
  BatchResult run(const std::vector<pag::NodeId> &Nodes);

  /// Threads a batch of \p NumQueries would use under the options.
  unsigned effectiveThreads(size_t NumQueries) const;

  const pag::PAG &graph() const { return Graph; }
  const EngineOptions &options() const { return Opts; }
  SharedSummaryStore &store() { return *StorePtr; }
  const SharedSummaryStore &store() const { return *StorePtr; }

private:
  /// Runs queries \p Shard, \p Shard + \p Stride, ... of \p B on one
  /// private analysis instance, writing outcomes straight into their
  /// slots of \p Outcomes.  \p Exchange is the batch's pinned-epoch
  /// store view: every worker fetches from and publishes to it.
  void runShard(const QueryBatch &B, size_t Shard, unsigned Stride,
                const analysis::AnalysisOptions &AnalysisOpts,
                analysis::SummaryExchange &Exchange,
                std::vector<QueryOutcome> &Outcomes, BatchStats &Stats);

  const pag::PAG &Graph;
  EngineOptions Opts;
  SharedSummaryStore OwnStore;
  SharedSummaryStore *StorePtr;
  /// Epoch pin for external-store schedulers; own-store schedulers pin
  /// each batch at the store's generation when the batch starts.
  uint64_t PinnedGen = 0;
  bool HasPinnedGen = false;
};

} // namespace engine
} // namespace dynsum

#endif // DYNSUM_ENGINE_QUERYSCHEDULER_H
