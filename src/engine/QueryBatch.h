//===----------------------------------------------------------------------===//
///
/// \file
/// Batched-query types for the parallel demand engine.
///
/// A QueryBatch is an ordered set of demand points-to queries; the
/// QueryScheduler answers the whole set by sharding it over worker
/// threads.  Contexts are StackPool ids private to each worker, so a
/// batch outcome is the context-insensitive projection — the sorted
/// allocation-site set — which is exactly the unit on which the
/// parallel and sequential paths are comparable (and proven identical
/// by tests/engine_test.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef DYNSUM_ENGINE_QUERYBATCH_H
#define DYNSUM_ENGINE_QUERYBATCH_H

#include "analysis/Query.h"

#include <cstdint>
#include <vector>

namespace dynsum {
namespace engine {

/// Tunables of the batch engine.
struct EngineOptions {
  /// Shards per batch; 0 picks std::thread::hardware_concurrency (at
  /// least 1).  The shards run as tasks on the shared executor of
  /// support/Parallel.h; a single shard runs inline on the caller.
  unsigned NumThreads = 0;
  /// Per-worker analysis tunables (budget, field depth, caching).
  analysis::AnalysisOptions Analysis;
};

/// The answer to one batched query.
struct QueryOutcome {
  /// Sorted, deduplicated allocation sites the queried variable may
  /// point to.
  std::vector<ir::AllocId> AllocSites;
  /// The traversal budget ran out (or the query was interrupted — see
  /// Status); AllocSites is partial.
  bool BudgetExceeded = false;
  /// How the query ended: Ok, Timeout, Cancelled, or Overloaded (shed
  /// by admission control — AllocSites is then empty, never partial
  /// garbage).  Anything but Ok implies BudgetExceeded.
  analysis::QueryStatus Status = analysis::QueryStatus::Ok;
  /// PAG edge traversals spent on this query.
  uint64_t Steps = 0;

  /// Re-wraps the outcome as a context-free QueryResult so existing
  /// consumers of the sequential API (client judges in particular, which
  /// only inspect allocation sites) accept batched answers unchanged.
  analysis::QueryResult toQueryResult() const {
    analysis::QueryResult R;
    R.Targets.reserve(AllocSites.size());
    for (ir::AllocId A : AllocSites)
      R.Targets.push_back(analysis::PtsTarget{A, StackPool::empty()});
    R.BudgetExceeded = BudgetExceeded;
    R.Status = Status;
    R.Steps = Steps;
    return R;
  }
};

/// An ordered collection of demand queries.  Order is preserved: outcome
/// i in the BatchResult answers query i regardless of which worker ran
/// it.
class QueryBatch {
public:
  /// Appends a points-to query on PAG variable node \p Node; returns its
  /// index in the batch.
  size_t add(pag::NodeId Node) {
    Nodes.push_back(Node);
    return Nodes.size() - 1;
  }

  size_t size() const { return Nodes.size(); }
  bool empty() const { return Nodes.empty(); }
  const std::vector<pag::NodeId> &nodes() const { return Nodes; }

private:
  std::vector<pag::NodeId> Nodes;
};

/// Aggregate counters for one QueryScheduler::run.
struct BatchStats {
  /// Shards the batch actually used.
  unsigned ThreadsUsed = 0;
  /// Summary-store generation the batch was pinned to.  For a scheduler
  /// that owns its store this is simply the store's generation; under
  /// an AnalysisService it identifies the program epoch the answers
  /// describe (a commit racing the batch bumps the store, and the batch
  /// drains against this older generation).
  uint64_t Generation = 0;
  /// Sum of per-query traversal steps.
  uint64_t TotalSteps = 0;
  /// Summaries reused from the shared store instead of recomputed.
  uint64_t SharedHits = 0;
  /// Per-worker local cache hits.
  uint64_t LocalHits = 0;
  /// PPTA computations actually run across all workers.
  uint64_t SummariesComputed = 0;
  /// Entries in the shared store after the batch.
  size_t StoreSize = 0;
  /// Queries that ended Timeout / Cancelled (deadline or CancelToken
  /// tripped mid-traversal).
  uint64_t TimedOut = 0;
  uint64_t Cancelled = 0;
  /// Wall-clock seconds for the whole batch.
  double Seconds = 0.0;
};

/// Outcomes (parallel to the batch) plus the batch counters.
struct BatchResult {
  std::vector<QueryOutcome> Outcomes;
  BatchStats Stats;
};

} // namespace engine
} // namespace dynsum

#endif // DYNSUM_ENGINE_QUERYBATCH_H
