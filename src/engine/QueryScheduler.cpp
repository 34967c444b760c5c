//===----------------------------------------------------------------------===//
///
/// \file
/// QueryScheduler implementation.
///
//===----------------------------------------------------------------------===//

#include "engine/QueryScheduler.h"

#include "support/Parallel.h"
#include "support/Timer.h"

using namespace dynsum;
using namespace dynsum::analysis;
using namespace dynsum::engine;

unsigned QueryScheduler::effectiveThreads(size_t NumQueries) const {
  // One task per shard; clampThreads resolves 0 and caps unsigned
  // wraparounds of negative inputs, as for the commit pipeline.
  unsigned T = clampThreads(Opts.NumThreads);
  // Never make more shards than there are queries.
  if (NumQueries < T)
    T = unsigned(NumQueries);
  return T == 0 ? 1 : T;
}

void QueryScheduler::runShard(const QueryBatch &B, size_t Shard,
                              unsigned Stride,
                              const analysis::AnalysisOptions &AnalysisOpts,
                              analysis::SummaryExchange &Exchange,
                              std::vector<QueryOutcome> &Outcomes,
                              BatchStats &Stats) {
  DynSumAnalysis A(Graph, AnalysisOpts);
  A.setSummaryExchange(&Exchange);

  const std::vector<pag::NodeId> &Nodes = B.nodes();
  for (size_t I = Shard; I < Nodes.size(); I += Stride) {
    // A tripped deadline fails the REST of the shard fast: queries that
    // have not started yet get an empty Timeout/Cancelled outcome
    // instead of each burning one more summary computation before their
    // first poll.  Overshoot past the deadline is thus bounded by the
    // one query in flight per worker.
    if (AnalysisOpts.Deadline.hasLimit() &&
        (AnalysisOpts.Deadline.expired() ||
         AnalysisOpts.Deadline.cancelled())) {
      QueryOutcome &Out = Outcomes[I];
      Out.BudgetExceeded = true;
      Out.Status = AnalysisOpts.Deadline.cancelled() ? QueryStatus::Cancelled
                                                     : QueryStatus::Timeout;
      if (Out.Status == QueryStatus::Timeout)
        ++Stats.TimedOut;
      else
        ++Stats.Cancelled;
      continue;
    }
    QueryResult R = A.query(Nodes[I]);
    QueryOutcome &Out = Outcomes[I];
    Out.AllocSites = R.allocSites();
    Out.BudgetExceeded = R.BudgetExceeded;
    Out.Status = R.Status;
    Out.Steps = R.Steps;
    Stats.TotalSteps += R.Steps;
    if (R.Status == QueryStatus::Timeout)
      ++Stats.TimedOut;
    else if (R.Status == QueryStatus::Cancelled)
      ++Stats.Cancelled;
  }
  Stats.SharedHits = A.sharedHits();
  Stats.LocalHits = A.cacheHits();
  Stats.SummariesComputed = A.summariesComputed();
}

BatchResult QueryScheduler::run(const QueryBatch &B) {
  return run(B, Opts.Analysis.Deadline);
}

BatchResult QueryScheduler::run(const QueryBatch &B,
                                const support::Deadline &DL) {
  Timer T;
  analysis::AnalysisOptions AnalysisOpts = Opts.Analysis;
  AnalysisOpts.Deadline = DL;
  BatchResult Result;
  Result.Outcomes.resize(B.size());

  // Pin the batch's epoch: an external-store scheduler is pinned for
  // life at the generation its PAG was built for; an own-store
  // scheduler pins whatever the store holds now (nothing commits
  // against an owned store mid-batch).
  SummaryStoreEpoch Epoch(*StorePtr,
                          HasPinnedGen ? PinnedGen : StorePtr->generation());
  Result.Stats.Generation = Epoch.generation();

  unsigned Threads = effectiveThreads(B.size());
  Result.Stats.ThreadsUsed = Threads;
  if (B.empty()) {
    Result.Stats.StoreSize = StorePtr->size();
    Result.Stats.Seconds = T.seconds();
    return Result;
  }

  // One job per shard.  A shard that throws is captured, every running
  // shard is waited for, and the first exception is rethrown here to
  // the caller.
  std::vector<BatchStats> ShardStats(Threads);
  parallelJobs(Threads, [&](size_t W) {
    runShard(B, W, Threads, AnalysisOpts, Epoch, Result.Outcomes,
             ShardStats[W]);
  });

  for (const BatchStats &S : ShardStats) {
    Result.Stats.TotalSteps += S.TotalSteps;
    Result.Stats.SharedHits += S.SharedHits;
    Result.Stats.LocalHits += S.LocalHits;
    Result.Stats.SummariesComputed += S.SummariesComputed;
    Result.Stats.TimedOut += S.TimedOut;
    Result.Stats.Cancelled += S.Cancelled;
  }
  Result.Stats.StoreSize = StorePtr->size();
  Result.Stats.Seconds = T.seconds();
  return Result;
}

BatchResult QueryScheduler::run(const std::vector<pag::NodeId> &Nodes) {
  QueryBatch B;
  for (pag::NodeId N : Nodes)
    B.add(N);
  return run(B);
}
