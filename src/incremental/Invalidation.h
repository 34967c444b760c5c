//===----------------------------------------------------------------------===//
///
/// \file
/// Commit-time invalidation planning and the commit's outcome types.
///
/// A PPTA summary keyed at a node of method m depends on (a) m's local
/// edges and (b) the global-edge boundary flags of m's nodes.  Editing
/// m changes (a) only for m; edits elsewhere can only change (b) — e.g.
/// adding the first call to m flips HasGlobalIn on m's formals, which
/// decides whether Algorithm 3 records a boundary tuple there.  An
/// exact commit therefore invalidates the directly edited methods plus
/// every method whose node flags changed across the rebuild.
///
/// Since PAG node ids are stable across delta builds, the plan is a
/// pure boundary-flag diff: snapshot the flags before the rebuild,
/// compare per node afterwards — node N is the same node in both
/// graphs, no remapping of any kind.  Nodes appended by the rebuild are
/// new; nothing can hold a stale summary for them.
///
/// There is one committer: service::AnalysisService::commitLocked
/// snapshots the boundary (or carries the previous commit's), plans
/// through planCommitInvalidation, and applies the plan to its
/// SharedSummaryStore through SharedSummaryStore::beginGeneration.
/// CommitStats is what that commit reports.
///
//===----------------------------------------------------------------------===//

#ifndef DYNSUM_INCREMENTAL_INVALIDATION_H
#define DYNSUM_INCREMENTAL_INVALIDATION_H

#include "pag/PAG.h"

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

namespace dynsum {
namespace incremental {

/// How a commit ended.  Everything except Committed/NoOp leaves the
/// generation chain and the summary store exactly as they were: the
/// edits stay buffered and a later commit (after the bad edit is fixed
/// or the transient fault passes) covers them.
enum class CommitOutcome : uint8_t {
  Committed,          ///< a new generation was published
  NoOp,               ///< nothing was dirty
  ValidationRejected, ///< the pre-commit IR gate found invalid edits
  BuildFailed,        ///< the build pipeline threw (fault, bad_alloc...)
  Quarantined,        ///< poison-edit quarantine failed the request fast
  Shed,               ///< admission control refused the request
};

inline const char *toString(CommitOutcome O) {
  switch (O) {
  case CommitOutcome::Committed:
    return "committed";
  case CommitOutcome::NoOp:
    return "noop";
  case CommitOutcome::ValidationRejected:
    return "validation-rejected";
  case CommitOutcome::BuildFailed:
    return "build-failed";
  case CommitOutcome::Quarantined:
    return "quarantined";
  case CommitOutcome::Shed:
    return "shed";
  }
  return "?";
}

/// Outcome of one commit, for reporting and the benches.
struct CommitStats {
  /// How the commit ended; on anything but Committed the remaining
  /// counters describe work done before the failure (usually none).
  CommitOutcome Outcome = CommitOutcome::NoOp;
  /// Diagnostic for ValidationRejected / BuildFailed / Quarantined.
  std::string Error;
  /// Summaries in the store before the commit, and how many its
  /// invalidation plan dropped.
  uint64_t SummariesBefore = 0;
  uint64_t SummariesDropped = 0;
  uint64_t MethodsInvalidated = 0;
  /// Methods whose PAG segments the delta build re-lowered.
  uint64_t MethodsRelowered = 0;
  /// Wall-clock cost of the commit.
  double Seconds = 0.0;
  /// Pipeline phase breakdown: the generation clone, then the phases
  /// carried up from pag::DeltaStats — where a slow commit actually
  /// spent its time, per stage.
  double CloneSeconds = 0.0;
  double ShapeSeconds = 0.0;
  double LowerSeconds = 0.0;
  double ApplySeconds = 0.0;
  double RepackSeconds = 0.0;
};

/// Per-node boundary state recorded before a rebuild, diffed after.
struct BoundaryFlags {
  ir::MethodId Method = ir::kNone;
  bool HasLocalEdge = false;
  bool HasGlobalIn = false;
  bool HasGlobalOut = false;
};

/// The pre-edit boundary flags, indexed by (stable) node id.
struct BoundarySnapshot {
  std::vector<BoundaryFlags> Flags;
};

/// Records \p G's boundary flags.  \p Threads is the task budget of
/// the node sweep (the commit pipeline passes its own).
BoundarySnapshot snapshotBoundary(const pag::PAG &G, unsigned Threads = 1);

/// What one commit must do to every summary cache built on the old
/// graph before it can serve the new one.
struct InvalidationPlan {
  /// Methods whose summaries must be dropped (edited directly or with a
  /// changed boundary flag).  Contains ir::kNone when the summaries
  /// keyed at unowned nodes (globals, the null object) must go too.
  std::unordered_set<ir::MethodId> Methods;
};

/// Diffs \p Old against the rebuilt \p NewGraph and folds in the
/// directly edited \p Dirty methods.  Node ids are stable, so the diff
/// compares position for position; nodes beyond the snapshot are new
/// and need no invalidation.  \p Threads is the task budget of the
/// position-for-position diff; the result is identical at every budget.
///
/// When \p CaptureNew is non-null it is filled with \p NewGraph's
/// boundary flags as a side effect of the diff — the same result
/// snapshotBoundary(NewGraph) would produce, for one extra write
/// stream instead of a second full node sweep.  Callers that commit
/// repeatedly carry it forward as the next commit's \p Old, dropping
/// the per-commit snapshot from O(graph) to O(appended nodes).
InvalidationPlan
planInvalidation(const BoundarySnapshot &Old, const pag::PAG &NewGraph,
                 const std::unordered_set<ir::MethodId> &Dirty,
                 unsigned Threads = 1,
                 BoundarySnapshot *CaptureNew = nullptr);

/// O(delta) variant of planInvalidation for a snapshot carried forward
/// from the previous commit.  \p ChangedNodes must be every node whose
/// flags the rebuild may have touched — PAG::lastRepackAffectedNodes()
/// after a non-compacting finalizeDelta (a compaction rederives every
/// flag; fall back to the full diff then).  \p Carried is the pre-edit
/// snapshot; it is patched in place into the post-edit snapshot, ready
/// to be carried into the next commit.  The plan is identical to what
/// the full diff would have produced.
InvalidationPlan
patchInvalidation(BoundarySnapshot &Carried, const pag::PAG &NewGraph,
                  const std::vector<pag::NodeId> &ChangedNodes,
                  const std::unordered_set<ir::MethodId> &Dirty);

/// The invalidation step of one commit.  On entry \p Boundary holds the
/// pre-edit flags: carried forward from the previous commit when
/// \p Carried, otherwise freshly swept by the caller.  A carried
/// snapshot is patched along \p NewGraph's repack dirty-node list
/// unless the repack compacted; every other case runs the full diff.
/// On exit \p Boundary holds \p NewGraph's flags, ready to carry into
/// the next commit.  \p Touched lists the directly edited methods
/// (pag::DeltaStats::Touched).
InvalidationPlan
planCommitInvalidation(BoundarySnapshot &Boundary, bool Carried,
                       const pag::PAG &NewGraph,
                       const std::vector<ir::MethodId> &Touched,
                       unsigned Threads = 1);

} // namespace incremental
} // namespace dynsum

#endif // DYNSUM_INCREMENTAL_INVALIDATION_H
