//===----------------------------------------------------------------------===//
///
/// \file
/// Incremental analysis sessions: program edits with warm DYNSUM
/// summaries.
///
/// The paper motivates DYNSUM for "environments such as JIT compilers
/// and IDEs, particularly when the program constantly undergoes a lot
/// of edits" (Sections 1 and 7).  This module implements that scenario
/// end to end: an EditSession owns a program, its PAG and a DYNSUM
/// instance; edits are buffered and committed with a *delta* PAG build
/// (pag::buildPAGDelta) that re-lowers only the edited methods and
/// keeps every node id stable, and the summary cache is kept warm by
/// dropping only what an edit can invalidate.
///
/// Why per-method invalidation is exact: a PPTA summary keyed at a node
/// of method m depends on (a) m's local edges and (b) the global-edge
/// boundary flags of m's nodes.  Editing m changes (a) only for m;
/// edits elsewhere can only change (b) — e.g. adding the first call to
/// m flips HasGlobalIn on m's formals, which decides whether Algorithm 3
/// records a boundary tuple there.  commit() therefore invalidates the
/// directly edited methods plus every method whose node flags changed,
/// which it finds by diffing flags across the rebuild (the shared
/// incremental::planCommitInvalidation).  Stable node ids make every other
/// summary valid verbatim — there is no remapping step.
///
/// A session may additionally be wired to a cross-thread
/// engine::SharedSummaryStore via attachStore(): its analysis then
/// fetches/publishes summaries through the store, and commit() applies
/// the same per-method invalidation to the store (bumping its
/// generation) that it applies to the private cache — so warm summaries
/// shared with other sessions, batch workers or a later warm start are
/// never left stale.  Sessions stay single-threaded; for concurrent
/// queries over an editable program use service::AnalysisService.
///
/// Dirty tracking lives in the ir::Program itself (per-method edit
/// clock): addStatement stamps automatically, direct mutations go
/// through markDirty, and commit() asks the program what moved.
///
//===----------------------------------------------------------------------===//

#ifndef DYNSUM_INCREMENTAL_EDITSESSION_H
#define DYNSUM_INCREMENTAL_EDITSESSION_H

#include "analysis/DynSum.h"
#include "incremental/Invalidation.h"
#include "pag/PAGBuilder.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace dynsum {

namespace engine {
class TieredSummaryStore;
/// The store kept its historical name at call sites (see
/// engine/TieredStore.h).
using SharedSummaryStore = TieredSummaryStore;
} // namespace engine

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

/// Outcome of one commit, for reporting and the ablation bench.
struct CommitStats {
  /// How the commit ended; on anything but Committed the remaining
  /// counters describe work done before the failure (usually none).
  CommitOutcome Outcome = CommitOutcome::NoOp;
  /// Diagnostic for ValidationRejected / BuildFailed / Quarantined.
  std::string Error;
  uint64_t SummariesBefore = 0;
  uint64_t SummariesDropped = 0;
  /// Summaries dropped from the attached SharedSummaryStore (0 when no
  /// store is attached).
  uint64_t SharedSummariesDropped = 0;
  uint64_t MethodsInvalidated = 0;
  /// Methods whose PAG segments the delta build re-lowered.
  uint64_t MethodsRelowered = 0;
  /// Wall-clock cost of the commit (filled by AnalysisService).
  double Seconds = 0.0;
  /// Pipeline phase breakdown, carried up from pag::DeltaStats (and,
  /// for service commits, the generation clone): where a slow commit
  /// actually spent its time, per stage.
  double CloneSeconds = 0.0;
  double ShapeSeconds = 0.0;
  double LowerSeconds = 0.0;
  double ApplySeconds = 0.0;
  double RepackSeconds = 0.0;
};

/// An editable program with an always-warm DYNSUM analysis.
///
/// Edits go through addStatement / removeStatements (or mutate the
/// program directly followed by markDirty) and take effect at the next
/// commit().  Queries auto-commit, so a session is never observed stale.
class EditSession {
public:
  /// Takes ownership of \p P.  The initial build is performed eagerly.
  EditSession(std::unique_ptr<ir::Program> P,
              const analysis::AnalysisOptions &Opts);

  ir::Program &program() { return *Prog; }
  const ir::Program &program() const { return *Prog; }
  const pag::PAG &graph() const { return Graph; }
  const pag::CallGraph &callGraph() const { return Calls; }
  analysis::DynSumAnalysis &analysis() { return DynSum; }

  /// Connects \p S (may be null to disconnect) as the session's summary
  /// exchange: queries fetch warm summaries from — and publish fresh
  /// ones into — the store, and every commit() applies its invalidation
  /// to the store as well, bumping the store's generation.  The store
  /// must describe the same program as this session (same PAG shape);
  /// it may be shared with engine batches or other sessions between
  /// commits.
  void attachStore(engine::SharedSummaryStore *S);
  engine::SharedSummaryStore *attachedStore() const { return Store; }

  //===------------------------------------------------------------------===//
  // Edits
  //===------------------------------------------------------------------===//

  /// Appends \p S to method \p M.
  void addStatement(ir::MethodId M, ir::Statement S);

  /// Removes every statement of \p M matching \p Pred; returns how many.
  size_t
  removeStatements(ir::MethodId M,
                   const std::function<bool(const ir::Statement &)> &Pred);

  /// Marks \p M edited after direct program() mutation.
  void markDirty(ir::MethodId M);

  /// True when edits are pending.
  bool dirty() const;

  /// Applies pending edits: patches the PAG in place (delta build —
  /// only edited methods re-lower, node ids stay stable) and drops the
  /// summaries the edit invalidates from the private cache and the
  /// attached store.  No-op when clean.
  CommitStats commit();

  /// Statistics of the most recent non-trivial commit.
  const CommitStats &lastCommit() const { return LastCommit; }

  //===------------------------------------------------------------------===//
  // Queries (auto-committing)
  //===------------------------------------------------------------------===//

  /// Points-to query for variable \p V in the empty context.
  analysis::QueryResult queryVar(ir::VarId V);

private:
  std::unique_ptr<ir::Program> Prog;
  pag::PAG Graph;
  pag::CallGraph Calls;
  analysis::DynSumAnalysis DynSum;
  engine::SharedSummaryStore *Store = nullptr;

  /// Program edit clock at the last commit; the program names the
  /// methods that moved past it.
  uint64_t CommittedClock = 0;
  CommitStats LastCommit;

  /// Post-commit boundary flags carried forward from the invalidation
  /// diff so the next commit skips the full pre-edit node sweep.
  /// Empty until the first commit.
  BoundarySnapshot Boundary;
  bool BoundaryValid = false;
};

} // namespace incremental
} // namespace dynsum

#endif // DYNSUM_INCREMENTAL_EDITSESSION_H
