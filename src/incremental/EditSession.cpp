//===----------------------------------------------------------------------===//
///
/// \file
/// EditSession implementation.
///
//===----------------------------------------------------------------------===//

#include "incremental/EditSession.h"

#include "engine/TieredStore.h"

#include <algorithm>
#include <cassert>

using namespace dynsum;
using namespace dynsum::incremental;
using analysis::QueryResult;

EditSession::EditSession(std::unique_ptr<ir::Program> P,
                         const analysis::AnalysisOptions &Opts)
    : Prog(std::move(P)), Graph(*Prog), DynSum(Graph, Opts) {
  pag::buildPAGDelta(Graph, Calls); // first build: lowers everything
  CommittedClock = Prog->modClock();
}

void EditSession::attachStore(engine::SharedSummaryStore *S) {
  Store = S;
  DynSum.setSummaryExchange(S);
}

void EditSession::addStatement(ir::MethodId M, ir::Statement S) {
  Prog->addStatement(M, std::move(S)); // addStatement touches M
}

size_t EditSession::removeStatements(
    ir::MethodId M, const std::function<bool(const ir::Statement &)> &Pred) {
  return Prog->removeStatements(M, Pred); // stamps M on the edit clock
}

void EditSession::markDirty(ir::MethodId M) { Prog->touchMethod(M); }

bool EditSession::dirty() const {
  return Prog->modClock() != CommittedClock;
}

CommitStats EditSession::commit() {
  if (!dirty())
    return {};

  CommitStats Stats;
  Stats.Outcome = CommitOutcome::Committed;
  Stats.SummariesBefore = DynSum.cacheSize();

  // Patch the graph in place: only the edited methods' segments are
  // re-lowered and node ids never move, so analyses holding references
  // stay valid and summary keys stay meaningful.  The pre-edit boundary
  // flags are usually carried forward from the previous commit;
  // without them they must be swept now, before the delta build
  // mutates them away.
  const bool Carried = BoundaryValid;
  BoundaryValid = false;
  if (!Carried)
    Boundary = snapshotBoundary(Graph);
  pag::DeltaStats Delta = pag::buildPAGDelta(Graph, Calls);
  Stats.MethodsRelowered = Delta.Relowered.size();
  Stats.ShapeSeconds = Delta.ShapeSeconds;
  Stats.LowerSeconds = Delta.LowerSeconds;
  Stats.ApplySeconds = Delta.ApplySeconds;
  Stats.RepackSeconds = Delta.RepackSeconds;

  InvalidationPlan Plan =
      planCommitInvalidation(Boundary, Carried, Graph, Delta.Touched);
  BoundaryValid = true;

  for (ir::MethodId M : Plan.Methods)
    DynSum.invalidateMethod(M);
  // The trivial-summary memo keys boundary flags; cheap to rebuild, so
  // drop it wholesale rather than diffing.
  DynSum.clearTrivialMemo();

  // The attached cross-thread store holds the same summaries under the
  // same (stable) node keying; one beginGeneration applies the same
  // drop and moves the store to the post-edit generation.
  if (Store)
    Stats.SharedSummariesDropped = Store->beginGeneration(Graph, Plan);

  Stats.MethodsInvalidated = Plan.Methods.size();
  Stats.SummariesDropped = Stats.SummariesBefore - DynSum.cacheSize();
  CommittedClock = Prog->modClock();
  LastCommit = Stats;
  return Stats;
}

QueryResult EditSession::queryVar(ir::VarId V) {
  if (dirty())
    commit();
  return DynSum.query(Graph.nodeOfVar(V));
}
