//===----------------------------------------------------------------------===//
///
/// \file
/// Invalidation-plan computation.
///
//===----------------------------------------------------------------------===//

#include "incremental/Invalidation.h"

#include "support/ExecContext.h"

#include <cassert>

using namespace dynsum;
using namespace dynsum::incremental;

BoundarySnapshot
dynsum::incremental::snapshotBoundary(const pag::PAG &G,
                                      const support::ExecContext &Exec) {
  BoundarySnapshot S;
  S.Flags.resize(G.numNodes());
  parallelChunks(G.numNodes(), Exec,
                 [&](size_t Begin, size_t End, unsigned) {
                   for (pag::NodeId N = pag::NodeId(Begin); N < End; ++N) {
                     const pag::Node &Node = G.node(N);
                     S.Flags[N] = {Node.Method, Node.HasLocalEdge,
                                   Node.HasGlobalIn, Node.HasGlobalOut};
                   }
                 });
  return S;
}

InvalidationPlan dynsum::incremental::planInvalidation(
    const BoundarySnapshot &Old, const pag::PAG &NewGraph,
    const std::unordered_set<ir::MethodId> &Dirty,
    const support::ExecContext &Exec, BoundarySnapshot *CaptureNew) {
  InvalidationPlan Plan;
  Plan.Methods = Dirty;
  if (CaptureNew)
    CaptureNew->Flags.resize(NewGraph.numNodes());

  // The methods to invalidate: those edited directly plus those whose
  // node flags changed across the rebuild (their summaries' boundary
  // tuples may be stale).  Node ids are stable, so the diff is
  // position-for-position; nodes appended by the rebuild have no old
  // flags and cannot have stale summaries.  Summaries keyed at unowned
  // nodes (globals, the null object) sit outside any method; drop them
  // whenever anything changed, since global edges are what connects
  // them.
  //
  // The diff shards into per-worker changed-method lists (duplicates
  // are fine — the merge below goes through a set), merged serially so
  // the resulting plan is thread-count independent.
  assert(Old.Flags.size() <= NewGraph.numNodes() &&
         "stable node ids are append-only");
  unsigned Threads = Exec.threads();
  std::vector<std::vector<ir::MethodId>> Changed(Threads);
  parallelChunks(Old.Flags.size(), Exec,
                 [&](size_t Begin, size_t End, unsigned Worker) {
                   std::vector<ir::MethodId> &Out = Changed[Worker];
                   ir::MethodId Last = ir::kNone - 1; // dedup runs cheaply
                   for (pag::NodeId N = pag::NodeId(Begin); N < End; ++N) {
                     const pag::Node &Node = NewGraph.node(N);
                     const BoundaryFlags &Was = Old.Flags[N];
                     assert(Node.Method == Was.Method &&
                            "node/method mapping is stable");
                     if (CaptureNew)
                       CaptureNew->Flags[N] = {Node.Method, Node.HasLocalEdge,
                                               Node.HasGlobalIn,
                                               Node.HasGlobalOut};
                     if (Node.HasLocalEdge != Was.HasLocalEdge ||
                         Node.HasGlobalIn != Was.HasGlobalIn ||
                         Node.HasGlobalOut != Was.HasGlobalOut) {
                       if (Node.Method != Last) {
                         Out.push_back(Node.Method);
                         Last = Node.Method;
                       }
                     }
                   }
                 });
  if (CaptureNew && Old.Flags.size() < NewGraph.numNodes()) {
    // Nodes appended by the rebuild sit past the diff; record their
    // flags so the captured snapshot covers the whole new graph.
    for (pag::NodeId N = pag::NodeId(Old.Flags.size());
         N < NewGraph.numNodes(); ++N) {
      const pag::Node &Node = NewGraph.node(N);
      CaptureNew->Flags[N] = {Node.Method, Node.HasLocalEdge,
                              Node.HasGlobalIn, Node.HasGlobalOut};
    }
  }
  bool AnyFlagChanged = false;
  for (const std::vector<ir::MethodId> &Out : Changed) {
    AnyFlagChanged |= !Out.empty();
    Plan.Methods.insert(Out.begin(), Out.end());
  }
  if (AnyFlagChanged || !Dirty.empty())
    Plan.Methods.insert(ir::kNone); // global/null-object-keyed summaries
  return Plan;
}

InvalidationPlan dynsum::incremental::patchInvalidation(
    BoundarySnapshot &Carried, const pag::PAG &NewGraph,
    const std::vector<pag::NodeId> &ChangedNodes,
    const std::unordered_set<ir::MethodId> &Dirty) {
  InvalidationPlan Plan;
  Plan.Methods = Dirty;

  // Nodes appended since the snapshot have no old flags (nothing can
  // hold a stale summary for them); record their current flags so the
  // patched snapshot covers the whole graph.
  size_t OldSize = Carried.Flags.size();
  assert(OldSize <= NewGraph.numNodes() &&
         "stable node ids are append-only");
  Carried.Flags.resize(NewGraph.numNodes());
  for (pag::NodeId N = pag::NodeId(OldSize); N < NewGraph.numNodes(); ++N) {
    const pag::Node &Node = NewGraph.node(N);
    Carried.Flags[N] = {Node.Method, Node.HasLocalEdge, Node.HasGlobalIn,
                        Node.HasGlobalOut};
  }

  // Every flag the rebuild may have moved sits on a changed node; the
  // diff (and the snapshot patch) visits only those.  The list is
  // O(delta), so this runs serially.
  bool AnyFlagChanged = false;
  for (pag::NodeId N : ChangedNodes) {
    if (N >= OldSize)
      continue; // appended: recorded above, no stale summaries
    const pag::Node &Node = NewGraph.node(N);
    BoundaryFlags &Was = Carried.Flags[N];
    assert(Node.Method == Was.Method && "node/method mapping is stable");
    if (Node.HasLocalEdge != Was.HasLocalEdge ||
        Node.HasGlobalIn != Was.HasGlobalIn ||
        Node.HasGlobalOut != Was.HasGlobalOut) {
      Plan.Methods.insert(Node.Method);
      AnyFlagChanged = true;
      Was = {Node.Method, Node.HasLocalEdge, Node.HasGlobalIn,
             Node.HasGlobalOut};
    }
  }
  if (AnyFlagChanged || !Dirty.empty())
    Plan.Methods.insert(ir::kNone); // global/null-object-keyed summaries
  return Plan;
}

InvalidationPlan dynsum::incremental::planCommitInvalidation(
    BoundarySnapshot &Boundary, bool Carried, const pag::PAG &NewGraph,
    const std::vector<ir::MethodId> &Touched,
    const support::ExecContext &Exec) {
  // Every touched method is dirty: a forced markDirty must drop
  // summaries even when the graph proved unchanged.
  std::unordered_set<ir::MethodId> Dirty(Touched.begin(), Touched.end());
  // Fast path: the carried snapshot plus the repack's own dirty-node
  // list give an O(delta) plan.  A compaction rederived every flag.
  if (Carried && !NewGraph.lastRepackCompacted())
    return patchInvalidation(Boundary, NewGraph,
                             NewGraph.lastRepackAffectedNodes(), Dirty);
  BoundarySnapshot New;
  InvalidationPlan Plan =
      planInvalidation(Boundary, NewGraph, Dirty, Exec, &New);
  Boundary = std::move(New);
  return Plan;
}
