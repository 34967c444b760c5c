//===----------------------------------------------------------------------===//
///
/// \file
/// A deliberately naive Andersen solver, the independent reference the
/// production solver's fixpoint is checked against.
///
/// Every PAG constraint is re-applied round-robin over std::sets until
/// a whole round changes nothing.  There is no worklist, no cycle
/// handling and no delta tracking, so it shares none of the production
/// solver's machinery: a bug in cycle collapse, dirty tracking or
/// field discovery cannot hide in both.
///
/// Two call-graph oracles are built on it from public pieces only: the
/// least fixpoint of points-to-directed dispatch, found from below by
/// rebuilding the PAG until no target changes, and a copy of the
/// CHA-first rounds loop buildPAGWithAndersenCallGraph ran before the
/// solve learned to wire virtual calls itself.
///
//===----------------------------------------------------------------------===//

#ifndef DYNSUM_TESTS_REFERENCEANDERSEN_H
#define DYNSUM_TESTS_REFERENCEANDERSEN_H

#include "analysis/Andersen.h"
#include "pag/PAG.h"
#include "pag/PAGBuilder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

namespace dynsum {
namespace testing {

class ReferenceAndersen {
public:
  explicit ReferenceAndersen(const pag::PAG &G) : Vars(G.numNodes()) {
    for (bool Changed = true; Changed;) {
      Changed = false;
      for (pag::EdgeId Id = 0; Id < G.numEdgeSlots(); ++Id)
        if (G.edgeAlive(Id))
          Changed |= apply(G, G.edge(Id));
    }
  }

  std::vector<ir::AllocId> allocSites(pag::NodeId V) const {
    return {Vars[V].begin(), Vars[V].end()};
  }

  std::vector<ir::AllocId> fieldAllocSites(ir::AllocId A,
                                           ir::FieldId F) const {
    auto It = Fields.find({A, F});
    if (It == Fields.end())
      return {};
    return {It->second.begin(), It->second.end()};
  }

private:
  using Set = std::set<ir::AllocId>;

  static bool insertAll(Set &To, const Set &From) {
    bool Changed = false;
    for (ir::AllocId A : From)
      Changed |= To.insert(A).second;
    return Changed;
  }

  /// Applies one constraint once; true when any set grew.
  bool apply(const pag::PAG &G, const pag::Edge &E) {
    switch (E.Kind) {
    case pag::EdgeKind::New:
      return Vars[E.Dst].insert(G.allocOf(E.Src)).second;
    case pag::EdgeKind::Assign:
    case pag::EdgeKind::AssignGlobal:
    case pag::EdgeKind::Entry:
    case pag::EdgeKind::Exit:
      return insertAll(Vars[E.Dst], Vars[E.Src]);
    case pag::EdgeKind::Load: { // base --load(f)--> dst
      bool Changed = false;
      for (ir::AllocId A : Vars[E.Src]) {
        auto It = Fields.find({A, E.Aux});
        if (It != Fields.end())
          Changed |= insertAll(Vars[E.Dst], It->second);
      }
      return Changed;
    }
    case pag::EdgeKind::Store: { // src --store(f)--> base
      bool Changed = false;
      for (ir::AllocId A : Vars[E.Dst])
        Changed |= insertAll(Fields[{A, E.Aux}], Vars[E.Src]);
      return Changed;
    }
    }
    return false;
  }

  std::vector<Set> Vars; // by PAG node
  std::map<std::pair<ir::AllocId, ir::FieldId>, Set> Fields;
};

/// Success when \p A holds exactly the reference's points-to set at
/// every PAG node and every (object, field) pair of the program.
inline ::testing::AssertionResult
sameFixpoint(const pag::PAG &G, const analysis::AndersenAnalysis &A,
             const ReferenceAndersen &Ref) {
  for (size_t V = 0; V < G.numNodes(); ++V)
    if (A.allocSites(pag::NodeId(V)) != Ref.allocSites(pag::NodeId(V)))
      return ::testing::AssertionFailure() << "node " << V << " differs";
  const ir::Program &P = G.program();
  for (size_t O = 0; O < P.allocs().size(); ++O)
    for (size_t F = 0; F < P.fields().size(); ++F)
      if (A.fieldAllocSites(ir::AllocId(O), ir::FieldId(F)) !=
          Ref.fieldAllocSites(ir::AllocId(O), ir::FieldId(F)))
        return ::testing::AssertionFailure()
               << "object " << O << " field " << F << " differs";
  return ::testing::AssertionSuccess();
}

/// Solves \p G and checks the fixpoint against the reference.
inline ::testing::AssertionResult
solvesToReference(const pag::PAG &G, const ReferenceAndersen &Ref) {
  analysis::AndersenAnalysis A(G);
  A.solve();
  return sameFixpoint(G, A, Ref);
}

/// Targets per call site, sorted.
using SiteTargets = std::vector<std::vector<ir::MethodId>>;

/// Resolves each virtual call to a fixed per-site target list.
class FixedTargetResolver : public pag::TargetResolver {
public:
  explicit FixedTargetResolver(const SiteTargets &Targets)
      : Targets(Targets) {}
  std::vector<ir::MethodId> resolve(const ir::Program &, ir::MethodId,
                                    const ir::Statement &S) const override {
    return Targets[S.Call];
  }

private:
  const SiteTargets &Targets;
};

/// The virtual-call targets that are the least fixpoint of points-to-
/// directed dispatch: starting from no virtual targets, build the PAG,
/// solve it with ReferenceAndersen, dispatch every virtual call on its
/// receiver's non-null objects, and repeat until no site changes.  A
/// site whose receiver dispatches nothing stays empty.
inline SiteTargets leastFixpointTargets(const ir::Program &P) {
  SiteTargets Targets(P.callSites().size());
  for (;;) {
    FixedTargetResolver Resolver(Targets);
    pag::BuiltPAG Built = pag::buildPAG(P, &Resolver);
    ReferenceAndersen Ref(*Built.Graph);
    SiteTargets Next(P.callSites().size());
    for (const ir::Method &M : P.methods())
      for (const ir::Statement &S : M.Stmts) {
        if (S.Kind != ir::StmtKind::Call || !S.IsVirtual)
          continue;
        std::vector<ir::MethodId> &To = Next[S.Call];
        for (ir::AllocId A : Ref.allocSites(Built.Graph->nodeOfVar(S.Base))) {
          if (P.alloc(A).IsNull)
            continue;
          ir::MethodId T = P.dispatch(P.alloc(A).Type, S.VirtualName);
          if (T != ir::kNone)
            To.push_back(T);
        }
        std::sort(To.begin(), To.end());
        To.erase(std::unique(To.begin(), To.end()), To.end());
      }
    if (Next == Targets)
      return Targets;
    Targets = std::move(Next);
  }
}

/// Success when every virtual call in \p Built has exactly the least
/// fixpoint's targets, or CHA's where the fixpoint left it none.
inline ::testing::AssertionResult
matchesLeastFixpoint(const ir::Program &P, const pag::BuiltPAG &Built) {
  SiteTargets Oracle = leastFixpointTargets(P);
  for (const ir::Method &M : P.methods())
    for (const ir::Statement &S : M.Stmts) {
      if (S.Kind != ir::StmtKind::Call || !S.IsVirtual)
        continue;
      std::vector<ir::MethodId> Want = Oracle[S.Call];
      if (Want.empty())
        Want = P.chaTargets(P.variable(S.Base).DeclaredType, S.VirtualName);
      std::vector<ir::MethodId> Got = Built.Calls.targets(S.Call);
      std::sort(Want.begin(), Want.end());
      std::sort(Got.begin(), Got.end());
      if (Got != Want)
        return ::testing::AssertionFailure()
               << "call site " << S.Call << " in " << P.describeMethod(M.Id)
               << " has " << Got.size() << " targets, the oracle "
               << Want.size();
    }
  return ::testing::AssertionSuccess();
}

/// buildPAGWithAndersenCallGraph as it was before the solve wired
/// virtual calls itself: a CHA PAG, then up to two rebuilds through
/// AndersenTargetResolver, stopping early when the edge count repeats.
inline pag::BuiltPAG roundsCallGraph(const ir::Program &P) {
  pag::BuiltPAG Built = pag::buildPAG(P);
  for (unsigned Round = 0; Round < 2; ++Round) {
    analysis::AndersenAnalysis Andersen(*Built.Graph);
    Andersen.solve();
    analysis::AndersenTargetResolver Resolver(Andersen, *Built.Graph);
    pag::BuiltPAG Refined = pag::buildPAG(P, &Resolver);
    bool Same = Refined.Graph->numEdges() == Built.Graph->numEdges();
    Built = std::move(Refined);
    if (Same)
      break;
  }
  return Built;
}

/// Success when \p A and \p B are the same graph slot for slot: the
/// same nodes, the same edge slots, and in each slot the same liveness,
/// source, destination, kind, aux and context-free bit.
inline ::testing::AssertionResult sameSlots(const pag::PAG &A,
                                            const pag::PAG &B) {
  if (A.numNodes() != B.numNodes())
    return ::testing::AssertionFailure()
           << A.numNodes() << " nodes against " << B.numNodes();
  if (A.numEdgeSlots() != B.numEdgeSlots())
    return ::testing::AssertionFailure()
           << A.numEdgeSlots() << " edge slots against " << B.numEdgeSlots();
  for (pag::EdgeId Id = 0; Id < A.numEdgeSlots(); ++Id) {
    if (A.edgeAlive(Id) != B.edgeAlive(Id))
      return ::testing::AssertionFailure() << "slot " << Id << " liveness";
    if (!A.edgeAlive(Id))
      continue;
    const pag::Edge &X = A.edge(Id), &Y = B.edge(Id);
    if (X.Src != Y.Src || X.Dst != Y.Dst || X.Kind != Y.Kind ||
        X.Aux != Y.Aux || X.ContextFree != Y.ContextFree)
      return ::testing::AssertionFailure() << "slot " << Id << " differs";
  }
  return ::testing::AssertionSuccess();
}

} // namespace testing
} // namespace dynsum

#endif // DYNSUM_TESTS_REFERENCEANDERSEN_H
