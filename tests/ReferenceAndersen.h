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
//===----------------------------------------------------------------------===//

#ifndef DYNSUM_TESTS_REFERENCEANDERSEN_H
#define DYNSUM_TESTS_REFERENCEANDERSEN_H

#include "analysis/Andersen.h"
#include "pag/PAG.h"

#include <gtest/gtest.h>

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

/// Solves \p G with both points-to set representations and checks each
/// against the reference.
inline ::testing::AssertionResult
solvesToReference(const pag::PAG &G, const ReferenceAndersen &Ref) {
  for (analysis::PtsRep Rep :
       {analysis::PtsRep::Hybrid, analysis::PtsRep::Dense}) {
    analysis::AndersenAnalysis A(G, Rep);
    A.solve();
    ::testing::AssertionResult R = sameFixpoint(G, A, Ref);
    if (!R)
      return R << (Rep == analysis::PtsRep::Hybrid ? " (hybrid)"
                                                   : " (dense)");
  }
  return ::testing::AssertionSuccess();
}

} // namespace testing
} // namespace dynsum

#endif // DYNSUM_TESTS_REFERENCEANDERSEN_H
