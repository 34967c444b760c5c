//===----------------------------------------------------------------------===//
///
/// \file
/// Exhaustive Andersen-style (inclusion-based) points-to analysis.
///
/// Context-insensitive and field-sensitive.  Two roles in this repo:
///  * ground-truth over-approximation oracle in the test suite (every
///    demand-driven context-sensitive answer must be a subset);
///  * call-graph construction, as Spark builds it on the fly inside one
///    Andersen solve (buildPAGWithAndersenCallGraph): the solve wires a
///    virtual call's parameter and return copies as its receiver's set
///    gains objects, and AndersenTargetResolver reads the call graph
///    back from the solved receiver sets.
///
//===----------------------------------------------------------------------===//

#ifndef DYNSUM_ANALYSIS_ANDERSEN_H
#define DYNSUM_ANALYSIS_ANDERSEN_H

#include "analysis/Query.h"
#include "pag/CallGraph.h"
#include "pag/PAGBuilder.h"
#include "support/BitVector.h"

#include <memory>
#include <unordered_map>
#include <vector>

namespace dynsum {
namespace analysis {

/// Whole-program inclusion-based solver over a finalized PAG.
class AndersenAnalysis {
public:
  explicit AndersenAnalysis(const pag::PAG &G);

  /// Runs to fixpoint.  Idempotent.
  void solve();

  /// Allocation sites in pts(V); sorted.  Requires solve().
  std::vector<ir::AllocId> allocSites(pag::NodeId V) const;

  /// True when \p V may point to \p A.
  bool pointsTo(pag::NodeId V, ir::AllocId A) const;

  /// Allocation sites in the field pts of (object \p A).\p F; sorted.
  std::vector<ir::AllocId> fieldAllocSites(ir::AllocId A,
                                           ir::FieldId F) const;

  /// Number of node visits the solver made (for tests/benches).
  uint64_t propagationCount() const { return Propagations; }

private:
  friend pag::BuiltPAG buildPAGWithAndersenCallGraph(const ir::Program &P);

  void solveSerial();

  const pag::PAG &Graph;
  size_t NumAllocs;
  bool Solved = false;
  /// Set only by buildPAGWithAndersenCallGraph, whose graph lowers no
  /// virtual call: the solve dispatches each virtual call on its
  /// receiver's objects and wires the targets' copies itself.
  bool DiscoverCalls = false;
  uint64_t Propagations = 0;

  /// Extended node space: variable nodes first, then one node per
  /// touched (object, field) pair, created on demand.  A node merged
  /// into a copy-graph cycle's representative keeps an empty set; after
  /// solve() RepOf maps every node straight to the node holding its set.
  std::vector<HybridPtsSet> Pts;                     // by extended node
  std::vector<uint32_t> RepOf;                       // by extended node
  std::unordered_map<uint64_t, uint32_t> FieldNodes; // (A,F) -> ext node
};

/// Virtual-dispatch resolver driven by Andersen points-to results: the
/// receiver's possible allocation types select the dispatch targets.
/// This reproduces the paper's "call graph ... constructed on-the-fly
/// with Andersen-style analysis by Spark".
class AndersenTargetResolver : public pag::TargetResolver {
public:
  AndersenTargetResolver(const AndersenAnalysis &A, const pag::PAG &G)
      : Andersen(A), Graph(G) {}

  std::vector<ir::MethodId> resolve(const ir::Program &P,
                                    ir::MethodId Caller,
                                    const ir::Statement &S) const override;

private:
  const AndersenAnalysis &Andersen;
  const pag::PAG &Graph;
};

/// Builds a PAG whose call graph Andersen analysis built on the fly:
/// a PAG without virtual-call edges, one solve that dispatches each
/// virtual call on the non-null objects its receiver gains, then the
/// final PAG from scratch through AndersenTargetResolver.  The call
/// graph is the least fixpoint of points-to-directed dispatch; a
/// receiver that stays empty (its call is dead under the analysis)
/// keeps the resolver's CHA targets.
pag::BuiltPAG buildPAGWithAndersenCallGraph(const ir::Program &P);

} // namespace analysis
} // namespace dynsum

#endif // DYNSUM_ANALYSIS_ANDERSEN_H
