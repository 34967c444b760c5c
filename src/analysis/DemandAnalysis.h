//===----------------------------------------------------------------------===//
///
/// \file
/// Abstract interface of the demand-driven points-to analyses
/// (NOREFINE, REFINEPTS, DYNSUM).
///
//===----------------------------------------------------------------------===//

#ifndef DYNSUM_ANALYSIS_DEMANDANALYSIS_H
#define DYNSUM_ANALYSIS_DEMANDANALYSIS_H

#include "analysis/Query.h"

#include <functional>

namespace dynsum {
namespace analysis {

/// Client satisfaction predicate for REFINEPTS's refinement loop
/// (Algorithm 2's satisfyClient).  Returning true ends refinement early.
/// A null predicate means "never satisfied early": refine to full field
/// sensitivity (the precision every other analysis delivers directly).
using ClientPredicate = std::function<bool(const QueryResult &)>;

/// A demand-driven, context- and field-sensitive points-to analysis
/// over a PAG.  Instances keep internal caches; queries are answered
/// one at a time (single-threaded, like the paper's setup).
class DemandAnalysis {
public:
  DemandAnalysis(const pag::PAG &G, const AnalysisOptions &Opts)
      : Graph(G), Opts(Opts) {}
  virtual ~DemandAnalysis();

  /// Analysis name for reports ("DYNSUM", ...).
  virtual const char *name() const = 0;

  /// Computes the points-to set of PAG variable node \p V in the empty
  /// initial context.  \p SatisfyClient is only consulted by REFINEPTS.
  virtual QueryResult query(pag::NodeId V,
                            const ClientPredicate &SatisfyClient) = 0;

  /// Convenience overload: full-precision query.
  QueryResult query(pag::NodeId V) { return query(V, nullptr); }

  /// Demand alias query (the question STASUM's line of work answers
  /// directly): may \p A and \p B point to the same object?  Answered
  /// by intersecting the two points-to sets on context-tagged targets
  /// when both queries complete, and conservatively (true) otherwise.
  bool mayAlias(pag::NodeId A, pag::NodeId B);

  const pag::PAG &graph() const { return Graph; }
  const AnalysisOptions &options() const { return Opts; }

protected:
  const pag::PAG &Graph;
  AnalysisOptions Opts;
};

} // namespace analysis
} // namespace dynsum

#endif // DYNSUM_ANALYSIS_DEMANDANALYSIS_H
