//===----------------------------------------------------------------------===//
///
/// \file
/// Builds a PAG (and its call graph) from an IR program — from scratch
/// or as a per-method delta after edits.
///
/// Node identity is persistent: a variable/allocation site keeps its
/// PAG node id across every subsequent delta build (the IR ids are
/// append-only, and the PAG's node table is keyed by them).  Edges are
/// owned by per-method segments; a delta build re-lowers exactly the
/// methods whose lowered edges can differ:
///
///   * methods whose statement bodies changed (found by the program's
///     per-method edit clock, confirmed by content fingerprint — a
///     markDirty with no real edit does not force a re-lower);
///   * methods whose callee shape changed: some call site's target set,
///     a target's recursion-collapse status, or a callee's
///     params/returns interface moved (entry/exit edges embed all
///     three), detected by fingerprint against the updated call graph.
///
/// The call graph itself is refreshed incrementally for the default CHA
/// resolver (re-resolving only changed methods, plus all virtual sites
/// when the class hierarchy grew); a custom resolver (RTA/Andersen
/// answers depend on whole-program state) forces a full re-resolution,
/// while edge lowering stays delta — the shape fingerprints absorb
/// whatever the resolver moved.
///
//===----------------------------------------------------------------------===//

#ifndef DYNSUM_PAG_PAGBUILDER_H
#define DYNSUM_PAG_PAGBUILDER_H

#include "pag/CallGraph.h"
#include "pag/PAG.h"

#include <algorithm>
#include <memory>
#include <unordered_set>

namespace dynsum {
namespace pag {

/// The PAG plus the call graph it was derived from.
struct BuiltPAG {
  std::unique_ptr<PAG> Graph;
  CallGraph Calls;
};

/// What one delta build did, for invalidation planning and diagnostics.
struct DeltaStats {
  /// Methods whose segments were re-lowered (body- or shape-changed).
  std::vector<ir::MethodId> Relowered;
  /// Methods stamped by the edit clock since the last build (superset
  /// candidates for Relowered; summary invalidation keys off these even
  /// when the fingerprint proved the graph unchanged — a forced
  /// markDirty must still drop summaries).
  std::vector<ir::MethodId> Touched;
  size_t NodesAdded = 0;
  /// True when slack forced the CSR repack to compact fully.
  bool Compacted = false;
  /// Worker count the build actually ran with (requests are clamped).
  unsigned ThreadsUsed = 1;
  /// Phase timings (seconds) of the pipeline stages worth watching:
  /// the shape-fingerprint sweep, the sharded statement lowering, the
  /// single-writer segment apply, and the CSR repack.
  double ShapeSeconds = 0.0;
  double LowerSeconds = 0.0;
  double ApplySeconds = 0.0;
  double RepackSeconds = 0.0;
};

/// Calls \p Copy(Src, Dst, Kind) for each copy that call statement \p S
/// makes into its target \p Callee: argument i to parameter i while
/// both exist (Entry), then each of the target's returned variables
/// \p Returns to the call's result, when it has one (Exit).  buildPAG
/// lowers these as edges; the Andersen call-graph solve wires them.
template <class CopyFn>
void forEachCallCopy(const ir::Statement &S, const ir::Method &Callee,
                     const std::vector<ir::VarId> &Returns, CopyFn Copy) {
  size_t NumArgs = std::min(S.Args.size(), Callee.Params.size());
  for (size_t I = 0; I < NumArgs; ++I)
    Copy(S.Args[I], Callee.Params[I], EdgeKind::Entry);
  if (S.Dst != ir::kNone)
    for (ir::VarId Ret : Returns)
      Copy(Ret, S.Dst, EdgeKind::Exit);
}

/// Translates \p P into PAG edges per Figure 1:
///   * every variable and allocation site becomes a node;
///   * Alloc/Null produce new edges;
///   * Assign/Cast produce assign edges, or assignglobal when either
///     side is a global variable;
///   * Load/Store produce load(f)/store(f) edges between base and
///     value/destination;
///   * calls produce entry_i edges (actual -> formal, pairwise) and, for
///     calls with a result, exit_i edges (returned var -> result var)
///     for every call-graph target;
///   * entry/exit edges whose caller and callee share a recursive SCC
///     are marked ContextFree.
///
/// \p Resolver selects virtual-call targets (CHA when null).
/// \p Exec shards statement lowering as in buildPAGDelta.
BuiltPAG buildPAG(const ir::Program &P,
                  const TargetResolver *Resolver = nullptr,
                  const support::ExecContext &Exec = {});

/// Patches \p G and \p Calls in place to match \p G's (edited) program:
/// appends nodes for new variables/allocation sites, re-lowers only the
/// changed methods' segments, and repacks the CSR incrementally.  Every
/// pre-existing node id is preserved.  \p G must have been produced by
/// buildPAG/earlier buildPAGDelta calls over the same program instance.
/// \p ForceFull re-lowers every method regardless of fingerprints (the
/// commit --scratch escape hatch; identical result, O(program) cost).
///
/// \p Exec shards the pipeline (its thread budget; 0 = one worker per
/// hardware thread, and phases reuse its pool when it carries one):
/// the shape-fingerprint sweep partitions the method table, the
/// re-lower set is lowered into per-worker private edge staging
/// buffers, and the CSR repack partitions the dirty node buckets.
/// Everything that assigns ids — node appends, edge slot allocation,
/// segment bookkeeping — stays in single-writer phases, and every
/// parallel phase writes only chunks this graph owns exclusively, so
/// the resulting graph is BIT-IDENTICAL to a 1-thread build: same node
/// ids, same edge slot ids, same CSR layout.
DeltaStats buildPAGDelta(PAG &G, CallGraph &Calls,
                         const TargetResolver *Resolver = nullptr,
                         bool ForceFull = false,
                         const support::ExecContext &Exec = {});

} // namespace pag
} // namespace dynsum

#endif // DYNSUM_PAG_PAGBUILDER_H
