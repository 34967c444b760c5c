//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic synthetic program generator.
///
/// Substitutes for the paper's SPECjvm98/DaCapo benchmarks: given a
/// Table 3 row and a scale factor, synthesizes an IR program whose PAG
/// reproduces the row's statistical shape — the per-kind edge mix, the
/// locality percentage, Zipf-skewed "library" methods shared by many
/// callers (the paper's reuse driver), class hierarchies for virtual
/// dispatch, globals, downcasts, factory call sites and occasional
/// nulls, so all three paper clients have realistic query streams.
///
//===----------------------------------------------------------------------===//

#ifndef DYNSUM_WORKLOAD_GENERATOR_H
#define DYNSUM_WORKLOAD_GENERATOR_H

#include "ir/Program.h"
#include "workload/BenchmarkSpec.h"

#include <memory>

namespace dynsum {
namespace workload {

struct GenOptions {
  /// Linear shrink of every Table 3 count (1.0 = paper size).
  double Scale = 1.0 / 16;
  /// Extra seed XOR-ed into the per-benchmark name seed.
  uint64_t Seed = 0;
  /// Longest straight assign chain; longer quotas fan out into parallel
  /// chains (keeps demand-driven recursion depth bounded).
  unsigned MaxChain = 8;
  /// Probability that a call statement is virtual.
  double VirtualCallFraction = 0.25;
  /// Probability of a short recursion cycle at a call site.
  double RecursionFraction = 0.02;
  /// Probability that a store writes a null (NullDeref violations).
  double NullStoreFraction = 0.04;
};

/// Synthesizes the program for \p Spec.  Deterministic in
/// (Spec.Name, Opts).
std::unique_ptr<ir::Program> generateProgram(const BenchmarkSpec &Spec,
                                             const GenOptions &Opts);

/// The paper's per-client query counts scaled like the program
/// (client index 0 = SafeCast, 1 = NullDeref, 2 = FactoryM).
size_t scaledQueryCount(const BenchmarkSpec &Spec, unsigned ClientIndex,
                        double Scale);

/// A deterministic probe query set: every \p Stride-th local variable.
std::vector<ir::VarId> probeVariables(const ir::Program &P, size_t Stride);

/// The canonical deterministic edit script of the incremental benches
/// and their pinning tests: step \p I appends a fresh local + allocation
/// to a pseudo-random method, plus an assign into an existing variable
/// when possible.  Returns the methods touched.  Shared so the
/// TSan-covered service tests exercise exactly the pattern
/// bench/commit_latency measures.
std::vector<ir::MethodId> applyScriptEdit(ir::Program &P, unsigned I);

} // namespace workload
} // namespace dynsum

#endif // DYNSUM_WORKLOAD_GENERATOR_H
