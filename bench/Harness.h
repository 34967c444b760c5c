//===----------------------------------------------------------------------===//
///
/// \file
/// Shared setup for the table/figure reproduction benches.
///
//===----------------------------------------------------------------------===//

#ifndef DYNSUM_BENCH_HARNESS_H
#define DYNSUM_BENCH_HARNESS_H

#include "analysis/Andersen.h"
#include "analysis/DynSum.h"
#include "analysis/RefinePts.h"
#include "clients/Client.h"
#include "engine/QueryScheduler.h"
#include "support/CommandLine.h"
#include "workload/BenchmarkSpec.h"
#include "workload/Generator.h"

#include <memory>
#include <string>
#include <vector>

namespace dynsum {
namespace bench {

/// One generated benchmark program with its PAG.
struct BenchProgram {
  const workload::BenchmarkSpec *Spec = nullptr;
  std::unique_ptr<ir::Program> Prog;
  pag::BuiltPAG Built;
};

/// Ordered flat JSON object of bench metrics.  Every bench can append
/// string/number key-value pairs and write them to the path given by
/// --json=<file>, so perf trajectories land in machine-readable
/// BENCH_*.json files instead of scraped stdout.
class BenchJson {
public:
  void set(const std::string &Key, const std::string &Value);
  void set(const std::string &Key, const char *Value);
  void set(const std::string &Key, double Value);
  void set(const std::string &Key, uint64_t Value);
  void set(const std::string &Key, unsigned Value) { set(Key, uint64_t(Value)); }

  /// Renders the object ("{\n  \"k\": v, ...\n}\n").
  std::string render() const;

  /// Writes render() to \p Path; returns false on I/O failure.
  bool writeFile(const std::string &Path) const;

private:
  /// Keys in insertion order with pre-rendered JSON values.
  std::vector<std::pair<std::string, std::string>> Entries;
};

/// Prints the harness flags, then \p BenchFlags (a bench's own, e.g.
/// "[--commit-max-methods=N]"), as a usage message and exits 2.
[[noreturn]] void usageExit(const char *Prog, const char *BenchFlags = "");

/// Harness-wide knobs parsed from the command line:
///   --scale=<double>   linear size factor vs the paper (default 1/32)
///   --budget=<int>     per-query traversal budget (default 75000)
///   --seed=<int>       extra generator seed
///   --bench=<name>     restrict to one Table 3 program
///   --threads=<int>    batch-engine worker threads (default 4)
///   --json=<file>      write machine-readable metrics to <file>
/// A value that is not a count (CommandLine::getCount), or for --scale
/// not a number (CommandLine::getDouble), is a usage error.
struct HarnessOptions {
  double Scale = 1.0 / 32;
  uint64_t Budget = 75000;
  uint64_t Seed = 0;
  unsigned Threads = 4;
  std::string Only;
  std::string JsonPath;

  /// Parses the harness flags; a bad value calls usageExit(Argv[0],
  /// BenchFlags).
  static HarnessOptions parse(int Argc, const char *const *Argv,
                              const char *BenchFlags = "");

  analysis::AnalysisOptions analysisOptions() const {
    analysis::AnalysisOptions O;
    O.BudgetPerQuery = Budget;
    return O;
  }

  engine::EngineOptions engineOptions(unsigned NumThreads) const {
    engine::EngineOptions O;
    O.NumThreads = NumThreads;
    O.Analysis = analysisOptions();
    return O;
  }
};

/// Generates \p Spec at the harness scale and builds its PAG with the
/// Andersen-refined call graph (the paper's Spark-style setup).
BenchProgram makeBenchProgram(const workload::BenchmarkSpec &Spec,
                              const HarnessOptions &Opts);

/// The Table 3 programs selected by --bench (all nine by default).
std::vector<const workload::BenchmarkSpec *>
selectedSpecs(const HarnessOptions &Opts);

/// The three selected "large code base" programs of Figures 4 and 5.
std::vector<const workload::BenchmarkSpec *> figureSpecs();

/// Query stream of client \p ClientIndex (0 = SafeCast, 1 = NullDeref,
/// 2 = FactoryM) for \p BP, truncated to the paper's scaled count.
std::vector<clients::ClientQuery>
clientQueries(const clients::Client &C, unsigned ClientIndex,
              const BenchProgram &BP, const HarnessOptions &Opts);

} // namespace bench
} // namespace dynsum

#endif // DYNSUM_BENCH_HARNESS_H
