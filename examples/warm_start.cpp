//===----------------------------------------------------------------------===//
///
/// \file
/// Example: persisting batch-engine summaries across "compiler runs".
///
/// A JIT or IDE restarts constantly; recomputing every summary each
/// time wastes the work the previous run already did.  This example
/// simulates two runs of a tool on the same program: the first answers
/// a query batch cold through the parallel batch engine and saves the
/// engine's shared summary store to disk; the second attaches that
/// snapshot as the store's disk tier and answers the same batch with a
/// fraction of the summary computations — every summary it needs comes
/// off the mapped file instead of a PPTA traversal.
///
/// Run: build/examples/warm_start
///
//===----------------------------------------------------------------------===//

#include "engine/QueryScheduler.h"
#include "pag/PAGBuilder.h"
#include "support/OStream.h"
#include "workload/Generator.h"

#include <cstdio>

using namespace dynsum;
using namespace dynsum::engine;

namespace {

/// One "compiler run": build the program and PAG, optionally load the
/// summary store, answer the batch, optionally save.  Returns the total
/// step count.
uint64_t run(const char *Label, const std::string &CachePath, bool Load,
             bool Save) {
  workload::GenOptions Gen;
  Gen.Scale = 1.0 / 64;
  auto Prog = workload::generateProgram(workload::specByName("jython"), Gen);
  pag::BuiltPAG Built = pag::buildPAG(*Prog);

  EngineOptions Opts;
  Opts.NumThreads = 4;
  QueryScheduler Scheduler(*Built.Graph, Opts);

  if (Load) {
    TieredSummaryStore::DiskTierStatus St =
        Scheduler.store().attachDiskTier(CachePath, *Built.Graph);
    if (St.Attached)
      outs() << Label << ": loaded " << St.Records << " summaries from "
             << CachePath << '\n';
    else
      outs() << Label << ": no usable summary file, starting cold\n";
  }

  QueryBatch Batch;
  for (const ir::Variable &V : Prog->variables()) {
    if (V.IsGlobal || V.Id % 101 != 0)
      continue;
    Batch.add(Built.Graph->nodeOfVar(V.Id));
  }
  BatchResult R = Scheduler.run(Batch);
  outs() << Label << ": " << uint64_t(Batch.size()) << " queries over "
         << R.Stats.ThreadsUsed << " threads, " << R.Stats.TotalSteps
         << " steps, " << R.Stats.SummariesComputed
         << " summaries computed, " << R.Stats.SharedHits
         << " shared-store hits, " << uint64_t(R.Stats.StoreSize)
         << " summaries stored\n";

  if (Save && Scheduler.store().save(CachePath, *Built.Graph))
    outs() << Label << ": saved summary store to " << CachePath << '\n';
  return R.Stats.TotalSteps;
}

} // namespace

int main() {
  std::string CachePath = "/tmp/dynsum_warm_start.bin";
  std::remove(CachePath.c_str());

  outs() << "--- run 1 (cold) ---\n";
  uint64_t Cold = run("run1", CachePath, /*Load=*/false, /*Save=*/true);

  outs() << "\n--- run 2 (warm) ---\n";
  uint64_t Warm = run("run2", CachePath, /*Load=*/true, /*Save=*/false);

  outs() << "\nwarm start removed "
         << (Cold == 0 ? 0 : (Cold - Warm) * 100 / Cold)
         << "% of the traversal steps.\n";
  std::remove(CachePath.c_str());
  return 0;
}
