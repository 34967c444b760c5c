//===----------------------------------------------------------------------===//
///
/// \file
/// Incremental-analysis ablation: the IDE/JIT edit loop the paper
/// motivates ("software may undergo a lot of changes", Section 5.3).
///
/// A stream of method edits; after each one the full query batch
/// re-runs.  Two rows:
///
///   from-scratch  a fresh DYNSUM instance over a fresh buildPAG per
///                 cycle (no reuse at all)
///   per-method    one AnalysisService (one engine thread, foreground
///                 commits): summaries survive in its store except for
///                 edited/boundary-changed methods
///
/// The per-method row should approach the no-edit steady state: each
/// edit invalidates a handful of methods, so most of each re-query runs
/// on stored summaries.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "service/AnalysisService.h"
#include "support/OStream.h"
#include "support/PrettyTable.h"
#include "support/Timer.h"

using namespace dynsum;
using namespace dynsum::analysis;
using namespace dynsum::bench;

namespace {

/// Query set: a deterministic stride over local variables.
std::vector<ir::VarId> pickQueries(const ir::Program &P, size_t Stride) {
  std::vector<ir::VarId> Out;
  for (const ir::Variable &V : P.variables())
    if (!V.IsGlobal && V.Id % Stride == 0)
      Out.push_back(V.Id);
  return Out;
}

/// Applies edit cycle \p I to \p P: appends an allocation (plus a copy
/// into an existing variable when possible) to a pseudo-random method.
/// Program::addStatement stamps the edit clock.
void applyEdit(ir::Program &P, size_t I) {
  ir::MethodId M = P.methods()[(I * 37 + 11) % P.methods().size()].Id;
  ir::TypeId T = P.classes().back().Id;
  ir::VarId Fresh = P.createLocal(
      P.name("edit$" + std::to_string(I)), M, T);
  ir::Statement New;
  New.Kind = ir::StmtKind::Alloc;
  New.Dst = Fresh;
  New.Type = T;
  New.Alloc = P.createAllocSite(T, M, Symbol{});
  P.addStatement(M, std::move(New));
  for (const ir::Statement &St : P.method(M).Stmts)
    if (St.Kind == ir::StmtKind::Assign) {
      ir::Statement Copy;
      Copy.Kind = ir::StmtKind::Assign;
      Copy.Src = Fresh;
      Copy.Dst = St.Dst;
      P.addStatement(M, std::move(Copy));
      break;
    }
}

struct CycleTotals {
  uint64_t Steps = 0;
  double Seconds = 0.0;
  uint64_t Dropped = 0;
};

} // namespace

int main(int argc, char **argv) {
  HarnessOptions Opts = HarnessOptions::parse(argc, argv);
  const unsigned Cycles = 12;
  outs() << "=== Incremental edit loop (soot-c; " << Cycles
         << " edit/re-query cycles; scale=" << Opts.Scale << ") ===\n\n";

  workload::GenOptions Gen;
  Gen.Scale = Opts.Scale;
  Gen.Seed = Opts.Seed;
  const workload::BenchmarkSpec &Spec = workload::specByName("soot-c");

  PrettyTable T;
  T.row()
      .cell("policy")
      .cell("steps/cycle")
      .cell("sec/cycle")
      .cell("dropped/commit")
      .cell("final cache");

  // --- from-scratch baseline -------------------------------------------
  {
    auto P = generateProgram(Spec, Gen);
    std::vector<ir::VarId> Queries = pickQueries(*P, 61);
    CycleTotals Totals;
    Timer Clock;
    for (unsigned I = 0; I < Cycles; ++I) {
      applyEdit(*P, I);
      // A brand-new graph and analysis per cycle: no reuse whatsoever.
      pag::BuiltPAG Built = pag::buildPAG(*P);
      DynSumAnalysis Fresh(*Built.Graph, Opts.analysisOptions());
      for (ir::VarId V : Queries)
        Totals.Steps += Fresh.query(Built.Graph->nodeOfVar(V)).Steps;
    }
    Totals.Seconds = Clock.seconds();
    T.row()
        .cell("from-scratch")
        .cell(Totals.Steps / Cycles)
        .cell(Totals.Seconds / Cycles, 4)
        .cell("-")
        .cell("-");
  }

  // --- per-method invalidation -----------------------------------------
  {
    auto P = generateProgram(Spec, Gen);
    std::vector<ir::VarId> Queries = pickQueries(*P, 61);
    service::ServiceOptions SO;
    SO.Engine = Opts.engineOptions(1);
    service::AnalysisService S(std::move(P), SO);
    S.queryVars(Queries); // warm start

    CycleTotals Totals;
    Timer Clock;
    for (unsigned I = 0; I < Cycles; ++I) {
      S.editProgram([I](ir::Program &Q) {
        applyEdit(Q, I);
        return std::vector<ir::MethodId>{};
      });
      incremental::CommitStats Stats = S.submitCommit().wait();
      Totals.Dropped += Stats.SummariesDropped;
      Totals.Steps += S.queryVars(Queries).Stats.TotalSteps;
    }
    Totals.Seconds = Clock.seconds();
    T.row()
        .cell("per-method")
        .cell(Totals.Steps / Cycles)
        .cell(Totals.Seconds / Cycles, 4)
        .cell(Totals.Dropped / Cycles)
        .cell(uint64_t(S.stats().StoreSize));
  }

  T.print(outs());
  outs() << "\nper-method should re-traverse far less than from-scratch,\n"
            "which also starts every cycle from cold caches.\n";
  return 0;
}
