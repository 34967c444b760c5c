//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces Figure 5: cumulative number of DYNSUM summaries after
/// each query batch, normalized to STASUM's static summary count, for
/// soot-c, bloat and jython.
///
/// The paper reports that DYNSUM ends at 41.3% / 47.7% / 37.3% of
/// STASUM's summaries on average for SafeCast / NullDeref / FactoryM.
/// The shape to check: the cumulative curve grows with the batch index
/// and stays well below 100%.
///
/// STASUM's offline closure is computed once per program (it is
/// client-independent) with a practical field-depth k-limit — the paper
/// notes STASUM must bound its summary count with user-supplied
/// heuristics; this is ours (--stasum-depth, default 6).
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "analysis/StaSum.h"
#include "support/CommandLine.h"
#include "support/OStream.h"
#include "support/PrettyTable.h"

#include <cmath>

using namespace dynsum;
using namespace dynsum::analysis;
using namespace dynsum::bench;
using namespace dynsum::clients;

int main(int argc, char **argv) {
  const char *BenchFlags =
      "[--stasum-depth=N] [--stasum-steps=N] [--stasum-max=N]";
  HarnessOptions Opts = HarnessOptions::parse(argc, argv, BenchFlags);
  CommandLine CL(argc, argv);
  bool Bad = false;
  StaSumOptions SO;
  SO.MaxFieldDepth =
      uint32_t(CL.getCount("stasum-depth", 6, UINT32_MAX, Bad));
  SO.StepBudget =
      CL.getCount("stasum-steps", 50 * 1000 * 1000, UINT64_MAX, Bad);
  SO.MaxSummaries =
      CL.getCount("stasum-max", 2 * 1000 * 1000, UINT64_MAX, Bad);
  if (Bad)
    usageExit(argv[0], BenchFlags);
  constexpr unsigned kBatches = 10;
  outs() << "=== Figure 5: cumulative DYNSUM summaries / STASUM summaries "
            "(%), scale="
         << Opts.Scale << " ===\n";

  // One generated program + one static closure per benchmark, shared by
  // the three clients.
  struct ProgramData {
    BenchProgram BP;
    StaSumResult Static;
  };
  std::vector<ProgramData> Programs;
  for (const workload::BenchmarkSpec *Spec : figureSpecs()) {
    ProgramData PD{makeBenchProgram(*Spec, Opts), {}};
    PD.Static = computeStaSum(*PD.BP.Built.Graph, SO);
    outs() << "  " << Spec->Name << ": STASUM computed "
           << PD.Static.NumNodeStateSummaries
           << " boundary-point summaries ("
           << PD.Static.NumSummaries << " field-stack configurations, "
           << PD.Static.Steps << " steps"
           << (PD.Static.Capped ? ", capped" : "") << ")\n";
    Programs.push_back(std::move(PD));
  }

  auto Clients = makePaperClients();
  for (unsigned CI = 0; CI < Clients.size(); ++CI) {
    const Client &C = *Clients[CI];
    outs() << "\n--- Client: " << C.name() << " ---\n";
    PrettyTable T;
    {
      auto &Header = T.row().cell("Benchmark").cell("STASUM#");
      for (unsigned B = 1; B <= kBatches; ++B)
        Header.cell("b" + std::to_string(B));
    }
    double FinalSum = 0;
    unsigned N = 0;
    for (const ProgramData &PD : Programs) {
      std::vector<ClientQuery> Qs = clientQueries(C, CI, PD.BP, Opts);
      size_t PerBatch = std::max<size_t>(1, Qs.size() / kBatches);

      DynSumAnalysis DynSum(*PD.BP.Built.Graph, Opts.analysisOptions());
      auto &Row =
          T.row().cell(PD.BP.Spec->Name).cell(PD.Static.NumNodeStateSummaries);
      double Last = 0;
      for (unsigned B = 0; B < kBatches; ++B) {
        size_t Begin = B * PerBatch;
        size_t End = B + 1 == kBatches ? Qs.size() : Begin + PerBatch;
        if (Begin < Qs.size())
          (void)runClient(C, DynSum, Qs, Begin, End);
        Last = PD.Static.NumNodeStateSummaries > 0
                   ? 100.0 * double(DynSum.cacheNodeStateCount()) /
                         double(PD.Static.NumNodeStateSummaries)
                   : 0.0;
        Row.cell(Last, 1);
      }
      FinalSum += Last;
      ++N;
    }
    T.print(outs());
    if (N > 0) {
      outs() << "average final ratio: ";
      outs().writeFixed(FinalSum / N, 1);
      outs() << "%  (paper: "
             << (CI == 0   ? "41.3%"
                 : CI == 1 ? "47.7%"
                           : "37.3%")
             << ")\n";
    }
  }
  outs() << "\nShape to check: curves grow with the batch index and stay "
            "well below 100%.\n";
  outs().flush();
  return 0;
}
