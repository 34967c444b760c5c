//===----------------------------------------------------------------------===//
///
/// \file
/// Call-graph-precision ablation: CHA vs RTA vs Andersen-refined
/// dispatch under the same demand-driven analysis.
///
/// The paper constructs its call graph on-the-fly with Spark's
/// Andersen analysis (Section 5.1).  This bench quantifies what that
/// choice buys: each resolver builds a PAG for the same programs, and
/// DYNSUM answers the same SafeCast query stream on each.  More precise
/// dispatch means fewer entry/exit edges, fewer spurious paths, fewer
/// traversal steps.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "pag/Rta.h"
#include "support/OStream.h"
#include "support/PrettyTable.h"

using namespace dynsum;
using namespace dynsum::analysis;
using namespace dynsum::bench;
using namespace dynsum::clients;

namespace {

struct ResolverRow {
  const char *Name;
  pag::BuiltPAG Built;
};

} // namespace

int main(int argc, char **argv) {
  HarnessOptions Opts = HarnessOptions::parse(argc, argv);
  outs() << "=== Call-graph ablation (CHA / RTA / Andersen; scale="
         << Opts.Scale << ") ===\n\n";

  for (const workload::BenchmarkSpec *Spec : selectedSpecs(Opts)) {
    // Three representative programs by default; --bench overrides.
    if (Opts.Only.empty() && Spec->Name != "soot-c" &&
        Spec->Name != "jython" && Spec->Name != "avrora")
      continue;

    workload::GenOptions Gen;
    Gen.Scale = Opts.Scale;
    Gen.Seed = Opts.Seed;
    auto Prog = workload::generateProgram(*Spec, Gen);

    std::vector<ResolverRow> Rows;
    Rows.push_back({"CHA", pag::buildPAG(*Prog)});

    pag::RtaTargetResolver Rta(*Prog);
    Rows.push_back({"RTA", pag::buildPAG(*Prog, &Rta)});

    // The call graph dynsum_tool --resolver=andersen ships: built on the
    // fly inside one Andersen solve, as Spark builds the paper's.
    Rows.push_back({"Andersen", buildPAGWithAndersenCallGraph(*Prog)});

    outs() << "--- " << Spec->Name << " ---\n";
    PrettyTable T;
    T.row()
        .cell("resolver")
        .cell("entry edges")
        .cell("exit edges")
        .cell("steps")
        .cell("seconds")
        .cell("refuted");

    SafeCastClient Client;
    for (ResolverRow &Row : Rows) {
      pag::PAGStats Stats = Row.Built.Graph->stats();
      DynSumAnalysis DynSum(*Row.Built.Graph, Opts.analysisOptions());
      std::vector<ClientQuery> Qs = Client.makeQueries(*Row.Built.Graph, 400);
      ClientReport Rep = runClient(Client, DynSum, Qs);
      T.row()
          .cell(Row.Name)
          .cell(Stats.EdgesByKind[unsigned(pag::EdgeKind::Entry)])
          .cell(Stats.EdgesByKind[unsigned(pag::EdgeKind::Exit)])
          .cell(Rep.TotalSteps)
          .cell(Rep.Seconds, 3)
          .cell(Rep.Refuted);
    }
    T.print(outs());
    outs() << '\n';
  }

  outs() << "entry/exit edges and steps should shrink monotonically down\n"
            "the CHA -> RTA -> Andersen ladder.\n";
  return 0;
}
