//===----------------------------------------------------------------------===//
///
/// \file
/// A realistic client session: audit every downcast in a generated
/// benchmark-sized program with the SafeCast client, comparing DYNSUM
/// against REFINEPTS, and print a findings report.
///
/// Run: build/examples/safecast_audit [--bench=soot-c] [--scale=0.02]
///
//===----------------------------------------------------------------------===//

#include "analysis/DynSum.h"
#include "analysis/RefinePts.h"
#include "clients/Client.h"
#include "pag/PAGBuilder.h"
#include "support/CommandLine.h"
#include "support/OStream.h"
#include "support/PrettyTable.h"
#include "workload/Generator.h"

using namespace dynsum;
using namespace dynsum::analysis;
using namespace dynsum::clients;

int main(int argc, char **argv) {
  CommandLine CL(argc, argv);
  std::string Bench = CL.getString("bench", "soot-c");
  workload::GenOptions GO;
  bool Bad = false;
  GO.Scale = CL.getDouble("scale", 0.02, Bad);
  if (Bad) {
    errs() << "usage: " << argv[0] << " [--bench=name] [--scale=X]\n";
    return 2;
  }

  outs() << "Generating '" << Bench << "' at scale " << GO.Scale << "...\n";
  std::unique_ptr<ir::Program> Prog =
      workload::generateProgram(workload::specByName(Bench), GO);
  pag::BuiltPAG Built = pag::buildPAG(*Prog);
  outs() << "  " << Prog->methods().size() << " methods, "
         << Built.Graph->numEdges() << " PAG edges, "
         << Prog->castSites().size() << " cast sites\n\n";

  SafeCastClient Client;
  std::vector<ClientQuery> Queries = Client.makeQueries(*Built.Graph, 0);
  outs() << "Auditing " << Queries.size() << " downcasts...\n\n";

  AnalysisOptions Opts;
  DynSumAnalysis DynSum(*Built.Graph, Opts);
  RefinePtsAnalysis Refine(*Built.Graph, Opts);

  PrettyTable T;
  T.row()
      .cell("analysis")
      .cell("safe")
      .cell("unsafe")
      .cell("unknown")
      .cell("steps")
      .cell("seconds");
  for (DemandAnalysis *A : std::initializer_list<DemandAnalysis *>{
           &DynSum, &Refine}) {
    ClientReport Rep = runClient(Client, *A, Queries);
    T.row()
        .cell(A->name())
        .cell(Rep.Proven)
        .cell(Rep.Refuted)
        .cell(Rep.Unknown)
        .cell(Rep.TotalSteps)
        .cell(Rep.Seconds, 3);
  }
  T.print(outs());

  // List a few concrete findings, the way an IDE inspection would.
  outs() << "\nSample findings (unsafe downcasts):\n";
  unsigned Shown = 0;
  for (const ClientQuery &Q : Queries) {
    if (Shown >= 5)
      break;
    QueryResult R = DynSum.query(Q.Node);
    if (Client.judge(*Built.Graph, Q, R) != Verdict::Refuted)
      continue;
    const ir::CastSite &Site = Prog->castSite(Q.Site);
    outs() << "  cast #" << Site.Id << " in "
           << Prog->describeMethod(Site.Owner) << ": ("
           << Prog->names().text(Prog->classOf(Site.Target).Name) << ") "
           << Prog->describeVar(Site.Source) << " may hold { ";
    for (ir::AllocId A : R.allocSites()) {
      outs() << Prog->names().text(
                    Prog->classOf(Prog->alloc(A).Type).Name)
             << ' ';
      if (&A - R.allocSites().data() > 3)
        break;
    }
    outs() << "}\n";
    ++Shown;
  }
  outs() << "\nDYNSUM answered from " << DynSum.cacheSize()
         << " dynamic summaries.\n";
  outs().flush();
  return 0;
}
