//===----------------------------------------------------------------------===//
///
/// \file
/// The IDE/JIT scenario the paper motivates (Sections 1 and 7): a
/// program is queried, *edited*, and re-queried.  DYNSUM's summaries
/// are per-method and context-independent, so an edit only invalidates
/// the edited method's summaries; everything else is reused.
///
/// Run: build/examples/ide_incremental [--bench=bloat] [--scale=0.02]
///
//===----------------------------------------------------------------------===//

#include "analysis/DynSum.h"
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
  workload::GenOptions GO;
  bool Bad = false;
  GO.Scale = CL.getDouble("scale", 0.02, Bad);
  if (Bad) {
    errs() << "usage: " << argv[0] << " [--scale=X] [--bench=name]\n";
    return 2;
  }
  std::string Bench = CL.getString("bench", "bloat");

  std::unique_ptr<ir::Program> Prog =
      workload::generateProgram(workload::specByName(Bench), GO);
  pag::BuiltPAG Built = pag::buildPAG(*Prog);

  NullDerefClient Client;
  std::vector<ClientQuery> Queries = Client.makeQueries(*Built.Graph, 120);

  AnalysisOptions Opts;
  DynSumAnalysis DynSum(*Built.Graph, Opts);

  auto RunAll = [&](const char *Label) {
    uint64_t Steps = 0;
    for (const ClientQuery &Q : Queries)
      Steps += DynSum.query(Q.Node).Steps;
    outs() << Label << ": " << Steps << " steps, cache holds "
           << DynSum.cacheSize() << " summaries\n";
    return Steps;
  };

  outs() << "IDE session on '" << Bench << "' (" << Queries.size()
         << " NullDeref inspections per pass)\n\n";

  uint64_t Cold = RunAll("initial analysis    (cold)");
  uint64_t Warm = RunAll("re-run, no edits    (warm)");

  // The user edits one hot library method: only its summaries drop.
  ir::MethodId Edited = 0; // rank 0 is the hottest container method
  size_t Before = DynSum.cacheSize();
  DynSum.invalidateMethod(Edited);
  outs() << "\nuser edits " << Prog->describeMethod(Edited)
         << ": invalidated " << Before - DynSum.cacheSize() << " of "
         << Before << " summaries\n\n";
  uint64_t AfterEdit = RunAll("re-run after edit   (mostly warm)");

  // Contrast with a full cache drop (what a whole-program static
  // summary approach like STASUM must effectively redo on every edit).
  DynSum.clearCache();
  uint64_t AfterClear = RunAll("re-run, cache wiped (cold again)");

  outs() << "\nsummary: cold " << Cold << " -> warm " << Warm
         << " -> after one edit " << AfterEdit << " -> after full wipe "
         << AfterClear << " steps\n";
  outs() << "An edit costs only the difference between warm and "
            "mostly-warm; a static summary scheme pays the cold price.\n";
  outs().flush();
  return Warm <= Cold && AfterEdit <= AfterClear ? 0 : 1;
}
