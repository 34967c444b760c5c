//===----------------------------------------------------------------------===//
///
/// \file
/// Quickstart: build a tiny program through the public builder API, run
/// all four analyses on one query, and print what they say.
///
/// Run: build/examples/quickstart
///
//===----------------------------------------------------------------------===//

#include "analysis/Andersen.h"
#include "analysis/DynSum.h"
#include "analysis/RefinePts.h"
#include "ir/Builder.h"
#include "pag/PAGBuilder.h"
#include "support/OStream.h"

using namespace dynsum;
using namespace dynsum::analysis;

int main() {
  // 1. Build a program: a Holder stores whatever it is given; main puts
  //    two different objects into two different holders.
  ir::ProgramBuilder B;
  B.cls("Holder");
  B.cls("Apple");
  B.cls("Banana");

  ir::MethodId Put =
      B.method("put", {{"h", "Holder"}, {"v", ""}});
  B.store(Put, "h", "item", "v");

  ir::MethodId Get = B.method("get", {{"h", "Holder"}});
  B.load(Get, "r", "h", "item");
  B.ret(Get, "r");

  ir::MethodId Main = B.method("main");
  B.alloc(Main, "h1", "Holder", "oh1");
  B.alloc(Main, "h2", "Holder", "oh2");
  B.alloc(Main, "apple", "Apple", "oapple");
  B.alloc(Main, "banana", "Banana", "obanana");
  B.call(Main, "", Put, {"h1", "apple"});
  B.call(Main, "", Put, {"h2", "banana"});
  B.call(Main, "x", Get, {"h1"}); // x should be the apple only
  std::unique_ptr<ir::Program> Prog = B.takeProgram();

  // 2. Build the PAG (the graph every analysis consumes).
  pag::BuiltPAG Built = pag::buildPAG(*Prog);
  outs() << "PAG has " << Built.Graph->numNodes() << " nodes and "
         << Built.Graph->numEdges() << " edges\n\n";

  // 3. Ask "what may x point to?" with each analysis.
  pag::NodeId X = 0;
  for (const ir::Variable &V : Prog->variables())
    if (!V.IsGlobal && Prog->names().text(V.Name) == "x")
      X = Built.Graph->nodeOfVar(V.Id);

  AnalysisOptions Opts;
  DynSumAnalysis DynSum(*Built.Graph, Opts);
  RefinePtsAnalysis RefinePts(*Built.Graph, Opts, /*Refinement=*/true);
  RefinePtsAnalysis NoRefine(*Built.Graph, Opts, /*Refinement=*/false);

  for (DemandAnalysis *A : std::initializer_list<DemandAnalysis *>{
           &DynSum, &RefinePts, &NoRefine}) {
    QueryResult R = A->query(X);
    outs() << A->name() << ": pts(x) = { ";
    for (ir::AllocId Site : R.allocSites())
      outs() << Prog->describeAlloc(Site) << ' ';
    outs() << "}  in " << R.Steps << " steps\n";
  }

  // Andersen (exhaustive, context-insensitive) conflates the holders.
  AndersenAnalysis Andersen(*Built.Graph);
  Andersen.solve();
  outs() << "ANDERSEN: pts(x) = { ";
  for (ir::AllocId Site : Andersen.allocSites(X))
    outs() << Prog->describeAlloc(Site) << ' ';
  outs() << "}   <- context-insensitive over-approximation\n";

  outs() << "\nDYNSUM cached " << DynSum.cacheSize()
         << " method summaries while answering.\n";
  outs().flush();
  return 0;
}
