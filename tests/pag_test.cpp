//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for PAG construction, the call graph and recursion
/// collapsing.
///
//===----------------------------------------------------------------------===//

#include "analysis/Andersen.h"
#include "ir/Parser.h"
#include "pag/PAGBuilder.h"
#include "pag/GraphViz.h"
#include "support/OStream.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

using namespace dynsum;
using namespace dynsum::pag;

namespace {

std::unique_ptr<ir::Program> parse(const char *Src) {
  ir::ParseResult R = ir::parseProgram(Src);
  EXPECT_TRUE(R.ok()) << R.Error;
  return std::move(R.Prog);
}

/// Counts edges of \p Kind in \p G.
size_t countEdges(const PAG &G, EdgeKind Kind) {
  size_t N = 0;
  for (EdgeId E = 0; E < G.numEdges(); ++E)
    N += G.edge(E).Kind == Kind;
  return N;
}

} // namespace

TEST(PAGTest, Figure2EdgeKindCounts) {
  auto Prog = parse(dynsum::testing::kFigure2Source);
  BuiltPAG Built = buildPAG(*Prog);
  const PAG &G = *Built.Graph;

  // One new edge per allocation statement: o5 plus the six in main.
  EXPECT_EQ(countEdges(G, EdgeKind::New), Prog->allocs().size());
  EXPECT_EQ(countEdges(G, EdgeKind::New), 7u);
  // Loads: Vector.add (1), Vector.get (2), Client.retrieve (1).
  EXPECT_EQ(countEdges(G, EdgeKind::Load), 4u);
  // Stores: Vector.<init>, Vector.add, Client.<init>, Client.set.
  EXPECT_EQ(countEdges(G, EdgeKind::Store), 4u);
  // No globals in Figure 2.
  EXPECT_EQ(countEdges(G, EdgeKind::AssignGlobal), 0u);
  EXPECT_GT(countEdges(G, EdgeKind::Entry), 0u);
  EXPECT_GT(countEdges(G, EdgeKind::Exit), 0u);
}

TEST(PAGTest, EdgeOrientationFollowsValueFlow) {
  auto Prog = parse(dynsum::testing::kLocalFieldSource);
  BuiltPAG Built = buildPAG(*Prog);
  const PAG &G = *Built.Graph;
  // b.f = a  =>  a --store(f)--> b ; p = b.f  =>  b --load(f)--> p.
  bool SawStore = false, SawLoad = false;
  for (EdgeId E = 0; E < G.numEdges(); ++E) {
    const Edge &Ed = G.edge(E);
    if (Ed.Kind == EdgeKind::Store) {
      EXPECT_EQ(G.describe(Ed.Src), "a@main");
      EXPECT_EQ(G.describe(Ed.Dst), "b@main");
      SawStore = true;
    }
    if (Ed.Kind == EdgeKind::Load) {
      EXPECT_EQ(G.describe(Ed.Src), "b@main");
      EXPECT_EQ(G.describe(Ed.Dst), "p@main");
      SawLoad = true;
    }
  }
  EXPECT_TRUE(SawStore);
  EXPECT_TRUE(SawLoad);
}

TEST(PAGTest, BoundaryFlagsMarkGlobalEdges) {
  auto Prog = parse(dynsum::testing::kIdentitySource);
  BuiltPAG Built = buildPAG(*Prog);
  const PAG &G = *Built.Graph;
  // The formal parameter p of id() receives entry edges.
  bool Checked = false;
  for (NodeId N = 0; N < G.numNodes(); ++N) {
    if (G.describe(N) == "p@id") {
      EXPECT_TRUE(G.node(N).HasGlobalIn);
      Checked = true;
    }
  }
  EXPECT_TRUE(Checked);
}

TEST(PAGTest, FieldIndexesListStoresAndLoads) {
  auto Prog = parse(dynsum::testing::kLocalFieldSource);
  BuiltPAG Built = buildPAG(*Prog);
  const PAG &G = *Built.Graph;
  ir::FieldId F = Prog->getOrCreateField(Prog->names().lookup("f"));
  EXPECT_EQ(G.storesOfField(F).size(), 1u);
  EXPECT_EQ(G.loadsOfField(F).size(), 1u);
}

TEST(PAGTest, StatsLocality) {
  auto Prog = parse(dynsum::testing::kFigure2Source);
  BuiltPAG Built = buildPAG(*Prog);
  PAGStats S = Built.Graph->stats();
  EXPECT_EQ(S.NumObjects, 7u);
  EXPECT_EQ(S.NumGlobals, 0u);
  EXPECT_GT(S.locality(), 0.2);
  EXPECT_LT(S.locality(), 1.0);
  EXPECT_EQ(S.totalEdges(), Built.Graph->numEdges());
}

TEST(CallGraphTest, DirectAndVirtualTargets) {
  auto Prog = parse(dynsum::testing::kFigure2Source);
  pag::CallGraph CG = buildCallGraph(*Prog);
  // Every call site in Figure 2 resolves to exactly one target (the
  // virtual receivers have precise declared types).
  for (const ir::CallSite &CS : Prog->callSites())
    EXPECT_EQ(CG.targets(CS.Id).size(), 1u)
        << "site " << CS.Id << " label " << CS.Label;
}

TEST(CallGraphTest, RecursionIsDetectedAndCollapsed) {
  auto Prog = parse(dynsum::testing::kRecursionSource);
  BuiltPAG Built = buildPAG(*Prog);
  const pag::CallGraph &CG = Built.Calls;

  ir::MethodId Rec = Prog->findFreeMethod(Prog->names().lookup("rec"));
  ir::MethodId Main = Prog->findFreeMethod(Prog->names().lookup("main"));
  EXPECT_TRUE(CG.isRecursive(Rec));
  EXPECT_FALSE(CG.isRecursive(Main));
  EXPECT_TRUE(CG.inSameRecursion(Rec, Rec));
  EXPECT_FALSE(CG.inSameRecursion(Main, Rec));

  // The self-call's entry/exit edges are context-free; main's call to
  // rec keeps its context.
  size_t ContextFree = 0, Contextful = 0;
  for (EdgeId E = 0; E < Built.Graph->numEdges(); ++E) {
    const Edge &Ed = Built.Graph->edge(E);
    if (Ed.Kind != EdgeKind::Entry && Ed.Kind != EdgeKind::Exit)
      continue;
    (Ed.ContextFree ? ContextFree : Contextful) += 1;
  }
  EXPECT_GT(ContextFree, 0u);
  EXPECT_GT(Contextful, 0u);
}

TEST(CallGraphTest, MutualRecursionSharesAnScc) {
  auto Prog = parse(R"(
method ping(p) {
  r = call @1 pong(p)
  return r
}
method pong(p) {
  r = call @2 ping(p)
  return r
}
method main() {
  x = call @3 ping(x)
}
)");
  pag::CallGraph CG = buildCallGraph(*Prog);
  ir::MethodId Ping = Prog->findFreeMethod(Prog->names().lookup("ping"));
  ir::MethodId Pong = Prog->findFreeMethod(Prog->names().lookup("pong"));
  EXPECT_EQ(CG.sccOf(Ping), CG.sccOf(Pong));
  EXPECT_TRUE(CG.inSameRecursion(Ping, Pong));
}

TEST(CallGraphTest, ReachableFromWalksTransitively) {
  auto Prog = parse(dynsum::testing::kGlobalSource);
  pag::CallGraph CG = buildCallGraph(*Prog);
  ir::MethodId Main = Prog->findFreeMethod(Prog->names().lookup("main"));
  std::vector<ir::MethodId> R = CG.reachableFrom(Main);
  EXPECT_EQ(R.size(), 3u); // main, put, take
}

TEST(CallGraphTest, AndersenResolverNarrowsDispatch) {
  auto Prog = parse(dynsum::testing::kVirtualSource);
  BuiltPAG Cha = buildPAG(*Prog);
  analysis::AndersenAnalysis And(*Cha.Graph);
  And.solve();
  analysis::AndersenTargetResolver Resolver(And, *Cha.Graph);
  pag::CallGraph Narrow = buildCallGraph(*Prog, &Resolver);
  for (const ir::CallSite &CS : Prog->callSites()) {
    if (CS.Label != 1)
      continue;
    EXPECT_EQ(Narrow.targets(CS.Id).size(), 1u);
    const ir::Method &M = Prog->method(Narrow.targets(CS.Id)[0]);
    EXPECT_EQ(Prog->names().text(Prog->classOf(M.Owner).Name), "Circle");
  }
}

TEST(PAGTest, DumpMentionsEveryEdgeKind) {
  auto Prog = parse(dynsum::testing::kGlobalSource);
  BuiltPAG Built = buildPAG(*Prog);
  StringOStream OS;
  Built.Graph->dump(OS);
  EXPECT_NE(OS.str().find("assignglobal"), std::string::npos);
  EXPECT_NE(OS.str().find("new"), std::string::npos);
  EXPECT_NE(OS.str().find("entry"), std::string::npos);
}

TEST(GraphVizTest, Figure2DotContainsClustersAndEdges) {
  auto Prog = parse(dynsum::testing::kFigure2Source);
  BuiltPAG Built = buildPAG(*Prog);
  std::string Dot = toGraphViz(*Built.Graph);
  EXPECT_NE(Dot.find("digraph"), std::string::npos);
  EXPECT_NE(Dot.find("cluster_m"), std::string::npos);
  EXPECT_NE(Dot.find("Vector.get"), std::string::npos);
  EXPECT_NE(Dot.find("load(elems)"), std::string::npos);
  EXPECT_NE(Dot.find("style=dashed"), std::string::npos); // global edges
  EXPECT_EQ(Dot.find("style=dashed, style="), std::string::npos);
}

TEST(GraphVizTest, EscapesQuotes) {
  auto Prog = parse(dynsum::testing::kStraightLineSource);
  BuiltPAG Built = buildPAG(*Prog);
  GraphVizOptions Opts;
  Opts.Title = "say \"hi\"";
  std::string Dot = toGraphViz(*Built.Graph, Opts);
  EXPECT_NE(Dot.find("say \\\"hi\\\""), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Delta rebuild (the substrate of AnalysisService's commit pipeline)
//===----------------------------------------------------------------------===//

TEST(RebuildTest, ForcedFullRelowerReproducesBuildExactly) {
  ir::ParseResult R = ir::parseProgram(dynsum::testing::kFigure2Source);
  ASSERT_TRUE(R.ok()) << R.Error;
  BuiltPAG Fresh = buildPAG(*R.Prog);

  PAG InPlace(*R.Prog);
  CallGraph Calls;
  buildPAGDelta(InPlace, Calls);
  // Force-re-lower everything: identical graph, same node ids, and the
  // segment slots recycle without leaking.
  buildPAGDelta(InPlace, Calls, nullptr, /*ForceFull=*/true);

  ASSERT_EQ(InPlace.numNodes(), Fresh.Graph->numNodes());
  ASSERT_EQ(InPlace.numEdges(), Fresh.Graph->numEdges());
  for (NodeId N = 0; N < InPlace.numNodes(); ++N) {
    EXPECT_EQ(InPlace.node(N).Kind, Fresh.Graph->node(N).Kind);
    EXPECT_EQ(InPlace.node(N).IrId, Fresh.Graph->node(N).IrId);
    EXPECT_EQ(InPlace.node(N).Method, Fresh.Graph->node(N).Method);
    EXPECT_EQ(InPlace.node(N).HasLocalEdge, Fresh.Graph->node(N).HasLocalEdge);
    EXPECT_EQ(InPlace.node(N).HasGlobalIn, Fresh.Graph->node(N).HasGlobalIn);
    EXPECT_EQ(InPlace.node(N).HasGlobalOut,
              Fresh.Graph->node(N).HasGlobalOut);
  }
  // Same live multiset of edges per (src, dst, kind, aux); slot order
  // may differ after the in-place re-lower.
  auto EdgeKeys = [](const PAG &G) {
    std::vector<std::tuple<NodeId, NodeId, unsigned, uint32_t>> Keys;
    for (EdgeId E = 0; E < G.numEdgeSlots(); ++E) {
      if (!G.edgeAlive(E))
        continue;
      const Edge &Ed = G.edge(E);
      Keys.emplace_back(Ed.Src, Ed.Dst, unsigned(Ed.Kind), Ed.Aux);
    }
    std::sort(Keys.begin(), Keys.end());
    return Keys;
  };
  EXPECT_EQ(EdgeKeys(InPlace), EdgeKeys(*Fresh.Graph));
}

TEST(RebuildTest, VariableNodeIdsEqualVariableIdsOnFirstBuild) {
  // The canonical on-disk summary numbering relies on this contract for
  // fresh builds: variables occupy the node-id prefix in id order,
  // objects follow.  (Delta builds append later ids in creation order.)
  ir::ParseResult R = ir::parseProgram(dynsum::testing::kFigure2Source);
  ASSERT_TRUE(R.ok()) << R.Error;
  BuiltPAG Built = buildPAG(*R.Prog);
  size_t NumVars = R.Prog->variables().size();
  for (const ir::Variable &V : R.Prog->variables())
    EXPECT_EQ(Built.Graph->nodeOfVar(V.Id), V.Id);
  for (const ir::AllocSite &A : R.Prog->allocs())
    EXPECT_EQ(Built.Graph->nodeOfAlloc(A.Id), NumVars + A.Id);
}

TEST(RebuildTest, DeltaBuildSeesAppendedStatements) {
  ir::ParseResult R = ir::parseProgram(dynsum::testing::kStraightLineSource);
  ASSERT_TRUE(R.ok()) << R.Error;
  ir::Program &P = *R.Prog;
  PAG G(P);
  CallGraph Calls;
  buildPAGDelta(G, Calls);
  size_t EdgesBefore = G.numEdges();

  ir::MethodId Main = P.findFreeMethod(P.names().lookup("main"));
  ir::Statement S;
  S.Kind = ir::StmtKind::Assign;
  S.Dst = P.method(Main).Stmts[0].Dst;
  S.Src = P.method(Main).Stmts[1].Dst;
  P.addStatement(Main, std::move(S));
  pag::DeltaStats DS = buildPAGDelta(G, Calls);
  EXPECT_EQ(G.numEdges(), EdgesBefore + 1);
  EXPECT_EQ(DS.Relowered.size(), 1u);
  EXPECT_EQ(DS.Relowered[0], Main);
}

TEST(RebuildTest, AddingAVariableKeepsNodeIdsStable) {
  auto P = parse(R"(
    class A {}
    class Box { fields f }
    method helper(b) {
      t = b.f
      return t
    }
    method main() {
      box = new Box @obox
      a = new A @oa
      box.f = a
      r = call helper(box)
    }
  )");
  PAG G(*P);
  CallGraph Calls;
  buildPAGDelta(G, Calls);

  // Record every pre-edit node id; the delta build must not move any.
  std::vector<NodeId> VarNodes, AllocNodes;
  for (const ir::Variable &V : P->variables())
    VarNodes.push_back(G.nodeOfVar(V.Id));
  for (const ir::AllocSite &A : P->allocs())
    AllocNodes.push_back(G.nodeOfAlloc(A.Id));

  // A new local + alloc: both append fresh node ids at the end.
  ir::MethodId Main = P->findFreeMethod(P->names().lookup("main"));
  ir::VarId Fresh = P->createLocal(P->name("fresh"), Main, ir::kObjectType);
  ir::Statement New;
  New.Kind = ir::StmtKind::Alloc;
  New.Dst = Fresh;
  New.Type = P->findClass(P->names().lookup("A"));
  ir::AllocId FreshAlloc =
      P->createAllocSite(New.Type, Main, P->name("ofresh"));
  New.Alloc = FreshAlloc;
  P->addStatement(Main, std::move(New));
  pag::DeltaStats DS = buildPAGDelta(G, Calls);
  EXPECT_EQ(DS.Relowered.size(), 1u);

  for (size_t I = 0; I < VarNodes.size(); ++I)
    EXPECT_EQ(G.nodeOfVar(ir::VarId(I)), VarNodes[I])
        << "variable node id moved";
  for (size_t I = 0; I < AllocNodes.size(); ++I)
    EXPECT_EQ(G.nodeOfAlloc(ir::AllocId(I)), AllocNodes[I])
        << "object node id moved";
  EXPECT_GE(G.nodeOfVar(Fresh), VarNodes.size() + AllocNodes.size())
      << "new nodes append after every existing id";
  EXPECT_GE(G.nodeOfAlloc(FreshAlloc), VarNodes.size() + AllocNodes.size());
}

TEST(RebuildTest, FinalizeIsIdempotentAndGuardsPartialPopulate) {
  // Satellite regression: double-finalize must be a no-op, not a crash
  // or a corrupted CSR.
  ir::ParseResult R = ir::parseProgram(dynsum::testing::kFigure2Source);
  ASSERT_TRUE(R.ok()) << R.Error;
  BuiltPAG Built = buildPAG(*R.Prog);
  PAG &G = *Built.Graph;
  size_t Nodes = G.numNodes(), Edges = G.numEdges();
  std::vector<size_t> InSizes;
  for (NodeId N = 0; N < G.numNodes(); ++N)
    InSizes.push_back(G.inEdges(N).size());

  G.finalize(); // second finalize: idempotent
  G.finalize(); // and a third
  EXPECT_EQ(G.numNodes(), Nodes);
  EXPECT_EQ(G.numEdges(), Edges);
  for (NodeId N = 0; N < G.numNodes(); ++N)
    EXPECT_EQ(G.inEdges(N).size(), InSizes[N]) << "node " << N;

#ifndef NDEBUG
  // Finalize with an open segment (partial populate) must be rejected.
  G.beginSegment(0);
  EXPECT_DEATH(G.finalize(), "open segment");
  G.endSegment();
  G.finalize();
#endif
}
