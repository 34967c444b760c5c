//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the exhaustive Andersen solver.  Beyond hand-checked
/// answers, every cycle fixture and a set of generated programs must
/// reach exactly the fixpoint of ReferenceAndersen, a naive round-robin
/// solver with no cycle handling.
///
/// The call graph buildPAGWithAndersenCallGraph builds in one solve is
/// checked against two oracles: the least fixpoint of points-to-directed
/// dispatch, found by rebuilding until no target changes, and, slot for
/// slot, the CHA-first rounds loop it replaced.
///
//===----------------------------------------------------------------------===//

#include "ReferenceAndersen.h"

#include "analysis/Andersen.h"
#include "ir/Parser.h"
#include "pag/PAGBuilder.h"
#include "workload/BenchmarkSpec.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <tuple>

using namespace dynsum;
using namespace dynsum::analysis;
using dynsum::testing::matchesLeastFixpoint;
using dynsum::testing::ReferenceAndersen;
using dynsum::testing::roundsCallGraph;
using dynsum::testing::sameSlots;
using dynsum::testing::solvesToReference;

namespace {

struct Solved {
  explicit Solved(const char *Src) {
    ir::ParseResult R = ir::parseProgram(Src);
    EXPECT_TRUE(R.ok()) << R.Error;
    Prog = std::move(R.Prog);
    Built = pag::buildPAG(*Prog);
    Andersen = std::make_unique<AndersenAnalysis>(*Built.Graph);
    Andersen->solve();
  }

  pag::NodeId node(const char *Var) const {
    for (const ir::Variable &V : Prog->variables())
      if (Prog->names().text(V.Name) == std::string_view(Var))
        return Built.Graph->nodeOfVar(V.Id);
    ADD_FAILURE() << "no variable " << Var;
    return 0;
  }

  ir::AllocId alloc(const char *Label) const {
    Symbol L = Prog->names().lookup(Label);
    for (const ir::AllocSite &A : Prog->allocs())
      if (A.Label == L)
        return A.Id;
    return ir::kNone;
  }

  std::vector<ir::AllocId> pts(const char *Var) const {
    return Andersen->allocSites(node(Var));
  }

  std::vector<ir::AllocId>
  allocs(std::initializer_list<const char *> Labels) const {
    std::vector<ir::AllocId> Out;
    for (const char *L : Labels)
      Out.push_back(alloc(L));
    std::sort(Out.begin(), Out.end());
    return Out;
  }

  ::testing::AssertionResult matchesReference() const {
    return solvesToReference(*Built.Graph, ReferenceAndersen(*Built.Graph));
  }

  std::unique_ptr<ir::Program> Prog;
  pag::BuiltPAG Built;
  std::unique_ptr<AndersenAnalysis> Andersen;
};

} // namespace

TEST(AndersenTest, CopyChain) {
  Solved S("class A {} method m() { a = new A @o1  b = a  c = b }");
  EXPECT_EQ(S.pts("c"), std::vector<ir::AllocId>{S.alloc("o1")});
}

TEST(AndersenTest, AssignCycleConverges) {
  Solved S(R"(
class A {}
method m() {
  a = new A @o1
  x = a
  y = x
  x = y
  z = y
}
)");
  EXPECT_EQ(S.pts("z"), std::vector<ir::AllocId>{S.alloc("o1")});
  EXPECT_EQ(S.pts("x"), S.pts("y"));
  EXPECT_TRUE(S.matchesReference());
}

TEST(AndersenTest, FieldFlowThroughAliases) {
  Solved S(R"(
class A {}
class Box { fields f }
method m() {
  v = new A @ov
  b1 = new Box @ob
  b2 = b1
  b1.f = v
  r = b2.f
}
)");
  EXPECT_EQ(S.pts("r"), std::vector<ir::AllocId>{S.alloc("ov")});
}

TEST(AndersenTest, DistinctObjectsKeepDistinctFields) {
  Solved S(R"(
class A {}
class B {}
class Box { fields f }
method m() {
  x = new A @ox
  y = new B @oy
  b1 = new Box @ob1
  b2 = new Box @ob2
  b1.f = x
  b2.f = y
  r1 = b1.f
  r2 = b2.f
}
)");
  EXPECT_EQ(S.pts("r1"), std::vector<ir::AllocId>{S.alloc("ox")});
  EXPECT_EQ(S.pts("r2"), std::vector<ir::AllocId>{S.alloc("oy")});
}

TEST(AndersenTest, FieldAllocSitesExposesTheHeap) {
  Solved S(R"(
class A {}
class Box { fields f }
method m() {
  x = new A @ox
  b = new Box @ob
  b.f = x
}
)");
  ir::FieldId F = S.Prog->getOrCreateField(S.Prog->names().lookup("f"));
  EXPECT_EQ(S.Andersen->fieldAllocSites(S.alloc("ob"), F),
            std::vector<ir::AllocId>{S.alloc("ox")});
  // Untouched (object, field) pairs are empty, not an error.
  EXPECT_TRUE(S.Andersen->fieldAllocSites(S.alloc("ox"), F).empty());
}

TEST(AndersenTest, CallsAreContextInsensitive) {
  Solved S(R"(
class A {}
class B {}
method id(p) { return p }
method m() {
  a = new A @oa
  b = new B @ob
  x = call @1 id(a)
  y = call @2 id(b)
}
)");
  // Entry/exit edges are plain copies for Andersen: both results merge.
  EXPECT_EQ(S.pts("x").size(), 2u);
  EXPECT_EQ(S.pts("x"), S.pts("y"));
}

TEST(AndersenTest, GlobalsFlowEverywhere) {
  Solved S(R"(
class A {}
global g
method m() {
  a = new A @oa
  g = a
  r = g
}
)");
  EXPECT_EQ(S.pts("r"), std::vector<ir::AllocId>{S.alloc("oa")});
}

TEST(AndersenTest, NullSitesParticipate) {
  Solved S("class A {} method m() { x = null  y = x }");
  std::vector<ir::AllocId> Y = S.pts("y");
  ASSERT_EQ(Y.size(), 1u);
  EXPECT_TRUE(S.Prog->alloc(Y[0]).IsNull);
}

TEST(AndersenTest, SolveIsIdempotent) {
  Solved S("class A {} method m() { a = new A @o1  b = a }");
  uint64_t First = S.Andersen->propagationCount();
  S.Andersen->solve();
  EXPECT_EQ(S.Andersen->propagationCount(), First);
}

TEST(AndersenTest, PointsToPredicate) {
  Solved S("class A {} method m() { a = new A @o1  b = new A @o2 }");
  EXPECT_TRUE(S.Andersen->pointsTo(S.node("a"), S.alloc("o1")));
  EXPECT_FALSE(S.Andersen->pointsTo(S.node("a"), S.alloc("o2")));
}

TEST(AndersenTest, LoadBeforeStoreStillConverges) {
  // The load is discovered before any object reaches the base; dynamic
  // copy edges must still fire once the store lands.
  Solved S(R"(
class A {}
class Box { fields f }
method m() {
  r = b.f
  b = new Box @ob
  v = new A @ov
  b.f = v
}
)");
  EXPECT_EQ(S.pts("r"), std::vector<ir::AllocId>{S.alloc("ov")});
}

// The cycle fixtures below pin what copy-graph cycle collapse must get
// right.  In each, "late" objects reach the cycle only through a field
// node created mid-solve, so they arrive after the cycle has merged.

TEST(AndersenTest, CycleClosedMidSolveThroughAFieldNode) {
  // b.f = x and x = b.f close x -> ob.f -> x only once ob reaches b.
  Solved S(R"(
class A {}
class Box { fields f }
class Holder { fields g }
method m() {
  b = new Box @ob
  x = new A @ox
  b.f = x
  x = b.f
  y = x
  h = new Holder @oh
  z = new A @oz
  h.g = z
  w = h.g
  x = w
  r = b.f
}
)");
  EXPECT_EQ(S.pts("x"), S.allocs({"ox", "oz"}));
  EXPECT_EQ(S.pts("y"), S.allocs({"ox", "oz"}));
  EXPECT_EQ(S.pts("r"), S.allocs({"ox", "oz"}));
  ir::FieldId F = S.Prog->getOrCreateField(S.Prog->names().lookup("f"));
  EXPECT_EQ(S.Andersen->fieldAllocSites(S.alloc("ob"), F),
            S.allocs({"ox", "oz"}));
  EXPECT_TRUE(S.matchesReference());
}

TEST(AndersenTest, CycleMergesALoadBaseWithAPlainVariable) {
  // p -> b -> q -> p is a static cycle whose smallest id is p, so the
  // load on b moves to p.  The box reaches the cycle later, through
  // h.g, and the moved load must still fire for it.
  Solved S(R"(
class A {}
class Box { fields f }
class Holder { fields g }
method m() {
  p = q
  q = b
  b = p
  r = b.f
  h = new Holder @oh
  bx = new Box @obx
  h.g = bx
  t = h.g
  q = t
  v = new A @ov
  u = bx
  u.f = v
}
)");
  EXPECT_EQ(S.pts("p"), S.allocs({"obx"}));
  EXPECT_EQ(S.pts("b"), S.allocs({"obx"}));
  EXPECT_EQ(S.pts("r"), S.allocs({"ov"}));
  EXPECT_TRUE(S.matchesReference());
}

TEST(AndersenTest, StoreWhoseSourceSitsInACycle) {
  // x <-> y is a cycle represented by x; the store reads y.  An early
  // object and a late one (via h.g) must both cross the store.
  Solved S(R"(
class A {}
class Box { fields f }
class Holder { fields g }
method m() {
  x = y
  y = x
  b = new Box @ob
  b.f = y
  r = b.f
  a = new A @oa
  x = a
  h = new Holder @oh
  a2 = new A @oa2
  h.g = a2
  t = h.g
  y = t
}
)");
  EXPECT_EQ(S.pts("x"), S.allocs({"oa", "oa2"}));
  EXPECT_EQ(S.pts("r"), S.allocs({"oa", "oa2"}));
  EXPECT_TRUE(S.matchesReference());
}

TEST(AndersenTest, CycleRepresentativeTakesOverAMembersObjects) {
  // y < x, so the cycle is represented by y, which holds no object of
  // its own; x's object must still leave the merged cycle towards z.
  Solved S(R"(
class A {}
method m() {
  y = x
  x = y
  x = new A @o
  z = y
}
)");
  EXPECT_EQ(S.pts("z"), S.allocs({"o"}));
  EXPECT_TRUE(S.matchesReference());
}

TEST(AndersenTest, MergedLoadBasesRediscoverEachOthersObjects) {
  // b1 -> oh.h -> b2 -> b1 closes mid-solve, after b1 has run its load
  // of f for o1 and o2 but b2 its load of g only for o2.  The merged
  // base must run g for o1 too.
  Solved S(R"(
class A {}
class Box { fields f, g }
class Holder { fields h }
method m() {
  b1 = a1
  b2 = a2
  r1 = b1.f
  r2 = b2.g
  a1 = new Box @o1
  a2 = new Box @o2
  v = new A @ov
  w = new A @ow
  a1.g = w
  a2.f = v
  hb = new Holder @oh
  hb.h = b1
  b2 = hb.h
  b1 = b2
}
)");
  EXPECT_EQ(S.pts("b2"), S.allocs({"o1", "o2"}));
  EXPECT_EQ(S.pts("r1"), S.allocs({"ov"}));
  EXPECT_EQ(S.pts("r2"), S.allocs({"ow"}));
  EXPECT_TRUE(S.matchesReference());
}

// Generated programs have copy-graph cycles through recursion, globals
// and the heap, before and after Andersen refines the call graph.
class AndersenReferenceTest
    : public ::testing::TestWithParam<std::tuple<const char *, uint64_t>> {};

TEST_P(AndersenReferenceTest, GeneratedProgramsMatchReference) {
  auto [Spec, Seed] = GetParam();
  workload::GenOptions GO;
  GO.Scale = 0.02;
  GO.Seed = Seed;
  std::unique_ptr<ir::Program> Prog =
      workload::generateProgram(workload::specByName(Spec), GO);
  pag::BuiltPAG Cha = pag::buildPAG(*Prog);
  EXPECT_TRUE(solvesToReference(*Cha.Graph, ReferenceAndersen(*Cha.Graph)))
      << "CHA graph";
  pag::BuiltPAG Refined = buildPAGWithAndersenCallGraph(*Prog);
  EXPECT_TRUE(
      solvesToReference(*Refined.Graph, ReferenceAndersen(*Refined.Graph)))
      << "Andersen-refined graph";
}

INSTANTIATE_TEST_SUITE_P(
    SpecsAndSeeds, AndersenReferenceTest,
    ::testing::Combine(::testing::Values("soot-c", "javac"),
                       ::testing::Values(uint64_t(0), uint64_t(7))),
    [](const auto &Info) {
      std::string Name = std::get<0>(Info.param);
      Name.erase(std::remove(Name.begin(), Name.end(), '-'), Name.end());
      return Name + "_seed" + std::to_string(std::get<1>(Info.param));
    });

//===----------------------------------------------------------------------===//
// The call graph built on the fly
//===----------------------------------------------------------------------===//

namespace {

/// A fixture program with the call graph buildPAGWithAndersenCallGraph
/// builds for it.
struct CallGraphCase {
  explicit CallGraphCase(const char *Src) {
    ir::ParseResult R = ir::parseProgram(Src);
    EXPECT_TRUE(R.ok()) << R.Error;
    Prog = std::move(R.Prog);
    Built = buildPAGWithAndersenCallGraph(*Prog);
  }

  ir::CallSiteId site(uint32_t Label) const {
    for (const ir::CallSite &CS : Prog->callSites())
      if (CS.Label == Label)
        return CS.Id;
    ADD_FAILURE() << "no call labelled @" << Label;
    return 0;
  }

  /// Targets of the call labelled \p Label in \p G, as sorted names.
  std::vector<std::string> targets(uint32_t Label,
                                   const pag::BuiltPAG *G = nullptr) const {
    std::vector<std::string> Out;
    for (ir::MethodId M : (G ? G : &Built)->Calls.targets(site(Label)))
      Out.push_back(Prog->describeMethod(M));
    std::sort(Out.begin(), Out.end());
    return Out;
  }

  /// Entry and exit edges of the call labelled \p Label.
  std::vector<pag::Edge> callEdges(uint32_t Label) const {
    std::vector<pag::Edge> Out;
    const pag::PAG &G = *Built.Graph;
    ir::CallSiteId Site = site(Label);
    for (pag::EdgeId Id = 0; Id < G.numEdgeSlots(); ++Id) {
      const pag::Edge &E = G.edge(Id);
      if (G.edgeAlive(Id) && E.Aux == Site &&
          (E.Kind == pag::EdgeKind::Entry || E.Kind == pag::EdgeKind::Exit))
        Out.push_back(E);
    }
    return Out;
  }

  /// Allocation labels in the points-to set of main's \p Var, by an
  /// Andersen solve of the final graph.
  std::vector<std::string> pts(const char *Var) const {
    AndersenAnalysis A(*Built.Graph);
    A.solve();
    ir::MethodId Main = Prog->findFreeMethod(Prog->names().lookup("main"));
    std::vector<std::string> Out;
    for (const ir::Variable &V : Prog->variables())
      if (V.Owner == Main && Prog->names().text(V.Name) == Var)
        for (ir::AllocId O : A.allocSites(Built.Graph->nodeOfVar(V.Id)))
          Out.emplace_back(Prog->names().text(Prog->alloc(O).Label));
    std::sort(Out.begin(), Out.end());
    return Out;
  }

  std::unique_ptr<ir::Program> Prog;
  pag::BuiltPAG Built;
};

using Names = std::vector<std::string>;

} // namespace

TEST(AndersenCallGraphTest, ReceiverFedOnlyByACallFoundMidSolve) {
  // s's objects come only from site 1, p's only from site 2: each level
  // is dispatched once the level above has been wired.  The rounds loop
  // stops after two rounds, one level short of the fixpoint.
  CallGraphCase C(R"(
class A {}
class Maker {}
class CircleMaker extends Maker {}
class SquareMaker extends Maker {}
class Shape {}
class Circle extends Shape {}
class Square extends Shape {}
class Red {}
class Blue {}
method CircleMaker.make(this : CircleMaker) { o = new Circle @oc  return o }
method SquareMaker.make(this : SquareMaker) { o = new Square @os  return o }
method Circle.paint(this : Circle) { c = new Red @ored  return c }
method Square.paint(this : Square) { c = new Blue @oblue  return c }
method Red.mix(this : Red) { r = new A @ora  return r }
method Blue.mix(this : Blue) { r = new A @oba  return r }
method main() {
  m = new CircleMaker @om
  var m : Maker
  s = vcall @1 m.make()
  var s : Shape
  p = vcall @2 s.paint()
  r = vcall @3 p.mix()
}
)");
  EXPECT_EQ(C.targets(1), Names{"CircleMaker.make"});
  EXPECT_EQ(C.targets(2), Names{"Circle.paint"});
  EXPECT_EQ(C.targets(3), Names{"Red.mix"});
  EXPECT_EQ(C.pts("r"), Names{"ora"});
  EXPECT_TRUE(matchesLeastFixpoint(*C.Prog, C.Built));
  pag::BuiltPAG Rounds = roundsCallGraph(*C.Prog);
  EXPECT_EQ(C.targets(3, &Rounds), (Names{"Blue.mix", "Red.mix"}));
}

TEST(AndersenCallGraphTest, ReceiverMergedIntoACycleMidSolve) {
  // y -> ob.f -> x -> x2 -> y closes once ob reaches b, and y (declared
  // first) represents it, so x's call must move to y.  oc reaches the
  // cycle only after the merge, through oh.g.
  CallGraphCase C(R"(
class Box { fields f }
class Holder { fields g }
class Shape {}
class Circle extends Shape {}
class Square extends Shape {}
class Red {}
class Blue {}
method Circle.paint(this : Circle) { c = new Red @ored  return c }
method Square.paint(this : Square) { c = new Blue @oblue  return c }
method Red.mix(this : Red) { return this }
method Blue.mix(this : Blue) { return this }
method main() {
  y = x2
  b = new Box @ob
  b.f = y
  x = b.f
  x2 = x
  var x : Shape
  p = vcall @1 x.paint()
  r = vcall @2 p.mix()
  h = new Holder @oh
  c = new Circle @oc
  h.g = c
  w = h.g
  y = w
}
)");
  EXPECT_EQ(C.targets(1), Names{"Circle.paint"});
  EXPECT_EQ(C.targets(2), Names{"Red.mix"});
  EXPECT_EQ(C.pts("r"), Names{"ored"});
  EXPECT_TRUE(matchesLeastFixpoint(*C.Prog, C.Built));
  EXPECT_TRUE(sameSlots(*C.Built.Graph, *roundsCallGraph(*C.Prog).Graph));
}

TEST(AndersenCallGraphTest, ReceiverThatIsAlsoALoadAndStoreBase) {
  CallGraphCase C(R"(
class A {}
class Node { fields next }
class Leaf extends Node {}
method Node.get(this : Node) { n = this.next  return n }
method Leaf.get(this : Leaf) { o = new A @oa  return o }
method main() {
  x = new Node @on
  var x : Node
  y = new Leaf @ol
  x.next = y
  z = x.next
  r = vcall @1 x.get()
  t = vcall @2 z.get()
  u = vcall @3 r.get()
}
)");
  EXPECT_EQ(C.targets(1), Names{"Node.get"});
  EXPECT_EQ(C.targets(2), Names{"Leaf.get"});
  EXPECT_EQ(C.targets(3), Names{"Leaf.get"});
  EXPECT_EQ(C.pts("r"), Names{"ol"});
  EXPECT_EQ(C.pts("u"), Names{"oa"});
  EXPECT_TRUE(matchesLeastFixpoint(*C.Prog, C.Built));
  EXPECT_TRUE(sameSlots(*C.Built.Graph, *roundsCallGraph(*C.Prog).Graph));
}

TEST(AndersenCallGraphTest, ArgumentsAndParametersPairUpToTheShorter) {
  // Site 1 passes three arguments (x, u, v) to A.go (two parameters) and
  // B.go (one); site 2 passes one argument to A.go.
  CallGraphCase C(R"(
class A {}
class B {}
class C {}
method A.go(this : A, p) { return p }
method B.go(this : B) { q = new C @oq  return q }
method main() {
  a = new A @oa
  b = new B @ob
  u = new C @ou
  v = new C @ov
  x = a
  x = b
  r = vcall @1 x.go(u, v)
  s = vcall @2 a.go()
}
)");
  EXPECT_EQ(C.targets(1), (Names{"A.go", "B.go"}));
  EXPECT_EQ(C.targets(2), Names{"A.go"});
  auto Count = [&](uint32_t Label, pag::EdgeKind K) {
    std::vector<pag::Edge> Es = C.callEdges(Label);
    return std::count_if(Es.begin(), Es.end(),
                         [&](const pag::Edge &E) { return E.Kind == K; });
  };
  EXPECT_EQ(Count(1, pag::EdgeKind::Entry), 3);
  EXPECT_EQ(Count(1, pag::EdgeKind::Exit), 2);
  EXPECT_EQ(Count(2, pag::EdgeKind::Entry), 1);
  EXPECT_EQ(Count(2, pag::EdgeKind::Exit), 1);
  EXPECT_EQ(C.pts("r"), (Names{"oq", "ou"}));
  EXPECT_EQ(C.pts("s"), Names{"ou"});
  EXPECT_TRUE(matchesLeastFixpoint(*C.Prog, C.Built));
  EXPECT_TRUE(sameSlots(*C.Built.Graph, *roundsCallGraph(*C.Prog).Graph));
}

TEST(AndersenCallGraphTest, ReceiverHoldingOnlyNullDispatchesNothing) {
  // A call on null does not dispatch, so y stays empty and both calls
  // are dead under the analysis: each keeps its CHA targets.  Had null
  // dispatched Object.make, y would hold ob and site 2 reach B.go only.
  CallGraphCase C(R"(
class B {}
class D extends B {}
method Object.make(this) { o = new B @ob  return o }
method B.go(this : B) { return this }
method D.go(this : D) { return this }
method main() {
  x = null
  y = vcall @1 x.make()
  z = vcall @2 y.go()
}
)");
  EXPECT_EQ(C.targets(1), Names{"Object.make"});
  EXPECT_EQ(C.targets(2), (Names{"B.go", "D.go"}));
  EXPECT_TRUE(matchesLeastFixpoint(*C.Prog, C.Built));
}

TEST(AndersenCallGraphTest, RecursionOnlyThroughVirtualCallsIsContextFree) {
  // A.ping and A.pong call each other only through virtual calls, so
  // the graph the solve starts from has no recursion; the final graph
  // must mark the cycle's entry and exit edges context-free.
  CallGraphCase C(R"(
class A {}
class V {}
method A.ping(this : A, v) { w = vcall @1 this.pong(v)  return w }
method A.pong(this : A, v) { w = vcall @2 this.ping(v)  return v }
method main() {
  a = new A @oa
  v = new V @ov
  r = vcall @3 a.ping(v)
}
)");
  EXPECT_EQ(C.targets(1), Names{"A.pong"});
  EXPECT_EQ(C.targets(2), Names{"A.ping"});
  for (uint32_t Label : {1u, 2u}) {
    ASSERT_FALSE(C.callEdges(Label).empty());
    for (const pag::Edge &E : C.callEdges(Label))
      EXPECT_TRUE(E.ContextFree) << "call @" << Label;
  }
  ASSERT_FALSE(C.callEdges(3).empty());
  for (const pag::Edge &E : C.callEdges(3))
    EXPECT_FALSE(E.ContextFree);
  EXPECT_EQ(C.pts("r"), Names{"ov"});
  EXPECT_TRUE(matchesLeastFixpoint(*C.Prog, C.Built));
  EXPECT_TRUE(sameSlots(*C.Built.Graph, *roundsCallGraph(*C.Prog).Graph));
}

TEST(AndersenCallGraphTest, SelfFedReceiverIsDeadAndKeepsCHA) {
  // Only x's own call could give x an object, so under the least
  // fixpoint x stays empty, the call is dead and keeps both CHA targets.
  // The rounds loop kept Circle.next, which justified itself from CHA's
  // first round: 2 new + 1 entry + 1 exit edge against 2 + 2 + 2 here.
  CallGraphCase C(R"(
class Shape {}
class Circle extends Shape {}
class Square extends Shape {}
method Circle.next(this : Circle) { o = new Circle @oc1  return o }
method Square.next(this : Square) { o = new Circle @oc2  return o }
method main() {
  var x : Shape
  x = vcall @1 x.next()
}
)");
  EXPECT_EQ(C.targets(1), (Names{"Circle.next", "Square.next"}));
  EXPECT_EQ(C.Built.Graph->numEdges(), 6u);
  EXPECT_TRUE(matchesLeastFixpoint(*C.Prog, C.Built));
  pag::BuiltPAG Rounds = roundsCallGraph(*C.Prog);
  EXPECT_EQ(C.targets(1, &Rounds), Names{"Circle.next"});
  EXPECT_EQ(Rounds.Graph->numEdges(), 4u);
}

TEST(AndersenCallGraphTest, EachCallIsWiredOncePerTarget) {
  // kObjects objects of one class reach x.  Wiring x's call once per
  // object instead of once per (site, target) pair would redo its
  // kArgs argument copies kObjects times: 40M copy-edge probes, seconds
  // where the pipeline takes milliseconds.  Timed against the same
  // program with a one-argument call, so machine and build type cancel.
  constexpr unsigned kObjects = 20000, kArgs = 2000;
  auto Source = [&](unsigned Args) {
    std::string S = "class A {}\nmethod A.m(this : A";
    for (unsigned I = 1; I < Args; ++I)
      S += ", p" + std::to_string(I);
    S += ") { return this }\nmethod main() {\n  a = new A @oa\n";
    for (unsigned I = 0; I < kObjects; ++I)
      S += "  x = new A\n";
    S += "  r = vcall @1 x.m(";
    for (unsigned I = 1; I < Args; ++I)
      S += I > 1 ? ", a" : "a";
    return S + ")\n}\n";
  };
  auto BestMs = [](const std::string &Src) {
    ir::ParseResult R = ir::parseProgram(Src);
    EXPECT_TRUE(R.ok()) << R.Error;
    double Best = 1e300;
    for (int I = 0; I < 3; ++I) {
      auto T0 = std::chrono::steady_clock::now();
      pag::BuiltPAG Built = buildPAGWithAndersenCallGraph(*R.Prog);
      std::chrono::duration<double, std::milli> Ms =
          std::chrono::steady_clock::now() - T0;
      EXPECT_EQ(Built.Calls.targets(0).size(), 1u);
      Best = std::min(Best, Ms.count());
    }
    return Best;
  };
  double One = BestMs(Source(1)), Many = BestMs(Source(kArgs));
  EXPECT_LT(Many, 4 * One + 20) << One << " ms with one argument";
}

namespace {

/// (spec, generator seed, scale) of a generated program.
using GenParam = std::tuple<const char *, uint64_t, double>;

std::unique_ptr<ir::Program> generated(const GenParam &P) {
  workload::GenOptions GO;
  GO.Seed = std::get<1>(P);
  GO.Scale = std::get<2>(P);
  return workload::generateProgram(workload::specByName(std::get<0>(P)), GO);
}

std::string genName(const ::testing::TestParamInfo<GenParam> &Info) {
  std::string Name = std::get<0>(Info.param);
  Name.erase(std::remove(Name.begin(), Name.end(), '-'), Name.end());
  return Name + "_seed" + std::to_string(std::get<1>(Info.param)) +
         "_scale" + std::to_string(int(std::get<2>(Info.param) * 100 + 0.5)) +
         "pct";
}

class SameAsRoundsLoopTest : public ::testing::TestWithParam<GenParam> {};
class LeastFixpointTest : public ::testing::TestWithParam<GenParam> {};

} // namespace

TEST_P(SameAsRoundsLoopTest, FinalGraphIsSlotForSlotIdentical) {
  std::unique_ptr<ir::Program> Prog = generated(GetParam());
  pag::BuiltPAG Built = buildPAGWithAndersenCallGraph(*Prog);
  EXPECT_TRUE(sameSlots(*Built.Graph, *roundsCallGraph(*Prog).Graph));
}

TEST_P(LeastFixpointTest, EverySiteHasTheOracleTargets) {
  std::unique_ptr<ir::Program> Prog = generated(GetParam());
  pag::BuiltPAG Built = buildPAGWithAndersenCallGraph(*Prog);
  EXPECT_TRUE(matchesLeastFixpoint(*Prog, Built));
}

INSTANTIATE_TEST_SUITE_P(
    SpecsAndSeeds, SameAsRoundsLoopTest,
    ::testing::Combine(::testing::Values("soot-c", "javac"),
                       ::testing::Values(uint64_t(0), uint64_t(7)),
                       ::testing::Values(0.02)),
    genName);
// perfbench's batch-clients programs: the smoke run's and the timed one.
INSTANTIATE_TEST_SUITE_P(BatchClients, SameAsRoundsLoopTest,
                         ::testing::Values(GenParam{"soot-c", 0, 0.02},
                                           GenParam{"soot-c", 0, 0.1}),
                         genName);
INSTANTIATE_TEST_SUITE_P(
    SpecsAndSeeds, LeastFixpointTest,
    ::testing::Combine(::testing::Values("soot-c", "javac"),
                       ::testing::Values(uint64_t(0), uint64_t(7)),
                       ::testing::Values(0.02)),
    genName);
