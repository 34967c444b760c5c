//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the exhaustive Andersen solver.  Beyond hand-checked
/// answers, every cycle fixture and a set of generated programs must
/// reach exactly the fixpoint of ReferenceAndersen, a naive round-robin
/// solver with no cycle handling.
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
#include <string>
#include <tuple>

using namespace dynsum;
using namespace dynsum::analysis;
using dynsum::testing::ReferenceAndersen;
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
