//===----------------------------------------------------------------------===//
///
/// \file
/// Rule-level unit tests for DYNSUM: every transition of Algorithm 3
/// (PPTA) and Algorithm 4 (worklist) is exercised on a minimal program
/// crafted for exactly that rule, plus regression tests for the
/// field-tag discipline and budget/caching edge cases.
///
//===----------------------------------------------------------------------===//

#include "analysis/Andersen.h"
#include "analysis/DynSum.h"
#include "clients/Client.h"
#include "ir/Builder.h"
#include "ir/Parser.h"
#include "pag/PAGBuilder.h"
#include "support/Hashing.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

using namespace dynsum;
using namespace dynsum::analysis;

namespace {

/// Minimal harness: parse, build, query one variable by name.
struct Mini {
  explicit Mini(const char *Src) {
    ir::ParseResult R = ir::parseProgram(Src);
    EXPECT_TRUE(R.ok()) << R.Error;
    Prog = std::move(R.Prog);
    Built = pag::buildPAG(*Prog);
  }

  pag::NodeId node(const char *Var) const {
    for (const ir::Variable &V : Prog->variables())
      if (!V.IsGlobal && Prog->names().text(V.Name) == std::string_view(Var))
        return Built.Graph->nodeOfVar(V.Id);
    ADD_FAILURE() << "no variable " << Var;
    return 0;
  }

  ir::AllocId alloc(const char *Label) const {
    Symbol L = Prog->names().lookup(Label);
    for (const ir::AllocSite &A : Prog->allocs())
      if (A.Label == L)
        return A.Id;
    ADD_FAILURE() << "no alloc " << Label;
    return ir::kNone;
  }

  std::vector<ir::AllocId> query(const char *Var,
                                 uint64_t Budget = 75000) {
    AnalysisOptions Opts;
    Opts.BudgetPerQuery = Budget;
    DynSumAnalysis A(*Built.Graph, Opts);
    return A.query(node(Var)).allocSites();
  }

  std::unique_ptr<ir::Program> Prog;
  pag::BuiltPAG Built;
};

} // namespace

//===----------------------------------------------------------------------===//
// Algorithm 3, state S1
//===----------------------------------------------------------------------===//

TEST(PptaRuleTest, S1NewWithEmptyStackYieldsObject) {
  Mini M("class A {} method m() { x = new A @o1 }");
  EXPECT_EQ(M.query("x"), std::vector<ir::AllocId>{M.alloc("o1")});
}

TEST(PptaRuleTest, S1AssignWalksBackwards) {
  Mini M("class A {} method m() { x = new A @o1  y = x  z = y }");
  EXPECT_EQ(M.query("z"), std::vector<ir::AllocId>{M.alloc("o1")});
}

TEST(PptaRuleTest, S1LoadPushesAndStoreBarPops) {
  // z = b.f requires the store b.f = x: load-bar push f, alias at b
  // (trivially, b itself), store-bar pop f.
  Mini M(R"(
class A {}
class Box { fields f }
method m() {
  x = new A @o1
  b = new Box @ob
  b.f = x
  z = b.f
}
)");
  EXPECT_EQ(M.query("z"), std::vector<ir::AllocId>{M.alloc("o1")});
}

TEST(PptaRuleTest, S1DistinctFieldsDontConflate) {
  Mini M(R"(
class A {}
class Box { fields f, g }
method m() {
  x = new A @o1
  y = new A @o2
  b = new Box @ob
  b.f = x
  b.g = y
  zf = b.f
  zg = b.g
}
)");
  EXPECT_EQ(M.query("zf"), std::vector<ir::AllocId>{M.alloc("o1")});
  EXPECT_EQ(M.query("zg"), std::vector<ir::AllocId>{M.alloc("o2")});
}

//===----------------------------------------------------------------------===//
// Algorithm 3, state S2 (alias discovery)
//===----------------------------------------------------------------------===//

TEST(PptaRuleTest, S2AssignPropagatesAliasesForward) {
  // b2 = b1 aliases the boxes: a store through b1 is seen via b2.
  Mini M(R"(
class A {}
class Box { fields f }
method m() {
  x = new A @o1
  b1 = new Box @ob
  b2 = b1
  b1.f = x
  z = b2.f
}
)");
  EXPECT_EQ(M.query("z"), std::vector<ir::AllocId>{M.alloc("o1")});
}

TEST(PptaRuleTest, S2StorePushAndForwardLoadPop) {
  // The object x is stored into c.inner, c flows to d, and the load
  // d.inner retrieves it: a store(f) push popped by a forward load(f).
  Mini M(R"(
class A {}
class Cell { fields inner }
method m() {
  x = new A @o1
  c = new Cell @oc
  c.inner = x
  d = c
  z = d.inner
}
)");
  EXPECT_EQ(M.query("z"), std::vector<ir::AllocId>{M.alloc("o1")});
}

TEST(PptaRuleTest, TwoLevelFieldPath) {
  // z = outer.in.f: two pending loads resolved by two stores.
  Mini M(R"(
class A {}
class Inner { fields f }
class Outer { fields in }
method m() {
  x = new A @o1
  i = new Inner @oi
  o = new Outer @oo
  i.f = x
  o.in = i
  t = o.in
  z = t.f
}
)");
  EXPECT_EQ(M.query("z"), std::vector<ir::AllocId>{M.alloc("o1")});
}

TEST(PptaRuleTest, FieldTagRegression) {
  // Regression for the load-bar/store cross-match bug: v123 = v5.f2
  // where v5's object has no f2 store, and v123 itself is stored into a
  // shared container.  The untagged algorithm leaked the container's
  // other contents (o2) into pts(v123).
  Mini M(R"(
class A {}
class B {}
class Box { fields boxf }
class C0 { fields f2 }
method boxput(b : Box, p) {
  b.boxf = p
}
method m() {
  v5 = new C0 @oc0
  v123 = v5.f2
  other = new B @o2
  box = new Box @obox
  call @1 boxput(box, v123)
  call @2 boxput(box, other)
}
)");
  EXPECT_EQ(M.query("v123"), std::vector<ir::AllocId>{});
}

TEST(PptaRuleTest, StoreStoreBarDoesNotMatch) {
  // Two stores into the same field of the same box must not alias the
  // two stored values with each other.
  Mini M(R"(
class A {}
class B {}
class Box { fields f }
method m() {
  x = new A @o1
  y = new B @o2
  b = new Box @ob
  b.f = x
  b.f = y
  zx = b.f
}
)");
  // The load sees both stored values (the field is weakly updated)...
  std::vector<ir::AllocId> Z = M.query("zx");
  EXPECT_EQ(Z.size(), 2u);
  // ...but x itself still points to o1 only.
  EXPECT_EQ(M.query("x"), std::vector<ir::AllocId>{M.alloc("o1")});
}

//===----------------------------------------------------------------------===//
// Algorithm 4: context rules
//===----------------------------------------------------------------------===//

TEST(WorklistRuleTest, ExitPushThenEntryPopMatchesSite) {
  // Classic two-call-site identity: contexts must match exit to entry.
  Mini M(R"(
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
  EXPECT_EQ(M.query("x"), std::vector<ir::AllocId>{M.alloc("oa")});
  EXPECT_EQ(M.query("y"), std::vector<ir::AllocId>{M.alloc("ob")});
}

TEST(WorklistRuleTest, EmptyContextPopReachesAllCallers) {
  // Querying the formal parameter itself (empty initial context) must
  // see every caller's argument: the unbalanced-prefix rule.
  Mini M(R"(
class A {}
class B {}
method sink(p) { return p }
method m() {
  a = new A @oa
  b = new B @ob
  x = call @1 sink(a)
  y = call @2 sink(b)
}
)");
  std::vector<ir::AllocId> P = M.query("p");
  EXPECT_EQ(P.size(), 2u);
}

TEST(WorklistRuleTest, AssignGlobalClearsContext) {
  // A value routed through a global is visible to every reader
  // regardless of calling context.
  Mini M(R"(
class A {}
global g
method writer(v) { g = v }
method reader() {
  r = g
  return r
}
method m() {
  a = new A @oa
  call @1 writer(a)
  x = call @2 reader()
}
)");
  EXPECT_EQ(M.query("x"), std::vector<ir::AllocId>{M.alloc("oa")});
}

TEST(WorklistRuleTest, RecursiveEdgesAreContextFree) {
  Mini M(R"(
class A {}
method rec(p, n) {
  r = call @1 rec(p, n)
  return p
}
method m() {
  a = new A @oa
  x = call @2 rec(a, a)
}
)");
  std::vector<ir::AllocId> X = M.query("x");
  ASSERT_EQ(X.size(), 1u);
  EXPECT_EQ(X[0], M.alloc("oa"));
}

TEST(WorklistRuleTest, HeapContextsDistinguishAllocWrappers) {
  // A wrapper allocating per call: each caller gets its own abstract
  // (site, context) pair, though the site is shared.
  Mini M(R"(
class Box { fields f }
class A {}
class B {}
method wrap(v) {
  b = new Box @owrap
  b.f = v
  return b
}
method m() {
  a = new A @oa
  c = new B @oc
  w1 = call @1 wrap(a)
  w2 = call @2 wrap(c)
  x = w1.f
  y = w2.f
}
)");
  EXPECT_EQ(M.query("x"), std::vector<ir::AllocId>{M.alloc("oa")});
  EXPECT_EQ(M.query("y"), std::vector<ir::AllocId>{M.alloc("oc")});
}

TEST(WorklistRuleTest, ContextFreeEntryBucketIsScannedUnderAContext) {
  // rec and rec2 call each other, so rec's formal p has a ContextFree
  // entry edge (from rec2 at @4) next to the ordinary ones from m (@2,
  // @3).  Querying x reaches p under the context [@2]: the ContextFree
  // edge keeps that context and leads to rec's own allocation, the @2
  // edge pops it, and the @3 edge must not be taken.
  Mini M(R"(
class A {}
class B {}
class C {}
method rec(p) {
  c = new C @oc
  r = call @1 rec2(c)
  return p
}
method rec2(q) {
  s = call @4 rec(q)
  return s
}
method m() {
  a = new A @oa
  b = new B @ob
  x = call @2 rec(a)
  y = call @3 rec(b)
}
)");
  const pag::PAG &G = *M.Built.Graph;
  pag::NodeId P = M.node("p");
  bool SawContextFree = false, SawOrdinary = false;
  for (pag::EdgeId E : G.inEdgesOfKind(P, pag::EdgeKind::Entry))
    (G.edge(E).ContextFree ? SawContextFree : SawOrdinary) = true;
  ASSERT_TRUE(SawContextFree);
  ASSERT_TRUE(SawOrdinary);
  EXPECT_TRUE(G.node(P).ContextFreeEntryIn);

  std::vector<ir::AllocId> X = {M.alloc("oa"), M.alloc("oc")};
  std::vector<ir::AllocId> Y = {M.alloc("ob"), M.alloc("oc")};
  std::sort(X.begin(), X.end());
  std::sort(Y.begin(), Y.end());
  EXPECT_EQ(M.query("x"), X);
  EXPECT_EQ(M.query("y"), Y);
}

//===----------------------------------------------------------------------===//
// Cache mechanics
//===----------------------------------------------------------------------===//

TEST(DynSumCacheTest, TrivialSummariesAreNotCounted) {
  // A pure parameter-passing chain has no local edges at the formals;
  // the Section 4.3 shortcut must not inflate the summary count.
  Mini M(R"(
class A {}
method pass1(p) { return p }
method m() {
  a = new A @oa
  x = call @1 pass1(a)
}
)");
  AnalysisOptions Opts;
  DynSumAnalysis A(*M.Built.Graph, Opts);
  (void)A.query(M.node("x"));
  // x and a have local edges (new/assign-free? x has exit in-edge only;
  // a has a new edge), p/ret are pure boundary nodes.
  for (size_t I = 0; I < 3; ++I)
    (void)A.query(M.node("x"));
  EXPECT_LE(A.cacheSize(), 4u);
}

TEST(DynSumCacheTest, IncompleteSummariesAreNeverCached) {
  Mini M(R"(
class A {}
class Box { fields f }
method m() {
  x = new A @o1
  b = new Box @ob
  b.f = x
  z = b.f
}
)");
  AnalysisOptions Opts;
  Opts.BudgetPerQuery = 2; // cannot finish any PPTA
  DynSumAnalysis A(*M.Built.Graph, Opts);
  QueryResult R = A.query(M.node("z"));
  EXPECT_TRUE(R.BudgetExceeded);
  EXPECT_EQ(A.cacheSize(), 0u);
  // A later well-budgeted analysis instance is unaffected by design;
  // the same instance must also recover once budget allows.
  AnalysisOptions Good;
  DynSumAnalysis A2(*M.Built.Graph, Good);
  EXPECT_EQ(A2.query(M.node("z")).allocSites(),
            std::vector<ir::AllocId>{M.alloc("o1")});
}

TEST(DynSumCacheTest, InvalidateUnknownMethodIsNoOp) {
  Mini M("class A {} method m() { x = new A @o1 }");
  AnalysisOptions Opts;
  DynSumAnalysis A(*M.Built.Graph, Opts);
  (void)A.query(M.node("x"));
  size_t Before = A.cacheSize();
  A.invalidateMethod(12345); // not a real method
  EXPECT_EQ(A.cacheSize(), Before);
}

TEST(DynSumCacheTest, SummaryKeyPackingRoundTrips) {
  StackPool Pool;
  StackId S = Pool.push(StackPool::empty(), 42);
  uint64_t K1 = packSummaryKey(7, S, RsmState::S1);
  uint64_t K2 = packSummaryKey(7, S, RsmState::S2);
  uint64_t K3 = packSummaryKey(8, S, RsmState::S1);
  uint64_t K4 = packSummaryKey(7, StackPool::empty(), RsmState::S1);
  EXPECT_NE(K1, K2);
  EXPECT_NE(K1, K3);
  EXPECT_NE(K1, K4);
  EXPECT_EQ((K1 >> 1) & 0xffffffffu, 7u);
}

TEST(DynSumCacheTest, FieldTagEncodingRoundTrips) {
  for (ir::FieldId F : {0u, 1u, 17u, 4095u}) {
    EXPECT_EQ(decodeField(encodeLoadBarField(F)), F);
    EXPECT_EQ(decodeField(encodeStoreField(F)), F);
    EXPECT_NE(encodeLoadBarField(F), encodeStoreField(F));
  }
}

//===----------------------------------------------------------------------===//
// Exactness pins: the worklist's observable output on generated programs
//===----------------------------------------------------------------------===//

namespace {

/// Digest of the paper clients' query streams on one DynSumAnalysis
/// over the Andersen-call-graph PAG of \p Spec (scale 0.1, generator
/// seed 0): every result's steps, budget verdict, status and canonical
/// targets, context ids included.  Any change to which edges the
/// worklist crosses, in which order, moves it.  The pinned values were
/// captured from the per-edge scan of every Entry/Exit bucket, before
/// the call-site lookup existed; a full pack of these programs leaves
/// every call bucket in site order already, so keeping the buckets in
/// that order moved nothing either.
struct StreamDigest {
  uint64_t Hash = 0;
  uint64_t Queries = 0;
  uint64_t OverBudget = 0;
};

StreamDigest digestClientStreams(const char *Spec) {
  workload::GenOptions GO;
  GO.Scale = 0.1;
  GO.Seed = 0;
  auto Prog = workload::generateProgram(workload::specByName(Spec), GO);
  pag::BuiltPAG Built = buildPAGWithAndersenCallGraph(*Prog);
  DynSumAnalysis A(*Built.Graph, AnalysisOptions());
  StreamDigest D;
  for (const auto &C : clients::makePaperClients()) {
    for (const clients::ClientQuery &Q : C->makeQueries(*Built.Graph, 0)) {
      QueryResult R = A.query(Q.Node);
      D.Hash = hashCombine(D.Hash, R.Steps);
      D.Hash = hashCombine(D.Hash, R.BudgetExceeded);
      D.Hash = hashCombine(D.Hash, uint64_t(R.Status));
      D.Hash = hashCombine(D.Hash, R.Targets.size());
      for (const PtsTarget &T : R.Targets)
        D.Hash = hashCombine(D.Hash, packPair(T.Alloc, T.Context.Id));
      ++D.Queries;
      D.OverBudget += R.BudgetExceeded;
    }
  }
  return D;
}

} // namespace

TEST(DynSumExactnessTest, SootCClientStreamsArePinned) {
  StreamDigest D = digestClientStreams("soot-c");
  EXPECT_EQ(D.Queries, 2217u);
  EXPECT_EQ(D.OverBudget, 1u);
  EXPECT_EQ(D.Hash, 0x67ffe29df5c5fd4bull);
}

TEST(DynSumExactnessTest, JythonClientStreamsArePinned) {
  StreamDigest D = digestClientStreams("jython");
  EXPECT_EQ(D.Queries, 1874u);
  EXPECT_EQ(D.OverBudget, 9u);
  EXPECT_EQ(D.Hash, 0x92c8cd39e25f3a49ull);
}
