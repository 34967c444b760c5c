//===----------------------------------------------------------------------===//
///
/// \file
/// Shared fuzzing + isomorphism-check helpers for the delta-build and
/// parallel-commit differential oracles.
///
/// IrEditFuzzer drives deterministic IR-level mutations (allocations,
/// assigns, loads/stores, direct calls, statement removals, fresh
/// locals and whole new methods) over a well-typed program, keeping it
/// validator-clean; the checkers assert that an incrementally evolved
/// PAG is isomorphic to a cold scratch build — node flags per IR
/// entity, each variable's call buckets in order, live edge multiset
/// under canonical node naming, and the CSR structural invariants (call
/// buckets in site order included) that must hold through holes and
/// slot reuse.
///
/// Used by tests/delta_build_test.cpp (serial delta vs scratch) and
/// tests/parallel_commit_test.cpp (sharded delta + async service
/// commits vs scratch at several worker counts).
///
//===----------------------------------------------------------------------===//

#ifndef DYNSUM_TESTS_IREDITFUZZER_H
#define DYNSUM_TESTS_IREDITFUZZER_H

#include "ir/Program.h"
#include "pag/PAG.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

namespace dynsum {
namespace testing {

//===----------------------------------------------------------------------===//
// Deterministic IR-level edit fuzzer
//===----------------------------------------------------------------------===//

class IrEditFuzzer {
public:
  explicit IrEditFuzzer(uint64_t Seed)
      : State(Seed * 0x9e3779b97f4a7c15ull + 1) {}

  /// Applies \p Count random (but deterministic) edits to \p P, keeping
  /// it validator-clean.  Touch tracking rides on the program itself.
  void apply(ir::Program &P, unsigned Count) {
    for (unsigned I = 0; I < Count; ++I) {
      ir::MethodId M = pick(unsigned(P.methods().size()));
      switch (pick(8)) {
      case 0:
      case 1:
        addAlloc(P, M);
        break;
      case 2:
        addAssign(P, M);
        break;
      case 3:
        addLoad(P, M);
        break;
      case 4:
        addStore(P, M);
        break;
      case 5:
        addCall(P, M);
        break;
      case 6:
        removeStatement(P, M);
        break;
      case 7:
        if (pick(4) == 0)
          addMethod(P); // rarer: hierarchy/structure growth
        else
          addAlloc(P, M);
        break;
      }
    }
  }

private:
  uint64_t next() {
    State += 0x9e3779b97f4a7c15ull;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  unsigned pick(unsigned Bound) { return unsigned(next() % Bound); }

  std::vector<ir::VarId> localsOf(const ir::Program &P, ir::MethodId M) {
    std::vector<ir::VarId> Out;
    for (const ir::Variable &V : P.variables())
      if (!V.IsGlobal && V.Owner == M)
        Out.push_back(V.Id);
    return Out;
  }

  ir::VarId someLocal(ir::Program &P, ir::MethodId M) {
    std::vector<ir::VarId> Locals = localsOf(P, M);
    if (!Locals.empty() && pick(3) != 0)
      return Locals[pick(unsigned(Locals.size()))];
    return P.createLocal(P.name("fz" + std::to_string(NextLocal++)), M,
                         ir::kObjectType);
  }

  ir::FieldId someField(ir::Program &P) {
    if (!P.fields().empty() && pick(4) != 0)
      return P.fields()[pick(unsigned(P.fields().size()))].Id;
    return P.getOrCreateField(
        P.name("fzf" + std::to_string(NextField++)));
  }

  void addAlloc(ir::Program &P, ir::MethodId M) {
    ir::Statement S;
    S.Kind = ir::StmtKind::Alloc;
    S.Dst = someLocal(P, M);
    S.Type = ir::TypeId(pick(unsigned(P.classes().size())));
    S.Alloc = P.createAllocSite(S.Type, M, Symbol{});
    P.addStatement(M, std::move(S));
  }

  void addAssign(ir::Program &P, ir::MethodId M) {
    ir::Statement S;
    S.Kind = ir::StmtKind::Assign;
    S.Src = someLocal(P, M);
    S.Dst = someLocal(P, M);
    P.addStatement(M, std::move(S));
  }

  void addLoad(ir::Program &P, ir::MethodId M) {
    ir::Statement S;
    S.Kind = ir::StmtKind::Load;
    S.Base = someLocal(P, M);
    S.Dst = someLocal(P, M);
    S.FieldLabel = someField(P);
    P.addStatement(M, std::move(S));
  }

  void addStore(ir::Program &P, ir::MethodId M) {
    ir::Statement S;
    S.Kind = ir::StmtKind::Store;
    S.Base = someLocal(P, M);
    S.Src = someLocal(P, M);
    S.FieldLabel = someField(P);
    P.addStatement(M, std::move(S));
  }

  void addCall(ir::Program &P, ir::MethodId M) {
    // Direct call to an arbitrary method with arity-correct arguments;
    // randomly hitting an uncalled method exercises the boundary-flag
    // flip, a self or mutual call exercises recursion collapsing.
    ir::MethodId Callee = ir::MethodId(pick(unsigned(P.methods().size())));
    ir::Statement S;
    S.Kind = ir::StmtKind::Call;
    S.Callee = Callee;
    S.Call = P.createCallSite(M, ir::kNone);
    for (size_t A = 0; A < P.method(Callee).Params.size(); ++A)
      S.Args.push_back(someLocal(P, M));
    if (pick(2) == 0)
      S.Dst = someLocal(P, M);
    P.addStatement(M, std::move(S));
  }

  void removeStatement(ir::Program &P, ir::MethodId M) {
    size_t Size = P.method(M).Stmts.size();
    if (Size == 0)
      return;
    // Removing a Return changes the method's boundary interface and
    // must ripple to its callers' exit edges — keep those in the pool.
    // Routed through Program::removeStatements so the edit clock stamp
    // comes from the program itself, like addStatement.
    size_t Victim = pick(unsigned(Size));
    size_t Index = 0;
    P.removeStatements(
        M, [&Index, Victim](const ir::Statement &) {
          return Index++ == Victim;
        });
  }

  void addMethod(ir::Program &P) {
    ir::MethodId M = P.createMethod(
        P.name("fzm" + std::to_string(NextMethod++)), ir::kNone);
    ir::VarId Param = P.createLocal(P.name("p"), M, ir::kObjectType);
    P.method(M).Params.push_back(Param);
    addAlloc(P, M);
    ir::Statement Ret;
    Ret.Kind = ir::StmtKind::Return;
    Ret.Src = someLocal(P, M);
    P.addStatement(M, std::move(Ret));
  }

  uint64_t State;
  unsigned NextLocal = 0;
  unsigned NextField = 0;
  unsigned NextMethod = 0;
};

//===----------------------------------------------------------------------===//
// Isomorphism checks
//===----------------------------------------------------------------------===//

/// Canonical node name independent of numbering: variables by VarId,
/// objects by numVars + AllocId.
inline uint64_t canonicalNode(const pag::PAG &G, pag::NodeId N) {
  const pag::Node &Node = G.node(N);
  if (Node.Kind == pag::NodeKind::Object)
    return uint64_t(G.program().variables().size()) + Node.IrId;
  return Node.IrId;
}

using EdgeKey = std::tuple<uint64_t, uint64_t, unsigned, uint32_t, bool>;

/// The live edge multiset under canonical naming, sorted.
inline std::vector<EdgeKey> liveEdgeKeys(const pag::PAG &G) {
  std::vector<EdgeKey> Keys;
  Keys.reserve(G.numEdges());
  for (pag::EdgeId E = 0; E < G.numEdgeSlots(); ++E) {
    if (!G.edgeAlive(E))
      continue;
    const pag::Edge &Ed = G.edge(E);
    Keys.emplace_back(canonicalNode(G, Ed.Src), canonicalNode(G, Ed.Dst),
                      unsigned(Ed.Kind), Ed.Aux, Ed.ContextFree);
  }
  std::sort(Keys.begin(), Keys.end());
  return Keys;
}

/// Each node's Entry in-bucket and Exit out-bucket is in call-site
/// order; each per-site lookup returns that site's run of the bucket;
/// and the ContextFree flags match the buckets.
inline void checkCallBuckets(const pag::PAG &G) {
  for (pag::NodeId N = 0; N < G.numNodes(); ++N) {
    for (bool In : {true, false}) {
      pag::EdgeKind K = In ? pag::EdgeKind::Entry : pag::EdgeKind::Exit;
      pag::EdgeSpan Bucket =
          In ? G.inEdgesOfKind(N, K) : G.outEdgesOfKind(N, K);
      bool ContextFree = false;
      for (pag::EdgeId E : Bucket)
        ContextFree |= G.edge(E).ContextFree;
      for (size_t I = 1; I < Bucket.size(); ++I)
        ASSERT_LE(G.edge(Bucket[I - 1]).Aux, G.edge(Bucket[I]).Aux)
            << "node " << N << ", bucket slot " << I;
      for (size_t I = 0; I < Bucket.size();) {
        size_t End = I;
        while (End < Bucket.size() &&
               G.edge(Bucket[End]).Aux == G.edge(Bucket[I]).Aux)
          ++End;
        pag::EdgeSpan At = G.callEdgesAtSite(N, K, G.edge(Bucket[I]).Aux);
        ASSERT_EQ(At.begin(), Bucket.begin() + I) << "node " << N;
        ASSERT_EQ(At.end(), Bucket.begin() + End) << "node " << N;
        I = End;
      }
      EXPECT_TRUE(G.callEdgesAtSite(N, K, ir::kNone).empty());
      EXPECT_EQ(In ? G.node(N).ContextFreeEntryIn
                   : G.node(N).ContextFreeExitOut,
                ContextFree)
          << "node " << N;
    }
  }
}

/// Structural CSR invariants on \p G — valid for dense and hole-y
/// (delta-repacked) layouts alike.
inline void checkCsrInvariants(const pag::PAG &G) {
  std::vector<unsigned> InSeen(G.numEdgeSlots(), 0),
      OutSeen(G.numEdgeSlots(), 0);
  for (pag::NodeId N = 0; N < G.numNodes(); ++N) {
    size_t InTotal = 0, OutTotal = 0;
    for (unsigned K = 0; K < pag::kNumEdgeKinds; ++K) {
      pag::EdgeKind Kind = pag::EdgeKind(K);
      for (pag::EdgeId E : G.inEdgesOfKind(N, Kind)) {
        ASSERT_TRUE(G.edgeAlive(E));
        EXPECT_EQ(G.edge(E).Kind, Kind);
        EXPECT_EQ(G.edge(E).Dst, N);
        ++InSeen[E];
        ++InTotal;
      }
      for (pag::EdgeId E : G.outEdgesOfKind(N, Kind)) {
        ASSERT_TRUE(G.edgeAlive(E));
        EXPECT_EQ(G.edge(E).Kind, Kind);
        EXPECT_EQ(G.edge(E).Src, N);
        ++OutSeen[E];
        ++OutTotal;
      }
    }
    EXPECT_EQ(InTotal, G.inEdges(N).size()) << "node " << N;
    EXPECT_EQ(OutTotal, G.outEdges(N).size()) << "node " << N;
  }
  size_t InLive = 0, OutLive = 0;
  for (pag::EdgeId E = 0; E < G.numEdgeSlots(); ++E) {
    if (!G.edgeAlive(E)) {
      EXPECT_EQ(InSeen[E], 0u) << "dead slot in CSR, edge " << E;
      EXPECT_EQ(OutSeen[E], 0u) << "dead slot in CSR, edge " << E;
      continue;
    }
    EXPECT_EQ(InSeen[E], 1u) << "edge " << E;
    EXPECT_EQ(OutSeen[E], 1u) << "edge " << E;
    InLive += InSeen[E];
    OutLive += OutSeen[E];
  }
  EXPECT_EQ(InLive, G.numEdges());
  EXPECT_EQ(OutLive, G.numEdges());

  // Field CSR holds exactly the labelled accesses.
  std::vector<size_t> Stores(G.program().fields().size(), 0);
  std::vector<size_t> Loads(G.program().fields().size(), 0);
  for (pag::EdgeId E = 0; E < G.numEdgeSlots(); ++E) {
    if (!G.edgeAlive(E))
      continue;
    if (G.edge(E).Kind == pag::EdgeKind::Store)
      ++Stores[G.edge(E).Aux];
    else if (G.edge(E).Kind == pag::EdgeKind::Load)
      ++Loads[G.edge(E).Aux];
  }
  for (ir::FieldId F = 0; F < G.program().fields().size(); ++F) {
    EXPECT_EQ(G.storesOfField(F).size(), Stores[F]) << "field " << F;
    EXPECT_EQ(G.loadsOfField(F).size(), Loads[F]) << "field " << F;
    for (pag::EdgeId E : G.storesOfField(F)) {
      ASSERT_TRUE(G.edgeAlive(E));
      EXPECT_EQ(G.edge(E).Kind, pag::EdgeKind::Store);
      EXPECT_EQ(G.edge(E).Aux, F);
    }
    for (pag::EdgeId E : G.loadsOfField(F)) {
      ASSERT_TRUE(G.edgeAlive(E));
      EXPECT_EQ(G.edge(E).Kind, pag::EdgeKind::Load);
      EXPECT_EQ(G.edge(E).Aux, F);
    }
  }

  checkCallBuckets(G);
}

/// \p N's Entry in-bucket (\p In) or Exit out-bucket as (call site,
/// canonical far endpoint) pairs, in bucket order.
inline std::vector<std::pair<uint32_t, uint64_t>>
callBucketKeys(const pag::PAG &G, pag::NodeId N, bool In) {
  std::vector<std::pair<uint32_t, uint64_t>> Keys;
  pag::EdgeSpan Bucket = In ? G.inEdgesOfKind(N, pag::EdgeKind::Entry)
                            : G.outEdgesOfKind(N, pag::EdgeKind::Exit);
  for (pag::EdgeId E : Bucket) {
    const pag::Edge &Ed = G.edge(E);
    Keys.emplace_back(Ed.Aux, canonicalNode(G, In ? Ed.Src : Ed.Dst));
  }
  return Keys;
}

/// Full isomorphism of the incrementally evolved \p Delta against a
/// cold \p Cold of the same program: flags per IR entity, each
/// variable's call buckets in order, live edge multiset under canonical
/// node naming.
inline void checkIsomorphic(const pag::PAG &Delta, const pag::PAG &Cold) {
  const ir::Program &P = Delta.program();
  ASSERT_EQ(Delta.numNodes(), Cold.numNodes());
  ASSERT_EQ(Delta.numEdges(), Cold.numEdges());
  for (const ir::Variable &V : P.variables()) {
    const pag::Node &D = Delta.node(Delta.nodeOfVar(V.Id));
    const pag::Node &C = Cold.node(Cold.nodeOfVar(V.Id));
    EXPECT_EQ(D.Kind, C.Kind) << P.describeVar(V.Id);
    EXPECT_EQ(D.Method, C.Method) << P.describeVar(V.Id);
    EXPECT_EQ(D.HasLocalEdge, C.HasLocalEdge) << P.describeVar(V.Id);
    EXPECT_EQ(D.HasGlobalIn, C.HasGlobalIn) << P.describeVar(V.Id);
    EXPECT_EQ(D.HasGlobalOut, C.HasGlobalOut) << P.describeVar(V.Id);
    EXPECT_EQ(D.ContextFreeEntryIn, C.ContextFreeEntryIn)
        << P.describeVar(V.Id);
    EXPECT_EQ(D.ContextFreeExitOut, C.ContextFreeExitOut)
        << P.describeVar(V.Id);
    for (bool In : {true, false})
      EXPECT_EQ(callBucketKeys(Delta, Delta.nodeOfVar(V.Id), In),
                callBucketKeys(Cold, Cold.nodeOfVar(V.Id), In))
          << (In ? "entry in-bucket of " : "exit out-bucket of ")
          << P.describeVar(V.Id);
  }
  for (const ir::AllocSite &A : P.allocs()) {
    const pag::Node &D = Delta.node(Delta.nodeOfAlloc(A.Id));
    const pag::Node &C = Cold.node(Cold.nodeOfAlloc(A.Id));
    EXPECT_EQ(D.HasLocalEdge, C.HasLocalEdge) << P.describeAlloc(A.Id);
    EXPECT_EQ(D.HasGlobalIn, C.HasGlobalIn) << P.describeAlloc(A.Id);
    EXPECT_EQ(D.HasGlobalOut, C.HasGlobalOut) << P.describeAlloc(A.Id);
  }
  EXPECT_EQ(liveEdgeKeys(Delta), liveEdgeKeys(Cold));
}

/// Every \p Stride-th non-global variable, in id order.
inline std::vector<ir::VarId> sampleVars(const ir::Program &P,
                                         size_t Stride) {
  std::vector<ir::VarId> Out;
  for (const ir::Variable &V : P.variables())
    if (!V.IsGlobal && V.Id % Stride == 0)
      Out.push_back(V.Id);
  return Out;
}

} // namespace testing
} // namespace dynsum

#endif // DYNSUM_TESTS_IREDITFUZZER_H
