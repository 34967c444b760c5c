//===----------------------------------------------------------------------===//
///
/// \file
/// Andersen solver implementation.
///
/// The solver works on an extended node space: every PAG variable node,
/// plus one node per (object, field) pair touched by a load or store.
/// Assign-like PAG edges (assign, assignglobal, entry, exit) become
/// static copy edges.  Loads and stores add dynamic copy edges as
/// objects reach base variables, the textbook worklist formulation.
///
/// The solver is a FIFO worklist templated over the points-to
/// container (HybridPtsSet by default, BitVector for the Dense A/B
/// baseline).
///
//===----------------------------------------------------------------------===//

#include "analysis/Andersen.h"

#include "support/Hashing.h"

#include <algorithm>
#include <cassert>
#include <deque>

using namespace dynsum;
using namespace dynsum::analysis;
using namespace dynsum::pag;

namespace {

/// One load or store site, keyed by its base variable.
struct Access {
  uint32_t Base;
  uint32_t Other; // load destination / store source
  ir::FieldId F;
};

/// Member iteration for the serial discovery loop.  The dense baseline
/// keeps the seed's alloc-universe probe scan; the hybrid set walks its
/// members directly — O(|set|) instead of O(universe), the sparse
/// representation's main win.  Collected into a scratch vector because
/// the caller creates field nodes (growing the set vector) mid-loop.
void collectMembers(const BitVector &S, size_t Universe,
                    std::vector<uint32_t> &Out) {
  for (size_t A = 0; A < Universe; ++A)
    if (S.test(A))
      Out.push_back(uint32_t(A));
}
void collectMembers(const HybridPtsSet &S, size_t,
                    std::vector<uint32_t> &Out) {
  S.forEach([&](uint32_t A) { Out.push_back(A); });
}

} // namespace

AndersenAnalysis::AndersenAnalysis(const PAG &G, PtsRep Rep)
    : Graph(G), NumAllocs(G.program().allocs().size()), Rep(Rep) {}

bool AndersenAnalysis::addCopy(uint32_t Src, uint32_t Dst) {
  if (!CopyEdges.insert(Src, Dst))
    return false;
  CopySucc[Src].push_back(Dst);
  return true;
}

void AndersenAnalysis::solve() {
  if (Solved)
    return;
  Solved = true;
  if (Rep == PtsRep::Dense)
    solveSerial(DensePts);
  else
    solveSerial(Pts);
}

template <class SetVec> void AndersenAnalysis::solveSerial(SetVec &P) {
  size_t NumVars = Graph.numNodes();
  P.assign(NumVars, typename SetVec::value_type(NumAllocs));
  CopySucc.assign(NumVars, {});
  CopyEdges.clear();

  std::vector<std::vector<Access>> LoadsAt(NumVars), StoresAt(NumVars);

  // FIFO worklist: the solver is a monotone fixpoint, so any order is
  // correct, but breadth-first propagation batches set-union work and
  // converges with ~3x fewer propagations than LIFO on the generated
  // workloads.  (This is a whole-program pre-analysis, not the query
  // hot path, so the deque's allocation pattern is acceptable.)
  std::deque<uint32_t> Worklist;
  BitVector InList(NumVars);
  std::vector<uint32_t> Members; // discovery scratch, reused per pop
  auto Enqueue = [&](uint32_t N) {
    if (N < NumVars) {
      if (!InList.set(N))
        return;
    }
    Worklist.push_back(N);
  };

  auto FieldNodeOf = [&](ir::AllocId A, ir::FieldId F) -> uint32_t {
    uint64_t Key = packPair(A, F);
    auto It = FieldNodes.find(Key);
    if (It != FieldNodes.end())
      return It->second;
    uint32_t Id = uint32_t(P.size());
    P.emplace_back(NumAllocs);
    CopySucc.emplace_back();
    FieldNodes.emplace(Key, Id);
    FieldNodeKeys.emplace_back(A, F);
    return Id;
  };

  // Seed the constraint system from the PAG's edge classes.
  for (EdgeId Id = 0; Id < Graph.numEdgeSlots(); ++Id) {
    if (!Graph.edgeAlive(Id))
      continue;
    const Edge &E = Graph.edge(Id);
    switch (E.Kind) {
    case EdgeKind::New:
      P[E.Dst].set(Graph.allocOf(E.Src));
      Enqueue(E.Dst);
      break;
    case EdgeKind::Assign:
    case EdgeKind::AssignGlobal:
    case EdgeKind::Entry:
    case EdgeKind::Exit:
      addCopy(E.Src, E.Dst);
      break;
    case EdgeKind::Load:
      // base --load(f)--> dst
      LoadsAt[E.Src].push_back(Access{E.Src, E.Dst, E.Aux});
      break;
    case EdgeKind::Store:
      // src --store(f)--> base
      StoresAt[E.Dst].push_back(Access{E.Dst, E.Src, E.Aux});
      break;
    }
  }

  // InList is sized for variable nodes only; field nodes always enqueue.
  while (!Worklist.empty()) {
    uint32_t N = Worklist.front();
    Worklist.pop_front();
    if (N < NumVars)
      InList.reset(N);
    ++Propagations;

    // Discover dynamic copies induced by field accesses on N's objects.
    if (N < NumVars && (!LoadsAt[N].empty() || !StoresAt[N].empty())) {
      Members.clear();
      collectMembers(P[N], NumAllocs, Members);
      for (uint32_t A : Members) {
        for (const Access &L : LoadsAt[N]) {
          uint32_t FN = FieldNodeOf(ir::AllocId(A), L.F);
          if (addCopy(FN, L.Other))
            Enqueue(FN);
        }
        for (const Access &S : StoresAt[N]) {
          uint32_t FN = FieldNodeOf(ir::AllocId(A), S.F);
          if (addCopy(S.Other, FN))
            Enqueue(S.Other);
        }
      }
    }

    // Propagate N's set over its copy successors.
    for (uint32_t Succ : CopySucc[N]) {
      if (P[Succ].size() != P[N].size())
        P[Succ].resize(NumAllocs); // defensive; sizes always match
      if (P[Succ].orInPlace(P[N]))
        Enqueue(Succ);
    }
  }
}

std::vector<ir::AllocId> AndersenAnalysis::allocSites(NodeId V) const {
  assert(Solved && "query before solve()");
  std::vector<ir::AllocId> Out;
  if (Rep == PtsRep::Dense) {
    for (size_t A = 0; A < NumAllocs; ++A)
      if (DensePts[V].test(A))
        Out.push_back(ir::AllocId(A));
  } else {
    Pts[V].forEach([&](uint32_t A) { Out.push_back(ir::AllocId(A)); });
  }
  return Out;
}

bool AndersenAnalysis::pointsTo(NodeId V, ir::AllocId A) const {
  assert(Solved && "query before solve()");
  return Rep == PtsRep::Dense ? DensePts[V].test(A) : Pts[V].test(A);
}

std::vector<ir::AllocId>
AndersenAnalysis::fieldAllocSites(ir::AllocId A, ir::FieldId F) const {
  assert(Solved && "query before solve()");
  auto It = FieldNodes.find(packPair(A, F));
  if (It == FieldNodes.end())
    return {};
  return allocSites(It->second);
}

std::vector<ir::MethodId>
AndersenTargetResolver::resolve(const ir::Program &P, ir::MethodId Caller,
                                const ir::Statement &S) const {
  assert(S.Kind == ir::StmtKind::Call && S.IsVirtual && "not a virtual call");
  std::vector<ir::MethodId> Targets;
  NodeId Recv = Graph.nodeOfVar(S.Base);
  for (ir::AllocId A : Andersen.allocSites(Recv)) {
    const ir::AllocSite &Site = P.alloc(A);
    if (Site.IsNull)
      continue; // calls on null do not dispatch
    ir::MethodId M = P.dispatch(Site.Type, S.VirtualName);
    if (M != ir::kNone &&
        std::find(Targets.begin(), Targets.end(), M) == Targets.end())
      Targets.push_back(M);
  }
  if (Targets.empty()) {
    // Receiver has no points-to info (dead code or library stubs); fall
    // back to CHA so the PAG stays sound.
    return TargetResolver::resolve(P, Caller, S);
  }
  std::sort(Targets.begin(), Targets.end());
  return Targets;
}

BuiltPAG dynsum::analysis::buildPAGWithAndersenCallGraph(const ir::Program &P,
                                                         unsigned Rounds) {
  BuiltPAG Built = buildPAG(P); // CHA first
  for (unsigned Round = 0; Round < Rounds; ++Round) {
    AndersenAnalysis Andersen(*Built.Graph);
    Andersen.solve();
    AndersenTargetResolver Resolver(Andersen, *Built.Graph);
    BuiltPAG Refined = buildPAG(P, &Resolver);
    bool Same = Refined.Graph->numEdges() == Built.Graph->numEdges();
    Built = std::move(Refined);
    if (Same)
      break; // call graph stabilized
  }
  return Built;
}
