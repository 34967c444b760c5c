//===----------------------------------------------------------------------===//
///
/// \file
/// Andersen solver implementation.
///
/// The solver works on an extended node space: every PAG variable node,
/// plus one node per (object, field) pair touched by a load or store.
/// Assign-like PAG edges (assign, assignglobal, entry, exit) become
/// static copy edges.  Loads and stores add dynamic copy edges as
/// objects reach base variables.  When the solve builds the call graph
/// (buildPAGWithAndersenCallGraph), virtual calls do too: each non-null
/// object reaching a receiver dispatches the call, and a new (site,
/// target) pair adds the parameter and return copies that lowering the
/// call would have produced.
///
/// The solver is wave propagation (Pereira & Berlin, CGO 2009) over
/// HybridPtsSet points-to sets.  Each sweep collapses every
/// copy-graph cycle a dirty node reaches into one representative, then
/// visits the dirty representatives once each in topological order:
/// field and call discovery over the objects new at a load/store base
/// or receiver, then the node's whole set OR'd into each successor.
/// Sweeps repeat until one leaves nothing dirty.
///
//===----------------------------------------------------------------------===//

#include "analysis/Andersen.h"

#include "support/FlatSet.h"
#include "support/Hashing.h"

#include <algorithm>
#include <cassert>
#include <numeric>

using namespace dynsum;
using namespace dynsum::analysis;
using namespace dynsum::pag;

namespace {

constexpr uint32_t kNone32 = ~uint32_t(0);

/// One load or store site, filed under its base variable.
struct Access {
  uint32_t Other; // load destination / store source
  ir::FieldId F;
};

/// Appends to \p Out the members of \p S not yet in \p Seen, adding them
/// to \p Seen: only the new members are walked, in the union's own
/// loop.  Collected into a scratch vector because the caller creates
/// field nodes (growing the set vector) while it consumes them.
void takeNew(const HybridPtsSet &S, HybridPtsSet &Seen,
             std::vector<uint32_t> &Out) {
  Seen.orInPlace(S, [&](uint32_t A) { Out.push_back(A); });
}

} // namespace

AndersenAnalysis::AndersenAnalysis(const PAG &G)
    : Graph(G), NumAllocs(G.program().allocs().size()) {}

void AndersenAnalysis::solve() {
  if (Solved)
    return;
  Solved = true;
  solveSerial();
}

void AndersenAnalysis::solveSerial() {
  const uint32_t NumVars = uint32_t(Graph.numNodes());
  Pts.assign(NumVars, HybridPtsSet(NumAllocs));
  RepOf.resize(NumVars);
  std::iota(RepOf.begin(), RepOf.end(), 0u);

  // Everything below is scratch, freed when the solve returns.  Lists
  // indexed by node are only meaningful at representatives; successor
  // entries may name merged nodes until the next visit rewrites them.
  std::vector<std::vector<uint32_t>> Succ(NumVars);
  FlatPairSet Edges; // every copy edge ever added, in original node ids
  std::vector<uint8_t> Dirty(NumVars, 0);
  std::vector<std::vector<Access>> LoadsAt(NumVars), StoresAt(NumVars);
  // Virtual calls by receiver, each method's returned variables, and the
  // (call site, target) pairs already wired; filled only when the solve
  // discovers calls.
  const ir::Program &Prog = Graph.program();
  std::vector<std::vector<const ir::Statement *>> CallsAt(NumVars);
  std::vector<std::vector<ir::VarId>> ReturnsOf(Prog.methods().size());
  FlatPairSet Wired;
  // Objects each load/store base or receiver has already run discovery
  // for.  Only those get a set: one per variable would cost a set header
  // each.
  std::vector<uint32_t> SeenOf(NumVars, kNone32);
  std::vector<HybridPtsSet> Seen;

  auto Find = [&](uint32_t N) {
    while (RepOf[N] != N) {
      RepOf[N] = RepOf[RepOf[N]]; // path halving
      N = RepOf[N];
    }
    return N;
  };

  auto FieldNodeOf = [&](ir::AllocId A, ir::FieldId F) -> uint32_t {
    auto [It, New] =
        FieldNodes.try_emplace(packPair(A, F), uint32_t(Pts.size()));
    if (New) {
      Pts.emplace_back(NumAllocs);
      Succ.emplace_back();
      RepOf.push_back(It->second);
      Dirty.push_back(0);
    }
    return It->second;
  };

  // Adds copy edge Src -> Dst.  A new edge dirties its source so the
  // source's whole set crosses it, unless the source is the node being
  // visited, whose propagation still walks its successor list.
  auto Connect = [&](uint32_t Src, uint32_t Dst, uint32_t Visiting) {
    if (!Edges.insert(Src, Dst))
      return;
    uint32_t S = Find(Src), D = Find(Dst);
    if (S == D)
      return;
    Succ[S].push_back(D);
    if (S != Visiting)
      Dirty[S] = 1;
  };

  // Seed the constraint system from the PAG's edge classes.
  for (EdgeId Id = 0; Id < Graph.numEdgeSlots(); ++Id) {
    if (!Graph.edgeAlive(Id))
      continue;
    const Edge &E = Graph.edge(Id);
    switch (E.Kind) {
    case EdgeKind::New:
      Pts[E.Dst].set(Graph.allocOf(E.Src));
      Dirty[E.Dst] = 1;
      break;
    case EdgeKind::Assign:
    case EdgeKind::AssignGlobal:
    case EdgeKind::Entry:
    case EdgeKind::Exit:
      if (E.Src != E.Dst && Edges.insert(E.Src, E.Dst))
        Succ[E.Src].push_back(E.Dst);
      break;
    case EdgeKind::Load:
      // base --load(f)--> dst
      LoadsAt[E.Src].push_back(Access{E.Dst, E.Aux});
      break;
    case EdgeKind::Store:
      // src --store(f)--> base
      StoresAt[E.Dst].push_back(Access{E.Src, E.Aux});
      break;
    }
  }
  if (DiscoverCalls) {
    for (const ir::Method &M : Prog.methods())
      for (const ir::Statement &S : M.Stmts) {
        if (S.Kind == ir::StmtKind::Call && S.IsVirtual)
          CallsAt[Graph.nodeOfVar(S.Base)].push_back(&S);
        else if (S.Kind == ir::StmtKind::Return)
          ReturnsOf[M.Id].push_back(S.Src);
      }
  }
  for (uint32_t V = 0; V < NumVars; ++V)
    if (!LoadsAt[V].empty() || !StoresAt[V].empty() || !CallsAt[V].empty()) {
      SeenOf[V] = uint32_t(Seen.size());
      Seen.emplace_back(NumAllocs);
    }

  // Merges the SCC Members into its smallest id R.  Variables are
  // numbered before field nodes, so a cycle through a variable keeps a
  // variable representative and the access lists stay variable-indexed.
  std::vector<uint32_t> Members;
  auto Merge = [&](uint32_t R) {
    for (uint32_t M : Members)
      RepOf[M] = R;
    for (uint32_t M : Members) {
      if (M == R)
        continue;
      Pts[R].orInPlace(Pts[M]);
      Pts[M] = HybridPtsSet();
      Succ[R].insert(Succ[R].end(), Succ[M].begin(), Succ[M].end());
      std::vector<uint32_t>().swap(Succ[M]);
      Dirty[M] = 0;
      if (M >= NumVars)
        continue;
      for (auto *Lists : {&LoadsAt, &StoresAt}) {
        std::vector<Access> &From = (*Lists)[M], &To = (*Lists)[R];
        To.insert(To.end(), From.begin(), From.end());
        std::vector<Access>().swap(From);
      }
      CallsAt[R].insert(CallsAt[R].end(), CallsAt[M].begin(),
                        CallsAt[M].end());
      std::vector<const ir::Statement *>().swap(CallsAt[M]);
      if (SeenOf[M] != kNone32) {
        if (SeenOf[R] == kNone32)
          SeenOf[R] = SeenOf[M];
        else
          Seen[SeenOf[M]] = HybridPtsSet();
        SeenOf[M] = kNone32;
      }
    }
    std::vector<uint32_t> &Out = Succ[R];
    for (uint32_t &S : Out)
      S = Find(S);
    std::sort(Out.begin(), Out.end());
    Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
    Out.erase(std::remove(Out.begin(), Out.end(), R), Out.end());
    // The merged accesses have seen none of each other's objects.
    if (R < NumVars && SeenOf[R] != kNone32)
      Seen[SeenOf[R]] = HybridPtsSet(NumAllocs);
    Dirty[R] = 1;
  };

  // Collapse: one iterative Tarjan pass over the representatives a
  // dirty one reaches (no other node can change this sweep), merging
  // each SCC and emitting the representatives in topological order.
  // Index 0 is unvisited and kDone a finished SCC, so any other index is
  // a node still on the Tarjan stack.
  constexpr uint32_t kDone = kNone32;
  std::vector<uint32_t> Index, Low, Stack, Order;
  std::vector<std::pair<uint32_t, uint32_t>> Frames; // (node, next succ)
  auto Collapse = [&] {
    Index.assign(Pts.size(), 0);
    Low.assign(Pts.size(), 0);
    Order.clear();
    uint32_t Next = 0;
    auto Open = [&](uint32_t V) {
      Index[V] = Low[V] = ++Next;
      Stack.push_back(V);
      Frames.emplace_back(V, 0);
    };
    for (uint32_t Root = 0; Root < Pts.size(); ++Root) {
      if (!Dirty[Root] || Index[Root] != 0)
        continue;
      Open(Root);
      while (!Frames.empty()) {
        auto &[V, I] = Frames.back();
        if (I < Succ[V].size()) {
          uint32_t W = Find(Succ[V][I++]);
          if (Index[W] == 0)
            Open(W);
          else if (Index[W] != kDone)
            Low[V] = std::min(Low[V], Index[W]);
          continue;
        }
        uint32_t Done = V;
        Frames.pop_back();
        if (!Frames.empty()) {
          uint32_t Parent = Frames.back().first;
          Low[Parent] = std::min(Low[Parent], Low[Done]);
        }
        if (Low[Done] != Index[Done])
          continue;
        auto At = std::find(Stack.rbegin(), Stack.rend(), Done).base() - 1;
        Members.assign(At, Stack.end());
        Stack.erase(At, Stack.end());
        for (uint32_t M : Members)
          Index[M] = kDone;
        uint32_t R = *std::min_element(Members.begin(), Members.end());
        if (Members.size() > 1)
          Merge(R);
        Order.push_back(R);
      }
    }
    std::reverse(Order.begin(), Order.end());
  };

  // Dispatches virtual call S on receiver object A, and wires the
  // copies into a target the first time the site reaches it.
  auto Dispatch = [&](const ir::Statement &S, uint32_t A, uint32_t N) {
    const ir::AllocSite &Site = Prog.alloc(ir::AllocId(A));
    if (Site.IsNull)
      return; // calls on null do not dispatch
    ir::MethodId T = Prog.dispatch(Site.Type, S.VirtualName);
    if (T == ir::kNone || !Wired.insert(S.Call, T))
      return;
    forEachCallCopy(S, Prog.method(T), ReturnsOf[T],
                    [&](ir::VarId Src, ir::VarId Dst, EdgeKind) {
                      Connect(Graph.nodeOfVar(Src), Graph.nodeOfVar(Dst), N);
                    });
  };

  std::vector<uint32_t> NewObjs; // discovery scratch, reused per visit
  for (;;) {
    Collapse();
    for (uint32_t N : Order) {
      if (!Dirty[N])
        continue;
      Dirty[N] = 0;
      ++Propagations;

      // Discover the dynamic copies induced by N's new objects.  Field
      // nodes created here are not in Order; they wait for next sweep.
      if (N < NumVars && SeenOf[N] != kNone32) {
        NewObjs.clear();
        takeNew(Pts[N], Seen[SeenOf[N]], NewObjs);
        for (uint32_t A : NewObjs) {
          for (const Access &L : LoadsAt[N])
            Connect(FieldNodeOf(ir::AllocId(A), L.F), L.Other, N);
          for (const Access &S : StoresAt[N])
            Connect(S.Other, FieldNodeOf(ir::AllocId(A), S.F), N);
          for (const ir::Statement *S : CallsAt[N])
            Dispatch(*S, A, N);
        }
      }

      // Propagate N's whole set over its copy successors.
      const HybridPtsSet &From = Pts[N];
      for (uint32_t &S : Succ[N]) {
        S = Find(S);
        if (S != N && Pts[S].orInPlace(From))
          Dirty[S] = 1;
      }
    }
    if (std::find(Dirty.begin(), Dirty.end(), uint8_t(1)) == Dirty.end())
      break;
  }

  for (uint32_t N = 0; N < RepOf.size(); ++N)
    RepOf[N] = Find(N);
}

std::vector<ir::AllocId> AndersenAnalysis::allocSites(NodeId V) const {
  assert(Solved && "query before solve()");
  std::vector<ir::AllocId> Out;
  Pts[RepOf[V]].forEach([&](uint32_t A) { Out.push_back(ir::AllocId(A)); });
  return Out;
}

bool AndersenAnalysis::pointsTo(NodeId V, ir::AllocId A) const {
  assert(Solved && "query before solve()");
  return Pts[RepOf[V]].test(A);
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

BuiltPAG dynsum::analysis::buildPAGWithAndersenCallGraph(const ir::Program &P) {
  // The solve wires virtual calls itself, so the graph it starts from
  // lowers none.  The final PAG is built from scratch, not patched from
  // this one: a scratch build fixes every edge slot.
  struct NoVirtualTargets : TargetResolver {
    std::vector<ir::MethodId> resolve(const ir::Program &, ir::MethodId,
                                      const ir::Statement &) const override {
      return {};
    }
  } NoVirtual;
  BuiltPAG Base = buildPAG(P, &NoVirtual);
  AndersenAnalysis Andersen(*Base.Graph);
  Andersen.DiscoverCalls = true;
  Andersen.solve();
  AndersenTargetResolver Resolver(Andersen, *Base.Graph);
  return buildPAG(P, &Resolver);
}
