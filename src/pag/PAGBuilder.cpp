//===----------------------------------------------------------------------===//
///
/// \file
/// PAG builder implementation: full builds and per-method delta builds
/// over the persistent node table.
///
//===----------------------------------------------------------------------===//

#include "pag/PAGBuilder.h"

#include "support/ExecContext.h"
#include "support/FaultInjection.h"
#include "support/Hashing.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

using namespace dynsum;
using namespace dynsum::ir;
using namespace dynsum::pag;

namespace {

/// Chooses assign vs assignglobal for a variable-to-variable copy.
EdgeKind copyKind(const Program &P, VarId Src, VarId Dst) {
  if (P.variable(Src).IsGlobal || P.variable(Dst).IsGlobal)
    return EdgeKind::AssignGlobal;
  return EdgeKind::Assign;
}

/// Lazily computed returned-variable lists: exit edges fan out from the
/// callee's returns, so lowering a caller needs its callees' returns —
/// but only those, never the whole program's.
class ReturnsCache {
public:
  explicit ReturnsCache(const Program &P) : P(P) {}

  const std::vector<VarId> &of(MethodId M) {
    auto It = Cache.find(M);
    if (It != Cache.end())
      return It->second;
    std::vector<VarId> &Rets = Cache[M];
    for (const Statement &S : P.method(M).Stmts)
      if (S.Kind == StmtKind::Return)
        Rets.push_back(S.Src);
    return Rets;
  }

private:
  const Program &P;
  std::unordered_map<MethodId, std::vector<VarId>> Cache;
};

/// One worker's private staging buffers: the edges of its share of the
/// re-lower set, lowered without touching the shared graph.  A
/// single-writer apply phase later replays them through
/// beginSegment/addEdge in method-id order, so edge slot assignment is
/// identical to a fully serial build.
struct StagedLowering {
  /// All staged edges of this worker, in emission order.
  std::vector<Edge> Edges;
  /// (method, [begin, end) into Edges) per lowered method, in the order
  /// the worker lowered them (ascending method id within a worker).
  struct MethodRange {
    MethodId M;
    uint32_t Begin;
    uint32_t End;
  };
  std::vector<MethodRange> Methods;
};

/// Lowers method \p Id's statements into \p Out — the staging-buffer
/// form of the classic per-method lowering.  Reads the graph's node
/// table (read-only: every node was appended in the single-writer node
/// phase before lowering fans out) and the refreshed call graph.
void lowerMethodInto(StagedLowering &Out, const PAG &G, const Program &P,
                     const CallGraph &CG, ReturnsCache &Returns,
                     MethodId Id) {
  uint32_t Begin = uint32_t(Out.Edges.size());
  auto Emit = [&Out](NodeId Src, NodeId Dst, EdgeKind Kind,
                     uint32_t Aux = ir::kNone, bool ContextFree = false) {
    Edge E;
    E.Src = Src;
    E.Dst = Dst;
    E.Kind = Kind;
    E.Aux = Aux;
    E.ContextFree = ContextFree;
    Out.Edges.push_back(E);
  };

  const Method &M = P.method(Id);
  for (const Statement &S : M.Stmts) {
    switch (S.Kind) {
    case StmtKind::Alloc:
    case StmtKind::Null:
      Emit(G.nodeOfAlloc(S.Alloc), G.nodeOfVar(S.Dst), EdgeKind::New);
      break;
    case StmtKind::Assign:
    case StmtKind::Cast:
      // A cast is an assignment to the PAG; the cast site only matters
      // to the SafeCast client.
      Emit(G.nodeOfVar(S.Src), G.nodeOfVar(S.Dst),
           copyKind(P, S.Src, S.Dst));
      break;
    case StmtKind::Load:
      // dst = base.f  =>  base --load(f)--> dst
      Emit(G.nodeOfVar(S.Base), G.nodeOfVar(S.Dst), EdgeKind::Load,
           S.FieldLabel);
      break;
    case StmtKind::Store:
      // base.f = src  =>  src --store(f)--> base
      Emit(G.nodeOfVar(S.Src), G.nodeOfVar(S.Base), EdgeKind::Store,
           S.FieldLabel);
      break;
    case StmtKind::Call:
      for (MethodId Target : CG.targets(S.Call)) {
        bool ContextFree = CG.inSameRecursion(Id, Target);
        forEachCallCopy(S, P.method(Target), Returns.of(Target),
                        [&](VarId Src, VarId Dst, EdgeKind Kind) {
                          Emit(G.nodeOfVar(Src), G.nodeOfVar(Dst), Kind,
                               S.Call, ContextFree);
                        });
      }
      break;
    case StmtKind::Return:
      break; // handled from the call side
    }
  }
  Out.Methods.push_back({Id, Begin, uint32_t(Out.Edges.size())});
}

/// Everything a caller's lowered call edges depend on beyond its own
/// statements: per (site, callee) pair the target, the recursion
/// collapse bit, and the callee's params/returns interface.  A clean
/// method is re-lowered iff this fingerprint moved.
uint64_t calleeShape(const CallGraph &CG, MethodId M,
                     const MethodFpTable &IfaceFp) {
  uint64_t H = 0x8f2d1c7b6a59e043ull;
  for (const auto &[Site, Callee] : CG.calleesOf(M)) {
    H = hashCombine(H, packPair(Site, Callee));
    H = hashCombine(H, uint64_t(CG.inSameRecursion(M, Callee)));
    H = hashCombine(H, IfaceFp[Callee]);
  }
  return H;
}

} // namespace

DeltaStats dynsum::pag::buildPAGDelta(PAG &G, CallGraph &Calls,
                                      const TargetResolver *Resolver,
                                      bool ForceFull,
                                      const support::ExecContext &Exec) {
  const Program &P = G.program();
  DeltaStats DS;
  unsigned Threads = Exec.threads();
  DS.ThreadsUsed = Threads;
  const bool First = !G.BuiltOnce;
  const size_t NumMethods = P.methods().size();

  // --- Nodes: append for program ids created since the last build.
  // Variables before allocation sites, matching the classic full-build
  // numbering on the first call; afterwards ids just keep appending.
  size_t FirstNewVar = G.numBuiltVars();
  size_t FirstNewAlloc = G.numBuiltAllocs();
  for (VarId V = VarId(FirstNewVar); V < P.variables().size(); ++V) {
    const Variable &Var = P.variable(V);
    G.addNode(Var.IsGlobal ? NodeKind::Global : NodeKind::Local, V,
              Var.Owner);
    ++DS.NodesAdded;
  }
  for (AllocId A = AllocId(FirstNewAlloc); A < P.allocs().size(); ++A) {
    G.addNode(NodeKind::Object, A, P.alloc(A).Owner);
    ++DS.NodesAdded;
  }

  // --- Candidates: methods stamped by the edit clock since the last
  // build; their body/interface fingerprints decide what really moved.
  size_t OldNumMethods = G.BuiltBodyFp.size();
  G.BuiltBodyFp.resize(NumMethods, 0);
  G.BuiltIfaceFp.resize(NumMethods, 0);
  G.BuiltShapeFp.resize(NumMethods, 0);

  std::vector<MethodId> BodyChanged;
  if (First) {
    DS.Touched.reserve(NumMethods);
    BodyChanged.reserve(NumMethods);
    for (MethodId M = 0; M < NumMethods; ++M) {
      DS.Touched.push_back(M);
      BodyChanged.push_back(M);
    }
    // Fingerprinting every method hashes every statement once; shard
    // it (each worker writes a disjoint slot range of the freshly
    // allocated — hence exclusively owned — fingerprint chunks).
    parallelChunks(NumMethods, Exec,
                   [&](size_t Begin, size_t End, unsigned) {
                     for (MethodId M = MethodId(Begin); M < End; ++M) {
                       G.BuiltBodyFp.rawAt(M) = P.methodFingerprint(M);
                       G.BuiltIfaceFp.rawAt(M) =
                           P.methodInterfaceFingerprint(M);
                     }
                   });
  } else {
    DS.Touched = P.methodsTouchedSince(G.BuiltModClock);
    for (MethodId M : DS.Touched) {
      uint64_t BodyFp = P.methodFingerprint(M);
      bool IsNew = M >= OldNumMethods;
      if (ForceFull || IsNew || BodyFp != G.BuiltBodyFp[M])
        BodyChanged.push_back(M);
      if (G.BuiltBodyFp[M] != BodyFp)
        G.BuiltBodyFp.mutableAt(M) = BodyFp;
      uint64_t IfaceFp = P.methodInterfaceFingerprint(M);
      if (G.BuiltIfaceFp[M] != IfaceFp)
        G.BuiltIfaceFp.mutableAt(M) = IfaceFp;
    }
  }

  // --- Call graph refresh.  The default CHA resolver updates
  // incrementally; a stateful resolver (RTA/Andersen) is re-run whole —
  // its answers can move anywhere — while lowering stays delta.
  bool HierarchyChanged = P.structureVersion() != G.BuiltStructureVersion;
  if (First || Resolver != nullptr) {
    Calls = buildCallGraph(P, Resolver);
  } else {
    updateCallGraph(Calls, P, nullptr, BodyChanged, HierarchyChanged);
  }

  // --- Re-lower set: body-changed plus shape-changed.  The shape pass
  // is one hash per call edge over the whole graph — linear in the call
  // graph, independent of statement counts — and partitions perfectly:
  // workers own disjoint method ranges, reading the (frozen) call graph
  // and writing disjoint Relower slots.  Shape fingerprints that moved
  // are collected per worker and applied serially afterwards: most
  // methods re-hash to their stored value, so the CoW fingerprint
  // chunks shared with the previous generation are never split for an
  // unchanged method — and never written from two workers at once.
  Timer ShapeClock;
  std::vector<char> Relower(NumMethods, 0);
  for (MethodId M : BodyChanged)
    Relower[M] = 1;
  const bool RelowerAll = ForceFull || First;
  unsigned ShapeWorkers = Threads > 0 ? Threads : 1;
  std::vector<std::vector<std::pair<MethodId, uint64_t>>> ShapeChanged(
      ShapeWorkers);
  parallelChunks(NumMethods, Exec,
                 [&](size_t Begin, size_t End, unsigned Worker) {
                   auto &Changed = ShapeChanged[Worker];
                   for (MethodId M = MethodId(Begin); M < End; ++M) {
                     uint64_t Shape =
                         calleeShape(Calls, M, G.BuiltIfaceFp);
                     if (Shape != G.BuiltShapeFp[M]) {
                       Relower[M] = 1;
                       Changed.emplace_back(M, Shape);
                     } else if (RelowerAll) {
                       Relower[M] = 1;
                     }
                   }
                 });
  for (const auto &Changed : ShapeChanged)
    for (const auto &[M, Shape] : Changed)
      G.BuiltShapeFp.mutableAt(M) = Shape;
  DS.ShapeSeconds = ShapeClock.seconds();

  // --- Re-lower: shard the re-lower set across the worker pool, each
  // worker lowering its (contiguous, ascending) share into private
  // staging buffers...
  Timer LowerClock;
  for (MethodId M = 0; M < NumMethods; ++M)
    if (Relower[M])
      DS.Relowered.push_back(M);

  unsigned LowerWorkers = Threads;
  if (LowerWorkers > DS.Relowered.size())
    LowerWorkers = unsigned(DS.Relowered.size());
  if (LowerWorkers == 0)
    LowerWorkers = 1;
  support::ExecContext LowerExec = Exec;
  LowerExec.Budget = LowerWorkers;
  std::vector<StagedLowering> Staged(LowerWorkers);
  parallelChunks(DS.Relowered.size(), LowerExec,
                 [&](size_t Begin, size_t End, unsigned Worker) {
                   StagedLowering &Out = Staged[Worker];
                   Out.Edges.reserve((End - Begin) * 8);
                   ReturnsCache Returns(P);
                   for (size_t I = Begin; I < End; ++I) {
                     support::faultPoint("commit.lower");
                     lowerMethodInto(Out, G, P, Calls, Returns,
                                     DS.Relowered[I]);
                   }
                 });
  DS.LowerSeconds = LowerClock.seconds();

  // ...then a single-writer apply phase replays the staged segments in
  // ascending method order.  Slot allocation (including free-slot
  // reuse) happens here only, in exactly the order a serial build would
  // have used, so edge slot ids are identical at every thread count.
  Timer ApplyClock;
  for (const StagedLowering &Out : Staged) {
    for (const StagedLowering::MethodRange &R : Out.Methods) {
      G.beginSegment(R.M);
      for (uint32_t I = R.Begin; I < R.End; ++I) {
        const Edge &E = Out.Edges[I];
        G.addEdge(E.Src, E.Dst, E.Kind, E.Aux, E.ContextFree);
      }
      G.endSegment();
    }
  }
  DS.ApplySeconds = ApplyClock.seconds();

  Timer RepackClock;
  if (First)
    G.finalize();
  else
    G.finalizeDelta(Exec);
  DS.RepackSeconds = RepackClock.seconds();
  DS.Compacted = G.lastRepackCompacted();

  G.BuiltModClock = P.modClock();
  G.BuiltStructureVersion = P.structureVersion();
  G.BuiltOnce = true;
  return DS;
}

BuiltPAG dynsum::pag::buildPAG(const Program &P,
                               const TargetResolver *Resolver,
                               const support::ExecContext &Exec) {
  BuiltPAG Result;
  Result.Graph = std::make_unique<PAG>(P);
  buildPAGDelta(*Result.Graph, Result.Calls, Resolver, /*ForceFull=*/false,
                Exec);
  return Result;
}
