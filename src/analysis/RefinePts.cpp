//===----------------------------------------------------------------------===//
///
/// \file
/// REFINEPTS / NOREFINE implementation.
///
/// Edge-orientation reminder (PAG.h pins the storage direction; the
/// paper's listings write the inverse):
///   pointsTo (S1/backward) walks a node's IN edges;
///   flowsTo  (S2/forward)  walks a node's OUT edges.
///
//===----------------------------------------------------------------------===//

#include "analysis/RefinePts.h"

#include "support/Debug.h"
#include "support/Hashing.h"

#include <algorithm>
#include <cassert>

using namespace dynsum;
using namespace dynsum::analysis;
using namespace dynsum::pag;

void RefinePtsAnalysis::mergeInto(ObjSet &Dst, const ObjSet &Src) {
  for (const PtsTarget &T : Src)
    if (std::find(Dst.begin(), Dst.end(), T) == Dst.end())
      Dst.push_back(T);
}

void RefinePtsAnalysis::mergeInto(VarSet &Dst, const VarSet &Src) {
  for (const VarCtx &V : Src) {
    bool Present = false;
    for (const VarCtx &Existing : Dst)
      Present |= Existing.Node == V.Node && Existing.Ctx == V.Ctx;
    if (!Present)
      Dst.push_back(V);
  }
}

QueryResult RefinePtsAnalysis::query(NodeId V,
                                     const ClientPredicate &SatisfyClient) {
  assert(!Graph.isObject(V) && "points-to query on an object node");
  FldsToRefine.clear();
  LastIterations = 0;
  uint64_t TotalSteps = 0;

  // One traversal budget for the whole query, spanning every refinement
  // pass (Section 5.2: at most 75,000 edges per points-to query).
  Budget B(Opts.BudgetPerQuery, Opts.Deadline);
  QueryResult Result;
  for (unsigned Iter = 0; Iter < Opts.MaxRefineIterations; ++Iter) {
    ++LastIterations;
    uint64_t StepsBefore = B.used();
    ObjSet Pts = runPass(V, B);
    TotalSteps += B.used() - StepsBefore;

    Result = QueryResult();
    Result.Targets = std::move(Pts);
    Result.BudgetExceeded = B.exceeded();
    Result.Status = B.status();
    Result.Steps = TotalSteps;
    Result.canonicalize();

    if (SatisfyClient && SatisfyClient(Result))
      return Result; // client satisfied; stop refining (Alg. 2 line 30)
    if (!Refinement)
      return Result; // NOREFINE: single fully-refined pass
    if (FldsSeen.empty())
      return Result; // nothing left to refine (Alg. 2 lines 32-33)
    if (Result.BudgetExceeded)
      return Result; // out of budget: conservative answer
    // Refine every match edge encountered (Alg. 2 line 35).
    FldsToRefine.orInPlace(FldsSeen);
  }
  return Result;
}

RefinePtsAnalysis::ObjSet RefinePtsAnalysis::runPass(NodeId V, Budget &B) {
  FldsSeen.clear();
  BackCache.clear();
  FwdCache.clear();
  ActiveBack.clear();
  ActiveFwd.clear();
  CycleDependent = false;
  return sbPointsTo(V, StackPool::empty(), B);
}

//===----------------------------------------------------------------------===//
// Algorithm 1: SBPOINTSTO
//===----------------------------------------------------------------------===//

RefinePtsAnalysis::ObjSet RefinePtsAnalysis::sbPointsTo(NodeId V, StackId Ctx,
                                                        Budget &B) {
  ObjSet Pts;
  if (B.exceeded())
    return Pts;

  uint64_t Key = packPair(V, Ctx.Id);
  if (Refinement && Opts.EnableCache) {
    auto It = BackCache.find(Key);
    if (It != BackCache.end())
      return It->second;
  }
  if (!ActiveBack.insert(Key).second) {
    // Points-to cycle: do not re-traverse (visited flags, Section 5.1).
    CycleDependent = true;
    return Pts;
  }
  bool WasCycleDependent = CycleDependent;
  CycleDependent = false;

  for (EdgeId EId : Graph.inEdges(V)) {
    if (!B.consume())
      break;
    const Edge &E = Graph.edge(EId);
    switch (E.Kind) {
    case EdgeKind::New:
      // Alg. 1 lines 2-3, with the context recorded for heap cloning.
      Pts.push_back(PtsTarget{Graph.allocOf(E.Src), Ctx});
      break;
    case EdgeKind::Assign:
      // Alg. 1 lines 4-5.
      mergeInto(Pts, sbPointsTo(E.Src, Ctx, B));
      break;
    case EdgeKind::AssignGlobal:
      // Alg. 1 lines 6-7: globals are context-insensitive.
      mergeInto(Pts, sbPointsTo(E.Src, StackPool::empty(), B));
      break;
    case EdgeKind::Exit:
      // Alg. 1 lines 8-9: walking backwards into the callee pushes the
      // call site.  Recursion-collapsed edges keep the context.
      mergeInto(Pts, sbPointsTo(E.Src,
                                E.ContextFree ? Ctx
                                              : Contexts.push(Ctx, E.Aux),
                                B));
      break;
    case EdgeKind::Entry:
      // Alg. 1 lines 10-12: walking backwards to the caller pops when
      // the top matches, or continues from the empty (unbalanced) stack.
      if (E.ContextFree) {
        mergeInto(Pts, sbPointsTo(E.Src, Ctx, B));
      } else if (Ctx.isEmpty()) {
        mergeInto(Pts, sbPointsTo(E.Src, StackPool::empty(), B));
      } else if (Contexts.peek(Ctx) == E.Aux) {
        mergeInto(Pts, sbPointsTo(E.Src, Contexts.pop(Ctx), B));
      }
      break;
    case EdgeKind::Load: {
      // E: base --load(f)--> V, i.e. V = base.f.  Alg. 1 lines 13-24.
      NodeId LoadBase = E.Src;
      ir::FieldId F = E.Aux;
      if (!FldsToRefine.test(EId) && Refinement) {
        // Field-based: cross the artificial match edge to every value
        // stored into any .f, clearing the context (lines 15-17).
        FldsSeen.set(EId);
        for (EdgeId SId : Graph.storesOfField(F)) {
          if (!B.consume())
            break;
          mergeInto(Pts, sbPointsTo(Graph.edge(SId).Src,
                                    StackPool::empty(), B));
        }
        break;
      }
      // Field-sensitive: find aliases of the load's base (lines 19-24).
      ObjSet BaseObjs = sbPointsTo(LoadBase, Ctx, B);
      VarSet Aliases;
      for (const PtsTarget &O : BaseObjs) {
        if (B.exceeded())
          break;
        mergeInto(Aliases,
                  sbFlowsTo(Graph.nodeOfAlloc(O.Alloc), O.Context, B));
      }
      for (const VarCtx &R : Aliases) {
        if (B.exceeded())
          break;
        // Stores q.f = p with q == R.Node: continue from the stored
        // value under the alias's context (line 24).  The CSR kind
        // partition hands us exactly the store edges.
        for (EdgeId SId : Graph.inEdgesOfKind(R.Node, EdgeKind::Store)) {
          const Edge &SE = Graph.edge(SId);
          if (SE.Aux != F)
            continue;
          if (!B.consume())
            break;
          mergeInto(Pts, sbPointsTo(SE.Src, R.Ctx, B));
        }
      }
      break;
    }
    case EdgeKind::Store:
      // An incoming store edge means V is a stored *value*'s target
      // base; irrelevant when walking flowsTo-bar.
      break;
    }
    if (B.exceeded())
      break;
  }

  ActiveBack.erase(Key);
  bool Complete = !CycleDependent && !B.exceeded();
  if (Refinement && Opts.EnableCache && Complete)
    BackCache.emplace(Key, Pts);
  CycleDependent |= WasCycleDependent;
  return Pts;
}

//===----------------------------------------------------------------------===//
// SBFLOWSTO (the omitted "inverse" of Algorithm 1)
//===----------------------------------------------------------------------===//

RefinePtsAnalysis::VarSet RefinePtsAnalysis::sbFlowsTo(NodeId O, StackId Ctx,
                                                       Budget &B) {
  assert(Graph.isObject(O) && "sbFlowsTo starts from an object");
  VarSet Out;
  for (EdgeId EId : Graph.outEdges(O)) {
    if (!B.consume())
      break;
    const Edge &E = Graph.edge(EId);
    assert(E.Kind == EdgeKind::New && "objects only have new out-edges");
    mergeInto(Out, fwdFlowsTo(E.Dst, Ctx, B));
  }
  return Out;
}

RefinePtsAnalysis::VarSet RefinePtsAnalysis::fwdFlowsTo(NodeId V, StackId Ctx,
                                                        Budget &B) {
  VarSet Out;
  if (B.exceeded())
    return Out;

  uint64_t Key = packPair(V, Ctx.Id);
  if (Refinement && Opts.EnableCache) {
    auto It = FwdCache.find(Key);
    if (It != FwdCache.end())
      return It->second;
  }
  if (!ActiveFwd.insert(Key).second) {
    CycleDependent = true;
    return Out;
  }
  bool WasCycleDependent = CycleDependent;
  CycleDependent = false;

  Out.push_back(VarCtx{V, Ctx});
  for (EdgeId EId : Graph.outEdges(V)) {
    if (!B.consume())
      break;
    const Edge &E = Graph.edge(EId);
    switch (E.Kind) {
    case EdgeKind::Assign:
      mergeInto(Out, fwdFlowsTo(E.Dst, Ctx, B));
      break;
    case EdgeKind::AssignGlobal:
      mergeInto(Out, fwdFlowsTo(E.Dst, StackPool::empty(), B));
      break;
    case EdgeKind::Entry:
      // Forwards into the callee: push the site.
      mergeInto(Out, fwdFlowsTo(E.Dst,
                                E.ContextFree ? Ctx
                                              : Contexts.push(Ctx, E.Aux),
                                B));
      break;
    case EdgeKind::Exit:
      // Forwards back to the caller: pop on match / unbalanced empty.
      if (E.ContextFree) {
        mergeInto(Out, fwdFlowsTo(E.Dst, Ctx, B));
      } else if (Ctx.isEmpty()) {
        mergeInto(Out, fwdFlowsTo(E.Dst, StackPool::empty(), B));
      } else if (Contexts.peek(Ctx) == E.Aux) {
        mergeInto(Out, fwdFlowsTo(E.Dst, Contexts.pop(Ctx), B));
      }
      break;
    case EdgeKind::Store: {
      // V --store(f)--> StoreBase: the tracked object is stored into
      // StoreBase.f; it continues to every load of .f whose base
      // aliases StoreBase.
      NodeId StoreBase = E.Dst;
      ir::FieldId F = E.Aux;
      VarSet BaseAliases; // lazily computed on first refined load edge
      bool AliasesReady = false;
      for (EdgeId LId : Graph.loadsOfField(F)) {
        if (!B.consume())
          break;
        const Edge &LE = Graph.edge(LId);
        if (!FldsToRefine.test(LId) && Refinement) {
          // Field-based match edge: jump straight to the loaded var.
          FldsSeen.set(LId);
          mergeInto(Out, fwdFlowsTo(LE.Dst, StackPool::empty(), B));
          continue;
        }
        if (!AliasesReady) {
          AliasesReady = true;
          ObjSet BaseObjs = sbPointsTo(StoreBase, Ctx, B);
          for (const PtsTarget &O : BaseObjs) {
            if (B.exceeded())
              break;
            mergeInto(BaseAliases,
                      sbFlowsTo(Graph.nodeOfAlloc(O.Alloc), O.Context, B));
          }
        }
        for (const VarCtx &R : BaseAliases)
          if (R.Node == LE.Src)
            mergeInto(Out, fwdFlowsTo(LE.Dst, R.Ctx, B));
      }
      break;
    }
    case EdgeKind::Load:
      // V is the base of a load; the object in V does not flow through.
      break;
    case EdgeKind::New:
      unreachable("new edge out of a variable node");
    }
    if (B.exceeded())
      break;
  }

  ActiveFwd.erase(Key);
  bool Complete = !CycleDependent && !B.exceeded();
  if (Refinement && Opts.EnableCache && Complete)
    FwdCache.emplace(Key, Out);
  CycleDependent |= WasCycleDependent;
  return Out;
}
