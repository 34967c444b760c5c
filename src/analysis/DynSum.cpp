//===----------------------------------------------------------------------===//
///
/// \file
/// DYNSUM implementation: Algorithm 3 (PPTA) and Algorithm 4 (worklist).
///
/// The paper's listings write PAG edges in flowsTo-bar orientation; the
/// comments below map every listing line onto the storage orientation
/// pinned in PAG.h:
///
///   listing "a --l--> b"  ==  PAG edge "b --l--> a"
///
/// so S1 (flowsTo-bar) rules read a node's IN edges, S2 (flowsTo) rules
/// read OUT edges, except the two "-bar" field rules called out inline.
///
//===----------------------------------------------------------------------===//

#include "analysis/DynSum.h"

#include "support/Debug.h"
#include "support/FaultInjection.h"
#include "support/Hashing.h"

#include <algorithm>
#include <cassert>

using namespace dynsum;
using namespace dynsum::analysis;
using namespace dynsum::pag;

SummaryExchange::~SummaryExchange() = default;

uint64_t dynsum::analysis::packSummaryKey(NodeId Node, StackId Fields,
                                          RsmState S) {
  assert(Fields.Id < (1u << 31) && "field-stack id overflow");
  return (uint64_t(Fields.Id) << 33) | (uint64_t(Node) << 1) |
         uint64_t(S == RsmState::S2);
}

const PptaSummary *SummaryCache::insert(uint64_t Key, PptaSummary &&S) {
  assert(Key != kEmptyKey && !find(Key) && "summary stored twice");
  if ((NumEntries + 1) * 2 > Slots.size()) {
    std::vector<Slot> Old = std::move(Slots);
    Slots.assign(Old.empty() ? kMinSlots : Old.size() * 2, Slot());
    NumEntries = 0;
    for (const Slot &O : Old)
      if (O.Key != kEmptyKey)
        place(O);
  }
  PptaSummary *Dst;
  if (!Free.empty()) {
    Dst = Free.back();
    Free.pop_back();
  } else {
    if (BlockUsed == BlockSize) {
      BlockSize = std::min(BlockSize ? BlockSize * 2 : kFirstBlock, kMaxBlock);
      Blocks.emplace_back(new PptaSummary[BlockSize]);
      BlockUsed = 0;
    }
    Dst = &Blocks.back()[BlockUsed++];
  }
  *Dst = std::move(S);
  place(Slot{Key, Dst});
  return Dst;
}

//===----------------------------------------------------------------------===//
// Algorithm 3: DSPOINTSTO
//===----------------------------------------------------------------------===//

bool PptaEngine::compute(NodeId V, StackId F, RsmState S, Budget &Bgt,
                         PptaSummary &Summary) {
  B = &Bgt;
  Out = &Summary;
  Complete = true;
  Visited.clear();
  Work.clear();
  push(V, F, S);
  // The recursion of the paper's listing is unrolled into an explicit
  // stack: expansion order differs from call order, but the traversal
  // is exhaustive under the visited set, so a complete run reaches the
  // same states, consumes the same budget, and emits the same summary
  // (as a set).  Incomplete runs are discarded by every caller.
  while (!Work.empty() && Complete) {
    Frame Fr = Work.back();
    Work.pop_back();
    expand(Fr.Node, Fr.Fields, Fr.State);
  }
  return Complete;
}

void PptaEngine::expand(NodeId V, StackId F, RsmState S) {
  // Lines 1-3: the visited check on (v, f, s) happened at push time.
  if (B->exceeded()) {
    Complete = false;
    return;
  }

  const Node &Nd = Graph.node(V);

  if (S == RsmState::S1) {
    // ---- S1: walking a flowsTo-bar path (lines 5-16). ----
    for (EdgeId EId : Graph.inEdgesOfKind(V, EdgeKind::New)) {
      // Lines 6-10.  o --new--> v.  With an empty field stack the
      // object is a result; otherwise flip to S2 at v ("new new-bar")
      // to look for aliases of v.
      if (!B->consume()) {
        Complete = false;
        return;
      }
      if (F.isEmpty())
        Out->Objects.push_back(Graph.allocOf(Graph.edge(EId).Src));
      else
        push(V, F, RsmState::S2);
    }
    for (EdgeId EId : Graph.inEdgesOfKind(V, EdgeKind::Assign)) {
      // Lines 11-12.  x --assign--> v: continue backwards at x.
      if (!B->consume()) {
        Complete = false;
        return;
      }
      push(Graph.edge(EId).Src, F, RsmState::S1);
    }
    for (EdgeId EId : Graph.inEdgesOfKind(V, EdgeKind::Load)) {
      // Lines 13-14.  base --load(g)--> v (v = base.g): push g and
      // continue backwards at the base.
      const Edge &E = Graph.edge(EId);
      if (!B->consume()) {
        Complete = false;
        return;
      }
      // k-limit the pending-field stack: cyclic stores/loads can grow
      // it without bound (e.g. a circular list).  Pruning the branch
      // is the same under-approximation as the visited-flag cycle
      // cutting REFINEPTS inherits from [15]; access paths deeper
      // than the cap do not occur in realistic code.
      if (FieldStacks.depth(F) >= MaxFieldDepth) {
        ++DepthPrunes;
        continue;
      }
      push(E.Src, FieldStacks.push(F, encodeLoadBarField(E.Aux)),
           RsmState::S1);
    }
    if (B->exceeded()) {
      Complete = false;
      return;
    }
    // Lines 15-16: a global edge flows into v — record the boundary
    // state for Algorithm 4.  (Stores into v are irrelevant backwards.)
    if (Nd.HasGlobalIn)
      Out->Tuples.push_back(PptaTuple{V, F, RsmState::S1});
    return;
  }

  // ---- S2: walking a flowsTo path (lines 17-29). ----
  if (!F.isEmpty()) {
    uint32_t Top = FieldStacks.peek(F);
    for (EdgeId EId : Graph.outEdgesOfKind(V, EdgeKind::Load)) {
      // Lines 18-20.  v --load(g)--> x (x = v.g): the tracked object
      // sits in v's field g; the load transfers it to x.  Only a field
      // pushed by a *store* (the object really went into .g) may be
      // popped here; see encodeLoadBarField's comment.
      const Edge &E = Graph.edge(EId);
      if (Top != encodeStoreField(E.Aux))
        continue;
      if (!B->consume()) {
        Complete = false;
        return;
      }
      push(E.Dst, FieldStacks.pop(F), RsmState::S2);
    }
  }
  for (EdgeId EId : Graph.outEdgesOfKind(V, EdgeKind::Assign)) {
    // Lines 21-22.  v --assign--> x: flow forwards.
    if (!B->consume()) {
      Complete = false;
      return;
    }
    push(Graph.edge(EId).Dst, F, RsmState::S2);
  }
  for (EdgeId EId : Graph.outEdgesOfKind(V, EdgeKind::Store)) {
    // Lines 23-24.  v --store(g)--> base (base.g = v): the object is
    // stored into base.g; push g and look for aliases of the base by
    // walking flowsTo-bar (S1) from it.
    const Edge &E = Graph.edge(EId);
    if (!B->consume()) {
      Complete = false;
      return;
    }
    if (FieldStacks.depth(F) >= MaxFieldDepth) {
      ++DepthPrunes; // see the S1 load case for the rationale
      continue;
    }
    push(E.Dst, FieldStacks.push(F, encodeStoreField(E.Aux)),
         RsmState::S1);
  }
  // Lines 25-27.  value --store(g)--> v (v.g = value): v is the base of
  // a store matching the pending field g; the tracked alias's field g
  // holds whatever "value" held — continue backwards (S1) from it.
  // Only a field pushed by a load-bar (an unresolved ".g read") may be
  // popped by a store-bar; see encodeLoadBarField's comment.
  if (!F.isEmpty()) {
    uint32_t Top = FieldStacks.peek(F);
    for (EdgeId EId : Graph.inEdgesOfKind(V, EdgeKind::Store)) {
      const Edge &E = Graph.edge(EId);
      if (encodeLoadBarField(E.Aux) != Top)
        continue;
      if (!B->consume()) {
        Complete = false;
        return;
      }
      push(E.Src, FieldStacks.pop(F), RsmState::S1);
    }
  }
  if (B->exceeded()) {
    Complete = false;
    return;
  }
  // Lines 28-29: a global edge flows out of v — boundary state.
  if (Nd.HasGlobalOut)
    Out->Tuples.push_back(PptaTuple{V, F, RsmState::S2});
}

//===----------------------------------------------------------------------===//
// Algorithm 4: the DYNSUM worklist
//===----------------------------------------------------------------------===//

PptaSummary DynSumAnalysis::internSummary(const PortableSummary &P,
                                          StackId Hint,
                                          const std::vector<uint32_t> &HintElems) {
  PptaSummary Out;
  Out.Objects.reserve(P.Objects.size());
  for (ir::AllocId A : P.Objects)
    Out.Objects.push_back(A);
  Out.Tuples.reserve(P.Tuples.size());
  const uint32_t *Run = P.FieldData.data();
  for (const PortableSummary::Tuple &T : P.Tuples) {
    // Longest common prefix with the hint: recovered by popping the
    // hint down (O(1) each) rather than hash-consing pushes up.
    size_t K = 0;
    size_t Limit = std::min(size_t(T.FieldsLen), HintElems.size());
    while (K < Limit && Run[K] == HintElems[K])
      ++K;
    StackId F = Hint;
    for (size_t I = HintElems.size(); I > K; --I)
      F = FieldStacks.pop(F);
    for (uint32_t I = K; I < T.FieldsLen; ++I)
      F = FieldStacks.push(F, Run[I]);
    Run += T.FieldsLen;
    Out.Tuples.push_back(PptaTuple{T.Node, F, T.State});
  }
  return Out;
}

PortableSummary DynSumAnalysis::exportSummary(const PptaSummary &S) const {
  PortableSummary Out;
  Out.Objects.assign(S.Objects.begin(), S.Objects.end());
  Out.Tuples.reserve(S.Tuples.size());
  for (const PptaTuple &T : S.Tuples) {
    uint32_t Depth = FieldStacks.depth(T.Fields);
    Out.Tuples.push_back(PortableSummary::Tuple{T.Node, T.State, Depth});
    // Append the run bottom-to-top by writing backwards from the top.
    size_t Start = Out.FieldData.size();
    Out.FieldData.resize(Start + Depth);
    StackId Cur = T.Fields;
    for (size_t I = Depth; I > 0; --I) {
      Out.FieldData[Start + I - 1] = FieldStacks.peek(Cur);
      Cur = FieldStacks.pop(Cur);
    }
  }
  return Out;
}

const PptaSummary *DynSumAnalysis::getSummary(NodeId U, StackId F,
                                              RsmState S, Budget &B,
                                              bool &UsedCache) {
  UsedCache = false;
  uint64_t Key = packSummaryKey(U, F, S);

  // Section 4.3: skip the PPTA when u has no local edges — the node
  // itself is the only boundary state.
  if (!Graph.node(U).HasLocalEdge) {
    Scratch.Objects.clear();
    Scratch.Tuples.clear();
    Scratch.Tuples.push_back(PptaTuple{U, F, S});
    return &Scratch;
  }

  // Spelled-out field stack for the exchange round trip, built into
  // member scratch whose capacity persists across fetches: a batch
  // issues one store round trip per cold summary, and the fetch side
  // must stay allocation-free for disk-tier serving to undercut
  // recomputation.
  if (Opts.EnableCache) {
    if (const PptaSummary *Hit = Cache.find(Key)) {
      UsedCache = true;
      ++CacheHits;
      return Hit;
    }
    // Local miss: another instance on the same PAG may have published
    // this summary already (summaries are context-free, hence shareable).
    if (Exchange) {
      FieldStacks.elementsInto(F, FetchFields);
      if (Exchange->fetch(U, FetchFields, S, FetchScratch)) {
        UsedCache = true;
        ++SharedHits;
        return Cache.insert(Key, internSummary(FetchScratch, F, FetchFields));
      }
    }
  }

  // Lines 8-9: compute and (when complete) memoize the summary.  The
  // summary is shrunk on publish: it lives in a long-lived cache, and
  // growth slack across hundreds of thousands of entries adds up.
  // A summary computation is the query's coarsest unit of work, so
  // poll the deadline here (off the strided path) BEFORE starting one —
  // an already-expired query must not pay for one more summary.  The
  // fault point models a slow/failing summary in the chaos tests, so it
  // sits after the poll, where the real computation starts.
  if (!B.poll())
    return nullptr;
  support::faultPoint("query.summary");
  PptaSummary Fresh;
  bool IsComplete = Engine.compute(U, F, S, B, Fresh);
  ++SummariesComputed;
  if (!IsComplete)
    return nullptr;
  Fresh.shrinkToFit();
  if (Opts.EnableCache && Exchange) {
    // The store takes ownership, so the scratch is copied at the call —
    // one allocation per published (cold) summary, none per fetched one.
    FieldStacks.elementsInto(F, FetchFields);
    Exchange->publish(U, FetchFields, S, exportSummary(Fresh));
  }
  if (!Opts.EnableCache) {
    // Uncached mode (ablation): the summary lives until the next
    // getSummary call, which is as long as the worklist reads it.
    Scratch = std::move(Fresh);
    return &Scratch;
  }
  return Cache.insert(Key, std::move(Fresh));
}

QueryResult DynSumAnalysis::query(NodeId V,
                                  const ClientPredicate &SatisfyClient) {
  (void)SatisfyClient; // DYNSUM computes full precision directly
  assert(!Graph.isObject(V) && "points-to query on an object node");

  Budget B(Opts.BudgetPerQuery, Opts.Deadline);
  QueryResult Result;

  // Per-query scratch is reused across queries: the flat result set and
  // the worklist stack keep their storage, the de-dup map its buckets.
  QueryPts.clear();
  Enqueued.clear();
  Work.clear();
  if (Work.capacity() == 0)
    Work.reserve(std::min<size_t>(Graph.numNodes() + 1, 4096));

  auto Propagate = [&](NodeId N, StackId F, RsmState S, StackId C) {
    if (Enqueued.insert(packSummaryKey(N, F, S), C.Id))
      Work.push_back(WorkItem{N, F, S, C});
  };

  // Line 2: initial state (v, empty fields, S1, empty context).
  Propagate(V, StackPool::empty(), RsmState::S1, StackPool::empty());

  while (!Work.empty() && !B.exceeded()) {
    WorkItem It = Work.back();
    Work.pop_back();

    bool UsedCache = false;
    const PptaSummary *Summary =
        getSummary(It.Node, It.Fields, It.State, B, UsedCache);
    if (Summary == nullptr) {
      Result.BudgetExceeded = true;
      break;
    }

    // Lines 10-11: objects found by the summary materialize under the
    // *current* context — this is exactly why summaries are reusable
    // across contexts.  QueryPts only dedups; targets are collected as
    // they first appear, so a query's cost tracks its own result size.
    for (ir::AllocId A : Summary->Objects)
      if (QueryPts.insert(packPair(A, It.Ctx.Id)))
        Result.Targets.push_back(PtsTarget{A, It.Ctx});

    // Lines 12-28: cross global edges from every boundary tuple, one
    // kind-partitioned CSR span per rule.
    for (const PptaTuple &T : Summary->Tuples) {
      if (T.State == RsmState::S1) {
        for (EdgeId EId : Graph.inEdgesOfKind(T.Node, EdgeKind::Exit)) {
          // Lines 14-15: backwards into the callee pushes the site.
          const Edge &E = Graph.edge(EId);
          if (!B.consume())
            break;
          Propagate(E.Src, T.Fields, RsmState::S1,
                    E.ContextFree ? It.Ctx : Contexts.push(It.Ctx, E.Aux));
        }
        // Lines 16-18: backwards to the caller pops on match or from
        // the unbalanced empty stack.  Under a non-empty context only
        // the edges at the top site can pop, so they are looked up, not
        // scanned for: same edges, same order, same budget charge.
        if (!It.Ctx.isEmpty() && !Graph.node(T.Node).ContextFreeEntryIn) {
          StackId Caller = Contexts.pop(It.Ctx);
          for (EdgeId EId : Graph.callEdgesAtSite(
                   T.Node, EdgeKind::Entry, Contexts.peek(It.Ctx)))
            if (B.consume())
              Propagate(Graph.edge(EId).Src, T.Fields, RsmState::S1,
                        Caller);
        } else {
          for (EdgeId EId : Graph.inEdgesOfKind(T.Node, EdgeKind::Entry)) {
            const Edge &E = Graph.edge(EId);
            if (E.ContextFree) {
              if (B.consume())
                Propagate(E.Src, T.Fields, RsmState::S1, It.Ctx);
            } else if (It.Ctx.isEmpty()) {
              if (B.consume())
                Propagate(E.Src, T.Fields, RsmState::S1,
                          StackPool::empty());
            } else if (Contexts.peek(It.Ctx) == E.Aux) {
              if (B.consume())
                Propagate(E.Src, T.Fields, RsmState::S1,
                          Contexts.pop(It.Ctx));
            }
          }
        }
        for (EdgeId EId :
             Graph.inEdgesOfKind(T.Node, EdgeKind::AssignGlobal)) {
          // Lines 19-20: globals clear the context.
          if (B.consume())
            Propagate(Graph.edge(EId).Src, T.Fields, RsmState::S1,
                      StackPool::empty());
        }
      } else {
        // Lines 22-24: forwards to the caller pops on match, by the
        // same lookup-or-scan rule as lines 16-18.
        if (!It.Ctx.isEmpty() && !Graph.node(T.Node).ContextFreeExitOut) {
          StackId Caller = Contexts.pop(It.Ctx);
          for (EdgeId EId : Graph.callEdgesAtSite(
                   T.Node, EdgeKind::Exit, Contexts.peek(It.Ctx)))
            if (B.consume())
              Propagate(Graph.edge(EId).Dst, T.Fields, RsmState::S2,
                        Caller);
        } else {
          for (EdgeId EId : Graph.outEdgesOfKind(T.Node, EdgeKind::Exit)) {
            const Edge &E = Graph.edge(EId);
            if (E.ContextFree) {
              if (B.consume())
                Propagate(E.Dst, T.Fields, RsmState::S2, It.Ctx);
            } else if (It.Ctx.isEmpty()) {
              if (B.consume())
                Propagate(E.Dst, T.Fields, RsmState::S2,
                          StackPool::empty());
            } else if (Contexts.peek(It.Ctx) == E.Aux) {
              if (B.consume())
                Propagate(E.Dst, T.Fields, RsmState::S2,
                          Contexts.pop(It.Ctx));
            }
          }
        }
        for (EdgeId EId : Graph.outEdgesOfKind(T.Node, EdgeKind::Entry)) {
          // Lines 25-26: forwards into the callee pushes the site.
          const Edge &E = Graph.edge(EId);
          if (B.consume())
            Propagate(E.Dst, T.Fields, RsmState::S2,
                      E.ContextFree ? It.Ctx
                                    : Contexts.push(It.Ctx, E.Aux));
        }
        for (EdgeId EId :
             Graph.outEdgesOfKind(T.Node, EdgeKind::AssignGlobal)) {
          // Lines 27-28.
          if (B.consume())
            Propagate(Graph.edge(EId).Dst, T.Fields, RsmState::S2,
                      StackPool::empty());
        }
      }
      if (B.exceeded())
        break;
    }
  }

  if (B.exceeded())
    Result.BudgetExceeded = true;
  Result.Status = B.status();
  Result.Steps = B.used();
  Result.canonicalize();
  return Result;
}

size_t DynSumAnalysis::cacheNodeStateCount() const {
  // Strip the field-stack bits (33..63), keep node and state.
  FlatU64Set NodeStates;
  Cache.forEachKey(
      [&](uint64_t Key) { NodeStates.insert(Key & 0x1ffffffffull); });
  return NodeStates.size();
}

void DynSumAnalysis::invalidateMethod(ir::MethodId M) {
  Cache.eraseIf([&](uint64_t Key) {
    return Graph.node(NodeId((Key >> 1) & 0xffffffffu)).Method == M;
  });
}
