//===----------------------------------------------------------------------===//
///
/// \file
/// PAG storage, indexing and statistics.
///
/// Two packing paths share the CSR invariants:
///
///   finalize()       full counting-sort pack (first build, compaction)
///   finalizeDelta()  per-node region rewrite for the nodes incident to
///                    freed/added edges only — O(edit), not O(graph)
///
/// The delta path relies on per-node offset stride 8 (each node carries
/// its own end boundary), so a grown region can relocate to the array
/// tail without shifting any other node's region.  Accumulated slack
/// (dead edge slots + relocation holes) above half the live size
/// triggers a compacting full pack.
///
/// Both paths also write the call-site views of the Entry in-buckets and
/// Exit out-buckets, from the buckets they have just packed.
///
/// All persistent storage is copy-on-write chunked (see PAG.h): serial
/// mutation goes through the CoW accessors, and each parallel write
/// phase is preceded by a serial pass that uniquifies its destination
/// chunks, so workers only ever write chunks this graph owns
/// exclusively.
///
//===----------------------------------------------------------------------===//

#include "pag/PAG.h"

#include "support/Debug.h"
#include "support/OStream.h"
#include "support/Parallel.h"

#include <algorithm>
#include <cassert>
#include <functional>

using namespace dynsum;
using namespace dynsum::pag;

/// The call kind whose bucket a direction's call-site view re-sorts.
static EdgeKind siteViewKind(bool In) {
  return In ? EdgeKind::Entry : EdgeKind::Exit;
}

const char *dynsum::pag::edgeKindName(EdgeKind K) {
  switch (K) {
  case EdgeKind::New:
    return "new";
  case EdgeKind::Assign:
    return "assign";
  case EdgeKind::Load:
    return "load";
  case EdgeKind::Store:
    return "store";
  case EdgeKind::AssignGlobal:
    return "assignglobal";
  case EdgeKind::Entry:
    return "entry";
  case EdgeKind::Exit:
    return "exit";
  }
  unreachable("bad edge kind");
}

double PAGStats::locality() const {
  uint64_t Local = EdgesByKind[unsigned(EdgeKind::New)] +
                   EdgesByKind[unsigned(EdgeKind::Assign)] +
                   EdgesByKind[unsigned(EdgeKind::Load)] +
                   EdgesByKind[unsigned(EdgeKind::Store)];
  uint64_t Total = totalEdges();
  return Total == 0 ? 1.0 : double(Local) / double(Total);
}

uint64_t PAGStats::totalEdges() const {
  uint64_t Total = 0;
  for (uint64_t N : EdgesByKind)
    Total += N;
  return Total;
}

//===----------------------------------------------------------------------===//
// Construction
//===----------------------------------------------------------------------===//

NodeId PAG::addNode(NodeKind Kind, uint32_t IrId, ir::MethodId Method) {
  NodeId Id = NodeId(Nodes.size());
  Node N;
  N.Kind = Kind;
  N.IrId = IrId;
  N.Method = Method;
  Nodes.push_back(N);
  if (Kind == NodeKind::Object) {
    if (AllocToNode.size() <= IrId)
      AllocToNode.resize(IrId + 1, ir::kNone);
    assert(AllocToNode[IrId] == ir::kNone && "allocation site re-added");
    AllocToNode.mutableAt(IrId) = Id;
    if (NumBuiltAllocs <= IrId)
      NumBuiltAllocs = IrId + 1;
  } else {
    if (VarToNode.size() <= IrId)
      VarToNode.resize(IrId + 1, ir::kNone);
    assert(VarToNode[IrId] == ir::kNone && "variable re-added");
    VarToNode.mutableAt(IrId) = Id;
    if (NumBuiltVars <= IrId)
      NumBuiltVars = IrId + 1;
  }
  return Id;
}

void PAG::beginSegment(ir::MethodId M) {
  assert(OpenSegment == ir::kNone && "nested beginSegment");
  if (Segments.size() <= M)
    Segments.resize(M + 1);
  // Free the segment's previous edges.  Their bucket membership is
  // captured into the pending scratch *now*, before slot reuse can
  // overwrite the edge payloads.
  std::vector<EdgeId> &Seg = Segments.mutableAt(M);
  for (EdgeId E : Seg) {
    assert(!EdgeDead[E] && "segment edge already dead");
    EdgeDead.mutableAt(E) = true;
    FreeSlots.push_back(E);
    PendingDead.push_back(E);
    PendingDeadMeta.push_back(Edges[E]);
    --NumAliveEdges;
  }
  Seg.clear();
  OpenSegment = M;
}

void PAG::endSegment() {
  assert(OpenSegment != ir::kNone && "endSegment without beginSegment");
  OpenSegment = ir::kNone;
}

EdgeId PAG::allocEdgeSlot(const Edge &E) {
  if (!FreeSlots.empty()) {
    EdgeId Id = FreeSlots.back();
    FreeSlots.pop_back();
    Edges.mutableAt(Id) = E;
    EdgeDead.mutableAt(Id) = false;
    return Id;
  }
  EdgeId Id = EdgeId(Edges.size());
  Edges.push_back(E);
  EdgeDead.push_back(false);
  return Id;
}

EdgeId PAG::addEdge(NodeId Src, NodeId Dst, EdgeKind Kind, uint32_t Aux,
                    bool ContextFree) {
  assert(OpenSegment != ir::kNone && "addEdge outside a segment");
  assert(Src < Nodes.size() && Dst < Nodes.size() && "edge endpoint range");
  Edge E;
  E.Src = Src;
  E.Dst = Dst;
  E.Kind = Kind;
  E.Aux = Aux;
  E.ContextFree = ContextFree;
  EdgeId Id = allocEdgeSlot(E);
  ++NumAliveEdges;
  Segments.mutableAt(OpenSegment).push_back(Id);
  PendingNew.push_back(Id);
  return Id;
}

//===----------------------------------------------------------------------===//
// Full pack
//===----------------------------------------------------------------------===//

void PAG::compactEdgeSlots() {
  if (FreeSlots.empty())
    return;
  std::vector<EdgeId> Remap(Edges.size(), ir::kNone);
  size_t Next = 0;
  for (EdgeId E = 0; E < Edges.size(); ++E) {
    if (EdgeDead[E])
      continue;
    Remap[E] = EdgeId(Next);
    if (Next != E) {
      Edge Tmp = Edges[E]; // copy first: mutableAt may replace E's chunk
      Edges.mutableAt(Next) = Tmp;
    }
    ++Next;
  }
  Edges.resize(Next);
  EdgeDead.assign(Next, false);
  FreeSlots.clear();
  for (size_t M = 0; M < Segments.size(); ++M) {
    if (Segments[M].empty())
      continue;
    for (EdgeId &E : Segments.mutableAt(M))
      E = Remap[E];
  }
}

void PAG::packDirection(bool In) {
  FlatTable &Flat = In ? InFlat : OutFlat;
  OffsetTable &Off = In ? InOff : OutOff;
  size_t NumSlots = Nodes.size() * kOffsetStride;

  // Counting sort of edge ids into (node, kind) buckets: one counting
  // pass, one placement-assignment pass, one scatter pass.  The
  // scatter iterates edges in id order, so each bucket keeps edge-id
  // (i.e. insertion) order — full rebuilds are bit-for-bit
  // deterministic.  Placement goes through placeRegion so no node's
  // region straddles a chunk boundary (pads to the next chunk instead).
  std::vector<uint32_t> Count(Nodes.size() * kNumEdgeKinds, 0);
  for (EdgeId Id = 0; Id < Edges.size(); ++Id) {
    const Edge &E = Edges[Id];
    ++Count[size_t(In ? E.Dst : E.Src) * kNumEdgeKinds + unsigned(E.Kind)];
  }

  Flat.reset();
  Off.assign(NumSlots, 0);
  std::vector<uint32_t> Cursor(Count.size());
  for (size_t N = 0; N < Nodes.size(); ++N) {
    size_t RegionSize = 0;
    for (unsigned K = 0; K < kNumEdgeKinds; ++K)
      RegionSize += Count[N * kNumEdgeKinds + K];
    uint32_t Run = uint32_t(Flat.placeRegion(RegionSize));
    for (unsigned K = 0; K < kNumEdgeKinds; ++K) {
      Off.rawAt(N * kOffsetStride + K) = Run;
      Cursor[N * kNumEdgeKinds + K] = Run;
      Run += Count[N * kNumEdgeKinds + K];
    }
    Off.rawAt(N * kOffsetStride + kNumEdgeKinds) = Run;
  }

  for (EdgeId Id = 0; Id < Edges.size(); ++Id) {
    const Edge &E = Edges[Id];
    Flat.rawAt(Cursor[size_t(In ? E.Dst : E.Src) * kNumEdgeKinds +
                      unsigned(E.Kind)]++) = Id;
  }

  FlatTable &Site = In ? InSiteFlat : OutSiteFlat;
  OffsetTable &SiteOff = In ? InSiteOff : OutSiteOff;
  unsigned CK = unsigned(siteViewKind(In));
  Site.reset();
  SiteOff.assign(Nodes.size(), 0);
  std::vector<uint64_t> Keys;
  for (size_t N = 0; N < Nodes.size(); ++N) {
    uint32_t Calls = Count[N * kNumEdgeKinds + CK];
    if (Calls == 0)
      continue;
    uint32_t Begin = uint32_t(Site.placeRegion(Calls));
    SiteOff.rawAt(N) = Begin;
    sortBySite(Flat.addr(Off[N * kOffsetStride + CK]), Calls,
               Site.regionPtr(Begin), Keys);
  }
}

void PAG::sortBySite(const EdgeId *Bucket, size_t Count, EdgeId *View,
                     std::vector<uint64_t> &Keys) const {
  // Lowering visits callers in method order, and call-site ids follow
  // it, so most buckets are in site order already.
  size_t Sorted = 1;
  while (Sorted < Count &&
         Edges[Bucket[Sorted - 1]].Aux <= Edges[Bucket[Sorted]].Aux)
    ++Sorted;
  if (Sorted >= Count) {
    std::copy(Bucket, Bucket + Count, View);
    return;
  }
  Keys.resize(Count);
  for (size_t I = 0; I < Count; ++I)
    Keys[I] = (uint64_t(Edges[Bucket[I]].Aux) << 32) | I;
  std::sort(Keys.begin(), Keys.end());
  for (size_t I = 0; I < Count; ++I)
    View[I] = Bucket[uint32_t(Keys[I])];
}

void PAG::ensureOffsetCoverage() {
  InOff.resize(Nodes.size() * kOffsetStride, 0);
  OutOff.resize(Nodes.size() * kOffsetStride, 0);
  InSiteOff.resize(Nodes.size(), 0);
  OutSiteOff.resize(Nodes.size(), 0);
  FieldStoreOff.resize(Prog.fields().size() * 2, 0);
  FieldLoadOff.resize(Prog.fields().size() * 2, 0);
}

void PAG::finalize() {
  assert(OpenSegment == ir::kNone &&
         "finalize with an open segment (partial populate)");
  if (Finalized && PendingDead.empty() && PendingNew.empty() &&
      FreeSlots.empty() && csrHoleSlots() == 0) {
    // Idempotent: nothing changed since the last pack and the arrays
    // are already dense; at most extend coverage over freshly added
    // (still edgeless) nodes.  With dead slots or relocation holes
    // present the full pack below runs, honoring the contract that
    // finalize() always leaves a compact, densely numbered graph.
    ensureOffsetCoverage();
    return;
  }

  compactEdgeSlots();
  packDirection(/*In=*/true);
  packDirection(/*In=*/false);

  // Field-indexed CSR over store/load edges.
  size_t NumFields = Prog.fields().size();
  FieldStoreOff.assign(NumFields * 2, 0);
  FieldLoadOff.assign(NumFields * 2, 0);
  std::vector<uint32_t> StoreCount(NumFields, 0), LoadCount(NumFields, 0);
  for (EdgeId Id = 0; Id < Edges.size(); ++Id) {
    const Edge &E = Edges[Id];
    if (E.Kind == EdgeKind::Store)
      ++StoreCount[E.Aux];
    else if (E.Kind == EdgeKind::Load)
      ++LoadCount[E.Aux];
  }
  FieldStoreFlat.reset();
  FieldLoadFlat.reset();
  std::vector<uint32_t> StoreCursor(NumFields), LoadCursor(NumFields);
  for (size_t F = 0; F < NumFields; ++F) {
    uint32_t SB = uint32_t(FieldStoreFlat.placeRegion(StoreCount[F]));
    FieldStoreOff.rawAt(F * 2) = SB;
    FieldStoreOff.rawAt(F * 2 + 1) = SB + StoreCount[F];
    StoreCursor[F] = SB;
    uint32_t LB = uint32_t(FieldLoadFlat.placeRegion(LoadCount[F]));
    FieldLoadOff.rawAt(F * 2) = LB;
    FieldLoadOff.rawAt(F * 2 + 1) = LB + LoadCount[F];
    LoadCursor[F] = LB;
  }
  for (EdgeId Id = 0; Id < Edges.size(); ++Id) {
    const Edge &E = Edges[Id];
    if (E.Kind == EdgeKind::Store)
      FieldStoreFlat.rawAt(StoreCursor[E.Aux]++) = Id;
    else if (E.Kind == EdgeKind::Load)
      FieldLoadFlat.rawAt(LoadCursor[E.Aux]++) = Id;
  }

  // Rederive every node's boundary flags from the live edge set.
  for (size_t N = 0; N < Nodes.size(); ++N) {
    Node &Nd = Nodes.mutableAt(N);
    Nd.HasLocalEdge = Nd.HasGlobalIn = Nd.HasGlobalOut = false;
    Nd.ContextFreeEntryIn = Nd.ContextFreeExitOut = false;
  }
  for (EdgeId Id = 0; Id < Edges.size(); ++Id) {
    const Edge E = Edges[Id]; // by value: mutableAt may move chunks
    if (isLocalEdgeKind(E.Kind)) {
      Nodes.mutableAt(E.Src).HasLocalEdge = true;
      Nodes.mutableAt(E.Dst).HasLocalEdge = true;
    } else {
      Nodes.mutableAt(E.Dst).HasGlobalIn = true;
      Nodes.mutableAt(E.Src).HasGlobalOut = true;
    }
    if (E.ContextFree && E.Kind == EdgeKind::Entry)
      Nodes.mutableAt(E.Dst).ContextFreeEntryIn = true;
    if (E.ContextFree && E.Kind == EdgeKind::Exit)
      Nodes.mutableAt(E.Src).ContextFreeExitOut = true;
  }

  FlatHoles = FieldHoles = SiteHoles = 0;
  PendingDead.clear();
  PendingDeadMeta.clear();
  PendingNew.clear();
  Finalized = true;
}

//===----------------------------------------------------------------------===//
// Incremental repack
//===----------------------------------------------------------------------===//

void PAG::rederiveFlags(NodeId N) {
  Node &Nd = Nodes.rawAt(N);
  Nd.HasLocalEdge = Nd.HasGlobalIn = Nd.HasGlobalOut = false;
  Nd.ContextFreeEntryIn = Nd.ContextFreeExitOut = false;
  for (EdgeId E : inEdges(N)) {
    if (isLocalEdgeKind(Edges[E].Kind))
      Nd.HasLocalEdge = true;
    else
      Nd.HasGlobalIn = true;
  }
  for (EdgeId E : outEdges(N)) {
    if (isLocalEdgeKind(Edges[E].Kind))
      Nd.HasLocalEdge = true;
    else
      Nd.HasGlobalOut = true;
  }
  for (EdgeId E : inEdgesOfKind(N, EdgeKind::Entry))
    Nd.ContextFreeEntryIn |= Edges[E].ContextFree;
  for (EdgeId E : outEdgesOfKind(N, EdgeKind::Exit))
    Nd.ContextFreeExitOut |= Edges[E].ContextFree;
}

namespace {

/// (node*kinds + kind, edge) pairs sorted by bucket: the per-bucket
/// addition lists of one repack, range-scanned per affected node.
struct BucketAdds {
  std::vector<std::pair<uint64_t, EdgeId>> Pairs;

  void add(NodeId N, EdgeKind K, EdgeId E) {
    Pairs.emplace_back(uint64_t(N) * kNumEdgeKinds + unsigned(K), E);
  }
  void sort() {
    std::stable_sort(
        Pairs.begin(), Pairs.end(),
        [](const auto &A, const auto &B) { return A.first < B.first; });
  }
  /// Appends the additions of bucket (N, K) to \p Out.
  void appendTo(NodeId N, EdgeKind K, std::vector<EdgeId> &Out) const {
    uint64_t Key = uint64_t(N) * kNumEdgeKinds + unsigned(K);
    auto It = std::lower_bound(Pairs.begin(), Pairs.end(), Key,
                               [](const auto &P, uint64_t K2) {
                                 return P.first < K2;
                               });
    for (; It != Pairs.end() && It->first == Key; ++It)
      Out.push_back(It->second);
  }
};

} // namespace

void PAG::repackNodes(const std::vector<NodeId> &AffectedNodes,
                      const std::vector<char> &Freed, unsigned Threads) {
  BucketAdds InAdds, OutAdds;
  for (EdgeId E : PendingNew) {
    const Edge &Ed = Edges[E];
    InAdds.add(Ed.Dst, Ed.Kind, E);
    OutAdds.add(Ed.Src, Ed.Kind, E);
  }
  InAdds.sort();
  OutAdds.sort();

  // Offset tables may be short when nodes were added since the last
  // pack: new nodes get empty regions at offset 0.
  InOff.resize(Nodes.size() * kOffsetStride, 0);
  OutOff.resize(Nodes.size() * kOffsetStride, 0);

  // Three phases per direction, bit-identical to the old serial loop at
  // every thread count:
  //
  //   gather   (parallel)  workers own disjoint ranges of the sorted
  //                        dirty node list and compute each node's new
  //                        region contents + kind bounds from the old
  //                        CSR, the freed marks and the add lists;
  //   place    (serial)    one pass over the nodes in order replays the
  //                        serial placement policy exactly — rewrite in
  //                        place when the region still fits, otherwise
  //                        relocate via placeRegion — and uniquifies
  //                        every destination chunk (flat regions and
  //                        offset entries) while still serial;
  //   scatter  (parallel)  workers copy their regions into their now
  //                        disjoint, exclusively owned destination
  //                        ranges and write the offset entries raw.
  //
  // The call-site view rides along: the place pass sizes it from the
  // old and new call bucket, the scatter sorts the new bucket into it.
  size_t NumAffected = AffectedNodes.size();
  std::vector<std::vector<EdgeId>> Regions(NumAffected);
  std::vector<uint32_t> Bounds(NumAffected * kOffsetStride);
  std::vector<uint32_t> Begins(NumAffected), SiteBegins(NumAffected);

  auto RebuildDirection = [&](bool In) {
    FlatTable &Flat = In ? InFlat : OutFlat;
    OffsetTable &Off = In ? InOff : OutOff;
    FlatTable &Site = In ? InSiteFlat : OutSiteFlat;
    OffsetTable &SiteOff = In ? InSiteOff : OutSiteOff;
    unsigned CK = unsigned(siteViewKind(In));
    const BucketAdds &Adds = In ? InAdds : OutAdds;

    parallelChunks(NumAffected, Threads,
                   [&](size_t ChunkBegin, size_t ChunkEnd, unsigned) {
                     for (size_t I = ChunkBegin; I < ChunkEnd; ++I) {
                       NodeId N = AffectedNodes[I];
                       size_t Base = size_t(N) * kOffsetStride;
                       std::vector<EdgeId> &Region = Regions[I];
                       Region.clear();
                       for (unsigned K = 0; K < kNumEdgeKinds; ++K) {
                         Bounds[I * kOffsetStride + K] =
                             uint32_t(Region.size());
                         uint32_t BB = Off[Base + K];
                         uint32_t BE = Off[Base + K + 1];
                         if (BB != BE) {
                           const EdgeId *P = Flat.addr(BB);
                           for (uint32_t X = 0; X < BE - BB; ++X) {
                             EdgeId E = P[X];
                             if (!Freed[E])
                               Region.push_back(E);
                           }
                         }
                         Adds.appendTo(N, EdgeKind(K), Region);
                       }
                       Bounds[I * kOffsetStride + kNumEdgeKinds] =
                           uint32_t(Region.size());
                     }
                   });

    for (size_t I = 0; I < NumAffected; ++I) {
      size_t Base = size_t(AffectedNodes[I]) * kOffsetStride;
      size_t OldBegin = Off[Base];
      size_t OldSize = Off[Base + kNumEdgeKinds] - OldBegin;
      if (Regions[I].size() <= OldSize) {
        Begins[I] = uint32_t(OldBegin); // in place; trailing slack holes
        FlatHoles += OldSize - Regions[I].size();
        if (!Regions[I].empty())
          Flat.ensureUniqueRegion(OldBegin);
      } else {
        Begins[I] = uint32_t(Flat.placeRegion(Regions[I].size()));
        FlatHoles += OldSize;
      }
      size_t OldCalls = Off[Base + CK + 1] - Off[Base + CK];
      size_t NewCalls = Bounds[I * kOffsetStride + CK + 1] -
                        Bounds[I * kOffsetStride + CK];
      if (NewCalls <= OldCalls) {
        SiteBegins[I] = SiteOff[AffectedNodes[I]];
        SiteHoles += OldCalls - NewCalls;
        if (NewCalls != 0)
          Site.ensureUniqueRegion(SiteBegins[I]);
      } else {
        SiteBegins[I] = uint32_t(Site.placeRegion(NewCalls));
        SiteHoles += OldCalls;
      }
      // A node's eight offsets share a chunk (stride divides the chunk
      // size); uniquify it here so the scatter may write raw.
      Off.ensureWritable(Base);
      SiteOff.ensureWritable(AffectedNodes[I]);
    }

    parallelChunks(NumAffected, Threads,
                   [&](size_t ChunkBegin, size_t ChunkEnd, unsigned) {
                     std::vector<uint64_t> Keys;
                     for (size_t I = ChunkBegin; I < ChunkEnd; ++I) {
                       NodeId N = AffectedNodes[I];
                       size_t Base = size_t(N) * kOffsetStride;
                       const uint32_t *B = &Bounds[I * kOffsetStride];
                       if (!Regions[I].empty())
                         std::copy(Regions[I].begin(), Regions[I].end(),
                                   Flat.regionPtr(Begins[I]));
                       for (unsigned K = 0; K < kOffsetStride; ++K)
                         Off.rawAt(Base + K) = Begins[I] + B[K];
                       if (B[CK + 1] != B[CK])
                         sortBySite(Regions[I].data() + B[CK],
                                    B[CK + 1] - B[CK],
                                    Site.regionPtr(SiteBegins[I]), Keys);
                       SiteOff.rawAt(N) = SiteBegins[I];
                     }
                   });
  };

  RebuildDirection(/*In=*/true);
  RebuildDirection(/*In=*/false);

  for (NodeId N : AffectedNodes)
    Nodes.ensureWritable(N);
  parallelChunks(NumAffected, Threads,
                 [&](size_t ChunkBegin, size_t ChunkEnd, unsigned) {
                   for (size_t I = ChunkBegin; I < ChunkEnd; ++I)
                     rederiveFlags(AffectedNodes[I]);
                 });
}

void PAG::repackFields(const std::vector<ir::FieldId> &AffectedFields,
                       const std::vector<char> &Freed, unsigned Threads) {
  size_t NumFields = Prog.fields().size();
  FieldStoreOff.resize(NumFields * 2, 0);
  FieldLoadOff.resize(NumFields * 2, 0);

  // Per-field addition lists from the new edges.
  std::vector<std::pair<ir::FieldId, EdgeId>> StoreAdds, LoadAdds;
  for (EdgeId E : PendingNew) {
    const Edge &Ed = Edges[E];
    if (Ed.Kind == EdgeKind::Store)
      StoreAdds.emplace_back(Ed.Aux, E);
    else if (Ed.Kind == EdgeKind::Load)
      LoadAdds.emplace_back(Ed.Aux, E);
  }
  auto ByField = [](const auto &A, const auto &B) {
    return A.first < B.first;
  };
  std::stable_sort(StoreAdds.begin(), StoreAdds.end(), ByField);
  std::stable_sort(LoadAdds.begin(), LoadAdds.end(), ByField);

  // Same gather / place / scatter structure as repackNodes, over the
  // affected field list.
  size_t NumAffected = AffectedFields.size();
  std::vector<std::vector<EdgeId>> Regions(NumAffected);
  std::vector<uint32_t> Begins(NumAffected);

  auto RebuildDirection = [&](bool IsStore) {
    FlatTable &Flat = IsStore ? FieldStoreFlat : FieldLoadFlat;
    OffsetTable &Off = IsStore ? FieldStoreOff : FieldLoadOff;
    const auto &Adds = IsStore ? StoreAdds : LoadAdds;

    parallelChunks(NumAffected, Threads,
                   [&](size_t ChunkBegin, size_t ChunkEnd, unsigned) {
                     for (size_t I = ChunkBegin; I < ChunkEnd; ++I) {
                       ir::FieldId F = AffectedFields[I];
                       std::vector<EdgeId> &Region = Regions[I];
                       Region.clear();
                       uint32_t BB = Off[F * 2];
                       uint32_t BE = Off[F * 2 + 1];
                       if (BB != BE) {
                         const EdgeId *P = Flat.addr(BB);
                         for (uint32_t X = 0; X < BE - BB; ++X)
                           if (!Freed[P[X]])
                             Region.push_back(P[X]);
                       }
                       auto It = std::lower_bound(
                           Adds.begin(), Adds.end(), F,
                           [](const auto &P2, ir::FieldId F2) {
                             return P2.first < F2;
                           });
                       for (; It != Adds.end() && It->first == F; ++It)
                         Region.push_back(It->second);
                     }
                   });

    for (size_t I = 0; I < NumAffected; ++I) {
      ir::FieldId F = AffectedFields[I];
      size_t OldBegin = Off[F * 2];
      size_t OldSize = Off[F * 2 + 1] - OldBegin;
      if (Regions[I].size() <= OldSize) {
        Begins[I] = uint32_t(OldBegin);
        FieldHoles += OldSize - Regions[I].size();
        if (!Regions[I].empty())
          Flat.ensureUniqueRegion(OldBegin);
      } else {
        Begins[I] = uint32_t(Flat.placeRegion(Regions[I].size()));
        FieldHoles += OldSize;
      }
      // A field's [begin, end) pair shares a chunk (2 divides the
      // chunk size).
      Off.ensureWritable(F * 2);
    }

    parallelChunks(NumAffected, Threads,
                   [&](size_t ChunkBegin, size_t ChunkEnd, unsigned) {
                     for (size_t I = ChunkBegin; I < ChunkEnd; ++I) {
                       ir::FieldId F = AffectedFields[I];
                       if (!Regions[I].empty())
                         std::copy(Regions[I].begin(), Regions[I].end(),
                                   Flat.regionPtr(Begins[I]));
                       Off.rawAt(F * 2) = Begins[I];
                       Off.rawAt(F * 2 + 1) =
                           uint32_t(Begins[I] + Regions[I].size());
                     }
                   });
  };

  RebuildDirection(/*IsStore=*/true);
  RebuildDirection(/*IsStore=*/false);
}

void PAG::finalizeDelta(unsigned Threads) {
  assert(OpenSegment == ir::kNone &&
         "finalizeDelta with an open segment (partial populate)");
  LastRepackAffected.clear();
  if (!Finalized) {
    finalize();
    LastRepackCompacted = true;
    return;
  }
  ensureOffsetCoverage();
  if (PendingDead.empty() && PendingNew.empty()) {
    LastRepackCompacted = false;
    return;
  }

  // Compaction policy: when dead slots + relocation holes exceed half
  // the live size, a full pack is both cheaper long-term and keeps the
  // arrays cache-dense.  (Chunk-alignment padding is excluded: a full
  // pack would re-pad, so counting it could trigger compaction every
  // round without reducing it.)
  size_t Slack = deadEdgeSlots() + csrHoleSlots();
  if (Slack > NumAliveEdges / 2 + 1024) {
    finalize();
    LastRepackCompacted = true;
    return;
  }

  // Affected nodes/fields: endpoints and labels of every freed or added
  // edge.  Freed endpoints come from PendingDeadMeta — the payload
  // snapshot taken at free time — because a freed slot may since have
  // been reused and overwritten by a new edge.
  std::vector<NodeId> AffectedNodes;
  std::vector<ir::FieldId> AffectedFields;
  auto Touch = [&](const Edge &E) {
    AffectedNodes.push_back(E.Src);
    AffectedNodes.push_back(E.Dst);
    if (E.Kind == EdgeKind::Store || E.Kind == EdgeKind::Load)
      AffectedFields.push_back(E.Aux);
  };
  for (const Edge &E : PendingDeadMeta)
    Touch(E);
  for (EdgeId E : PendingNew)
    Touch(Edges[E]);
  std::sort(AffectedNodes.begin(), AffectedNodes.end());
  AffectedNodes.erase(
      std::unique(AffectedNodes.begin(), AffectedNodes.end()),
      AffectedNodes.end());
  std::sort(AffectedFields.begin(), AffectedFields.end());
  AffectedFields.erase(
      std::unique(AffectedFields.begin(), AffectedFields.end()),
      AffectedFields.end());

  // Freed-this-round marks: a slot freed by beginSegment this round is
  // filtered out of every surviving bucket, even if the slot was
  // immediately reused (its new incarnation arrives via the add
  // lists).  Built once, shared by both repack passes.
  std::vector<char> Freed(Edges.size(), 0);
  for (EdgeId E : PendingDead)
    Freed[E] = 1;

  repackNodes(AffectedNodes, Freed, Threads);
  repackFields(AffectedFields, Freed, Threads);

  PendingDead.clear();
  PendingDeadMeta.clear();
  PendingNew.clear();
  LastRepackCompacted = false;
  LastRepackAffected = std::move(AffectedNodes);
}

//===----------------------------------------------------------------------===//
// Reading
//===----------------------------------------------------------------------===//

EdgeSpan PAG::storesOfField(ir::FieldId F) const {
  assert(Finalized && "PAG not finalized");
  assert(F < Prog.fields().size() && "field id out of range");
  if (F * 2 >= FieldStoreOff.size())
    return EdgeSpan(); // field created after the last pack, no edges yet
  return spanOf(FieldStoreFlat, FieldStoreOff, F * 2, F * 2 + 1);
}

EdgeSpan PAG::loadsOfField(ir::FieldId F) const {
  assert(Finalized && "PAG not finalized");
  assert(F < Prog.fields().size() && "field id out of range");
  if (F * 2 >= FieldLoadOff.size())
    return EdgeSpan();
  return spanOf(FieldLoadFlat, FieldLoadOff, F * 2, F * 2 + 1);
}

EdgeSpan PAG::callEdgesBySite(NodeId N, EdgeKind K) const {
  assert((K == EdgeKind::Entry || K == EdgeKind::Exit) &&
         "call-site views cover Entry in-buckets and Exit out-buckets");
  bool In = K == EdgeKind::Entry;
  size_t Base = size_t(N) * kOffsetStride + unsigned(K);
  const OffsetTable &Off = In ? InOff : OutOff;
  uint32_t Count = Off[Base + 1] - Off[Base];
  if (Count == 0)
    return EdgeSpan();
  const EdgeId *P = In ? InSiteFlat.addr(InSiteOff[N])
                       : OutSiteFlat.addr(OutSiteOff[N]);
  return EdgeSpan(P, P + Count);
}

EdgeSpan PAG::callEdgesAtSite(NodeId N, EdgeKind K,
                              ir::CallSiteId Site) const {
  EdgeSpan View = callEdgesBySite(N, K);
  const EdgeId *Lo = std::lower_bound(
      View.begin(), View.end(), Site,
      [this](EdgeId E, ir::CallSiteId S) { return Edges[E].Aux < S; });
  // A call site feeds a formal (or a receiver) through one edge, so
  // the run is short: walk it rather than search again.
  const EdgeId *Hi = Lo;
  while (Hi != View.end() && Edges[*Hi].Aux == Site)
    ++Hi;
  return EdgeSpan(Lo, Hi);
}

ir::AllocId PAG::allocOf(NodeId N) const {
  assert(isObject(N) && "allocOf on a variable node");
  return Nodes[N].IrId;
}

std::string PAG::describe(NodeId N) const {
  const Node &Nd = Nodes[N];
  if (Nd.Kind == NodeKind::Object)
    return Prog.describeAlloc(Nd.IrId);
  return Prog.describeVar(Nd.IrId);
}

PAGStats PAG::stats() const {
  PAGStats S;
  S.NumMethods = Prog.methods().size();
  for (size_t I = 0; I < Nodes.size(); ++I) {
    switch (Nodes[I].Kind) {
    case NodeKind::Object:
      ++S.NumObjects;
      break;
    case NodeKind::Local:
      ++S.NumLocals;
      break;
    case NodeKind::Global:
      ++S.NumGlobals;
      break;
    }
  }
  for (EdgeId E = 0; E < Edges.size(); ++E)
    if (!EdgeDead[E])
      ++S.EdgesByKind[unsigned(Edges[E].Kind)];
  return S;
}

PAGMemoryStats PAG::memoryStats() const {
  support::ChunkMemoryStats C;
  C += Nodes.memory();
  C += Edges.memory();
  C += EdgeDead.memory();
  C += Segments.memory();
  C += InFlat.memory();
  C += OutFlat.memory();
  C += InOff.memory();
  C += OutOff.memory();
  C += FieldStoreFlat.memory();
  C += FieldLoadFlat.memory();
  C += FieldStoreOff.memory();
  C += FieldLoadOff.memory();
  C += InSiteFlat.memory();
  C += OutSiteFlat.memory();
  C += InSiteOff.memory();
  C += OutSiteOff.memory();
  C += VarToNode.memory();
  C += AllocToNode.memory();
  C += BuiltBodyFp.memory();
  C += BuiltIfaceFp.memory();
  C += BuiltShapeFp.memory();

  PAGMemoryStats S;
  S.Chunks = C.Chunks;
  S.SharedChunks = C.SharedChunks;
  S.TotalBytes = C.TotalBytes + C.TableBytes;
  S.SharedBytes = C.SharedBytes;

  // The segment table's chunks hold vector objects whose heap blocks
  // the generic accounting cannot see; attribute each segment's heap
  // to the sharing state of its chunk.
  for (size_t M = 0; M < Segments.size(); ++M) {
    size_t Heap = Segments[M].capacity() * sizeof(EdgeId);
    S.TotalBytes += Heap;
    if (Segments.sharedAt(M))
      S.SharedBytes += Heap;
  }

  S.RetainedBytes = S.TotalBytes - S.SharedBytes;
  S.ScratchBytes = FreeSlots.capacity() * sizeof(EdgeId) +
                   PendingDead.capacity() * sizeof(EdgeId) +
                   PendingDeadMeta.capacity() * sizeof(Edge) +
                   PendingNew.capacity() * sizeof(EdgeId);
  return S;
}

void PAG::dump(OStream &OS) const {
  OS << "PAG: " << uint64_t(Nodes.size()) << " nodes, "
     << uint64_t(NumAliveEdges) << " edges\n";
  for (EdgeId Id = 0; Id < Edges.size(); ++Id) {
    if (EdgeDead[Id])
      continue;
    const Edge &E = Edges[Id];
    OS << "  " << describe(E.Src) << " --" << edgeKindName(E.Kind);
    if (E.Kind == EdgeKind::Load || E.Kind == EdgeKind::Store)
      OS << '(' << Prog.names().text(Prog.fields()[E.Aux].Name) << ')';
    else if (E.Kind == EdgeKind::Entry || E.Kind == EdgeKind::Exit) {
      const ir::CallSite &CS = Prog.callSite(E.Aux);
      OS << '[' << (CS.Label != ir::kNone ? CS.Label : CS.Id) << ']';
    }
    if (E.ContextFree)
      OS << "{rec}";
    OS << "--> " << describe(E.Dst) << '\n';
  }
}
