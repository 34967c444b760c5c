//===----------------------------------------------------------------------===//
///
/// \file
/// The Pointer Assignment Graph of the paper's Figure 1.
///
/// Nodes are objects (allocation sites), local variables and global
/// variables.  Edges point in the direction of value flow and carry one
/// of the seven labels:
///
///   local edges   new, assign, load(f), store(f)
///   global edges  assignglobal, entry_i, exit_i
///
/// Orientation conventions (pinned here; every analysis cites them):
///   o --new--> v            v = new ...          (object o flows into v)
///   x --assign--> y         y = x
///   base --load(f)--> dst   dst = base.f         (edge leaves the BASE)
///   val --store(f)--> base  base.f = val         (edge enters the BASE)
///   actual --entry_i--> formal                   (call at site i)
///   ret --exit_i--> recv                         (return at site i)
///
/// The paper's algorithm listings traverse flowsTo-bar and therefore
/// write every edge inverted; the implementation comments map each
/// listing line to this storage orientation.
///
/// Identity and deltas: node ids are STABLE ACROSS EDITS.  The node
/// table is keyed by the program's append-only variable/allocation-site
/// ids (which the IR keys by (method, symbol/site)); a node is created
/// the first time its variable or site is seen and keeps its id for the
/// graph's lifetime.  Edges are owned by per-method SEGMENTS: every
/// edge originates from lowering one method's statements, and a delta
/// build (PAGBuilder::buildPAGDelta) re-lowers only the edited methods'
/// segments, leaving every other segment — and every node id — alone.
/// Edge slot ids of untouched segments are stable too; only the edited
/// segments' slots are freed and reused.  (EdgeIds are an internal
/// addressing scheme, not an API contract across commits.)
///
/// Read-side storage is kind-partitioned CSR: finalize() packs all
/// in/out edge ids into two flat arrays with per-(node, kind) offset
/// tables, so the traversal hot paths iterate a contiguous span per
/// kind (inEdgesOfKind) instead of switching on kind per edge.  Each
/// node stores its own eight bucket boundaries (7 kinds + its end), so
/// a node's region can be relocated independently: the incremental
/// repack after a delta build rewrites only the regions of nodes
/// incident to re-lowered segments (growing regions move to the array
/// tail, leaving holes that a slack-triggered compaction reclaims).
/// The whole-node views (inEdges/outEdges) remain as spans over the
/// same arrays for callers that still want every kind.
///
/// Call-site views: each node's Entry in-bucket and Exit out-bucket is
/// also stored re-sorted by (call site, position in the bucket), on the
/// same chunked region scheme, so Algorithm 4 finds the edges that pop
/// a context's top site by binary search (callEdgesAtSite) instead of
/// scanning every caller.  The buckets themselves keep their order: the
/// empty-context rule still pushes every caller in bucket order.
///
/// Generation storage: every persistent member lives on copy-on-write
/// chunk tables (support/ChunkedStorage.h).  Copying a PAG copies the
/// tables — O(#chunks) refcount bumps, no element copies — and the copy
/// shares every chunk with its parent until one of them writes, so the
/// commit pipeline's generation snapshot costs O(delta), not O(graph),
/// and a retained generation's exclusive footprint is proportional to
/// the edits made since it was captured (memoryStats() reports it).
/// The CSR flat arrays additionally guarantee that a node's region
/// never straddles a chunk boundary, keeping EdgeSpan a plain pointer
/// pair.
///
//===----------------------------------------------------------------------===//

#ifndef DYNSUM_PAG_PAG_H
#define DYNSUM_PAG_PAG_H

#include "ir/Program.h"
#include "support/ChunkedStorage.h"

#include <cstdint>
#include <string>
#include <vector>

namespace dynsum {

class OStream;

namespace pag {

class PAG;
class CallGraph;
class TargetResolver;
struct DeltaStats;

/// Defined in PAGBuilder.h; declared here so the delta builder can be
/// befriended without an include cycle.
DeltaStats buildPAGDelta(PAG &G, CallGraph &Calls,
                         const TargetResolver *Resolver, bool ForceFull,
                         unsigned Threads);

using NodeId = uint32_t;
using EdgeId = uint32_t;

enum class NodeKind : uint8_t {
  Object, ///< an allocation site
  Local,  ///< a method-local variable
  Global, ///< a static/global variable
};

enum class EdgeKind : uint8_t {
  New,
  Assign,
  Load,
  Store,
  AssignGlobal,
  Entry,
  Exit,
};

/// Number of EdgeKind values (the CSR kind-partition fan-out).
constexpr unsigned kNumEdgeKinds = 7;
static_assert(unsigned(EdgeKind::Exit) + 1 == kNumEdgeKinds,
              "kNumEdgeKinds must cover every EdgeKind or the CSR "
              "bucket arithmetic bleeds across nodes");

/// Offset-table stride per node: seven kind boundaries plus the node's
/// own end boundary.  Keeping the end per node (instead of borrowing
/// the next node's first boundary, as a classical prefix-sum CSR does)
/// is what lets the incremental repack relocate one node's region
/// without shifting every node after it.
constexpr unsigned kOffsetStride = kNumEdgeKinds + 1;

/// True for the four context-independent edge kinds summarized by PPTA.
inline bool isLocalEdgeKind(EdgeKind K) {
  return K == EdgeKind::New || K == EdgeKind::Assign ||
         K == EdgeKind::Load || K == EdgeKind::Store;
}

/// Printable label ("new", "entry", ...).
const char *edgeKindName(EdgeKind K);

/// Per-method fingerprint storage (body/interface/shape), chunked like
/// every other generation-persistent table.  Named at namespace scope
/// so the delta builder's helpers can take it by reference.
using MethodFpTable = support::ChunkedVector<uint64_t, 12>;

/// A non-owning contiguous view over edge ids in the CSR arrays
/// (std::span substitute; the repo is C++17).  Invalidated by the next
/// finalize()/finalizeDelta() like any index would be.
class EdgeSpan {
public:
  EdgeSpan() = default;
  EdgeSpan(const EdgeId *Begin, const EdgeId *End)
      : BeginPtr(Begin), EndPtr(End) {}

  const EdgeId *begin() const { return BeginPtr; }
  const EdgeId *end() const { return EndPtr; }
  size_t size() const { return size_t(EndPtr - BeginPtr); }
  bool empty() const { return BeginPtr == EndPtr; }
  EdgeId operator[](size_t I) const { return BeginPtr[I]; }

private:
  const EdgeId *BeginPtr = nullptr;
  const EdgeId *EndPtr = nullptr;
};

struct Node {
  NodeKind Kind = NodeKind::Local;
  /// True when the node's Entry in-bucket / Exit out-bucket holds a
  /// ContextFree edge: Algorithm 4 then scans the bucket instead of
  /// looking up the context's top site.  Derived like the flags below.
  bool ContextFreeEntryIn = false;
  bool ContextFreeExitOut = false;
  /// ir::AllocId for objects, ir::VarId for variables.
  uint32_t IrId = ir::kNone;
  /// Owning method; kNone for globals and the null object.
  ir::MethodId Method = ir::kNone;
  /// True when some local-kind edge touches this node (PPTA shortcut,
  /// paper section 4.3).  Derived from the live edge set by
  /// finalize()/finalizeDelta().
  bool HasLocalEdge = false;
  /// True when a global-kind edge flows into / out of this node
  /// (Algorithm 3 lines 15-16 / 28-29 record boundary tuples on these).
  bool HasGlobalIn = false;
  bool HasGlobalOut = false;
};

struct Edge {
  NodeId Src = 0;
  NodeId Dst = 0;
  EdgeKind Kind = EdgeKind::Assign;
  /// FieldId for load/store; CallSiteId for entry/exit; kNone otherwise.
  uint32_t Aux = ir::kNone;
  /// True for entry/exit edges inside a collapsed recursion cycle: the
  /// analyses cross them without pushing/popping the context.
  bool ContextFree = false;
};

/// Aggregate counts for the Table 3 reproduction.
struct PAGStats {
  uint64_t NumMethods = 0;
  uint64_t NumObjects = 0;
  uint64_t NumLocals = 0;
  uint64_t NumGlobals = 0;
  uint64_t EdgesByKind[7] = {};
  /// Fraction of local edges among all edges.
  double locality() const;
  uint64_t totalEdges() const;
};

/// Chunk-table footprint of one graph, split by ownership.
/// RetainedBytes is what destroying this graph would actually free —
/// for a generation retained behind the current one it is proportional
/// to the edits committed since its capture, not to the graph size.
struct PAGMemoryStats {
  size_t TotalBytes = 0;    ///< chunk + table bytes reachable from here
  size_t SharedBytes = 0;   ///< subset co-owned by other generations
  size_t RetainedBytes = 0; ///< TotalBytes - SharedBytes (exclusive)
  size_t ScratchBytes = 0;  ///< plain-vector scratch (Pending*, frees)
  size_t Chunks = 0;
  size_t SharedChunks = 0;
};

/// The graph.  Construction happens through PAGBuilder; the analyses
/// only read.  Copyable: a copy is an independent graph over the same
/// program — AnalysisService snapshots the previous generation's graph
/// and patches the snapshot while in-flight batches keep draining
/// against the original.  Since all persistent storage sits on CoW
/// chunk tables, the copy is an O(#chunks) table duplication; mutated
/// chunks are split off lazily, so the two graphs share every byte
/// neither side has touched.
class PAG {
public:
  explicit PAG(const ir::Program &P) : Prog(P) {}

  /// Generation snapshot: the default memberwise copy IS the cheap
  /// chunk-table copy (every persistent member is a chunked container
  /// whose copy constructor bumps refcounts instead of copying
  /// elements), and memberwise copying cannot silently drop a member
  /// the way a hand-written clone could.
  PAG(const PAG &Other) = default;

  //===------------------------------------------------------------------===//
  // Construction (PAGBuilder only)
  //===------------------------------------------------------------------===//

  /// Creates the node of a variable/allocation site.  Ids are assigned
  /// in call order and never change afterwards.
  NodeId addNode(NodeKind Kind, uint32_t IrId, ir::MethodId Method);

  /// Opens method \p M's edge segment for (re-)population: the
  /// segment's previous edges (if any) are freed for slot reuse and
  /// subsequent addEdge calls land in the segment.  Only PAGBuilder
  /// drives this; finalizeDelta requires every opened segment to have
  /// been closed by endSegment().
  void beginSegment(ir::MethodId M);
  void endSegment();

  /// Adds an edge to the open segment.  Returns the edge's slot id
  /// (stable until this segment is next re-lowered).
  EdgeId addEdge(NodeId Src, NodeId Dst, EdgeKind Kind,
                 uint32_t Aux = ir::kNone, bool ContextFree = false);

  /// Packs the full kind-partitioned CSR from scratch (first build, or
  /// compaction after deltas accumulated too much slack).  Dead edge
  /// slots are compacted away — edge ids are renumbered densely — and
  /// node flags are rederived.  Idempotent: calling it again without
  /// intervening edits is a no-op.
  void finalize();

  /// Incremental repack after a delta build: rewrites only the CSR
  /// regions of nodes incident to freed or added edges, rederives those
  /// nodes' flags, and falls back to finalize() when accumulated slack
  /// (dead slots + relocation holes) exceeds half the live size.
  /// Requires finalize() to have run once before.
  ///
  /// A \p Threads task budget above one partitions the repack: tasks
  /// own disjoint ranges of the (sorted) dirty node list, region
  /// contents are computed in parallel, placements are assigned in one
  /// serial pass that replicates the serial policy exactly — and
  /// uniquifies every destination chunk, so the parallel copy fan-out
  /// writes raw — making the resulting layout bit-identical at every
  /// budget.
  void finalizeDelta(unsigned Threads = 1);

  //===------------------------------------------------------------------===//
  // Reading
  //===------------------------------------------------------------------===//

  const ir::Program &program() const { return Prog; }

  size_t numNodes() const { return Nodes.size(); }

  /// Number of LIVE edges.  Edge slot ids range over [0, numEdgeSlots())
  /// and may include dead slots after delta builds; iterate slots and
  /// filter with edgeAlive() to visit every live edge.
  size_t numEdges() const { return NumAliveEdges; }
  size_t numEdgeSlots() const { return Edges.size(); }
  bool edgeAlive(EdgeId E) const { return !EdgeDead[E]; }

  const Node &node(NodeId N) const { return Nodes[N]; }
  const Edge &edge(EdgeId E) const { return Edges[E]; }

  /// Edge ids entering / leaving \p N (all kinds; within the span,
  /// edges are grouped by EdgeKind in enum order).
  EdgeSpan inEdges(NodeId N) const {
    size_t Base = size_t(N) * kOffsetStride;
    return spanOf(InFlat, InOff, Base, Base + kNumEdgeKinds);
  }
  EdgeSpan outEdges(NodeId N) const {
    size_t Base = size_t(N) * kOffsetStride;
    return spanOf(OutFlat, OutOff, Base, Base + kNumEdgeKinds);
  }

  /// Edge ids of exactly kind \p K entering / leaving \p N — the hot
  /// paths iterate these instead of filtering inEdges with a switch.
  EdgeSpan inEdgesOfKind(NodeId N, EdgeKind K) const {
    size_t Base = size_t(N) * kOffsetStride + unsigned(K);
    return spanOf(InFlat, InOff, Base, Base + 1);
  }
  EdgeSpan outEdgesOfKind(NodeId N, EdgeKind K) const {
    size_t Base = size_t(N) * kOffsetStride + unsigned(K);
    return spanOf(OutFlat, OutOff, Base, Base + 1);
  }

  /// The call-site view of \p N's Entry in-bucket (\p K = Entry) or Exit
  /// out-bucket (\p K = Exit): the bucket's edge ids sorted by (call
  /// site, position in the bucket).
  EdgeSpan callEdgesBySite(NodeId N, EdgeKind K) const;

  /// The edges of that bucket at call site \p Site, in bucket order:
  /// O(log fan-in) over the call-site view.
  EdgeSpan callEdgesAtSite(NodeId N, EdgeKind K, ir::CallSiteId Site) const;

  /// All store edges labelled with \p F (REFINEPTS match-edge lookup).
  EdgeSpan storesOfField(ir::FieldId F) const;

  /// All load edges labelled with \p F.
  EdgeSpan loadsOfField(ir::FieldId F) const;

  /// Node of a variable / allocation site.
  NodeId nodeOfVar(ir::VarId V) const {
    assert(V < VarToNode.size() && "variable id out of range");
    return VarToNode[V];
  }
  NodeId nodeOfAlloc(ir::AllocId A) const {
    assert(A < AllocToNode.size() && "allocation id out of range");
    return AllocToNode[A];
  }

  /// True when \p N is an object node.
  bool isObject(NodeId N) const {
    return Nodes[N].Kind == NodeKind::Object;
  }

  /// The allocation site of object node \p N.
  ir::AllocId allocOf(NodeId N) const;

  /// Human-readable node name ("s1@Main.main", "o25:Vector").
  std::string describe(NodeId N) const;

  /// Computes the Table 3 statistics of this graph.
  PAGStats stats() const;

  /// Chunk-table footprint: how many bytes this graph reaches, how
  /// many of them are shared with other generations, and how many are
  /// exclusively its own.  The per-element accounting of the segment
  /// table counts the inline vector objects only (their heap blocks
  /// follow the same sharing, chunk for chunk).
  PAGMemoryStats memoryStats() const;

  /// Writes a readable edge dump (tests and debugging).
  void dump(OStream &OS) const;

  //===------------------------------------------------------------------===//
  // Delta-build bookkeeping (PAGBuilder reads/writes; tests may read)
  //===------------------------------------------------------------------===//

  /// Variables/allocation sites already materialized as nodes; the
  /// delta builder appends nodes for program ids beyond these.
  size_t numBuiltVars() const { return NumBuiltVars; }
  size_t numBuiltAllocs() const { return NumBuiltAllocs; }

  /// Live edge slots of method \p M's segment (empty when the method
  /// has no pointer-relevant statements or predates its segment).
  const std::vector<EdgeId> &segmentEdges(ir::MethodId M) const {
    static const std::vector<EdgeId> Empty;
    return M < Segments.size() ? Segments[M] : Empty;
  }

  /// The program edit clock captured at this graph's last (full or
  /// delta) build: edits up to this clock are reflected in the graph.
  /// AnalysisService::rollback uses it to rewind its committed clock
  /// to a retained generation.
  uint64_t builtModClock() const { return BuiltModClock; }

  /// CSR slack diagnostics: dead slots plus relocation holes, and
  /// whether the last finalizeDelta() compacted.  Chunk-alignment
  /// padding in the flat arrays is NOT slack (a compaction would
  /// re-pad), so it never triggers one.
  size_t deadEdgeSlots() const { return Edges.size() - NumAliveEdges; }
  size_t csrHoleSlots() const { return FlatHoles + FieldHoles + SiteHoles; }
  bool lastRepackCompacted() const { return LastRepackCompacted; }

  /// The (sorted, deduped) nodes whose CSR regions — and therefore
  /// boundary flags — the last finalizeDelta() rewrote.  Every other
  /// node's flags are bit-identical to before the repack, which is
  /// what lets incremental::patchInvalidation diff O(delta) nodes
  /// instead of the whole graph.  Meaningless after a compaction or a
  /// full finalize() (every flag was rederived); check
  /// lastRepackCompacted() first.
  const std::vector<NodeId> &lastRepackAffectedNodes() const {
    return LastRepackAffected;
  }

private:
  using NodeTable = support::ChunkedVector<Node, 12>;
  using EdgeTable = support::ChunkedVector<Edge, 12>;
  using ByteTable = support::ChunkedVector<char, 15>;
  using SegmentTable = support::ChunkedVector<std::vector<EdgeId>, 7>;
  /// 8192 offsets per chunk: kOffsetStride (8) divides the chunk size,
  /// so one node's eight boundaries always share a chunk — the serial
  /// placement pass uniquifies one chunk per touched node.
  using OffsetTable = support::ChunkedVector<uint32_t, 13>;
  using IdTable = support::ChunkedVector<NodeId, 13>;
  using FpTable = MethodFpTable;
  using FlatTable = support::ChunkedFlatArray<EdgeId, 14>;

  EdgeSpan spanOf(const FlatTable &Flat, const OffsetTable &Off,
                  size_t From, size_t To) const {
    uint32_t B = Off[From], E = Off[To];
    if (B == E)
      return EdgeSpan();
    const EdgeId *P = Flat.addr(B);
    return EdgeSpan(P, P + (E - B));
  }

  /// Allocates an edge slot (reusing a freed one when possible).
  EdgeId allocEdgeSlot(const Edge &E);

  /// Extends the offset tables over nodes added since the last pack
  /// (their regions start empty).
  void ensureOffsetCoverage();

  /// Recomputes \p N's boundary flags from its current CSR spans.
  /// The node's chunk must already be writable (raw write path).
  void rederiveFlags(NodeId N);

  /// Renumbers edge slots densely, dropping dead ones (stable order).
  void compactEdgeSlots();

  /// Full counting-sort pack of one direction's CSR, call-site view
  /// included.
  void packDirection(bool In);

  /// Writes the \p Count edge ids at \p Bucket to \p View in (call
  /// site, position in the bucket) order.  \p Keys is caller-owned
  /// scratch, so packing allocates nothing per node.
  void sortBySite(const EdgeId *Bucket, size_t Count, EdgeId *View,
                  std::vector<uint64_t> &Keys) const;

  /// Rewrites the CSR regions and call-site views of \p AffectedNodes
  /// (sorted, unique) in both directions, appending grown regions at
  /// the array tails.
  /// \p Freed marks the slots freed this round (shared with
  /// repackFields so the O(slots) bitmap is built once per repack).
  /// Tasks repack disjoint node ranges; see finalizeDelta(Threads).
  void repackNodes(const std::vector<NodeId> &AffectedNodes,
                   const std::vector<char> &Freed, unsigned Threads);

  /// Rebuilds the per-field load/store CSR regions of \p AffectedFields.
  void repackFields(const std::vector<ir::FieldId> &AffectedFields,
                    const std::vector<char> &Freed, unsigned Threads);

  const ir::Program &Prog;
  NodeTable Nodes;
  EdgeTable Edges;    ///< slot-addressed; may contain dead slots
  ByteTable EdgeDead; ///< parallel to Edges
  std::vector<EdgeId> FreeSlots;
  size_t NumAliveEdges = 0;

  /// Per-method segments: the live slot ids emitted while lowering that
  /// method, in emission order.
  SegmentTable Segments;
  ir::MethodId OpenSegment = ir::kNone;

  /// Delta scratch, consumed by finalizeDelta(): slots freed and edges
  /// added since the last (full or delta) pack.  Freed payloads are
  /// snapshotted (PendingDeadMeta) because the slot may be reused — and
  /// its Edge overwritten — before the repack runs.  Plain vectors:
  /// they are empty in any finalized graph, so generation snapshots
  /// copy nothing.
  std::vector<EdgeId> PendingDead;
  std::vector<Edge> PendingDeadMeta;
  std::vector<EdgeId> PendingNew;

  /// CSR payloads: every live edge id once per direction, grouped by
  /// (node, kind); within a group, survivors keep their relative order
  /// and re-lowered edges append in emission order.
  FlatTable InFlat, OutFlat;
  /// CSR offsets, numNodes * kOffsetStride entries.  Node N's kind-K
  /// bucket is [Off[N*8 + K], Off[N*8 + K + 1]); its whole region is
  /// [Off[N*8], Off[N*8 + 7]].  Regions of different nodes need not be
  /// adjacent (relocation leaves holes), only internally contiguous —
  /// and a region never straddles a chunk boundary of the flat table.
  OffsetTable InOff, OutOff;
  /// Elements of InFlat/OutFlat occupied by relocation holes.
  size_t FlatHoles = 0;

  /// Call-site views: node N's Entry in-bucket re-sorted by (call site,
  /// position) sits at InSiteFlat[InSiteOff[N]], its Exit out-bucket's
  /// at OutSiteFlat[OutSiteOff[N]].  A view is as long as its bucket,
  /// so one begin offset per node suffices; regions relocate like the
  /// buckets' and never straddle a chunk.
  FlatTable InSiteFlat, OutSiteFlat;
  OffsetTable InSiteOff, OutSiteOff;
  size_t SiteHoles = 0;

  /// Field-indexed CSR over store/load edges: per-field [begin, end)
  /// pairs (2 entries per field), same relocation scheme.
  FlatTable FieldStoreFlat, FieldLoadFlat;
  OffsetTable FieldStoreOff, FieldLoadOff;
  size_t FieldHoles = 0;

  IdTable VarToNode;
  IdTable AllocToNode;
  size_t NumBuiltVars = 0;
  size_t NumBuiltAllocs = 0;
  bool Finalized = false;
  bool LastRepackCompacted = false;
  /// Nodes the last finalizeDelta() rederived flags for (see
  /// lastRepackAffectedNodes()).  A generation copy inherits the
  /// source's list, but every consumer reads it right after running
  /// finalizeDelta on the copy, which overwrites it first.
  std::vector<NodeId> LastRepackAffected;

  /// Persistent delta-build state (written by pag::buildPAGDelta): the
  /// program edit clock, structure version and per-method fingerprints
  /// captured at the last build.  Copies of the graph carry it along,
  /// so a generation snapshot can be delta-patched independently.
  uint64_t BuiltModClock = 0;
  uint64_t BuiltStructureVersion = 0;
  bool BuiltOnce = false;
  FpTable BuiltBodyFp;  // by MethodId
  FpTable BuiltIfaceFp; // by MethodId
  FpTable BuiltShapeFp; // by MethodId

  friend class PAGBuilder;
  friend DeltaStats buildPAGDelta(PAG &G, CallGraph &Calls,
                                  const TargetResolver *Resolver,
                                  bool ForceFull, unsigned Threads);
};

} // namespace pag
} // namespace dynsum

#endif // DYNSUM_PAG_PAG_H
