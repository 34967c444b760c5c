//===----------------------------------------------------------------------===//
///
/// \file
/// DYNSUM — the paper's contribution: context-sensitive demand-driven
/// points-to analysis with dynamic PPTA summaries (Algorithms 3 and 4).
///
/// PPTA (Partial Points-To Analysis) summarizes, per queried
/// (node, field-stack, RSM-state) triple, everything reachable along
/// *local* PAG edges only: the objects found (field-sensitively) plus
/// the boundary tuples where a *global* edge must be crossed.  Because
/// local edges never touch the calling context, a summary computed
/// under one context is valid under every context — the paper's "local
/// reachability reuse".  The worklist algorithm stitches summaries
/// across global edges while tracking the RRP context stack.
///
//===----------------------------------------------------------------------===//

#ifndef DYNSUM_ANALYSIS_DYNSUM_H
#define DYNSUM_ANALYSIS_DYNSUM_H

#include "analysis/DemandAnalysis.h"
#include "support/FlatSet.h"
#include "support/InternedStack.h"
#include "support/SmallVector.h"

#include <memory>
#include <vector>

namespace dynsum {
namespace analysis {

/// Direction state of the LFT RSMs in Figure 3(a).
enum class RsmState : uint8_t {
  S1, ///< traversing a flowsTo-bar path (towards allocation sites)
  S2, ///< traversing a flowsTo path (away from an allocation site)
};

/// A context-independent CFL-reachability fact: the traversal stands at
/// \p Node with pending field labels \p Fields in direction \p State.
struct PptaTuple {
  pag::NodeId Node = 0;
  StackId Fields;
  RsmState State = RsmState::S1;
};

/// The dynamic summary for one (node, field-stack, state) key.  Most
/// summaries hold only a handful of entries, and caches hold hundreds
/// of thousands of summaries, so both lists are small-size-optimized:
/// up to 4 entries live inline with no heap allocation at all.
struct PptaSummary {
  /// Objects whose new edge was reached with an empty field stack;
  /// their context is the *querying* context (supplied by Algorithm 4).
  SmallVector<ir::AllocId, 4> Objects;
  /// States at method-boundary nodes (incident to global edges) where
  /// Algorithm 4 must take over.
  SmallVector<PptaTuple, 4> Tuples;

  /// Releases growth slack before the summary enters a long-lived cache.
  void shrinkToFit() {
    Objects.shrinkToFit();
    Tuples.shrinkToFit();
  }
};

/// Packs a summary key into 64 bits: bit 0 = state, bits 1..32 = node,
/// bits 33..63 = field-stack id (field stacks stay well below 2^31).
uint64_t packSummaryKey(pag::NodeId Node, StackId Fields, RsmState S);

/// DYNSUM's per-instance summary cache: an open-addressing table
/// (linear probing, power-of-two capacity, at most half full) from
/// packed summary keys to summaries held in doubling blocks that never
/// move.  Growing the table rehashes 16-byte slots, not summaries, and
/// a summary stays where it is until erased.  The table starts empty
/// and small: a service batch builds a fresh instance per shard.
class SummaryCache {
public:
  /// The summary stored under \p Key, or null.
  const PptaSummary *find(uint64_t Key) const {
    if (Slots.empty())
      return nullptr;
    size_t Mask = Slots.size() - 1;
    for (size_t I = size_t(hashMix(Key)) & Mask;; I = (I + 1) & Mask) {
      if (Slots[I].Key == Key)
        return Slots[I].Summary;
      if (Slots[I].Key == kEmptyKey)
        return nullptr;
    }
  }

  /// Stores \p S under \p Key, which must not be present yet.
  const PptaSummary *insert(uint64_t Key, PptaSummary &&S);

  size_t size() const { return NumEntries; }

  /// Drops every summary and releases the storage.
  void clear() { *this = SummaryCache(); }

  /// Drops the summaries whose key satisfies \p Drop; their storage is
  /// reused by later inserts.
  template <typename Fn> void eraseIf(Fn &&Drop) {
    std::vector<Slot> Kept;
    for (Slot &S : Slots) {
      if (S.Key == kEmptyKey)
        continue;
      if (Drop(S.Key)) {
        *S.Summary = PptaSummary();
        Free.push_back(S.Summary);
      } else {
        Kept.push_back(S);
      }
    }
    std::fill(Slots.begin(), Slots.end(), Slot());
    NumEntries = 0;
    for (const Slot &S : Kept)
      place(S);
  }

  /// Calls \p F(key) for every stored summary, in unspecified order.
  template <typename Fn> void forEachKey(Fn &&F) const {
    for (const Slot &S : Slots)
      if (S.Key != kEmptyKey)
        F(S.Key);
  }

private:
  /// No summary key has all 32 node bits set (that node id is kNone).
  static constexpr uint64_t kEmptyKey = ~uint64_t(0);
  static constexpr size_t kMinSlots = 16;
  static constexpr size_t kFirstBlock = 16, kMaxBlock = 4096;

  struct Slot {
    uint64_t Key = kEmptyKey;
    PptaSummary *Summary = nullptr;
  };

  /// Puts \p S in its probe sequence's first empty slot.
  void place(const Slot &S) {
    size_t Mask = Slots.size() - 1;
    size_t I = size_t(hashMix(S.Key)) & Mask;
    while (Slots[I].Key != kEmptyKey)
      I = (I + 1) & Mask;
    Slots[I] = S;
    ++NumEntries;
  }

  std::vector<Slot> Slots;
  size_t NumEntries = 0;
  /// Blocks double from kFirstBlock up to kMaxBlock summaries; the last
  /// one is filled up to BlockUsed.  Free lists summaries erased since.
  std::vector<std::unique_ptr<PptaSummary[]>> Blocks;
  size_t BlockUsed = 0, BlockSize = 0;
  std::vector<PptaSummary *> Free;
};

/// A PptaSummary in pool-independent form.  StackIds only mean
/// something inside the owning instance's StackPool, so tuple field
/// stacks are spelled out — flattened into one shared element array
/// (bottom-to-top runs, one per tuple, in tuple order) so converting
/// and copying a summary costs at most three allocations however many
/// tuples it carries.  This is the shape that crosses threads (see
/// SummaryExchange).
struct PortableSummary {
  /// One boundary tuple: its field run is the next \p FieldsLen
  /// elements of FieldData.
  struct Tuple {
    pag::NodeId Node = 0;
    RsmState State = RsmState::S1;
    uint32_t FieldsLen = 0;
  };

  std::vector<ir::AllocId> Objects;
  std::vector<Tuple> Tuples;
  std::vector<uint32_t> FieldData;
};

/// Cross-instance exchange of *complete* PPTA summaries.  A summary is a
/// deterministic function of (node, field stack, state) and the PAG —
/// never of the querying context or of who computed it — so any instance
/// analyzing the same PAG may reuse any other instance's summaries (the
/// paper's local reachability reuse, extended across analysis
/// instances).  Implementations must be safe for concurrent fetch and
/// publish; DynSumAnalysis itself stays single-threaded and only talks
/// to the exchange on local cache misses.
class SummaryExchange {
public:
  virtual ~SummaryExchange();

  /// Looks up the summary for (\p Node, \p Fields bottom-to-top, \p S);
  /// fills \p Out and returns true on a hit.  Misses are the hot case
  /// during a cold batch: implementations must not allocate on a miss.
  virtual bool fetch(pag::NodeId Node, const std::vector<uint32_t> &Fields,
                     RsmState S, PortableSummary &Out) = 0;

  /// Offers a freshly computed complete summary for reuse by others.
  /// \p Fields is taken by value so callers can move a freshly built
  /// vector straight into the store.
  virtual void publish(pag::NodeId Node, std::vector<uint32_t> Fields,
                       RsmState S, PortableSummary Summary) = 0;
};

/// Pending-field stack entries are tagged with the sub-language that
/// pushed them.  The LFT grammar pairs parentheses per sub-language:
/// a load(f)-bar push (S1, "resolve an alias's .f") may only be closed
/// by a store(f)-bar edge, and a store(f) push (S2, "the tracked object
/// went into .f") only by a forward load(f).  A single untyped stack
/// would let the two kinds cross-match and fabricate points-to targets
/// (the paper's Table 1 trace implicitly maintains this pairing).
inline uint32_t encodeLoadBarField(ir::FieldId F) { return (F << 1) | 0; }
inline uint32_t encodeStoreField(ir::FieldId F) { return (F << 1) | 1; }
inline ir::FieldId decodeField(uint32_t Encoded) { return Encoded >> 1; }

/// The reusable PPTA engine (Algorithm 3).  Shared by DYNSUM and by the
/// STASUM static summary closure.
///
/// The traversal is an explicit worklist over (node, field-stack,
/// state) frames — no recursion, so arbitrarily deep assign chains
/// cannot overflow the call stack — with a flat open-addressing
/// visited set that is epoch-cleared (not freed) between compute()
/// calls.  Edge iteration uses the PAG's kind-partitioned CSR spans,
/// one contiguous run per transition rule.
class PptaEngine {
public:
  PptaEngine(const pag::PAG &G, StackPool &FieldStacks,
             uint32_t MaxFieldDepth)
      : Graph(G), FieldStacks(FieldStacks), MaxFieldDepth(MaxFieldDepth) {}

  /// Runs DSPOINTSTO(V, F, S) with a fresh visited set, appending into
  /// \p Out.  Returns true when the computation completed within
  /// \p Budget and the field-depth cap (only complete summaries are
  /// cacheable).
  bool compute(pag::NodeId V, StackId F, RsmState S, Budget &B,
               PptaSummary &Out);

  /// Branches pruned by the field-depth k-limit so far (diagnostics).
  uint64_t depthPrunes() const { return DepthPrunes; }

private:
  /// One pending traversal state.
  struct Frame {
    pag::NodeId Node;
    StackId Fields;
    RsmState State;
  };

  /// Expands one frame: applies every Algorithm 3 rule at (V, F, S),
  /// pushing successor states not yet visited.
  void expand(pag::NodeId V, StackId F, RsmState S);

  /// Pushes (N, F, S) unless already visited this compute().
  void push(pag::NodeId N, StackId F, RsmState S) {
    if (Visited.insert(packSummaryKey(N, F, S)))
      Work.push_back(Frame{N, F, S});
  }

  const pag::PAG &Graph;
  StackPool &FieldStacks;
  uint32_t MaxFieldDepth;

  // Per-compute() state.  Work and Visited keep their storage across
  // calls (Visited clears by epoch bump); a summary computation never
  // allocates on the steady state.
  Budget *B = nullptr;
  PptaSummary *Out = nullptr;
  bool Complete = true;
  uint64_t DepthPrunes = 0;
  std::vector<Frame> Work;
  FlatU64Set Visited;
};

/// Algorithm 4 plus the summary cache.
class DynSumAnalysis : public DemandAnalysis {
public:
  DynSumAnalysis(const pag::PAG &G, const AnalysisOptions &Opts)
      : DemandAnalysis(G, Opts),
        Engine(G, FieldStacks, Opts.MaxFieldDepth) {}

  const char *name() const override { return "DYNSUM"; }

  QueryResult query(pag::NodeId V,
                    const ClientPredicate &SatisfyClient) override;

  using DemandAnalysis::query;

  /// Number of summaries currently cached (the |Cache| of Figure 5).
  size_t cacheSize() const { return Cache.size(); }

  /// Summary lookups answered from this instance's cache, lookups
  /// answered by the summary exchange, and summary computations
  /// (complete or not), since construction.
  uint64_t cacheHits() const { return CacheHits; }
  uint64_t sharedHits() const { return SharedHits; }
  uint64_t summariesComputed() const { return SummariesComputed; }

  /// Cache size projected onto distinct (node, state) pairs — the unit
  /// comparable with STASUM's per-boundary-point method summaries
  /// (STASUM's own count is per boundary point, not per pending-field
  /// configuration).
  size_t cacheNodeStateCount() const;

  /// Drops every cached summary.
  void clearCache() { Cache.clear(); }

  /// Drops only the summaries of nodes owned by \p M — the IDE/JIT
  /// "method was edited" scenario the paper motivates (an extension;
  /// the paper recomputes naturally because summaries are demand-built).
  /// Passing ir::kNone drops the summaries keyed at unowned nodes
  /// (globals and the null object).
  void invalidateMethod(ir::MethodId M);

  /// Access to the interned field-stack pool (tests, benches).
  StackPool &fieldStacks() { return FieldStacks; }
  const StackPool &fieldStacks() const { return FieldStacks; }

  /// Connects this instance to a cross-instance summary exchange (may be
  /// null to disconnect).  On a local cache miss the exchange is
  /// consulted before computing, and freshly computed complete summaries
  /// are published back.  The exchange must describe the same PAG.
  void setSummaryExchange(SummaryExchange *E) { Exchange = E; }
  SummaryExchange *summaryExchange() const { return Exchange; }

  /// Converts between the local (StackId) and portable (explicit field
  /// vector) summary representations, re-interning through this
  /// instance's field-stack pool.
  ///
  /// The optional hint is an already-interned stack (with \p HintElems
  /// its spelled-out elements) the tuples' stacks are expected to share
  /// a prefix with — on the fetch path, the query's own field stack:
  /// PPTA boundary tuples are reached from (u, F) by pushing and
  /// popping fields, so their stacks typically keep most of F's bottom.
  /// The shared prefix is then recovered by O(1) pops off the hint
  /// instead of one hash-consing push per element, which is what makes
  /// re-interning a ~30-deep stack cheaper than recomputing its
  /// summary.  No hint interns from the empty stack.
  PptaSummary internSummary(const PortableSummary &P,
                            StackId Hint = StackPool::empty(),
                            const std::vector<uint32_t> &HintElems = {});
  PortableSummary exportSummary(const PptaSummary &S) const;

private:
  /// Cache lookup/compute for one summary key.  Returns null when the
  /// summary could not be completed within budget (query turns
  /// conservative).  \p UsedCache reports a hit.
  const PptaSummary *getSummary(pag::NodeId U, StackId F, RsmState S,
                                Budget &B, bool &UsedCache);

  /// One pending Algorithm 4 state: a summary key plus the RRP context
  /// under which its boundary tuples are crossed.
  struct WorkItem {
    pag::NodeId Node;
    StackId Fields;
    RsmState State;
    StackId Ctx;
  };

  StackPool FieldStacks;
  StackPool Contexts;
  PptaEngine Engine;
  SummaryExchange *Exchange = nullptr;
  SummaryCache Cache;
  uint64_t CacheHits = 0, SharedHits = 0, SummariesComputed = 0;
  /// Per-query scratch, reused across queries so the steady-state query
  /// path does not allocate: the vector-backed worklist stack, the
  /// packed (alloc, ctx) result set, and the flat worklist de-dup set
  /// over (summary key, context) pairs.
  std::vector<WorkItem> Work;
  FlatU64Set QueryPts;
  FlatPairSet Enqueued;
  /// Store round-trip scratch: the spelled-out field stack and the
  /// portable summary a fetch decodes into.  Reusing their capacity
  /// makes the warm fetch path allocation-free per hit, which is what
  /// lets disk-tier serving undercut recomputation.
  std::vector<uint32_t> FetchFields;
  PortableSummary FetchScratch;
  /// getSummary's answer when it does not come from the cache: the
  /// one-tuple summary of a node without local edges (the Section 4.3
  /// shortcut, not counted as a real summary), or in uncached mode the
  /// summary just computed.  The worklist reads a summary only until it
  /// asks for the next, so one per-instance slot suffices.
  PptaSummary Scratch;
};

} // namespace analysis
} // namespace dynsum

#endif // DYNSUM_ANALYSIS_DYNSUM_H
