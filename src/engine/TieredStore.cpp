//===----------------------------------------------------------------------===//
///
/// \file
/// TieredSummaryStore implementation.
///
/// Locking recap (see the header): single-key operations take exactly
/// one stripe lock; beginGeneration/clear take every stripe lock in
/// index order and bump the generation inside that critical section.
/// The disk tier's invalidated-method set is written only there and
/// read only under a stripe lock, so probes always see a settled set.
/// save() takes each stripe's shared lock in turn, so a concurrent
/// promotion lands either before its stripe is written or after.
///
//===----------------------------------------------------------------------===//

#include "engine/TieredStore.h"

using namespace dynsum;
using namespace dynsum::analysis;
using namespace dynsum::engine;

//===----------------------------------------------------------------------===//
// Fetch
//===----------------------------------------------------------------------===//

uint64_t TieredSummaryStore::prepareDiskProbe(
    const DiskTier &T, pag::NodeId Node, const std::vector<uint32_t> &Fields,
    RsmState S) {
  if (Node >= T.CanonOf.size())
    return 0;
  uint64_t D = summaryRecordDigest(T.CanonOf[Node], S, Fields);
  T.File->prefetch(D);
  return D;
}

bool TieredSummaryStore::probeDisk(const DiskTier &T, uint64_t RecDigest,
                                   pag::NodeId Node,
                                   const std::vector<uint32_t> &Fields,
                                   RsmState S, PortableSummary &Out) const {
  // Nodes created after the attach have no canonical translation and
  // cannot be on disk (the snapshot predates them); a record whose key
  // method was invalidated by ANY commit since the attach is exactly a
  // hot entry beginGeneration would have dropped.
  if (!T.serves(Node))
    return false;
  // findBody decodes the record straight into \p Out (capacity reused
  // across probes — the serving path never touches the allocator for
  // an already-warm record size), leaving tuple nodes canonical.
  if (!T.File->findBody(RecDigest, T.CanonOf[Node], S, Fields, Out))
    return false;
  // Resolve canonical tuple references into this process's node ids, in
  // place.  The reader bounds-checked every canonical against the
  // attach-time variable/alloc counts, so the lookups cannot go out of
  // range.  Objects and field runs are process-independent as decoded.
  for (PortableSummary::Tuple &Tp : Out.Tuples)
    Tp.Node = T.NodeOfCanon[Tp.Node];
  return true;
}

bool TieredSummaryStore::promote(unsigned Stripe, uint64_t Digest,
                                 uint64_t AtGen, pag::NodeId Node,
                                 const std::vector<uint32_t> &Fields,
                                 RsmState S, const PortableSummary &Summary) {
  SummaryStripe &St = Hot.stripe(Stripe);
  std::unique_lock<std::shared_mutex> Lock = Hot.lockUnique(Stripe);
  // The stripe lock was dropped between the probe and here; a commit
  // may have slipped in and invalidated what the disk just served.
  // Discard rather than leak a possibly-stale entry into the new
  // generation.
  if (AtGen != Gen.load(std::memory_order_relaxed)) {
    St.C.DiskStale.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (St.insert(Digest, Node, Fields, S, Summary))
    St.C.Promoted.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool TieredSummaryStore::fetch(pag::NodeId Node,
                               const std::vector<uint32_t> &Fields,
                               RsmState S, PortableSummary &Out) {
  uint64_t D = summaryKeyDigest(Node, Fields, S);
  unsigned Stripe = Hot.stripeFor(D);
  SummaryStripe &St = Hot.stripe(Stripe);
  St.C.Fetches.fetch_add(1, std::memory_order_relaxed);

  // With a disk tier attached, start the probe's first memory load now
  // so it overlaps with the hot-tier lookup below.  The HasDisk flag
  // keeps the no-tier configuration at a single relaxed byte load —
  // atomic_load on the shared_ptr itself goes through the library's
  // lock pool, too costly to put on every hot hit.
  std::shared_ptr<DiskTier> T;
  uint64_t RecD = 0;
  if (HasDisk.load(std::memory_order_relaxed)) {
    T = std::atomic_load(&Disk);
    if (T)
      RecD = prepareDiskProbe(*T, Node, Fields, S);
  }

  uint64_t CurGen = 0;
  {
    std::shared_lock<std::shared_mutex> Lock = Hot.lockShared(Stripe);
    if (const SummaryEntry *E = St.find(D, Node, Fields, S)) {
      Out = E->Summary;
      St.C.Hits.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    if (!T)
      return false;
    St.C.DiskProbes.fetch_add(1, std::memory_order_relaxed);
    if (!probeDisk(*T, RecD, Node, Fields, S, Out))
      return false;
    St.C.DiskHits.fetch_add(1, std::memory_order_relaxed);
    CurGen = Gen.load(std::memory_order_relaxed);
  }
  // Un-pinned fetch: the summary is handed out even when a commit races
  // the promotion (same benign race as fetching just before the bump);
  // only the hot-tier insert is skipped then.
  promote(Stripe, D, CurGen, Node, Fields, S, Out);
  return true;
}

bool TieredSummaryStore::fetchAt(uint64_t AtGen, pag::NodeId Node,
                                 const std::vector<uint32_t> &Fields,
                                 RsmState S, PortableSummary &Out) {
  uint64_t D = summaryKeyDigest(Node, Fields, S);
  unsigned Stripe = Hot.stripeFor(D);
  SummaryStripe &St = Hot.stripe(Stripe);
  St.C.Fetches.fetch_add(1, std::memory_order_relaxed);

  // With a disk tier attached, start the probe's first memory load now
  // so it overlaps with the hot-tier lookup below.  The HasDisk flag
  // keeps the no-tier configuration at a single relaxed byte load —
  // atomic_load on the shared_ptr itself goes through the library's
  // lock pool, too costly to put on every hot hit.
  std::shared_ptr<DiskTier> T;
  uint64_t RecD = 0;
  if (HasDisk.load(std::memory_order_relaxed)) {
    T = std::atomic_load(&Disk);
    if (T)
      RecD = prepareDiskProbe(*T, Node, Fields, S);
  }

  {
    std::shared_lock<std::shared_mutex> Lock = Hot.lockShared(Stripe);
    // A stale epoch means the caller traverses a superseded PAG:
    // current entries may only hold for the new graph, so every probe
    // must miss.  (Gen only moves under ALL stripe locks, so this read
    // is exact under ours.)
    if (AtGen != Gen.load(std::memory_order_relaxed)) {
      St.C.StaleFetches.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (const SummaryEntry *E = St.find(D, Node, Fields, S)) {
      Out = E->Summary;
      St.C.Hits.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    if (!T)
      return false;
    St.C.DiskProbes.fetch_add(1, std::memory_order_relaxed);
    if (!probeDisk(*T, RecD, Node, Fields, S, Out))
      return false;
    St.C.DiskHits.fetch_add(1, std::memory_order_relaxed);
  }
  // Epoch-pinned: the hit only stands if the generation is STILL AtGen
  // when the promotion lock is held; otherwise the batch is stale and
  // must miss, like every other stale probe.
  return promote(Stripe, D, AtGen, Node, Fields, S, Out);
}

//===----------------------------------------------------------------------===//
// Publish
//===----------------------------------------------------------------------===//

void TieredSummaryStore::publish(pag::NodeId Node,
                                 std::vector<uint32_t> Fields, RsmState S,
                                 PortableSummary Summary) {
  // Trim growth slack outside the lock: the store holds summaries for
  // the lifetime of the scheduler, and every worker publishes, so slack
  // would accumulate across threads and batches.
  Summary.Objects.shrink_to_fit();
  Summary.Tuples.shrink_to_fit();
  Summary.FieldData.shrink_to_fit();
  uint64_t D = summaryKeyDigest(Node, Fields, S);
  unsigned Stripe = Hot.stripeFor(D);
  SummaryStripe &St = Hot.stripe(Stripe);
  std::unique_lock<std::shared_mutex> Lock = Hot.lockUnique(Stripe);
  if (St.insert(D, Node, std::move(Fields), S, std::move(Summary)))
    St.C.Publishes.fetch_add(1, std::memory_order_relaxed);
}

void TieredSummaryStore::publishAt(uint64_t AtGen, pag::NodeId Node,
                                   std::vector<uint32_t> Fields, RsmState S,
                                   PortableSummary Summary) {
  Summary.Objects.shrink_to_fit();
  Summary.Tuples.shrink_to_fit();
  Summary.FieldData.shrink_to_fit();
  uint64_t D = summaryKeyDigest(Node, Fields, S);
  unsigned Stripe = Hot.stripeFor(D);
  SummaryStripe &St = Hot.stripe(Stripe);
  std::unique_lock<std::shared_mutex> Lock = Hot.lockUnique(Stripe);
  // A summary computed against a superseded PAG must never enter the
  // current generation.  Checked under the stripe lock, which the
  // generation bump cannot bypass (it holds all stripes).
  if (AtGen != Gen.load(std::memory_order_relaxed)) {
    St.C.StalePublishes.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (St.insert(D, Node, std::move(Fields), S, std::move(Summary)))
    St.C.Publishes.fetch_add(1, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Generations
//===----------------------------------------------------------------------===//

size_t TieredSummaryStore::beginGeneration(
    const pag::PAG &NewGraph, const incremental::InvalidationPlan &Plan) {
  std::vector<std::unique_lock<std::shared_mutex>> Locks =
      Hot.lockAllUnique();

  // Node ids are stable across delta builds, so surviving entries carry
  // over verbatim: digests unchanged, erase in place — no rehash, no
  // entry moves.  Each stripe erases its per-method lists of the plan's
  // methods, after filing what was published since the last commit.
  size_t Dropped = 0;
  for (unsigned I = 0; I < Hot.numStripes(); ++I) {
    SummaryStripe &St = Hot.stripe(I);
    size_t N = St.dropMethods(NewGraph, Plan.Methods);
    St.C.Invalidated.fetch_add(N, std::memory_order_relaxed);
    Dropped += N;
  }

  // The disk tier parallels the drop: accumulate the plan into the
  // invalidated set so records of these methods are refused forever
  // after (exactly what would have happened had they been resident).
  if (std::shared_ptr<DiskTier> T = std::atomic_load(&Disk))
    T->Invalidated.insert(Plan.Methods.begin(), Plan.Methods.end());

  Gen.fetch_add(1, std::memory_order_release);
  return Dropped;
}

void TieredSummaryStore::clear() {
  std::vector<std::unique_lock<std::shared_mutex>> Locks =
      Hot.lockAllUnique();
  for (unsigned I = 0; I < Hot.numStripes(); ++I) {
    SummaryStripe &St = Hot.stripe(I);
    St.C.Invalidated.fetch_add(St.size(), std::memory_order_relaxed);
    St.clear();
  }
  // A clear means the generation lineage branched (rollback): the
  // attach-time snapshot's "never invalidated since attach" bookkeeping
  // cannot survive that, so the disk tier goes too.
  std::shared_ptr<DiskTier> None;
  HasDisk.store(false, std::memory_order_relaxed);
  std::atomic_store(&Disk, None);
  Gen.fetch_add(1, std::memory_order_release);
}

size_t TieredSummaryStore::size() const {
  size_t Total = 0;
  for (unsigned I = 0; I < Hot.numStripes(); ++I) {
    std::shared_lock<std::shared_mutex> Lock = Hot.lockShared(I);
    Total += Hot.stripe(I).size();
  }
  return Total;
}

//===----------------------------------------------------------------------===//
// Disk tier attach
//===----------------------------------------------------------------------===//

TieredSummaryStore::DiskTierStatus
TieredSummaryStore::attachDiskTier(const std::string &Path,
                                   const pag::PAG &G) {
  DiskTierStatus Status;
  const ir::Program &P = G.program();
  size_t NumVars = P.variables().size();
  size_t NumAllocs = P.allocs().size();

  auto T = std::make_shared<DiskTier>();
  std::string Error;
  T->File = MappedSummaryFile::open(Path, programFingerprint(P), NumVars,
                                    NumAllocs, &Error);
  if (!T->File) {
    Status.Error = Error;
    return Status;
  }

  // Snapshot the canonical <-> node translation NOW: fingerprint
  // equality pins the program's variable/alloc counts to the file's, so
  // the attach-time canonical space is exactly the save-time one.
  // Later commits may add variables (shifting what canonicalNode would
  // compute live); nodes born after this point simply skip the tier.
  T->NodeOfCanon.resize(NumVars + NumAllocs);
  for (size_t V = 0; V < NumVars; ++V)
    T->NodeOfCanon[V] = G.nodeOfVar(ir::VarId(V));
  for (size_t A = 0; A < NumAllocs; ++A)
    T->NodeOfCanon[NumVars + A] = G.nodeOfAlloc(ir::AllocId(A));

  size_t NumNodes = G.numNodes();
  T->CanonOf.resize(NumNodes);
  T->MethodOf.resize(NumNodes);
  for (size_t N = 0; N < NumNodes; ++N) {
    const pag::Node &Nd = G.node(pag::NodeId(N));
    T->CanonOf[N] = Nd.Kind == pag::NodeKind::Object
                        ? uint32_t(NumVars) + Nd.IrId
                        : Nd.IrId;
    T->MethodOf[N] = Nd.Method;
  }

  // Settle every record's CRC verdict now, while attach is the only
  // thread touching the file.  A serving tier probes most of the file
  // over its lifetime anyway; paying the checksums here — once per
  // restart, off every query's critical path — means fetchAt never
  // streams a CRC.  Corruption semantics are unchanged: a dead record
  // is a permanent miss, it just gets discovered at attach.
  uint64_t Dead = T->File->validateAll();

  Status.Attached = true;
  Status.Records = T->File->records() - Dead;
  Status.Indexed = T->File->indexedOnOpen();

  // Promotion will push a large slice of these records into the hot
  // tier; size each stripe's table for its expected share up front so
  // a warm first batch is not a rehash cascade.
  size_t PerStripe = Status.Records / Hot.numStripes() + 16;
  for (unsigned I = 0; I < Hot.numStripes(); ++I) {
    std::unique_lock<std::shared_mutex> Lock = Hot.lockUnique(I);
    Hot.stripe(I).Map.reserve(Hot.stripe(I).Map.size() + PerStripe);
  }

  std::atomic_store(&Disk, std::shared_ptr<DiskTier>(std::move(T)));
  HasDisk.store(true, std::memory_order_relaxed);
  return Status;
}

//===----------------------------------------------------------------------===//
// Save
//===----------------------------------------------------------------------===//

bool TieredSummaryStore::save(const std::string &Path, const pag::PAG &G,
                              uint64_t *Records) const {
  // File the disk tier's live records by the stripe their key would
  // occupy in the hot tier: the shadow and invalidation checks run
  // under that stripe's lock, and only a record that passes them is
  // decoded whole — exactly as a probe would serve it, tuple nodes
  // resolved into this process's ids.
  std::shared_ptr<DiskTier> T = std::atomic_load(&Disk);
  std::vector<std::vector<uint32_t>> SlotsOf(Hot.numStripes());
  SummaryEntry E;
  uint32_t Canonical = 0;
  for (size_t Slot = 0; T && Slot < T->File->records(); ++Slot) {
    if (!T->File->record(Slot, Canonical, E.State, E.Fields, nullptr))
      continue;
    E.Node = T->NodeOfCanon[Canonical];
    uint64_t D = summaryKeyDigest(E.Node, E.Fields, E.State);
    SlotsOf[Hot.stripeFor(D)].push_back(uint32_t(Slot));
  }

  SummaryFileWriter W(G);
  for (unsigned I = 0; I < Hot.numStripes(); ++I) {
    std::shared_lock<std::shared_mutex> Lock = Hot.lockShared(I);
    const SummaryStripe &St = Hot.stripe(I);
    for (const auto &[D, Entry] : St.Map) {
      (void)D;
      W.add(Entry.Node, Entry.Fields, Entry.State, Entry.Summary);
    }
    for (const SummaryEntry &Entry : St.Overflow)
      W.add(Entry.Node, Entry.Fields, Entry.State, Entry.Summary);
    for (uint32_t Slot : SlotsOf[I]) {
      if (!T->File->record(Slot, Canonical, E.State, E.Fields, nullptr))
        continue;
      E.Node = T->NodeOfCanon[Canonical];
      uint64_t D = summaryKeyDigest(E.Node, E.Fields, E.State);
      if (!T->serves(E.Node) || St.find(D, E.Node, E.Fields, E.State) ||
          !T->File->record(Slot, Canonical, E.State, E.Fields, &E.Summary))
        continue;
      for (PortableSummary::Tuple &Tp : E.Summary.Tuples)
        Tp.Node = T->NodeOfCanon[Tp.Node];
      W.add(E.Node, E.Fields, E.State, E.Summary);
    }
  }
  if (Records)
    *Records = W.records();
  return W.write(Path);
}

//===----------------------------------------------------------------------===//
// Counters
//===----------------------------------------------------------------------===//

StoreCounters TieredSummaryStore::counters() const {
  StoreCounters C;
  for (unsigned I = 0; I < Hot.numStripes(); ++I)
    Hot.stripe(I).C.addTo(C);
  if (std::shared_ptr<DiskTier> T = std::atomic_load(&Disk))
    C.DiskCorrupt = T->File->corruptRecords();
  return C;
}

StoreCounters TieredSummaryStore::stripeCounters(unsigned I) const {
  StoreCounters C;
  Hot.stripe(I).C.addTo(C);
  return C;
}
