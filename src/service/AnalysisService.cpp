//===----------------------------------------------------------------------===//
///
/// \file
/// AnalysisService implementation.
///
//===----------------------------------------------------------------------===//

#include "service/AnalysisService.h"

#include "engine/TieredStore.h"
#include "ir/Validator.h"
#include "support/FaultInjection.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>
#include <chrono>

using namespace dynsum;
using namespace dynsum::service;
using incremental::CommitOutcome;
using incremental::CommitStats;
using incremental::InvalidationPlan;

//===----------------------------------------------------------------------===//
// CommitTicket
//===----------------------------------------------------------------------===//

bool CommitTicket::done() const {
  if (!S)
    return false;
  std::lock_guard<std::mutex> Lock(S->M);
  return S->Done;
}

CommitStats CommitTicket::wait() const {
  assert(S && "waiting on an invalid ticket");
  std::unique_lock<std::mutex> Lock(S->M);
  S->Cv.wait(Lock, [this] { return S->Done; });
  return S->Stats;
}

uint64_t CommitTicket::generation() const {
  assert(S && "waiting on an invalid ticket");
  std::unique_lock<std::mutex> Lock(S->M);
  S->Cv.wait(Lock, [this] { return S->Done; });
  return S->Generation;
}

//===----------------------------------------------------------------------===//
// Construction
//===----------------------------------------------------------------------===//

AnalysisService::AnalysisService(std::unique_ptr<ir::Program> P,
                                 ServiceOptions Opts)
    : Opts(std::move(Opts)), Prog(std::move(P)) {
  publish(buildFirstGeneration()); // generation 0, store is empty
  CommittedClock = Prog->modClock();
  // Warm restart: attach the previous run's shutdown snapshot as the
  // store's read-only disk tier.  Nothing is loaded eagerly — queries
  // that miss the hot tier probe the mapped file and promote hits.  A
  // refused attach (missing file, damage, fingerprint mismatch) just
  // means a cold start; it is never an error.
  if (!this->Opts.WarmFromDiskPath.empty())
    Store.attachDiskTier(this->Opts.WarmFromDiskPath,
                         *current()->Built->Graph);
}

AnalysisService::~AnalysisService() {
  {
    std::lock_guard<std::mutex> Lock(AsyncMutex);
    AsyncStop = true;
    WorkCv.notify_all();
  }
  if (Committer.joinable())
    Committer.join();
  // Graceful snapshot-to-disk: best effort, after the committer has
  // drained so the snapshot covers every accepted commit.  Shutdown
  // must never throw; a failed save just means a cold next start.
  if (!Opts.SnapshotOnShutdownPath.empty()) {
    try {
      saveSummaries(Opts.SnapshotOnShutdownPath);
    } catch (...) {
    }
  }
}

std::shared_ptr<const AnalysisService::Generation>
AnalysisService::buildFirstGeneration() {
  auto G = std::make_shared<Generation>();
  G->Number = Store.generation();
  G->NumVars = Prog->variables().size();
  G->Built = std::make_shared<pag::BuiltPAG>(
      pag::buildPAG(*Prog, nullptr, Opts.Commit));
  G->Engine = std::make_unique<engine::QueryScheduler>(
      *G->Built->Graph, Opts.Engine, Store, G->Number);
  return G;
}

void AnalysisService::publish(std::shared_ptr<const Generation> G) {
  std::lock_guard<std::mutex> Lock(GenMutex);
  if (Current) {
    History.push_back(std::move(Current));
    while (History.size() > Opts.KeepGenerations)
      History.pop_front();
  }
  Current = std::move(G);
}

std::shared_ptr<const AnalysisService::Generation>
AnalysisService::current() const {
  std::lock_guard<std::mutex> Lock(GenMutex);
  return Current;
}

std::shared_ptr<const AnalysisService::Generation>
AnalysisService::findGeneration(uint64_t Number) const {
  std::lock_guard<std::mutex> Lock(GenMutex);
  if (Current && Current->Number == Number)
    return Current;
  for (const std::shared_ptr<const Generation> &G : History)
    if (G->Number == Number)
      return G;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Edits
//===----------------------------------------------------------------------===//

void AnalysisService::addStatement(ir::MethodId M, ir::Statement S) {
  std::lock_guard<std::mutex> Lock(EditMutex);
  Prog->addStatement(M, std::move(S)); // stamps M on the edit clock
}

size_t AnalysisService::removeStatements(
    ir::MethodId M, const std::function<bool(const ir::Statement &)> &Pred) {
  std::lock_guard<std::mutex> Lock(EditMutex);
  return Prog->removeStatements(M, Pred); // stamps M on the edit clock
}

void AnalysisService::markDirty(ir::MethodId M) {
  std::lock_guard<std::mutex> Lock(EditMutex);
  Prog->touchMethod(M);
}

void AnalysisService::editProgram(
    const std::function<std::vector<ir::MethodId>(ir::Program &)> &Edit) {
  std::lock_guard<std::mutex> Lock(EditMutex);
  for (ir::MethodId M : Edit(*Prog))
    Prog->touchMethod(M);
}

bool AnalysisService::dirty() const {
  std::lock_guard<std::mutex> Lock(EditMutex);
  return Prog->modClock() != CommittedClock;
}

//===----------------------------------------------------------------------===//
// Commits
//===----------------------------------------------------------------------===//

CommitStats AnalysisService::commitLocked(CommitMode Mode) {
  if (Prog->modClock() == CommittedClock)
    return {};

  Timer Clock;
  CommitStats Stats;
  Stats.Outcome = CommitOutcome::Committed;
  Stats.SummariesBefore = Store.size();
  const unsigned Threads = Opts.Commit;

  // Pre-commit gate: validate exactly the methods this commit would
  // re-lower (O(dirty), not O(program)).  A rejected commit leaves
  // everything — generation chain, store, boundary cache, committed
  // clock — untouched; the edits stay buffered until fixed.
  std::vector<std::string> Problems = ir::validateMethods(
      *Prog, Prog->methodsTouchedSince(CommittedClock));
  if (!Problems.empty()) {
    Stats.Outcome = CommitOutcome::ValidationRejected;
    Stats.Error = Problems.front();
    if (Problems.size() > 1)
      Stats.Error += " (+" + std::to_string(Problems.size() - 1) + " more)";
    Stats.Seconds = Clock.seconds();
    CommitValidationRejects.fetch_add(1, std::memory_order_relaxed);
    return Stats;
  }

  // The pre-edit boundary flags are usually carried forward from the
  // previous commit (CachedBoundary).  The old generation's graph is
  // immutable, so a full sweep — needed only on the first commit and
  // after a rollback or a failed commit — can run after the build.
  std::shared_ptr<const Generation> Old = current();
  const bool CarriedValid = CachedBoundaryGen == Old->Number;
  CachedBoundaryGen = kNoBoundaryGen;

  // Everything below, up to the publish, is failure-isolated: the new
  // generation is built on a private copy-on-write snapshot, so a
  // throw anywhere in the pipeline (a lowering worker, an allocation
  // failure) just abandons that snapshot — the old generation's chunks
  // are immutable while shared, the committed clock has not advanced,
  // and no store invalidation has run yet.  The boundary carry was
  // invalidated above, so the next commit re-sweeps; that costs one
  // full diff, never correctness.
  try {
    // Snapshot the previous epoch's graph.  Storage is chunked and
    // copy-on-write, so this "clone" is a chunk-table copy plus
    // refcount bumps — O(tables), independent of graph size — and the
    // delta build below splits only the chunks the edit touches.  The
    // old generation keeps serving in-flight batches untouched the
    // whole time (its chunks are immutable while shared); node ids are
    // shared between the two graphs by construction.
    Timer CloneClock;
    support::faultPoint("commit.snapshot");
    auto NewBuilt = std::make_shared<pag::BuiltPAG>();
    NewBuilt->Graph = std::make_unique<pag::PAG>(*Old->Built->Graph);
    NewBuilt->Calls = Old->Built->Calls;
    Stats.CloneSeconds = CloneClock.seconds();
    pag::DeltaStats Delta = pag::buildPAGDelta(
        *NewBuilt->Graph, NewBuilt->Calls, nullptr,
        /*ForceFull=*/Mode == CommitMode::Scratch, Threads);
    Stats.MethodsRelowered = Delta.Relowered.size();
    Stats.ShapeSeconds = Delta.ShapeSeconds;
    Stats.LowerSeconds = Delta.LowerSeconds;
    Stats.ApplySeconds = Delta.ApplySeconds;
    Stats.RepackSeconds = Delta.RepackSeconds;

    if (!CarriedValid)
      CachedBoundary =
          incremental::snapshotBoundary(*Old->Built->Graph, Threads);
    InvalidationPlan Plan = incremental::planCommitInvalidation(
        CachedBoundary, CarriedValid, *NewBuilt->Graph, Delta.Touched, Threads);
    Stats.MethodsInvalidated = Plan.Methods.size();
    Stats.SummariesDropped = Store.beginGeneration(*NewBuilt->Graph, Plan);

    // Publish: from here on new batches pin the new generation;
    // batches that already grabbed Old keep it alive and drain against
    // it (their store epoch went stale with the bump above, so they
    // compute privately and never cross-contaminate).
    auto NewGen = std::make_shared<Generation>();
    NewGen->Number = Store.generation();
    NewGen->NumVars = Prog->variables().size();
    NewGen->Built = std::move(NewBuilt);
    NewGen->Engine = std::make_unique<engine::QueryScheduler>(
        *NewGen->Built->Graph, Opts.Engine, Store, NewGen->Number);
    // The invalidation diff captured the new graph's boundary flags
    // into CachedBoundary; stamp them with the generation they
    // describe.
    CachedBoundaryGen = NewGen->Number;
    publish(std::move(NewGen));
  } catch (const std::exception &E) {
    Stats.Outcome = CommitOutcome::BuildFailed;
    Stats.Error = E.what();
    Stats.Seconds = Clock.seconds();
    CommitFailures.fetch_add(1, std::memory_order_relaxed);
    return Stats;
  }

  CommittedClock = Prog->modClock();
  // A published commit proves the buffered edits are good again: lift
  // any poison-edit quarantine (see committerLoop).
  QuarantineActive = false;
  Stats.Seconds = Clock.seconds();
  Commits.fetch_add(1, std::memory_order_relaxed);
  SharedDropped.fetch_add(Stats.SummariesDropped, std::memory_order_relaxed);
  uint64_t Micros = uint64_t(Stats.Seconds * 1e6);
  LastCommitMicros.store(Micros, std::memory_order_relaxed);
  TotalCommitMicros.fetch_add(Micros, std::memory_order_relaxed);
  LastCommitRelowered.store(Stats.MethodsRelowered,
                            std::memory_order_relaxed);
  return Stats;
}

void AnalysisService::completeTicket(
    const std::shared_ptr<CommitTicket::State> &S, const CommitStats &Stats,
    uint64_t Generation) {
  std::lock_guard<std::mutex> Lock(S->M);
  S->Stats = Stats;
  S->Generation = Generation;
  S->Done = true;
  S->Cv.notify_all();
}

CommitTicket AnalysisService::submitCommit(const CommitRequest &Req) {
  if (!Req.Background) {
    auto S = std::make_shared<CommitTicket::State>();
    CommitStats Stats;
    uint64_t Gen = 0;
    {
      std::lock_guard<std::mutex> Lock(EditMutex);
      Stats = commitLocked(Req.Mode);
      Gen = current()->Number;
    }
    completeTicket(S, Stats, Gen);
    return CommitTicket(std::move(S));
  }

  // Background: attach to the coalesced pending slot.  A request
  // arriving while a commit is queued shares that commit's ticket state
  // — the covering commit publishes every edit buffered before it grabs
  // the edit lock, so one completion answers them all (Scratch wins
  // when modes mix).  A request arriving while a commit is only *in
  // flight* starts a fresh pending slot: its edits may have missed that
  // commit's cutoff, so it must be covered by a follow-up.
  std::lock_guard<std::mutex> Lock(AsyncMutex);
  AsyncRequested.fetch_add(1, std::memory_order_relaxed);
  // Backlog watermark: when the pending slot has already absorbed
  // MaxCommitBacklog requests, shed this one instead of queueing more.
  // Shedding loses nothing — the edits stay buffered and the pending
  // commit covers them — it only tells the submitter to back off.
  if (Opts.Overload.MaxCommitBacklog != 0 && PendingTicket &&
      PendingCoalesced >= Opts.Overload.MaxCommitBacklog) {
    CommitsShed.fetch_add(1, std::memory_order_relaxed);
    auto S = std::make_shared<CommitTicket::State>();
    CommitStats Shed;
    Shed.Outcome = CommitOutcome::Shed;
    Shed.Error = "background commit backlog over watermark";
    completeTicket(S, Shed, current()->Number);
    return CommitTicket(std::move(S));
  }
  if (PendingTicket || AsyncInFlight)
    AsyncCoalesced.fetch_add(1, std::memory_order_relaxed);
  if (!PendingTicket) {
    PendingTicket = std::make_shared<CommitTicket::State>();
    PendingMode = CommitMode::Delta;
    PendingCoalesced = 0;
  }
  ++PendingCoalesced;
  if (Req.Mode == CommitMode::Scratch)
    PendingMode = CommitMode::Scratch; // scratch wins when modes mix
  if (!Committer.joinable())
    Committer = std::thread([this] { committerLoop(); });
  WorkCv.notify_one();
  return CommitTicket(PendingTicket);
}

//===----------------------------------------------------------------------===//
// Background committer
//===----------------------------------------------------------------------===//
//
// One background committer drains a single coalesced request slot: a
// commit covers every edit buffered before it grabs the edit lock, so
// any number of requests queued while one is in flight collapse into
// one follow-up commit without losing anything.  The committer publishes
// through the same epoch handoff as foreground commits — readers never
// see a half-built generation, they just keep draining the previous
// snapshot until the atomic pointer swap.

void AnalysisService::committerLoop() {
  std::unique_lock<std::mutex> Lock(AsyncMutex);
  for (;;) {
    WorkCv.wait(Lock, [this] { return PendingTicket != nullptr || AsyncStop; });
    if (!PendingTicket) // stop requested and queue drained
      return;
    CommitMode Mode = PendingMode;
    std::shared_ptr<CommitTicket::State> Ticket = std::move(PendingTicket);
    PendingTicket = nullptr;
    PendingMode = CommitMode::Delta;
    PendingCoalesced = 0;
    AsyncInFlight = true;
    Lock.unlock();

    // Failure policy: a commit whose build threw (a transient fault)
    // is retried with capped exponential backoff; a validation
    // rejection is deterministic and never retried.  Either way a
    // commit that stays bad arms the poison-edit quarantine — further
    // background requests fail fast until the edit clock moves (new
    // edits arrive) or a commit succeeds (foreground commits always
    // run and lift the quarantine on success).
    CommitStats Stats;
    uint64_t Gen = 0;
    unsigned Attempt = 0;
    for (;;) {
      bool Retry = false;
      {
        std::lock_guard<std::mutex> Edit(EditMutex);
        if (QuarantineActive && Prog->modClock() == QuarantineClock) {
          Stats = CommitStats();
          Stats.Outcome = CommitOutcome::Quarantined;
          Stats.Error =
              "edit set quarantined after repeated commit failures";
          CommitsQuarantined.fetch_add(1, std::memory_order_relaxed);
        } else {
          Stats = commitLocked(Mode);
          if (Stats.Outcome == CommitOutcome::BuildFailed &&
              Attempt < Opts.BackgroundCommitRetries) {
            Retry = true;
          } else if (Stats.Outcome == CommitOutcome::BuildFailed ||
                     Stats.Outcome == CommitOutcome::ValidationRejected) {
            QuarantineActive = true;
            QuarantineClock = Prog->modClock();
          }
        }
        Gen = current()->Number;
      }
      if (!Retry)
        break;
      ++Attempt;
      CommitRetries.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(
          std::min(1u << (Attempt - 1), 50u)));
    }
    completeTicket(Ticket, Stats, Gen);
    Lock.lock();
    AsyncInFlight = false;
    IdleCv.notify_all();
  }
}

void AnalysisService::waitForCommits() {
  std::unique_lock<std::mutex> Lock(AsyncMutex);
  IdleCv.wait(Lock, [this] { return !PendingTicket && !AsyncInFlight; });
}

//===----------------------------------------------------------------------===//
// Generation history
//===----------------------------------------------------------------------===//

std::vector<GenerationInfo> AnalysisService::generations() const {
  std::vector<std::shared_ptr<const Generation>> Gens;
  {
    std::lock_guard<std::mutex> Lock(GenMutex);
    Gens.assign(History.begin(), History.end());
    if (Current)
      Gens.push_back(Current);
  }
  std::vector<GenerationInfo> Out;
  Out.reserve(Gens.size());
  for (size_t I = 0; I < Gens.size(); ++I) {
    const Generation &G = *Gens[I];
    GenerationInfo Info;
    Info.Number = G.Number;
    Info.NumVars = G.NumVars;
    Info.IsCurrent = I + 1 == Gens.size();
    pag::PAGMemoryStats GraphMem = G.Built->Graph->memoryStats();
    support::ChunkMemoryStats CallMem = G.Built->Calls.memory();
    Info.TotalBytes = GraphMem.TotalBytes + CallMem.TotalBytes;
    Info.RetainedBytes =
        GraphMem.RetainedBytes + (CallMem.TotalBytes - CallMem.SharedBytes);
    Out.push_back(Info);
  }
  return Out;
}

std::optional<ServiceBatchResult>
AnalysisService::queryVarsAt(uint64_t Generation,
                             const std::vector<ir::VarId> &Vars) {
  std::shared_ptr<const AnalysisService::Generation> Gen =
      findGeneration(Generation);
  if (!Gen)
    return std::nullopt;
  return runBatch(Gen, Vars, nullptr);
}

bool AnalysisService::rollback(uint64_t Generation) {
  std::lock_guard<std::mutex> Lock(EditMutex);
  std::shared_ptr<const AnalysisService::Generation> R =
      findGeneration(Generation);
  if (!R)
    return false;

  // Summaries are validated by per-method diffs along the generation
  // lineage; republishing an older snapshot branches that lineage, so
  // entries validated on the abandoned branch cannot be trusted by any
  // future diff.  Drop them (the graphs themselves share chunks safely
  // across the branch — refcounts are lineage-blind).
  Store.clear();

  auto NewGen = std::make_shared<AnalysisService::Generation>();
  NewGen->Number = Store.generation();
  NewGen->NumVars = R->NumVars;
  NewGen->Built = R->Built; // O(1): the snapshot is shared, not rebuilt
  NewGen->Engine = std::make_unique<engine::QueryScheduler>(
      *NewGen->Built->Graph, Opts.Engine, Store, NewGen->Number);
  publish(std::move(NewGen));

  // Rewind the committed clock to the snapshot's build clock: program
  // edits made after its capture count as pending again, and the next
  // commit re-applies them as an ordinary delta of the restored graph.
  CommittedClock = R->Built->Graph->builtModClock();
  // The carried boundary snapshot described the abandoned head; the
  // next commit re-sweeps the restored graph.
  CachedBoundaryGen = kNoBoundaryGen;
  Rollbacks.fetch_add(1, std::memory_order_relaxed);
  return true;
}

//===----------------------------------------------------------------------===//
// Queries
//===----------------------------------------------------------------------===//

bool AnalysisService::admitBatch() {
  unsigned Max = Opts.Overload.MaxActiveBatches;
  if (Max == 0)
    return true;
  unsigned Low = Opts.Overload.ResumeActiveBatches != 0
                     ? Opts.Overload.ResumeActiveBatches
                     : Max / 2;
  unsigned Active = ActiveBatches.load(std::memory_order_relaxed);
  if (SheddingState.load(std::memory_order_relaxed)) {
    // Shedding: stay closed until the in-flight count drains to the
    // low watermark (hysteresis — no flapping at the edge).
    if (Active > Low)
      return false;
    SheddingState.store(false, std::memory_order_relaxed);
    return true;
  }
  if (Active >= Max) {
    SheddingState.store(true, std::memory_order_relaxed);
    return false;
  }
  return true;
}

ServiceBatchResult AnalysisService::shedBatch(size_t NumQueries) {
  ServiceBatchResult Out;
  Out.Generation = current()->Number;
  Out.Outcomes.resize(NumQueries);
  for (engine::QueryOutcome &O : Out.Outcomes) {
    O.Status = analysis::QueryStatus::Overloaded;
    O.BudgetExceeded = true; // "unknown", same contract as over-budget
  }
  ShedBatches.fetch_add(1, std::memory_order_relaxed);
  ShedQueries.fetch_add(NumQueries, std::memory_order_relaxed);
  return Out;
}

ServiceBatchResult
AnalysisService::runBatch(const std::shared_ptr<const Generation> &Gen,
                          const std::vector<ir::VarId> &Vars,
                          const support::Deadline *DL) {
  if (!admitBatch())
    return shedBatch(Vars.size());
  ActiveBatches.fetch_add(1, std::memory_order_relaxed);
  // Leave the in-flight count on every exit, a throwing engine run
  // included, so admission control never sticks closed.
  struct LeaveGuard {
    std::atomic<unsigned> &N;
    ~LeaveGuard() { N.fetch_sub(1, std::memory_order_relaxed); }
  } Leave{ActiveBatches};

  // Variables are append-only with dense ids, so id < NumVars decides
  // whether the pinned generation knows the variable.  Unknown ones
  // (created after this generation's commit) keep a default (empty)
  // outcome.
  engine::QueryBatch Batch;
  std::vector<size_t> Slot; // batch index -> Vars index
  Slot.reserve(Vars.size());
  for (size_t I = 0; I < Vars.size(); ++I) {
    if (Vars[I] < Gen->NumVars) {
      Batch.add(Gen->Built->Graph->nodeOfVar(Vars[I]));
      Slot.push_back(I);
    }
  }

  engine::BatchResult R =
      DL ? Gen->Engine->run(Batch, *DL) : Gen->Engine->run(Batch);

  ServiceBatchResult Out;
  Out.Generation = Gen->Number;
  Out.Stats = R.Stats;
  Out.Outcomes.resize(Vars.size());
  for (size_t B = 0; B < Slot.size(); ++B)
    Out.Outcomes[Slot[B]] = std::move(R.Outcomes[B]);

  Batches.fetch_add(1, std::memory_order_relaxed);
  Queries.fetch_add(Vars.size(), std::memory_order_relaxed);
  if (R.Stats.TimedOut)
    TimedOutQueries.fetch_add(R.Stats.TimedOut, std::memory_order_relaxed);
  if (R.Stats.Cancelled)
    CancelledQueries.fetch_add(R.Stats.Cancelled,
                               std::memory_order_relaxed);
  return Out;
}

ServiceBatchResult AnalysisService::queryVars(
    const std::vector<ir::VarId> &Vars) {
  return runBatch(current(), Vars, nullptr);
}

ServiceBatchResult
AnalysisService::queryVars(const std::vector<ir::VarId> &Vars,
                           const support::Deadline &DL) {
  return runBatch(current(), Vars, &DL);
}

engine::QueryOutcome AnalysisService::queryVar(ir::VarId V) {
  ServiceBatchResult R = queryVars({V});
  return std::move(R.Outcomes.front());
}

engine::QueryOutcome AnalysisService::queryVar(ir::VarId V,
                                               const support::Deadline &DL) {
  ServiceBatchResult R = queryVars({V}, DL);
  return std::move(R.Outcomes.front());
}

//===----------------------------------------------------------------------===//
// Persistence
//===----------------------------------------------------------------------===//
//
// The store owns both directions: a save streams it (hot tier plus the
// disk records it still serves) into a snapshot, and a load attaches a
// snapshot as its disk tier.  Pending edits are committed first so the
// file's program fingerprint describes the current generation's graph.

bool AnalysisService::saveSummaries(const std::string &Path,
                                    uint64_t *Records) {
  std::lock_guard<std::mutex> Lock(EditMutex);
  commitLocked(CommitMode::Delta);
  return Store.save(Path, *current()->Built->Graph, Records);
}

bool AnalysisService::loadSummaries(const std::string &Path,
                                    uint64_t *Records) {
  std::lock_guard<std::mutex> Lock(EditMutex);
  commitLocked(CommitMode::Delta);
  engine::TieredSummaryStore::DiskTierStatus St =
      Store.attachDiskTier(Path, *current()->Built->Graph);
  if (Records)
    *Records = St.Records;
  return St.Attached;
}

//===----------------------------------------------------------------------===//
// Introspection
//===----------------------------------------------------------------------===//

uint64_t AnalysisService::generation() const { return current()->Number; }

ServiceStats AnalysisService::stats() const {
  ServiceStats S;
  S.Generation = generation();
  S.Commits = Commits.load(std::memory_order_relaxed);
  S.Rollbacks = Rollbacks.load(std::memory_order_relaxed);
  S.Batches = Batches.load(std::memory_order_relaxed);
  S.Queries = Queries.load(std::memory_order_relaxed);
  S.SharedSummariesDropped = SharedDropped.load(std::memory_order_relaxed);
  S.StoreSize = Store.size();
  S.LastCommitSeconds =
      double(LastCommitMicros.load(std::memory_order_relaxed)) / 1e6;
  S.TotalCommitSeconds =
      double(TotalCommitMicros.load(std::memory_order_relaxed)) / 1e6;
  S.LastCommitRelowered =
      LastCommitRelowered.load(std::memory_order_relaxed);
  S.AsyncCommitsRequested = AsyncRequested.load(std::memory_order_relaxed);
  S.AsyncCommitsCoalesced = AsyncCoalesced.load(std::memory_order_relaxed);
  S.CommitFailures = CommitFailures.load(std::memory_order_relaxed);
  S.CommitValidationRejects =
      CommitValidationRejects.load(std::memory_order_relaxed);
  S.CommitRetries = CommitRetries.load(std::memory_order_relaxed);
  S.CommitsQuarantined = CommitsQuarantined.load(std::memory_order_relaxed);
  S.CommitsShed = CommitsShed.load(std::memory_order_relaxed);
  S.ShedBatches = ShedBatches.load(std::memory_order_relaxed);
  S.ShedQueries = ShedQueries.load(std::memory_order_relaxed);
  S.TimedOutQueries = TimedOutQueries.load(std::memory_order_relaxed);
  S.CancelledQueries = CancelledQueries.load(std::memory_order_relaxed);
  S.Shedding = SheddingState.load(std::memory_order_relaxed);
  S.Store = Store.counters();
  S.DiskTierAttached = Store.hasDiskTier();
  S.StoreStripes = Store.numStripes();
  {
    std::lock_guard<std::mutex> Lock(GenMutex);
    S.RetainedGenerations = History.size();
  }
  {
    std::lock_guard<std::mutex> Lock(AsyncMutex);
    S.CommitInFlight = PendingTicket != nullptr || AsyncInFlight;
  }
  {
    std::lock_guard<std::mutex> Lock(EditMutex);
    S.Quarantined = QuarantineActive && Prog->modClock() == QuarantineClock;
  }
  return S;
}
