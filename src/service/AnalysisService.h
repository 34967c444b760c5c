//===----------------------------------------------------------------------===//
///
/// \file
/// AnalysisService: a long-lived analysis server that owns an editable
/// program and serves concurrent query batches through the parallel
/// engine while edits are committed.
///
/// This is the layer the paper's motivating environments (JIT
/// compilers, IDEs — Sections 1 and 7) sit on: clients on any thread
/// submit query batches; an editor thread buffers program edits and
/// publishes them through the commit API.  The two interleave through
/// versioned epochs ("generations"):
///
///   * Every generation is an immutable snapshot — a built PAG plus a
///     QueryScheduler pinned to the SharedSummaryStore generation the
///     PAG corresponds to.  Queries grab the current generation (one
///     shared_ptr copy under a mutex) and run entirely against it,
///     without ever touching the editable program.  A finalized PAG
///     never reads its ir::Program on the query path, so concurrent
///     edits to the program are invisible to running batches.
///
///   * A commit (serialized on the edit lock) builds the next PAG *as a
///     delta of the previous generation's graph*.  Generations share
///     storage structurally: the PAG's node/edge/CSR tables live on
///     copy-on-write chunked arenas (support/ChunkedStorage.h), so
///     "cloning" the previous graph is a chunk-table copy — O(tables),
///     not O(graph) — and the delta build then splits only the chunks
///     the edit actually touches.  Untouched chunks stay shared,
///     immutably, with every retained generation.  The patched graph is
///     produced by pag::buildPAGDelta (only the edited methods'
///     segments re-lower, node ids never move),
///     incremental::planCommitInvalidation names exactly the summaries
///     the edit can invalidate, they are dropped from the service-owned
///     SharedSummaryStore, the store generation bumps and the
///     current-generation pointer swaps.  This is the one commit
///     pipeline: every edit reaches the summaries through it.  In-flight
///     batches keep their old generation alive through the shared_ptr
///     and drain against the old PAG; their store probes miss from then
///     on (stale epoch), so answers stay correct for the epoch they
///     report.  CommitMode::Scratch is the A/B escape hatch: it
///     force-re-lowers every method (same stable ids, O(program) cost)
///     so delta builds can be cross-checked live.
///
///   * All commits go through ONE entry point: submitCommit() takes a
///     CommitRequest (mode + foreground/background) and returns a
///     waitable CommitTicket.  A foreground request runs the pipeline
///     on the calling thread and returns an already-completed ticket; a
///     background request queues it to the committer thread and the
///     ticket completes when the covering commit publishes.  Background
///     requests arriving while a commit is in flight coalesce into one
///     follow-up commit (safe because any commit covers every edit
///     buffered before it grabbed the edit lock — Scratch wins when
///     modes mix), and every coalesced ticket shares the covering
///     commit's ticket state: they all complete together, with the same
///     stats.  waitForCommits() is the fence for tickets that were
///     dropped.
///
///   * The commit pipeline shards its phases (shape fingerprints,
///     staged re-lowering, partitioned CSR repack, boundary
///     snapshot/diff — see pag::buildPAGDelta) into at most
///     ServiceOptions::Commit tasks each.  The tasks run on the
///     process's one executor (support/Parallel.h), which query
///     batches and every other service's commits share; no commit
///     starts a thread.
///
/// Because snapshots share chunks, retaining generations is cheap — a
/// retained generation holds only the chunks its successors have since
/// rewritten (see pag::PAG::memoryStats).  ServiceOptions::
/// KeepGenerations keeps the N most recent superseded generations
/// queryable: generations() lists them (with per-generation retained
/// bytes), queryVarsAt() answers batches against any retained snapshot
/// exactly as of its capture, and rollback() republishes one in O(1) —
/// no graph is rebuilt, the retained snapshot simply becomes current
/// again.  Rollback clears the summary store: summaries are validated
/// by per-method diffs along the generation lineage, and rolling back
/// branches that lineage, so entries validated on the abandoned branch
/// can no longer be trusted (the graphs themselves share chunks safely
/// regardless — chunk refcounts do not care about lineage).
///
/// Summaries are computed on demand, the first time a query needs
/// them.  Every commit drops exactly the summaries its invalidation
/// plan names, nothing more, and nothing runs after it: the rest stay
/// warm until a later edit invalidates them.  They survive restarts
/// through the store's one persistence path: saveSummaries() (and the
/// shutdown snapshot) writes everything the store would serve — the hot
/// tier plus the attached snapshot's records no commit invalidated —
/// and loadSummaries() (and WarmFromDiskPath) attaches a snapshot as
/// the store's disk tier, fingerprint-checked against the current
/// program.  A reopened service starts warm, after any number of
/// restarts.
///
//===----------------------------------------------------------------------===//

#ifndef DYNSUM_SERVICE_ANALYSISSERVICE_H
#define DYNSUM_SERVICE_ANALYSISSERVICE_H

#include "engine/QueryScheduler.h"
#include "incremental/Invalidation.h"
#include "pag/PAGBuilder.h"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace dynsum {

namespace support {
/// The former name of ServiceOptions::Commit's type.  perfbench's
/// in-process backend still spells `SO.Commit = support::ExecContext(1)`;
/// the alias goes with the next change to perfbench.
using ExecContext = unsigned;
} // namespace support

namespace service {

/// Admission-control watermarks.  All zero (the default) disables
/// shedding entirely — the pre-hardening behavior.
struct OverloadPolicy {
  /// High watermark on concurrently running query batches: when this
  /// many batches are in flight, new batches are shed (every outcome
  /// returns Status == Overloaded with no targets — never partial
  /// garbage).  0 = never shed queries.
  unsigned MaxActiveBatches = 0;
  /// Low watermark: once shedding has started, batches are admitted
  /// again only when the in-flight count falls back to this level
  /// (hysteresis, so the service does not flap at the edge).
  /// 0 = MaxActiveBatches / 2.
  unsigned ResumeActiveBatches = 0;
  /// High watermark on the background commit backlog: when this many
  /// background requests have coalesced into the pending slot, further
  /// background submitCommit() calls are shed (the ticket completes
  /// immediately with CommitOutcome::Shed; the edits stay buffered and
  /// the next accepted commit covers them).  0 = never shed commits.
  unsigned MaxCommitBacklog = 0;
};

/// Service tunables: the engine configuration every generation's
/// scheduler runs with, the commit pipeline's task budget, and the
/// generation-history depth.
struct ServiceOptions {
  engine::EngineOptions Engine;
  /// Task budget of each commit phase: the shape-fingerprint sweep, the
  /// staged re-lowering, the partitioned CSR repack and the boundary
  /// snapshot/diff each split into at most this many tasks (0 = one per
  /// hardware thread).  The tasks run on the shared executor of
  /// support/Parallel.h, so a budget counts tasks, not threads, and the
  /// committed graph is the same at every budget.  Default: the serial
  /// commit, inline on the committing thread.
  unsigned Commit = 1;
  /// How many superseded generations stay retained (queryable through
  /// queryVarsAt, restorable through rollback) after a commit publishes
  /// a newer one.  Retention is cheap: snapshots share storage chunks,
  /// so a retained generation costs only the chunks later commits
  /// rewrote.  0 = history off (exactly the pre-history behavior).
  unsigned KeepGenerations = 0;
  /// Load-shedding watermarks (see OverloadPolicy; defaults disable).
  OverloadPolicy Overload;
  /// How many times the background committer retries a commit whose
  /// build threw (transient faults) before quarantining the edit.
  /// Retries back off exponentially from 1 ms, capped at 50 ms.
  /// Validation rejections are deterministic and never retried.
  unsigned BackgroundCommitRetries = 2;
  /// When nonempty, the destructor saves the summary store here
  /// (graceful snapshot-to-disk on shutdown; failures are swallowed —
  /// shutdown must not throw).
  std::string SnapshotOnShutdownPath;
  /// When nonempty, the constructor attaches this DSUM file as the
  /// store's memory-mapped read-only disk tier: queries that miss the
  /// hot tier probe the file and promote hits, so a restarted server
  /// answers its first batches from its previous shutdown snapshot
  /// without recomputing anything.  A refused attach (missing file,
  /// damaged header, program-fingerprint mismatch) is not an error —
  /// the service just starts cold, exactly as if the path were empty.
  /// Point it at the previous run's SnapshotOnShutdownPath for the
  /// classic warm-restart loop.
  std::string WarmFromDiskPath;
};

/// Outcomes of one service batch plus the generation they were answered
/// against.  A batch racing a commit reports the generation it actually
/// drained on — its answers are exact for that program version.
struct ServiceBatchResult {
  std::vector<engine::QueryOutcome> Outcomes;
  engine::BatchStats Stats;
  uint64_t Generation = 0;
};

/// How a commit rebuilds the generation's graph.
enum class CommitMode : uint8_t {
  Delta,   ///< re-lower edited methods only (the hot path)
  Scratch, ///< force-re-lower every method (A/B cross-check)
};

/// One commit submission: what to build and where to run it.
struct CommitRequest {
  CommitMode Mode = CommitMode::Delta;
  /// false: run the pipeline on the calling thread (the ticket returns
  /// already completed).  true: queue it to the background committer;
  /// requests queued while a commit is in flight coalesce into one
  /// follow-up commit and their tickets all complete with it.
  bool Background = false;
};

/// A waitable handle on one submitted commit.  Copyable; all copies —
/// and every ticket coalesced into the same covering commit — share one
/// completion state.  A default-constructed ticket is invalid.
class CommitTicket {
public:
  CommitTicket() = default;

  bool valid() const { return S != nullptr; }

  /// True once the covering commit has published (never blocks).
  bool done() const;

  /// Blocks until the covering commit publishes; returns its stats.  A
  /// clean (no-op) commit completes immediately with empty stats.
  incremental::CommitStats wait() const;

  /// The generation the commit published (the current generation at
  /// completion for a no-op).  Blocks like wait().
  uint64_t generation() const;

private:
  friend class AnalysisService;

  struct State {
    std::mutex M;
    std::condition_variable Cv;
    bool Done = false;
    incremental::CommitStats Stats;
    uint64_t Generation = 0;
  };

  explicit CommitTicket(std::shared_ptr<State> S) : S(std::move(S)) {}

  std::shared_ptr<State> S;
};

/// One retained (or current) generation, as reported by generations().
struct GenerationInfo {
  uint64_t Number = 0;
  /// Variables the program had at capture.
  size_t NumVars = 0;
  bool IsCurrent = false;
  /// Chunked-storage footprint of the generation's PAG + call graph.
  uint64_t TotalBytes = 0;
  /// Bytes of that footprint this generation holds exclusively — what
  /// retaining it actually costs next to the generations it shares
  /// chunks with.  Proportional to the deltas committed since capture,
  /// not to program size.
  uint64_t RetainedBytes = 0;
};

/// Lifetime counters (monotonic; readable from any thread).
struct ServiceStats {
  uint64_t Generation = 0;
  uint64_t Commits = 0;
  uint64_t Rollbacks = 0;
  uint64_t Batches = 0;
  uint64_t Queries = 0;
  uint64_t SharedSummariesDropped = 0;
  size_t StoreSize = 0;
  /// Generations currently retained besides the current one.
  uint64_t RetainedGenerations = 0;
  /// Wall-clock seconds of the most recent / all commits, and how many
  /// methods the most recent one re-lowered (the --serve "stats"
  /// commit-time readout).
  double LastCommitSeconds = 0.0;
  double TotalCommitSeconds = 0.0;
  uint64_t LastCommitRelowered = 0;
  /// Background pipeline counters: background submitCommit() requests
  /// accepted, of which how many were coalesced into an already-queued
  /// commit, and whether a background commit is queued or running right
  /// now (racy; advisory).
  uint64_t AsyncCommitsRequested = 0;
  uint64_t AsyncCommitsCoalesced = 0;
  bool CommitInFlight = false;
  /// Failure/degradation counters (the robustness substrate).
  /// Commits whose build pipeline threw (each attempt counts).
  uint64_t CommitFailures = 0;
  /// Commits rejected by the pre-commit IR validation gate.
  uint64_t CommitValidationRejects = 0;
  /// Background retry attempts after a failed build.
  uint64_t CommitRetries = 0;
  /// Background requests failed fast by the poison-edit quarantine.
  uint64_t CommitsQuarantined = 0;
  /// Background commit requests shed by the backlog watermark.
  uint64_t CommitsShed = 0;
  /// Query batches / individual queries shed by admission control.
  uint64_t ShedBatches = 0;
  uint64_t ShedQueries = 0;
  /// Queries that ended Timeout / Cancelled.
  uint64_t TimedOutQueries = 0;
  uint64_t CancelledQueries = 0;
  /// Advisory live flags: quarantine armed / currently shedding.
  bool Quarantined = false;
  bool Shedding = false;
  /// The shared summary store's operation counters (fetch/hit/stale/
  /// publish/invalidation/lock-contention, plus the disk-tier probe/
  /// hit/promotion counters): how warm the store stays across
  /// commits.
  engine::StoreCounters Store;
  /// Whether the store currently has a disk tier attached (false after
  /// a rollback detached it).
  bool DiskTierAttached = false;
  /// Lock-stripe count of the store's hot tier.
  unsigned StoreStripes = 0;
};

/// The concurrent incremental analysis server.
///
/// Thread-safety contract: queryVars/queryVar/queryVarsAt/generation/
/// generations/stats may be called from any number of threads
/// concurrently with each other and with edits.  Edit entry points
/// (addStatement, removeStatements, markDirty, editProgram,
/// submitCommit, rollback, saveSummaries, loadSummaries) are serialized
/// internally on the edit lock and may also be called from any thread;
/// background submissions hand the same serialized pipeline to the
/// committer thread.  program() returns the live editable program and
/// is only safe to read on a thread that is not racing edits (typically
/// the editor thread itself).
class AnalysisService {
public:
  /// Takes ownership of \p P and eagerly publishes generation 0.
  explicit AnalysisService(std::unique_ptr<ir::Program> P,
                           ServiceOptions Opts = ServiceOptions());

  /// Drains the background commit queue (queued commits still run —
  /// edits whose commit was requested are never silently dropped) and
  /// joins the committer.
  ~AnalysisService();

  //===------------------------------------------------------------------===//
  // Edits (buffered; invisible to queries until a commit)
  //===------------------------------------------------------------------===//

  /// Appends \p S to method \p M.
  void addStatement(ir::MethodId M, ir::Statement S);

  /// Removes every statement of \p M matching \p Pred; returns how many.
  size_t
  removeStatements(ir::MethodId M,
                   const std::function<bool(const ir::Statement &)> &Pred);

  /// Marks \p M edited (pair with editProgram for direct mutation).
  void markDirty(ir::MethodId M);

  /// Runs \p Edit on the program under the edit lock; it returns the
  /// methods it touched, which are marked dirty.  Use this for
  /// multi-step mutations (createLocal + addStatement + ...) that must
  /// appear atomic to other editors.
  ///
  /// Edit-clock contract: Program::addStatement and
  /// Program::removeStatements stamp the clock themselves, so a closure
  /// built from them may return {}.  Only direct mutations that bypass
  /// those APIs (e.g. rewriting a Statement in place) must name the
  /// method in the returned vector — otherwise the next commit will not
  /// see the edit.
  void editProgram(
      const std::function<std::vector<ir::MethodId>(ir::Program &)> &Edit);

  /// True when edits are pending (racy by nature; advisory only).
  bool dirty() const;

  //===------------------------------------------------------------------===//
  // Commits (the one entry point; see the file comment)
  //===------------------------------------------------------------------===//

  /// Publishes pending edits as a new generation per \p Req: snapshots
  /// the previous generation's graph (a copy-on-write chunk-table copy,
  /// not a clone), patches it with a delta build (or a forced full
  /// re-lower under CommitMode::Scratch), drops the summaries the edit
  /// invalidates from the shared store, and swaps the current
  /// generation — on the calling thread, or on the background committer
  /// when Req.Background.  In-flight batches drain against the previous
  /// generation.  The ir::Validator checks the dirty methods first; an
  /// invalid edit is rejected (CommitOutcome::ValidationRejected) and
  /// stays buffered.  A clean commit is a no-op whose ticket completes
  /// with empty stats.
  CommitTicket submitCommit(const CommitRequest &Req = CommitRequest());

  /// Blocks until the background queue is empty and no background
  /// commit is running.  After it returns, every edit made before the
  /// last background submission is published.  (The fence for tickets
  /// that were dropped; new code should prefer waiting on the ticket
  /// itself.)
  void waitForCommits();

  //===------------------------------------------------------------------===//
  // Generation history
  //===------------------------------------------------------------------===//

  /// The retained generations plus the current one, oldest first, with
  /// their structural-sharing memory footprint.
  std::vector<GenerationInfo> generations() const;

  /// Answers a batch against retained generation \p Generation exactly
  /// as queryVars would have at its capture time (its store epoch is
  /// stale by then, so summaries are computed privately — answers stay
  /// bit-identical to capture).  nullopt when that generation is
  /// neither current nor retained.
  std::optional<ServiceBatchResult>
  queryVarsAt(uint64_t Generation, const std::vector<ir::VarId> &Vars);

  /// Republishes retained generation \p Generation as the current one —
  /// O(1): the snapshot is shared, nothing is rebuilt.  Program edits
  /// made after its capture become pending again (the next commit
  /// re-applies them as a delta).  Clears the summary store (see the
  /// file comment: rollback branches the generation lineage, which the
  /// per-method diff-chain validation cannot cross).  False when the
  /// generation is not retained.
  bool rollback(uint64_t Generation);

  //===------------------------------------------------------------------===//
  // Queries (any thread, lock-free after the snapshot grab)
  //===------------------------------------------------------------------===//

  /// Answers a batch of points-to queries on program variables against
  /// the current generation.  Outcome i answers Vars[i]; a variable the
  /// pinned generation does not know yet (created after its commit)
  /// gets an empty outcome.  When admission control is on (see
  /// OverloadPolicy) an overloaded service sheds the whole batch:
  /// every outcome returns Status == Overloaded with no targets.
  ServiceBatchResult queryVars(const std::vector<ir::VarId> &Vars);

  /// Same, with a per-batch deadline/cancel token: queries that trip it
  /// unwind with partial sound-fallback outcomes marked Timeout /
  /// Cancelled.
  ServiceBatchResult queryVars(const std::vector<ir::VarId> &Vars,
                               const support::Deadline &DL);

  /// Single-query convenience over queryVars.
  engine::QueryOutcome queryVar(ir::VarId V);
  engine::QueryOutcome queryVar(ir::VarId V, const support::Deadline &DL);

  //===------------------------------------------------------------------===//
  // Persistence (warm restarts)
  //===------------------------------------------------------------------===//

  /// Commits pending edits, then saves the summary store as a DSUM
  /// snapshot (TieredSummaryStore::save: the hot tier plus every disk
  /// record it still serves), fingerprinted against the committed
  /// program.  A later service over an identical program loads it to
  /// start warm.  Returns false on I/O failure; \p Records, when given,
  /// receives the number of summaries written.
  bool saveSummaries(const std::string &Path, uint64_t *Records = nullptr);

  /// Commits pending edits, then attaches a snapshot as the store's
  /// disk tier (TieredSummaryStore::attachDiskTier — nothing is read
  /// eagerly; queries promote what they probe).  A load replaces any
  /// snapshot attached before it: records of the earlier file that no
  /// query promoted are no longer served, and a later save does not
  /// write them.  Returns false, leaving the store and its attached
  /// tier untouched, on an unreadable or damaged header or a
  /// program-fingerprint mismatch; \p Records, when given, receives the
  /// number of summaries the tier serves.
  bool loadSummaries(const std::string &Path, uint64_t *Records = nullptr);

  //===------------------------------------------------------------------===//
  // Introspection
  //===------------------------------------------------------------------===//

  /// The generation queries are currently answered against.
  uint64_t generation() const;

  ServiceStats stats() const;

  const ServiceOptions &options() const { return Opts; }

  /// The live editable program (see the thread-safety contract).
  ir::Program &program() { return *Prog; }
  const ir::Program &program() const { return *Prog; }

private:
  /// One published epoch.  Built is shared so rollback can republish a
  /// retained snapshot without copying anything; Engine is declared
  /// after Built so it is destroyed first (it references Built->Graph).
  struct Generation {
    uint64_t Number = 0;
    /// Variables the program had when this generation was built; vars
    /// with ids >= NumVars were created later and are unknown here.
    size_t NumVars = 0;
    std::shared_ptr<const pag::BuiltPAG> Built;
    std::unique_ptr<engine::QueryScheduler> Engine;
  };

  /// Builds generation 0 from scratch.  Caller holds the edit lock.
  std::shared_ptr<const Generation> buildFirstGeneration();

  /// Swaps the published generation pointer, retiring the previous one
  /// into the history ring (trimmed to Opts.KeepGenerations).
  void publish(std::shared_ptr<const Generation> G);

  /// Current generation snapshot (any thread).
  std::shared_ptr<const Generation> current() const;

  /// The generation numbered \p Number among current + retained, or
  /// null.
  std::shared_ptr<const Generation> findGeneration(uint64_t Number) const;

  /// Runs one batch against \p Gen (shared by queryVars/queryVarsAt);
  /// \p DL overrides the engine options' deadline when non-null.
  ServiceBatchResult runBatch(const std::shared_ptr<const Generation> &Gen,
                              const std::vector<ir::VarId> &Vars,
                              const support::Deadline *DL);

  /// Admission control: true when a new batch may run now.  Flips the
  /// shedding flag at the high watermark and back at the low one.
  bool admitBatch();

  /// The all-Overloaded answer for a shed batch: one empty outcome per
  /// query, Status == Overloaded — never partial garbage.
  ServiceBatchResult shedBatch(size_t NumQueries);

  /// submitCommit body; caller holds the edit lock.
  incremental::CommitStats commitLocked(CommitMode Mode);

  /// Completes a ticket state (stats + published generation).
  static void completeTicket(const std::shared_ptr<CommitTicket::State> &S,
                             const incremental::CommitStats &Stats,
                             uint64_t Generation);

  /// Body of the background committer thread (started lazily by the
  /// first background submission).
  void committerLoop();

  ServiceOptions Opts;
  std::unique_ptr<ir::Program> Prog;

  /// Serializes program mutation, commits, rollback and persistence.
  mutable std::mutex EditMutex;
  /// Program edit clock at the last published generation (guarded by
  /// EditMutex); dirtiness and the touched-method set come from the
  /// program itself.  Rollback rewinds it to the retained generation's
  /// build clock so later edits re-commit.
  uint64_t CommittedClock = 0;

  /// Boundary snapshot of the current generation's graph, carried
  /// forward from the previous commit's invalidation diff (guarded by
  /// EditMutex).  Valid only while CachedBoundaryGen matches the
  /// current generation number; a commit consumes it instead of
  /// re-sweeping the whole graph, and rollback or a failed commit
  /// invalidates it so the next commit falls back to snapshotBoundary.
  incremental::BoundarySnapshot CachedBoundary;
  static constexpr uint64_t kNoBoundaryGen = ~uint64_t(0);
  uint64_t CachedBoundaryGen = kNoBoundaryGen;

  /// The cross-generation summary store; generations are the store's.
  /// The constructor may attach a memory-mapped disk tier
  /// (Opts.WarmFromDiskPath).
  engine::SharedSummaryStore Store;

  /// Guards the Current pointer swap/copy and the history ring.
  mutable std::mutex GenMutex;
  std::shared_ptr<const Generation> Current;
  /// Superseded generations, oldest first, at most KeepGenerations.
  std::deque<std::shared_ptr<const Generation>> History;

  /// Background commit queue.  AsyncMutex guards the queue state below
  /// (one coalesced pending request — mode, ticket state — plus the
  /// in-flight marker); the commits themselves run under EditMutex like
  /// foreground ones.  WorkCv wakes the committer, IdleCv wakes
  /// waitForCommits.
  mutable std::mutex AsyncMutex;
  std::condition_variable WorkCv;
  std::condition_variable IdleCv;
  std::thread Committer;
  CommitMode PendingMode = CommitMode::Delta;
  std::shared_ptr<CommitTicket::State> PendingTicket;
  /// Background requests coalesced into the current pending slot (the
  /// commit backlog the MaxCommitBacklog watermark sheds against).
  unsigned PendingCoalesced = 0;
  bool AsyncInFlight = false;
  bool AsyncStop = false;

  /// Poison-edit quarantine (guarded by EditMutex): armed when a commit
  /// fails after its retries, it fails further *background* requests
  /// fast while the program's edit clock still reads QuarantineClock —
  /// a new edit (or a successful foreground commit, which always runs)
  /// lifts it.
  bool QuarantineActive = false;
  uint64_t QuarantineClock = 0;

  std::atomic<uint64_t> Commits{0};
  std::atomic<uint64_t> Rollbacks{0};
  std::atomic<uint64_t> Batches{0};
  std::atomic<uint64_t> Queries{0};
  std::atomic<uint64_t> SharedDropped{0};
  /// Commit-time readouts (microseconds; atomics so stats() needs no
  /// lock).
  std::atomic<uint64_t> LastCommitMicros{0};
  std::atomic<uint64_t> TotalCommitMicros{0};
  std::atomic<uint64_t> LastCommitRelowered{0};
  std::atomic<uint64_t> AsyncRequested{0};
  std::atomic<uint64_t> AsyncCoalesced{0};

  /// Failure/degradation counters (see ServiceStats).
  std::atomic<uint64_t> CommitFailures{0};
  std::atomic<uint64_t> CommitValidationRejects{0};
  std::atomic<uint64_t> CommitRetries{0};
  std::atomic<uint64_t> CommitsQuarantined{0};
  std::atomic<uint64_t> CommitsShed{0};
  std::atomic<uint64_t> ShedBatches{0};
  std::atomic<uint64_t> ShedQueries{0};
  std::atomic<uint64_t> TimedOutQueries{0};
  std::atomic<uint64_t> CancelledQueries{0};
  /// Admission control: batches currently inside runBatch, plus the
  /// hysteresis state (true between the high and low watermarks).
  std::atomic<unsigned> ActiveBatches{0};
  std::atomic<bool> SheddingState{false};
};

} // namespace service
} // namespace dynsum

#endif // DYNSUM_SERVICE_ANALYSISSERVICE_H
