//===----------------------------------------------------------------------===//
///
/// \file
/// The process's one executor: fork-join helpers for query shards and
/// for the commit pipeline's data-parallel phases.
///
/// A call splits its work into tasks (parallelChunks: one contiguous
/// chunk of a dense index range per task; parallelJobs: one task per
/// job) and returns when every task has run.  The tasks run on helper
/// threads the whole process shares — one per hardware thread minus
/// one, started by the first call with more than one task — and on the
/// calling thread, which claims tasks of its own call until none is
/// left and then waits only for the ones helpers already run.  So
/// concurrent calls (two tenants' commits, a commit and a query batch)
/// share the helpers without waiting for each other, a call made from
/// inside a task cannot deadlock, and no call starts an OS thread.
/// The helpers inherit the CPU affinity and signal mask of the thread
/// whose call started them.
///
/// Determinism contract: chunking depends only on (N, Threads), never
/// on scheduling or on how many helpers exist, so any phase whose
/// chunks write disjoint state produces identical results at every
/// thread count.  A thread budget counts tasks, not OS threads.
///
/// Exception contract: a throw inside a task is captured, the call's
/// tasks not yet started are skipped, every task already running is
/// waited for, and the first captured exception is rethrown on the
/// calling thread.  It reaches no other call, and the executor stays
/// usable.  The phase's partial writes are the caller's problem (the
/// commit pipeline abandons the half-built generation).
///
//===----------------------------------------------------------------------===//

#ifndef DYNSUM_SUPPORT_PARALLEL_H
#define DYNSUM_SUPPORT_PARALLEL_H

#include <cstddef>
#include <thread>

namespace dynsum {

/// Resolves a task budget: 0 = one task per hardware thread, and
/// negative inputs, which arrive as huge unsigneds, are capped.
inline unsigned clampThreads(unsigned Requested) {
  constexpr unsigned kMaxThreads = 256;
  unsigned T = Requested;
  if (T == 0) {
    T = std::thread::hardware_concurrency();
    if (T == 0)
      T = 1;
  }
  return T > kMaxThreads ? kMaxThreads : T;
}

namespace support {
namespace detail {

/// Runs Run(Ctx, I) for every I in [0, NumTasks) on the executor and
/// the calling thread, under the exception contract above.  One task
/// runs inline on the caller.
void runTasks(size_t NumTasks, void (*Run)(void *, size_t), void *Ctx);

template <typename TaskFn> void runTask(void *Ctx, size_t I) {
  (*static_cast<TaskFn *>(Ctx))(I);
}

template <typename TaskFn> void runTasks(size_t NumTasks, TaskFn &Task) {
  runTasks(NumTasks, runTask<TaskFn>, &Task);
}

} // namespace detail
} // namespace support

/// Runs \p F(Begin, End, Chunk) over [0, N) split into at most
/// \p Threads contiguous chunks, one task each.  Chunk indices are
/// dense in [0, chunks used); chunk boundaries depend only on
/// (N, Threads).  With one chunk (one thread, or N <= 1) \p F runs
/// inline on the caller.
template <typename Fn>
void parallelChunks(size_t N, unsigned Threads, Fn &&F) {
  if (N == 0)
    return;
  Threads = clampThreads(Threads);
  if (Threads > N)
    Threads = unsigned(N);
  size_t Chunk = (N + Threads - 1) / Threads;
  auto Task = [&F, N, Chunk](size_t W) {
    size_t Begin = W * Chunk;
    size_t End = Begin + Chunk < N ? Begin + Chunk : N;
    F(Begin, End, unsigned(W));
  };
  support::detail::runTasks((N + Chunk - 1) / Chunk, Task);
}

/// Runs \p Job(I) exactly once for each I in [0, NumJobs), one task per
/// job.  Jobs must write disjoint state.
template <typename JobFn> void parallelJobs(size_t NumJobs, JobFn &&Job) {
  auto Task = [&Job](size_t I) { Job(I); };
  support::detail::runTasks(NumJobs, Task);
}

} // namespace dynsum

#endif // DYNSUM_SUPPORT_PARALLEL_H
