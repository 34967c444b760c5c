//===----------------------------------------------------------------------===//
///
/// \file
/// The executor behind parallelChunks and parallelJobs (see Parallel.h).
///
//===----------------------------------------------------------------------===//

#include "support/Parallel.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <system_error>
#include <vector>

using namespace dynsum;

namespace {

/// One runTasks call.  It lives on the caller's stack; the executor
/// touches it only under Executor's mutex, and only until Finished
/// reaches NumTasks, which the caller waits for before it returns.
struct Call {
  Call(void (*Run)(void *, size_t), void *Ctx, size_t NumTasks)
      : Run(Run), Ctx(Ctx), NumTasks(NumTasks) {}

  void (*const Run)(void *, size_t);
  void *const Ctx;
  const size_t NumTasks;
  size_t Claimed = 0;
  size_t Finished = 0;
  std::exception_ptr Error; ///< the first exception a task threw
  std::condition_variable AllFinished;
};

class Executor {
public:
  Executor() = default;
  Executor(const Executor &) = delete;
  Executor &operator=(const Executor &) = delete;

  /// Runs at process exit, when no call is in flight.
  ~Executor() {
    {
      std::lock_guard<std::mutex> Lock(M);
      Stop = true;
    }
    WorkCv.notify_all();
    for (std::thread &T : Helpers)
      T.join();
  }

  void run(Call &C) {
    std::unique_lock<std::mutex> Lock(M);
    if (!Started)
      startHelpers();
    Open.push_back(&C);
    size_t Wake = std::min(C.NumTasks - 1, Helpers.size());
    for (size_t I = 0; I < Wake; ++I)
      WorkCv.notify_one();
    while (C.Claimed < C.NumTasks)
      runOne(C, Lock);
    C.AllFinished.wait(Lock, [&C] { return C.Finished == C.NumTasks; });
    std::exception_ptr Error = C.Error;
    Lock.unlock();
    if (Error)
      std::rethrow_exception(Error);
  }

private:
  /// One helper per hardware thread, less the caller's.  A helper the
  /// OS refuses is just missing: each caller runs every task of its own
  /// call that no helper claims.
  void startHelpers() {
    Started = true;
    for (unsigned I = 1; I < std::thread::hardware_concurrency(); ++I) {
      try {
        Helpers.emplace_back([this] { helperLoop(); });
      } catch (const std::system_error &) {
        break;
      }
    }
  }

  void helperLoop() {
    std::unique_lock<std::mutex> Lock(M);
    for (;;) {
      WorkCv.wait(Lock, [this] { return Stop || !Open.empty(); });
      if (Stop)
        return;
      runOne(*Open.front(), Lock);
    }
  }

  /// Claims the next task of \p C and runs it without the lock, unless
  /// an earlier task of \p C threw.  \p Lock holds M on entry and exit.
  void runOne(Call &C, std::unique_lock<std::mutex> &Lock) {
    size_t I = C.Claimed++;
    if (C.Claimed == C.NumTasks)
      Open.erase(std::find(Open.begin(), Open.end(), &C));
    if (!C.Error) {
      std::exception_ptr Error;
      Lock.unlock();
      try {
        C.Run(C.Ctx, I);
      } catch (...) {
        Error = std::current_exception();
      }
      Lock.lock();
      if (Error && !C.Error)
        C.Error = std::move(Error);
    }
    if (++C.Finished == C.NumTasks)
      C.AllFinished.notify_one();
  }

  std::mutex M;
  std::condition_variable WorkCv;
  std::deque<Call *> Open; ///< calls with unclaimed tasks, oldest first
  bool Started = false;
  bool Stop = false;
  std::vector<std::thread> Helpers;
};

Executor &executor() {
  static Executor E;
  return E;
}

} // namespace

void support::detail::runTasks(size_t NumTasks, void (*Run)(void *, size_t),
                               void *Ctx) {
  if (NumTasks <= 1) {
    if (NumTasks == 1)
      Run(Ctx, 0);
    return;
  }
  Call C(Run, Ctx, NumTasks);
  executor().run(C);
}
