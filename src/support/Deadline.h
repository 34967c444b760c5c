//===----------------------------------------------------------------------===//
///
/// \file
/// Deadlines and cooperative cancellation for the query path.
///
/// A Deadline is a small value type carried by AnalysisOptions through
/// every engine/analysis layer: an optional steady-clock expiry plus an
/// optional shared cancel flag.  It is cheap to copy (a time point and
/// one shared_ptr) and cheap to ignore — code that never checks it
/// behaves exactly as before.  The hot-path contract is that callers
/// poll via Budget (analysis/Query.h), which strides the clock reads so
/// an unlimited deadline costs nothing and a live one costs one
/// steady_clock read every few hundred worklist steps.
///
/// CancelToken is the writer side: a server thread holds the token and
/// flips it to abort every in-flight query that carries a Deadline
/// derived from it.  The flag is a relaxed atomic — cancellation is a
/// hint that becomes visible "soon", not a synchronization point.
///
//===----------------------------------------------------------------------===//

#ifndef DYNSUM_SUPPORT_DEADLINE_H
#define DYNSUM_SUPPORT_DEADLINE_H

#include <atomic>
#include <chrono>
#include <memory>

namespace dynsum {
namespace support {

/// Shared cancellation flag.  Copies observe the same flag; a
/// default-constructed token is live (not cancelled) and independent.
class CancelToken {
public:
  CancelToken() : Flag(std::make_shared<std::atomic<bool>>(false)) {}

  /// Requests cancellation of every Deadline built from this token.
  void cancel() const { Flag->store(true, std::memory_order_relaxed); }

  bool cancelled() const {
    return Flag->load(std::memory_order_relaxed);
  }

private:
  friend class Deadline;
  std::shared_ptr<std::atomic<bool>> Flag;
};

/// An optional expiry time plus an optional cancel flag.  The default
/// instance is unlimited: hasLimit() is false and checks are free.
class Deadline {
public:
  using Clock = std::chrono::steady_clock;

  Deadline() = default;

  /// No deadline, no cancellation — the default.
  static Deadline unlimited() { return Deadline(); }

  /// Expires \p Seconds from now (<= 0 or NaN expires immediately).  A
  /// span past the clock's range, +inf included, would overflow the
  /// tick conversion, so it saturates to a deadline that never expires
  /// (one second of headroom absorbs the double's rounding up there).
  static Deadline in(double Seconds) {
    using Secs = std::chrono::duration<double>;
    Clock::time_point Now = Clock::now(), Never = Clock::time_point::max();
    if (!(Seconds > 0))
      return at(Now);
    if (Seconds >= Secs(Never - Now).count() - 1.0)
      return at(Never);
    return at(Now + std::chrono::duration_cast<Clock::duration>(Secs(Seconds)));
  }

  /// Expires at \p At.
  static Deadline at(Clock::time_point At) {
    Deadline D;
    D.HasExpiry = true;
    D.Expiry = At;
    return D;
  }

  /// Returns a copy that additionally aborts when \p T is cancelled.
  Deadline withCancel(const CancelToken &T) const {
    Deadline D = *this;
    D.CancelFlag = T.Flag;
    return D;
  }

  /// True when expired() or cancelled() can ever return true — lets
  /// hot loops skip the clock entirely on the common unlimited path.
  bool hasLimit() const { return HasExpiry || CancelFlag != nullptr; }

  bool cancelled() const {
    return CancelFlag && CancelFlag->load(std::memory_order_relaxed);
  }

  bool expired() const { return HasExpiry && Clock::now() >= Expiry; }

  /// Seconds until expiry (negative when past due); meaningless for an
  /// unlimited deadline.
  double remainingSeconds() const {
    if (!HasExpiry)
      return 0.0;
    return std::chrono::duration<double>(Expiry - Clock::now()).count();
  }

private:
  Clock::time_point Expiry{};
  bool HasExpiry = false;
  std::shared_ptr<std::atomic<bool>> CancelFlag;
};

} // namespace support
} // namespace dynsum

#endif // DYNSUM_SUPPORT_DEADLINE_H
