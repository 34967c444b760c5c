//===----------------------------------------------------------------------===//
///
/// \file
/// A reader/writer lock that does not let readers starve a writer.
///
/// std::shared_mutex on glibc is a default-kind pthread rwlock, which
/// prefers readers: while any reader holds the lock, a new reader gets
/// in even when a writer is already waiting.  Closed-loop readers whose
/// critical sections overlap then keep a writer waiting for as long as
/// they keep coming.  SharedMutex initialises the rwlock with glibc's
/// PTHREAD_RWLOCK_PREFER_WRITER_NONRECURSIVE_NP kind instead: once a
/// writer waits, later readers queue behind it, so the writer waits
/// only for the readers already inside.  (PTHREAD_RWLOCK_PREFER_WRITER_NP
/// is not that kind: glibc treats it as reader-preferring.)  On other C
/// libraries the platform's default kind is used.
///
/// The price is recursion: a thread that takes the shared lock while
/// already holding it deadlocks as soon as a writer queues between the
/// two acquisitions — the writer waits for the first hold, the second
/// waits for the writer.  Never take a SharedMutex shared twice on one
/// thread.
///
/// Meets the standard SharedMutex requirements, so std::shared_lock and
/// std::unique_lock work over it.
///
//===----------------------------------------------------------------------===//

#ifndef DYNSUM_SUPPORT_SHAREDMUTEX_H
#define DYNSUM_SUPPORT_SHAREDMUTEX_H

#include <cerrno>
#include <pthread.h>
#include <system_error>

namespace dynsum {
namespace support {

class SharedMutex {
public:
  SharedMutex() {
    pthread_rwlockattr_t Attr;
    pthread_rwlockattr_init(&Attr);
#ifdef __GLIBC__
    pthread_rwlockattr_setkind_np(&Attr,
                                  PTHREAD_RWLOCK_PREFER_WRITER_NONRECURSIVE_NP);
#endif
    int Err = pthread_rwlock_init(&L, &Attr);
    pthread_rwlockattr_destroy(&Attr);
    if (Err != 0)
      throw std::system_error(Err, std::generic_category(),
                              "pthread_rwlock_init");
  }
  ~SharedMutex() { pthread_rwlock_destroy(&L); }

  SharedMutex(const SharedMutex &) = delete;
  SharedMutex &operator=(const SharedMutex &) = delete;

  void lock() {
    // EDEADLK: this thread already holds the lock exclusively.
    if (int Err = pthread_rwlock_wrlock(&L))
      throw std::system_error(Err, std::generic_category(),
                              "pthread_rwlock_wrlock");
  }
  bool try_lock() { return pthread_rwlock_trywrlock(&L) == 0; }
  void unlock() { pthread_rwlock_unlock(&L); }

  void lock_shared() {
    // EAGAIN: the reader count is saturated; wait for one to leave.
    int Err = pthread_rwlock_rdlock(&L);
    while (Err == EAGAIN)
      Err = pthread_rwlock_rdlock(&L);
    if (Err != 0)
      throw std::system_error(Err, std::generic_category(),
                              "pthread_rwlock_rdlock");
  }
  bool try_lock_shared() { return pthread_rwlock_tryrdlock(&L) == 0; }
  void unlock_shared() { pthread_rwlock_unlock(&L); }

private:
  pthread_rwlock_t L;
};

} // namespace support
} // namespace dynsum

#endif // DYNSUM_SUPPORT_SHAREDMUTEX_H
