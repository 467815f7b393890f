#ifndef MAD_UTIL_SYNC_H_
#define MAD_UTIL_SYNC_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

/// Annotated synchronization primitives for Clang Thread Safety Analysis.
///
/// The wrappers below carry `capability` attributes so that clang's
/// -Wthread-safety pass can check lock discipline at compile time: which
/// mutex guards which member (`MAD_GUARDED_BY`), which functions must be
/// entered with a lock held (`MAD_REQUIRES` / `MAD_REQUIRES_SHARED`), and
/// that RAII guards are acquired and released exactly once. Under GCC (or
/// any compiler without the attributes) every macro expands to nothing and
/// the wrappers degrade to thin veneers over the std primitives, so the
/// annotated tree builds warning-free on both CI legs.
///
/// Conventions (see docs/CONCURRENCY.md for the repo-wide capability map):
///  - Prefer the scoped guards (MutexLock / ReaderLock / WriterLock) over
///    manual Lock/Unlock pairs; the analysis understands both, humans only
///    the former.
///  - Condition waits go through CondVar, which re-expresses
///    wait-with-predicate as an annotated loop the analysis can follow.
///  - Escape hatches (AssertHeld / AssertReaderHeld) are for contracts the
///    analysis cannot see (locks taken behind an interface boundary); each
///    use must cite the lock site that justifies it.

#if defined(__clang__) && !defined(SWIG)
#define MAD_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define MAD_THREAD_ANNOTATION__(x)  // no-op: GCC has no thread-safety pass
#endif

#define MAD_CAPABILITY(x) MAD_THREAD_ANNOTATION__(capability(x))
#define MAD_SCOPED_CAPABILITY MAD_THREAD_ANNOTATION__(scoped_lockable)
#define MAD_GUARDED_BY(x) MAD_THREAD_ANNOTATION__(guarded_by(x))
#define MAD_PT_GUARDED_BY(x) MAD_THREAD_ANNOTATION__(pt_guarded_by(x))
#define MAD_ACQUIRED_BEFORE(...) \
  MAD_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))
#define MAD_ACQUIRED_AFTER(...) \
  MAD_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))
#define MAD_REQUIRES(...) \
  MAD_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
#define MAD_REQUIRES_SHARED(...) \
  MAD_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))
#define MAD_ACQUIRE(...) \
  MAD_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define MAD_ACQUIRE_SHARED(...) \
  MAD_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))
#define MAD_RELEASE(...) \
  MAD_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define MAD_RELEASE_SHARED(...) \
  MAD_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))
#define MAD_RELEASE_GENERIC(...) \
  MAD_THREAD_ANNOTATION__(release_generic_capability(__VA_ARGS__))
#define MAD_TRY_ACQUIRE(...) \
  MAD_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))
#define MAD_EXCLUDES(...) MAD_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))
#define MAD_ASSERT_CAPABILITY(x) \
  MAD_THREAD_ANNOTATION__(assert_capability(x))
#define MAD_ASSERT_SHARED_CAPABILITY(x) \
  MAD_THREAD_ANNOTATION__(assert_shared_capability(x))
#define MAD_RETURN_CAPABILITY(x) MAD_THREAD_ANNOTATION__(lock_returned(x))
#define MAD_NO_THREAD_SAFETY_ANALYSIS \
  MAD_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace mad {

class CondVar;

/// std::mutex with a `mutex` capability the analysis can track.
class MAD_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() MAD_ACQUIRE() { mu_.lock(); }
  void Unlock() MAD_RELEASE() { mu_.unlock(); }

  /// Escape hatch: tells the analysis this thread holds the mutex when the
  /// acquisition happened somewhere it cannot see. Runtime no-op.
  void AssertHeld() const MAD_ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// std::shared_mutex with exclusive + shared capability tracking.
class MAD_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() MAD_ACQUIRE() { mu_.lock(); }
  void Unlock() MAD_RELEASE() { mu_.unlock(); }

  void LockShared() MAD_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() MAD_RELEASE_SHARED() { mu_.unlock_shared(); }

  /// Escape hatches for acquisitions behind an interface boundary (e.g. a
  /// store accessor documented as "caller holds the Database lock").
  /// Runtime no-ops; see docs/CONCURRENCY.md before adding a call.
  void AssertHeld() const MAD_ASSERT_CAPABILITY(this) {}
  void AssertReaderHeld() const MAD_ASSERT_SHARED_CAPABILITY(this) {}

 private:
  std::shared_mutex mu_;
};

/// RAII exclusive lock on a Mutex. Supports explicit Unlock()/Lock() cycles
/// (for drop-the-lock-around-a-callback patterns); the destructor releases
/// only if still held.
class MAD_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) MAD_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() MAD_RELEASE() {
    if (held_) mu_.Unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void Unlock() MAD_RELEASE() {
    held_ = false;
    mu_.Unlock();
  }
  void Lock() MAD_ACQUIRE() {
    mu_.Lock();
    held_ = true;
  }

 private:
  Mutex& mu_;
  bool held_ = true;
};

/// RAII exclusive lock on a SharedMutex.
class MAD_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) MAD_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~WriterLock() MAD_RELEASE() {
    if (held_) mu_.Unlock();
  }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

  void Unlock() MAD_RELEASE() {
    held_ = false;
    mu_.Unlock();
  }
  void Lock() MAD_ACQUIRE() {
    mu_.Lock();
    held_ = true;
  }

 private:
  SharedMutex& mu_;
  bool held_ = true;
};

/// RAII shared (reader) lock on a SharedMutex.
class MAD_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) MAD_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderLock() MAD_RELEASE() {
    if (held_) mu_.UnlockShared();
  }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

  void Unlock() MAD_RELEASE() {
    held_ = false;
    mu_.UnlockShared();
  }
  void Lock() MAD_ACQUIRE_SHARED() {
    mu_.LockShared();
    held_ = true;
  }

 private:
  SharedMutex& mu_;
  bool held_ = true;
};

/// Condition variable bound to mad::Mutex. The std predicate-wait overloads
/// hide the lock/recheck loop inside a lambda the analysis cannot attribute
/// a lock state to, so callers write the loop themselves:
///
///   MutexLock lock(mu_);
///   while (!wake_condition) cv_.Wait(mu_);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, waits, and re-acquires before returning.
  /// The capability is held across the call from the analysis' point of
  /// view, which matches what callers may assume about their guarded data
  /// (it can be mutated while waiting — hence the caller's recheck loop).
  void Wait(Mutex& mu) MAD_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    cv_.wait(lk);
    lk.release();  // ownership stays with the caller's guard
  }

  /// Timed wait; returns false on timeout (caller rechecks its predicate
  /// either way).
  template <class Rep, class Period>
  bool WaitFor(Mutex& mu, const std::chrono::duration<Rep, Period>& timeout)
      MAD_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    bool ok = cv_.wait_for(lk, timeout) == std::cv_status::no_timeout;
    lk.release();
    return ok;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace mad

#endif  // MAD_UTIL_SYNC_H_
