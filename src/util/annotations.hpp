#pragma once
/// \file annotations.hpp
/// Clang thread-safety annotations and the annotated synchronization
/// primitives built on them (docs/static_analysis.md).
///
/// Under Clang with -Wthread-safety the LOCMPS_* macros expand to the
/// `capability` attribute family, so taking a lock out of order or
/// touching a LOCMPS_GUARDED_BY member without its mutex fails the build
/// (CI runs clang++ -Werror=thread-safety over the whole library). Under
/// GCC and MSVC they expand to nothing and cost nothing.
///
/// Raw std::mutex carries none of these attributes in libstdc++, which
/// makes locking through it invisible to the analysis — that is why
/// locmps-lint's raw-mutex rule bans naked std synchronization primitives
/// everywhere but this header. Use:
///  * locmps::Mutex           — an annotated capability;
///  * locmps::MutexLock       — scoped acquire/release (lock_guard shape);
///  * locmps::CondVar         — condition variable waiting on a Mutex,
///    wait() declared LOCMPS_REQUIRES(mu) so callers must hold the lock.
///
/// Thread-compatible classes (safe from one thread at a time, externally
/// synchronized or thread-private by design — obs::MetricsRegistry,
/// obs::EventBuffer) carry the LOCMPS_THREAD_COMPATIBLE marker instead of
/// a capability: they have no lock for the analysis to track.

#include <condition_variable>
#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define LOCMPS_TSA(x) __attribute__((x))
#endif
#endif
#ifndef LOCMPS_TSA
#define LOCMPS_TSA(x)  // not Clang: annotations compile away
#endif

/// Class attribute: instances are lockable capabilities.
#define LOCMPS_CAPABILITY(name) LOCMPS_TSA(capability(name))
/// Class attribute: RAII objects that hold a capability for their scope.
#define LOCMPS_SCOPED_CAPABILITY LOCMPS_TSA(scoped_lockable)
/// Member attribute: reads/writes require holding the given capability.
#define LOCMPS_GUARDED_BY(x) LOCMPS_TSA(guarded_by(x))
/// Member attribute: the pointee is guarded by the given capability.
#define LOCMPS_PT_GUARDED_BY(x) LOCMPS_TSA(pt_guarded_by(x))
/// Function attribute: caller must hold the capability.
#define LOCMPS_REQUIRES(...) \
  LOCMPS_TSA(requires_capability(__VA_ARGS__))
/// Function attribute: caller must NOT hold the capability.
#define LOCMPS_EXCLUDES(...) LOCMPS_TSA(locks_excluded(__VA_ARGS__))
/// Function attribute: acquires the capability (and does not release it).
#define LOCMPS_ACQUIRE(...) \
  LOCMPS_TSA(acquire_capability(__VA_ARGS__))
/// Function attribute: releases the capability.
#define LOCMPS_RELEASE(...) \
  LOCMPS_TSA(release_capability(__VA_ARGS__))
/// Function attribute: acquires the capability when returning `ret`.
#define LOCMPS_TRY_ACQUIRE(ret, ...) \
  LOCMPS_TSA(try_acquire_capability(ret, __VA_ARGS__))
/// Function attribute: returns a reference to the given capability.
#define LOCMPS_RETURN_CAPABILITY(x) LOCMPS_TSA(lock_returned(x))
/// Function attribute: opt this function out of the analysis (use only
/// with a comment explaining why the analysis cannot see the invariant).
#define LOCMPS_NO_THREAD_SAFETY_ANALYSIS \
  LOCMPS_TSA(no_thread_safety_analysis)

/// Documentation-only marker for thread-compatible classes: safe from one
/// thread at a time; confinement (not a lock) is the synchronization.
#define LOCMPS_THREAD_COMPATIBLE

namespace locmps {

/// std::mutex with the capability attribute, so -Wthread-safety tracks
/// what it guards.
class LOCMPS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() LOCMPS_ACQUIRE() { mu_.lock(); }
  void unlock() LOCMPS_RELEASE() { mu_.unlock(); }
  bool try_lock() LOCMPS_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// Scoped lock of one Mutex (the std::lock_guard shape, annotated).
class LOCMPS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) LOCMPS_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() LOCMPS_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to locmps::Mutex. wait() requires the lock and
/// returns with it re-held, exactly like std::condition_variable::wait —
/// callers loop on their predicate:
///
///   MutexLock lk(mu_);
///   while (!ready_) cv_.wait(mu_);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases \p mu and blocks; re-acquires before returning.
  /// Declared as holding the lock throughout: the window where it is
  /// released is invisible to callers, matching the analysis model.
  void wait(Mutex& mu) LOCMPS_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    cv_.wait(lk);
    lk.release();  // ownership stays with the caller's MutexLock
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace locmps
