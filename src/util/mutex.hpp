// Clang thread-safety-analysis aware mutex wrappers.
//
// Every lock in src/ goes through these types so that locking contracts
// are *compiler-checked* instead of stress-tested: fields carry
// CFSF_GUARDED_BY(mutex_), helpers that assume the lock carry
// CFSF_REQUIRES(mutex_), and a Clang build with
//
//   -Wthread-safety -Wthread-safety-beta -Werror        (`tsa` preset)
//
// turns an unlocked access into a build break — including in paths no
// TSan run ever exercises.  On non-Clang toolchains every annotation
// macro expands to nothing and the wrappers are zero-cost shims over
// std::mutex / std::unique_lock / std::condition_variable, so GCC
// builds are bit-identical in behaviour.
//
// The capability model is the Abseil/Clang one
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html):
//
//   util::Mutex      a "mutex" capability; Lock()/Unlock() acquire and
//                    release it for the rare non-scoped use
//   util::MutexLock  scoped acquisition (the default — the
//                    lock-scope-leak lint rule bans manual
//                    .lock()/.unlock() pairs in src/)
//   util::CondVar    condition variable that waits through a MutexLock;
//                    write wait loops inline (while (!pred) cv.Wait(l))
//                    rather than with a predicate lambda — lambda bodies
//                    are analysed as separate functions and would need
//                    their own annotations
//
// cfsf_lint's raw-mutex-in-library rule enforces adoption: new
// std::mutex / std::lock_guard / std::condition_variable in src/ is a
// lint violation pointing here.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

// ---------------------------------------------------------------------------
// Annotation macros.  CFSF_TSA_ATTRIBUTE(x) expands to __attribute__((x))
// exactly when the compiler is Clang and knows the attribute; otherwise
// to nothing (GCC, MSVC, older Clang).
// ---------------------------------------------------------------------------
#if defined(__clang__) && defined(__has_attribute)
#define CFSF_TSA_HAS_ATTRIBUTE(x) __has_attribute(x)
#else
#define CFSF_TSA_HAS_ATTRIBUTE(x) 0
#endif

#if CFSF_TSA_HAS_ATTRIBUTE(guarded_by)
#define CFSF_TSA_ATTRIBUTE(x) __attribute__((x))
#else
#define CFSF_TSA_ATTRIBUTE(x)
#endif

/// Declares a type to be a capability (lockable).
#define CFSF_CAPABILITY(name) CFSF_TSA_ATTRIBUTE(capability(name))

/// Declares a RAII type whose lifetime holds a capability.
#define CFSF_SCOPED_CAPABILITY CFSF_TSA_ATTRIBUTE(scoped_lockable)

/// Field may only be read/written while holding `mu`.
#define CFSF_GUARDED_BY(mu) CFSF_TSA_ATTRIBUTE(guarded_by(mu))

/// Pointed-to data may only be touched while holding `mu` (the pointer
/// itself is free).
#define CFSF_PT_GUARDED_BY(mu) CFSF_TSA_ATTRIBUTE(pt_guarded_by(mu))

/// Function requires the caller to already hold the capabilities.
#define CFSF_REQUIRES(...) \
  CFSF_TSA_ATTRIBUTE(requires_capability(__VA_ARGS__))

/// Function must be called with the capabilities NOT held (deadlock
/// documentation for self-locking public APIs).
#define CFSF_EXCLUDES(...) CFSF_TSA_ATTRIBUTE(locks_excluded(__VA_ARGS__))

/// Function acquires the capability and does not release it.
#define CFSF_ACQUIRE(...) \
  CFSF_TSA_ATTRIBUTE(acquire_capability(__VA_ARGS__))

/// Function releases the capability.
#define CFSF_RELEASE(...) \
  CFSF_TSA_ATTRIBUTE(release_capability(__VA_ARGS__))

/// Function returns the capability guarding an object.
#define CFSF_RETURN_CAPABILITY(x) CFSF_TSA_ATTRIBUTE(lock_returned(x))

/// Escape hatch: body is not analysed.  Use only with a comment saying
/// why the analysis cannot see the invariant.
#define CFSF_NO_THREAD_SAFETY_ANALYSIS \
  CFSF_TSA_ATTRIBUTE(no_thread_safety_analysis)

namespace cfsf::util {

class CondVar;

/// std::mutex declared as a Clang capability.  Prefer MutexLock; call
/// Lock()/Unlock() directly only where RAII genuinely cannot express the
/// scope (none of src/ needs to today).
class CFSF_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() CFSF_ACQUIRE() { mutex_.lock(); }
  void Unlock() CFSF_RELEASE() { mutex_.unlock(); }

 private:
  friend class CondVar;
  friend class MutexLock;
  std::mutex mutex_;
};

/// RAII scoped lock over a util::Mutex; the analysis treats its lifetime
/// as holding the mutex's capability.
class CFSF_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) CFSF_ACQUIRE(mu) : lock_(mu->mutex_) {}
  ~MutexLock() CFSF_RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable used with MutexLock.  Wait() and WaitUntil()
/// release and reacquire the mutex internally, which is a net no-op for
/// the analysis, so no annotation is needed (or correct) on them.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(MutexLock& lock) { cv_.wait(lock.lock_); }
  /// Waits until notified (or woken spuriously) or until `deadline`;
  /// false when it returned because the deadline passed.
  /// `time_point::max()` waits with no deadline.
  bool WaitUntil(MutexLock& lock,
                 std::chrono::steady_clock::time_point deadline) {
    return cv_.wait_until(lock.lock_, deadline) == std::cv_status::no_timeout;
  }
  void NotifyOne() noexcept { cv_.notify_one(); }
  void NotifyAll() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace cfsf::util
